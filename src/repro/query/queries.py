"""Dependence analysis queries (§3.2, Figure 3).

Two query types, as in LLVM/CAF: ``alias`` (may two pointers denote
overlapping memory?) and ``modref`` (may an instruction read or write
a location / another instruction's footprint?).

SCAF's extensions over CAF are all present:

- the *temporal relation* (Before/Same/After) scoping the query to
  intra- vs cross-iteration dynamic instances of a loop,
- an optional *calling context*,
- optional *control-flow information* in the form of dominator and
  post-dominator trees (:class:`CFGView`), which may silently be
  speculative, and
- the *desired result* parameter for alias premise queries, letting
  responders bail out early (§3.2.2, evaluated in Figure 10).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Tuple, Union

from ..analysis import DominatorTree, Loop, is_reachable
from ..ir import (BasicBlock, CallInst, Function, Instruction, LoadInst,
                  StoreInst, Value)


class TemporalRelation(enum.Enum):
    """Relative iteration of the two query subjects (Figure 3).

    ``BEFORE``: the first operation executes in a strictly-earlier
    iteration of the query loop than the second; ``SAME``: the same
    iteration; ``AFTER``: strictly later.
    """

    BEFORE = "Before"
    SAME = "Same"
    AFTER = "After"

    @property
    def is_cross_iteration(self) -> bool:
        return self is not TemporalRelation.SAME

    def flipped(self) -> "TemporalRelation":
        if self is TemporalRelation.BEFORE:
            return TemporalRelation.AFTER
        if self is TemporalRelation.AFTER:
            return TemporalRelation.BEFORE
        return TemporalRelation.SAME


class AliasResult(enum.Enum):
    """Result lattice of alias queries (Figure 4)."""

    NO_ALIAS = "NoAlias"
    MUST_ALIAS = "MustAlias"
    SUB_ALIAS = "SubAlias"
    PARTIAL_ALIAS = "PartialAlias"
    MAY_ALIAS = "MayAlias"


class ModRefResult(enum.Enum):
    """Result lattice of modref queries."""

    NO_MOD_REF = "NoModRef"
    REF = "Ref"
    MOD = "Mod"
    MOD_REF = "ModRef"


#: Precision ordering (Algorithm 2).  Higher is more precise.
_ALIAS_PRECISION = {
    AliasResult.NO_ALIAS: 3,
    AliasResult.MUST_ALIAS: 3,
    AliasResult.SUB_ALIAS: 2,
    AliasResult.PARTIAL_ALIAS: 1,
    AliasResult.MAY_ALIAS: 0,
}

_MODREF_PRECISION = {
    ModRefResult.NO_MOD_REF: 2,
    ModRefResult.MOD: 1,
    ModRefResult.REF: 1,
    ModRefResult.MOD_REF: 0,
}


def precision(result: Union[AliasResult, ModRefResult]) -> int:
    """The ``pr(·)`` ordering of Algorithm 2."""
    if isinstance(result, AliasResult):
        return _ALIAS_PRECISION[result]
    return _MODREF_PRECISION[result]


def most_precise(kind: type) -> int:
    return 3 if kind is AliasResult else 2


@dataclass(frozen=True)
class MemoryLocation:
    """A pointer plus an access size in bytes."""

    pointer: Value
    size: int

    @staticmethod
    def of(inst: Instruction) -> "MemoryLocation":
        """The footprint of a load or store."""
        if isinstance(inst, LoadInst):
            return MemoryLocation(inst.pointer, inst.access_size)
        if isinstance(inst, StoreInst):
            return MemoryLocation(inst.pointer, inst.access_size)
        raise TypeError(f"no single footprint for {inst.opcode}")

    def __repr__(self) -> str:
        return f"({self.pointer.ref}, {self.size})"


class CFGView:
    """Control-flow information attached to a query (§3.2.2).

    Bundles a dominator tree, a post-dominator tree, and the set of
    blocks pruned from the CFG.  A static view has no pruned blocks; a
    *speculative* view (built by the control-speculation module) omits
    profile-dead blocks.  Consumers cannot tell the difference — that
    is the point.
    """

    __slots__ = ("function", "dt", "pdt", "dead")

    def __init__(self, function: Function, dt: DominatorTree,
                 pdt: DominatorTree,
                 dead: FrozenSet[BasicBlock] = frozenset()):
        self.function = function
        self.dt = dt
        self.pdt = pdt
        self.dead = dead

    @staticmethod
    def static(analysis, function: Function) -> "CFGView":
        """The non-speculative view of ``function``'s CFG."""
        return CFGView(
            function,
            analysis.dominator_tree(function),
            analysis.post_dominator_tree(function),
            frozenset(),
        )

    @property
    def is_speculative(self) -> bool:
        return bool(self.dead)

    def is_live(self, bb: BasicBlock) -> bool:
        return bb not in self.dead and self.dt.contains(bb)

    def dominates(self, a: Instruction, b: Instruction) -> bool:
        return self.dt.dominates_instruction(a, b)

    def post_dominates(self, a: Instruction, b: Instruction) -> bool:
        return self.pdt.dominates_instruction(a, b)

    def reachable(self, src: BasicBlock, dst: BasicBlock,
                  exclude_start: bool = False) -> bool:
        return is_reachable(src, dst, ignore=self.dead,
                            exclude_start=exclude_start)

    def __repr__(self) -> str:
        kind = "speculative" if self.is_speculative else "static"
        return f"<CFGView {kind} @{self.function.name}>"


CallingContext = Tuple[CallInst, ...]


@dataclass(frozen=True)
class AliasQuery:
    """``alias(m1, tr, m2, l, cc, dr)`` plus control-flow info."""

    loc1: MemoryLocation
    relation: TemporalRelation
    loc2: MemoryLocation
    loop: Optional[Loop]
    context: CallingContext = ()
    cfg: Optional[CFGView] = None
    desired: Optional[AliasResult] = None

    @property
    def result_type(self) -> type:
        return AliasResult

    def key(self) -> tuple:
        """Hashable identity for memoization and cycle detection."""
        return ("alias", id(self.loc1.pointer), self.loc1.size,
                self.relation, id(self.loc2.pointer), self.loc2.size,
                id(self.loop), tuple(id(c) for c in self.context),
                id(self.cfg) if self.cfg is not None else None,
                self.desired)

    def flipped(self) -> "AliasQuery":
        """The symmetric query (alias is symmetric up to the relation)."""
        return AliasQuery(self.loc2, self.relation.flipped(), self.loc1,
                          self.loop, self.context, self.cfg, self.desired)

    def with_cfg(self, cfg: CFGView) -> "AliasQuery":
        return AliasQuery(self.loc1, self.relation, self.loc2, self.loop,
                          self.context, cfg, self.desired)

    def with_desired(self, desired: Optional[AliasResult]) -> "AliasQuery":
        return AliasQuery(self.loc1, self.relation, self.loc2, self.loop,
                          self.context, self.cfg, desired)

    def __repr__(self) -> str:
        loop = self.loop.name if self.loop else "none"
        return (f"alias({self.loc1!r}, {self.relation.value}, "
                f"{self.loc2!r}, loop={loop})")


@dataclass(frozen=True)
class ModRefQuery:
    """``modref(i1, tr, i2/m, l, cc, dt, pdt)``.

    ``target`` is either another instruction (footprint comparison) or
    a :class:`MemoryLocation`.
    """

    inst: Instruction
    relation: TemporalRelation
    target: Union[Instruction, MemoryLocation]
    loop: Optional[Loop]
    context: CallingContext = ()
    cfg: Optional[CFGView] = None

    @property
    def result_type(self) -> type:
        return ModRefResult

    @property
    def target_location(self) -> Optional[MemoryLocation]:
        if isinstance(self.target, MemoryLocation):
            return self.target
        try:
            return MemoryLocation.of(self.target)
        except TypeError:
            return None

    def key(self) -> tuple:
        target = self.target
        if isinstance(target, MemoryLocation):
            tkey = ("loc", id(target.pointer), target.size)
        else:
            tkey = ("inst", id(target))
        return ("modref", id(self.inst), self.relation, tkey,
                id(self.loop), tuple(id(c) for c in self.context),
                id(self.cfg) if self.cfg is not None else None)

    def with_cfg(self, cfg: CFGView) -> "ModRefQuery":
        return ModRefQuery(self.inst, self.relation, self.target, self.loop,
                           self.context, cfg)

    def __repr__(self) -> str:
        loop = self.loop.name if self.loop else "none"
        target = (f"%{self.target.name}" if isinstance(self.target, Instruction)
                  else repr(self.target))
        return (f"modref(%{self.inst.name or self.inst.opcode}, "
                f"{self.relation.value}, {target}, loop={loop})")


Query = Union[AliasQuery, ModRefQuery]
