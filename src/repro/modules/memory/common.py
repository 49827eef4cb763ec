"""Shared pointer-reasoning helpers for memory analysis modules."""

from __future__ import annotations

from typing import List, Optional, Tuple

from ...analysis import Loop
from ...ir import (
    AllocaInst,
    Argument,
    CallInst,
    CastInst,
    Constant,
    GEPInst,
    GlobalVariable,
    ICmpInst,
    Instruction,
    LoadInst,
    NullPointer,
    PhiInst,
    StoreInst,
    Value,
)
from ...query import (
    AliasResult,
    MemoryLocation,
    ModRefQuery,
    ModRefResult,
    TemporalRelation,
)

#: Names of external functions returning fresh, unaliased memory.
ALLOCATOR_NAMES = frozenset({"malloc", "calloc"})


def strip_pointer(value: Value) -> Tuple[Value, Optional[int]]:
    """Strip GEP/bitcast chains off a pointer.

    Returns ``(base, offset)`` where ``offset`` is the constant byte
    offset from ``base``, or None if any index is non-constant (the
    base is still fully stripped in that case).
    """
    offset: Optional[int] = 0
    cur = value
    while True:
        if isinstance(cur, GEPInst):
            step = cur.constant_offset()
            if offset is not None and step is not None:
                offset += step
            else:
                offset = None
            cur = cur.pointer
        elif isinstance(cur, CastInst) and cur.op == "bitcast":
            cur = cur.value
        else:
            return cur, offset


def underlying_base(value: Value) -> Value:
    """The base pointer after stripping all GEPs and bitcasts."""
    base, _ = strip_pointer(value)
    return base


def is_allocator_call(value: Value) -> bool:
    """True for calls to malloc-like functions (fresh memory)."""
    return (isinstance(value, CallInst)
            and (value.callee.name in ALLOCATOR_NAMES
                 or "noalias_return" in value.callee.attributes))


def is_identified_object(value: Value) -> bool:
    """True if the value denotes the start of a distinct object."""
    return (isinstance(value, (GlobalVariable, AllocaInst, NullPointer))
            or is_allocator_call(value))


def object_size(value: Value) -> Optional[int]:
    """Static size in bytes of an identified object, if known."""
    if isinstance(value, GlobalVariable):
        return value.value_type.size
    if isinstance(value, AllocaInst):
        return value.allocated_type.size
    if is_allocator_call(value) and value.args:
        arg = value.args[0]
        if isinstance(arg, Constant):
            size = int(arg.value)
            if value.callee.name == "calloc" and len(value.args) > 1:
                second = value.args[1]
                if isinstance(second, Constant):
                    return size * int(second.value)
                return None
            return size
    return None


def is_loop_variant(value: Value, loop: Optional[Loop]) -> bool:
    """True if ``value`` may change across iterations of ``loop``."""
    if loop is None:
        return False
    return isinstance(value, Instruction) and loop.contains(value)


def interval_alias(o1: int, s1: int, o2: int, s2: int) -> AliasResult:
    """Alias result of two constant intervals over the *same* base.

    Sizes of 0 mean "unknown extent" and force a conservative answer
    unless the offsets alone prove disjointness is impossible to
    establish.
    """
    if s1 <= 0 or s2 <= 0:
        return AliasResult.MAY_ALIAS
    if o1 + s1 <= o2 or o2 + s2 <= o1:
        return AliasResult.NO_ALIAS
    if o1 == o2 and s1 == s2:
        return AliasResult.MUST_ALIAS
    if o2 <= o1 and o1 + s1 <= o2 + s2:
        return AliasResult.SUB_ALIAS       # loc1 inside loc2
    if o1 <= o2 and o2 + s2 <= o1 + s1:
        return AliasResult.SUB_ALIAS       # loc2 inside loc1
    return AliasResult.PARTIAL_ALIAS


def premise_unexecutable(resolver, inst: Instruction, query):
    """Premise: can ``inst`` never execute in the query's context?

    Encoded as ``modref(inst, Same, <inst's own footprint>)``: every
    module answers Mod for an executable store, but a module aware
    that the instruction's block cannot run (e.g. control speculation
    over profile-dead blocks) answers NoModRef.  Returns the NoModRef
    response (whose options carry any speculative assertions), or None
    if the instruction must be assumed executable.

    The premise deliberately carries **no loop scope**: executability
    is a whole-program property.  A loop-scoped premise would let
    loop-relative modules (e.g. read-only) answer NoModRef for stores
    that merely execute *before* the loop — which is true under the
    loop-scoped query semantics but useless (and unsound) as an
    executability proof.
    """
    if isinstance(inst, StoreInst):
        target = MemoryLocation.of(inst)
    else:
        pointer = next((op for op in inst.operands
                        if op.type.is_pointer), None)
        if pointer is None:
            return None
        target = MemoryLocation(pointer, 0)
    premise = ModRefQuery(inst, TemporalRelation.SAME, target,
                          None, query.context, query.cfg)
    response = resolver.premise(premise)
    if response.result is ModRefResult.NO_MOD_REF:
        return response
    return None


def capture_instructions(context, value: Value) -> Optional[List[Instruction]]:
    """Instructions that may *capture* a pointer (store it or pass it on).

    Walks the uses of ``value`` and of pointers derived from it.
    Returns the list of capturing instructions, or None if the
    analysis gave up (e.g. the pointer flows through a phi).
    """
    if isinstance(value, GlobalVariable):
        # users_of sweeps every defined function; footprints must cover
        # this global's user set, not just the caller's reachable code.
        context.note_scan("global", value.name)
    captures: List[Instruction] = []
    seen = set()
    work: List[Value] = [value]
    while work:
        cur = work.pop()
        if id(cur) in seen:
            continue
        seen.add(id(cur))
        for user in context.users_of(cur):
            if isinstance(user, LoadInst):
                continue  # loading through the pointer is not a capture
            if isinstance(user, StoreInst):
                if user.value is cur:
                    captures.append(user)  # the address itself is stored
                continue
            if isinstance(user, (GEPInst, CastInst)):
                work.append(user)
                continue
            if isinstance(user, ICmpInst):
                continue
            if isinstance(user, CallInst):
                if user.callee.name == "free":
                    continue
                captures.append(user)
                continue
            if isinstance(user, PhiInst):
                return None  # too hard to track
            return None
    return captures
