"""The PDG client (§5).

For each hot loop, issues an intra-iteration and a cross-iteration
modref query for every ordered pair of memory operations that could
produce a dependence (at least one side writes), builds the memory
arcs of a Program Dependence Graph, and computes the %NoDep metric.

Clients are where speculative assertions meet economics: responses
whose every assertion option is prohibitively expensive (points-to
speculation) are discarded, exactly as §5 prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..analysis import Loop
from ..core.framework import DependenceAnalysis
from ..ir import CallInst, Instruction
from ..query import (
    CFGView,
    ModRefQuery,
    ModRefResult,
    OptionSet,
    QueryResponse,
    TemporalRelation,
)


@dataclass
class DependenceRecord:
    """The outcome of one dependence query."""

    src: Instruction
    dst: Instruction
    cross_iteration: bool
    response: QueryResponse
    usable_options: OptionSet
    contributors: FrozenSet[str]

    @property
    def removed(self) -> bool:
        """True if the client can act on a no-dependence result."""
        return (self.response.result is ModRefResult.NO_MOD_REF
                and not self.usable_options.is_empty)

    @property
    def speculative(self) -> bool:
        return self.removed and not self.usable_options.is_free

    @property
    def validation_cost(self) -> float:
        if not self.removed:
            return 0.0
        return self.usable_options.cheapest_cost()


@dataclass
class LoopPDG:
    """Memory-dependence arcs of one loop, plus query bookkeeping."""

    loop: Loop
    records: List[DependenceRecord] = field(default_factory=list)

    @property
    def total_queries(self) -> int:
        return len(self.records)

    @property
    def no_dep_count(self) -> int:
        return sum(1 for r in self.records if r.removed)

    @property
    def no_dep_percent(self) -> float:
        """The %NoDep metric of §5."""
        if not self.records:
            return 100.0
        return 100.0 * self.no_dep_count / self.total_queries

    @property
    def dependences(self) -> List[DependenceRecord]:
        return [r for r in self.records if not r.removed]

    def total_validation_cost(self) -> float:
        return sum(r.validation_cost for r in self.records)

    def to_networkx(self):
        """The PDG's memory arcs as a networkx MultiDiGraph."""
        import networkx as nx
        graph = nx.MultiDiGraph(loop=self.loop.name)
        for inst in _memory_instructions(self.loop):
            graph.add_node(inst, label=inst.name or inst.opcode)
        for record in self.dependences:
            graph.add_edge(record.src, record.dst,
                           cross=record.cross_iteration)
        return graph


def _memory_instructions(loop: Loop) -> List[Instruction]:
    return [i for i in loop.instructions() if i.accesses_memory]


def _may_write(inst: Instruction) -> bool:
    return inst.writes_memory


class PDGClient:
    """Builds loop PDGs through a dependence-analysis system."""

    def __init__(self, system: DependenceAnalysis,
                 discard_prohibitive: bool = True):
        self.system = system
        self.discard_prohibitive = discard_prohibitive

    def analyze_loop(self, loop: Loop) -> LoopPDG:
        """Query every potential dependence pair of the loop.

        Each loop gets a fresh memo and trace, so its answer and
        footprint do not depend on the loops analyzed before it.
        """
        self.system.clear_cache()
        pdg = LoopPDG(loop)
        insts = _memory_instructions(loop)
        cfg = CFGView.static(self.system.context, loop.function)
        for src in insts:
            for dst in insts:
                for relation in (TemporalRelation.SAME,
                                 TemporalRelation.BEFORE):
                    if relation is TemporalRelation.SAME and src is dst:
                        continue
                    if not (_may_write(src) or _may_write(dst)):
                        continue
                    pdg.records.append(
                        self._query(src, dst, relation, loop, cfg))
        return pdg

    def _query(self, src: Instruction, dst: Instruction,
               relation: TemporalRelation, loop: Loop,
               cfg: CFGView) -> DependenceRecord:
        query = ModRefQuery(src, relation, dst, loop, (), cfg)
        response = self.system.query(query)
        contributors = frozenset(self.system.last_contributors)
        usable = response.options
        if self.discard_prohibitive:
            usable = usable.without_prohibitive()
        return DependenceRecord(
            src=src,
            dst=dst,
            cross_iteration=relation.is_cross_iteration,
            response=response,
            usable_options=usable,
            contributors=contributors,
        )
