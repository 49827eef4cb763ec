"""MemorySpeculation: the expensive baseline (§5, "Memory Speculation").

Asserts the absence of any dependence not observed by the
loop-sensitive memory dependence profiler.  Unlike SCAF's cheap
modules, it understands *nothing* about why a dependence was absent;
validation must monitor the access patterns of both instructions
through shadow memory (Figure 7b), so its per-check cost dwarfs every
other module's.  SCAF's whole point is to shrink how often clients
must fall back to this.
"""

from __future__ import annotations

from ...core.module import AnalysisModule, Resolver
from ...ir import Instruction
from ...query import (
    ModRefQuery,
    ModRefResult,
    OptionSet,
    QueryResponse,
    SpeculativeAssertion,
    TemporalRelation,
)
from .common import MEMORY_SPEC_CHECK, MODULE_MEMORY_SPEC, execution_count


class MemorySpeculation(AnalysisModule):
    """Speculates away every non-observed dependence."""

    name = MODULE_MEMORY_SPEC
    is_speculative = True
    profiles_read = frozenset({"edge", "memdep"})
    average_assertion_cost = MEMORY_SPEC_CHECK

    def modref(self, query: ModRefQuery, resolver: Resolver) -> QueryResponse:
        if self.profiles is None or query.loop is None:
            return QueryResponse.mod_ref()
        i2 = query.target
        if not isinstance(i2, Instruction):
            return QueryResponse.mod_ref()
        i1 = query.inst
        if query.relation is TemporalRelation.AFTER:
            return QueryResponse.mod_ref()

        edge = self.profiles.edge
        # High-confidence speculation needs evidence: the loop must
        # have executed during profiling.
        if not edge.executed(query.loop.header):
            return QueryResponse.mod_ref()

        cross = query.relation.is_cross_iteration
        if self.profiles.memdep.is_observed(query.loop, i1, i2, cross):
            return QueryResponse.mod_ref()

        cost = MEMORY_SPEC_CHECK * (max(1, execution_count(edge, i1))
                                    + max(1, execution_count(edge, i2)))
        # Transformation points: source, sink, the scoping loop, and
        # whether the speculated dependence is loop-carried — the
        # validator needs all four to place shadow checks correctly.
        assertion = SpeculativeAssertion(
            module_id=MODULE_MEMORY_SPEC,
            points=(i1, i2, query.loop, cross),
            cost=cost,
            description=(f"dependence %{i1.name or i1.opcode} -> "
                         f"%{i2.name or i2.opcode} never observed"),
        )
        return QueryResponse(ModRefResult.NO_MOD_REF,
                             OptionSet.single(assertion))
