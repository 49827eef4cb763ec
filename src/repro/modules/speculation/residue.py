"""PointerResidue: disambiguation by low-order address bits (§4.2.3).

A *base* speculation module: it answers queries directly from the
residue profile and never issues premise queries.  Two accesses whose
profiled residue sets (expanded by access size) are disjoint cannot
overlap; validation masks each computed pointer and compares against
the expected residues — a couple of ALU operations, conflict-free.
"""

from __future__ import annotations

from ...core.module import AnalysisModule, Resolver
from ...query import (
    AliasQuery,
    AliasResult,
    OptionSet,
    QueryResponse,
    SpeculativeAssertion,
)
from .common import MODULE_RESIDUE, RESIDUE_CHECK


class PointerResidue(AnalysisModule):
    """Speculates on observed pointer residues."""

    name = MODULE_RESIDUE
    is_speculative = True
    profiles_read = frozenset({"residue"})
    average_assertion_cost = RESIDUE_CHECK

    def alias(self, query: AliasQuery, resolver: Resolver) -> QueryResponse:
        if self.profiles is None:
            return QueryResponse.may_alias()
        if query.desired is AliasResult.MUST_ALIAS:
            return QueryResponse.may_alias()  # residues only prove NoAlias
        profile = self.profiles.residue
        p1, s1 = query.loc1.pointer, query.loc1.size
        p2, s2 = query.loc2.pointer, query.loc2.size
        if not profile.disjoint(p1, s1, p2, s2):
            return QueryResponse.may_alias()
        cost = RESIDUE_CHECK * (profile.execution_count(p1)
                                + profile.execution_count(p2))
        assertion = SpeculativeAssertion(
            module_id=MODULE_RESIDUE,
            points=(p1, p2),
            cost=cost,
            description=(f"residues {sorted(profile.residue_set(p1))} vs "
                         f"{sorted(profile.residue_set(p2))}"),
        )
        return QueryResponse(AliasResult.NO_ALIAS,
                             OptionSet.single(assertion))
