"""PointsToSpeculation: profiled points-to sets (§4.2.3).

A *base* module interpreting the pointer-to-object profile.  Its
answers carry a deliberately *prohibitive* validation cost — checking
full points-to maps at runtime is not economical — so clients never
leverage them directly.  Their value is collaborative: the read-only
and short-lived modules consume this module's answers through premise
queries and replace the prohibitive assertion with their own cheap
heap checks (§4.2.3, "Points-to Speculation").
"""

from __future__ import annotations

from typing import Optional, Set

from ...core.module import AnalysisModule, Resolver
from ...ir import Value
from ...profiling import AllocationSite, static_site_of_value
from ...query import (
    AliasQuery,
    AliasResult,
    OptionSet,
    PROHIBITIVE_COST,
    QueryResponse,
    SpeculativeAssertion,
)
from ..memory.common import strip_pointer
from .common import MODULE_POINTS_TO


def anchor_site_of(pointer: Value) -> Optional[AllocationSite]:
    """The allocation site a pointer *statically* anchors (whole object),
    if it is directly a global/alloca/allocator result."""
    base, offset = strip_pointer(pointer)
    if offset != 0:
        return None
    return static_site_of_value(base)


def _same_anchor(profiled: AllocationSite, anchor: AllocationSite) -> bool:
    """Profiled sites carry calling context; static anchors do not."""
    return profiled.kind == anchor.kind and profiled.anchor is anchor.anchor


class PointsToSpeculation(AnalysisModule):
    """Speculates on profiled points-to sets (prohibitive to validate)."""

    name = MODULE_POINTS_TO
    is_speculative = True
    profiles_read = frozenset({"points_to"})
    average_assertion_cost = PROHIBITIVE_COST

    def _sites(self, pointer: Value) -> Optional[Set[AllocationSite]]:
        if self.profiles is None:
            return None
        return self.profiles.points_to.sites_of(pointer)

    def _assertion(self, p1: Value, p2: Value) -> SpeculativeAssertion:
        return SpeculativeAssertion(
            module_id=MODULE_POINTS_TO,
            points=(p1, p2),
            cost=PROHIBITIVE_COST,
            description="profiled points-to sets",
        )

    def alias(self, query: AliasQuery, resolver: Resolver) -> QueryResponse:
        p1, p2 = query.loc1.pointer, query.loc2.pointer
        s1 = self._sites(p1)
        s2 = self._sites(p2)

        # Disjoint profiled site sets: the pointers denote different
        # objects.
        if query.desired is not AliasResult.MUST_ALIAS:
            if s1 and s2 and not _intersect(s1, s2):
                return QueryResponse(
                    AliasResult.NO_ALIAS,
                    OptionSet.single(self._assertion(p1, p2)))

        # Containment: loc1's pointer resolves to exactly the object
        # statically anchored by loc2's pointer (the whole object), so
        # loc1 lies within loc2's object: SubAlias (§3.2.3, Figure 4).
        # Pointless when the asker wants specifically NoAlias/MustAlias.
        if query.desired is None:
            anchor2 = anchor_site_of(p2)
            if anchor2 is not None and s1:
                if all(_same_anchor(site, anchor2) for site in s1):
                    return QueryResponse(
                        AliasResult.SUB_ALIAS,
                        OptionSet.single(self._assertion(p1, p2)))
        return QueryResponse.may_alias()


def _intersect(s1: Set[AllocationSite], s2: Set[AllocationSite]) -> bool:
    """Context-insensitive site overlap (anchors compared identically)."""
    anchors1 = {(site.kind, id(site.anchor)) for site in s1}
    anchors2 = {(site.kind, id(site.anchor)) for site in s2}
    return bool(anchors1 & anchors2)
