"""Separation speculation, decomposed: ReadOnly and ShortLived (§4.2.4).

The monolithic separation speculation of Johnson et al. [25] is
split — as the paper prescribes — into two simple *factored* modules
that lean on the points-to module through premise queries:

- ``ReadOnly``: objects never written during the target loop.  Writes
  cannot target them, and pointers to them are disjoint from pointers
  to other objects.
- ``ShortLived``: heap objects living within a single loop iteration.
  No cross-iteration dependence can flow through them.

Both validate by re-allocating the asserted objects into a dedicated
heap and mask-checking computed pointers (Figure 7a), so premise
responses predicated on *prohibitive* points-to assertions are taken
and the points-to assertion is **replaced** by the module's own cheap
one (§4.2.3).  Re-allocating an object's site is exclusive: the site
is a conflict point.
"""

from __future__ import annotations

from typing import Iterable, Optional, Set, Tuple

from ...core.module import AnalysisModule, Resolver
from ...ir import Instruction
from ...profiling import AllocationSite, site_order_key
from ...query import (
    AliasQuery,
    AliasResult,
    MemoryLocation,
    ModRefQuery,
    ModRefResult,
    OptionSet,
    QueryResponse,
    SpeculativeAssertion,
    TemporalRelation,
)
from ..memory.common import object_size, strip_pointer
from .common import (
    HEAP_CHECK,
    MODULE_READ_ONLY,
    MODULE_SHORT_LIVED,
    SHORT_LIVED_ITER_CHECK,
    execution_count,
    replace_points_to_assertions,
)

#: Bound on candidate sites tried per query.
MAX_SITES = 16


class _SeparationBase(AnalysisModule):
    """Shared premise/assertion machinery of the two modules."""

    is_speculative = True
    module_id = "separation"
    #: edge: the heap-check cost scales with execution counts.
    profiles_read = frozenset({"edge"})

    # -- per-module hooks --------------------------------------------------

    def _sites(self, loop) -> Set[AllocationSite]:
        raise NotImplementedError

    def _extra_cost(self, loop) -> float:
        return 0.0

    # -- shared machinery -----------------------------------------------------

    @staticmethod
    def _anchor_location(site: AllocationSite) -> MemoryLocation:
        size = object_size(site.anchor) or 0
        return MemoryLocation(site.anchor, size)

    def _membership(self, loc: MemoryLocation, query, resolver: Resolver
                    ) -> Optional[Tuple[AllocationSite, OptionSet]]:
        """Prove ``loc`` lies within an object of one of this module's
        sites.  Fast path: the pointer is statically rooted at the
        site's anchor.  Slow path: a premise query, typically answered
        by the points-to module with Must/SubAlias."""
        sites = sorted(self._sites(query.loop),
                       key=site_order_key)[:MAX_SITES]
        # Site enumeration reads anchors in functions that may lie
        # outside the query's reachable set; record them so cached
        # footprints cover every function whose edit could move or
        # remove a candidate site.
        for site in sites:
            fn = getattr(getattr(site.anchor, "parent", None),
                         "parent", None)
            if fn is not None:
                self.context.note_scan("function", fn.name)
        base, _ = strip_pointer(loc.pointer)
        for site in sites:
            if base is site.anchor:
                return site, OptionSet.free()
        for site in sites:
            premise = AliasQuery(loc, TemporalRelation.SAME,
                                 self._anchor_location(site),
                                 query.loop, query.context, query.cfg)
            answer = resolver.premise(premise)
            if answer.result in (AliasResult.MUST_ALIAS,
                                 AliasResult.SUB_ALIAS):
                return site, answer.options
        return None

    def _foreign(self, loc: MemoryLocation, site: AllocationSite,
                 query, resolver: Resolver) -> Optional[OptionSet]:
        """Prove ``loc`` points outside ``site``'s object."""
        premise = AliasQuery(loc, query.relation,
                             self._anchor_location(site),
                             query.loop, query.context, query.cfg,
                             desired=AliasResult.NO_ALIAS)
        answer = resolver.premise(premise)
        if answer.result is AliasResult.NO_ALIAS:
            return answer.options
        return None

    def _assertion(self, site: AllocationSite, checked, cost: float,
                   description: str, loop=None) -> SpeculativeAssertion:
        """Transformation points: the allocation-site anchor first,
        then the checked pointers/instructions — pointers are tagged
        ("member", p) for pointers asserted to target the separated
        heap and ("foreign", p) for pointers asserted to miss it;
        bare store instructions are foreign writes — then (for
        short-lived assertions) the loop whose iteration boundary is
        checked."""
        points = (site.anchor,) + tuple(checked)
        if loop is not None:
            points = points + (loop,)
        return SpeculativeAssertion(
            module_id=self.module_id,
            points=points,
            cost=cost,
            conflict_points=frozenset({site.anchor}),
            description=description,
        )

    def _heap_check_cost(self, inst: Optional[Instruction]) -> float:
        edge = self.profiles.edge if self.profiles else None
        if inst is None:
            return HEAP_CHECK
        return HEAP_CHECK * max(1, execution_count(edge, inst))

    # -- alias: separated objects are disjoint from foreign pointers -----------

    def alias(self, query: AliasQuery, resolver: Resolver) -> QueryResponse:
        if self.profiles is None or query.loop is None:
            return QueryResponse.may_alias()
        if query.desired is AliasResult.MUST_ALIAS:
            return QueryResponse.may_alias()
        for loc_a, loc_b in ((query.loc1, query.loc2),
                             (query.loc2, query.loc1)):
            member = self._membership(loc_a, query, resolver)
            if member is None:
                continue
            site, member_options = member
            foreign_options = self._foreign(loc_b, site, query, resolver)
            if foreign_options is None:
                continue
            cost = (self._heap_check_cost(None)
                    + self._extra_cost(query.loop))
            assertion = self._assertion(
                site, (("member", loc_a.pointer),
                       ("foreign", loc_b.pointer)), cost,
                f"separated object at {site!r}")
            options = replace_points_to_assertions(
                member_options * foreign_options, assertion)
            if not options.is_empty:
                return QueryResponse(AliasResult.NO_ALIAS, options)
        return QueryResponse.may_alias()


class ReadOnly(_SeparationBase):
    """Objects never written during the query loop (§4.2.4)."""

    name = MODULE_READ_ONLY
    module_id = MODULE_READ_ONLY
    profiles_read = frozenset({"points_to", "edge"})
    average_assertion_cost = HEAP_CHECK

    def _sites(self, loop) -> Set[AllocationSite]:
        if self.profiles is None or loop is None:
            return set()
        return self.profiles.points_to.read_only_sites(loop)

    def modref(self, query: ModRefQuery, resolver: Resolver) -> QueryResponse:
        if self.profiles is None or query.loop is None:
            return QueryResponse.mod_ref()
        i1 = query.inst
        i2 = query.target
        # A dependence needs a writer; find it and the location whose
        # object we try to prove read-only.
        candidates = []
        loc1 = self.footprint(i1)
        loc2 = query.target_location
        if i1.writes_memory and loc2 is not None:
            candidates.append((i1, loc2))
        if isinstance(i2, Instruction) and i2.writes_memory \
                and loc1 is not None:
            candidates.append((i2, loc1))
        if i1.writes_memory and loc1 is not None:
            candidates.append((i1, loc1))

        for writer, loc in candidates:
            member = self._membership(loc, query, resolver)
            if member is None:
                continue
            site, member_options = member
            cost = self._heap_check_cost(writer)
            assertion = self._assertion(
                site, (("member", loc.pointer), writer), cost,
                f"read-only object at {site!r} in {query.loop.name}")
            options = replace_points_to_assertions(member_options, assertion)
            if not options.is_empty:
                return QueryResponse(ModRefResult.NO_MOD_REF, options)
        return QueryResponse.mod_ref()


class ShortLived(_SeparationBase):
    """Heap objects living within one loop iteration (§4.2.4)."""

    name = MODULE_SHORT_LIVED
    module_id = MODULE_SHORT_LIVED
    profiles_read = frozenset({"lifetime", "edge"})
    average_assertion_cost = HEAP_CHECK + SHORT_LIVED_ITER_CHECK

    def _sites(self, loop) -> Set[AllocationSite]:
        if self.profiles is None or loop is None:
            return set()
        return self.profiles.lifetime.short_lived_sites(loop)

    def _extra_cost(self, loop) -> float:
        """Every iteration checks allocation/free counters."""
        stats = self.profiles.loop_stats.get(loop) if self.profiles else None
        iterations = stats.iterations if stats else 1
        return SHORT_LIVED_ITER_CHECK * max(1, iterations)

    def modref(self, query: ModRefQuery, resolver: Resolver) -> QueryResponse:
        # Short-lived objects only discharge *cross-iteration*
        # dependences: within one iteration the object is live and
        # ordinary dependences through it are real.
        if self.profiles is None or query.loop is None \
                or not query.relation.is_cross_iteration:
            return QueryResponse.mod_ref()
        i1 = query.inst
        i2 = query.target
        if not (i1.writes_memory
                or (isinstance(i2, Instruction) and i2.writes_memory)):
            return QueryResponse.mod_ref()

        for loc in (self.footprint(i1), query.target_location):
            if loc is None:
                continue
            member = self._membership(loc, query, resolver)
            if member is None:
                continue
            site, member_options = member
            cost = (self._heap_check_cost(None)
                    + self._extra_cost(query.loop))
            assertion = self._assertion(
                site, (("member", loc.pointer),), cost,
                f"short-lived object at {site!r} in {query.loop.name}",
                loop=query.loop)
            options = replace_points_to_assertions(member_options, assertion)
            if not options.is_empty:
                return QueryResponse(ModRefResult.NO_MOD_REF, options)
        return QueryResponse.mod_ref()
