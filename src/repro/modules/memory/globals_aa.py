"""Global-rooted reasoning: GlobalMallocAA and UniqueAccessPathsAA.

Both modules reason about *which pointers a global can hold*:

- ``GlobalMallocAA``: if every store to a pointer global stores a
  fresh allocation, a pointer loaded from that global can only denote
  one of those heap objects — disjoint from every other identified
  object.
- ``UniqueAccessPathsAA``: if no store to the global can execute
  during the query loop, every load of it within the loop yields the
  *same* pointer, enabling must-alias conclusions between accesses
  rooted at such loads.

Both are *factored*: stores that would break the invariant are
discharged through executability premise queries (answerable by
control speculation for profile-dead code, §4.2.3).
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from ...analysis import Loop, affine_parts
from ...core.module import AnalysisModule, Resolver
from ...ir import (
    CallInst,
    Function,
    GlobalVariable,
    Instruction,
    LoadInst,
    StoreInst,
    Value,
)
from ...query import (AliasQuery, AliasResult, OptionSet, QueryResponse,
                      TemporalRelation)
from .common import (
    capture_instructions,
    interval_alias,
    is_allocator_call,
    is_identified_object,
    premise_unexecutable,
    strip_pointer,
)
from .scev_aa import affine_disjoint


def _load_of_global(base: Value) -> Optional[GlobalVariable]:
    """Match ``base = load @g`` (through casts/GEP-0)."""
    if not isinstance(base, LoadInst):
        return None
    root, offset = strip_pointer(base.pointer)
    if isinstance(root, GlobalVariable) and offset == 0:
        return root
    return None


def _stores_to_global(context, g: GlobalVariable) -> Optional[List[StoreInst]]:
    """All stores writing the global's slot, or None if unknown writers
    may exist (the global's address escapes)."""
    captures = capture_instructions(context, g)
    if captures:
        return None  # unknown pointers may write the slot
    if captures is None:
        return None
    stores = []
    for user in context.users_of(g):
        if isinstance(user, StoreInst) and user.pointer is g:
            stores.append(user)
    return stores


class GlobalMallocAA(AnalysisModule):
    """Pointers loaded from an allocation-holding global are disjoint
    from every other identified object."""

    name = "global-malloc-aa"

    def alias(self, query: AliasQuery, resolver: Resolver) -> QueryResponse:
        if query.desired is AliasResult.MUST_ALIAS:
            return QueryResponse.may_alias()
        pairs = ((query.loc1, query.loc2), (query.loc2, query.loc1))
        for loc_a, loc_b in pairs:
            base_a, _ = strip_pointer(loc_a.pointer)
            g = _load_of_global(base_a)
            if g is None:
                continue
            result = self._sites_held(g, query, resolver)
            if result is None:
                continue
            sites, options = result
            base_b, _ = strip_pointer(loc_b.pointer)
            if base_b in sites:
                continue
            if is_identified_object(base_b):
                # The loaded pointer denotes one of ``sites``'s heap
                # objects; base_b is a different identified object.
                return QueryResponse(AliasResult.NO_ALIAS, options)
            g_b = _load_of_global(base_b)
            if g_b is not None and g_b is not g:
                other = self._sites_held(g_b, query, resolver)
                if other is not None and not (sites & other[0]):
                    return QueryResponse(AliasResult.NO_ALIAS,
                                         options * other[1])
        return QueryResponse.may_alias()

    def _sites_held(self, g: GlobalVariable, query: AliasQuery,
                    resolver: Resolver
                    ) -> Optional[Tuple[Set[CallInst], OptionSet]]:
        """The allocator callsites whose results ``g`` may hold, with
        the assertions needed to discount other writers."""
        stores = _stores_to_global(self.context, g)
        if stores is None:
            return None
        sites: Set[CallInst] = set()
        options = OptionSet.free()
        for store in stores:
            value, offset = strip_pointer(store.value)
            if offset == 0 and is_allocator_call(value):
                sites.add(value)
                continue
            response = premise_unexecutable(resolver, store, query)
            if response is None:
                return None
            options = options * response.options
            if options.is_empty:
                return None
        return sites, options


class UniqueAccessPathsAA(AnalysisModule):
    """Loads of a write-quiescent global yield one pointer value."""

    name = "unique-access-paths-aa"

    def alias(self, query: AliasQuery, resolver: Resolver) -> QueryResponse:
        if query.loop is None:
            return QueryResponse.may_alias()
        b1, o1 = strip_pointer(query.loc1.pointer)
        b2, o2 = strip_pointer(query.loc2.pointer)
        g1 = _load_of_global(b1)
        g2 = _load_of_global(b2)
        if g1 is None or g1 is not g2:
            return QueryResponse.may_alias()
        # b1 and b2 may be the same load or different loads of the
        # same global: quiescence makes every in-loop load (and every
        # dynamic instance across iterations) yield one pointer value,
        # so the affine-offset comparison below is valid either way.

        options = self._quiescent_during(g1, query, resolver)
        if options is None:
            return QueryResponse.may_alias()

        # Both loads observe the same pointer value during the loop, so
        # the two accesses are offsets off one base: compare their
        # affine offset expressions.
        fn = self._query_function(query)
        if fn is None:
            return QueryResponse.may_alias()
        scev = self.context.scalar_evolution(fn)
        base1, off1 = scev.pointer_offset(query.loc1.pointer, query.loop)
        base2, off2 = scev.pointer_offset(query.loc2.pointer, query.loop)
        if base1 is not b1 or base2 is not b2:
            return QueryResponse.may_alias()
        a1 = affine_parts(off1, query.loop)
        a2 = affine_parts(off2, query.loop)
        if a1 is None or a2 is None:
            return QueryResponse.may_alias()
        (c1, s1), (c2, s2) = a1, a2
        size1, size2 = query.loc1.size, query.loc2.size
        if affine_disjoint(c1 - c2, s1, s2, size1, size2, query.relation):
            return QueryResponse(AliasResult.NO_ALIAS, options)
        if (query.relation is TemporalRelation.SAME and (c1, s1) == (c2, s2)
                and size1 == size2 and size1 > 0
                and query.desired is not AliasResult.NO_ALIAS):
            return QueryResponse(AliasResult.MUST_ALIAS, options)
        return QueryResponse.may_alias()

    def _quiescent_during(self, g: GlobalVariable, query: AliasQuery,
                          resolver: Resolver) -> Optional[OptionSet]:
        """Assertions under which no store writes ``g`` while the query
        loop runs (so all loads of ``g`` in the loop agree)."""
        stores = _stores_to_global(self.context, g)
        if stores is None:
            return None
        loop = query.loop
        callable_fns = _functions_callable_from(self.context, loop)
        options = OptionSet.free()
        for store in stores:
            fn = store.function
            inside = (fn is loop.function and loop.contains(store)) or \
                (fn in callable_fns)
            if not inside:
                continue
            response = premise_unexecutable(resolver, store, query)
            if response is None:
                return None
            options = options * response.options
            if options.is_empty:
                return None
        return options


def _functions_callable_from(context, loop: Loop) -> Set[Function]:
    """Functions transitively callable while ``loop`` executes."""
    cg = context.callgraph
    seen: Set[Function] = set()
    work: List[Function] = []
    for inst in loop.instructions():
        if isinstance(inst, CallInst):
            work.append(inst.callee)
    while work:
        fn = work.pop()
        if fn in seen:
            continue
        seen.add(fn)
        work.extend(cg.callees_of(fn))
    return seen
