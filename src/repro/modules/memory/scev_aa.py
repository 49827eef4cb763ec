"""Affine pointer disambiguation: ScalarEvolutionAA and InductionVariableAA.

Both modules decompose pointers into ``base + affine offset`` over the
query loop and reason about whether the byte intervals of the two
accesses can coincide in the iterations the temporal relation allows.
The arithmetic core, :func:`affine_disjoint`, is a pure function
(property-tested against brute force in the test suite).
"""

from __future__ import annotations

from math import gcd
from typing import Optional

from ...analysis import SCEVAddRec, affine_parts
from ...core.module import AnalysisModule, Resolver
from ...query import AliasQuery, AliasResult, QueryResponse, TemporalRelation
from .common import is_loop_variant, strip_pointer


def _window(size1: int, size2: int):
    """Integer displacements w with -size2 < w < size1 (overlap window)."""
    return range(-size2 + 1, size1)


def affine_disjoint(dc: int, s1: int, s2: int, size1: int, size2: int,
                    relation: TemporalRelation) -> bool:
    """Can accesses at ``o1 + s1*i`` (size1) and ``o2 + s2*j`` (size2),
    with ``dc = o1 - o2``, never overlap for iterations allowed by
    ``relation`` (SAME: i == j; BEFORE: i < j; AFTER: i > j)?

    Returns True only when overlap is *impossible* for all i, j ≥ 0.
    """
    if size1 <= 0 or size2 <= 0:
        return False

    if relation is TemporalRelation.AFTER:
        # alias(l1 AFTER l2) == alias(l2 BEFORE l1), displacement negated.
        return affine_disjoint(-dc, s2, s1, size2, size1,
                               TemporalRelation.BEFORE)

    if relation is TemporalRelation.SAME:
        ds = s1 - s2
        if ds == 0:
            return not (-size2 < dc < size1)
        for w in _window(size1, size2):
            delta = w - dc
            if delta % ds == 0 and delta // ds >= 0:
                return False
        return True

    # BEFORE: D(i, k) = dc + (s1 - s2)*i - s2*k with i >= 0, k >= 1.
    ds = s1 - s2
    if ds == 0:
        if s2 == 0:
            return not (-size2 < dc < size1)
        for w in _window(size1, size2):
            delta = dc - w
            if delta % s2 == 0 and delta // s2 >= 1:
                return False
        return True
    # Two degrees of freedom: fall back to the gcd lattice.  If no
    # window displacement is congruent to dc modulo gcd(ds, s2), the
    # difference can never land in the window.
    g = gcd(abs(ds), abs(s2))
    if g == 0:
        return not (-size2 < dc < size1)
    return all((dc - w) % g != 0 for w in _window(size1, size2))


class ScalarEvolutionAA(AnalysisModule):
    """Strided accesses off a common invariant base never overlapping."""

    name = "scev-aa"

    def alias(self, query: AliasQuery, resolver: Resolver) -> QueryResponse:
        if query.loop is None:
            return QueryResponse.may_alias()
        fn = self._query_function(query)
        if fn is None:
            return QueryResponse.may_alias()
        scev = self.context.scalar_evolution(fn)

        b1, off1 = scev.pointer_offset(query.loc1.pointer, query.loop)
        b2, off2 = scev.pointer_offset(query.loc2.pointer, query.loop)
        if b1 is not b2:
            return QueryResponse.may_alias()
        if query.relation.is_cross_iteration and \
                is_loop_variant(b1, query.loop):
            return QueryResponse.may_alias()

        a1 = affine_parts(off1, query.loop)
        a2 = affine_parts(off2, query.loop)
        if a1 is None or a2 is None:
            return QueryResponse.may_alias()
        (c1, s1), (c2, s2) = a1, a2

        if affine_disjoint(c1 - c2, s1, s2,
                           query.loc1.size, query.loc2.size,
                           query.relation):
            return QueryResponse.no_alias()

        # MustAlias: same affine function, same iteration, same size.
        if (query.relation is TemporalRelation.SAME
                and (c1, s1) == (c2, s2)
                and query.loc1.size == query.loc2.size
                and query.loc1.size > 0):
            return QueryResponse.must_alias()
        return QueryResponse.may_alias()


class InductionVariableAA(AnalysisModule):
    """Cross-iteration injectivity of induction-variable addressing.

    Handles the common ``a[i]`` vs ``a[i]`` (same SSA pointer, later
    iteration) case even when the offset's base is *symbolic*: the
    bases cancel, so only the stride matters.
    """

    name = "induction-variable-aa"

    def alias(self, query: AliasQuery, resolver: Resolver) -> QueryResponse:
        if query.desired is AliasResult.MUST_ALIAS:
            return QueryResponse.may_alias()
        if query.loop is None or not query.relation.is_cross_iteration:
            return QueryResponse.may_alias()
        if query.loc1.pointer is not query.loc2.pointer:
            return QueryResponse.may_alias()
        fn = self._query_function(query)
        if fn is None:
            return QueryResponse.may_alias()
        scev = self.context.scalar_evolution(fn)

        base, offset = scev.pointer_offset(query.loc1.pointer, query.loop)
        if is_loop_variant(base, query.loop):
            return QueryResponse.may_alias()

        if not (isinstance(offset, SCEVAddRec) and offset.loop is query.loop):
            return QueryResponse.may_alias()
        step = offset.step.constant_value()
        if step is None or step == 0:
            return QueryResponse.may_alias()

        if affine_disjoint(0, step, step,
                           query.loc1.size, query.loc2.size,
                           query.relation):
            return QueryResponse.no_alias()
        return QueryResponse.may_alias()
