"""Field-sensitive modules: type-based field disambiguation and
allocation-site freshness.

``TypeBasedFieldAA`` assumes strict-aliasing C semantics: accesses to
*different fields* of the same struct type never overlap.

``FieldMallocAA`` reasons about heap allocation sites: distinct
``malloc`` callsites produce distinct objects, and one callsite
executed in different loop iterations produces *fresh* objects each
time, so pointers rooted at the per-iteration allocation cannot carry
cross-iteration aliasing.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ...core.module import AnalysisModule, Resolver
from ...ir import (ArrayType, CastInst, Constant, GEPInst, PointerType,
                   StructType, Value)
from ...query import AliasQuery, AliasResult, QueryResponse
from .common import is_allocator_call, is_loop_variant, strip_pointer


class TypeBasedFieldAA(AnalysisModule):
    """Different fields of the same struct type never alias (TBAA-style)."""

    name = "type-based-field-aa"

    def alias(self, query: AliasQuery, resolver: Resolver) -> QueryResponse:
        if query.desired is AliasResult.MUST_ALIAS:
            return QueryResponse.may_alias()  # we only ever prove NoAlias
        f1 = _field_access(query.loc1.pointer)
        f2 = _field_access(query.loc2.pointer)
        if f1 is None or f2 is None:
            return QueryResponse.may_alias()
        struct1, index1 = f1
        struct2, index2 = f2
        if struct1 == struct2 and index1 != index2:
            # Two direct field accesses into the same struct type;
            # under strict aliasing, distinct fields are disjoint
            # storage regardless of which instance is addressed —
            # as long as the accesses stay within the fields.
            if (query.loc1.size > 0
                    and query.loc1.size <= struct1.fields[index1].size
                    and query.loc2.size > 0
                    and query.loc2.size <= struct2.fields[index2].size):
                return QueryResponse.no_alias()
        return QueryResponse.may_alias()


def _field_access(pointer: Value) -> Optional[Tuple[StructType, int]]:
    """Match ``gep %struct_ptr, _, <const field index>`` patterns."""
    if not isinstance(pointer, GEPInst):
        return None
    ty = pointer.pointer.type.pointee
    indices = pointer.indices
    # Walk to the last struct step of the GEP.
    result: Optional[Tuple[StructType, int]] = None
    for i, idx in enumerate(indices):
        if i == 0:
            continue
        if isinstance(ty, ArrayType):
            ty = ty.element
            result = None
        elif isinstance(ty, StructType):
            if not isinstance(idx, Constant):
                return None
            result = (ty, int(idx.value))
            ty = ty.fields[int(idx.value)]
        else:
            return None
    return result


class FieldMallocAA(AnalysisModule):
    """Heap allocation-site reasoning, including per-iteration freshness."""

    name = "field-malloc-aa"

    def alias(self, query: AliasQuery, resolver: Resolver) -> QueryResponse:
        if query.desired is AliasResult.MUST_ALIAS:
            return QueryResponse.may_alias()
        b1, _ = strip_pointer(query.loc1.pointer)
        b2, _ = strip_pointer(query.loc2.pointer)

        alloc1 = is_allocator_call(b1)
        alloc2 = is_allocator_call(b2)
        if not (alloc1 or alloc2):
            return QueryResponse.may_alias()

        # Distinct allocator callsites: distinct objects.
        if alloc1 and alloc2 and b1 is not b2:
            return QueryResponse.no_alias()

        # Same allocator callsite, different iterations: each iteration
        # allocates a fresh object, so the two dynamic pointers denote
        # different objects.
        if (alloc1 and alloc2 and b1 is b2
                and query.relation.is_cross_iteration
                and query.loop is not None
                and is_loop_variant(b1, query.loop)):
            return QueryResponse.no_alias()

        return QueryResponse.may_alias()
