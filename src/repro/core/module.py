"""Base classes for analysis modules.

A module answers alias/modref queries.  *Memory analysis* modules
reason statically; *speculation* modules interpret profiles.
*Factored* modules (either kind) initiate collaboration by issuing
premise queries through the resolver handed to them — they never talk
to other modules directly (§3.1).
"""

from __future__ import annotations

from typing import FrozenSet, Optional

from ..analysis import AnalysisContext
from ..ir import CallInst, Instruction, LoadInst, StoreInst
from ..profiling import ProfileBundle
from ..query import (
    AliasQuery,
    AliasResult,
    CFGView,
    MemoryLocation,
    ModRefQuery,
    ModRefResult,
    Query,
    QueryResponse,
)


class Resolver:
    """The premise-query channel a module receives with each query.

    ``premise`` routes the query back through the coordinator — the
    Orchestrator under composition-by-collaboration, or a restricted
    component under composition-by-confluence.  Modules stay agnostic
    about who answers (§3.1).
    """

    def premise(self, query: Query) -> QueryResponse:
        raise NotImplementedError


class NullResolver(Resolver):
    """A resolver that answers every premise conservatively.

    This is what isolated modules get under composition by confluence:
    premise queries go nowhere, so factored modules are limited to
    what they can prove alone.
    """

    def premise(self, query: Query) -> QueryResponse:
        return QueryResponse.conservative(query.result_type)


class AnalysisModule:
    """Base class of every analysis module."""

    #: Stable identifier used in assertions and reports.
    name: str = "module"
    #: True for speculation modules (profile-driven answers).
    is_speculative: bool = False
    #: The ``ProfileBundle`` fields this module reads (names from
    #: ``repro.profiling.PROFILERS``).  A system's training run attaches
    #: the union over its modules plus the edge profiler, so a field
    #: read but not declared is ``None`` at run time.  ``loop_stats``,
    #: ``total_instructions`` and ``exit_value`` come from the
    #: interpreter and are always present.
    profiles_read: FrozenSet[str] = frozenset()
    #: Average validation cost of this module's assertions; the
    #: Orchestrator queries cheap modules first (§3.3).
    average_assertion_cost: float = 0.0

    def __init__(self, context: AnalysisContext,
                 profiles: Optional[ProfileBundle] = None):
        self.context = context
        self.profiles = profiles

    # -- query entry points ------------------------------------------------

    def alias(self, query: AliasQuery, resolver: Resolver) -> QueryResponse:
        """Answer an alias query; default is conservative."""
        return QueryResponse.may_alias()

    def modref(self, query: ModRefQuery, resolver: Resolver) -> QueryResponse:
        """Answer a modref query.

        The default reduces an instruction-vs-instruction query to an
        alias query over the two footprints (when both are plain
        memory operations) and otherwise answers with the
        instruction's intrinsic capability.
        """
        cap = self.intrinsic_capability(query.inst)
        if cap == ModRefResult.NO_MOD_REF:
            return QueryResponse.no_mod_ref()

        loc1 = self.footprint(query.inst)
        loc2 = query.target_location
        if loc1 is None or loc2 is None:
            return QueryResponse.free(cap)

        aq = AliasQuery(loc1, query.relation, loc2, query.loop,
                        query.context, query.cfg,
                        desired=AliasResult.NO_ALIAS)
        ar = self.alias(aq, resolver)
        if ar.result == AliasResult.NO_ALIAS:
            return QueryResponse(ModRefResult.NO_MOD_REF, ar.options)
        return QueryResponse.free(cap)

    # -- shared helpers ------------------------------------------------------

    @staticmethod
    def footprint(inst: Instruction) -> Optional[MemoryLocation]:
        """The memory location of a load/store, else None."""
        if isinstance(inst, (LoadInst, StoreInst)):
            return MemoryLocation.of(inst)
        return None

    @staticmethod
    def intrinsic_capability(inst: Instruction) -> ModRefResult:
        """What the instruction could do to *any* location."""
        if isinstance(inst, LoadInst):
            return ModRefResult.REF
        if isinstance(inst, StoreInst):
            return ModRefResult.MOD
        if isinstance(inst, CallInst):
            callee = inst.callee
            if callee.is_pure:
                return ModRefResult.NO_MOD_REF
            if callee.is_readonly:
                return ModRefResult.REF
            return ModRefResult.MOD_REF
        if inst.accesses_memory:
            return ModRefResult.MOD_REF
        return ModRefResult.NO_MOD_REF

    def cfg_view(self, query: Query) -> Optional[CFGView]:
        """The control-flow view to reason with: the query's, if any,
        else the static view of the relevant function."""
        if query.cfg is not None:
            return query.cfg
        fn = self._query_function(query)
        if fn is None:
            return None
        return CFGView.static(self.context, fn)

    @staticmethod
    def _query_function(query: Query):
        if isinstance(query, ModRefQuery):
            return query.inst.function
        pointer = query.loc1.pointer
        if isinstance(pointer, Instruction):
            return pointer.function
        pointer = query.loc2.pointer
        if isinstance(pointer, Instruction):
            return pointer.function
        return None

    def __repr__(self) -> str:
        kind = "spec" if self.is_speculative else "mem"
        return f"<{type(self).__name__} [{kind}] {self.name}>"
