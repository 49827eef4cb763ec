"""ControlSpeculation: profile-dead control flow as analysis fact (§4.2.4).

Two behaviours, both visible in Figure 6:

1. *Base answers*: an instruction in a speculatively-dead basic block
   (never executed during profiling) can neither source nor sink a
   memory dependence — queries touching it resolve to NoModRef.
2. *Factored collaboration*: for queries carrying only static control
   flow, the module rebuilds dominator/post-dominator trees over the
   CFG minus dead blocks and re-issues the query as a premise with the
   speculative view attached.  Control-flow-sensitive modules
   (kill-flow, reachability) consume the view without knowing it is
   speculative; if the premise resolves, this module appends its
   control-flow assertion to the response.

Validation (client side) is a misspeculation trigger at the entry of
each asserted-dead block — effectively free, since the guarding
branches are computed anyway.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional

from ...analysis import DominatorTree
from ...core.module import AnalysisModule, Resolver
from ...ir import BasicBlock, Function, Instruction
from ...query import (
    CFGView,
    ModRefQuery,
    ModRefResult,
    OptionSet,
    Query,
    QueryResponse,
    SpeculativeAssertion,
    precision,
)
from .common import CONTROL_SPEC_CHECK, MODULE_CONTROL


class ControlSpeculation(AnalysisModule):
    """Speculates profile-dead blocks away."""

    name = MODULE_CONTROL
    is_speculative = True
    profiles_read = frozenset({"edge"})
    average_assertion_cost = CONTROL_SPEC_CHECK

    def __init__(self, context, profiles=None):
        super().__init__(context, profiles)
        self._views: Dict[int, Optional[CFGView]] = {}
        self._assertions: Dict[int, SpeculativeAssertion] = {}

    # -- speculative views ---------------------------------------------------

    def dead_blocks(self, fn: Function) -> FrozenSet[BasicBlock]:
        if self.profiles is None:
            return frozenset()
        return frozenset(self.profiles.edge.dead_blocks(fn))

    def speculative_view(self, fn: Function) -> Optional[CFGView]:
        """The CFG view of ``fn`` with dead blocks pruned (cached)."""
        key = id(fn)
        if key not in self._views:
            dead = self.dead_blocks(fn)
            if not dead:
                self._views[key] = None
            else:
                dt = self.context.dominator_tree(fn, ignore=dead)
                pdt = self.context.dominator_tree(fn, ignore=dead, post=True)
                self._views[key] = CFGView(fn, dt, pdt, dead)
        return self._views[key]

    def _assertion(self, fn: Function) -> SpeculativeAssertion:
        """One assertion covering all asserted-dead blocks of ``fn``."""
        key = id(fn)
        if key not in self._assertions:
            dead = tuple(sorted(self.dead_blocks(fn), key=lambda b: b.name))
            self._assertions[key] = SpeculativeAssertion(
                module_id=MODULE_CONTROL,
                points=dead,
                cost=CONTROL_SPEC_CHECK,
                description=(f"{len(dead)} profile-dead blocks "
                             f"in @{fn.name}"),
            )
        return self._assertions[key]

    # -- queries ---------------------------------------------------------------

    def modref(self, query: ModRefQuery, resolver: Resolver) -> QueryResponse:
        fn = query.inst.function
        if fn is None or self.profiles is None:
            return QueryResponse.mod_ref()
        dead = self.dead_blocks(fn)

        # 1. Dead instructions neither source nor sink dependences.
        if dead:
            if query.inst.parent in dead:
                return self._no_modref(fn)
            target = query.target
            if isinstance(target, Instruction) and target.parent in dead:
                return self._no_modref(fn)

        # 2. Re-issue with the speculative control-flow view.
        view = self._reissue_view(query, fn)
        if view is None:
            return QueryResponse.mod_ref()
        answer = resolver.premise(query.with_cfg(view))
        if precision(answer.result) > precision(ModRefResult.MOD_REF):
            return QueryResponse(
                answer.result,
                answer.options * OptionSet.single(self._assertion(fn)))
        return QueryResponse.mod_ref()

    def _no_modref(self, fn: Function) -> QueryResponse:
        return QueryResponse(ModRefResult.NO_MOD_REF,
                             OptionSet.single(self._assertion(fn)))

    def _reissue_view(self, query: Query, fn: Function) -> Optional[CFGView]:
        """The speculative view to re-issue with, unless the query
        already carries speculative control flow."""
        if query.cfg is not None and query.cfg.is_speculative:
            return None
        return self.speculative_view(fn)
