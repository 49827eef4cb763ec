"""The Orchestrator (§3.3, Algorithms 1–2).

Coordinates all module interactions: it forwards each query to the
configured modules in order, joins their responses under the selected
join policy, stops according to the bailout policy, and routes
*premise queries* from factored modules back through itself so any
module can contribute to any other module's reasoning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Dict, FrozenSet, List, NamedTuple, Optional, Sequence,
                    Set, Tuple)

from ..ir import CallInst
from ..obs.trace import current_tracer
from ..query import (
    AliasQuery,
    JoinPolicy,
    MemoryLocation,
    ModRefQuery,
    ModRefResult,
    Query,
    QueryResponse,
    join,
    most_precise,
    precision,
)
from .module import AnalysisModule, Resolver


def _function_name_of(value) -> Optional[str]:
    """The name of the function a query operand lives in, if any.

    Instructions reach their function through ``parent.parent`` (a
    property), Arguments link to it directly; globals and constants
    belong to no function and yield ``None``.
    """
    fn = getattr(value, "function", None)
    name = getattr(fn, "name", None)
    return name if isinstance(name, str) else None


class BailoutPolicy:
    """When the Orchestrator stops consulting further modules."""

    #: Stop at a most-precise result with a cost-free option (the
    #: paper's default: "a definite answer ... with no attached
    #: assertions").
    BASE = "base"
    #: Stop at a most-precise result regardless of assertion cost.
    DEFINITE = "definite"
    #: Consult every module (exposes all options; enables ALL joins).
    EXHAUSTIVE = "exhaustive"


@dataclass
class OrchestratorConfig:
    """Client-selected policies (§3.3)."""

    join_policy: str = JoinPolicy.CHEAPEST
    bailout_policy: str = BailoutPolicy.BASE
    max_premise_depth: int = 6
    use_cache: bool = True
    track_contributors: bool = True
    #: Figure 10 ablation: when False, the Desired Result parameter is
    #: stripped from premise queries, so responders cannot bail out
    #: early and must compute full answers.
    use_desired_result: bool = True


@dataclass
class OrchestratorStats:
    """Counters for evaluation and debugging."""

    queries: int = 0
    premise_queries: int = 0
    cache_hits: int = 0
    cache_lookups: int = 0
    cache_size: int = 0
    cycles_cut: int = 0
    module_evals: Dict[str, int] = field(default_factory=dict)
    desired_result_bails: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of cache lookups answered from memo (0 when cold)."""
        if not self.cache_lookups:
            return 0.0
        return self.cache_hits / self.cache_lookups

    @property
    def total_module_evals(self) -> int:
        return sum(self.module_evals.values())


Answer = Tuple[QueryResponse, FrozenSet[str]]


class _Frame:
    """The cut set of one evaluation's subtree (see
    :meth:`Orchestrator._handle`)."""

    __slots__ = ("cuts",)

    def __init__(self):
        #: In-flight keys the subtree was answered conservatively
        #: against; ``None`` while no cycle cut has happened.
        self.cuts: Optional[Set[tuple]] = None

    def taint(self, cuts) -> None:
        """Mark the subtree cut against ``cuts`` (tainted even if empty)."""
        if self.cuts is None:
            self.cuts = set(cuts)
        else:
            self.cuts.update(cuts)


class _Entry(NamedTuple):
    """A memoized answer and the cut set it holds under."""

    answer: Answer
    #: ``None`` for a cut-free answer; else the keys that were in flight
    #: outside this query when its subtree cut a cycle against them.
    cuts: Optional[Set[tuple]]


class Orchestrator:
    """Coordinates modules; see Algorithm 1."""

    def __init__(self, modules: Sequence[AnalysisModule],
                 config: Optional[OrchestratorConfig] = None):
        self.config = config or OrchestratorConfig()
        # Memory analysis first (caveat-free answers), then speculation
        # modules by average assertion cost (§3.3).
        self.modules: List[AnalysisModule] = sorted(
            modules,
            key=lambda m: (m.is_speculative, m.average_assertion_cost))
        self.stats = OrchestratorStats()
        #: Memoized answers by query key, for one scope (a loop; see
        #: :meth:`clear_cache`).  A cut-free entry is context-free; a
        #: cut-tainted one (the latest per key) is served only from
        #: inside the cycle it was cut in.
        self._memo: Dict[tuple, _Entry] = {}
        self._inflight: Set[tuple] = set()
        #: Contributor module names of the most recent top-level query.
        self.last_contributors: FrozenSet[str] = frozenset()
        self._analysis_context = next(
            (m.context for m in self.modules
             if getattr(m, "context", None) is not None), None)

    # -- public API --------------------------------------------------------

    def handle(self, query: Query) -> QueryResponse:
        """Resolve a client query (Algorithm 1)."""
        self.stats.queries += 1
        root = _Frame()
        tracer = current_tracer()
        if not tracer.enabled:
            response, contributors = self._handle(query, 0, root)
            self.last_contributors = contributors
            return response
        # Top-level queries are the sampling roots: a skipped query
        # suppresses its whole subtree (module evals, premises).
        with tracer.span("query", cat="query", sample=True,
                         kind=type(query).__name__) as span:
            response, contributors = self._handle(query, 0, root)
            span.set(result=str(response.result.value),
                     conservative=response.is_conservative,
                     contributors=sorted(contributors))
        self.last_contributors = contributors
        return response

    def clear_cache(self) -> None:
        """Open a fresh memo scope (the PDG client does, per loop)."""
        self._memo.clear()
        self.stats.cache_size = 0

    def reset_stats(self) -> None:
        """Zero all counters (the memo cache itself is kept)."""
        self.stats = OrchestratorStats(cache_size=len(self._memo))

    # -- internals -----------------------------------------------------------

    def _note_consulted(self, query: Query) -> None:
        """Note on the analysis context's trace, as ``("function",
        name)``, every function ``query`` exposes to the modules.

        Every function named by the query's operands, loop, CFG view,
        or calling context (and the callee of any call instruction
        among them) can influence the answer; the union over a loop's
        whole query stream — plus callgraph reachability, see
        :func:`repro.service.worker.loop_footprint` — is the cached
        answer's dependence footprint.
        """
        ctx = self._analysis_context
        if ctx is None:
            return

        def note_value(value) -> None:
            name = _function_name_of(value)
            if name is not None:
                ctx.note_scan("function", name)
            if isinstance(value, CallInst):
                callee_name = getattr(value.callee, "name", None)
                if isinstance(callee_name, str):
                    ctx.note_scan("function", callee_name)

        if isinstance(query, ModRefQuery):
            note_value(query.inst)
            target = query.target
            if isinstance(target, MemoryLocation):
                note_value(target.pointer)
            else:
                note_value(target)
        elif isinstance(query, AliasQuery):
            note_value(query.loc1.pointer)
            note_value(query.loc2.pointer)
        for call in getattr(query, "context", ()) or ():
            note_value(call)
        loop = getattr(query, "loop", None)
        if loop is not None and getattr(loop, "function", None) is not None:
            ctx.note_scan("function", loop.function.name)
        cfg = getattr(query, "cfg", None)
        if cfg is not None and getattr(cfg, "function", None) is not None:
            ctx.note_scan("function", cfg.function.name)

    def _handle(self, query: Query, depth: int, parent: _Frame) -> Answer:
        """Answer ``query`` for the evaluation whose frame is ``parent``.

        Probe order: a cut-free entry (for the exact key, then a
        desired-free one for a desired-result variant), the in-flight
        check, a cut-tainted entry (exact key only), and only then
        evaluation.  A cut-free key cannot be in flight.  A cut-tainted
        entry is served only while every key it was cut against is
        still in flight, i.e. from inside the same cycle; probing it
        after the in-flight check makes a re-entered key cut rather
        than answer from a stale entry.

        Only an evaluation notes the query's functions.  Within one
        memo scope, a hit's key was evaluated earlier in the scope, so
        everything its subtree noted is in the trace already.
        """
        key = query.key()
        tracer = current_tracer()
        entry = None
        if self.config.use_cache:
            self.stats.cache_lookups += 1
            entry = self._memo.get(key)
            if entry is not None and entry.cuts is None:
                return self._serve(entry, parent, tracer, depth)
            # A fully-evaluated (desired-free) cached answer serves any
            # desired-result variant of the same query.
            if isinstance(query, AliasQuery) and query.desired is not None:
                stripped = self._memo.get(query.with_desired(None).key())
                if stripped is not None and stripped.cuts is None:
                    return self._serve(stripped, parent, tracer, depth,
                                       stripped=True)
        if key in self._inflight:
            # A module is asking (transitively) about its own query;
            # answer conservatively to cut the cycle.
            self.stats.cycles_cut += 1
            if tracer.enabled:
                tracer.event("cycle_cut", depth=depth)
            parent.taint((key,))
            return QueryResponse.conservative(query.result_type), frozenset()
        if entry is not None and entry.cuts <= self._inflight:
            return self._serve(entry, parent, tracer, depth, cut=True)

        self._note_consulted(query)
        frame = _Frame()
        self._inflight.add(key)
        try:
            result = self._evaluate_modules(query, depth, frame)
        finally:
            self._inflight.discard(key)

        # A cycle cut in this subtree replaced a premise with the
        # conservative answer: the result is sound but holds only while
        # the keys it was cut against are in flight (asked outside the
        # cycle, the query may resolve more precisely).  Its own key is
        # dropped from the set: any evaluation of it re-cuts there.
        cuts = frame.cuts
        if cuts is not None:
            cuts.discard(key)
            parent.taint(cuts)
        if self.config.use_cache:
            self._memo[key] = _Entry(result, cuts)
            self.stats.cache_size = len(self._memo)
        return result

    def _serve(self, entry: _Entry, parent: _Frame, tracer, depth: int,
               **event) -> Answer:
        """A memo hit: pass the entry's cut set on to ``parent``."""
        self.stats.cache_hits += 1
        if entry.cuts is not None:
            parent.taint(entry.cuts)
        if tracer.enabled:
            tracer.event("cache_hit", depth=depth, **event)
        return entry.answer

    def _evaluate_modules(self, query: Query, depth: int, frame: _Frame
                          ) -> Answer:
        final = QueryResponse.conservative(query.result_type)
        contributors: Set[str] = set()
        tracer = current_tracer()

        for module in self.modules:
            self.stats.module_evals[module.name] = \
                self.stats.module_evals.get(module.name, 0) + 1
            resolver = _PremiseResolver(self, module, depth, frame)
            if tracer.enabled:
                with tracer.span("eval", cat="module_eval",
                                 module=module.name) as span:
                    response = self._eval(module, query, resolver)
                    improved = False
                    if response.is_realizable and \
                            not response.is_conservative:
                        joined = join(self.config.join_policy, final,
                                      response)
                        improved = self._improved(final, joined)
                        if self.config.track_contributors and improved:
                            contributors.add(module.name)
                            contributors.update(resolver.contributors)
                        final = joined
                    span.set(result=str(response.result.value),
                             improved=improved)
                if self._bailout(final):
                    tracer.event("bailout", module=module.name)
                    break
                continue
            response = self._eval(module, query, resolver)

            if response.is_realizable and not response.is_conservative:
                joined = join(self.config.join_policy, final, response)
                if self.config.track_contributors and \
                        self._improved(final, joined):
                    contributors.add(module.name)
                    contributors.update(resolver.contributors)
                final = joined
            if self._bailout(final):
                break

        return final, frozenset(contributors)

    @staticmethod
    def _eval(module: AnalysisModule, query: Query,
              resolver: Resolver) -> QueryResponse:
        if isinstance(query, AliasQuery):
            return module.alias(query, resolver)
        return module.modref(query, resolver)

    @staticmethod
    def _improved(before: QueryResponse, after: QueryResponse) -> bool:
        """Did the join reach a result worth attributing?

        Modref contributions count only when the dependence is fully
        disproven (NoModRef) — the Mod/Ref intermediate levels are
        capability trivia every module reports.  Alias contributions
        count for any sharpening (MustAlias and SubAlias answers are
        exactly what factored modules consume as premises).
        """
        if precision(after.result) <= precision(before.result):
            return False
        if isinstance(after.result, ModRefResult):
            return after.result is ModRefResult.NO_MOD_REF
        return True

    def _bailout(self, response: QueryResponse) -> bool:
        policy = self.config.bailout_policy
        if policy == BailoutPolicy.EXHAUSTIVE:
            return False
        definite = (precision(response.result)
                    == most_precise(type(response.result)))
        if not definite:
            return False
        if policy == BailoutPolicy.DEFINITE:
            return True
        return response.options.is_free  # BASE


class _PremiseResolver(Resolver):
    """Routes a module's premise queries back through the Orchestrator."""

    def __init__(self, orchestrator: Orchestrator, module: AnalysisModule,
                 depth: int, frame: _Frame):
        self.orchestrator = orchestrator
        self.module = module
        self.depth = depth
        self.frame = frame
        self.contributors: Set[str] = set()

    def premise(self, query: Query) -> QueryResponse:
        tracer = current_tracer()
        if tracer.enabled:
            with tracer.span("premise", cat="premise",
                             asker=self.module.name, depth=self.depth,
                             kind=type(query).__name__) as span:
                response = self._premise(query)
                span.set(result=str(response.result.value))
            return response
        return self._premise(query)

    def _premise(self, query: Query) -> QueryResponse:
        orch = self.orchestrator
        orch.stats.premise_queries += 1
        if self.depth >= orch.config.max_premise_depth:
            return QueryResponse.conservative(query.result_type)
        if not orch.config.use_desired_result and \
                isinstance(query, AliasQuery) and query.desired is not None:
            stripped, contributors = orch._handle(
                query.with_desired(None), self.depth + 1, self.frame)
            if stripped.result == query.desired and \
                    not stripped.is_conservative:
                self.contributors.update(contributors)
                return stripped
            return QueryResponse.conservative(query.result_type)
        response, contributors = orch._handle(query, self.depth + 1,
                                              self.frame)
        # Honour the Desired Result parameter (§3.2.2): when the asker
        # needs one specific answer and did not get it, the response is
        # useless to it; normalizing to conservative keeps modules'
        # bail-out logic trivial.
        if isinstance(query, AliasQuery) and query.desired is not None:
            if response.result != query.desired:
                orch.stats.desired_result_bails += 1
                tracer = current_tracer()
                if tracer.enabled:
                    tracer.event("desired_result_bail",
                                 asker=self.module.name)
                return QueryResponse.conservative(query.result_type)
        if not response.is_conservative:
            self.contributors.update(contributors)
        return response
