"""Tests for the Orchestrator: ordering, bailout, premises, caching."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis import AnalysisContext
from repro.core import (
    AnalysisModule,
    BailoutPolicy,
    DependenceAnalysis,
    NullResolver,
    Orchestrator,
    OrchestratorConfig,
)
from repro.ir import GlobalVariable, I32, Module, parse_module
from repro.query import (
    AliasQuery,
    AliasResult,
    JoinPolicy,
    MemoryLocation,
    OptionSet,
    QueryResponse,
    SpeculativeAssertion,
    TemporalRelation,
)

from tests.orchestrator_oracle import NoCutMemoOrchestrator


def make_query():
    g1 = GlobalVariable("a", I32)
    g2 = GlobalVariable("b", I32)
    return AliasQuery(MemoryLocation(g1, 4), TemporalRelation.SAME,
                      MemoryLocation(g2, 4), None)


class _Stub(AnalysisModule):
    """Records evaluation order; returns a canned response."""

    def __init__(self, name, response, log, speculative=False, cost=0.0):
        super().__init__(AnalysisContext(Module("t")), None)
        self.name = name
        self._response = response
        self._log = log
        self.is_speculative = speculative
        self.average_assertion_cost = cost

    def alias(self, query, resolver):
        self._log.append(self.name)
        return self._response


class _PremiseAsker(AnalysisModule):
    """Resolves by asking a premise and forwarding the answer."""

    name = "asker"

    def __init__(self, log):
        super().__init__(AnalysisContext(Module("t")), None)
        self._log = log

    def alias(self, query, resolver):
        self._log.append("asker")
        answer = resolver.premise(query.with_desired(AliasResult.NO_ALIAS))
        return answer


class TestOrdering:
    def test_memory_modules_before_speculation(self):
        log = []
        may = QueryResponse.may_alias()
        modules = [
            _Stub("spec-cheap", may, log, speculative=True, cost=1.0),
            _Stub("mem", may, log),
            _Stub("spec-costly", may, log, speculative=True, cost=9.0),
        ]
        orch = Orchestrator(modules, OrchestratorConfig(use_cache=False))
        orch.handle(make_query())
        assert log == ["mem", "spec-cheap", "spec-costly"]


class TestBailout:
    def test_base_policy_stops_at_free_definite(self):
        log = []
        modules = [
            _Stub("m1", QueryResponse.no_alias(), log),
            _Stub("m2", QueryResponse.no_alias(), log),
        ]
        orch = Orchestrator(modules, OrchestratorConfig(use_cache=False))
        orch.handle(make_query())
        assert log == ["m1"]

    def test_base_policy_continues_past_speculative_definite(self):
        log = []
        spec = QueryResponse(
            AliasResult.NO_ALIAS,
            OptionSet.single(SpeculativeAssertion("s", cost=1.0)))
        modules = [
            _Stub("m1", spec, log),
            _Stub("m2", QueryResponse.may_alias(), log),
        ]
        orch = Orchestrator(modules, OrchestratorConfig(use_cache=False))
        r = orch.handle(make_query())
        assert log == ["m1", "m2"]
        assert r.result is AliasResult.NO_ALIAS

    def test_definite_policy_stops_at_any_definite(self):
        log = []
        spec = QueryResponse(
            AliasResult.NO_ALIAS,
            OptionSet.single(SpeculativeAssertion("s", cost=1.0)))
        modules = [
            _Stub("m1", spec, log),
            _Stub("m2", QueryResponse.may_alias(), log),
        ]
        orch = Orchestrator(modules, OrchestratorConfig(
            use_cache=False, bailout_policy=BailoutPolicy.DEFINITE))
        orch.handle(make_query())
        assert log == ["m1"]

    def test_exhaustive_policy_never_stops(self):
        log = []
        modules = [
            _Stub("m1", QueryResponse.no_alias(), log),
            _Stub("m2", QueryResponse.no_alias(), log),
        ]
        orch = Orchestrator(modules, OrchestratorConfig(
            use_cache=False, bailout_policy=BailoutPolicy.EXHAUSTIVE))
        orch.handle(make_query())
        assert log == ["m1", "m2"]


class TestPremises:
    def test_premise_routed_to_other_modules(self):
        log = []
        modules = [
            _PremiseAsker(log),
            _Stub("answerer", QueryResponse.no_alias(), log,
                  speculative=True),
        ]
        orch = Orchestrator(modules, OrchestratorConfig(use_cache=False))
        r = orch.handle(make_query())
        assert r.result is AliasResult.NO_ALIAS
        # asker (top) -> asker (premise eval) happens via orchestrator:
        assert "answerer" in log

    def test_contributors_tracked_through_premises(self):
        log = []
        modules = [
            _PremiseAsker(log),
            _Stub("answerer", QueryResponse.no_alias(), log,
                  speculative=True),
        ]
        orch = Orchestrator(modules, OrchestratorConfig(use_cache=False))
        orch.handle(make_query())
        assert "asker" in orch.last_contributors
        assert "answerer" in orch.last_contributors

    def test_desired_result_mismatch_normalized(self):
        log = []
        modules = [
            _PremiseAsker(log),
            _Stub("answerer", QueryResponse.must_alias(), log,
                  speculative=True),
        ]
        orch = Orchestrator(modules, OrchestratorConfig(use_cache=False))
        r = orch.handle(make_query())
        # asker wanted NoAlias, got MustAlias -> conservative premise,
        # and the final result is the answerer's own MustAlias at the
        # top level.
        assert orch.stats.desired_result_bails >= 1
        assert r.result is AliasResult.MUST_ALIAS

    def test_depth_limit_cuts_recursion(self):
        log = []
        modules = [_PremiseAsker(log)]
        orch = Orchestrator(modules, OrchestratorConfig(
            use_cache=False, max_premise_depth=3))
        r = orch.handle(make_query())
        assert r.result is AliasResult.MAY_ALIAS

    def test_cycle_guard(self):
        class _SelfAsker(AnalysisModule):
            name = "selfish"

            def alias(self, query, resolver):
                return resolver.premise(query)  # identical query

        orch = Orchestrator(
            [_SelfAsker(AnalysisContext(Module("t")), None)],
            OrchestratorConfig(use_cache=False))
        r = orch.handle(make_query())
        assert r.result is AliasResult.MAY_ALIAS
        assert orch.stats.cycles_cut >= 1

    def test_cycle_tainted_answers_are_not_memoized(self):
        """A response weakened by a cycle cut must not be cached.

        Handling q1 evaluates q2 as a premise; q2's own premise (q1)
        is in-flight and gets cut to the conservative answer, so q2
        resolves MAY_ALIAS *only because of the cycle*.  Asked
        directly afterwards — with q1 free to fully evaluate — q2 is
        NO_ALIAS.  Memoizing the tainted first answer would wrongly
        pin q2 at MAY_ALIAS forever.
        """
        g3 = GlobalVariable("c", I32)
        g4 = GlobalVariable("d", I32)
        q1 = make_query()                       # over globals a, b
        q2 = AliasQuery(MemoryLocation(g3, 4), TemporalRelation.SAME,
                        MemoryLocation(g4, 4), None)

        def is_q1(query):
            return query.loc1.pointer.name == "a"

        class _Asker(AnalysisModule):
            name = "asker"

            def alias(self, query, resolver):
                if is_q1(query):
                    resolver.premise(q2)        # drags q2 into q1's tree
                return QueryResponse.may_alias()

        class _BackAsker(AnalysisModule):
            name = "backasker"

            def alias(self, query, resolver):
                if not is_q1(query):
                    return resolver.premise(q1)  # cycles while q1 runs
                return QueryResponse.may_alias()

        class _Direct(AnalysisModule):
            name = "direct"

            def alias(self, query, resolver):
                if is_q1(query):
                    return QueryResponse.no_alias()
                return QueryResponse.may_alias()

        ctx = AnalysisContext(Module("t"))
        orch = Orchestrator(
            [_Asker(ctx, None), _BackAsker(ctx, None), _Direct(ctx, None)],
            OrchestratorConfig(use_cache=True))
        assert orch.handle(q1).result is AliasResult.NO_ALIAS
        assert orch.stats.cycles_cut >= 1
        assert orch.handle(q2).result is AliasResult.NO_ALIAS


class TestCutMemo:
    def test_served_inside_the_cycle_only(self):
        """q1 asks q2 twice; q2 asks q1, which is cut.  The second ask
        of q2 happens inside the same cycle (q1 still in flight), so
        it is served from the cut memo without a module evaluation.
        Asked at top level, q2 is evaluated again."""
        g3 = GlobalVariable("c", I32)
        g4 = GlobalVariable("d", I32)
        q1 = make_query()
        q2 = AliasQuery(MemoryLocation(g3, 4), TemporalRelation.SAME,
                        MemoryLocation(g4, 4), None)
        second_ask_evals = []

        def is_q1(query):
            return query.loc1.pointer.name == "a"

        class _Asker(AnalysisModule):
            name = "asker"

            def alias(self, query, resolver):
                if is_q1(query):
                    resolver.premise(q2)
                    before = orch.stats.total_module_evals
                    resolver.premise(q2)
                    second_ask_evals.append(
                        orch.stats.total_module_evals - before)
                    return QueryResponse.may_alias()
                return resolver.premise(q1)

        for cls, expected in ((Orchestrator, 0), (NoCutMemoOrchestrator, 1)):
            second_ask_evals.clear()
            orch = cls([_Asker(AnalysisContext(Module("t")), None)],
                       OrchestratorConfig(use_cache=True))
            orch.handle(q1)
            assert second_ask_evals == [expected]
            assert orch.stats.cycles_cut == 1 + expected
            before = orch.stats.total_module_evals
            orch.handle(q2)
            assert orch.stats.total_module_evals > before

    def test_clear_cache_empties_the_cut_memo(self):
        class _SelfAsker(AnalysisModule):
            name = "selfish"

            def alias(self, query, resolver):
                return resolver.premise(query)

        orch = Orchestrator([_SelfAsker(AnalysisContext(Module("t")), None)])
        orch.handle(make_query())
        assert orch.stats.cache_size == 1
        orch.clear_cache()
        assert orch.stats.cache_size == 0


class TestMemoFootprints:
    """Each loop is one memo scope (``DependenceAnalysis.clear_cache``,
    which the PDG client calls per loop): a query memoized in one loop
    is evaluated again in the next, so that loop's own trace holds its
    scan notes and consulted functions (see
    :func:`repro.service.worker.loop_footprint`)."""

    @staticmethod
    def _system(aa):
        """A system of ``aa`` alone, over its context."""
        ctx = aa.context
        return DependenceAnalysis("t", ctx.module, ctx, None,
                                  Orchestrator([aa]))

    def test_next_loop_re_evaluates_and_traces_scans(self):
        qa = make_query()
        qb = AliasQuery(MemoryLocation(GlobalVariable("c", I32), 4),
                        TemporalRelation.SAME,
                        MemoryLocation(GlobalVariable("d", I32), 4), None)

        class _Scanner(AnalysisModule):
            name = "scanner"

            def alias(self, query, resolver):
                if query is qb:
                    self.context.note_scan("global", "g")
                if query is qa:
                    resolver.premise(qb)
                return QueryResponse.may_alias()

        ctx = AnalysisContext(Module("t"))
        system = self._system(_Scanner(ctx, None))
        system.query(qa)                 # loop A memoizes qb as a premise
        system.clear_cache()             # loop B's scope
        assert ctx.scan_trace() == frozenset()
        system.query(qa)
        assert system.stats.cache_hits == 0
        assert system.stats.total_module_evals == 4
        assert sorted(ctx.scan_trace()) == [("global", "g")]

    def test_next_loop_re_evaluates_and_traces_functions(self):
        module = parse_module("""
func @helper(i32* %p) -> void {
entry:
  ret
}
""")
        p = module.functions["helper"].args[0]
        qb = make_query()
        qc = AliasQuery(MemoryLocation(p, 4), TemporalRelation.SAME,
                        MemoryLocation(GlobalVariable("c", I32), 4), None)

        class _Asker(AnalysisModule):
            name = "asker"

            def alias(self, query, resolver):
                if query is qb:
                    resolver.premise(qc)
                return QueryResponse.may_alias()

        ctx = AnalysisContext(module)
        system = self._system(_Asker(ctx, None))
        system.query(qb)                 # loop A memoizes qc as a premise
        system.clear_cache()             # loop B's scope
        assert ctx.scan_trace() == frozenset()
        system.query(qb)
        assert system.stats.cache_hits == 0
        assert system.stats.total_module_evals == 4
        assert sorted(ctx.scan_trace()) == [("function", "helper")]


# -- generated premise graphs -------------------------------------------------

# -- generated premise graphs --------------------------------------------------
#
# Nodes are alias queries over distinct globals.  A node is a fact
# (NoAlias outright) or holds up to two monotone rules, each AND or OR
# over premise nodes, asked plainly or with desired=NoAlias.  The
# least fixpoint of the rules is the set of provable nodes.

_RULE_SLOTS = 2


@st.composite
def premise_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    node = st.integers(min_value=0, max_value=n - 1)
    rule = st.tuples(st.sampled_from(("and", "or")),
                     st.lists(node, min_size=1, max_size=3),
                     st.booleans())
    facts = draw(st.lists(st.sampled_from((False, False, True)),
                          min_size=n, max_size=n))
    rules = draw(st.lists(st.lists(rule, max_size=_RULE_SLOTS),
                          min_size=n, max_size=n))
    asks = draw(st.lists(st.tuples(node, st.booleans()),
                         min_size=1, max_size=2 * n))
    return facts, rules, asks


def least_fixpoint(facts, rules):
    proved = {i for i, fact in enumerate(facts) if fact}
    changed = True
    while changed:
        changed = False
        for i, node_rules in enumerate(rules):
            if i in proved:
                continue
            for kind, premises, _ in node_rules:
                hits = [p in proved for p in premises]
                if all(hits) if kind == "and" else any(hits):
                    proved.add(i)
                    changed = True
                    break
    return proved


class _GraphModule(AnalysisModule):
    """Answers a generated graph's node queries: the facts when
    ``slot`` is None, else each node's rule number ``slot``."""

    def __init__(self, ctx, facts, rules, queries, slot):
        super().__init__(ctx, None)
        self.name = "facts" if slot is None else f"rule{slot}"
        self.facts, self.rules, self.queries = facts, rules, queries
        self.slot = slot

    def alias(self, query, resolver):
        i = int(query.loc1.pointer.name[1:])
        if self.slot is None:
            return (QueryResponse.no_alias() if self.facts[i]
                    else QueryResponse.may_alias())
        if self.slot >= len(self.rules[i]):
            return QueryResponse.may_alias()
        kind, premises, desired = self.rules[i][self.slot]
        for p in premises:
            premise = self.queries[p]
            if desired:
                premise = premise.with_desired(AliasResult.NO_ALIAS)
            proved = resolver.premise(premise).result is AliasResult.NO_ALIAS
            if kind == "and" and not proved:
                return QueryResponse.may_alias()
            if kind == "or" and proved:
                return QueryResponse.no_alias()
        return (QueryResponse.no_alias() if kind == "and"
                else QueryResponse.may_alias())


def graph_answers(cls, graph, max_premise_depth):
    """(node, NoAlias?) for each top-level ask of ``graph``."""
    facts, rules, asks = graph
    other = MemoryLocation(GlobalVariable("other", I32), 4)
    queries = [AliasQuery(MemoryLocation(GlobalVariable(f"n{i}", I32), 4),
                          TemporalRelation.SAME, other, None)
               for i in range(len(facts))]
    ctx = AnalysisContext(Module("t"))
    orch = cls([_GraphModule(ctx, facts, rules, queries, slot)
                for slot in (None,) + tuple(range(_RULE_SLOTS))],
               OrchestratorConfig(max_premise_depth=max_premise_depth))
    answers = []
    for i, desired in asks:
        query = queries[i]
        if desired:
            query = query.with_desired(AliasResult.NO_ALIAS)
        answers.append(
            (i, orch.handle(query).result is AliasResult.NO_ALIAS))
    return answers


class TestGeneratedPremiseGraphs:
    @given(graph=premise_graphs())
    # Rarely generated: node 0 asks 1, whose premise 0 is cut, then
    # asks 2, which is served 1's cut-tainted answer.  That must taint
    # 2, or 2 is memoized as cut-free and later asked at top level it
    # keeps the weakened answer.
    @example(graph=([False, False, False, True],
                    [[("or", [1, 2, 3], False)], [("or", [0], False)],
                     [("or", [1], False)], []],
                    [(0, False), (2, False)]))
    @settings(max_examples=300, deadline=None)
    def test_answers_are_least_fixpoint_membership(self, graph):
        """With the depth limit out of reach (a chain holds each node
        at most twice: plain and desired), every answer is exact."""
        proved = least_fixpoint(graph[0], graph[1])
        for cls in (Orchestrator, NoCutMemoOrchestrator):
            for i, no_alias in graph_answers(cls, graph, 64):
                assert no_alias == (i in proved), (cls.__name__, i)

    @given(graph=premise_graphs(),
           depth=st.integers(min_value=1, max_value=6))
    @settings(max_examples=300, deadline=None)
    def test_no_alias_answers_are_sound_at_any_depth(self, graph, depth):
        proved = least_fixpoint(graph[0], graph[1])
        for cls in (Orchestrator, NoCutMemoOrchestrator):
            for i, no_alias in graph_answers(cls, graph, depth):
                assert not no_alias or i in proved, (cls.__name__, i)


class TestCache:
    def test_cache_hits(self):
        log = []
        modules = [_Stub("m", QueryResponse.no_alias(), log)]
        orch = Orchestrator(modules, OrchestratorConfig(use_cache=True))
        q = make_query()
        orch.handle(q)
        orch.handle(q)
        assert log == ["m"]
        assert orch.stats.cache_hits == 1

    def test_clear_cache(self):
        log = []
        modules = [_Stub("m", QueryResponse.no_alias(), log)]
        orch = Orchestrator(modules, OrchestratorConfig(use_cache=True))
        q = make_query()
        orch.handle(q)
        orch.clear_cache()
        orch.handle(q)
        assert log == ["m", "m"]
        assert orch.stats.cache_size == 1  # refilled after the clear

    def test_hit_rate_and_reset(self):
        log = []
        modules = [_Stub("m", QueryResponse.no_alias(), log)]
        orch = Orchestrator(modules, OrchestratorConfig(use_cache=True))
        q = make_query()
        orch.handle(q)
        orch.handle(q)
        assert orch.stats.cache_lookups == 2
        assert orch.stats.cache_hit_rate == pytest.approx(0.5)
        assert orch.stats.total_module_evals == 1
        orch.reset_stats()
        assert orch.stats.queries == 0
        assert orch.stats.cache_hits == 0
        assert orch.stats.cache_size == 1    # memo itself survives


class TestNullResolver:
    def test_always_conservative(self):
        r = NullResolver().premise(make_query())
        assert r.result is AliasResult.MAY_ALIAS
