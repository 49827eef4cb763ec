"""Tests for the observability layer (repro.obs).

Covers the span tracer (nesting, explicit parents, events, sampling,
the disabled no-op path), structural validation, cross-process span
adoption, both exporters (JSONL round-trip, Chrome trace-event
schema), the attribution fold and its reconciliation against the
exported artifact, the interpolating latency histogram, the metrics
registry's snapshot/merge algebra, the telemetry report golden text,
and the ``--trace``/``stats`` CLI surface end to end.
"""

import json

import pytest

from repro.cli import main
from repro.obs import (
    LatencyHistogram,
    MetricsRegistry,
    NOOP,
    TraceContext,
    TraceSpec,
    attribution_from_spans,
    current_tracer,
    load_jsonl,
    load_trace,
    load_trace_events,
    render_attribution,
    set_tracer,
    span_index,
    validate_spans,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import series_key
from repro.service import AnalysisRequest, BatchScheduler
from repro.service.telemetry import (
    COUNTER_FIELDS,
    ServiceTelemetry,
    TelemetrySnapshot,
    format_report,
)

from tests.test_cli import PROGRAM
from tests.test_service import make_source


@pytest.fixture(autouse=True)
def _restore_tracer():
    """No test may leak an installed tracer into the next."""
    previous = current_tracer()
    yield
    set_tracer(previous)


# -- tracer ------------------------------------------------------------------

class TestTraceContext:
    def test_nesting_parents_and_order(self):
        t = TraceContext()
        with t.span("outer", cat="query") as outer:
            with t.span("inner", cat="module_eval", module="m"):
                pass
        spans = t.export()
        assert [s["name"] for s in spans] == ["inner", "outer"]
        inner, outer_doc = spans
        assert outer_doc["parent"] is None
        assert inner["parent"] == outer_doc["id"]
        assert inner["attrs"] == {"module": "m"}
        assert outer.id == outer_doc["id"]
        assert validate_spans(spans) == []

    def test_attrs_set_at_exit_and_events(self):
        t = TraceContext()
        with t.span("q", cat="query") as span:
            span.event("cache_hit", key="k")
            t.event("bailout", module="m")   # innermost-open helper
            span.set(result="NoDep")
        (doc,) = t.export()
        assert doc["attrs"]["result"] == "NoDep"
        assert [e["name"] for e in doc["events"]] == ["cache_hit",
                                                      "bailout"]
        assert doc["events"][0]["attrs"] == {"key": "k"}

    def test_event_without_open_span_is_dropped(self):
        t = TraceContext()
        t.event("orphan")
        assert t.export() == []

    def test_begin_end_explicit_parent_out_of_order(self):
        t = TraceContext()
        with t.span("batch") as root:
            a = t.begin("dispatch", parent=root.id, shard=1)
            b = t.begin("dispatch", parent=root.id, shard=2)
            b.end(status="completed")
            a.end(status="timeout")
        spans = span_index(t.export())
        dispatches = [s for s in spans.values() if s["name"] == "dispatch"]
        assert {s["attrs"]["status"] for s in dispatches} == {
            "completed", "timeout"}
        assert all(s["parent"] == root.id for s in dispatches)
        assert validate_spans(list(spans.values())) == []

    def test_begin_defaults_to_stack_parent(self):
        t = TraceContext()
        with t.span("outer") as outer:
            s = t.begin("child")
            s.end()
        child = [s for s in t.export() if s["name"] == "child"][0]
        assert child["parent"] == outer.id

    def test_span_ids_unique(self):
        t = TraceContext()
        for _ in range(50):
            with t.span("s"):
                pass
        ids = [s["id"] for s in t.export()]
        assert len(set(ids)) == 50

    def test_sampling_keeps_every_nth_root_with_subtree(self):
        t = TraceContext(sample_every=3)
        for i in range(7):
            with t.span("query", cat="query", sample=True, n=i):
                with t.span("eval", cat="module_eval"):
                    t.event("inside")
        spans = t.export()
        queries = [s for s in spans if s["cat"] == "query"]
        evals = [s for s in spans if s["cat"] == "module_eval"]
        # roots 0, 3, 6 recorded; each with its full subtree.
        assert [q["attrs"]["n"] for q in queries] == [0, 3, 6]
        assert len(evals) == 3
        assert validate_spans(spans) == []

    def test_sampling_never_drops_infrastructure_spans(self):
        t = TraceContext(sample_every=1000)
        with t.span("query", cat="query", sample=True):
            pass                                 # root 0: recorded
        with t.span("query", cat="query", sample=True):
            pass                                 # root 1: suppressed
        with t.span("loop_task", cat="task"):    # not a sampling root
            pass
        cats = [s["cat"] for s in t.export()]
        assert cats.count("query") == 1
        assert cats.count("task") == 1

    def test_sample_every_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceContext(sample_every=0)

    def test_noop_is_default_and_free(self):
        assert current_tracer() is NOOP
        assert not NOOP.enabled
        s1 = NOOP.span("a", cat="query", sample=True, big="attr")
        s2 = NOOP.begin("b")
        assert s1 is s2                    # shared null singleton
        with s1:
            s1.set(x=1)
            s1.event("e")
        s2.end()
        assert NOOP.export() == []
        assert len(NOOP) == 0

    def test_set_tracer_returns_previous(self):
        t = TraceContext()
        previous = set_tracer(t)
        assert current_tracer() is t
        assert set_tracer(previous) is t
        assert current_tracer() is previous

    def test_trace_spec_builds_equivalent_tracer(self):
        spec = TraceSpec(sample_every=4)
        tracer = spec.build()
        assert isinstance(tracer, TraceContext)
        assert tracer.sample_every == 4


class TestValidateSpans:
    def _span(self, sid, parent=None, start=0.0, dur=1.0, **over):
        doc = {"id": sid, "parent": parent, "name": sid, "cat": "span",
               "start": start, "dur": dur, "pid": 1, "tid": 1,
               "attrs": {}, "events": []}
        doc.update(over)
        return doc

    def test_clean_trace(self):
        spans = [self._span("a"), self._span("b", parent="a",
                                             start=0.1, dur=0.5)]
        assert validate_spans(spans) == []

    def test_duplicate_id(self):
        problems = validate_spans([self._span("a"), self._span("a")])
        assert any("duplicate" in p for p in problems)

    def test_unknown_parent(self):
        problems = validate_spans([self._span("a", parent="ghost")])
        assert any("unknown parent" in p for p in problems)

    def test_missing_key(self):
        bad = self._span("a")
        del bad["dur"]
        problems = validate_spans([bad])
        assert any("missing key 'dur'" in p for p in problems)

    def test_child_escaping_parent_interval(self):
        spans = [self._span("a", start=0.0, dur=1.0),
                 self._span("b", parent="a", start=5.0, dur=1.0)]
        assert any("starts before" in p or "ends after" in p
                   for p in validate_spans(spans))

    def test_parent_cycle(self):
        spans = [self._span("a", parent="b"),
                 self._span("b", parent="a")]
        assert any("cycle" in p for p in validate_spans(spans))


class TestAdopt:
    def test_worker_roots_reparent_under_dispatch(self):
        scheduler = TraceContext()
        with scheduler.span("batch"):
            dispatch = scheduler.begin("dispatch", cat="dispatch")
            worker = TraceContext()
            with worker.span("loop_task", cat="task"):
                with worker.span("loop", cat="loop"):
                    pass
            dispatch.end(status="completed")
            scheduler.adopt(worker.export(), parent_id=dispatch.id)
        spans = scheduler.export()
        index = span_index(spans)
        task = [s for s in spans if s["cat"] == "task"][0]
        loop = [s for s in spans if s["cat"] == "loop"][0]
        assert task["parent"] == dispatch.id
        assert index[loop["parent"]] is task
        assert validate_spans(spans) == []


# -- exporters ---------------------------------------------------------------

def _sample_trace():
    t = TraceContext()
    with t.span("query", cat="query", sample=True,
                contributors=["PHI", "KillFlow"]) as q:
        q.event("cache_hit", stripped=False)
        with t.span("eval", cat="module_eval", module="PHI",
                    improved=True):
            with t.span("premise", cat="premise", asker="PHI"):
                pass
        with t.span("eval", cat="module_eval", module="KillFlow",
                    improved=False):
            pass
    with t.span("loop", cat="loop", loop="@main:%loop", workload="w"):
        pass
    return t.export()


class TestExporters:
    def test_jsonl_round_trips_exactly(self, tmp_path):
        spans = _sample_trace()
        path = str(tmp_path / "trace.jsonl")
        write_jsonl(spans, path)
        assert load_jsonl(path) == spans
        assert load_trace(path) == spans      # sniffed as JSONL

    def test_chrome_trace_schema(self, tmp_path):
        spans = _sample_trace()
        path = str(tmp_path / "trace.json")
        write_chrome_trace(spans, path)
        with open(path) as f:
            doc = json.load(f)                # must be valid JSON
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        meta = [e for e in events if e["ph"] == "M"]
        assert len(complete) == len(spans)
        assert len(instants) == 1             # the cache_hit event
        for e in complete:
            for key in ("name", "cat", "ts", "dur", "pid", "tid",
                        "args"):
                assert key in e
            assert "span_id" in e["args"]
        assert meta and meta[0]["name"] == "process_name"

    def test_chrome_trace_reconstructs_span_graph(self, tmp_path):
        spans = _sample_trace()
        path = str(tmp_path / "trace.json")
        write_chrome_trace(spans, path)
        loaded = load_trace_events(path)
        assert load_trace(path) == loaded     # sniffed as Chrome
        assert {s["id"] for s in loaded} == {s["id"] for s in spans}
        assert ({(s["id"], s["parent"]) for s in loaded}
                == {(s["id"], s["parent"]) for s in spans})
        assert validate_spans(loaded) == []


# -- attribution -------------------------------------------------------------

class TestAttribution:
    def test_fold_counts_and_self_time(self):
        # Hand-built spans with exact durations: an eval of 1.0s whose
        # premise child burned 0.4s must self-bill only 0.6s.
        spans = [
            {"id": "q", "parent": None, "name": "query", "cat": "query",
             "start": 0.0, "dur": 2.0, "pid": 1, "tid": 1,
             "attrs": {"contributors": ["A", "B"]}, "events": []},
            {"id": "e1", "parent": "q", "name": "eval",
             "cat": "module_eval", "start": 0.0, "dur": 1.0,
             "pid": 1, "tid": 1,
             "attrs": {"module": "A", "improved": True}, "events": []},
            {"id": "p", "parent": "e1", "name": "premise",
             "cat": "premise", "start": 0.1, "dur": 0.4,
             "pid": 1, "tid": 1, "attrs": {"asker": "A"}, "events": []},
            {"id": "e2", "parent": "p", "name": "eval",
             "cat": "module_eval", "start": 0.1, "dur": 0.3,
             "pid": 1, "tid": 1,
             "attrs": {"module": "B", "improved": False},
             "events": []},
            {"id": "l", "parent": None, "name": "loop", "cat": "loop",
             "start": 0.0, "dur": 3.0, "pid": 1, "tid": 1,
             "attrs": {"loop": "@main:%loop", "workload": "w"},
             "events": []},
        ]
        report = attribution_from_spans(spans)
        assert report.queries == 1
        assert report.premises == 1
        assert report.query_time_s == pytest.approx(2.0)
        by_name = {m.module: m for m in report.modules}
        assert by_name["A"].evals == 1
        assert by_name["A"].total_time_s == pytest.approx(1.0)
        assert by_name["A"].self_time_s == pytest.approx(0.6)
        assert by_name["A"].improvements == 1
        assert by_name["A"].queries_resolved == 1
        assert by_name["B"].self_time_s == pytest.approx(0.3)
        assert by_name["B"].improvements == 0
        assert report.loops == {
            "w/@main:%loop": {"workload": "w", "loop": "@main:%loop",
                              "time_s": pytest.approx(3.0), "count": 1}}
        # Sorted by descending self time.
        assert [m.module for m in report.modules] == ["A", "B"]

    def test_render_contains_modules_and_header(self):
        report = attribution_from_spans(_sample_trace())
        text = render_attribution(report)
        assert "per-module attribution" in text
        assert "PHI" in text and "KillFlow" in text
        assert "resolved" in text and "self(ms)" in text
        assert "w/@main:%loop" in text

    def test_report_to_dict_is_json_able(self):
        doc = attribution_from_spans(_sample_trace()).to_dict()
        json.dumps(doc)
        assert doc["queries"] == 1
        assert {m["module"] for m in doc["modules"]} >= {"PHI",
                                                         "KillFlow"}


# -- histogram ---------------------------------------------------------------

class TestLatencyHistogram:
    def test_percentile_interpolates_within_bucket(self):
        h = LatencyHistogram()
        for _ in range(100):
            h.record(3e-4)                 # bucket (1e-4, ~3.16e-4]
        lo, hi = 1e-4, 10.0 ** (-3.5)
        p25, p50, p75 = (h.percentile(p) for p in (25, 50, 75))
        assert lo < p25 < p50 < p75 <= hi  # moves smoothly, not a step
        assert p25 == pytest.approx(lo + (hi - lo) * 0.25)
        assert p50 == pytest.approx(lo + (hi - lo) * 0.5)
        # Estimates never exceed the observed maximum: identical
        # samples saturate at their true value, not the bucket bound.
        same = LatencyHistogram()
        for _ in range(100):
            same.record(2e-4)
        assert same.percentile(99) == 2e-4

    def test_sub_100us_latencies_resolve(self):
        fast, slow = LatencyHistogram(), LatencyHistogram()
        for _ in range(10):
            fast.record(2e-6)              # 2µs
            slow.record(5e-5)              # 50µs
        assert fast.percentile(50) < 1e-5
        assert slow.percentile(50) > 1e-5
        assert fast.percentile(50) < slow.percentile(50) < 1e-4

    def test_percentile_clamped_to_observed_max(self):
        h = LatencyHistogram()
        h.record(0.5)
        assert h.percentile(99) <= h.max_s == 0.5

    def test_overflow_bucket_uses_observed_max(self):
        h = LatencyHistogram()
        h.record(1e9)                      # beyond the last bound
        assert h.counts[-1] == 1
        # Interpolates between the last bound and the observed max
        # (the open bucket has no upper bound of its own).
        assert LatencyHistogram.BUCKETS[-1] < h.percentile(50) <= 1e9
        assert h.percentile(100) == 1e9

    def test_empty_percentile_is_zero(self):
        assert LatencyHistogram().percentile(99) == 0.0

    def test_merge_dict_adds_buckets(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        for _ in range(5):
            a.record(1e-3)
            b.record(2e-2)
        a.merge_dict(b.to_dict())
        assert a.total == 10
        assert a.sum_s == pytest.approx(5 * 1e-3 + 5 * 2e-2)
        assert a.max_s == 2e-2
        assert a.percentile(50) < a.percentile(90)

    def test_merge_dict_rejects_bucket_mismatch(self):
        h = LatencyHistogram()
        with pytest.raises(ValueError):
            h.merge_dict({"counts": [0, 1]})


# -- registry ----------------------------------------------------------------

class TestMetricsRegistry:
    def test_labeled_series_and_value(self):
        r = MetricsRegistry()
        r.counter("module_evals", module="PHI").inc(3)
        r.counter("module_evals", module="KillFlow").inc()
        r.counter("module_evals").inc(4)
        assert r.value("module_evals") == 4
        assert r.value("module_evals", module="PHI") == 3
        assert r.series("module_evals") == {"module=PHI": 3,
                                            "module=KillFlow": 1}

    def test_series_key_sorts_labels(self):
        assert (series_key("n", {"b": "2", "a": "1"})
                == "n{a=1,b=2}")
        assert series_key("n", {}) == "n"

    def test_gauge_high_water_mark(self):
        r = MetricsRegistry()
        g = r.gauge("queue_depth")
        g.inc(); g.inc(); g.dec(); g.inc()
        assert g.value == 2
        assert g.max == 2

    def test_snapshot_merge_is_commutative(self):
        def build(counts, lat):
            r = MetricsRegistry()
            r.counter("evals", module="A").inc(counts)
            r.gauge("depth").set(counts)
            for v in lat:
                r.histogram("lat", workload="w").record(v)
            return r

        a, b = build(3, [1e-3, 2e-3]), build(7, [5e-2])
        ab, ba = MetricsRegistry(), MetricsRegistry()
        ab.merge(a.snapshot()); ab.merge(b.snapshot())
        ba.merge(b.snapshot()); ba.merge(a.snapshot())
        assert ab.snapshot() == ba.snapshot()
        assert ab.value("evals", module="A") == 10
        hist = ab.snapshot()["histograms"]["lat{workload=w}"]
        assert hist["total"] == 3

    def test_snapshot_is_json_able(self):
        r = MetricsRegistry()
        r.counter("c").inc()
        r.histogram("h").record(1e-3)
        json.dumps(r.snapshot())


# -- telemetry snapshot + golden report --------------------------------------

class TestTelemetry:
    def test_facade_attribute_reads(self):
        tel = ServiceTelemetry(workers=2)
        tel.count("cache_hits", 3)
        tel.count("requests")
        tel.task_started(); tel.task_started(); tel.task_finished()
        snap = tel.snapshot()
        assert snap.cache_hits == 3
        assert snap.requests == 1
        assert tel.registry.value("tasks_inflight") == 1
        assert snap.max_tasks_inflight == 2
        with pytest.raises(KeyError):
            tel.count("no_such_counter")

    def test_counters_are_snapshot_fields_and_round_trip(self):
        tel = ServiceTelemetry(workers=2)
        materialized = set(tel.registry.snapshot()["counters"])
        fields = set(TelemetrySnapshot.__dataclass_fields__)
        assert materialized == set(COUNTER_FIELDS) <= fields
        for n, name in enumerate(COUNTER_FIELDS, start=1):
            tel.count(name, n)
        tel.task_latency.record(0.01)
        snap = tel.snapshot()
        assert [getattr(snap, name) for name in COUNTER_FIELDS] \
            == list(range(1, len(COUNTER_FIELDS) + 1))
        doc = snap.to_dict()
        for rate in ("cache_hit_rate", "prepared_hit_rate",
                     "worker_utilization"):
            assert rate in doc
        assert TelemetrySnapshot.from_dict(doc) == snap
        assert TelemetrySnapshot.from_dict(
            json.loads(json.dumps(doc))) == snap

    def test_worker_metrics_merge_labeled_series(self):
        tel = ServiceTelemetry(workers=1)
        worker = MetricsRegistry()
        worker.counter("module_evals", module="PHI", workload="w").inc(5)
        tel.merge_worker_metrics(worker.snapshot())
        assert tel.registry.value("module_evals", module="PHI",
                                  workload="w") == 5
        snap = tel.snapshot()
        assert ("module_evals{module=PHI,workload=w}"
                in snap.metrics["counters"])

    def test_format_report_golden(self):
        tel = ServiceTelemetry(workers=2)
        for counter, n in (
                ("requests", 3), ("loop_tasks_dispatched", 2),
                ("requests_deduplicated", 1), ("tasks_timed_out", 1),
                ("loops_computed", 4), ("loops_from_cache", 2),
                ("loops_incremental", 1), ("cache_hits", 5),
                ("cache_misses", 5), ("incremental_probes", 2),
                ("orchestrator_queries", 10), ("module_evals", 40)):
            tel.count(counter, n)
        tel.task_started(); tel.task_started(); tel.task_started()
        tel.task_finished()
        expected = "\n".join([
            "service telemetry",
            "-----------------",
            "  requests         3 (2 loop tasks dispatched "
            "(0 discovery), 1 deduplicated in-flight)",
            "  loops            4 computed, 2 from cache "
            "(1 via footprint revalidation), 0 conservative fallback",
            "  result cache     5 hits / 5 misses (hit rate 50.0%, "
            "2 incremental probes, 0 profile-roster reuses)",
            "  prepared modules 0 hits / 0 misses (hit rate 0.0%, "
            "0 evictions, setup 0.00s billed once)",
            "  robustness       1 task timeouts, 0 worker failures",
            "  orchestrators    10 queries, 40 module evaluations",
            "  workers          2 (utilization 0.0%, "
            "busy 0.00s of 0.00s wall)",
            "  tasks            in flight max 3",
            "  task latency     n=0     mean=    0.00ms "
            "p50=    0.00ms p90=    0.00ms p99=    0.00ms "
            "max=    0.00ms",
            "  loop latency     n=0     mean=    0.00ms "
            "p50=    0.00ms p90=    0.00ms p99=    0.00ms "
            "max=    0.00ms",
        ])
        assert format_report(tel.snapshot()) == expected


# -- end to end: traced batch through the scheduler --------------------------

def _traced_batch(sample_every=1):
    tracer = TraceContext(sample_every=sample_every)
    set_tracer(tracer)
    try:
        scheduler = BatchScheduler(workers=0, executor="inline")
        requests = [
            AnalysisRequest("w1", make_source(), system="scaf"),
            AnalysisRequest("w2", make_source(iters=80), system="scaf"),
        ]
        results = scheduler.run_batch(requests)
    finally:
        set_tracer(NOOP)
    return tracer.export(), results


class TestEndToEndTracing:
    def test_batch_trace_structure_and_categories(self):
        spans, results = _traced_batch()
        assert len(results) == 2
        assert validate_spans(spans) == []
        cats = {s["cat"] for s in spans}
        # Every layer shows up in one timeline: scheduler phases,
        # dispatch, the worker's loop task, per-loop analysis,
        # profiling, and the Orchestrator's query/module/premise
        # recursion.
        for expected in ("batch", "dispatch", "task", "loop",
                         "profile", "query", "module_eval"):
            assert expected in cats, f"missing category {expected}"
        # batch -> fan_out -> dispatch -> loop_task -> loop
        index = span_index(spans)
        parent = {s["id"]: index[s["parent"]]["name"]
                  for s in spans if s["parent"] is not None}
        for name, above in (("fan_out", "batch"), ("dispatch", "fan_out"),
                            ("loop_task", "dispatch"),
                            ("loop", "loop_task")):
            nodes = [s for s in spans if s["name"] == name]
            assert nodes, f"missing span {name}"
            assert all(parent[s["id"]] == above for s in nodes), name

    def test_attribution_reconciles_with_exported_artifact(
            self, tmp_path):
        spans, _ = _traced_batch()
        live = attribution_from_spans(spans)
        path = str(tmp_path / "trace.json")
        write_chrome_trace(spans, path)
        offline = attribution_from_spans(load_trace(path))
        assert offline.queries == live.queries
        assert offline.premises == live.premises
        assert len(offline.modules) == len(live.modules)
        for a, b in zip(live.modules, offline.modules):
            assert a.module == b.module
            assert a.evals == b.evals
            assert a.queries_resolved == b.queries_resolved
            assert a.improvements == b.improvements
            assert a.self_time_s == pytest.approx(b.self_time_s,
                                                  abs=1e-6)

    def test_sampling_thins_query_spans_only(self):
        full, _ = _traced_batch()
        sampled, _ = _traced_batch(sample_every=50)
        n_full = sum(1 for s in full if s["cat"] == "query")
        n_sampled = sum(1 for s in sampled if s["cat"] == "query")
        assert 0 < n_sampled < n_full
        # Infrastructure spans survive sampling untouched.
        for cat in ("batch", "task", "loop"):
            assert (sum(1 for s in sampled if s["cat"] == cat)
                    == sum(1 for s in full if s["cat"] == cat))
        assert validate_spans(sampled) == []

    def test_untraced_run_records_nothing_and_matches(self):
        _, traced = _traced_batch()
        assert current_tracer() is NOOP
        scheduler = BatchScheduler(workers=0, executor="inline")
        plain = scheduler.run_batch(
            [AnalysisRequest("w1", make_source(), system="scaf"),
             AnalysisRequest("w2", make_source(iters=80),
                             system="scaf")])
        def identities(results):
            return [[a.identity() for a in answers]
                    for answers in results]
        assert identities(plain) == identities(traced)


# -- CLI surface -------------------------------------------------------------

class TestTraceCLI:
    @pytest.fixture
    def program(self, tmp_path):
        path = tmp_path / "program.ir"
        path.write_text(PROGRAM)
        return str(path)

    def test_analyze_trace_then_stats_check(self, program, tmp_path,
                                            capsys):
        trace = str(tmp_path / "out.json")
        assert main(["analyze", program, "--trace", trace]) == 0
        out = capsys.readouterr().out
        assert "per-module attribution" in out
        assert "trace:" in out and "perfetto" in out
        assert current_tracer() is NOOP      # CLI restored the no-op
        assert main(["stats", trace, "--check"]) == 0
        assert "structure valid" in capsys.readouterr().out

    def test_stats_json_schema(self, program, tmp_path, capsys):
        trace = str(tmp_path / "out.jsonl")
        assert main(["analyze", program, "--trace", trace]) == 0
        capsys.readouterr()
        assert main(["stats", trace, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        for key in ("file", "spans", "processes", "valid", "problems",
                    "categories", "attribution"):
            assert key in doc
        assert doc["valid"] is True
        assert doc["spans"] > 0
        assert doc["attribution"]["queries"] > 0

    def test_stats_check_fails_on_broken_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(
            {"id": "a", "parent": "ghost", "name": "x", "cat": "span",
             "start": 0.0, "dur": 1.0, "pid": 1, "tid": 1,
             "attrs": {}, "events": []}) + "\n")
        assert main(["stats", str(bad), "--check"]) == 1
        assert "unknown parent" in capsys.readouterr().err

    def test_stats_check_fails_on_empty_trace(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["stats", str(empty), "--check"]) == 1

    def test_trace_sample_flag(self, program, tmp_path, capsys):
        trace = str(tmp_path / "sampled.jsonl")
        assert main(["analyze", program, "--trace", trace,
                     "--trace-sample", "25"]) == 0
        capsys.readouterr()
        spans = load_jsonl(trace)
        assert validate_spans(spans) == []
        assert sum(1 for s in spans if s["cat"] == "query") > 0
