"""Tests for the live ops plane (repro.obs.live / repro.obs.expo).

What this file pins:

- Prometheus exposition: golden text for a known registry, histogram
  bucket cumulativity, round-trip through the bundled strict parser,
  and rejection of malformed documents;
- rolling windows under a synthetic clock: totals, rates over the
  covered interval, bucket eviction at the window edge, merged
  percentiles;
- the flight recorder: ring eviction, slow-query gating (threshold
  and non-``ok`` outcomes), crash auto-dump to disk;
- NDJSON lifecycle logging (epoch + monotonic stamps), including the
  L2 cooldown entry/exit events off the tiered cache;
- the durations table: EWMA blending, freshest-wins lineage reads,
  one-query batched reads, and end-to-end persistence through a
  cached batch;
- the daemon end to end: ``metrics``/``dump`` verbs, per-client
  attribution, the plain-HTTP ``/metrics`` + ``/healthz`` listener
  (including the 503 drain transition), the drain-time flight dump,
  and the ``repro top`` / ``repro stats --flight`` CLI paths.
"""

import io
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import main as cli_main
from repro.daemon import AnalysisDaemon, DaemonClient, DaemonConfig
from repro.obs.expo import (
    parse_prometheus,
    render_prometheus,
    sample_value,
    window_gauges,
)
from repro.obs.live import (
    FlightRecorder,
    JsonLogger,
    LiveOps,
    RollingWindow,
    render_top,
)
from repro.obs.metrics import LatencyHistogram, MetricsRegistry
from repro.service import (
    AnalysisRequest,
    DependenceService,
    ResultCache,
    ServiceConfig,
    reset_prepared_cache,
)

from tests.test_daemon import gated_service, make_source


@pytest.fixture(autouse=True)
def _fresh():
    reset_prepared_cache()
    yield
    reset_prepared_cache()


# -- exposition ---------------------------------------------------------------

class TestExposition:
    def test_golden_counters_and_gauges(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc(3)
        registry.counter("module_evals", module="KillFlowAA").inc(2)
        gauge = registry.gauge("queue_depth")
        gauge.inc(5)
        gauge.dec(2)
        text = render_prometheus(registry.snapshot())
        assert text == (
            "# TYPE repro_module_evals_total counter\n"
            'repro_module_evals_total{module="KillFlowAA"} 2\n'
            "# TYPE repro_requests_total counter\n"
            "repro_requests_total 3\n"
            "# TYPE repro_queue_depth gauge\n"
            "repro_queue_depth 3\n"
            "# TYPE repro_queue_depth_max gauge\n"
            "repro_queue_depth_max 5\n"
        )

    def test_histogram_renders_cumulative_and_round_trips(self):
        registry = MetricsRegistry()
        hist = registry.histogram("loop_latency_s", workload="w1")
        for seconds in (1e-5, 1e-4, 1e-4, 0.5):
            hist.record(seconds)
        text = render_prometheus(registry.snapshot())
        parsed = parse_prometheus(text)
        assert parsed["types"]["repro_loop_latency_s"] == "histogram"
        buckets = [(labels["le"], value)
                   for name, labels, value in parsed["samples"]
                   if name == "repro_loop_latency_s_bucket"]
        assert buckets[-1][0] == "+Inf"
        assert buckets[-1][1] == 4.0
        values = [v for _, v in buckets]
        assert values == sorted(values)  # cumulative
        assert sample_value(parsed, "repro_loop_latency_s_count",
                            workload="w1") == 4.0
        assert sample_value(parsed, "repro_loop_latency_s_sum",
                            workload="w1") == pytest.approx(0.50021)

    def test_round_trip_with_extras(self):
        registry = MetricsRegistry()
        registry.counter("cache_hits").inc(7)
        text = render_prometheus(
            registry.snapshot(),
            extra_counters={"daemon_jobs_completed": 2.0},
            extra_gauges={"window_tasks_rate{outcome=ok}": 1.5,
                          "daemon_uptime_s": 12.25})
        parsed = parse_prometheus(text)
        assert sample_value(parsed, "repro_cache_hits_total") == 7.0
        assert sample_value(parsed,
                            "repro_daemon_jobs_completed_total") == 2.0
        assert sample_value(parsed, "repro_window_tasks_rate",
                            outcome="ok") == 1.5
        assert sample_value(parsed, "repro_daemon_uptime_s") == 12.25
        assert sample_value(parsed, "repro_nope") is None

    def test_parser_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_prometheus("# TYPE a counter\na{b= 1\n")
        with pytest.raises(ValueError):  # sample without a TYPE
            parse_prometheus("orphan_total 1\n")
        with pytest.raises(ValueError):  # duplicate series
            parse_prometheus("# TYPE a counter\na 1\na 2\n")
        with pytest.raises(ValueError):  # duplicate TYPE
            parse_prometheus("# TYPE a counter\n# TYPE a gauge\n")

    def test_label_escaping_round_trips(self):
        registry = MetricsRegistry()
        registry.counter("evals", module='sa"w\\x').inc()
        parsed = parse_prometheus(render_prometheus(registry.snapshot()))
        assert sample_value(parsed, "repro_evals_total",
                            module='sa"w\\x') == 1.0

    def test_window_gauges_flatten(self):
        clock = _Clock()
        window = RollingWindow(window_s=10, bucket_s=1,
                               clock=clock)
        window.inc("tasks", outcome="ok", n=5)
        window.observe("task_latency_s", 0.25)
        clock.t = 2.0
        gauges = window_gauges(window.snapshot())
        assert gauges["window_tasks_rate{outcome=ok}"] == \
            pytest.approx(5 / 2.0)
        assert gauges["window_task_latency_s_count"] == 1
        assert 0.0 < gauges["window_task_latency_s_p95_s"] <= 0.25 * 1.01


# -- rolling window -----------------------------------------------------------

class _Clock:
    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t


class TestRollingWindow:
    def test_totals_and_eviction_at_window_edge(self):
        clock = _Clock()
        window = RollingWindow(window_s=10, bucket_s=1, clock=clock)
        window.inc("tasks", outcome="ok")
        clock.t = 5.0
        window.inc("tasks", outcome="ok")
        assert window.total("tasks", outcome="ok") == 2
        clock.t = 10.5  # bucket at t=0 has aged out
        assert window.total("tasks", outcome="ok") == 1
        clock.t = 16.0  # both gone
        assert window.total("tasks", outcome="ok") == 0

    def test_rate_over_covered_interval(self):
        clock = _Clock()
        window = RollingWindow(window_s=60, bucket_s=1, clock=clock)
        window.inc("tasks", n=10)
        clock.t = 5.0
        # 10 events over 5s of uptime: not diluted by the empty 55s.
        assert window.rate("tasks") == pytest.approx(2.0)
        clock.t = 120.0
        assert window.rate("tasks") == 0.0

    def test_write_side_eviction_bounds_memory(self):
        clock = _Clock()
        window = RollingWindow(window_s=5, bucket_s=1, clock=clock)
        for i in range(50):
            clock.t = float(i)
            window.inc("tasks")
        assert len(window._buckets) <= window.slots

    def test_merged_percentiles(self):
        clock = _Clock()
        window = RollingWindow(window_s=30, bucket_s=1, clock=clock)
        for i in range(90):
            clock.t = float(i % 20)
            window.observe("task_latency_s", 0.001)
        for _ in range(10):
            window.observe("task_latency_s", 1.0)
        assert window.percentile("task_latency_s", 50) < 0.01
        assert window.percentile("task_latency_s", 99) > 0.1
        summary = window.snapshot()["histograms"]["task_latency_s"]
        assert summary["count"] == 100
        assert summary["max_s"] == 1.0

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            RollingWindow(window_s=1, bucket_s=0)
        with pytest.raises(ValueError):
            RollingWindow(window_s=0.5, bucket_s=1)


# -- flight recorder ----------------------------------------------------------

class TestFlightRecorder:
    def test_ring_eviction(self):
        recorder = FlightRecorder(capacity=4, slow_threshold_s=99.0)
        for i in range(10):
            recorder.record(workload=f"w{i}", latency_s=0.01)
        counts = recorder.counts()
        assert counts["spans"] == 4
        assert counts["recorded"] == 10
        assert counts["evicted"] == 6
        dump = recorder.dump()
        assert [s["workload"] for s in dump["spans"]] == \
            ["w6", "w7", "w8", "w9"]
        assert dump["slow"] == []

    def test_slow_gating_threshold_and_outcome(self):
        recorder = FlightRecorder(capacity=16, slow_threshold_s=0.5)
        recorder.record(workload="fast", latency_s=0.01)
        recorder.record(workload="slow", latency_s=0.75)
        recorder.record(workload="bad", outcome="timeout",
                        latency_s=0.01)
        dump = recorder.dump()
        assert [s["workload"] for s in dump["slow"]] == ["slow", "bad"]

    def test_crash_auto_dump(self, tmp_path):
        path = tmp_path / "flight.json"
        recorder = FlightRecorder(capacity=8, slow_threshold_s=99.0,
                                  auto_dump_path=str(path))
        recorder.record(workload="ok1")
        recorder.record(workload="boom", outcome="failure",
                        latency_s=0.2)
        doc = json.loads(path.read_text())
        assert doc["reason"] == "failure"
        # The dump preserves the traffic *around* the crash.
        assert [s["workload"] for s in doc["spans"]] == ["ok1", "boom"]
        assert doc["slow"][0]["workload"] == "boom"

    def test_dump_to_file_atomic_and_counted(self, tmp_path):
        path = tmp_path / "d.json"
        recorder = FlightRecorder(capacity=2)
        recorder.record(workload="w")
        recorder.dump_to_file(str(path), reason="drain")
        doc = json.loads(path.read_text())
        assert doc["reason"] == "drain"
        assert recorder.counts()["dumps"] == 1
        assert list(tmp_path.iterdir()) == [path]  # no tmp leftovers


# -- NDJSON logging -----------------------------------------------------------

class TestJsonLogger:
    def test_event_lines(self):
        stream = io.StringIO()
        log = JsonLogger(stream)
        assert log.enabled
        log.event("worker_recycle", inflight_on_old_fleet=3)
        log.event("drain_begin")
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["event"] == "worker_recycle"
        assert first["inflight_on_old_fleet"] == 3
        assert first["t_epoch"] > 1e9
        assert "t_mono" in first

    def test_disabled_is_noop(self):
        log = JsonLogger(None)
        assert not log.enabled
        log.event("anything", n=1)  # must not raise

    def test_liveops_logs_sheds_and_failures(self):
        stream = io.StringIO()
        live = LiveOps(log=JsonLogger(stream))
        live.observe_shed("queue_depth", client="c1")
        live.observe_task(workload="w", outcome="timeout",
                          latency_s=2.0, client="c1")
        live.observe_task(workload="w", outcome="ok", latency_s=0.1)
        events = [json.loads(line)["event"]
                  for line in stream.getvalue().splitlines()]
        assert events == ["admission_shed", "task_timeout"]

    def test_l2_cooldown_events(self, tmp_path):
        from repro.cachetier import (
            FakeRespServer,
            TieredCache,
            backend_from_url,
        )
        server = FakeRespServer().start()
        stream = io.StringIO()
        registry = MetricsRegistry()
        cache = TieredCache(
            ResultCache(str(tmp_path)),
            backend_from_url(server.url, timeout_s=0.5),
            registry, reconnect_s=0.05)
        cache.on_event = JsonLogger(stream).event
        port = server.port
        try:
            server.stop()
            assert cache.lookup("vk-cold") is None  # L2 error -> enter
            server = FakeRespServer(port=port).start()
            time.sleep(0.1)  # past the cooldown
            assert cache.lookup("vk-cold") is None  # success -> exit
            events = [json.loads(line)["event"]
                      for line in stream.getvalue().splitlines()]
            assert events == ["l2_cooldown_enter", "l2_cooldown_exit"]
        finally:
            cache.close()
            server.stop()


# -- durations table ----------------------------------------------------------

class TestDurations:
    def test_record_blends_and_lookup(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.record_durations("v1", "lin", {"@f:%l": 1.0})
        assert cache.lookup_durations_exact("v1") == {"@f:%l": 1.0}
        cache.record_durations("v1", "lin", {"@f:%l": 3.0})
        # EWMA with alpha 0.5: 0.5*3 + 0.5*1.
        assert cache.lookup_durations_exact("v1") == {"@f:%l": 2.0}
        assert cache.lookup_durations("lin") == {"@f:%l": 2.0}
        cache.close()

    def test_lineage_freshest_wins(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.record_durations("v1", "lin", {"@f:%l": 1.0,
                                             "@f:%m": 4.0})
        time.sleep(0.02)  # distinct updated_at
        cache.record_durations("v2", "lin", {"@f:%l": 9.0})
        looked = cache.lookup_durations("lin")
        assert looked["@f:%l"] == 9.0   # newer version wins
        assert looked["@f:%m"] == 4.0   # older loop still predicted
        assert cache.lookup_durations("other") == {}
        cache.close()

    def test_invalidate_drops_durations(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.record_durations("v1", "lin", {"@f:%l": 1.0})
        cache.invalidate("v1")
        assert cache.lookup_durations_exact("v1") == {}
        cache.close()

    def test_batch_persists_durations(self, tmp_path):
        service = DependenceService(ServiceConfig(
            workers=0, executor="inline",
            cache_dir=str(tmp_path / "cache")))
        request = AnalysisRequest("timed", make_source())
        try:
            service.run_batch([request])
            looked = service.cache.lookup_durations(
                request.duration_lineage())
            assert looked, "batch did not persist loop durations"
            assert all(v >= 0.0 for v in looked.values())
        finally:
            service.close()


class TestBatchedDurationReads:
    def _seeded_cache(self, tmp_path, lineages):
        cache = ResultCache(str(tmp_path / "cache"))
        for i, lineage in enumerate(lineages):
            cache.record_durations(
                f"v{i}", lineage,
                {f"@f{i}:%l": 0.5 + i, f"@g{i}:%l": 0.1 * (i + 1)})
        return cache

    def test_lookup_durations_many_is_one_query(self, tmp_path):
        """Many lineages read with ONE parameterized SELECT — the
        regression gate against per-loop (or per-key) probes."""
        lineages = [f"lin{i}" for i in range(5)]
        cache = self._seeded_cache(tmp_path, lineages)
        statements = []
        cache._conn.set_trace_callback(statements.append)
        try:
            out = cache.lookup_durations_many(lineages)
        finally:
            cache._conn.set_trace_callback(None)
        cache.close()
        selects = [s for s in statements if s.lstrip().upper()
                   .startswith("SELECT")]
        assert len(selects) == 1, selects
        assert set(out) == set(lineages)

    def test_batched_read_matches_singular_reads(self, tmp_path):
        lineages = [f"lin{i}" for i in range(4)]
        cache = self._seeded_cache(tmp_path, lineages)
        many = cache.lookup_durations_many(lineages + ["absent", ""])
        for lineage in lineages:
            assert many[lineage] == cache.lookup_durations(lineage)
        assert "absent" not in many  # no empty placeholder rows
        assert "" not in many
        cache.close()

    def test_freshest_row_wins_within_batch(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cache.record_durations("v1", "lin", {"@f:%l": 1.0})
        time.sleep(0.02)  # distinct updated_at
        cache.record_durations("v2", "lin", {"@f:%l": 9.0})
        looked = cache.lookup_durations_many(["lin"])["lin"]
        # v2's EWMA-free first sample is the freshest row for @f:%l.
        assert looked["@f:%l"] == pytest.approx(9.0)
        cache.close()


# -- the daemon's live plane, end to end -------------------------------------

def _live_daemon(tmp_path, **kwargs):
    config = DaemonConfig(
        addr=f"unix:{tmp_path}/live-test.sock",
        service=ServiceConfig(workers=0, executor="inline"),
        **kwargs)
    return AnalysisDaemon(config).start_background(), config.addr


def _http_get(url: str):
    try:
        response = urllib.request.urlopen(url, timeout=10)
        return response.status, response.read().decode()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode()


class TestDaemonLiveOps:
    def test_metrics_verb_and_http_scrape(self, tmp_path):
        daemon, addr = _live_daemon(tmp_path, metrics_port=0,
                                    slow_threshold_s=0.0)
        try:
            with DaemonClient(addr, tag="alpha") as client:
                client.run_batch(
                    [AnalysisRequest("t", make_source())])
                text = client.metrics()
                dump = client.dump()
                stats = client.stats()
            parsed = parse_prometheus(text)
            # Windowed percentiles, daemon bookkeeping, per-client
            # series all present and typed.
            assert sample_value(
                parsed, "repro_window_task_latency_s_p95_s") > 0.0
            assert sample_value(
                parsed, "repro_daemon_jobs_completed_total") == 1.0
            assert sample_value(parsed, "repro_client_requests_total",
                                client="alpha") == 1.0
            assert sample_value(parsed, "repro_client_batches_total",
                                client="alpha") == 1.0
            assert sample_value(parsed, "repro_client_answers_total",
                                client="alpha") >= 1.0
            assert sample_value(
                parsed, "repro_client_batch_latency_s_count",
                client="alpha") == 1.0
            # threshold 0: every delivered span is a slow span.
            assert dump["spans"] and dump["slow"]
            assert dump["spans"][0]["outcome"] == "ok"
            # stats carries the same attribution + window + flight.
            assert stats["clients"]["alpha"]["requests"] == 1
            assert stats["flight"]["recorded"] >= 1
            assert "tasks{outcome=ok}" in stats["window"]["counters"]
            # The HTTP listener serves the identical document shape.
            status, body = _http_get(
                f"http://{daemon.metrics_addr}/metrics")
            assert status == 200
            assert parse_prometheus(body)["samples"]
            status, _ = _http_get(
                f"http://{daemon.metrics_addr}/nope")
            assert status == 404
        finally:
            daemon.stop()

    def test_healthz_flips_on_drain(self, tmp_path):
        gate = threading.Event()
        service = gated_service(2, gate)
        config = DaemonConfig(
            addr=f"unix:{tmp_path}/drain-test.sock",
            service=ServiceConfig(workers=2, executor="thread"),
            metrics_port=0, drain_timeout_s=30.0)
        daemon = AnalysisDaemon(config, service=service)
        daemon.start_background()
        client = DaemonClient(config.addr)
        try:
            client.submit([AnalysisRequest("g", make_source())])
            status, body = _http_get(
                f"http://{daemon.metrics_addr}/healthz")
            assert status == 200
            assert json.loads(body)["status"] == "ok"
            client.shutdown()
            status, body = _http_get(
                f"http://{daemon.metrics_addr}/healthz")
            assert status == 503
            assert json.loads(body)["status"] == "draining"
        finally:
            gate.set()
            client.close()
            daemon._thread.join(timeout=30)
            assert not daemon._thread.is_alive()

    def test_drain_dumps_flight_and_crash_auto_dumps(self, tmp_path):
        gate = threading.Event()
        gate.set()
        crashed = []
        service = gated_service(2, gate, crash_on="crashy",
                                crashed=crashed)
        dump_path = tmp_path / "flight.json"
        config = DaemonConfig(
            addr=f"unix:{tmp_path}/crash-test.sock",
            service=ServiceConfig(workers=2, executor="thread"),
            flight_dump_path=str(dump_path))
        daemon = AnalysisDaemon(config, service=service)
        daemon.start_background()
        try:
            with DaemonClient(config.addr, tag="crasher") as client:
                client.run_batch(
                    [AnalysisRequest("crashy", make_source())])
            assert crashed, "crash injection never fired"
            # The worker death auto-dumped mid-flight...
            doc = json.loads(dump_path.read_text())
            assert doc["reason"] == "failure"
            assert any(s["outcome"] == "failure" for s in doc["spans"])
        finally:
            daemon.stop()
        # ...and the drain rewrote the final state on exit.
        doc = json.loads(dump_path.read_text())
        assert doc["reason"] == "drain"

    def test_cli_top_and_stats_flight(self, tmp_path, capsys):
        daemon, addr = _live_daemon(tmp_path, slow_threshold_s=0.0)
        try:
            with DaemonClient(addr, tag="cli") as client:
                client.run_batch(
                    [AnalysisRequest("t", make_source())])
            assert cli_main(["top", "--once", "--daemon", addr]) == 0
            frame = capsys.readouterr().out
            assert "repro top" in frame and "[serving]" in frame
            assert "cli" in frame          # client attribution row
            assert "task latency" in frame  # windowed percentiles
            assert cli_main(["stats", "--daemon", addr,
                             "--flight"]) == 0
            dump = json.loads(capsys.readouterr().out)
            assert dump["spans"]
            assert cli_main(["stats", "--daemon", addr,
                             "--metrics"]) == 0
            parsed = parse_prometheus(capsys.readouterr().out)
            assert sample_value(parsed, "repro_client_requests_total",
                                client="cli") == 1.0
        finally:
            daemon.stop()

    def test_shed_attribution(self, tmp_path):
        gate = threading.Event()
        service = gated_service(1, gate)
        config = DaemonConfig(
            addr=f"unix:{tmp_path}/shed-test.sock",
            service=ServiceConfig(workers=1, executor="thread"),
            max_client_jobs=1)
        daemon = AnalysisDaemon(config, service=service)
        daemon.start_background()
        try:
            with DaemonClient(config.addr, tag="greedy") as client:
                client.submit([AnalysisRequest("a", make_source())])
                from repro.daemon import DaemonError
                with pytest.raises(DaemonError) as excinfo:
                    client.submit(
                        [AnalysisRequest("b", make_source())])
                assert excinfo.value.busy
                gate.set()
                stats = client.stats()
                parsed = parse_prometheus(client.metrics())
            assert stats["clients"]["greedy"]["sheds"] == 1
            assert sample_value(parsed, "repro_client_sheds_total",
                                client="greedy") == 1.0
            assert "sheds{kind=client_window}" in \
                stats["window"]["counters"]
        finally:
            gate.set()
            daemon.stop()


class TestRenderTop:
    def test_render_top_is_defensive(self):
        # A bare v1-style stats reply still renders.
        frame = render_top({"daemon": {"addr": "unix:x", "pid": 1},
                            "telemetry": {}})
        assert "repro top" in frame
        assert "DRAINING" not in frame

    def test_render_top_draining_flag(self):
        frame = render_top({"daemon": {"draining": True},
                            "telemetry": {}})
        assert "[DRAINING]" in frame
