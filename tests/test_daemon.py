"""Daemon tests: the resident analysis service and its protocol.

What this file pins:

- wire protocol round-trips (addresses, frames, requests);
- daemon answers == in-process batch == sequential orchestrator
  (the correctness gate; all 16 registered workloads when
  ``REPRO_DAEMON_FULL=1``, synthetic modules otherwise);
- worker-resident state survives across submissions (prepared-module
  hits on the second client's batch);
- admission control: per-session window and global queue depth both
  shed with typed ``BUSY``; a draining daemon answers
  ``SHUTTING_DOWN``;
- frames: a submit past asyncio's default 64 KiB line limit is
  served, and a frame past ``MAX_FRAME_BYTES`` gets a typed
  ``TOO_LARGE`` while its session keeps serving;
- lifecycle edges: client disconnect mid-request releases its queue
  slots, a worker crash during a multi-client drain recycles the
  fleet without dropping the other session's answers, and shutdown
  is idempotent;
- every session's batch span is re-parented under the daemon's
  single root span.
"""

import os
import threading

import pytest

from repro.daemon import (
    AnalysisDaemon,
    DaemonClient,
    DaemonConfig,
    DaemonError,
    daemon_available,
    protocol,
)
from repro.daemon.protocol import parse_addr
from repro.obs.trace import NOOP, TraceContext, set_tracer
from repro.service import (
    AnalysisRequest,
    BatchScheduler,
    DependenceService,
    LoopTaskResult,
    ServiceConfig,
    STATUS_COMPUTED,
    STATUS_FALLBACK,
    request_for_workload,
    reset_prepared_cache,
    run_loop_task,
)

from tests.test_service import sequential_answers


@pytest.fixture(autouse=True)
def _fresh(tmp_path):
    reset_prepared_cache()
    yield
    reset_prepared_cache()
    set_tracer(NOOP)


def make_source(iters: int = 60, step: int = 1) -> str:
    return f"""
global @acc : i32 = 0

func @work() -> i32 {{
entry:
  br %loop
loop:
  %i = phi i32 [0, %entry], [%i2, %loop]
  %a = load i32* @acc
  %a2 = add i32 %a, {step}
  store i32 %a2, i32* @acc
  %i2 = add i32 %i, 1
  %c = icmp slt i32 %i2, {iters}
  condbr i1 %c, %loop, %exit
exit:
  %r = load i32* @acc
  ret i32 %r
}}

func @main() -> i32 {{
entry:
  %x = call @work()
  ret i32 %x
}}
"""


def identities(groups):
    return [[a.identity() for a in answers] for answers in groups]


def start_daemon(tmp_path, service_config=None, service=None, **kwargs):
    config = DaemonConfig(
        addr=f"unix:{tmp_path}/repro-test.sock",
        service=service_config or ServiceConfig(workers=0,
                                                executor="inline"),
        **kwargs)
    daemon = AnalysisDaemon(config, service=service)
    daemon.start_background()
    return daemon, config.addr


def gated_service(telemetry_workers: int, gate: threading.Event,
                  crash_on=None, crashed=None):
    """A service whose (thread-pool) workers wait on ``gate`` before
    running each task — and optionally crash once on a named request
    (keyed by request name so the injection is deterministic even
    when several clients race identical loop names)."""
    svc = DependenceService(ServiceConfig(workers=telemetry_workers,
                                          executor="thread"))
    lock = threading.Lock()

    def runner(task):
        assert gate.wait(timeout=60), "test gate never opened"
        if crash_on and task.loop and task.request.name == crash_on:
            with lock:
                first = not crashed
                crashed.append(task.loop)
            if first:
                raise RuntimeError("simulated worker death")
        return run_loop_task(task)

    svc.scheduler.close()
    svc.scheduler = BatchScheduler(workers=telemetry_workers,
                                   executor="thread",
                                   loop_runner=runner,
                                   telemetry=svc.telemetry)
    return svc


def hollow_service():
    """An inline service whose workers analyze nothing: every
    discovery task reports an empty roster, so a submit costs little
    more than reading its frame."""
    def runner(task):
        request = task.request
        return LoopTaskResult(version_key=request.version_key(),
                              workload=request.name,
                              system=request.system,
                              entry=request.entry, loop=task.loop)

    svc = DependenceService(ServiceConfig(workers=0, executor="inline"))
    svc.scheduler.close()
    svc.scheduler = BatchScheduler(workers=0, executor="inline",
                                   loop_runner=runner,
                                   telemetry=svc.telemetry)
    return svc


# -- protocol ----------------------------------------------------------------

class TestProtocol:
    def test_parse_addr_forms(self):
        assert parse_addr("unix:/a/b.sock") == ("unix", "/a/b.sock")
        assert parse_addr("/a/b.sock") == ("unix", "/a/b.sock")
        assert parse_addr("local.sock") == ("unix", "local.sock")
        assert parse_addr("127.0.0.1:7777") == ("tcp",
                                                ("127.0.0.1", 7777))
        assert parse_addr("tcp:localhost:0") == ("tcp", ("localhost", 0))
        with pytest.raises(ValueError):
            parse_addr("not-an-address")

    def test_frame_round_trip(self):
        doc = {"verb": "submit", "n": 3, "nested": {"a": [1, 2]}}
        line = protocol.encode_message(doc)
        assert line.endswith(b"\n")
        assert protocol.decode_message(line) == doc
        with pytest.raises(ValueError):
            protocol.decode_message(b"[1, 2]\n")

    def test_request_round_trip(self):
        from repro.core.orchestrator import OrchestratorConfig
        for config in (None, OrchestratorConfig(join_policy="eager")):
            request = AnalysisRequest("t", make_source(), system="caf",
                                      loops=("@work:%loop",),
                                      config=config)
            restored = protocol.request_from_wire(
                protocol.decode_message(protocol.encode_message(
                    protocol.request_to_wire(request))))
            assert restored == request

    def test_error_helpers(self):
        doc = protocol.error(protocol.ERR_BUSY, "full", retry=True)
        assert doc == {"ok": False, "error": "BUSY",
                       "message": "full", "retry": True}
        assert protocol.ok(job="j1") == {"ok": True, "job": "j1"}


# -- round trips over the socket ---------------------------------------------

class TestRoundTrip:
    def test_ping_and_availability(self, tmp_path):
        daemon, addr = start_daemon(tmp_path)
        try:
            assert daemon_available(addr)
            with DaemonClient(addr) as c:
                reply = c.ping()
                assert reply["protocol"] == protocol.PROTOCOL_VERSION
                assert reply["draining"] is False
            assert not daemon_available(f"unix:{tmp_path}/nothing.sock")
        finally:
            daemon.stop()

    def test_submit_poll_stream_agree(self, tmp_path):
        daemon, addr = start_daemon(tmp_path)
        try:
            requests = [AnalysisRequest("a", make_source(), system="scaf"),
                        AnalysisRequest("b", make_source(step=2),
                                        system="caf")]
            with DaemonClient(addr) as c:
                job = c.submit(requests)
                streamed = []
                done = c.stream(job, on_answer=lambda d:
                                streamed.append(d["loop"]))
                assert done["status"] == "done"
                polled = c.poll(job)
            assert polled["status"] == "done"
            assert polled["answers"] == done["answers"]
            assert len(done["answers"]) == 2
            flat = [d["loop"] for g in done["answers"] for d in g]
            assert sorted(streamed) == sorted(flat)
        finally:
            daemon.stop()

    def test_tcp_binding_reports_real_port(self, tmp_path):
        daemon, _ = start_daemon(tmp_path)
        daemon.stop()
        config = DaemonConfig(addr="tcp:127.0.0.1:0",
                              service=ServiceConfig(workers=0,
                                                    executor="inline"))
        daemon = AnalysisDaemon(config).start_background()
        try:
            host, port = parse_addr(daemon.bound_addr)[1]
            assert port != 0
            with DaemonClient(daemon.bound_addr) as c:
                assert c.ping()["ok"]
        finally:
            daemon.stop()

    def test_unknown_verb_and_job_are_typed(self, tmp_path):
        daemon, addr = start_daemon(tmp_path)
        try:
            with DaemonClient(addr) as c:
                with pytest.raises(DaemonError) as info:
                    c._rpc({"verb": "frobnicate"})
                assert info.value.code == protocol.ERR_UNKNOWN_VERB
                with pytest.raises(DaemonError) as info:
                    c.poll("j999")
                assert info.value.code == protocol.ERR_UNKNOWN_JOB
                with pytest.raises(DaemonError) as info:
                    c._rpc({"verb": "submit", "requests": []})
                assert info.value.code == protocol.ERR_BAD_REQUEST
        finally:
            daemon.stop()


# -- frame size limit --------------------------------------------------------

class TestFrameLimit:
    def test_submit_of_two_suites_is_served(self, tmp_path):
        from repro.workloads import ALL_WORKLOADS
        requests = [request_for_workload(w.name, system="caf")
                    for w in ALL_WORKLOADS] * 2
        frame = protocol.encode_message(
            {"verb": "submit",
             "requests": protocol.requests_to_wire(requests)})
        assert len(frame) > 100_000  # past asyncio's 64 KiB default
        daemon, addr = start_daemon(tmp_path, service=hollow_service())
        try:
            with DaemonClient(addr) as c:
                groups = c.run_batch(requests)
                assert c.ping()["ok"]
            assert len(groups) == len(requests)
        finally:
            daemon.stop()

    def test_oversize_frame_is_typed_and_session_survives(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 1024)
        daemon, addr = start_daemon(tmp_path, service=hollow_service())
        try:
            with DaemonClient(addr) as c:
                # 70 KB: the newline arrives long after the limit; and
                # 2 KB: the newline is already buffered past it.
                for pad in (70_000, 2_000):
                    with pytest.raises(DaemonError) as info:
                        c._rpc({"verb": "ping", "pad": "x" * pad})
                    assert info.value.code == protocol.ERR_TOO_LARGE
                    assert info.value.too_large
                    assert c.ping()["ok"]
                # Under the limit, the same session still submits.
                groups = c.run_batch([AnalysisRequest(
                    "small", make_source(), system="caf")])
                assert groups == [[]]
        finally:
            daemon.stop()


# -- correctness gate --------------------------------------------------------

class TestEquality:
    def _requests(self):
        if os.environ.get("REPRO_DAEMON_FULL"):
            from repro.workloads import WORKLOADS
            return [request_for_workload(name)
                    for name in sorted(WORKLOADS)]
        return [AnalysisRequest("eq-a", make_source(), system="scaf"),
                AnalysisRequest("eq-b", make_source(iters=80, step=3),
                                system="caf"),
                AnalysisRequest("eq-c", make_source(step=2),
                                system="confluence")]

    def test_daemon_equals_batch_equals_sequential(self, tmp_path):
        """The property the whole subsystem hangs off: answers served
        over the socket are identical, loop for loop, to an in-process
        batch and to the sequential reference orchestrator."""
        requests = self._requests()
        expected = [identities([sequential_answers(r)])[0]
                    for r in requests]

        reset_prepared_cache()
        with DependenceService(ServiceConfig(workers=0,
                                             executor="inline")) as svc:
            batch = identities(svc.run_batch(requests).answers)
        assert batch == expected

        reset_prepared_cache()
        daemon, addr = start_daemon(tmp_path)
        try:
            with DaemonClient(addr) as c:
                served = identities(c.run_batch(requests))
        finally:
            daemon.stop()
        assert served == expected


# -- resident state ----------------------------------------------------------

class TestResidentState:
    def test_prepared_cache_survives_across_clients(self, tmp_path):
        """Two clients, two batches, one module: the second batch hits
        the worker-resident prepared-module cache the first one warmed
        — the daemon's whole reason to exist."""
        daemon, addr = start_daemon(tmp_path)
        try:
            request = AnalysisRequest("warm", make_source(),
                                      system="scaf")
            with DaemonClient(addr) as c:
                c.run_batch([request])
                first = c.stats()["telemetry"]
            with DaemonClient(addr) as c:
                c.run_batch([request])
                second = c.stats()["telemetry"]
            assert second["prepared_hits"] > first["prepared_hits"]
            assert second["prepared_misses"] == first["prepared_misses"]
        finally:
            daemon.stop()

    def test_stats_counts_sessions_and_jobs(self, tmp_path):
        daemon, addr = start_daemon(tmp_path)
        try:
            with DaemonClient(addr) as c:
                c.run_batch([AnalysisRequest("s", make_source(),
                                             system="scaf")])
                stats = c.stats()
            d = stats["daemon"]
            assert d["jobs_completed"] == 1
            assert d["jobs_active"] == 0
            assert d["sessions"] >= 1
            assert d["draining"] is False
            assert stats["telemetry"]["loops_computed"] >= 1
        finally:
            daemon.stop()

    def test_recycle_verb_replaces_fleet(self, tmp_path):
        daemon, addr = start_daemon(tmp_path)
        try:
            with DaemonClient(addr) as c:
                reply = c.recycle()
                assert reply["recycled"] is True
                # The engine still serves after the swap.
                answers = c.run_batch([AnalysisRequest(
                    "post-recycle", make_source(), system="scaf")])
                assert answers[0]
        finally:
            daemon.stop()


# -- admission control -------------------------------------------------------

class TestAdmission:
    def test_global_queue_depth_sheds_busy(self, tmp_path):
        daemon, addr = start_daemon(tmp_path, max_queue_depth=0)
        try:
            with DaemonClient(addr) as c:
                with pytest.raises(DaemonError) as info:
                    c.submit([AnalysisRequest("x", make_source(),
                                              system="scaf")])
                assert info.value.busy
                assert info.value.doc.get("retry") is True
                assert c.stats()["daemon"]["jobs_shed"] == 1
        finally:
            daemon.stop()

    def test_client_window_sheds_busy_then_recovers(self, tmp_path):
        gate = threading.Event()
        daemon, addr = start_daemon(
            tmp_path, service=gated_service(1, gate), max_client_jobs=1)
        try:
            request = AnalysisRequest("w", make_source(), system="scaf")
            with DaemonClient(addr) as c:
                job = c.submit([request])
                with pytest.raises(DaemonError) as info:
                    c.submit([request])
                assert info.value.busy
                gate.set()
                done = c.stream(job)
                assert done["status"] == "done"
                # Window released: the next submit is admitted.
                assert c.submit([request])
        finally:
            gate.set()
            daemon.stop()

    def test_draining_daemon_answers_shutting_down(self, tmp_path):
        gate = threading.Event()
        daemon, addr = start_daemon(
            tmp_path, service=gated_service(1, gate),
            drain_timeout_s=30.0)
        try:
            request = AnalysisRequest("d", make_source(), system="scaf")
            with DaemonClient(addr) as c:
                c.submit([request])  # keeps the drain waiting
                assert c.shutdown()["draining"] is True
                with pytest.raises(DaemonError) as info:
                    c.submit([request])
                assert info.value.shutting_down
                # Double shutdown is an idempotent no-op.
                assert c.shutdown()["draining"] is True
                gate.set()
        finally:
            gate.set()
            daemon.stop()


# -- lifecycle edges ---------------------------------------------------------

class TestLifecycle:
    def test_disconnect_mid_request_releases_slots(self, tmp_path):
        """A client that vanishes mid-request must not leak its queue
        slots: its tickets are swept and a later session gets the full
        admission window."""
        gate = threading.Event()
        daemon, addr = start_daemon(
            tmp_path, service=gated_service(1, gate), max_client_jobs=1)
        try:
            request = AnalysisRequest("gone", make_source(),
                                      system="scaf")
            ghost = DaemonClient(addr)
            ghost.submit([request])
            ghost.close()  # vanish with the job still gated
            gate.set()
            with DaemonClient(addr) as c:
                # Fresh session, fresh window: admitted immediately.
                done = c.stream(c.submit([request]))
                assert done["status"] == "done"
                stats = c.stats()["daemon"]
                assert stats["queue_depth"] == 0
                assert stats["jobs_active"] == 0
        finally:
            gate.set()
            daemon.stop()

    def test_worker_crash_during_multi_client_drain(self, tmp_path):
        """One worker dies on session A's loop while session B's batch
        is in the same queue: the fleet recycles, B's answers all
        compute, A degrades only the crashed loop."""
        gate = threading.Event()
        crashed = []
        daemon, addr = start_daemon(
            tmp_path,
            service=gated_service(2, gate, crash_on="victim",
                                  crashed=crashed))
        try:
            victim = AnalysisRequest("victim", make_source(),
                                     system="scaf")
            bystander = AnalysisRequest("bystander",
                                        make_source(iters=80, step=2),
                                        system="caf")
            results = {}

            def run(name, request):
                with DaemonClient(addr) as c:
                    results[name] = c.run_batch([request])

            threads = [threading.Thread(target=run, args=a)
                       for a in (("victim", victim),
                                 ("bystander", bystander))]
            for t in threads:
                t.start()
            gate.set()
            for t in threads:
                t.join(timeout=120)
            assert crashed, "the injected crash never fired"
            assert all(a.status == STATUS_COMPUTED
                       for a in results["bystander"][0])
            victim_status = {a.status
                             for a in results["victim"][0]}
            assert STATUS_FALLBACK in victim_status
            with DaemonClient(addr) as c:
                assert c.stats()["telemetry"]["fleet_rebuilds"] >= 1
        finally:
            gate.set()
            daemon.stop()

    def test_session_spans_reparent_under_daemon_root(self, tmp_path):
        tracer = TraceContext()
        set_tracer(tracer)
        daemon, addr = start_daemon(tmp_path)
        try:
            with DaemonClient(addr) as c:
                c.run_batch([AnalysisRequest("traced", make_source(),
                                             system="scaf")])
        finally:
            daemon.stop()
            set_tracer(NOOP)
        spans = tracer.export()
        by_name = {}
        for s in spans:
            by_name.setdefault(s["name"], []).append(s)
        assert "daemon" in by_name and "session_batch" in by_name
        root = by_name["daemon"][0]
        for batch_span in by_name["session_batch"]:
            assert batch_span["parent"] == root["id"]
