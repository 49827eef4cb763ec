"""Tests for the tiered result cache (repro.cachetier).

Covers the RESP wire client against the in-memory fake server, the
bundle transport through the sqlite L1, read-through/write-behind
composition across two services sharing one L2, every injected L2
failure mode (refused connect, mid-request disconnect, slow reply past
the deadline) degrading to L1-only without failing a query, write-
behind overflow shedding, sqlite lock-retry accounting, and the
contract property: answers with an L2 attached are byte-identical to
answers without one.
"""

import sqlite3
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cachetier import (
    FakeRespServer,
    L2ConnectError,
    L2ProtocolError,
    RespBackend,
    TieredCache,
    backend_from_url,
)
from repro.cachetier.backend import CacheBackend
from repro.obs.metrics import MetricsRegistry
from repro.service import (
    AnalysisRequest,
    DependenceService,
    ResultCache,
    ServiceConfig,
    STATUS_CACHED,
    STATUS_COMPUTED,
    STATUS_FALLBACK,
    TrainingRun,
    fallback_answer,
    reset_prepared_cache,
)

from tests.test_service import count_meta_reads


@pytest.fixture(autouse=True)
def _fresh_prepared_cache():
    reset_prepared_cache()
    yield
    reset_prepared_cache()


@pytest.fixture
def server():
    srv = FakeRespServer().start()
    yield srv
    srv.stop()


SOURCE = """
{extra}global @cell : i32 = 0

func @main() -> i32 {{
entry:
  br %loop
loop:
  %i = phi i32 [0, %entry], [%i2, %loop]
  %v = load i32* @cell
  %v2 = add i32 %v, {step}
  store i32 %v2, i32* @cell
  %i2 = add i32 %i, 1
  %c = icmp slt i32 %i2, 60
  condbr i1 %c, %loop, %exit
exit:
  %r = load i32* @cell
  ret i32 %r
}}
"""


def _request(step: int = 1, extra: str = "") -> AnalysisRequest:
    return AnalysisRequest("tiered",
                           SOURCE.format(step=step, extra=extra),
                           system="scaf")


def _config(cache_dir, l2_url=None, **kw) -> ServiceConfig:
    return ServiceConfig(workers=0, executor="inline",
                         cache_dir=str(cache_dir), cache_l2=l2_url, **kw)


def _seed_l1(cache: ResultCache, key: str = "vk1",
             lineage: str = "lin1") -> None:
    """One minimal stored entry (no footprints: exact-key only)."""
    cache.store(key, workload="w", system="scaf", entry="main",
                modules=["w"],
                run=TrainingRun(hot_loops=("@main:%loop",),
                                profile_digest="pd"),
                answers=[fallback_answer("w", "scaf", "@main:%loop")],
                lineage_key=lineage)


def identities(answers):
    return [a.identity() for a in answers]


def served_loops(cache, key: str):
    """The loops a lookup of ``key`` serves, or ``None`` on a miss
    (which may still return the key's meta row)."""
    found = cache.lookup(key)
    if found is None or found[1] is None:
        return None
    return [a.loop for a in found[1]]


# -- RESP client against the fake server -------------------------------------

class TestRespBackend:
    def test_round_trip(self, server):
        backend = backend_from_url(server.url)
        assert backend.ping()
        assert backend.get("missing") is None
        backend.put("k", b"value\r\nwith\x00binary")
        assert backend.get("k") == b"value\r\nwith\x00binary"
        backend.sadd("s", "b")
        backend.sadd("s", "a")
        backend.sadd("s", "a")
        assert backend.smembers("s") == ("a", "b")
        assert backend.smembers("empty") == ()
        backend.delete("k")
        assert backend.get("k") is None
        backend.close()
        assert server.gets >= 2 and server.stores >= 1

    def test_unknown_command_is_protocol_error(self, server):
        backend = RespBackend(server.host, server.port)
        with pytest.raises(L2ProtocolError):
            backend._command("FLUSHALL")
        backend.close()

    def test_reconnects_after_drop(self, server):
        backend = backend_from_url(server.url)
        backend.put("k", b"v")
        backend._drop_connection()
        assert backend.get("k") == b"v"  # lazily reconnected
        backend.close()

    def test_url_parsing(self):
        backend = backend_from_url("redis://example:6379", timeout_s=2.5)
        assert (backend.host, backend.port) == ("example", 6379)
        assert backend.timeout_s == 2.5
        assert backend_from_url("127.0.0.1:12345").port == 12345
        with pytest.raises(ValueError):
            backend_from_url("memcached://host:1")
        with pytest.raises(ValueError):
            backend_from_url("redis://no-port")


# -- bundle transport ---------------------------------------------------------

class TestBundles:
    def test_export_adopt_round_trip(self, tmp_path):
        src = ResultCache(str(tmp_path / "a"))
        _seed_l1(src)
        bundle = src.export_bundle("vk1")
        assert bundle["v"] == 1
        assert bundle["meta"]["version_key"] == "vk1"
        assert [a["loop_name"] for a in bundle["answers"]] \
            == ["@main:%loop"]

        dst = ResultCache(str(tmp_path / "b"))
        assert dst.adopt_bundle(bundle)
        # Digest-bearing columns travel verbatim.
        assert dst.export_bundle("vk1") == bundle
        assert dst.meta("vk1").lineage_key == "lin1"
        assert identities(dst.lookup("vk1")[1]) \
            == identities(src.lookup("vk1")[1])
        src.close()
        dst.close()

    def test_export_missing_key(self, tmp_path):
        with ResultCache(str(tmp_path)) as cache:
            assert cache.export_bundle("absent") is None

    def test_adopt_rejects_malformed(self, tmp_path):
        with ResultCache(str(tmp_path)) as cache:
            assert not cache.adopt_bundle({"v": 2, "meta": {},
                                           "answers": []})
            assert not cache.adopt_bundle({"v": 1, "answers": []})
            assert not cache.adopt_bundle(
                {"v": 1, "meta": {"version_key": "x"}, "answers": []})
            assert not cache.adopt_bundle("not a mapping")
            assert cache.keys() == []


# -- read-through / write-behind ---------------------------------------------

class TestTieredCache:
    def test_write_behind_publishes_and_reads_through(self, tmp_path,
                                                      server):
        registry = MetricsRegistry()
        a = TieredCache(ResultCache(str(tmp_path / "a")),
                        backend_from_url(server.url), registry)
        _seed_l1(a)
        assert a.flush()
        assert registry.value("l2_writes") == 1
        assert any(k.endswith(":bundle:vk1") for k in server.strings)
        a.close()

        fresh = MetricsRegistry()
        b = TieredCache(ResultCache(str(tmp_path / "b")),
                        backend_from_url(server.url), fresh)
        assert served_loops(b, "vk1") == ["@main:%loop"]  # adopted from L2
        assert fresh.value("l1_misses") == 1
        assert fresh.value("l2_hits") == 1
        assert served_loops(b, "vk1") == ["@main:%loop"]  # now local
        assert fresh.value("l1_hits") == 1
        b.close()

    def test_lineage_pull_and_memoization(self, tmp_path, server):
        a = TieredCache(ResultCache(str(tmp_path / "a")),
                        backend_from_url(server.url), MetricsRegistry())
        _seed_l1(a, key="vk1", lineage="lin1")
        _seed_l1(a, key="vk2", lineage="lin1")
        assert a.flush()
        a.close()

        registry = MetricsRegistry()
        b = TieredCache(ResultCache(str(tmp_path / "b")),
                        backend_from_url(server.url), registry)
        assert b.has_lineage("lin1")
        assert registry.value("l2_hits") == 2   # both siblings adopted
        commands = server.commands
        assert b.has_lineage("lin1")            # memoized: no new pull
        assert server.commands == commands
        assert not b.has_lineage("lin-unknown")
        b.close()

    def test_meta_reads_through(self, tmp_path, server):
        a = TieredCache(ResultCache(str(tmp_path / "a")),
                        backend_from_url(server.url), MetricsRegistry())
        _seed_l1(a)
        assert a.flush()
        a.close()
        b = TieredCache(ResultCache(str(tmp_path / "b")),
                        backend_from_url(server.url), MetricsRegistry())
        assert b.meta("vk1").run.profile_digest == "pd"
        assert b.meta("absent") is None
        b.close()

    def test_exact_hit_reads_its_meta_row_once(self, tmp_path, server,
                                                monkeypatch):
        """The meta row an L1 hit read comes back with its answers, so
        the scheduler reads it once, through the tier as without it."""
        with DependenceService(_config(tmp_path, server.url)) as service:
            service.run_batch([_request()])
        reads = count_meta_reads(monkeypatch)
        with DependenceService(_config(tmp_path, server.url)) as service:
            batch = service.run_batch([_request()])
        assert [a.status for a in batch.flat()] == [STATUS_CACHED]
        assert reads == [_request().version_key()]

    def test_cold_miss_reads_its_meta_row_once(self, tmp_path, server,
                                               monkeypatch):
        """A cold exact-key miss reads the L1 meta row once and asks
        the L2 for the key's bundle once: the scheduler takes what the
        tier's ``lookup`` read."""
        reads = count_meta_reads(monkeypatch)
        with DependenceService(_config(tmp_path, server.url)) as service:
            batch = service.run_batch([_request()])
        assert [a.status for a in batch.flat()] == [STATUS_COMPUTED]
        assert reads == [_request().version_key()]
        assert server.gets == 1

    def test_invalidate_deletes_remote_bundle(self, tmp_path, server):
        cache = TieredCache(ResultCache(str(tmp_path)),
                            backend_from_url(server.url),
                            MetricsRegistry())
        _seed_l1(cache)
        assert cache.flush()
        assert any(":bundle:" in k for k in server.strings)
        cache.invalidate("vk1")
        assert not any(":bundle:" in k for k in server.strings)
        assert cache.lookup("vk1") is None
        cache.close()

    def test_prune_is_l1_only(self, tmp_path, server):
        cache = TieredCache(ResultCache(str(tmp_path)),
                            backend_from_url(server.url),
                            MetricsRegistry())
        _seed_l1(cache)
        assert cache.flush()
        assert cache.prune([]) == 1
        assert cache.keys() == []
        # The fleet-shared remote keeps serving other daemons.
        assert any(":bundle:" in k for k in server.strings)
        cache.close()


# -- failure modes ------------------------------------------------------------

class _BlockingBackend(CacheBackend):
    """A backend whose writes park until released — makes write-behind
    queue pressure deterministic."""

    def __init__(self):
        self.release = threading.Event()
        self.puts = []

    def get(self, key):
        return None

    def put(self, key, value):
        self.release.wait(timeout=10.0)
        self.puts.append(key)

    def delete(self, key):
        pass

    def sadd(self, key, member):
        pass

    def smembers(self, key):
        return ()

    def ping(self):
        return True

    def close(self):
        self.release.set()


class TestDegradation:
    def test_refused_connect_degrades_to_l1(self, tmp_path):
        dead = FakeRespServer().start()
        url = dead.url
        dead.stop()  # the port now refuses connections
        registry = MetricsRegistry()
        cache = TieredCache(ResultCache(str(tmp_path)),
                            backend_from_url(url, timeout_s=0.5),
                            registry, reconnect_s=60.0)
        _seed_l1(cache)
        assert cache.flush()  # queued publish attempts, fails, drops
        assert registry.value("l2_writes_dropped") == 1
        assert served_loops(cache, "vk1") == ["@main:%loop"]  # L1 serves
        assert cache.lookup("vk-cold") is None   # L2 probe fails quietly
        assert registry.value("l2_errors") >= 1
        assert registry.value("l2_errors", type="connect") >= 1
        assert registry.value("l2_degraded") == 1
        # Cooling down: later probes short-circuit without touching
        # the socket, and degraded-path writes are dropped at enqueue.
        errors = registry.value("l2_errors")
        assert cache.lookup("vk-cold2") is None
        assert registry.value("l2_errors") == errors
        _seed_l1(cache, key="vk2")
        assert registry.value("l2_writes_dropped") == 2
        cache.close()

    def test_accept_then_close_degrades(self, tmp_path, server):
        server.refuse_connections = True
        registry = MetricsRegistry()
        cache = TieredCache(ResultCache(str(tmp_path)),
                            backend_from_url(server.url, timeout_s=0.5),
                            registry)
        assert cache.lookup("anything") is None
        assert registry.value("l2_errors") >= 1
        cache.close()

    def test_mid_request_disconnect_degrades(self, tmp_path, server):
        registry = MetricsRegistry()
        cache = TieredCache(ResultCache(str(tmp_path)),
                            backend_from_url(server.url, timeout_s=0.5),
                            registry, reconnect_s=60.0)
        _seed_l1(cache)
        assert cache.flush()
        server.drop_after_requests = server.commands  # sever from now on
        assert cache.lookup("vk-cold") is None
        assert registry.value("l2_errors", type="connect") >= 1
        assert served_loops(cache, "vk1") == ["@main:%loop"]  # L1 still serves
        cache.close()

    def test_slow_reply_past_deadline_degrades(self, tmp_path, server):
        server.response_delay_s = 1.0
        registry = MetricsRegistry()
        cache = TieredCache(ResultCache(str(tmp_path)),
                            backend_from_url(server.url, timeout_s=0.2),
                            registry, reconnect_s=60.0)
        started = time.perf_counter()
        assert cache.lookup("vk-cold") is None
        assert time.perf_counter() - started < 0.9
        assert registry.value("l2_errors", type="timeout") >= 1
        assert registry.value("l2_degraded") == 1
        cache.close()

    def test_recovery_after_cooldown(self, tmp_path, server):
        registry = MetricsRegistry()
        backend = backend_from_url(server.url, timeout_s=0.5)
        cache = TieredCache(ResultCache(str(tmp_path)), backend,
                            registry, reconnect_s=0.05)
        _seed_l1(cache)
        assert cache.flush()
        port = server.port
        server.stop()
        cache._pulled_lineages.clear()
        assert cache.lookup("vk-cold") is None
        assert registry.value("l2_degraded") == 1
        revived = FakeRespServer(port=port).start()
        try:
            time.sleep(0.1)  # past the cooldown
            assert cache.lookup("vk-cold") is None  # miss, but served
            assert registry.value("l2_misses") >= 1
            assert registry.value("l2_degraded") == 0
        finally:
            cache.close()
            revived.stop()

    def test_write_behind_overflow_sheds_oldest(self, tmp_path):
        registry = MetricsRegistry()
        backend = _BlockingBackend()
        cache = TieredCache(ResultCache(str(tmp_path)), backend,
                            registry, max_queue=2)
        for i in range(5):
            _seed_l1(cache, key=f"vk{i}")
        backend.release.set()
        assert cache.flush()
        # One write was in flight; the queue held 2; the rest shed.
        assert registry.value("l2_writes_shed") == 2
        assert registry.value("l2_writes") == 3
        # Oldest-dropped: the newest key always survives.
        assert any(k.endswith(":bundle:vk4") for k in backend.puts)
        cache.close()

    def test_corrupt_remote_payload_is_a_miss(self, tmp_path, server):
        registry = MetricsRegistry()
        cache = TieredCache(ResultCache(str(tmp_path)),
                            backend_from_url(server.url), registry)
        server.strings[cache._bundle_key("vk-bad")] = b"{not json"
        server.strings[cache._bundle_key("vk-wrong")] = b'{"v": 7}'
        assert cache.lookup("vk-bad") is None
        assert cache.lookup("vk-wrong") is None
        assert registry.value("l2_errors", type="payload") == 1
        assert registry.value("l2_hits") == 0
        cache.close()


# -- L1 hardening -------------------------------------------------------------

class TestL1Contention:
    def test_busy_timeout_is_set(self, tmp_path):
        with ResultCache(str(tmp_path)) as cache:
            timeout, = cache._conn.execute("PRAGMA busy_timeout").fetchone()
            assert timeout == ResultCache.BUSY_TIMEOUT_MS

    def test_lock_retry_succeeds_and_counts(self, tmp_path):
        registry = MetricsRegistry()
        cache = ResultCache(str(tmp_path), registry=registry)
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) == 1:
                raise sqlite3.OperationalError("database is locked")
            return 42

        assert cache._with_retry(flaky) == 42
        assert registry.value("l1_lock_retries") == 1
        cache.close()

    def test_second_lock_failure_raises(self, tmp_path):
        registry = MetricsRegistry()
        cache = ResultCache(str(tmp_path), registry=registry)

        def always_locked():
            raise sqlite3.OperationalError("database is locked")

        with pytest.raises(sqlite3.OperationalError):
            cache._with_retry(always_locked)
        assert registry.value("l1_lock_retries") == 1
        cache.close()

    def test_non_lock_errors_are_not_retried(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        attempts = []

        def broken():
            attempts.append(1)
            raise sqlite3.OperationalError("no such table: nope")

        with pytest.raises(sqlite3.OperationalError):
            cache._with_retry(broken)
        assert len(attempts) == 1
        cache.close()

    def test_cross_process_shape_write_write(self, tmp_path):
        # Two connections to one database file (what two daemons
        # sharing a cache_dir look like): both stores land.
        a = ResultCache(str(tmp_path))
        b = ResultCache(str(tmp_path))
        _seed_l1(a, key="vk-a")
        _seed_l1(b, key="vk-b")
        assert set(a.keys()) == {"vk-a", "vk-b"}
        a.close()
        b.close()


# -- service integration ------------------------------------------------------

class TestServiceIntegration:
    def test_l2_requires_l1(self):
        with pytest.raises(ValueError):
            DependenceService(ServiceConfig(workers=0, executor="inline",
                                            cache_l2="redis://h:1"))

    def test_rejected_config_closes_its_cache(self, tmp_path, server,
                                              monkeypatch):
        """A config the scheduler rejects raises with no cache left
        open: the sqlite handle is closed and the write-behind thread
        has stopped."""
        closed = []
        close = ResultCache.close
        monkeypatch.setattr(ResultCache, "close",
                            lambda cache: (closed.append(cache),
                                           close(cache)))

        def writers():
            return {t for t in threading.enumerate()
                    if t.name == "l2-write-behind"}

        before = writers()
        for rejected in ({"workers": 2, "executor": "inline"},
                         {"prepared_cache_size": 0}):
            with pytest.raises(ValueError):
                DependenceService(ServiceConfig(
                    cache_dir=str(tmp_path), cache_l2=server.url,
                    **rejected))
        assert len(closed) == 2
        assert writers() <= before

    def test_fleet_shares_warm_answers(self, tmp_path, server):
        request = _request()
        with DependenceService(_config(tmp_path / "a",
                                       server.url)) as svc_a:
            cold = svc_a.run_batch([request])
            assert svc_a.cache.flush()
            assert svc_a.snapshot().l2_writes >= 1
        reset_prepared_cache()
        with DependenceService(_config(tmp_path / "b",
                                       server.url)) as svc_b:
            warm = svc_b.run_batch([request])
            snap = svc_b.snapshot()
        assert all(a.status == STATUS_CACHED for a in warm.flat())
        assert snap.l2_hits >= 1
        assert snap.module_evals == 0
        assert identities(warm.flat()) == identities(cold.flat())

    def test_incremental_probe_pulls_lineage_from_l2(self, tmp_path,
                                                     server):
        with DependenceService(_config(tmp_path / "a",
                                       server.url)) as svc_a:
            cold = svc_a.run_batch([_request(step=1)])
            assert svc_a.cache.flush()
        reset_prepared_cache()
        # A *different* host sees an edited module: the exact key
        # misses everywhere, but the lineage set pulls the prior
        # version's bundle and the footprints revalidate.
        edited = _request(step=1, extra="global @pad : i32 = 7\n")
        with DependenceService(_config(tmp_path / "b",
                                       server.url)) as svc_b:
            warm = svc_b.run_batch([edited])
            snap = svc_b.snapshot()
        assert all(a.status == STATUS_CACHED for a in warm.flat())
        assert snap.l2_hits >= 1
        assert snap.loops_incremental == len(warm.flat())
        assert snap.module_evals == 0
        assert identities(warm.flat()) == identities(cold.flat())

    def test_dead_l2_never_fails_a_query(self, tmp_path):
        dead = FakeRespServer().start()
        url = dead.url
        dead.stop()
        config = _config(tmp_path, url, l2_timeout_s=0.3)
        with DependenceService(config) as service:
            batch = service.run_batch([_request()])
            snap = service.snapshot()
        assert batch.flat()
        assert all(a.status != STATUS_FALLBACK for a in batch.flat())
        assert snap.l2_errors >= 1
        with DependenceService(_config(tmp_path / "plain")) as baseline:
            expected = baseline.run_batch([_request()])
        assert identities(batch.flat()) == identities(expected.flat())

    def test_report_renders_tier_line(self, tmp_path, server):
        from repro.service import format_report
        with DependenceService(_config(tmp_path, server.url)) as service:
            service.run_batch([_request()])
            report = format_report(service.snapshot())
        assert "cache tiers" in report
        assert "L2" in report


@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(step=st.sampled_from((1, 3)),
       system=st.sampled_from(("caf", "scaf")))
def test_property_l2_answers_identical(step, system):
    """The contract: attaching a remote tier never changes an answer —
    byte-identical with L2 on vs. off, cold and warm."""
    import tempfile
    request = AnalysisRequest("prop", SOURCE.format(step=step, extra=""),
                              system=system)
    reset_prepared_cache()
    with DependenceService(
            _config(tempfile.mkdtemp(prefix="scaf-l2off-"))) as plain:
        expected = plain.run_batch([request])
    with FakeRespServer() as server:
        reset_prepared_cache()
        with DependenceService(_config(
                tempfile.mkdtemp(prefix="scaf-l2a-"),
                server.url)) as svc_a:
            cold = svc_a.run_batch([request])
            assert svc_a.cache.flush()
        reset_prepared_cache()
        with DependenceService(_config(
                tempfile.mkdtemp(prefix="scaf-l2b-"),
                server.url)) as svc_b:
            warm = svc_b.run_batch([request])
    assert identities(cold.flat()) == identities(expected.flat())
    assert identities(warm.flat()) == identities(expected.flat())
