"""Tests for the serving layer (repro.service).

Covers the wire schema, version-keyed persistent cache, batch
scheduler (dedup, per-loop tasks, bounded in-flight work,
degradation), the service facade, and the two contract properties
the subsystem exists for:

- batched answers are bitwise-identical to the sequential
  ``coordinator.handle`` path (hypothesis property test), and
- a warm persistent cache reproduces identical responses with zero
  module evaluations.
"""

import json
import sqlite3
import sys
import tempfile
import threading
import time
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import AnalysisContext
from repro.clients import PDGClient, hot_loops, weighted_no_dep_answers
from repro.core import OrchestratorConfig
from repro.ir import (
    module_content_fingerprints,
    module_header_fingerprint,
    parse_module,
    verify_module,
)
from repro.profiling import run_profilers
from repro.service import (
    AnalysisRequest,
    BatchScheduler,
    DependenceService,
    LoopTask,
    LoopTaskResult,
    ResultCache,
    ServiceConfig,
    STATUS_CACHED,
    STATUS_COMPUTED,
    STATUS_FALLBACK,
    TrainingRun,
    build_system,
    fallback_answer,
    loop_answer_from_dict,
    loop_answer_to_dict,
    loop_footprint_digest,
    request_for_workload,
    reset_prepared_cache,
    run_loop_task,
    summarize_pdg,
    system_module_roster,
)
from repro.service.telemetry import LatencyHistogram


@pytest.fixture(autouse=True)
def _fresh_prepared_cache():
    # The worker-resident prepared-module cache is process-global; with
    # the inline/thread executors that process is the test process, so
    # isolate each test from modules prepared (and orchestrator memos
    # warmed) by its predecessors.
    reset_prepared_cache()
    yield
    reset_prepared_cache()


def make_source(iters: int = 60, rare_store: bool = True,
                second_cell: bool = False) -> str:
    """A small hot-loop program, parameterized for the property test."""
    rare = ("  store i32 1, i32* @hits\n" if rare_store else "")
    extra = ("  %b = load i32* @bcell\n  store i32 %b, i32* @bcell\n"
             if second_cell else "")
    return f"""
global @flag : i32 = 0
global @acc : i32 = 0
global @hits : i32 = 0
global @bcell : i32 = 0

func @main() -> i32 {{
entry:
  br %loop
loop:
  %i = phi i32 [0, %entry], [%i2, %latch]
  %f = load i32* @flag
  %c = icmp ne i32 %f, 0
  condbr i1 %c, %rare, %common
rare:
{rare}  br %join
common:
  br %join
join:
  %a = load i32* @acc
  %a2 = add i32 %a, %i
  store i32 %a2, i32* @acc
{extra}  br %latch
latch:
  %i2 = add i32 %i, 1
  %lc = icmp slt i32 %i2, {iters}
  condbr i1 %lc, %loop, %exit
exit:
  %r = load i32* @acc
  ret i32 %r
}}
"""


def run_of(loops) -> TrainingRun:
    """A training run whose roster is ``loops``."""
    return TrainingRun(hot_loops=tuple(loops), profile_digest="d")


def sequential_answers(request: AnalysisRequest):
    """The reference path: one in-process system, coordinator.handle
    per query, flattened through the same summarizer the workers use."""
    module = parse_module(request.source, name=request.name)
    verify_module(module)
    context = AnalysisContext(module)
    profiles = run_profilers(module, context, entry=request.entry)
    system = build_system(request.system, module, context, profiles,
                          request.config)
    client = PDGClient(system)
    return [summarize_pdg(request.name, request.system,
                          client.analyze_loop(h.loop), h.time_fraction, 0.0)
            for h in hot_loops(profiles)]


def identities(answers):
    return [a.identity() for a in answers]


# -- wire schema -------------------------------------------------------------

class TestAnswers:
    def test_json_round_trip(self):
        request = AnalysisRequest("t", make_source(), system="scaf")
        [answer] = sequential_answers(request)
        doc = loop_answer_to_dict(answer)
        assert doc["answers"], "expected per-pair answers"
        restored = loop_answer_from_dict(doc)
        assert restored == answer

    def test_labels_are_stable_across_parses(self):
        request = AnalysisRequest("t", make_source(), system="caf")
        first = sequential_answers(request)
        second = sequential_answers(request)
        assert identities(first) == identities(second)

    def test_fallback_is_conservative(self):
        a = fallback_answer("w", "scaf", "@main:%loop")
        assert a.status == STATUS_FALLBACK
        assert a.no_dep_percent == 0.0
        assert a.answers == ()


# -- versioning --------------------------------------------------------------

class TestVersionKey:
    def test_key_ingredients(self):
        base = AnalysisRequest("t", make_source(), system="scaf")
        assert base.version_key() == \
            AnalysisRequest("t", make_source(), system="scaf").version_key()
        assert base.version_key() != AnalysisRequest(
            "t", make_source(iters=80), system="scaf").version_key()
        assert base.version_key() != AnalysisRequest(
            "t", make_source(), system="caf").version_key()
        assert base.version_key() != AnalysisRequest(
            "t", make_source(), system="scaf",
            config=OrchestratorConfig(join_policy="all")).version_key()
        # Display name and loop subset do NOT change the key: they
        # share one computation.
        assert base.version_key() == AnalysisRequest(
            "other-name", make_source(), system="scaf").version_key()

    def test_rosters(self):
        assert len(system_module_roster("caf")) == 13
        assert len(system_module_roster("scaf")) == 19
        assert len(system_module_roster("memory-speculation")) == 14
        with pytest.raises(ValueError):
            system_module_roster("nope")

    def test_answer_irrelevant_config_fields_share_key(self):
        """Memo-cache knobs cannot change an answer, so flipping them
        must not bust the persistent cache; answer-relevant policy
        fields still must."""
        base = AnalysisRequest("t", make_source(), system="scaf")
        for config in (OrchestratorConfig(use_cache=False),
                       OrchestratorConfig(track_contributors=False)):
            twin = AnalysisRequest("t", make_source(), system="scaf",
                                   config=config)
            assert twin.version_key() == base.version_key()
            assert twin.lineage_key() == base.lineage_key()
        assert AnalysisRequest(
            "t", make_source(), system="scaf",
            config=OrchestratorConfig(join_policy="all")
        ).version_key() != base.version_key()

    def test_lineage_key_ignores_source_only(self):
        base = AnalysisRequest("t", make_source(), system="scaf")
        edited = AnalysisRequest("t", make_source(iters=80), system="scaf")
        assert base.version_key() != edited.version_key()
        assert base.lineage_key() == edited.lineage_key()
        assert base.lineage_key() != AnalysisRequest(
            "t", make_source(), system="caf").lineage_key()


# -- persistent cache --------------------------------------------------------

class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        request = AnalysisRequest("t", make_source(), system="caf")
        key = request.version_key()
        assert cache.lookup(key) is None
        answers = sequential_answers(request)
        cache.store(key, workload="t", system="caf", entry="main",
                    modules=system_module_roster("caf"),
                    run=run_of([a.loop for a in answers]),
                    answers=answers)
        hit = cache.lookup(key)
        assert hit is not None
        meta, cached = hit
        assert meta == cache.meta(key)
        assert all(a.status == STATUS_CACHED for a in cached)
        assert identities(cached) == identities(answers)
        cache.close()

    def test_partial_roster_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        request = AnalysisRequest("t", make_source(), system="caf")
        key = request.version_key()
        answers = sequential_answers(request)
        cache.store(key, workload="t", system="caf", entry="main",
                    modules=(),
                    run=run_of([a.loop for a in answers] + ["@main:%ghost"]),
                    answers=answers)
        # Roster incomplete: a miss that hands back the meta row.
        assert cache.lookup(key) == (cache.meta(key), None)
        assert cache.lookup(key, [answers[0].loop])[1] is not None
        cache.close()

    def test_invalidate_and_prune(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        request = AnalysisRequest("t", make_source(), system="caf")
        answers = sequential_answers(request)
        for key in ("k1", "k2", "k3"):
            cache.store(key, workload="t", system="caf", entry="main",
                        modules=(), run=run_of([a.loop for a in answers]),
                        answers=answers)
        cache.invalidate("k1")
        assert cache.lookup("k1") is None
        assert cache.prune(["k2"]) == 1
        assert cache.keys() == ["k2"]
        cache.close()

    def test_lookup_explicit_subset_of_partial_key(self, tmp_path):
        """An explicit loop subset hits iff *every named loop* has a
        row — a partially-populated key serves the loops it has and
        misses on any subset that reaches into the holes."""
        cache = ResultCache(str(tmp_path))
        request = AnalysisRequest("t", make_source(), system="caf")
        key = request.version_key()
        answers = sequential_answers(request)
        stored = answers[0].loop
        cache.store(key, workload="t", system="caf", entry="main",
                    modules=(), run=run_of([stored, "@main:%ghost"]),
                    answers=answers)
        meta = cache.meta(key)
        assert cache.lookup(key, [stored])[1] is not None
        assert cache.lookup(key, [stored, "@main:%ghost"]) == (meta, None)
        assert cache.lookup(key, ["@main:%ghost"]) == (meta, None)
        assert cache.lookup(key) == (meta, None)    # full roster short
        cache.close()

    def test_lineage_queries_search_meta_by_index(self, tmp_path):
        """``has_lineage`` and ``lookup_profile`` run on every
        incremental probe: neither scans the meta table."""
        cache = ResultCache(str(tmp_path))
        for n in range(3):
            cache.store(f"k{n}", workload="t", system="caf", entry="main",
                        modules=(), run=run_of([]), answers=[],
                        lineage_key=f"lin{n}")
        statements = []
        cache._conn.set_trace_callback(statements.append)
        assert cache.has_lineage("lin1")
        assert cache.lookup_profile("lin1", "t") is None  # no scope
        cache._conn.set_trace_callback(None)
        assert len(statements) == 2
        for sql in statements:
            plan = [row[-1] for row in cache._conn.execute(
                "EXPLAIN QUERY PLAN " + sql)]
            assert not any(step.startswith("SCAN meta")
                           for step in plan), (sql, plan)
            assert any("meta_by_lineage" in step for step in plan), plan
        cache.close()

    def test_prune_empty_keep_drops_all_rows(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        request = AnalysisRequest("t", make_source(), system="caf")
        answers = sequential_answers(request)
        for key in ("k1", "k2", "k3"):
            cache.store(key, workload="t", system="caf", entry="main",
                        modules=(), run=run_of([a.loop for a in answers]),
                        answers=answers)
        assert cache.prune([]) == 3
        assert cache.keys() == []
        # The answers table must be emptied too, not just meta.
        left = cache._conn.execute("SELECT COUNT(*) FROM answers")
        assert left.fetchone()[0] == 0
        cache.close()

    def test_prune_ignores_unknown_keep_keys(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        request = AnalysisRequest("t", make_source(), system="caf")
        answers = sequential_answers(request)
        for key in ("k1", "k2"):
            cache.store(key, workload="t", system="caf", entry="main",
                        modules=(), run=run_of([a.loop for a in answers]),
                        answers=answers)
        assert cache.prune(["k2", "k2", "never-stored"]) == 1
        assert cache.keys() == ["k2"]
        assert identities(cache.lookup("k2")[1]) == identities(answers)
        cache.close()

    def test_prune_handles_keep_lists_past_sqlite_param_limit(
            self, tmp_path):
        """sqlite binds at most 999 host parameters per statement; a
        keep list larger than that must still prune correctly (the
        keys are staged through a temp table, not an IN (...) list)."""
        cache = ResultCache(str(tmp_path))
        request = AnalysisRequest("t", make_source(), system="caf")
        answers = sequential_answers(request)
        for key in ("k1", "k2", "k3"):
            cache.store(key, workload="t", system="caf", entry="main",
                        modules=(), run=run_of([a.loop for a in answers]),
                        answers=answers)
        keep = [f"live-{i:04d}" for i in range(1200)] + ["k1", "k3"]
        assert cache.prune(keep) == 1            # only k2 goes
        assert cache.keys() == ["k1", "k3"]
        assert identities(cache.lookup("k1")[1]) == identities(answers)
        cache.close()

    def test_v1_schema_migrates_in_place(self, tmp_path):
        """Opening a pre-incremental (v1) database adds the new columns
        without touching existing rows; legacy rows keep serving exact
        lookups and never match an incremental probe."""
        request = AnalysisRequest("t", make_source(), system="caf")
        key = request.version_key()
        [answer] = sequential_answers(request)
        db = str(tmp_path / ResultCache.FILENAME)
        conn = sqlite3.connect(db)
        conn.executescript("""
            CREATE TABLE meta (
                version_key TEXT PRIMARY KEY, workload TEXT NOT NULL,
                system TEXT NOT NULL, entry TEXT NOT NULL,
                modules TEXT NOT NULL, profile_digest TEXT NOT NULL,
                hot_loops TEXT NOT NULL, created_at REAL NOT NULL);
            CREATE TABLE answers (
                version_key TEXT NOT NULL, loop_name TEXT NOT NULL,
                payload TEXT NOT NULL,
                PRIMARY KEY (version_key, loop_name));
        """)
        conn.execute("INSERT INTO meta VALUES (?,?,?,?,?,?,?,?)",
                     (key, "t", "caf", "main", "[]", "d",
                      json.dumps([answer.loop]), 1.0))
        conn.execute("INSERT INTO answers VALUES (?,?,?)",
                     (key, answer.loop,
                      json.dumps(loop_answer_to_dict(answer))))
        conn.commit()
        conn.close()

        with ResultCache(str(tmp_path)) as cache:
            hit = cache.lookup(key)
            assert hit is not None
            assert identities(hit[1]) == identities([answer])
            assert cache.meta(key).lineage_key == ""
            assert not cache.has_lineage("")
            assert cache.lookup_footprints(
                request.lineage_key(), "t", [answer.loop], {}, "") == {}
            # v2 writes work against the migrated tables.
            cache.store("k2", workload="t", system="caf", entry="main",
                        modules=(), run=run_of([answer.loop]),
                        answers=[answer], lineage_key=request.lineage_key())
            assert cache.has_lineage(request.lineage_key())

    def test_footprint_lookup_survives_unrelated_edit(self, tmp_path):
        """The unit-level incremental contract: a stored answer is
        returned for an edited module iff every footprint function's
        fingerprint (and the header) is unchanged."""
        cache = ResultCache(str(tmp_path))
        request = AnalysisRequest("t", make_source(), system="caf")
        [answer] = sequential_answers(request)
        fingerprints = {"main": "m-hash", "helper": "h-hash"}
        digest = loop_footprint_digest(("main",), fingerprints, "hdr")
        cache.store(request.version_key(), workload="t", system="caf",
                    entry="main", modules=(), run=run_of([answer.loop]),
                    answers=[answer], lineage_key=request.lineage_key(),
                    footprints={answer.loop: (("main",), digest)})
        lineage = request.lineage_key()

        hits = cache.lookup_footprints(
            lineage, "t", [answer.loop],
            {"main": "m-hash", "helper": "edited"}, "hdr")
        assert set(hits) == {answer.loop}
        assert hits[answer.loop].answer.status == STATUS_CACHED
        assert hits[answer.loop].footprint == ("main",)
        assert hits[answer.loop].digest == digest

        # Edits inside the footprint, a changed header, or a deleted
        # footprint function all invalidate.
        assert cache.lookup_footprints(
            lineage, "t", [answer.loop], {"main": "edited"}, "hdr") == {}
        assert cache.lookup_footprints(
            lineage, "t", [answer.loop], {"main": "m-hash"}, "hdr2") == {}
        assert cache.lookup_footprints(
            lineage, "t", [answer.loop], {"helper": "h-hash"}, "hdr") == {}
        cache.close()

    @staticmethod
    def _store_versions(cache, request, answer, versions):
        """One stored key per ``(stored_at, valid)`` version of one
        loop, in order; version ``i``'s answer has ``latency_s == i``.
        A valid version's digest survives the edit ``_EDITED`` makes,
        an invalid one's does not."""
        for i, (stored_at, valid) in enumerate(versions):
            code = "m-hash" if valid else f"old-{i}"
            digest = loop_footprint_digest(("main",), {"main": code}, "hdr")
            key = f"k{i}"
            cache.store(key, workload="t", system="caf", entry="main",
                        modules=(), run=run_of([answer.loop]),
                        answers=[replace(answer, latency_s=float(i))],
                        lineage_key=request.lineage_key(),
                        footprints={answer.loop: (("main",), digest)})
            cache._conn.execute(
                "UPDATE answers SET stored_at = ? WHERE version_key = ?",
                (stored_at, key))
        cache._conn.commit()

    _EDITED = ({"main": "m-hash", "helper": "edited"}, "hdr")

    def test_footprint_walk_decodes_one_payload_per_loop(
            self, tmp_path, monkeypatch):
        """A lineage holding many re-stored versions of a loop costs
        one payload decode per loop: the walk goes newest first and
        stops at the first surviving row."""
        from repro.service import cache as cache_module
        decoded = []

        def counting(doc):
            decoded.append(doc["loop"])
            return loop_answer_from_dict(doc)

        monkeypatch.setattr(cache_module, "loop_answer_from_dict", counting)
        request = AnalysisRequest("t", make_source(), system="caf")
        [answer] = sequential_answers(request)
        with ResultCache(str(tmp_path)) as cache:
            self._store_versions(cache, request, answer,
                                 [(float(i), True) for i in range(6)])
            hits = cache.lookup_footprints(
                request.lineage_key(), "t", [answer.loop], *self._EDITED)
        assert decoded == [answer.loop]
        assert hits[answer.loop].answer.latency_s == 5.0   # the newest

    @given(versions=st.lists(
        st.tuples(st.sampled_from([0.0, 1.0, 2.0]), st.booleans()),
        min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_footprint_walk_picks_the_freshest_surviving_row(
            self, versions):
        """The chosen row is the freshest row whose digest survives, and
        on equal ``stored_at`` the one stored first (lowest rowid)."""
        request = AnalysisRequest("t", make_source(), system="caf")
        answer = fallback_answer("t", "caf", "@main:%loop")
        survivors = [(-stored_at, i)
                     for i, (stored_at, valid) in enumerate(versions)
                     if valid]
        with tempfile.TemporaryDirectory() as cache_dir, \
                ResultCache(cache_dir) as cache:
            self._store_versions(cache, request, answer, versions)
            hits = cache.lookup_footprints(
                request.lineage_key(), "t", [answer.loop], *self._EDITED)
        if not survivors:
            assert hits == {}
            return
        hit = hits[answer.loop]
        assert hit.answer.latency_s == float(min(survivors)[1])
        assert hit.answer.status == STATUS_CACHED
        assert json.loads(hit.payload)["latency_s"] == hit.answer.latency_s

    def test_survives_reopen(self, tmp_path):
        request = AnalysisRequest("t", make_source(), system="caf")
        key = request.version_key()
        answers = sequential_answers(request)
        with ResultCache(str(tmp_path)) as cache:
            cache.store(key, workload="t", system="caf", entry="main",
                        modules=(), run=run_of([a.loop for a in answers]),
                        answers=answers)
        with ResultCache(str(tmp_path)) as cache:
            assert identities(cache.lookup(key)[1]) == identities(answers)


# -- scheduler ---------------------------------------------------------------

def _canned_result(task: LoopTask) -> LoopTaskResult:
    """A worker reply with no analysis behind it: a discovery task
    reports the request's loops (or one default loop) as the hot
    roster; a loop task answers its loop as computed."""
    request = task.request
    result = LoopTaskResult(
        loop=task.loop,
        run=TrainingRun(hot_loops=request.loops or ("@main:%loop",)),
        busy_s=0.01)
    if task.loop is not None:
        result.answer = replace(
            fallback_answer(request.name, request.system, task.loop),
            status=STATUS_COMPUTED)
    return result


class TestScheduler:
    def test_inflight_dedup(self):
        calls = []

        def runner(task):
            calls.append(task)
            return _canned_result(task)

        scheduler = BatchScheduler(workers=0, executor="inline",
                                   loop_runner=runner)
        a = AnalysisRequest("a", make_source(), system="caf")
        b = AnalysisRequest("b", make_source(), system="caf")  # same key
        c = AnalysisRequest("c", make_source(iters=80), system="caf")
        results = scheduler.run_batch([a, b, c])
        # One discovery ("*") and one loop task per distinct key: the
        # duplicate rides on its twin's tasks.
        assert sorted((t.request.name, t.loop or "*") for t in calls) == [
            ("a", "*"), ("a", "@main:%loop"),
            ("c", "*"), ("c", "@main:%loop")]
        assert scheduler.telemetry.snapshot().requests_deduplicated == 1
        assert len(results) == 3
        assert identities(results[0]) == identities(results[1])

    def test_worker_crash_degrades_not_raises(self):
        def runner(task):
            raise RuntimeError("worker died")

        scheduler = BatchScheduler(workers=1, executor="thread",
                                   loop_runner=runner)
        request = AnalysisRequest("a", make_source(), system="caf",
                                  loops=("@main:%loop",))
        [answers] = scheduler.run_batch([request])
        assert [a.status for a in answers] == [STATUS_FALLBACK]
        assert scheduler.telemetry.snapshot().tasks_failed == 1
        scheduler.close()

    def test_partial_crash_keeps_other_shards(self):
        def runner(task):
            if task.request.name == "bad":
                raise RuntimeError("worker died")
            return _canned_result(task)

        scheduler = BatchScheduler(workers=1, executor="thread",
                                   loop_runner=runner)
        good = AnalysisRequest("good", make_source(), system="caf")
        bad = AnalysisRequest("bad", make_source(iters=80), system="caf",
                              loops=("@main:%loop",))
        answers = scheduler.run_batch([good, bad])
        assert [a.status for a in answers[0]] == [STATUS_COMPUTED]
        assert [a.status for a in answers[1]] == [STATUS_FALLBACK]
        scheduler.close()

    def test_shard_timeout_degrades(self):
        """A task past ``task_timeout_s`` falls back for its own loop
        only; its worker lane is rebuilt and the other loops compute."""
        def runner(task):
            if task.loop == "slow":
                time.sleep(1.0)
            return _canned_result(task)

        scheduler = BatchScheduler(workers=2, executor="thread",
                                   task_timeout_s=0.25, loop_runner=runner)
        request = AnalysisRequest("a", make_source(), system="caf",
                                  loops=("fast1", "slow", "fast2"))
        [answers] = scheduler.run_batch([request])
        scheduler.close()
        assert {a.loop: a.status for a in answers} == {
            "fast1": STATUS_COMPUTED, "slow": STATUS_FALLBACK,
            "fast2": STATUS_COMPUTED}
        snap = scheduler.telemetry.snapshot()
        assert snap.tasks_timed_out == 1
        assert snap.loops_fallback == 1
        assert snap.fleet_rebuilds == 1

    def test_bounded_inflight_backpressure(self):
        """Each worker lane holds one task, so tasks in flight never
        exceed ``workers`` however deep the queue is."""
        lock = threading.Lock()
        running, peak = [0], [0]

        def runner(task):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            time.sleep(0.02)
            with lock:
                running[0] -= 1
            return _canned_result(task)

        scheduler = BatchScheduler(workers=2, executor="thread",
                                   loop_runner=runner)
        requests = [AnalysisRequest(f"r{i}", make_source(iters=55 + i),
                                    system="caf",
                                    loops=("l1", "l2", "l3"))
                    for i in range(4)]
        scheduler.run_batch(requests)
        scheduler.close()
        snap = scheduler.telemetry.snapshot()
        assert snap.loop_tasks_dispatched == 12
        assert 1 <= peak[0] <= 2
        # The in-flight gauge: both lanes fill on the first dispatch
        # round, and never more than that.
        assert snap.max_tasks_inflight == 2

    def test_inline_executor_propagates_interrupts(self):
        """KeyboardInterrupt/SystemExit must escape; ordinary task
        errors surface through the future like a real pool."""
        from repro.service.engine import _InlineExecutor
        executor = _InlineExecutor()

        def interrupt():
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            executor.submit(interrupt)
        with pytest.raises(SystemExit):
            executor.submit(sys.exit, 3)
        future = executor.submit(lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            future.result()

    def test_workers_zero_is_one_inline_lane(self):
        """``workers=0`` runs every task in the calling process,
        whatever the executor kind says."""
        from repro.service.engine import _InlineExecutor
        for executor in ("process", "thread", "inline"):
            scheduler = BatchScheduler(workers=0, executor=executor,
                                       loop_runner=_canned_result)
            scheduler.run_batch([AnalysisRequest("a", make_source(),
                                                 system="caf")])
            lanes = [type(slot.executor)
                     for slot in scheduler.engine._slots]
            scheduler.close()
            assert lanes == [_InlineExecutor], executor
        with DependenceService(ServiceConfig(workers=0)) as svc:
            assert svc.scheduler.engine.executor_kind == "inline"

    def test_inline_executor_takes_no_workers(self):
        """A pool of worker lanes is process or thread; inline is the
        ``workers=0`` lane only."""
        for executor in ("inline", "bogus"):
            with pytest.raises(ValueError, match="workers=0"):
                BatchScheduler(workers=2, executor=executor)
            with pytest.raises(ValueError, match="workers=0"):
                DependenceService(ServiceConfig(workers=2,
                                                executor=executor))

    def test_loop_sharding_splits_known_rosters(self):
        """A known roster needs no discovery task: every loop becomes
        its own task."""
        seen = []

        def runner(task):
            seen.append(task.loop)
            return _canned_result(task)

        scheduler = BatchScheduler(workers=0, executor="inline",
                                   loop_runner=runner)
        request = AnalysisRequest("a", make_source(), system="caf",
                                  loops=("l1", "l2", "l3", "l4"))
        [answers] = scheduler.run_batch([request])
        assert sorted(seen) == ["l1", "l2", "l3", "l4"]
        assert [a.loop for a in answers] == ["l1", "l2", "l3", "l4"]
        assert scheduler.telemetry.snapshot().discovery_tasks == 0


# -- end-to-end --------------------------------------------------------------

WORKLOAD_NAMES = ("181.mcf", "462.libquantum")


class TestServiceEndToEnd:
    def test_process_pool_matches_sequential(self):
        """Real multiprocessing across 4 workers on real workloads:
        the acceptance path of `python -m repro batch --workers 4`."""
        requests = [request_for_workload(n) for n in WORKLOAD_NAMES]
        expected = [identities(sequential_answers(r)) for r in requests]
        with DependenceService(ServiceConfig(workers=4,
                                             executor="process")) as svc:
            batch = svc.run_batch(requests)
        assert [identities(a) for a in batch.answers] == expected
        assert batch.telemetry.loops_fallback == 0
        assert batch.telemetry.module_evals > 0

    def test_warm_cache_identical_with_zero_module_evals(self):
        cache_dir = tempfile.mkdtemp(prefix="scaf-cache-")
        request = request_for_workload(WORKLOAD_NAMES[0])

        with DependenceService(ServiceConfig(workers=0, executor="inline",
                                             cache_dir=cache_dir)) as svc:
            cold = svc.run_batch([request])
        assert all(a.status == STATUS_COMPUTED for a in cold.flat())

        with DependenceService(ServiceConfig(workers=0, executor="inline",
                                             cache_dir=cache_dir)) as svc:
            warm = svc.run_batch([request])
        assert identities(warm.flat()) == identities(cold.flat())
        assert all(a.status == STATUS_CACHED for a in warm.flat())
        assert warm.telemetry.module_evals == 0
        assert warm.telemetry.orchestrator_queries == 0
        assert warm.telemetry.loops_computed == 0
        assert warm.telemetry.cache_hit_rate == 1.0

    def test_weighted_no_dep_answers(self):
        request = request_for_workload(WORKLOAD_NAMES[0])
        answers = sequential_answers(request)
        value = weighted_no_dep_answers(answers)
        assert 0.0 < value <= 100.0


# -- incremental re-analysis -------------------------------------------------

#: An uncalled, self-contained helper (touches only its own alloca):
#: editing ``{step}`` changes exactly one function fingerprint and can
#: be inside no hot loop's dependence footprint.
PROBE_FUNC = """
func @__probe(i32 %seed) -> i32 {{
entry:
  %slot = alloca i32
  store i32 %seed, i32* %slot
  %cur = load i32* %slot
  %next = add i32 %cur, {step}
  ret i32 %next
}}
"""

#: Two independently-edited functions, each owning one hot loop, so a
#: single-function edit dirties exactly one loop.
TWO_LOOP_SOURCE = """
global @acc1 : i32 = 0
global @acc2 : i32 = 0

func @work1() -> i32 {{
entry:
  br %loop
loop:
  %i = phi i32 [0, %entry], [%i2, %loop]
  %a = load i32* @acc1
  %a2 = add i32 %a, %i
  store i32 %a2, i32* @acc1
  %i2 = add i32 %i, 1
  %c = icmp slt i32 %i2, 60
  condbr i1 %c, %loop, %exit
exit:
  %r = load i32* @acc1
  ret i32 %r
}}

func @work2() -> i32 {{
entry:
  br %loop
loop:
  %i = phi i32 [0, %entry], [%i2, %loop]
  %a = load i32* @acc2
  %a2 = add i32 %a, {step}
  store i32 %a2, i32* @acc2
  %i2 = add i32 %i, 1
  %c = icmp slt i32 %i2, 60
  condbr i1 %c, %loop, %exit
exit:
  %r = load i32* @acc2
  ret i32 %r
}}

func @main() -> i32 {{
entry:
  %x = call @work1()
  %y = call @work2()
  %s = add i32 %x, %y
  ret i32 %s
}}
"""


#: The smallest program: a training run that finds no hot loop.
NO_HOT_LOOPS_SOURCE = """
func @main() -> i32 {
entry:
  ret i32 0
}
"""


def count_meta_reads(monkeypatch) -> list:
    """The version keys of every ``ResultCache.meta`` call from now
    on, in order."""
    reads = []
    meta = ResultCache.meta

    def counting(cache, version_key):
        reads.append(version_key)
        return meta(cache, version_key)

    monkeypatch.setattr(ResultCache, "meta", counting)
    return reads


def _run_cached(source: str, cache_dir: str, system: str = "scaf"):
    config = ServiceConfig(workers=0, executor="inline",
                           cache_dir=cache_dir)
    with DependenceService(config) as service:
        return service.run_batch(
            [AnalysisRequest("incr", source, system=system)])


class TestIncremental:
    def test_edit_outside_footprint_serves_from_cache(self, tmp_path):
        """The tentpole acceptance path: after editing a function
        outside every loop's footprint, the warm batch re-answers every
        loop from the cache with zero module evaluations."""
        v1 = make_source() + PROBE_FUNC.format(step=1)
        v2 = make_source() + PROBE_FUNC.format(step=2)
        cold = _run_cached(v1, str(tmp_path))
        assert all(a.status == STATUS_COMPUTED for a in cold.flat())
        warm = _run_cached(v2, str(tmp_path))
        assert all(a.status == STATUS_CACHED for a in warm.flat())
        assert warm.telemetry.module_evals == 0
        assert warm.telemetry.loops_incremental == len(warm.flat())
        assert warm.telemetry.incremental_probes == 1
        assert identities(warm.flat()) == identities(cold.flat())

    def test_partial_dirty_recomputes_only_dirty_loop(self, tmp_path):
        """Editing @work2 must recompute @work2's loop and serve
        @work1's loop from its still-valid footprint."""
        cold = _run_cached(TWO_LOOP_SOURCE.format(step=1), str(tmp_path))
        warm = _run_cached(TWO_LOOP_SOURCE.format(step=2), str(tmp_path))
        by_loop = {a.loop: a for a in warm.flat()}
        assert by_loop["@work1:%loop"].status == STATUS_CACHED
        assert by_loop["@work2:%loop"].status == STATUS_COMPUTED
        assert 0 < warm.telemetry.module_evals < cold.telemetry.module_evals
        cold_w1 = next(a for a in cold.flat() if a.loop == "@work1:%loop")
        assert by_loop["@work1:%loop"].identity() == cold_w1.identity()

    def test_dirty_answers_are_reusable_in_turn(self, tmp_path):
        """A batch that mixed cached and recomputed loops re-persists
        the full roster: a third run behind the same edit is a pure
        exact-key hit."""
        _run_cached(TWO_LOOP_SOURCE.format(step=1), str(tmp_path))
        _run_cached(TWO_LOOP_SOURCE.format(step=2), str(tmp_path))
        third = _run_cached(TWO_LOOP_SOURCE.format(step=2), str(tmp_path))
        assert all(a.status == STATUS_CACHED for a in third.flat())
        assert third.telemetry.module_evals == 0
        assert third.telemetry.incremental_probes == 0  # exact hit

    def test_program_without_hot_loops_is_profiled_once(self, tmp_path):
        """An empty roster is a known answer: the first service's lead
        stores it as a meta row with no answer rows, and the next
        services' requests are exact-key hits that send no lead."""
        leads = []
        for _ in range(3):
            batch = _run_cached(NO_HOT_LOOPS_SOURCE, str(tmp_path))
            assert batch.answers == [[]]
            leads.append(batch.telemetry.discovery_tasks)
        assert leads == [1, 0, 0]
        with ResultCache(str(tmp_path)) as cache:
            [key] = cache.keys()
            assert cache.meta(key).run.hot_loops == ()
            assert cache.export_bundle(key)["answers"] == []

    def test_edit_outside_a_loopless_scope_reuses_the_empty_roster(
            self, tmp_path):
        """An empty roster carries over an edit outside the executed
        scope like any other: the edit sends no lead and stores its
        key's meta row, so the same edit again is an exact-key hit."""
        edited = NO_HOT_LOOPS_SOURCE + PROBE_FUNC.format(step=1)
        leads, reuses = [], []
        for source in (NO_HOT_LOOPS_SOURCE, edited, edited):
            batch = _run_cached(source, str(tmp_path))
            assert batch.answers == [[]]
            leads.append(batch.telemetry.discovery_tasks)
            reuses.append(batch.telemetry.profile_reuses)
        assert leads == [1, 0, 0]
        assert reuses == [0, 1, 0]
        with ResultCache(str(tmp_path)) as cache:
            assert len(cache.keys()) == 2

    def test_exact_hit_reads_its_meta_row_once(self, tmp_path,
                                                monkeypatch):
        """``lookup`` hands back the meta row it read, so the scheduler
        does not read it again."""
        source = make_source()
        _run_cached(source, str(tmp_path))
        reads = count_meta_reads(monkeypatch)
        warm = _run_cached(source, str(tmp_path))
        assert all(a.status == STATUS_CACHED for a in warm.flat())
        assert reads == [AnalysisRequest("incr", source,
                                         system="scaf").version_key()]

    def test_cold_miss_reads_its_meta_row_once(self, tmp_path,
                                               monkeypatch):
        """A cold exact-key miss reads the key's (absent) meta row once:
        the scheduler takes what ``lookup`` read."""
        source = make_source()
        reads = count_meta_reads(monkeypatch)
        cold = _run_cached(source, str(tmp_path))
        assert all(a.status == STATUS_COMPUTED for a in cold.flat())
        assert reads == [AnalysisRequest("incr", source,
                                         system="scaf").version_key()]

    def test_meta_row_without_answers_names_the_roster(self, tmp_path,
                                                       monkeypatch):
        """A key whose meta row has no answer rows misses, but the
        training run ``lookup`` read names its roster: no lead, and
        one meta read."""
        request = AnalysisRequest("incr", make_source(), system="scaf")
        [answer] = sequential_answers(request)
        with ResultCache(str(tmp_path)) as cache:
            cache.store(request.version_key(), workload="incr",
                        system="scaf", entry="main", modules=(),
                        run=run_of([answer.loop]), answers=[])
        reads = count_meta_reads(monkeypatch)
        batch = _run_cached(request.source, str(tmp_path))
        assert identities(batch.flat()) == [answer.identity()]
        assert batch.telemetry.discovery_tasks == 0
        assert reads == [request.version_key()]

    def test_restored_rows_copy_their_payload(self, tmp_path,
                                              monkeypatch):
        """A revalidated answer is re-stored under the edit's key by
        copying its row's payload text, which equals the answer encoded
        again with status ``computed``; only the recomputed loop is
        encoded."""
        from repro.service import cache as cache_module
        for step in (1, 2):
            _run_cached(TWO_LOOP_SOURCE.format(step=step), str(tmp_path))
        encoded = []

        def counting(answer):
            encoded.append(answer.loop)
            return loop_answer_to_dict(answer)

        monkeypatch.setattr(cache_module, "loop_answer_to_dict", counting)
        third = _run_cached(TWO_LOOP_SOURCE.format(step=3), str(tmp_path))
        assert {a.loop: a.status for a in third.flat()} == {
            "@work1:%loop": STATUS_CACHED, "@work2:%loop": STATUS_COMPUTED}
        assert encoded == ["@work2:%loop"]
        with ResultCache(str(tmp_path)) as cache:
            rows = cache._conn.execute(
                "SELECT loop_name, payload FROM answers").fetchall()
        assert len(rows) == 6
        for _, payload in rows:
            answer = loop_answer_from_dict(json.loads(payload))
            assert payload == json.dumps(loop_answer_to_dict(
                replace(answer, status=STATUS_COMPUTED)), sort_keys=True)
        work1 = {payload for loop, payload in rows if loop == "@work1:%loop"}
        assert len(work1) == 1   # three keys, one byte-identical row

    def test_stored_digests_recompute_from_the_stored_module(
            self, tmp_path):
        """Every stored digest is the one the key's own module yields:
        answer rows computed by process workers, rows revalidated after
        an edit and re-stored under the edit's key, and each meta
        row's executed-scope digest."""
        def requests(step):
            return [AnalysisRequest("two", TWO_LOOP_SOURCE.format(
                        step=step), system="caf"),
                    AnalysisRequest("probe", make_source()
                                    + PROBE_FUNC.format(step=step),
                                    system="caf")]

        config = ServiceConfig(workers=2, executor="process",
                               cache_dir=str(tmp_path))
        sources = {}
        for step in (1, 2):
            batch = requests(step)
            sources.update((r.version_key(), r.source) for r in batch)
            with DependenceService(config) as service:
                snap = service.run_batch(batch).telemetry
        assert snap.loops_incremental >= 2 and snap.loops_computed == 1

        with ResultCache(str(tmp_path)) as cache:
            keys = cache.keys()
            assert sorted(keys) == sorted(sources)
            for key in keys:
                module = parse_module(sources[key])
                fingerprints = module_content_fingerprints(module)
                header = module_header_fingerprint(module)
                run = cache.meta(key).run
                assert run.scope_digest == loop_footprint_digest(
                    run.executed_functions, fingerprints, header)
                rows = cache.export_bundle(key)["answers"]
                assert len(rows) == len(run.hot_loops)
                for row in rows:
                    assert row["footprint_digest"] == loop_footprint_digest(
                        json.loads(row["footprint"]), fingerprints, header)


# -- scoped footprints: header edits stop invalidating everything ------------

_SCOPED_WORKER = """
func @w{j}() -> i32 {{
entry:
  br %loop
loop:
  %i = phi i32 [0, %entry], [%i2, %loop]
  %a = load i32* @acc{j}
  %a2 = add i32 %a, %i
  store i32 %a2, i32* @acc{j}
  %i2 = add i32 %i, 1
  %c = icmp slt i32 %i2, {iters}
  condbr i1 %c, %loop, %exit
exit:
  %r = load i32* @acc{j}
  ret i32 %r
}}
"""

#: Four sibling hot loops (~25% of profiled time each), every one
#: touching its own global, so a header edit used to dirty all of them.
SCOPED_LOOPS_SOURCE = (
    "{extra}"
    + "".join(f"global @acc{j} : i32 = 0\n" for j in range(4))
    + "".join(_SCOPED_WORKER.replace("{j}", str(j)) for j in range(4))
    + """
func @main() -> i32 {{
entry:
  %x0 = call @w0()
  %x1 = call @w1()
  %x2 = call @w2()
  %x3 = call @w3()
  %s0 = add i32 %x0, %x1
  %s1 = add i32 %s0, %x2
  %s2 = add i32 %s1, %x3
  ret i32 %s2
}}
"""
)


class TestScopedFootprints:
    """Satellite: per-scan footprint tracing.  Whole-module sweeps
    record exactly which header entities they read, so an edit adding
    an *unrelated* global or struct revalidates every cached loop
    instead of recomputing the world."""

    def _batch(self, cache_dir: str, extra: str = ""):
        requests = [
            AnalysisRequest(
                f"scoped{k}",
                SCOPED_LOOPS_SOURCE.format(extra=extra,
                                           iters=60 + 2 * k),
                system="scaf")
            for k in range(4)
        ]
        config = ServiceConfig(workers=0, executor="inline",
                               cache_dir=cache_dir)
        with DependenceService(config) as service:
            return service.run_batch(requests)

    def test_unused_global_edit_reuses_all_sixteen_loops(self, tmp_path):
        cold = self._batch(str(tmp_path))
        assert len(cold.flat()) == 16
        assert all(a.status == STATUS_COMPUTED for a in cold.flat())
        reset_prepared_cache()
        warm = self._batch(str(tmp_path), extra="global @pad : i32 = 7\n")
        assert all(a.status == STATUS_CACHED for a in warm.flat())
        assert warm.telemetry.loops_incremental == 16
        assert warm.telemetry.loop_tasks_dispatched == 0
        assert warm.telemetry.module_evals == 0
        assert identities(warm.flat()) == identities(cold.flat())

    def _single(self, cache_dir: str, source: str):
        config = ServiceConfig(workers=0, executor="inline",
                               cache_dir=cache_dir)
        with DependenceService(config) as service:
            return service.run_batch(
                [AnalysisRequest("scoped", source, system="scaf")])

    def test_unused_global_edit_reuses_profile_roster(self, tmp_path):
        """The executed-scope digest is itself scoped now: a global the
        training run never touched does not perturb it, so the prior
        hot-loop roster is reused with zero re-interpretation."""
        base = SCOPED_LOOPS_SOURCE.format(extra="", iters=60)
        cold = self._single(str(tmp_path), base)
        reset_prepared_cache()
        edited = SCOPED_LOOPS_SOURCE.format(
            extra="global @pad : i32 = 7\n", iters=60)
        warm = self._single(str(tmp_path), edited)
        assert warm.telemetry.profile_reuses == 1
        assert warm.telemetry.module_evals == 0
        assert identities(warm.flat()) == identities(cold.flat())

    def test_touched_global_edit_reprofiles(self, tmp_path):
        """Editing a global the training run *does* read must defeat
        roster reuse — the digest covers every scanned entity."""
        base = SCOPED_LOOPS_SOURCE.format(extra="", iters=60)
        self._single(str(tmp_path), base)
        reset_prepared_cache()
        edited = base.replace("@acc0 : i32 = 0", "@acc0 : i32 = 5")
        dirty = self._single(str(tmp_path), edited)
        assert dirty.telemetry.profile_reuses == 0

    def test_unused_struct_edit_reuses_all_sixteen_loops(self, tmp_path):
        cold = self._batch(str(tmp_path))
        reset_prepared_cache()
        warm = self._batch(str(tmp_path),
                           extra="struct %pad { i32, f64 }\n")
        assert all(a.status == STATUS_CACHED for a in warm.flat())
        assert warm.telemetry.loops_incremental == 16
        assert warm.telemetry.loop_tasks_dispatched == 0
        assert identities(warm.flat()) == identities(cold.flat())

    def test_touched_global_edit_still_invalidates(self, tmp_path):
        """Sanity bound: editing a global a loop *does* read must not
        be revalidated away — only the untouched loops stay cached."""
        self._batch(str(tmp_path))
        reset_prepared_cache()
        requests = [
            AnalysisRequest(
                f"scoped{k}",
                SCOPED_LOOPS_SOURCE.format(
                    extra="", iters=60 + 2 * k).replace(
                        "@acc0 : i32 = 0", "@acc0 : i32 = 5"),
                system="scaf")
            for k in range(4)
        ]
        config = ServiceConfig(workers=0, executor="inline",
                               cache_dir=str(tmp_path))
        with DependenceService(config) as service:
            dirty = service.run_batch(requests)
        by_status = {s: [a.loop for a in dirty.flat() if a.status == s]
                     for s in (STATUS_COMPUTED, STATUS_CACHED)}
        assert all("@w0:" in loop for loop in by_status[STATUS_COMPUTED])
        assert len(by_status[STATUS_COMPUTED]) == 4
        assert len(by_status[STATUS_CACHED]) == 12

    def test_worker_footprints_are_scoped(self):
        from repro.ir import SCOPED_FOOTPRINT_SENTINEL
        request = AnalysisRequest(
            "scoped", SCOPED_LOOPS_SOURCE.format(extra="", iters=60),
            system="scaf")
        roster = run_loop_task(LoopTask(request)).run.hot_loops
        assert roster
        for loop in roster:
            footprint = run_loop_task(LoopTask(request, loop)).footprint
            assert SCOPED_FOOTPRINT_SENTINEL in footprint
            assert any(n.startswith("global:") for n in footprint)

    def test_capture_scan_is_traced(self):
        from repro.modules.memory.common import capture_instructions
        module = parse_module(SCOPED_LOOPS_SOURCE.format(extra="",
                                                         iters=60))
        context = AnalysisContext(module)
        capture_instructions(context, module.globals["acc0"])
        assert ("global", "acc0") in context.scan_trace()
        context.reset_scan_trace()
        assert context.scan_trace() == frozenset()


# -- the contract property ---------------------------------------------------

@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    iters=st.sampled_from((55, 60, 72)),
    rare_store=st.booleans(),
    second_cell=st.booleans(),
    system=st.sampled_from(("caf", "confluence", "scaf",
                            "memory-speculation")),
)
def test_property_batched_equals_sequential(iters, rare_store,
                                            second_cell, system):
    """Service-batched answers are bitwise-identical to sequential
    coordinator.handle answers on a sampled workload."""
    source = make_source(iters=iters, rare_store=rare_store,
                         second_cell=second_cell)
    request = AnalysisRequest("prop", source, system=system)
    expected = identities(sequential_answers(request))

    scheduler = BatchScheduler(workers=0, executor="inline")
    [answers] = scheduler.run_batch([request])
    assert identities(answers) == expected


@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    iters=st.sampled_from((55, 60)),
    rare_store=st.booleans(),
    system=st.sampled_from(("caf", "confluence", "scaf",
                            "memory-speculation")),
)
def test_property_incremental_equals_cold_recompute(iters, rare_store,
                                                    system):
    """Footprint-revalidated answers are bitwise-identical to what a
    cold recompute of the edited module would produce, on every
    system."""
    v2 = (make_source(iters=iters, rare_store=rare_store)
          + PROBE_FUNC.format(step=2))
    expected = identities(sequential_answers(
        AnalysisRequest("incr", v2, system=system)))

    cache_dir = tempfile.mkdtemp(prefix="scaf-incr-")
    v1 = (make_source(iters=iters, rare_store=rare_store)
          + PROBE_FUNC.format(step=1))
    _run_cached(v1, cache_dir, system=system)
    warm = _run_cached(v2, cache_dir, system=system)
    assert all(a.status == STATUS_CACHED for a in warm.flat())
    assert identities(warm.flat()) == expected


class TestTelemetry:
    def test_latency_histogram_percentiles(self):
        hist = LatencyHistogram()
        for ms in (1, 2, 3, 4, 100):
            hist.record(ms / 1000.0)
        assert hist.total == 5
        assert hist.percentile(50) <= hist.percentile(99)
        assert hist.max_s == pytest.approx(0.1)
        assert hist.mean_s == pytest.approx(0.022)

    def test_report_renders(self):
        scheduler = BatchScheduler(workers=0, executor="inline")
        request = AnalysisRequest("t", make_source(), system="caf")
        scheduler.run_batch([request])
        from repro.service import format_report
        report = format_report(scheduler.telemetry.snapshot())
        assert "service telemetry" in report
        assert "hit rate" in report
