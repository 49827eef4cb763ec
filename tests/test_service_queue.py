"""Work-queue tests: the loop-granular global work queue, the
worker-resident prepared-module cache, crash recovery, and the
zero-interpretation roster-reuse fast path.

The scheduler plumbing exercised with canned runners (dedup, cache
probe, degradation counters, the task deadline) is covered in
test_service.py, which also checks the queue against the sequential
path on generated programs.  This file pins:

- a worker death mid-queue degrades only the dead task's loop, the
  worker lane is rebuilt, and the rest of the queue completes;
- K loop tasks of one module on one worker pay module setup
  (parse + verify + profile) exactly once;
- prepared-cache hits are not re-billed setup time, and the
  busy/setup split reconciles;
- a provably-execution-preserving edit reuses the prior hot-loop
  roster with zero interpretation, read from the edited workload's
  own profile;
- a lead task profiles its module, analyzes the hottest loop not
  already held and streams that answer, so a module with one hot
  loop costs one task;
- a task reads its loop's footprint before another task of the same
  prepared module can reset the traces it is made of;
- revalidated footprints are reused only within one workload, never
  from another program that shares the lineage;
- the traced queue timeline nests loop tasks under dispatch spans
  with queue-wait and prepared-cache attributes;
- LPT order across modules, with a deterministic ``(module, loop)``
  tie-break.
"""

import threading
from types import SimpleNamespace

import pytest

import repro.service.worker as worker_mod
from repro.obs.stats import trace_document
from repro.obs.trace import NOOP, TraceContext, set_tracer, validate_spans
from repro.service import (
    AnalysisRequest,
    BatchScheduler,
    ResultCache,
    STATUS_CACHED,
    STATUS_COMPUTED,
    STATUS_FALLBACK,
    prepared_cache_keys,
    reset_prepared_cache,
    run_loop_task,
)
from repro.service.engine import Ticket, WorkEngine, lpt_weight
from repro.service.telemetry import ServiceTelemetry
from repro.service.worker import LoopTask


@pytest.fixture(autouse=True)
def _fresh_prepared_cache():
    reset_prepared_cache()
    yield
    reset_prepared_cache()
    set_tracer(NOOP)


@pytest.fixture
def profiler_calls(monkeypatch):
    """Records every ``run_profilers`` call: workers are the only
    place a module is interpreted."""
    calls = []
    real = worker_mod.run_profilers
    monkeypatch.setattr(
        worker_mod, "run_profilers",
        lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


ONE_LOOP_SOURCE = """
global @acc : i32 = 0

func @main() -> i32 {
entry:
  br %loop
loop:
  %i = phi i32 [0, %entry], [%i2, %loop]
  %a = load i32* @acc
  %a2 = add i32 %a, 1
  store i32 %a2, i32* @acc
  %i2 = add i32 %i, 1
  %c = icmp slt i32 %i2, 60
  condbr i1 %c, %loop, %exit
exit:
  %r = load i32* @acc
  ret i32 %r
}
"""


def two_loop_source(step1: int = 1, step2: int = 1,
                    dead_step: int = 1) -> str:
    """Two hot loops in separate functions, plus ``@dead`` which is
    defined but never called — editing it provably preserves the
    training run."""
    return f"""
global @acc1 : i32 = 0
global @acc2 : i32 = 0

func @dead(i32 %x) -> i32 {{
entry:
  %y = add i32 %x, {dead_step}
  ret i32 %y
}}

func @work1() -> i32 {{
entry:
  br %loop
loop:
  %i = phi i32 [0, %entry], [%i2, %loop]
  %a = load i32* @acc1
  %a2 = add i32 %a, {step1}
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
  %a2 = add i32 %a, {step2}
  store i32 %a2, i32* @acc2
  %i2 = add i32 %i, 1
  %c = icmp slt i32 %i2, 80
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


def identities(answer_lists):
    return [[a.identity() for a in answers] for answers in answer_lists]


# -- crash recovery ----------------------------------------------------------

class TestCrashAndRebuild:
    def test_worker_death_mid_queue_degrades_one_loop(self):
        """Kill the worker on one specific loop task: that loop falls
        back conservatively, its lane is rebuilt, and every other task
        in the queue still completes with real answers.  The crash
        hits the follower ``@work1``; the lead analyzed the hotter
        ``@work2``."""
        crashed = []
        lock = threading.Lock()

        def flaky_runner(task):
            if task.loop is not None and task.loop.startswith("@work1"):
                with lock:
                    first = not crashed
                    crashed.append((task.request.name, task.loop))
                if first:
                    raise RuntimeError("simulated worker death")
            return run_loop_task(task)

        scheduler = BatchScheduler(workers=2, executor="thread",
                                   loop_runner=flaky_runner)
        requests = [
            AnalysisRequest("victim", two_loop_source(), system="scaf"),
            AnalysisRequest("bystander", two_loop_source(step1=2),
                            system="caf"),
        ]
        results = scheduler.run_batch(requests)
        scheduler.close()

        assert crashed, "the injected crash never fired"
        # The deterministic (key, loop) tie-break decides which
        # request's @work1 dispatches first — whichever it was, only
        # that one loop degrades.
        hit = 0 if crashed[0][0] == "victim" else 1
        by_loop = {a.loop: a for a in results[hit]}
        assert by_loop["@work1:%loop"].status == STATUS_FALLBACK
        assert by_loop["@work1:%loop"].no_dep_percent == 0.0
        assert by_loop["@work2:%loop"].status == STATUS_COMPUTED
        # The other request rode the same global queue and was
        # untouched by the crash.
        assert all(a.status == STATUS_COMPUTED for a in results[1 - hit])
        snap = scheduler.telemetry.snapshot()
        assert snap.tasks_failed == 1
        assert snap.loops_fallback == 1
        # The crashed worker slot was replaced (a fresh worker drained
        # the remaining queue).
        assert snap.fleet_rebuilds == 1

    def test_discovery_death_degrades_whole_request(self):
        """If the roster was never discovered, the conservative
        fallback covers the request's unknown demand."""
        def dead_runner(task):
            raise RuntimeError("worker never came up")

        scheduler = BatchScheduler(workers=1, executor="thread",
                                   loop_runner=dead_runner)
        [answers] = scheduler.run_batch(
            [AnalysisRequest("doomed", two_loop_source(), system="scaf")])
        scheduler.close()
        assert answers, "degraded request must still answer"
        assert all(a.status == STATUS_FALLBACK for a in answers)


# -- prepared-module cache ---------------------------------------------------

class TestPreparedModuleCache:
    def test_module_setup_paid_once_for_all_loop_tasks(self, monkeypatch):
        """The acceptance criterion: a module split across K loop
        tasks on one worker is parsed / verified / profiled exactly
        once — the lead populates the prepared cache and every
        follower hits it."""
        profiled = []
        real_profilers = worker_mod.run_profilers
        monkeypatch.setattr(
            worker_mod, "run_profilers",
            lambda *a, **k: profiled.append(1) or real_profilers(*a, **k))

        scheduler = BatchScheduler(workers=0, executor="inline")
        [answers] = scheduler.run_batch(
            [AnalysisRequest("once", two_loop_source(), system="scaf")])

        assert len(answers) == 2
        assert all(a.status == STATUS_COMPUTED for a in answers)
        assert len(profiled) == 1, (
            f"module setup ran {len(profiled)} times for "
            f"{len(answers)} loop tasks; expected exactly once")
        snap = scheduler.telemetry.snapshot()
        # The lead misses, then one hit per follower.
        assert snap.prepared_misses == 1
        assert snap.prepared_hits == len(answers) - 1
        assert snap.prepared_hit_rate == pytest.approx(1 / 2)
        assert prepared_cache_keys(), "prepared module should be resident"

    def test_lru_evicts_beyond_capacity(self):
        scheduler = BatchScheduler(workers=0, executor="inline",
                                   prepared_cache_size=1)
        requests = [
            AnalysisRequest(f"m{i}", two_loop_source(step1=i + 1),
                            system="caf")
            for i in range(3)
        ]
        scheduler.run_batch(requests)
        snap = scheduler.telemetry.snapshot()
        assert len(prepared_cache_keys()) == 1
        assert snap.prepared_evictions >= 2

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            BatchScheduler(workers=0, executor="inline",
                           prepared_cache_size=0)


class _InterleavingLock:
    """Stands in for a prepared entry's lock: the first time a task
    leaves it, the real lock is released and ``interleave`` runs before
    the task goes on, as another thread's task could."""

    def __init__(self, real, interleave):
        self.real = real
        self.interleave = interleave

    def __enter__(self):
        self.real.acquire()

    def __exit__(self, *exc):
        self.real.release()
        interleave, self.interleave = self.interleave, None
        if interleave is not None:
            interleave()
        return False


class TestFootprintUnderLock:
    def test_another_task_between_analysis_and_footprint(self):
        """A task of the same module that runs right after the lock is
        released resets the consulted and scan traces; the finished
        task's footprint must still be its loop's own."""
        request = AnalysisRequest("fp", two_loop_source(), system="caf")
        first, other = "@work1:%loop", "@work2:%loop"
        solo = {}
        for loop in (first, other):
            reset_prepared_cache()
            solo[loop] = run_loop_task(LoopTask(request, loop=loop)).footprint
        assert solo[first] != solo[other], (
            "the two loops need different footprints to show a mix-up")

        reset_prepared_cache()
        entry, _, _ = worker_mod._prepared_module(
            request, worker_mod.DEFAULT_PREPARED_CACHE_SIZE)
        entry.lock = _InterleavingLock(
            entry.lock, lambda: run_loop_task(LoopTask(request, loop=other)))
        result = run_loop_task(LoopTask(request, loop=first))
        assert entry.lock.interleave is None, "the stand-in never ran"
        assert result.footprint == solo[first]


# -- utilization accounting --------------------------------------------------

class TestSetupAttribution:
    def test_hits_are_not_rebilled_setup(self):
        """Setup cost is attributed to the task that populated the
        prepared cache; later hits bill zero additional setup, and the
        busy/setup split reconciles (setup is a subset of busy)."""
        scheduler = BatchScheduler(workers=0, executor="inline")
        request = AnalysisRequest("bill", two_loop_source(), system="scaf")
        scheduler.run_batch([request])
        first = scheduler.telemetry.snapshot()
        assert first.setup_s > 0.0
        assert first.busy_s >= first.setup_s

        # Same module again: the prepared cache is warm, so every task
        # hits and NO additional setup may be billed.
        scheduler2 = BatchScheduler(workers=0, executor="inline")
        scheduler2.run_batch([request])
        second = scheduler2.telemetry.snapshot()
        assert second.prepared_misses == 0
        assert second.prepared_hits > 0
        assert second.setup_s == 0.0
        assert second.busy_s > 0.0

    def test_utilization_report_reconciles(self):
        scheduler = BatchScheduler(workers=0, executor="inline")
        scheduler.run_batch(
            [AnalysisRequest("recon", two_loop_source(), system="scaf")])
        snap = scheduler.telemetry.snapshot()
        # Worker busy time is task wall time; it must cover the billed
        # setup and stay within the batch wall clock (inline executor:
        # one lane, no overlap).
        assert 0.0 < snap.setup_s <= snap.busy_s <= snap.wall_s + 1e-6


# -- zero-interpretation roster reuse ----------------------------------------

class TestRosterReuse:
    def _run(self, source, cache, monkeypatch=None, forbid_interp=False,
             name="reuse", loops=()):
        scheduler = BatchScheduler(workers=0, executor="inline",
                                   cache=cache)
        if forbid_interp:
            def _boom(*a, **k):
                raise AssertionError(
                    "run_profilers ran: the module was interpreted "
                    "instead of reusing the prior roster")
            monkeypatch.setattr(worker_mod, "run_profilers", _boom)
        try:
            return (scheduler.run_batch(
                [AnalysisRequest(name, source, system="scaf",
                                 loops=loops)]),
                scheduler.telemetry.snapshot())
        finally:
            if forbid_interp:
                monkeypatch.undo()

    def test_edit_outside_executed_scope_reuses_roster(
            self, tmp_path, monkeypatch):
        """Editing a never-executed function reuses the prior run's
        hot-loop roster and fractions with ZERO interpretation: the
        profiler (``run_profilers``, which only workers call) is
        replaced with a bomb for the warm run, which must still serve
        every loop."""
        cache = ResultCache(str(tmp_path / "cache.sqlite"))
        cold, cold_snap = self._run(two_loop_source(dead_step=1), cache)
        assert all(a.status == STATUS_COMPUTED
                   for answers in cold for a in answers)
        assert cold_snap.profile_reuses == 0
        cold_ids = identities(cold)

        reset_prepared_cache()
        warm, snap = self._run(two_loop_source(dead_step=7), cache,
                               monkeypatch, forbid_interp=True)
        assert [a.status for answers in warm for a in answers] \
            == [STATUS_CACHED, STATUS_CACHED]
        assert snap.profile_reuses == 1
        assert snap.incremental_probes == 1
        assert snap.module_evals == 0
        assert snap.loop_tasks_dispatched == 0
        assert identities(warm) == cold_ids

    @pytest.mark.parametrize("loops", [
        (), ("@work1:%loop", "@work2:%loop")], ids=["all", "explicit"])
    def test_edit_inside_executed_scope_reprofiles(self, tmp_path, loops,
                                                   profiler_calls):
        """Touching an executed function breaks the proof: the module
        is profiled again, once, by the lead that recomputes the dirty
        loop, while the clean loop is served from the cache."""
        cache = ResultCache(str(tmp_path / "cache.sqlite"))
        self._run(two_loop_source(step2=1), cache, loops=loops)
        reset_prepared_cache()
        profiler_calls.clear()
        warm, snap = self._run(two_loop_source(step2=3), cache,
                               loops=loops)
        assert snap.profile_reuses == 0
        assert snap.incremental_probes == 1
        assert len(profiler_calls) == 1
        statuses = {a.loop: a.status for answers in warm for a in answers}
        assert statuses["@work1:%loop"] == STATUS_CACHED
        assert statuses["@work2:%loop"] == STATUS_COMPUTED

    def test_reuse_reads_the_workloads_own_profile(self, tmp_path,
                                                   profiler_calls):
        """The lineage key ignores the workload name, so a different
        module B stored after A is the lineage's newest profile.
        Editing A outside its executed scope must still reuse A's own
        profile, with no interpretation."""
        cache = ResultCache(str(tmp_path / "cache.sqlite"))
        cold, _ = self._run(two_loop_source(dead_step=1), cache, name="a")
        self._run(two_loop_source(step1=5, step2=5), cache, name="b")
        reset_prepared_cache()
        profiler_calls.clear()
        warm, snap = self._run(two_loop_source(dead_step=7), cache,
                               name="a")
        assert snap.profile_reuses == 1
        assert profiler_calls == []
        assert snap.loop_tasks_dispatched == 0
        assert identities(warm) == identities(cold)

    def test_footprints_are_not_reused_across_workloads(self, tmp_path):
        """A lineage is one program's edit history.  Two programs that
        share an identical ``@work2`` share a lineage too, but B's
        ``@work2`` answer must be B's own, never A's row served under
        A's name."""
        loops = ("@work2:%loop",)
        cold_b, _ = self._run(two_loop_source(step1=5), None, name="B",
                              loops=loops)
        reset_prepared_cache()
        cache = ResultCache(str(tmp_path / "cache.sqlite"))
        self._run(two_loop_source(step1=1), cache, name="A")
        reset_prepared_cache()
        [[answer]], snap = self._run(two_loop_source(step1=5), cache,
                                     name="B", loops=loops)
        assert (answer.workload, answer.loop, answer.status) \
            == ("B", "@work2:%loop", STATUS_COMPUTED)
        assert snap.loops_incremental == 0
        assert identities([[answer]]) == identities(cold_b)

    def test_lead_death_degrades_held_answers_too(self, tmp_path):
        """Without a proven roster the revalidated answers wait for the
        lead; a lead that dies degrades the key's whole unknown
        demand, those held answers included."""
        cache = ResultCache(str(tmp_path / "cache.sqlite"))
        self._run(two_loop_source(step2=1), cache)
        reset_prepared_cache()

        def lead_dies(task):
            if task.loop is None:
                raise RuntimeError("simulated worker death")
            return run_loop_task(task)

        scheduler = BatchScheduler(workers=0, executor="inline",
                                   cache=cache, loop_runner=lead_dies)
        [answers] = scheduler.run_batch(
            [AnalysisRequest("reuse", two_loop_source(step2=3),
                             system="scaf")])
        assert [(a.loop, a.status) for a in answers] \
            == [("*", STATUS_FALLBACK)]
        snap = scheduler.telemetry.snapshot()
        assert snap.tasks_failed == 1
        assert snap.loops_incremental == 0


# -- the lead task -----------------------------------------------------------

class TestLeadTask:
    def test_one_hot_loop_costs_one_task(self, profiler_calls):
        """A module with one hot loop is profiled and analyzed by its
        lead alone, and the lead's answer streams to ``on_answer``."""
        streamed = []
        scheduler = BatchScheduler(workers=0, executor="inline")
        [answers] = scheduler.run_batch(
            [AnalysisRequest("one", ONE_LOOP_SOURCE, system="scaf")],
            on_answer=lambda request, answer: streamed.append(
                (request.name, answer.loop)))
        assert [a.status for a in answers] == [STATUS_COMPUTED]
        snap = scheduler.telemetry.snapshot()
        assert snap.loop_tasks_dispatched == 1
        assert snap.discovery_tasks == 1
        assert len(profiler_calls) == 1
        assert streamed == [("one", answers[0].loop)]

    def test_lead_analyzes_hottest_loop_not_skipped(self):
        """A lead picks the hottest hot loop its ``skip`` does not
        name, and with nothing left it reports the roster alone."""
        request = AnalysisRequest("lead", two_loop_source(), system="scaf")
        roster = ("@work2:%loop", "@work1:%loop")   # 80 vs 60 iterations
        first = run_loop_task(LoopTask(request))
        assert first.run.hot_loops == roster
        assert first.loop == roster[0]
        assert first.answer.loop == roster[0]
        assert first.footprint
        second = run_loop_task(LoopTask(request, skip=roster[:1]))
        assert second.loop == second.answer.loop == roster[1]
        bare = run_loop_task(LoopTask(request, skip=roster))
        assert bare.loop is None and bare.answer is None
        assert bare.run.hot_loops == roster


# -- traced queue timeline ---------------------------------------------------

class TestQueueTracing:
    def test_loop_tasks_nest_under_dispatch_with_wait_and_cache_attrs(
            self, tmp_path):
        tracer = TraceContext(sample_every=1)
        set_tracer(tracer)
        try:
            scheduler = BatchScheduler(workers=0, executor="inline")
            scheduler.run_batch([
                AnalysisRequest("t1", two_loop_source(), system="scaf"),
                AnalysisRequest("t2", two_loop_source(step1=2),
                                system="caf"),
            ])
        finally:
            set_tracer(NOOP)
        spans = tracer.export()
        assert validate_spans(spans) == []
        by_id = {s["id"]: s for s in spans}
        dispatches = [s for s in spans if s["cat"] == "dispatch"]
        tasks = [s for s in spans if s["cat"] == "task"]
        assert dispatches and tasks
        for d in dispatches:
            assert d["attrs"]["queue_wait_s"] >= 0.0
            assert "discovery" in d["attrs"]
        for t in tasks:
            assert by_id[t["parent"]]["cat"] == "dispatch"
            assert t["attrs"]["prepared"] in ("hit", "miss")
        # The offline stats document recomputes the cache traffic from
        # the artifact alone.
        import json
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(json.dumps(s) for s in spans) + "\n")
        doc = trace_document(str(path))
        assert doc["valid"]
        cache_doc = doc["prepared_cache"]
        assert cache_doc["hits"] + cache_doc["misses"] == len(tasks)
        assert cache_doc["hits"] >= 1


# -- LPT ordering across modules ---------------------------------------------

class _FakeRequest:
    def __init__(self, name):
        self.name = name
        self.system = "scaf"


class _FakeTask:
    """Just enough surface for the dispatcher (request labels, loop)."""

    def __init__(self, workload, loop):
        self.request = _FakeRequest(workload)
        self.loop = loop


def _execution_order(specs):
    """Enqueue ``(workload, loop, weight)`` tickets in one submit on a
    single-lane engine and return the ``(workload, loop)`` order the
    runner saw them in."""
    order, outcomes = [], []

    def runner(task):
        order.append((task.request.name, task.loop))
        return SimpleNamespace(prepared_hit=False, spans=[])

    engine = WorkEngine("inline", 0, telemetry=ServiceTelemetry(1),
                        loop_runner=runner)
    try:
        engine.submit([
            Ticket(_FakeTask(workload, loop), key=workload, weight=weight,
                   deliver=lambda t, o, r, e: outcomes.append(o))
            for workload, loop, weight in specs])
        assert engine.drain(timeout_s=10.0)
    finally:
        engine.close()
    assert all(o == "ok" for o in outcomes)
    return order


class TestLptOrdering:
    """The cross-module priority fix: LPT ranks by *absolute*
    instruction volume (fraction x module total), not by the raw
    profiled time fraction, which is only comparable within one
    module."""

    def test_lpt_weight_scales_fraction_by_module_size(self):
        tiny = lpt_weight(0.9, 5_000)        # 90% of a toy run
        huge = lpt_weight(0.125, 2_000_000)  # 12.5% of a massive run
        assert huge > tiny
        # No recorded total (pre-v4 cache rows): bare fraction, which
        # reproduces the old within-module ordering.
        assert lpt_weight(0.9, 0) == pytest.approx(0.9)
        assert lpt_weight(0.4, 0) < lpt_weight(0.9, 0)

    def _loop_order(self, specs):
        """Run (workload, loop, fraction, total) specs; loop order."""
        return [loop for _, loop in _execution_order(
            [(workload, loop, lpt_weight(fraction, total))
             for workload, loop, fraction, total in specs])]

    def test_huge_module_loops_run_before_tinier_high_fractions(self):
        specs = [
            ("tiny0", "@t0", 0.9, 5_000),
            ("huge", "@h0", 0.125, 2_000_000),
            ("tiny1", "@t1", 0.9, 5_000),
            ("huge", "@h1", 0.125, 2_000_000),
        ]
        assert self._loop_order(specs) == ["@h0", "@h1", "@t0", "@t1"]

    def test_zero_totals_fall_back_to_fraction_order(self):
        specs = [
            ("a", "@small", 0.2, 0),
            ("b", "@big", 0.8, 0),
            ("c", "@mid", 0.5, 0),
        ]
        assert self._loop_order(specs) == ["@big", "@mid", "@small"]


class TestDeterministicTieBreak:
    def test_equal_weights_break_by_module_then_loop(self):
        """Ties resolve ``(module, loop)`` — a property of the ticket
        *contents*, so it holds under any hash seed and any
        submission order (a sequence-number tie-break would freeze
        whatever order the fan-out loop happened to iterate keys in)."""
        specs = [(m, loop, 7.5)
                 for m in ("zeta", "alpha", "mid")
                 for loop in ("@b:%l", "@a:%l")]
        expected = sorted((m, loop) for m, loop, _ in specs)
        assert _execution_order(specs) == expected
        assert _execution_order(list(reversed(specs))) == expected

    def test_weight_still_dominates_the_tie_break(self):
        specs = [("zzz", "@z:%l", 9.0), ("aaa", "@a:%l", 1.0),
                 ("mmm", "@m:%l", 5.0)]
        assert _execution_order(specs) == [
            ("zzz", "@z:%l"), ("mmm", "@m:%l"), ("aaa", "@a:%l")]
