"""The batch scheduler: dedup, probe, enqueue, degrade gracefully.

Batches of :class:`AnalysisRequest` flow through four stages:

1. **Deduplication.**  Requests are grouped by version key; identical
   demand (same IR, entry, system, config) shares one computation no
   matter how many clients asked, and the loop subsets of duplicates
   are unioned.
2. **Cache probe.**  Keys whose every requested loop is already in the
   persistent :class:`ResultCache` are answered without touching the
   worker pool.  On an exact-key miss the probe goes *incremental*:
   if the cache holds rows from the same request lineage (same entry/
   system/config, different IR text), the scheduler parses the edited
   module once and revalidates the lineage's cached answers by
   dependence-footprint digest.  When the edit is fingerprint-provably
   outside everything the workload's prior training run executed,
   that run's hot-loop roster and time fractions carry over with zero
   interpretation and the revalidated answers are served at once;
   otherwise they wait for the key's lead task to report the fresh
   roster.  Either way the key's worker demand narrows to the
   dirtied loops.  The scheduler never profiles a module itself.
3. **Enqueue.**  Remaining keys feed one **global, loop-granular work
   queue** (the resident :class:`~repro.service.engine.WorkEngine`)
   shared across every in-flight request.  Each key contributes one
   :class:`LoopTask` per (version key, loop) — or, when the roster is
   unknown, a single *lead* task that profiles the module, analyzes
   its hottest wanted loop and reports the roster, with the key's
   other loops queued behind it — ordered longest-processing-time-
   first by instruction-weighted profiled time fraction (leads
   first).  Each worker lane pulls the best queued task as it frees
   up, so tiny requests finish while a huge module is still being
   chewed: no per-request barrier, results stream back per loop.
   Loop granularity is affordable because each worker keeps a
   resident LRU of prepared modules (parsed module + context +
   profiles + built analysis system), so K tasks of one module pay
   setup once per worker.  A batch-relative completion latency is
   recorded per original request when its last task lands (the
   tail-latency headline ``request_completion_s``).
4. **Degradation.**  A task that exceeds its deadline or whose worker
   dies is answered with a conservative fallback (every dependence
   kept, %NoDep = 0) for its single loop — for a lead, for the key's
   whole unknown demand — instead of failing the batch; only that
   task's worker lane is rebuilt, so the remaining queue still runs.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..ir import (
    module_content_fingerprints,
    module_header_fingerprint,
    parse_module,
    verify_module,
)
from ..obs.trace import TraceSpec, current_tracer
from .answers import STATUS_FALLBACK, LoopAnswer, fallback_answer
from .cache import CacheEntryMeta, FootprintHit, ResultCache
from .engine import Ticket, WorkEngine, lpt_weight
from .requests import AnalysisRequest, TrainingRun, loop_footprint_digest, \
    system_module_roster
from .telemetry import ServiceTelemetry
from .worker import (
    DEFAULT_PREPARED_CACHE_SIZE,
    LoopTask,
    LoopTaskResult,
    run_loop_task,
)

#: Loop-name placeholder when a lead degraded before the hot-loop
#: roster was known.
UNKNOWN_LOOPS = "*"


class _QueueBatch:
    """One ``run_batch`` call's share of the shared work engine.

    The engine outlives batches and may interleave several at once
    (the daemon's sessions); each batch counts down its own tickets
    and wakes its waiting thread when the last one lands.  All fields
    except the event are mutated only on the engine's dispatcher
    thread.
    """

    __slots__ = ("work", "client", "on_answer", "trace", "trace_parent",
                 "started", "remaining", "submitted", "event", "fatal")

    def __init__(self, work: Dict[str, "_KeyWork"], client: str,
                 on_answer: Optional[Callable], trace: Optional[TraceSpec],
                 trace_parent: Optional[str]):
        self.work = work
        self.client = client
        self.on_answer = on_answer
        #: Worker-side tracing spec (None when tracing is off) and the
        #: ``fan_out`` span every dispatch span nests under.
        self.trace = trace
        self.trace_parent = trace_parent
        self.started = time.perf_counter()
        self.remaining = 0
        self.submitted = 0
        self.event = threading.Event()
        self.fatal: Optional[BaseException] = None


@dataclass
class _KeyWork:
    """Scheduler-internal state for one deduplicated version key."""

    request: AnalysisRequest            # representative request
    loops: Tuple[str, ...]              # () = every hot loop
    #: Original requests deduplicated into this key; completion
    #: latency is recorded once per unit of demand.
    demand: int = 1
    #: The module's training run (roster hottest first, time shares,
    #: provenance); ``None`` means the roster is unknown and a lead
    #: task must profile the module.
    run: Optional[TrainingRun] = None
    #: The training run of the key's own meta row, read by an
    #: exact-key lookup that missed on answer rows; it names the
    #: roster when the incremental probe proves none.
    stored_run: Optional[TrainingRun] = None
    answers: Dict[str, LoopAnswer] = field(default_factory=dict)
    degraded: bool = False
    #: Loop name -> (footprint, its digest in this key's module), from
    #: workers or from revalidated cache rows; stored next to each
    #: answer.
    footprints: Dict[str, Tuple[Tuple[str, ...], str]] = \
        field(default_factory=dict)
    #: Cached answers the incremental probe revalidated, held until
    #: the roster is known (see ``BatchScheduler._serve_clean``).
    clean: Dict[str, FootprintHit] = field(default_factory=dict)
    #: The held answers served as they were read; storing one copies
    #: its row's payload text instead of encoding it again.
    served: Dict[str, FootprintHit] = field(default_factory=dict)
    #: True once a worker result, a revalidated answer or a reused
    #: training run landed: the full roster is then persisted under
    #: this version key.
    refreshed: bool = False
    #: Tasks still in flight or queued for this key.
    outstanding: int = 0
    #: Loop name -> measured steady-state task wall seconds, absorbed
    #: from workers and persisted into the cache's ``durations`` table.
    durations: Dict[str, float] = field(default_factory=dict)


class BatchScheduler:
    """Executes request batches against a worker pool and cache."""

    def __init__(self,
                 workers: int = 4,
                 executor: str = "process",
                 cache: Optional[ResultCache] = None,
                 telemetry: Optional[ServiceTelemetry] = None,
                 task_timeout_s: Optional[float] = None,
                 prepared_cache_size: Optional[int] = None,
                 idle_ttl_s: Optional[float] = None,
                 loop_runner: Callable[[LoopTask], LoopTaskResult]
                 = run_loop_task):
        self.workers = max(0, workers)
        self.cache = cache
        self.telemetry = telemetry or ServiceTelemetry(max(1, self.workers))
        # `is None` check, not an `or`-default: an explicit 0 must be
        # rejected loudly rather than silently become the default.
        if prepared_cache_size is None:
            prepared_cache_size = DEFAULT_PREPARED_CACHE_SIZE
        elif prepared_cache_size < 1:
            raise ValueError("prepared_cache_size must be >= 1, got "
                             f"{prepared_cache_size}")
        self.prepared_cache_size = prepared_cache_size
        #: The resident work engine: the global queue and the worker
        #: lanes live here so they survive from one run_batch to the
        #: next (and, through the daemon, from one client session to
        #: the next).
        self.engine = WorkEngine(
            executor_kind=executor,
            workers=self.workers,
            telemetry=self.telemetry,
            loop_runner=loop_runner,
            task_timeout_s=task_timeout_s,
            idle_ttl_s=idle_ttl_s,
        )

    # -- public API ----------------------------------------------------------

    def run_batch(self, requests: Sequence[AnalysisRequest],
                  client: str = "",
                  on_answer: Optional[Callable] = None
                  ) -> List[List[LoopAnswer]]:
        """Answer every request; the i-th result list matches
        ``requests[i]`` (one LoopAnswer per requested hot loop).

        ``client`` tags this batch's queue tickets so a daemon session
        can be cancelled wholesale; ``on_answer(request, answer)`` is
        invoked per answer a worker delivers, as results stream back
        (the daemon's streaming hook), on the engine's dispatcher
        thread.  Cache hits and revalidated answers do not stream;
        they are only returned."""
        started = time.perf_counter()
        tel = self.telemetry
        tel.count("requests", len(requests))
        tracer = current_tracer()

        with tracer.span("batch", cat="batch",
                         requests=len(requests)) as batch_span:
            with tracer.span("dedup", cat="scheduler"):
                work = self._deduplicate(requests)
            with tracer.span("cache_probe", cat="scheduler"):
                pending = self._probe_cache(work)
            if pending:
                self._fan_out_queue(pending, work, client, on_answer)
            with tracer.span("store_results", cat="scheduler"):
                self._store_results(work)
            batch_span.set(keys=len(work), pending=len(pending))

        tel.count("wall_s", time.perf_counter() - started)
        return [self._answers_for(request, work) for request in requests]

    def close(self) -> None:
        self.engine.close()

    # -- stage 1: dedup ------------------------------------------------------

    def _deduplicate(self, requests: Sequence[AnalysisRequest]
                     ) -> Dict[str, _KeyWork]:
        work: Dict[str, _KeyWork] = {}
        for request in requests:
            key = request.version_key()
            entry = work.get(key)
            if entry is None:
                work[key] = _KeyWork(request=request,
                                     loops=tuple(request.loops))
                continue
            self.telemetry.count("requests_deduplicated")
            entry.demand += 1
            # Union the loop demand; () means "all" and absorbs subsets.
            if entry.loops and request.loops:
                merged = list(entry.loops)
                merged.extend(l for l in request.loops
                              if l not in entry.loops)
                entry.loops = tuple(merged)
            else:
                entry.loops = ()
        return work

    # -- stage 2: cache probe ------------------------------------------------

    def _probe_cache(self, work: Dict[str, _KeyWork]) -> List[str]:
        pending = []
        tracer = current_tracer()
        for key, entry in work.items():
            if self.cache is None:
                pending.append(key)
                continue
            meta, cached = (self.cache.lookup(key, entry.loops)
                            or (None, None))
            if cached is not None:
                self.telemetry.count("cache_hits")
                self.telemetry.count("loops_from_cache", len(cached))
                tracer.event("cache_hit", workload=entry.request.name,
                             loops=len(cached))
                entry.run = meta.run
                entry.answers = {a.loop: a for a in cached}
                continue
            if meta is not None:
                entry.stored_run = meta.run
            if self._probe_incremental(entry):
                self.telemetry.count("cache_hits")
                tracer.event("incremental_hit",
                             workload=entry.request.name)
                continue
            self.telemetry.count("cache_misses")
            tracer.event("cache_miss", workload=entry.request.name)
            pending.append(key)
        return pending

    def _probe_incremental(self, entry: _KeyWork) -> bool:
        """Serve the loops an edit left untouched; narrow the rest.

        Parses the edited module once for its per-function content
        hashes, reuses the workload's prior hot-loop roster when
        provable, and revalidates the lineage's cached rows by
        footprint digest — no interpretation here.  Returns True when
        *every* requested loop was served; otherwise the key stays
        pending, and revalidated rows that still lack a roster wait
        for the key's lead task.
        """
        tel = self.telemetry
        lineage = entry.request.lineage_key()
        if not self.cache.has_lineage(lineage):
            return False
        tel.count("incremental_probes")
        with current_tracer().span("incremental_probe", cat="scheduler",
                                   workload=entry.request.name):
            return self._probe_incremental_inner(entry, lineage)

    def _reuse_roster(self, entry: _KeyWork, prior: CacheEntryMeta,
                      fingerprints: Dict[str, str],
                      header_fingerprint: str) -> bool:
        """Adopt the workload's prior training run when provable.

        The interpreter is deterministic, so the profile is a pure
        function of the executed code: if every entity that
        participated in the prior run (executed definitions, the
        entry, all declarations, the globals and structs they read) is
        byte-identical in the edited module, the new training run
        *would* replay the prior one instruction for instruction.
        Compares the executed-scope digest recomputed from the edited
        module's fingerprints with the stored one; on proof the prior
        training run carries over whole, and is stored under the new
        key even when its roster is empty.
        """
        run = prior.run
        digest = loop_footprint_digest(run.executed_functions,
                                       fingerprints, header_fingerprint)
        if digest is None or digest != run.scope_digest:
            return False  # edit touches the executed scope: a lead profiles
        entry.run = run
        entry.refreshed = True
        self.telemetry.count("profile_reuses")
        current_tracer().event("profile_reuse",
                               workload=entry.request.name)
        return True

    def _probe_incremental_inner(self, entry: _KeyWork,
                                 lineage: str) -> bool:
        request = entry.request
        prior = self.cache.lookup_profile(lineage, request.name)
        if prior is None and not entry.loops:
            return False  # no profiled row of this workload: run cold
        wanted = entry.loops or prior.run.hot_loops
        try:
            module = parse_module(request.source, name=request.name)
            verify_module(module)
        except Exception:
            return False  # unparseable: let the worker report
        fingerprints = module_content_fingerprints(module)
        header_fingerprint = module_header_fingerprint(module)
        if prior is not None:
            self._reuse_roster(entry, prior, fingerprints,
                               header_fingerprint)
        entry.clean = self.cache.lookup_footprints(
            lineage, request.name, wanted, fingerprints,
            header_fingerprint)
        return entry.run is not None and not self._serve_clean(entry)

    def _serve_clean(self, entry: _KeyWork) -> Tuple[str, ...]:
        """Serve the held revalidated answers once the key's roster is
        known, and narrow its demand to the dirty loops.

        Runs when the probe proves the roster and when a lead's roster
        lands.  Returns the wanted hot loops still unanswered.
        """
        tel = self.telemetry
        roster = entry.run.hot_loops
        for name, hit in entry.clean.items():
            if name not in roster:
                continue  # no longer hot
            # The cached answer predates the edit; its dependence facts
            # are revalidated, but the loop's share of profiled time is
            # refreshed from the (possibly reused) training run.
            fraction = entry.run.hot_fractions.get(
                name, hit.answer.time_fraction)
            if fraction == hit.answer.time_fraction:
                entry.answers[name] = hit.answer
                entry.served[name] = hit
            else:
                entry.answers[name] = replace(hit.answer,
                                              time_fraction=fraction)
            entry.footprints[name] = (hit.footprint, hit.digest)
            entry.refreshed = True
            tel.count("loops_incremental")
            tel.count("loops_from_cache")
        entry.clean = {}
        dirty = tuple(n for n in (entry.loops or roster)
                      if n in roster and n not in entry.answers)
        if dirty:
            entry.loops = dirty  # workers recompute only the dirty loops
        return dirty

    # -- completion accounting -----------------------------------------------

    def _finish_key(self, entry: _KeyWork, elapsed_s: float) -> None:
        """A key's last task landed: record one completion latency per
        original (pre-dedup) request so tail percentiles weight demand,
        not keys."""
        # Conservative fallbacks from _degrade_task carry the
        # placeholder 0.0 time share; refresh them from the profiled
        # roster when one landed (delivery and the cache both read
        # these).
        fractions = entry.run.hot_fractions if entry.run else {}
        for name, frac in fractions.items():
            answer = entry.answers.get(name)
            if (answer is not None and frac
                    and answer.time_fraction == 0.0):
                entry.answers[name] = replace(answer, time_fraction=frac)
        for _ in range(max(1, entry.demand)):
            self.telemetry.request_completion.record(elapsed_s)

    # -- stage 3: the global loop-granular work queue ------------------------

    def _known_loops(self, entry: _KeyWork) -> Optional[Tuple[str, ...]]:
        """The loops this key must run, when knowable without a
        worker: the dirty hot loops of a training run from the
        incremental probe or the key's own meta row, or an explicit
        loop subset while no revalidated answer waits for a roster.
        ``None`` sends a lead."""
        if entry.run is None:
            entry.run = entry.stored_run
        if entry.run is not None:
            return self._serve_clean(entry)
        if entry.loops and not entry.clean:
            # Explicit demand: the worker resolves hot-ness per loop
            # against the fresh profile, no lead needed.
            return entry.loops
        return None

    def _loop_ticket(self, batch: _QueueBatch, key: str,
                     loop: Optional[str]) -> Ticket:
        """One queued task.  A lead (``loop is None``) carries weight 0
        and sorts first by kind anyway; it skips the loops whose
        revalidated answers the key holds.  Loop tasks are LPT-ordered
        by instruction-weighted profiled time fraction."""
        entry = batch.work[key]
        run = entry.run
        weight = (0.0 if loop is None or run is None
                  else lpt_weight(run.hot_fractions.get(loop, 0.0),
                                  run.total_instructions))

        def deliver(ticket, outcome, result, error):
            self._queue_deliver(batch, ticket, outcome, result, error)

        task = LoopTask(entry.request, loop, trace=batch.trace,
                        prepared_cache_size=self.prepared_cache_size,
                        skip=tuple(entry.clean))
        return Ticket(task, key=key, weight=weight, deliver=deliver,
                      client=batch.client, trace_parent=batch.trace_parent)

    def _fan_out_queue(self, keys: List[str],
                       work: Dict[str, _KeyWork],
                       client: str = "",
                       on_answer: Optional[Callable] = None) -> None:
        """Feed the batch's tasks to the resident work engine and wait
        for its share of deliveries to complete."""
        tracer = current_tracer()
        trace = (TraceSpec(sample_every=tracer.sample_every)
                 if tracer.enabled else None)
        immediate: List[_KeyWork] = []

        with tracer.span("fan_out", cat="scheduler") as span:
            batch = _QueueBatch(work, client, on_answer, trace,
                                getattr(span, "id", None))
            tickets: List[Ticket] = []
            for key in keys:
                entry = work[key]
                loops = self._known_loops(entry)
                if loops is None:
                    entry.outstanding = 1
                    tickets.append(self._loop_ticket(batch, key, None))
                    continue
                entry.outstanding = len(loops)
                if not loops:
                    immediate.append(entry)
                    continue
                tickets.extend(self._loop_ticket(batch, key, name)
                               for name in loops)

            for entry in immediate:
                self._finish_key(entry, 0.0)
            if tickets:
                batch.remaining = len(tickets)
                batch.submitted = len(tickets)
                self.engine.submit(tickets)
                batch.event.wait()
                if batch.fatal is not None:
                    raise batch.fatal
            span.set(tasks=batch.submitted)

    def _queue_deliver(self, batch: _QueueBatch, ticket: Ticket,
                       outcome: str, result: Optional[LoopTaskResult],
                       error: Optional[BaseException]) -> None:
        """Handle one engine delivery (dispatcher thread)."""
        if outcome == "fatal":
            batch.fatal = error
            batch.event.set()
            return
        entry = batch.work[ticket.key]
        task = ticket.task
        if outcome == "ok":
            self._absorb_task(entry, result)
            if batch.on_answer is not None and result.answer is not None:
                try:
                    batch.on_answer(entry.request, result.answer)
                except Exception:
                    pass  # a broken stream must not sink the batch
            if task.loop is None:
                more = self._enqueue_followers(batch, ticket.key)
                entry.outstanding += more
                batch.remaining += more
                batch.submitted += more
        elif outcome == "timeout":
            self._degrade_task(entry, task, "timeout")
        elif outcome == "cancelled":
            self._degrade_task(entry, task, "cancelled")
        else:  # failure (worker crash or submit failure)
            self._degrade_task(entry, task, "failure")
        entry.outstanding -= 1
        if entry.outstanding <= 0:
            self._finish_key(entry, time.perf_counter() - batch.started)
        batch.remaining -= 1
        if batch.remaining <= 0:
            batch.event.set()

    def _enqueue_followers(self, batch: _QueueBatch, key: str) -> int:
        """A lead reported the roster: serve the held answers, then
        enqueue the wanted hot loops still unanswered."""
        tickets = [self._loop_ticket(batch, key, name)
                   for name in self._serve_clean(batch.work[key])]
        if tickets:
            self.engine.submit(tickets)
        return len(tickets)

    # -- stage 4: collect ----------------------------------------------------

    def _absorb_task(self, entry: _KeyWork,
                     result: LoopTaskResult) -> None:
        tel = self.telemetry
        entry.run = result.run
        entry.refreshed = True
        if result.loop is not None and result.footprint:
            entry.footprints[result.loop] = (result.footprint,
                                             result.footprint_digest)
        answer = result.answer
        if answer is not None:
            entry.answers[answer.loop] = answer
            if answer.status == STATUS_FALLBACK:
                tel.count("loops_fallback")
                entry.degraded = True
            else:
                tel.count("loops_computed")
                tel.query_latency.record(answer.latency_s)
                entry.durations[answer.loop] = (
                    result.analysis_wall_s or answer.latency_s)
        tel.count("prepared_hits" if result.prepared_hit
                  else "prepared_misses")
        tel.count("prepared_evictions", result.prepared_evictions)
        tel.count("module_evals", result.module_evals)
        tel.count("orchestrator_queries", result.orchestrator_queries)
        tel.count("busy_s", result.busy_s)
        tel.count("setup_s", result.setup_s)
        tel.merge_worker_metrics(result.metrics)

    def _degrade_task(self, entry: _KeyWork, task: LoopTask,
                      reason: str) -> None:
        """Conservative fallback for one loop task, or for the key's
        whole unknown demand (held answers included) when its lead
        died."""
        tel = self.telemetry
        if reason == "timeout":
            tel.count("tasks_timed_out")
        elif reason != "cancelled":  # cancels are billed by the engine
            tel.count("tasks_failed")
        if task.loop is not None:
            loops: Tuple[str, ...] = (task.loop,)
        else:
            loops = entry.loops or (UNKNOWN_LOOPS,)
        for name in loops:
            if name not in entry.answers:
                entry.answers[name] = fallback_answer(
                    entry.request.name, entry.request.system, name)
                tel.count("loops_fallback")
        entry.degraded = True

    def _store_results(self, work: Dict[str, _KeyWork]) -> None:
        if self.cache is None:
            return
        for key, entry in work.items():
            # Measured durations persist even for runs whose answers
            # do not (degraded/partial): a timing sample stays valid
            # regardless of what else the run produced.
            if entry.durations:
                try:
                    self.cache.record_durations(
                        key, entry.request.duration_lineage(),
                        entry.durations)
                except Exception:
                    pass  # timing rows are best-effort
            if entry.degraded or entry.run is None:
                continue  # never persist degraded or unknown results
            if not entry.refreshed:
                continue  # pure exact-key hit: nothing new to write
            roster = entry.run.hot_loops
            if not set(roster) <= set(entry.answers):
                continue  # partial roster: a later run completes it
            # Copy a row only while its answer is still the object
            # decoded from it.
            payloads = {name: hit.payload
                        for name, hit in entry.served.items()
                        if entry.answers[name] is hit.answer}
            self.cache.store(
                key,
                workload=entry.request.name,
                system=entry.request.system,
                entry=entry.request.entry,
                modules=system_module_roster(entry.request.system),
                run=entry.run,
                answers=[entry.answers[name] for name in roster],
                lineage_key=entry.request.lineage_key(),
                footprints=entry.footprints,
                payloads=payloads,
            )

    def _answers_for(self, request: AnalysisRequest,
                     work: Dict[str, _KeyWork]) -> List[LoopAnswer]:
        entry = work[request.version_key()]
        roster = (entry.run.hot_loops if entry.run is not None
                  else tuple(entry.answers))
        wanted = request.loops or roster
        return [entry.answers[name] for name in wanted
                if name in entry.answers]
