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
   system/config, different IR text), the scheduler first tries to
   *reuse the prior training run outright* — when the edit is
   fingerprint-provably outside every executed function, the stored
   hot-loop roster and time fractions carry over with zero
   interpretation — and otherwise re-profiles the edited module
   inline; either way it serves every loop whose dependence-footprint
   digest is unchanged, and the key's worker demand narrows to the
   dirtied loops.
3. **Enqueue.**  Remaining keys feed one **global, loop-granular work
   queue** (the resident :class:`~repro.service.engine.WorkEngine`)
   shared across every in-flight request.  Each key contributes one
   :class:`LoopTask` per (version key, loop) — or a single *discovery*
   task when the roster is unknown — ordered longest-processing-time-
   first by instruction-weighted profiled time fraction (discovery
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
   kept, %NoDep = 0) for its single loop instead of failing the
   batch; only that task's worker lane is rebuilt, so the remaining
   queue still runs.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..clients import hot_loops
from ..ir import (
    module_content_fingerprints,
    module_header_fingerprint,
    parse_module,
    verify_module,
)
from ..obs.trace import TraceSpec, current_tracer
from .answers import STATUS_COMPUTED, STATUS_FALLBACK, LoopAnswer, \
    fallback_answer
from .cache import ResultCache
from .engine import Ticket, WorkEngine, lpt_weight
from .requests import AnalysisRequest, loop_footprint_digest, \
    profile_digest, system_module_roster
from .telemetry import ServiceTelemetry
from .worker import (
    DEFAULT_PREPARED_CACHE_SIZE,
    LoopTask,
    LoopTaskResult,
    executed_function_scope,
    prepare_request,
    run_loop_task,
)

#: Loop-name placeholder when a task degraded before the hot-loop
#: roster was discovered.
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
    loops: Tuple[str, ...]              # () = every hot hot loop
    #: Original requests deduplicated into this key; completion
    #: latency is recorded once per unit of demand.
    demand: int = 1
    hot_loops: Tuple[str, ...] = ()     # discovered roster
    #: Loop name -> profiled time fraction (LPT ordering + persistence).
    hot_fractions: Dict[str, float] = field(default_factory=dict)
    #: Total dynamic instructions of the training run; scales the
    #: time fractions into cross-module-comparable LPT weights.
    total_instructions: int = 0
    profile_digest: str = ""
    answers: Dict[str, LoopAnswer] = field(default_factory=dict)
    degraded: bool = False
    #: Per-loop consulted-function footprints (from workers or from
    #: revalidated cache rows), stored next to each answer.
    footprints: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: Content hashes of the request's module, filled by whichever side
    #: parsed it first (incremental probe or worker).
    fingerprints: Dict[str, str] = field(default_factory=dict)
    header_fingerprint: str = ""
    #: Functions whose content could have influenced the training run
    #: (persisted so later probes can prove roster reuse).
    executed_functions: Tuple[str, ...] = ()
    #: True when the incremental probe served at least one loop — the
    #: full roster is then re-persisted under this (new) version key
    #: even if nothing needed recomputing.
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
                 loop_timeout_s: Optional[float] = None,
                 incremental: bool = True,
                 prepared_cache_size: Optional[int] = None,
                 idle_ttl_s: Optional[float] = None,
                 loop_runner: Callable[[LoopTask], LoopTaskResult]
                 = run_loop_task):
        self.workers = max(0, workers)
        self.executor_kind = executor
        self.cache = cache
        self.telemetry = telemetry or ServiceTelemetry(max(1, self.workers))
        self.loop_timeout_s = loop_timeout_s
        # `is None` check, not an `or`-default: an explicit 0 must be
        # rejected loudly rather than silently become the default.
        if prepared_cache_size is None:
            prepared_cache_size = DEFAULT_PREPARED_CACHE_SIZE
        elif prepared_cache_size < 1:
            raise ValueError("prepared_cache_size must be >= 1, got "
                             f"{prepared_cache_size}")
        self.incremental = incremental
        self.prepared_cache_size = prepared_cache_size
        #: The resident work engine: the global queue and the worker
        #: lanes live here so they survive from one run_batch to the
        #: next (and, through the daemon, from one client session to
        #: the next).
        self.engine = WorkEngine(
            executor_kind=self.executor_kind,
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
        invoked per computed loop as results stream back (the daemon's
        streaming hook) on the engine's dispatcher thread."""
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
            self.telemetry.count("shards_deduplicated")
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
            cached = self.cache.lookup(key, entry.loops)
            if cached is not None:
                self.telemetry.count("cache_hits")
                self.telemetry.count("loops_from_cache", len(cached))
                tracer.event("cache_hit", workload=entry.request.name,
                             loops=len(cached))
                meta = self.cache.meta(key)
                entry.hot_loops = meta.hot_loops if meta else ()
                entry.profile_digest = meta.profile_digest if meta else ""
                if meta is not None:
                    entry.hot_fractions = dict(meta.hot_fractions)
                    entry.total_instructions = meta.total_instructions
                entry.answers = {a.loop: a for a in cached}
                continue
            if self.incremental and self._probe_incremental(entry):
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

        Derives the edited module's per-function content hashes,
        obtains a hot-loop roster — by provable reuse of the prior
        training run when possible, by re-profiling inline otherwise
        (interpretation only — no analysis-module evaluations) — and
        revalidates the lineage's cached rows by footprint digest.
        Returns True when *every* requested loop was served; on a
        partial hit the key's loop demand shrinks to the dirty loops
        and the key stays pending.
        """
        tel = self.telemetry
        lineage = entry.request.lineage_key()
        if not self.cache.has_lineage(lineage):
            return False
        tel.count("incremental_probes")
        with current_tracer().span("incremental_probe", cat="scheduler",
                                   workload=entry.request.name):
            return self._probe_incremental_inner(entry, lineage)

    def _reuse_roster(self, entry: _KeyWork, lineage: str
                      ) -> Optional[Tuple[Tuple[str, ...],
                                          Dict[str, float]]]:
        """Reuse a prior training run's hot-loop roster when provable.

        The interpreter is deterministic, so the profile is a pure
        function of the executed code: if every function that
        participated in the prior run (executed definitions, the
        entry, all declarations) plus the module header is
        byte-identical in the edited module, the new training run
        *would* replay the prior one instruction for instruction.
        This only **parses** the edited module — zero interpretation —
        and compares the recomputed executed-scope digest against the
        stored one.  Returns ``(roster, fractions)`` on proof, else
        ``None`` (caller re-profiles).
        """
        if self.cache is None:
            return None
        prior = self.cache.lookup_profile(lineage)
        if prior is None:
            return None
        try:
            module = parse_module(entry.request.source,
                                  name=entry.request.name)
            verify_module(module)
        except Exception:
            return None  # unparseable: let the worker report
        fingerprints = module_content_fingerprints(module)
        header = module_header_fingerprint(module)
        digest = loop_footprint_digest(prior.executed_functions,
                                       fingerprints, header)
        if digest is None or digest != prior.profile_scope_digest:
            return None  # edit touches the executed scope: re-profile
        entry.fingerprints = fingerprints
        entry.header_fingerprint = header
        entry.profile_digest = prior.profile_digest
        entry.executed_functions = prior.executed_functions
        entry.total_instructions = prior.total_instructions
        self.telemetry.count("profile_reuses")
        current_tracer().event("profile_reuse",
                               workload=entry.request.name)
        return prior.hot_loops, {name: float(frac) for name, frac
                                 in prior.hot_fractions.items()}

    def _probe_incremental_inner(self, entry: _KeyWork,
                                 lineage: str) -> bool:
        tel = self.telemetry
        reused = self._reuse_roster(entry, lineage)
        if reused is not None:
            roster, fractions = reused
        else:
            try:
                module, _context, profiles = prepare_request(entry.request)
            except Exception:
                return False  # unrunnable: let the worker report
            hot = hot_loops(profiles)
            if not hot:
                return False
            entry.fingerprints = module_content_fingerprints(module)
            entry.header_fingerprint = module_header_fingerprint(module)
            entry.profile_digest = profile_digest(profiles)
            entry.executed_functions = executed_function_scope(
                module, profiles, entry.request.entry)
            entry.total_instructions = profiles.total_instructions
            roster = tuple(h.name for h in hot)
            fractions = {h.name: h.time_fraction for h in hot}
        entry.hot_fractions = dict(fractions)
        # Even when nothing revalidates, the roster steers the queue
        # (skips the discovery task) and LPT ordering.
        entry.hot_loops = roster
        wanted = tuple(n for n in (entry.loops or roster) if n in fractions)
        hits = self.cache.lookup_footprints(
            lineage, wanted, entry.fingerprints, entry.header_fingerprint)
        if not hits:
            return False
        entry.refreshed = True
        for name, hit in hits.items():
            # The cached answer predates the edit; its dependence facts
            # are revalidated, but the loop's share of profiled time is
            # refreshed from the (possibly reused) training run.
            entry.answers[name] = replace(
                hit.answer, time_fraction=fractions[name])
            entry.footprints[name] = hit.footprint
            tel.count("loops_incremental")
            tel.count("loops_from_cache")
        missing = tuple(n for n in wanted if n not in entry.answers)
        if missing:
            entry.loops = missing  # workers recompute only the dirty loops
            return False
        return True

    # -- completion accounting -----------------------------------------------

    def _finish_key(self, entry: _KeyWork, elapsed_s: float) -> None:
        """A key's last task landed: record one completion latency per
        original (pre-dedup) request so tail percentiles weight demand,
        not keys."""
        # Conservative fallbacks from _degrade_task carry the
        # placeholder 0.0 time share; refresh them from the profiled
        # roster when one landed (delivery and the cache both read
        # these).
        for name, frac in entry.hot_fractions.items():
            answer = entry.answers.get(name)
            if (answer is not None and frac
                    and answer.time_fraction == 0.0):
                entry.answers[name] = replace(answer, time_fraction=frac)
        for _ in range(max(1, entry.demand)):
            self.telemetry.request_completion.record(elapsed_s)

    # -- stage 3: the global loop-granular work queue ------------------------

    def _known_roster(self, key: str, entry: _KeyWork
                      ) -> Optional[Tuple[Tuple[str, ...],
                                          Dict[str, float]]]:
        """The loops this key must run, when knowable without a
        worker: from the incremental probe, a prior meta row, or an
        explicit loop subset.  ``None`` forces a discovery task."""
        if entry.hot_loops:
            return entry.hot_loops, dict(entry.hot_fractions)
        if self.cache is not None:
            meta = self.cache.meta(key)
            if meta is not None and meta.hot_loops:
                entry.hot_fractions = dict(meta.hot_fractions)
                entry.total_instructions = meta.total_instructions
                return meta.hot_loops, dict(meta.hot_fractions)
        if entry.loops:
            # Explicit demand: the worker resolves hot-ness per loop
            # against the fresh profile, no discovery barrier needed.
            return entry.loops, dict(entry.hot_fractions)
        return None

    def _loop_ticket(self, batch: _QueueBatch, key: str,
                     loop: Optional[str], fraction: float) -> Ticket:
        """One queued task: discovery tasks (``loop is None``) carry
        weight 0 and sort first by kind anyway; loop tasks are
        LPT-ordered by instruction-weighted profiled time fraction."""
        entry = batch.work[key]
        weight = (0.0 if loop is None
                  else lpt_weight(fraction, entry.total_instructions))

        def deliver(ticket, outcome, result, error):
            self._queue_deliver(batch, ticket, outcome, result, error)

        task = LoopTask(entry.request, loop, self.loop_timeout_s, fraction,
                        trace=batch.trace,
                        prepared_cache_size=self.prepared_cache_size)
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
                known = self._known_roster(key, entry)
                if known is None:
                    entry.outstanding = 1
                    tickets.append(self._loop_ticket(batch, key, None, 0.0))
                    continue
                roster, fractions = known
                wanted = tuple(entry.loops or roster)
                entry.outstanding = len(wanted)
                if not wanted:
                    immediate.append(entry)
                    continue
                for name in wanted:
                    tickets.append(self._loop_ticket(
                        batch, key, name, fractions.get(name, 0.0)))

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
            if task.loop is None:
                more = self._enqueue_discovered(batch, ticket.key, result)
                entry.outstanding += more
                batch.remaining += more
                batch.submitted += more
            elif (batch.on_answer is not None
                    and result.answer is not None):
                try:
                    batch.on_answer(entry.request, result.answer)
                except Exception:
                    pass  # a broken stream must not sink the batch
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

    def _enqueue_discovered(self, batch: _QueueBatch, key: str,
                            result: LoopTaskResult) -> int:
        """A discovery task reported the roster: enqueue its loops."""
        wanted = batch.work[key].loops or result.hot_loops
        fractions = result.hot_fractions
        tickets = [self._loop_ticket(batch, key, name,
                                     fractions.get(name, 0.0))
                   for name in wanted]
        if tickets:
            self.engine.submit(tickets)
        return len(tickets)

    # -- stage 4: collect ----------------------------------------------------

    def _absorb_task(self, entry: _KeyWork,
                     result: LoopTaskResult) -> None:
        tel = self.telemetry
        entry.hot_loops = result.hot_loops or entry.hot_loops
        if result.hot_fractions:
            entry.hot_fractions = dict(result.hot_fractions)
        if result.total_instructions:
            entry.total_instructions = result.total_instructions
        entry.profile_digest = result.profile_digest or entry.profile_digest
        entry.fingerprints = result.fingerprints or entry.fingerprints
        entry.header_fingerprint = (result.header_fingerprint
                                    or entry.header_fingerprint)
        if result.executed_functions:
            entry.executed_functions = result.executed_functions
        if result.loop is not None and result.footprint:
            entry.footprints[result.loop] = result.footprint
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
        """Conservative fallback for one loop task (or an unknown
        roster, when a discovery task died)."""
        tel = self.telemetry
        if reason == "timeout":
            tel.count("shards_timed_out")
        elif reason != "cancelled":  # cancels are billed by the engine
            tel.count("shards_failed")
        if task.loop is not None:
            loops: Tuple[str, ...] = (task.loop,)
        else:
            loops = entry.loops or entry.hot_loops or (UNKNOWN_LOOPS,)
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
            if entry.degraded or not entry.hot_loops:
                continue  # never persist degraded or unknown results
            computed = [a for a in entry.answers.values()
                        if a.status == STATUS_COMPUTED]
            if not computed and not entry.refreshed:
                continue  # pure exact-key hit: nothing new to write
            if not set(entry.hot_loops) <= set(entry.answers):
                continue  # partial roster: a later run completes it
            scope_digest = ""
            if entry.executed_functions and entry.fingerprints:
                scope_digest = loop_footprint_digest(
                    entry.executed_functions, entry.fingerprints,
                    entry.header_fingerprint) or ""
            self.cache.store(
                key,
                workload=entry.request.name,
                system=entry.request.system,
                entry=entry.request.entry,
                modules=system_module_roster(entry.request.system),
                profile_digest=entry.profile_digest,
                hot_loops=entry.hot_loops,
                answers=[entry.answers[name] for name in entry.hot_loops],
                lineage_key=entry.request.lineage_key(),
                footprints=entry.footprints,
                fingerprints=entry.fingerprints,
                header_fingerprint=entry.header_fingerprint,
                hot_fractions=entry.hot_fractions,
                executed_functions=entry.executed_functions,
                profile_scope_digest=scope_digest,
                total_instructions=entry.total_instructions,
            )

    def _answers_for(self, request: AnalysisRequest,
                     work: Dict[str, _KeyWork]) -> List[LoopAnswer]:
        entry = work[request.version_key()]
        roster = entry.hot_loops or tuple(entry.answers)
        wanted = request.loops or roster
        return [entry.answers[name] for name in wanted
                if name in entry.answers]
