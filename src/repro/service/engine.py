"""The work engine: a scheduler whose lifetime exceeds any batch.

Before the resident daemon existed, the global loop-granular work
queue lived inside :meth:`BatchScheduler.run_batch`: the heap, the
in-flight bookkeeping, and the dispatch loop were all local state of
one synchronous call, so the worker fleet's warm state (the
prepared-module LRU in each worker) could only pay off *within* a
batch.  :class:`WorkEngine` lifts exactly that machinery into an
object with its own lifetime:

- one **priority heap** shared by every in-flight batch (discovery
  tasks first, then longest-processing-time-first by *instruction-
  weighted* profiled time fraction — see :func:`lpt_weight`);
- one **lane per worker** (:class:`_Slot`): a single-worker executor
  holding at most one task at a time, so the number of tasks in
  flight never exceeds ``workers`` and an idle lane always takes the
  best queued ticket;
- one **dispatcher thread** that pops tickets onto idle lanes and
  delivers each outcome (``ok`` / ``failure`` / ``timeout`` /
  ``cancelled``) back to the batch that enqueued it through a
  per-ticket callback.  Every delivery runs on the dispatcher thread,
  so batch bookkeeping (the outstanding-task countdown, discovery
  fan-out) needs no locks;
- **per-lane rebuilds**: a task past ``task_timeout_s`` or whose
  worker died is delivered as ``timeout`` / ``failure`` and only its
  own lane gets a fresh worker; the fleet is torn down after
  ``idle_ttl_s`` of queue silence (the daemon's worker scale-down)
  and lazily rebuilt on the next ticket;
- **cancellation by client tag**: queued tickets of a disconnected
  daemon session are swept out and delivered as ``cancelled`` so the
  batch accounting still completes.  In-flight tasks cannot be
  interrupted (pool workers ignore cancellation); their results are
  delivered normally and the abandoned batch discards them.

Every ticket is delivered exactly once.  ``KeyboardInterrupt`` /
``SystemExit`` raised through the inline executor on the dispatcher
thread are captured as a *fatal* outcome and re-raised in the batch
thread, preserving the ctrl-C semantics of the old synchronous drain.
"""

from __future__ import annotations

import concurrent.futures as cf
import heapq
import itertools
import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from ..interp import compilation_enabled, set_compilation_enabled
from ..obs.trace import current_tracer
from .worker import LoopTask


class _InlineExecutor:
    """A no-concurrency executor for tests and --workers 0 debugging."""

    def submit(self, fn, *args):
        future: cf.Future = cf.Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # mirror pool behaviour for task errors
            future.set_exception(exc)
        # KeyboardInterrupt/SystemExit propagate: turning them into a
        # future exception would swallow a user's ctrl-C as a task
        # degradation.
        return future

    def shutdown(self, wait: bool = True, **kwargs) -> None:
        pass


def _pool_worker_init(compile_enabled: bool) -> None:
    """Adopt the coordinator's interpreter-engine choice in a pool
    worker process.  ``REPRO_NO_COMPILE`` crosses the process boundary
    on its own (children inherit the environment), but a programmatic
    :func:`repro.interp.set_compilation_enabled` override would not —
    this initializer forwards whichever is in force."""
    set_compilation_enabled(compile_enabled)


def _make_executor(kind: str):
    """One lane's single-worker executor."""
    if kind == "inline":
        return _InlineExecutor()
    if kind == "thread":
        return cf.ThreadPoolExecutor(max_workers=1)
    if kind == "process":
        return cf.ProcessPoolExecutor(
            max_workers=1,
            initializer=_pool_worker_init,
            initargs=(compilation_enabled(),))
    raise ValueError(f"unknown executor kind: {kind!r}")


def lpt_weight(fraction: float, total_instructions: int) -> float:
    """The LPT priority of one loop task: the loop's *absolute*
    profiled instruction count.

    Ordering by raw time fraction mis-ranks across modules — a tiny
    module's 90% loop (a few hundred dynamic instructions) would
    outrank a huge module's 12% loops (millions each) even though the
    huge loops dominate the batch's makespan.  Weighting the fraction
    by the module's total profiled instruction count makes priorities
    comparable across modules.  A roster with no recorded total
    (pre-v4 cache rows) falls back to the bare fraction, which
    reproduces the old ordering.
    """
    return fraction * max(1.0, float(total_instructions))


#: Loop-name placeholder when a task degraded before the hot-loop
#: roster was discovered (mirrors scheduler.UNKNOWN_LOOPS).
_UNKNOWN = "*"


class Ticket:
    """One queued loop task plus everything needed to deliver it.

    ``deliver(ticket, outcome, result, error)`` is invoked exactly
    once, on the dispatcher thread, with outcome one of ``ok`` /
    ``failure`` / ``timeout`` / ``cancelled`` / ``fatal``.  ``weight``
    is the task's :func:`lpt_weight` (0 for discovery tasks).
    """

    __slots__ = ("task", "key", "weight", "client", "enqueued_at",
                 "deliver", "trace_parent", "submitted", "span", "order",
                 "slot")

    def __init__(self, task: LoopTask, key: str, weight: float,
                 deliver: Callable, client: str = "",
                 trace_parent: Optional[str] = None,
                 enqueued_at: Optional[float] = None):
        self.task = task
        self.key = key
        self.weight = weight
        self.client = client
        self.deliver = deliver
        self.trace_parent = trace_parent
        self.enqueued_at = (time.perf_counter() if enqueued_at is None
                            else enqueued_at)
        self.submitted = 0.0
        self.span = None
        #: Deterministic equal-weight tie-break: (module key, loop
        #: name).  Both derive from content hashes, so the queue order
        #: is stable across interpreter hash seeds — arrival order and
        #: dict iteration no longer leak into scheduling.
        self.order: Tuple[str, str] = (key, getattr(task, "loop", None)
                                       or "")
        #: Worker lane the dispatcher placed this ticket on (engine
        #: internal, dispatcher-thread only).
        self.slot = None


class _Slot:
    """One worker's dispatch lane.

    Each slot owns a single-worker executor and runs at most one task
    at a time, so a crash or timeout rebuilds exactly the lane that
    held the failed task.
    """

    __slots__ = ("executor", "inflight")

    def __init__(self, executor):
        self.executor = executor
        self.inflight = 0


class WorkEngine:
    """A resident global work queue with a worker fleet of its own.

    One engine is shared by every batch a :class:`BatchScheduler`
    runs — and, through the daemon, by every connected client session.
    """

    def __init__(self, executor_kind: str, workers: int, telemetry,
                 loop_runner: Callable,
                 task_timeout_s: Optional[float] = None,
                 idle_ttl_s: Optional[float] = None):
        self.executor_kind = executor_kind
        self.workers = workers
        self.telemetry = telemetry
        self.task_timeout_s = task_timeout_s
        #: Seconds of queue silence after which the worker fleet is
        #: torn down (and lazily rebuilt on the next ticket).  ``None``
        #: keeps the fleet warm until :meth:`close`.
        self.idle_ttl_s = idle_ttl_s
        self._loop_runner = loop_runner
        self._cond = threading.Condition()
        self._heap: list = []
        self._seq = itertools.count()
        self._inflight: Dict[cf.Future, Ticket] = {}
        self._done: deque = deque()
        self._cancelled_q: deque = deque()
        self._thread: Optional[threading.Thread] = None
        #: Per-worker dispatch lanes, built lazily on the first ticket.
        self._slots: Optional[List[_Slot]] = None
        self._closed = False
        self._fatal: Optional[BaseException] = None
        self._idle_since = time.perf_counter()

    def _nslots(self) -> int:
        if self.executor_kind == "inline" or self.workers <= 0:
            return 1
        return self.workers

    # -- fleet lifetime -------------------------------------------------------

    def recycle(self) -> int:
        """Gracefully replace the worker fleet (the daemon's ``recycle``
        verb): reuses the per-lane rebuild a worker crash triggers,
        minus the crash.  In-flight tasks finish on the old workers;
        everything still queued dispatches onto fresh ones.  Returns
        the number of tasks left in flight on the old fleet."""
        with self._cond:
            if self._closed:
                return 0
            for slot in self._slots or ():
                self._swap_slot(slot)
            self.telemetry.count("fleet_rebuilds")
            return len(self._inflight)

    def _swap_slot(self, slot: _Slot) -> None:
        """Replace one lane's worker (a fresh worker starts with an
        empty prepared cache)."""
        try:
            slot.executor.shutdown(wait=False)
        except Exception:
            pass
        slot.executor = _make_executor(self.executor_kind)

    def _rebuild_slot(self, slot: _Slot) -> None:
        self._swap_slot(slot)
        self.telemetry.count("fleet_rebuilds")

    def _ensure_slots(self) -> List[_Slot]:
        if self._slots is None:
            self._slots = [_Slot(_make_executor(self.executor_kind))
                           for _ in range(self._nslots())]
        return self._slots

    # -- queue API ------------------------------------------------------------

    def submit(self, tickets: List[Ticket]) -> None:
        """Enqueue tickets; each is delivered exactly once, later, on
        the dispatcher thread."""
        with self._cond:
            if self._closed:
                raise RuntimeError("WorkEngine is closed")
            for t in tickets:
                kind = 0 if t.task.loop is None else 1
                heapq.heappush(
                    self._heap,
                    (kind, -t.weight, t.order, next(self._seq), t))
            if tickets:
                self._ensure_dispatcher()
            self._cond.notify_all()

    def depth(self) -> int:
        """Queued plus in-flight tickets (the admission-control gauge)."""
        with self._cond:
            return (len(self._heap) + len(self._inflight)
                    + len(self._cancelled_q))

    def cancel_client(self, client_prefix: str) -> int:
        """Sweep queued tickets whose client tag starts with
        ``client_prefix``.  Each is delivered as ``cancelled`` — on
        the dispatcher thread, like every other outcome, so batch
        bookkeeping stays single-threaded."""
        if not client_prefix:
            return 0
        with self._cond:
            kept, cancelled = [], []
            for item in self._heap:
                ticket = item[-1]
                if ticket.client.startswith(client_prefix):
                    cancelled.append(ticket)
                else:
                    kept.append(item)
            if cancelled:
                self._heap = kept
                heapq.heapify(self._heap)
                self._cancelled_q.extend(cancelled)
                self._ensure_dispatcher()
            self._cond.notify_all()
        return len(cancelled)

    def drain(self, timeout_s: Optional[float] = None) -> bool:
        """Block until nothing is queued or in flight."""
        deadline = (None if timeout_s is None
                    else time.perf_counter() + timeout_s)
        while True:
            with self._cond:
                if (not self._heap and not self._inflight
                        and not self._cancelled_q and not self._done):
                    return True
                wait = 0.05
                if deadline is not None:
                    wait = min(wait, deadline - time.perf_counter())
                    if wait <= 0:
                        return False
            time.sleep(wait)

    def close(self) -> None:
        """Stop the dispatcher, cancel everything still queued or in
        flight, shut the fleet down.  Idempotent."""
        with self._cond:
            already = self._closed
            self._closed = True
            thread = self._thread
            self._cond.notify_all()
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=2.0)
        # The dispatcher is gone: nobody else can deliver now.
        with self._cond:
            pending: List[Ticket] = [] if already else (
                [item[-1] for item in self._heap]
                + list(self._cancelled_q)
                + list(self._inflight.values()))
            self._heap = []
            self._cancelled_q.clear()
            self._inflight.clear()
            self._done.clear()
            slots, self._slots = self._slots or [], None
        for ticket in pending:
            self.telemetry.count("tasks_cancelled")
            try:
                ticket.deliver(ticket, "cancelled", None, None)
            except Exception:
                pass
        for slot in slots:
            try:
                slot.executor.shutdown(wait=False)
            except Exception:
                pass

    # -- dispatcher -----------------------------------------------------------

    def _ensure_dispatcher(self) -> None:
        # Caller holds self._cond.  The thread clears self._thread
        # (under the lock) before exiting, so a non-None live thread
        # is guaranteed to observe whatever was just enqueued.
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=self._dispatch_loop, name="repro-work-engine",
                daemon=True)
            self._thread.start()

    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                if self._fatal is not None or self._closed:
                    self._thread = None
                    return
                now = time.perf_counter()
                completed = []
                while self._done:
                    future = self._done.popleft()
                    ticket = self._inflight.pop(future, None)
                    if ticket is not None:
                        completed.append((future, ticket))
                cancelled = []
                while self._cancelled_q:
                    cancelled.append(self._cancelled_q.popleft())
                expired = []
                if self.task_timeout_s is not None:
                    for future, ticket in list(self._inflight.items()):
                        if now - ticket.submitted >= self.task_timeout_s:
                            del self._inflight[future]
                            future.cancel()
                            expired.append(ticket)
                to_dispatch: List[Ticket] = []
                if self._heap:
                    for slot in self._ensure_slots():
                        if not self._heap:
                            break
                        if slot.inflight > 0:
                            # One task per lane at a time: the pop
                            # happens as late as possible, so an idle
                            # lane always takes the best queued work.
                            continue
                        ticket = heapq.heappop(self._heap)[-1]
                        ticket.slot = slot
                        slot.inflight += 1
                        to_dispatch.append(ticket)
                if not (completed or cancelled or expired or to_dispatch):
                    if self._inflight:
                        wait = 0.05
                        if self.task_timeout_s is not None:
                            wait = min(wait, max(0.0, min(
                                t.submitted + self.task_timeout_s - now
                                for t in self._inflight.values())))
                        self._cond.wait(wait if wait > 0 else 0.001)
                        continue
                    # Fully idle: either park until the idle TTL tears
                    # the fleet down, or exit now (the thread restarts
                    # on the next submit; the lanes stay warm).
                    if (self.idle_ttl_s is not None
                            and self._slots is not None):
                        remaining = (self._idle_since + self.idle_ttl_s
                                     - now)
                        if remaining > 0:
                            self._cond.wait(remaining)
                            if (self._heap or self._done
                                    or self._cancelled_q or self._closed):
                                continue
                            if (time.perf_counter() - self._idle_since
                                    < self.idle_ttl_s):
                                continue
                        for slot in self._slots:
                            try:
                                slot.executor.shutdown(wait=False)
                            except Exception:
                                pass
                        self._slots = None
                        self.telemetry.count("fleet_scale_downs")
                    self._thread = None
                    return
                self._idle_since = now
            # Deliveries happen outside the lock: deliver callbacks may
            # re-enter submit() (discovery fan-out) or run batch logic.
            for ticket in cancelled:
                self.telemetry.count("tasks_cancelled")
                self._observe(ticket, "cancelled", 0.0)
                ticket.deliver(ticket, "cancelled", None, None)
            for ticket in expired:
                self._finish_expired(ticket)
            for ticket in to_dispatch:
                if not self._dispatch(ticket):
                    break  # fatal: stop dispatching this round
            for future, ticket in completed:
                self._finish(future, ticket)

    def _release(self, ticket: Ticket) -> None:
        ticket.slot.inflight -= 1
        ticket.slot = None

    def _dispatch(self, ticket: Ticket) -> bool:
        tel = self.telemetry
        tracer = current_tracer()
        task = ticket.task
        tel.count("loop_tasks_dispatched")
        if task.loop is None:
            tel.count("discovery_tasks")
        tel.enqueue()
        ticket.submitted = time.perf_counter()
        wait_s = ticket.submitted - ticket.enqueued_at
        tel.queue_wait.record(wait_s)
        span = tracer.begin("dispatch", cat="dispatch",
                            parent=ticket.trace_parent,
                            workload=task.request.name,
                            system=task.request.system,
                            loop=task.loop or _UNKNOWN,
                            discovery=task.loop is None,
                            queue_wait_s=wait_s)
        ticket.span = span
        try:
            future = ticket.slot.executor.submit(self._loop_runner, task)
        except Exception:
            tel.dequeue()
            span.end(status="submit_failure")
            self._release(ticket)
            self._observe(ticket, "failure", 0.0)
            ticket.deliver(ticket, "failure", None, None)
            return True
        except BaseException as exc:
            # KeyboardInterrupt/SystemExit through the inline executor:
            # poison every waiting batch and stop the dispatcher so the
            # interrupt surfaces in the batch thread.
            tel.dequeue()
            span.end(status="interrupted")
            self._poison(exc, ticket)
            return False
        with self._cond:
            self._inflight[future] = ticket

        def _on_done(fut, _self=self):
            with _self._cond:
                _self._done.append(fut)
                _self._cond.notify_all()

        future.add_done_callback(_on_done)
        return True

    def _finish(self, future: cf.Future, ticket: Ticket) -> None:
        tel = self.telemetry
        tracer = current_tracer()
        tel.dequeue()
        try:
            result = future.result()
        except Exception:
            # Worker crash: only this task degrades; the crashed lane
            # gets a fresh worker so the rest of the queue still runs.
            ticket.span.end(status="worker_crash")
            with self._cond:
                self._rebuild_slot(ticket.slot)
            self._release(ticket)
            self._observe(ticket, "failure",
                          time.perf_counter() - ticket.submitted)
            ticket.deliver(ticket, "failure", None, None)
            return
        ticket.span.end(status="completed",
                        prepared="hit" if result.prepared_hit
                        else "miss")
        self._release(ticket)
        tracer.adopt(result.spans,
                     parent_id=getattr(ticket.span, "id", None))
        latency = time.perf_counter() - ticket.submitted
        tel.request_latency.record(latency)
        self._observe(ticket, "ok", latency)
        ticket.deliver(ticket, "ok", result, None)

    def _finish_expired(self, ticket: Ticket) -> None:
        self.telemetry.dequeue()
        ticket.span.end(status="timeout")
        # The worker may still be chewing the abandoned task; replace
        # it so the lane's next ticket starts clean rather than
        # queueing behind a zombie.
        with self._cond:
            self._rebuild_slot(ticket.slot)
        self._release(ticket)
        self._observe(ticket, "timeout",
                      time.perf_counter() - ticket.submitted)
        ticket.deliver(ticket, "timeout", None, None)

    def _observe(self, ticket: Ticket, outcome: str,
                 latency_s: float) -> None:
        """Feed one delivered outcome to the live ops plane, when one
        is attached (the daemon's window + flight recorder).  The
        disabled path is this single attribute check."""
        live = getattr(self.telemetry, "live", None)
        if live is None:
            return
        task = ticket.task
        submitted = ticket.submitted or time.perf_counter()
        try:
            live.observe_task(
                workload=task.request.name,
                loop=task.loop,
                client=ticket.client,
                outcome=outcome,
                latency_s=latency_s,
                queue_wait_s=max(0.0, submitted - ticket.enqueued_at))
        except Exception:
            pass  # observability must never take down the dispatcher

    def _poison(self, exc: BaseException, first: Ticket) -> None:
        with self._cond:
            self._fatal = exc
            pending = [item[-1] for item in self._heap]
            self._heap = []
            pending.extend(self._cancelled_q)
            self._cancelled_q.clear()
            pending.extend(self._inflight.values())
            self._inflight.clear()
            self._cond.notify_all()
        first.deliver(first, "fatal", None, exc)
        for ticket in pending:
            ticket.deliver(ticket, "fatal", None, exc)
