"""The live ops plane: rolling windows, flight recorder, event log.

Process-lifetime counters answer "how much, ever"; an operator
watching a resident daemon needs "how much, *lately*".  This module
holds the three pieces ``repro serve`` composes into that view
(DESIGN.md §11):

- :class:`RollingWindow` — time-bucketed counters and latency
  histograms (default 60 one-second buckets).  Rates and
  p50/p95/p99 are computed over only the buckets still inside the
  window, so they reflect recent traffic and decay to zero when the
  daemon goes idle.  The clock is injectable, so tests drive
  eviction deterministically.
- :class:`FlightRecorder` — a bounded ring of recently completed
  query spans plus a separately-bounded slow-query log (threshold
  gated, and every non-``ok`` outcome qualifies).  ``dump()``
  snapshots both; crashes and timeouts auto-dump to a configured
  path (rate-limited) so the evidence survives the incident.
- :class:`JsonLogger` — NDJSON lifecycle events (worker recycle,
  admission sheds, L2 cooldown entry/exit, drain), one object per
  line with both epoch and monotonic timestamps, for log shippers.

:class:`LiveOps` bundles the three behind the single
``observe_task`` hook :class:`~repro.service.engine.WorkEngine`
calls per delivered ticket; a ``None`` attachment keeps the
disabled path at one attribute check per task.

:func:`render_top` turns one daemon ``stats`` reply into the
``repro top`` terminal dashboard — a pure function, so the screen
layout is unit-testable without a tty.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import OrderedDict, deque
from typing import Callable, Dict, List, Mapping, Optional

from .metrics import LatencyHistogram, series_key

__all__ = [
    "FlightRecorder",
    "JsonLogger",
    "LiveOps",
    "RollingWindow",
    "render_top",
]


class _WindowBucket:
    """One time slot's worth of series."""

    __slots__ = ("counters", "histograms")

    def __init__(self):
        self.counters: Dict[str, float] = {}
        self.histograms: Dict[str, LatencyHistogram] = {}


class RollingWindow:
    """Counters and latency histograms over the last ``window_s``.

    Values are written into the bucket the (monotonic) clock says is
    current; reads merge every bucket still inside the window and
    drop the rest.  Buckets are created lazily and evicted on write,
    so an idle window holds no state and costs nothing.
    """

    def __init__(self, window_s: float = 60.0, bucket_s: float = 1.0,
                 clock: Callable[[], float] = time.monotonic):
        if bucket_s <= 0:
            raise ValueError("bucket_s must be positive")
        if window_s < bucket_s:
            raise ValueError("window_s must cover at least one bucket")
        self.window_s = float(window_s)
        self.bucket_s = float(bucket_s)
        self.slots = max(1, int(round(window_s / bucket_s)))
        self._clock = clock
        self._lock = threading.Lock()
        #: slot epoch (int(now / bucket_s)) -> bucket, oldest first.
        self._buckets: "OrderedDict[int, _WindowBucket]" = OrderedDict()
        self._started = clock()

    # -- writes --------------------------------------------------------------

    def _bucket(self, now: float) -> _WindowBucket:
        epoch = int(now // self.bucket_s)
        bucket = self._buckets.get(epoch)
        if bucket is None:
            bucket = self._buckets[epoch] = _WindowBucket()
            floor = epoch - self.slots + 1
            while self._buckets and next(iter(self._buckets)) < floor:
                self._buckets.popitem(last=False)
        return bucket

    def inc(self, name: str, n: float = 1, **labels) -> None:
        key = series_key(name, labels)
        with self._lock:
            counters = self._bucket(self._clock()).counters
            counters[key] = counters.get(key, 0) + n

    def observe(self, name: str, seconds: float, **labels) -> None:
        key = series_key(name, labels)
        with self._lock:
            hists = self._bucket(self._clock()).histograms
            hist = hists.get(key)
            if hist is None:
                hist = hists[key] = LatencyHistogram()
            hist.record(seconds)

    # -- reads ---------------------------------------------------------------

    def _live(self) -> List[_WindowBucket]:
        now = self._clock()
        floor = int(now // self.bucket_s) - self.slots + 1
        return [b for epoch, b in self._buckets.items() if epoch >= floor]

    def covered_s(self) -> float:
        """Seconds the window's rates are averaged over: the full
        window once the process has been up that long, the uptime
        before (so early rates are not diluted by empty history)."""
        elapsed = self._clock() - self._started
        return min(self.window_s, max(self.bucket_s, elapsed))

    def total(self, name: str, **labels) -> float:
        key = series_key(name, labels)
        with self._lock:
            return sum(b.counters.get(key, 0) for b in self._live())

    def rate(self, name: str, **labels) -> float:
        """Events per second over the covered window."""
        return self.total(name, **labels) / self.covered_s()

    def merged(self, name: str, **labels) -> LatencyHistogram:
        key = series_key(name, labels)
        merged = LatencyHistogram()
        with self._lock:
            for bucket in self._live():
                hist = bucket.histograms.get(key)
                if hist is not None:
                    merged.merge_dict(hist.to_dict())
        return merged

    def percentile(self, name: str, p: float, **labels) -> float:
        return self.merged(name, **labels).percentile(p)

    def snapshot(self) -> Dict:
        """A JSON-able view: every live series with windowed totals,
        rates, and histogram summaries."""
        with self._lock:
            live = self._live()
            counters: Dict[str, float] = {}
            hist_keys = set()
            for bucket in live:
                for key, value in bucket.counters.items():
                    counters[key] = counters.get(key, 0) + value
                hist_keys.update(bucket.histograms)
            histograms: Dict[str, LatencyHistogram] = {}
            for key in hist_keys:
                merged = histograms[key] = LatencyHistogram()
                for bucket in live:
                    hist = bucket.histograms.get(key)
                    if hist is not None:
                        merged.merge_dict(hist.to_dict())
        covered = self.covered_s()
        return {
            "window_s": self.window_s,
            "bucket_s": self.bucket_s,
            "covered_s": covered,
            "counters": {key: {"total": total, "rate": total / covered}
                         for key, total in sorted(counters.items())},
            "histograms": {key: hist.summary()
                           for key, hist in sorted(histograms.items())},
        }


class FlightRecorder:
    """Bounded ring of completed query spans + slow-query log.

    ``record`` is called once per delivered loop task; a span whose
    latency crosses ``slow_threshold_s`` — or whose outcome is not
    ``ok`` — is additionally copied into the slow log, which fast
    traffic can never evict.  ``failure``/``timeout`` outcomes
    auto-dump the whole recorder to ``auto_dump_path`` (at most once
    per second) so the surrounding traffic context survives a crash
    the process may not.
    """

    def __init__(self, capacity: int = 256, slow_capacity: int = 64,
                 slow_threshold_s: float = 1.0,
                 auto_dump_path: Optional[str] = None,
                 clock: Callable[[], float] = time.monotonic,
                 epoch_clock: Callable[[], float] = time.time):
        self.capacity = max(1, int(capacity))
        self.slow_threshold_s = slow_threshold_s
        self.auto_dump_path = auto_dump_path
        self._clock = clock
        self._epoch_clock = epoch_clock
        self._lock = threading.Lock()
        self._ring: deque = deque(maxlen=self.capacity)
        self._slow: deque = deque(maxlen=max(1, int(slow_capacity)))
        self._seq = 0
        self._recorded = 0
        self._slow_count = 0
        self._evicted = 0
        self._dumps = 0
        self._last_auto_dump = -1.0

    def record(self, *, workload: str = "", loop: Optional[str] = None,
               client: str = "", outcome: str = "ok",
               latency_s: float = 0.0, queue_wait_s: float = 0.0,
               **extra) -> Dict:
        with self._lock:
            self._seq += 1
            span = {
                "seq": self._seq,
                "t_epoch": self._epoch_clock(),
                "t_mono": self._clock(),
                "workload": workload,
                "loop": loop,
                "client": client,
                "outcome": outcome,
                "latency_s": latency_s,
                "queue_wait_s": queue_wait_s,
            }
            span.update(extra)
            if len(self._ring) == self._ring.maxlen:
                self._evicted += 1
            self._ring.append(span)
            self._recorded += 1
            slow = (outcome != "ok"
                    or latency_s >= self.slow_threshold_s)
            if slow:
                self._slow.append(span)
                self._slow_count += 1
        if outcome in ("failure", "timeout") and self.auto_dump_path:
            self._auto_dump(reason=outcome)
        return span

    def counts(self) -> Dict:
        with self._lock:
            return self._counts()

    def _counts(self) -> Dict:
        # Caller holds self._lock.
        return {
            "capacity": self.capacity,
            "spans": len(self._ring),
            "recorded": self._recorded,
            "evicted": self._evicted,
            "slow": self._slow_count,
            "slow_held": len(self._slow),
            "slow_threshold_s": self.slow_threshold_s,
            "dumps": self._dumps,
        }

    def dump(self, reason: str = "on_demand") -> Dict:
        """Snapshot everything the recorder holds right now."""
        with self._lock:
            self._dumps += 1
            return {
                "reason": reason,
                "captured_at": self._epoch_clock(),
                "counts": self._counts(),
                "spans": list(self._ring),
                "slow": list(self._slow),
            }

    def dump_to_file(self, path: str, reason: str) -> str:
        doc = self.dump(reason=reason)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True, default=str)
            f.write("\n")
        os.replace(tmp, path)
        return path

    def _auto_dump(self, reason: str) -> None:
        now = self._clock()
        with self._lock:
            if (self._last_auto_dump >= 0
                    and now - self._last_auto_dump < 1.0):
                return
            self._last_auto_dump = now
        try:
            self.dump_to_file(self.auto_dump_path, reason=reason)
        except OSError:
            pass  # a full disk must not take the serving path down


class JsonLogger:
    """One NDJSON lifecycle event per line, epoch + monotonic stamped.

    A ``None`` stream makes every call a no-op, so call sites need no
    enabled-checks.  Thread-safe: events from the asyncio front-end,
    the engine dispatcher, and the L2 write-behind thread interleave
    whole-line.
    """

    def __init__(self, stream=None,
                 clock: Callable[[], float] = time.monotonic,
                 epoch_clock: Callable[[], float] = time.time):
        self._stream = stream
        self._clock = clock
        self._epoch_clock = epoch_clock
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self._stream is not None

    def event(self, name: str, **fields) -> None:
        stream = self._stream
        if stream is None:
            return
        doc = {"event": name, "t_epoch": self._epoch_clock(),
               "t_mono": self._clock()}
        doc.update(fields)
        line = json.dumps(doc, sort_keys=True, default=str)
        with self._lock:
            stream.write(line + "\n")
            stream.flush()


class LiveOps:
    """The daemon's live plane: one window + one recorder + one log.

    ``observe_task`` is the engine-side hook (one call per delivered
    ticket, any outcome); ``observe_shed`` and ``observe_job`` are
    the daemon front-end's.  Everything here must stay cheap and
    never raise into the serving path.
    """

    def __init__(self, window_s: float = 60.0, bucket_s: float = 1.0,
                 flight_capacity: int = 256,
                 slow_threshold_s: float = 1.0,
                 auto_dump_path: Optional[str] = None,
                 log: Optional[JsonLogger] = None,
                 clock: Callable[[], float] = time.monotonic,
                 epoch_clock: Callable[[], float] = time.time):
        self.window = RollingWindow(window_s=window_s, bucket_s=bucket_s,
                                    clock=clock)
        self.recorder = FlightRecorder(
            capacity=flight_capacity,
            slow_threshold_s=slow_threshold_s,
            auto_dump_path=auto_dump_path,
            clock=clock, epoch_clock=epoch_clock)
        self.log = log or JsonLogger(None)

    def observe_task(self, *, workload: str = "",
                     loop: Optional[str] = None, client: str = "",
                     outcome: str = "ok", latency_s: float = 0.0,
                     queue_wait_s: float = 0.0) -> None:
        window = self.window
        window.inc("tasks", outcome=outcome)
        window.observe("queue_wait_s", queue_wait_s)
        if outcome == "ok":
            window.observe("task_latency_s", latency_s)
        else:
            self.log.event("task_" + outcome, workload=workload,
                           loop=loop, client=client,
                           latency_s=latency_s)
        self.recorder.record(workload=workload, loop=loop,
                             client=client, outcome=outcome,
                             latency_s=latency_s,
                             queue_wait_s=queue_wait_s)

    def observe_shed(self, kind: str, client: str = "") -> None:
        self.window.inc("sheds", kind=kind)
        self.log.event("admission_shed", kind=kind, client=client)

    def observe_job(self, *, client: str = "", latency_s: float = 0.0,
                    status: str = "done") -> None:
        self.window.inc("jobs", status=status)
        self.window.observe("job_latency_s", latency_s)


# -- `repro top` rendering ---------------------------------------------------

def _pct(value: float) -> str:
    return f"{value:6.1%}"


def _ms(seconds: float) -> str:
    if seconds >= 10.0:
        return f"{seconds:7.1f}s "
    return f"{seconds * 1e3:7.1f}ms"


def _hist_line(label: str, summary: Mapping) -> str:
    return (f"  {label:<14s} p50 {_ms(summary.get('p50_s', 0.0))}  "
            f"p95 {_ms(summary.get('p95_s', 0.0))}  "
            f"p99 {_ms(summary.get('p99_s', 0.0))}  "
            f"max {_ms(summary.get('max_s', 0.0))}  "
            f"(n={int(summary.get('count', 0))})")


def render_top(stats: Mapping) -> str:
    """One ``repro top`` frame from one daemon ``stats`` reply.

    Defensive against older daemons: every section degrades to what
    the reply carries (a v1 daemon without ``window``/``clients``
    still renders the header, queue, and cache lines).
    """
    d = stats.get("daemon", {})
    tel = stats.get("telemetry", {})
    window = stats.get("window", {})
    clients = stats.get("clients", {})
    flight = stats.get("flight", {})

    lines = []
    state = "DRAINING" if d.get("draining") else "serving"
    lines.append(
        f"repro top — {d.get('addr', '?')}  pid {d.get('pid', '?')}  "
        f"protocol {d.get('protocol', '?')}  "
        f"up {d.get('uptime_s', 0.0):.1f}s  [{state}]")
    lines.append(
        f"fleet     {d.get('workers', '?')} workers "
        f"({d.get('executor', '?')})  "
        f"utilization {_pct(tel.get('worker_utilization', 0.0))}  "
        f"{tel.get('fleet_rebuilds', 0)} rebuilds  "
        f"{tel.get('fleet_scale_downs', 0)} scale-downs")
    lines.append(
        f"queue     depth {d.get('queue_depth', 0)}  "
        f"jobs active {d.get('jobs_active', 0)}  "
        f"sessions {d.get('sessions', 0)}  "
        f"completed {d.get('jobs_completed', 0)}  "
        f"shed {d.get('jobs_shed', 0)}")

    hits = tel.get("cache_hits", 0)
    misses = tel.get("cache_misses", 0)
    cache = (f"caches    result {_pct(tel.get('cache_hit_rate', 0.0))} "
             f"({hits}/{hits + misses})  "
             f"prepared {_pct(tel.get('prepared_hit_rate', 0.0))}")
    if (tel.get("l1_hits", 0) or tel.get("l1_misses", 0)
            or tel.get("l2_hits", 0) or tel.get("l2_errors", 0)):
        cache += (f"  L1 {tel.get('l1_hits', 0)}/"
                  f"{tel.get('l1_misses', 0)}  "
                  f"L2 {tel.get('l2_hits', 0)}/"
                  f"{tel.get('l2_misses', 0)} "
                  f"({tel.get('l2_errors', 0)} errors)")
    lines.append(cache)

    if window:
        counters = window.get("counters", {})
        ok_rate = counters.get("tasks{outcome=ok}", {}).get("rate", 0.0)
        bad = sum(doc.get("rate", 0.0)
                  for key, doc in counters.items()
                  if key.startswith("tasks{")
                  and key != "tasks{outcome=ok}")
        shed_rate = sum(doc.get("rate", 0.0)
                        for key, doc in counters.items()
                        if key.startswith("sheds{"))
        lines.append(
            f"window    last {window.get('covered_s', 0.0):.0f}s of "
            f"{window.get('window_s', 0.0):.0f}s  "
            f"tasks {ok_rate:.1f}/s ok, {bad:.1f}/s degraded, "
            f"sheds {shed_rate:.2f}/s")
        hists = window.get("histograms", {})
        for key, label in (("task_latency_s", "task latency"),
                           ("queue_wait_s", "queue wait"),
                           ("job_latency_s", "job latency")):
            if key in hists and hists[key].get("count"):
                lines.append(_hist_line(label, hists[key]))

    if clients:
        lines.append("clients   "
                     f"{'tag':<12s} {'requests':>8s} {'answers':>8s} "
                     f"{'sheds':>6s} {'batches':>8s} {'p95':>10s}")
        for tag in sorted(clients):
            c = clients[tag]
            p95 = c.get("batch_latency", {}).get("p95_s", 0.0)
            lines.append(
                f"          {tag:<12s} {int(c.get('requests', 0)):>8d} "
                f"{int(c.get('answers', 0)):>8d} "
                f"{int(c.get('sheds', 0)):>6d} "
                f"{int(c.get('batches', 0)):>8d} {_ms(p95):>10s}")

    if flight:
        lines.append(
            f"flight    {flight.get('spans', 0)}/"
            f"{flight.get('capacity', 0)} spans held  "
            f"{flight.get('slow', 0)} slow "
            f"(threshold {flight.get('slow_threshold_s', 0.0):.2f}s)  "
            f"{flight.get('evicted', 0)} evicted  "
            f"{flight.get('dumps', 0)} dumps")
    return "\n".join(lines)
