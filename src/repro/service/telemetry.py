"""Service telemetry: a MetricsRegistry view with a printable report.

Everything the batch scheduler observes funnels into one
:class:`ServiceTelemetry`, which keeps it as named series in a
:class:`repro.obs.metrics.MetricsRegistry`; worker processes ship
their *labeled* series (per-module evaluation counts, per-workload
loop latencies) back as registry snapshots that merge in.

:class:`TelemetrySnapshot` is the one declaration of the unlabeled
service series: each counter field names a registry counter, and
:class:`ServiceTelemetry` materializes exactly those, so adding a
counter takes one new field.  ``telemetry.count("requests")`` writes
a series; :meth:`ServiceTelemetry.snapshot` reads them all into the
immutable snapshot that the printable report of ``python -m repro
batch`` renders and :meth:`TelemetrySnapshot.to_dict` turns into the
JSON document of ``batch --json`` and the daemon's ``stats``.  The
snapshot also carries the full registry dump (``metrics``) so
labeled series reach JSON consumers.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Dict, Mapping, Optional

from ..obs.metrics import LatencyHistogram, MetricsRegistry

__all__ = [
    "LatencyHistogram",
    "ServiceTelemetry",
    "TelemetrySnapshot",
    "format_report",
]

#: Field metadata marking a snapshot field that is not an unlabeled
#: registry counter of the same name.
_NOT_A_COUNTER = {"counter": False}


@dataclass(frozen=True)
class TelemetrySnapshot:
    """Immutable view of one service run's observability counters.

    Every field without ``_NOT_A_COUNTER`` metadata is the value of
    the unlabeled registry counter of the same name.
    """

    requests: int = 0
    #: Requests whose version key was already demanded in the batch.
    requests_deduplicated: int = 0
    #: Loop tasks whose worker died.
    tasks_failed: int = 0
    #: Loop tasks that overran ``task_timeout_s``.
    tasks_timed_out: int = 0
    loop_tasks_dispatched: int = 0
    #: Lead tasks: sent when a key's hot-loop roster is unknown, each
    #: profiles the module, analyzes a loop and reports the roster.
    discovery_tasks: int = 0
    loops_computed: int = 0
    loops_from_cache: int = 0
    loops_incremental: int = 0
    loops_fallback: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    incremental_probes: int = 0
    profile_reuses: int = 0
    prepared_hits: int = 0
    prepared_misses: int = 0
    prepared_evictions: int = 0
    module_evals: int = 0
    orchestrator_queries: int = 0
    wall_s: float = 0.0
    busy_s: float = 0.0
    #: Parse+verify+profile+build seconds actually paid (each
    #: prepared-module entry bills setup exactly once, to the task
    #: that populated it — never re-billed on hits).
    setup_s: float = 0.0
    #: Queued tasks swept when their client went away (daemon
    #: disconnect/cancel) or the engine closed mid-queue.
    tasks_cancelled: int = 0
    #: Worker-lane rebuilds after a crash or timeout, plus ``recycle``
    #: fleet replacements.
    fleet_rebuilds: int = 0
    #: Idle-TTL worker-fleet teardowns (the daemon's scale-down).
    fleet_scale_downs: int = 0
    #: Tiered result cache: local sqlite (L1) exact-lookup traffic.
    l1_hits: int = 0
    l1_misses: int = 0
    #: Single retries after sqlite lock contention (multi-process L1).
    l1_lock_retries: int = 0
    #: Remote tier (L2): read-through hits/misses, write-behind
    #: publishes, queue-overflow sheds, degraded-drop counts, and
    #: typed failures (per-type series live in ``metrics``).
    l2_hits: int = 0
    l2_misses: int = 0
    l2_writes: int = 0
    l2_writes_shed: int = 0
    l2_writes_dropped: int = 0
    l2_errors: int = 0
    workers: int = field(default=0, metadata=_NOT_A_COUNTER)
    #: High-water mark of the ``tasks_inflight`` gauge (at most the
    #: number of worker lanes).
    max_tasks_inflight: int = field(default=0, metadata=_NOT_A_COUNTER)
    #: Histogram summaries: dispatch-to-result seconds per loop task,
    #: per-loop analysis seconds, and seconds a queued task waited
    #: before dispatch.
    task_latency: Dict[str, float] = field(default_factory=dict,
                                           metadata=_NOT_A_COUNTER)
    query_latency: Dict[str, float] = field(default_factory=dict,
                                            metadata=_NOT_A_COUNTER)
    queue_wait: Dict[str, float] = field(default_factory=dict,
                                         metadata=_NOT_A_COUNTER)
    #: Batch-relative completion latency per original request (the
    #: tail-latency headline: recorded once per deduplicated demand
    #: when a request's last task lands).
    request_completion: Dict[str, float] = field(default_factory=dict,
                                                 metadata=_NOT_A_COUNTER)
    #: Full registry dump: every labeled series (per-module evals,
    #: per-workload latencies) with raw histogram buckets.
    metrics: Dict = field(default_factory=dict, metadata=_NOT_A_COUNTER)

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def prepared_hit_rate(self) -> float:
        """Fraction of loop tasks served from a worker's prepared-
        module cache (module setup already paid)."""
        total = self.prepared_hits + self.prepared_misses
        return self.prepared_hits / total if total else 0.0

    @property
    def worker_utilization(self) -> float:
        """Busy worker-seconds over available worker-seconds."""
        available = self.workers * self.wall_s
        return min(1.0, self.busy_s / available) if available else 0.0

    def to_dict(self) -> Dict:
        """The JSON document of ``batch --json`` and the daemon's
        ``stats``: every field plus the three derived rates."""
        doc = asdict(self)
        doc["cache_hit_rate"] = self.cache_hit_rate
        doc["prepared_hit_rate"] = self.prepared_hit_rate
        doc["worker_utilization"] = self.worker_utilization
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping) -> "TelemetrySnapshot":
        """Inverse of :meth:`to_dict`; the derived rates and any key
        that is not a field are ignored."""
        return cls(**{f.name: doc[f.name] for f in fields(cls)
                      if f.name in doc})


#: The unlabeled service counters, in declaration order.
COUNTER_FIELDS = tuple(f.name for f in fields(TelemetrySnapshot)
                 if f.metadata.get("counter", True))


class ServiceTelemetry:
    """Mutable accumulator: named series in a MetricsRegistry."""

    def __init__(self, workers: int,
                 registry: Optional[MetricsRegistry] = None):
        self.registry = registry or MetricsRegistry()
        self.workers = workers
        self.task_latency = self.registry.histogram("task_latency_s")
        self.query_latency = self.registry.histogram("loop_latency_s")
        self.queue_wait = self.registry.histogram("queue_wait_s")
        self.request_completion = \
            self.registry.histogram("request_completion_s")
        self._inflight = self.registry.gauge("tasks_inflight")
        #: Optional live ops plane (:class:`repro.obs.live.LiveOps`).
        #: ``None`` outside the daemon; the engine guards every
        #: observe call on it so batch mode pays one attribute read.
        self.live = None
        # Materialize every counter so snapshots see zeros (not
        # missing series) on an idle service.
        self._counters = {name: self.registry.counter(name)
                          for name in COUNTER_FIELDS}

    def count(self, counter: str, n=1) -> None:
        self._counters[counter].inc(n)

    def task_started(self) -> None:
        """A loop task went onto a worker lane."""
        self._inflight.inc()

    def task_finished(self) -> None:
        """A loop task left its lane (result, crash, or timeout)."""
        self._inflight.dec()

    def attach_live(self, live) -> None:
        """Install a :class:`repro.obs.live.LiveOps` plane; every
        engine-delivered task outcome flows into its window and
        flight recorder from then on."""
        self.live = live

    def merge_worker_metrics(self, snapshot: Dict) -> None:
        """Fold a worker registry snapshot (labeled series) in."""
        if snapshot:
            self.registry.merge(snapshot)

    def snapshot(self) -> TelemetrySnapshot:
        metrics = self.registry.snapshot()
        counters = metrics["counters"]
        return TelemetrySnapshot(
            workers=self.workers,
            max_tasks_inflight=metrics["gauges"]["tasks_inflight"]["max"],
            task_latency=self.task_latency.summary(),
            query_latency=self.query_latency.summary(),
            queue_wait=self.queue_wait.summary(),
            request_completion=self.request_completion.summary(),
            metrics=metrics,
            **{name: counters[name] for name in COUNTER_FIELDS})


def format_report(snap: TelemetrySnapshot) -> str:
    """The printable telemetry block of ``python -m repro batch``."""
    def _lat(name: str, s: Dict[str, float]) -> str:
        return (f"  {name:<16s} n={int(s['count']):<5d} "
                f"mean={s['mean_s'] * 1e3:8.2f}ms "
                f"p50={s['p50_s'] * 1e3:8.2f}ms "
                f"p90={s['p90_s'] * 1e3:8.2f}ms "
                f"p99={s['p99_s'] * 1e3:8.2f}ms "
                f"max={s['max_s'] * 1e3:8.2f}ms")

    lines = [
        "service telemetry",
        "-----------------",
        f"  requests         {snap.requests} "
        f"({snap.loop_tasks_dispatched} loop tasks dispatched "
        f"({snap.discovery_tasks} discovery), "
        f"{snap.requests_deduplicated} deduplicated in-flight)",
        f"  loops            {snap.loops_computed} computed, "
        f"{snap.loops_from_cache} from cache "
        f"({snap.loops_incremental} via footprint revalidation), "
        f"{snap.loops_fallback} conservative fallback",
        f"  result cache     {snap.cache_hits} hits / "
        f"{snap.cache_misses} misses "
        f"(hit rate {snap.cache_hit_rate:.1%}, "
        f"{snap.incremental_probes} incremental probes, "
        f"{snap.profile_reuses} profile-roster reuses)",
        f"  prepared modules {snap.prepared_hits} hits / "
        f"{snap.prepared_misses} misses "
        f"(hit rate {snap.prepared_hit_rate:.1%}, "
        f"{snap.prepared_evictions} evictions, "
        f"setup {snap.setup_s:.2f}s billed once)",
        f"  robustness       {snap.tasks_timed_out} task timeouts, "
        f"{snap.tasks_failed} worker failures",
        f"  orchestrators    {snap.orchestrator_queries} queries, "
        f"{snap.module_evals} module evaluations",
        f"  workers          {snap.workers} "
        f"(utilization {snap.worker_utilization:.1%}, "
        f"busy {snap.busy_s:.2f}s of {snap.wall_s:.2f}s wall)",
        f"  tasks            in flight max {snap.max_tasks_inflight}",
        _lat("task latency", snap.task_latency),
        _lat("loop latency", snap.query_latency),
    ]
    if snap.queue_wait.get("count"):
        lines.append(_lat("queue wait", snap.queue_wait))
    if snap.request_completion.get("count"):
        lines.append(_lat("req completion", snap.request_completion))
    if snap.tasks_cancelled or snap.fleet_rebuilds \
            or snap.fleet_scale_downs:
        lines.append(
            f"  fleet            {snap.tasks_cancelled} tasks cancelled, "
            f"{snap.fleet_rebuilds} rebuilds, "
            f"{snap.fleet_scale_downs} idle scale-downs")
    tier_traffic = (snap.l1_hits + snap.l1_misses + snap.l2_hits
                    + snap.l2_misses + snap.l2_writes + snap.l2_errors)
    if tier_traffic:
        lines.append(
            f"  cache tiers      L1 {snap.l1_hits} hits / "
            f"{snap.l1_misses} misses "
            f"({snap.l1_lock_retries} lock retries); "
            f"L2 {snap.l2_hits} hits / {snap.l2_misses} misses, "
            f"{snap.l2_writes} writes "
            f"({snap.l2_writes_shed} shed, "
            f"{snap.l2_writes_dropped} dropped), "
            f"{snap.l2_errors} errors")
    return "\n".join(lines)
