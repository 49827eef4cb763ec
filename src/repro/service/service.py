"""`DependenceService`: the serving facade.

Bundles the batch scheduler, the persistent result cache, and the
telemetry accumulator behind one object::

    from repro.service import (AnalysisRequest, DependenceService,
                               ServiceConfig)

    service = DependenceService(ServiceConfig(workers=4,
                                              cache_dir=".scaf-cache"))
    requests = [request_for_workload(name) for name in ("181.mcf",
                                                        "183.equake")]
    batch = service.run_batch(requests)
    for answers in batch.answers:
        for a in answers:
            print(a.workload, a.loop, f"{a.no_dep_percent:.2f}")
    print(format_report(batch.telemetry))
    service.close()

The service is what ``python -m repro batch`` and the benchmark
harness consume; a single ``analyze`` call with ``--workers``/
``--cache-dir`` routes through it too.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.orchestrator import OrchestratorConfig
from .answers import LoopAnswer
from .cache import ResultCache
from .requests import AnalysisRequest
from .scheduler import BatchScheduler
from .telemetry import ServiceTelemetry, TelemetrySnapshot, format_report


@dataclass
class ServiceConfig:
    """Service-level knobs (orchestrator policy rides on the request)."""

    #: Worker lanes, each a one-worker executor holding one task at
    #: a time; 0 still runs one lane.
    workers: int = 4
    #: "process" (default), "thread", or "inline".
    executor: str = "process"
    #: Directory for the persistent result cache; ``None`` disables it.
    cache_dir: Optional[str] = None
    #: Remote L2 cache tier URL (``redis://host:port``); requires
    #: ``cache_dir`` (the sqlite L1) and wraps it in a
    #: :class:`repro.cachetier.TieredCache` with read-through,
    #: write-behind, and graceful degradation.  ``None`` stays L1-only.
    cache_l2: Optional[str] = None
    #: Socket deadline for one L2 operation; a blown deadline counts a
    #: typed error and opens the degradation cooldown.
    l2_timeout_s: float = 1.0
    #: Seconds the tier stays demoted to L1-only after an L2 failure
    #: before the next touch retries the remote.
    l2_reconnect_s: float = 5.0
    #: Bound on the write-behind queue; overflow sheds the oldest
    #: pending publication (counted, never blocking).
    l2_write_queue: int = 64
    #: Wall-clock deadline for one loop task; an overdue task degrades
    #: to a conservative answer and its worker lane is rebuilt.
    #: ``None`` waits indefinitely.
    task_timeout_s: Optional[float] = None
    #: Budget for one loop's analysis inside a worker; an overdue loop
    #: degrades to a conservative answer while its worker survives.
    loop_timeout_s: Optional[float] = None
    #: Incremental re-analysis: on a cache miss, look for a prior run
    #: of the same request lineage and revalidate each cached loop's
    #: dependence footprint against the edited module, recomputing only
    #: the loops an edit actually dirtied.
    incremental: bool = True
    #: Capacity of each worker's resident prepared-module LRU (parsed
    #: module + context + profiles + built system per version key);
    #: ``None`` uses the worker default.
    prepared_cache_size: Optional[int] = None
    #: Tear the worker fleet down after this many idle seconds and
    #: lazily respawn on the next task (the daemon's scale-down);
    #: ``None`` keeps workers resident forever.
    idle_ttl_s: Optional[float] = None
    #: Default orchestrator config stamped onto requests that carry
    #: none (lets callers pick join/bailout policies service-wide).
    orchestrator: Optional[OrchestratorConfig] = None


@dataclass
class BatchResult:
    """Answers (parallel to the submitted requests) plus telemetry."""

    answers: List[List[LoopAnswer]]
    telemetry: TelemetrySnapshot

    def flat(self) -> List[LoopAnswer]:
        return [a for group in self.answers for a in group]

    def report(self) -> str:
        return format_report(self.telemetry)


class DependenceService:
    """A batched, parallel, cached dependence-analysis query service."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        # Telemetry first: the cache tiers report into its registry.
        self.telemetry = ServiceTelemetry(max(1, self.config.workers))
        self.cache = self._build_cache()
        self.scheduler = BatchScheduler(
            workers=self.config.workers,
            executor=self.config.executor,
            cache=self.cache,
            telemetry=self.telemetry,
            task_timeout_s=self.config.task_timeout_s,
            loop_timeout_s=self.config.loop_timeout_s,
            incremental=self.config.incremental,
            prepared_cache_size=self.config.prepared_cache_size,
            idle_ttl_s=self.config.idle_ttl_s,
        )

    # -- serving -------------------------------------------------------------

    def run_batch(self, requests: Sequence[AnalysisRequest]) -> BatchResult:
        requests = [self._with_default_config(r) for r in requests]
        answers = self.scheduler.run_batch(requests)
        return BatchResult(answers, self.telemetry.snapshot())

    def analyze(self, request: AnalysisRequest) -> List[LoopAnswer]:
        """Single-request convenience (used by ``analyze --workers``)."""
        return self.run_batch([request]).answers[0]

    def snapshot(self) -> TelemetrySnapshot:
        return self.telemetry.snapshot()

    def close(self) -> None:
        self.scheduler.close()
        if self.cache is not None:
            self.cache.close()

    def __enter__(self) -> "DependenceService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals -----------------------------------------------------------

    def _build_cache(self):
        """L1-only :class:`ResultCache`, or a :class:`TieredCache`
        when ``cache_l2`` names a remote tier."""
        if not self.config.cache_dir:
            if self.config.cache_l2:
                raise ValueError(
                    "ServiceConfig.cache_l2 requires cache_dir "
                    "(the local sqlite L1 the remote tier backs)")
            return None
        l1 = ResultCache(self.config.cache_dir,
                         registry=self.telemetry.registry)
        if not self.config.cache_l2:
            return l1
        from ..cachetier import TieredCache, backend_from_url
        backend = backend_from_url(self.config.cache_l2,
                                   timeout_s=self.config.l2_timeout_s)
        return TieredCache(l1, backend,
                           registry=self.telemetry.registry,
                           reconnect_s=self.config.l2_reconnect_s,
                           max_queue=self.config.l2_write_queue)

    def _with_default_config(self, request: AnalysisRequest
                             ) -> AnalysisRequest:
        if request.config is not None or self.config.orchestrator is None:
            return request
        return AnalysisRequest(
            name=request.name, source=request.source, entry=request.entry,
            system=request.system, loops=request.loops,
            config=self.config.orchestrator)


def request_for_workload(name: str, system: str = "scaf",
                         loops: Sequence[str] = (),
                         config: Optional[OrchestratorConfig] = None
                         ) -> AnalysisRequest:
    """Build a request from one of the registered §5 workloads."""
    from ..workloads import get_workload
    wl = get_workload(name)
    return AnalysisRequest(name=wl.name, source=wl.source, entry=wl.entry,
                           system=system, loops=tuple(loops), config=config)


def request_for_file(path: str, entry: str = "main", system: str = "scaf",
                     loops: Sequence[str] = (),
                     config: Optional[OrchestratorConfig] = None
                     ) -> AnalysisRequest:
    """Build a request from a textual-IR file on disk."""
    with open(path) as f:
        source = f.read()
    name = os.path.basename(path)
    return AnalysisRequest(name=name, source=source, entry=entry,
                           system=system, loops=tuple(loops), config=config)
