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

The service is what ``python -m repro batch``, ``repro serve`` and
the benchmark harness consume.
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
    #: a time; 0 runs every task inline in the calling process.
    workers: int = 4
    #: The lanes' kind when ``workers >= 1``: "process" (default) or
    #: "thread".  "inline" is accepted with ``workers=0`` only.
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
    #: Wall-clock deadline for one loop task; an overdue task degrades
    #: to a conservative answer and its worker lane is rebuilt.
    #: ``None`` waits indefinitely.
    task_timeout_s: Optional[float] = None
    #: Capacity of each worker's resident prepared-module LRU (parsed
    #: module + context + profiles + built system per version key);
    #: ``None`` uses the worker default.
    prepared_cache_size: Optional[int] = None
    #: Tear the worker fleet down after this many idle seconds and
    #: lazily respawn on the next task (the daemon's scale-down);
    #: ``None`` keeps workers resident forever.
    idle_ttl_s: Optional[float] = None


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
        try:
            self.scheduler = BatchScheduler(
                workers=self.config.workers,
                executor=self.config.executor,
                cache=self.cache,
                telemetry=self.telemetry,
                task_timeout_s=self.config.task_timeout_s,
                prepared_cache_size=self.config.prepared_cache_size,
                idle_ttl_s=self.config.idle_ttl_s,
            )
        except BaseException:
            # A config the scheduler rejects must not leave the sqlite
            # handle open or the L2 write-behind thread running.
            if self.cache is not None:
                self.cache.close()
            raise

    # -- serving -------------------------------------------------------------

    def run_batch(self, requests: Sequence[AnalysisRequest]) -> BatchResult:
        answers = self.scheduler.run_batch(requests)
        return BatchResult(answers, self.telemetry.snapshot())

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
                           reconnect_s=self.config.l2_reconnect_s)


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
