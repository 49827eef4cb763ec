"""Shared harness for the evaluation benchmarks (§5).

Prepares every workload once (parse → verify → profile), runs the PDG
client of each analysis system over all hot loops, and aggregates the
numbers each table/figure needs.  Results are printed and mirrored to
``benchmarks/results/`` so the regenerated artifacts survive pytest's
output capture.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.clients import (
    HotLoop,
    LoopPDG,
    PDGClient,
    hot_loops,
    weighted_no_dep,
    weighted_no_dep_answers,
)
from repro.core import OrchestratorConfig
from repro.service import build_system, config_fingerprint
from repro.workloads import ALL_WORKLOADS, PreparedWorkload, prepare

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

SYSTEMS = ("caf", "confluence", "scaf", "memory-speculation")


@dataclass
class WorkloadResults:
    """One workload analyzed by every system."""

    prepared: PreparedWorkload
    hot: List[HotLoop]
    pdgs: Dict[str, List[LoopPDG]]  # system -> per-hot-loop PDGs

    @property
    def name(self) -> str:
        return self.prepared.name

    def coverage(self, system: str) -> float:
        return weighted_no_dep(self.hot, self.pdgs[system])

    def loop_coverage(self, system: str) -> Dict[str, float]:
        return {pdg.loop.name: pdg.no_dep_percent
                for pdg in self.pdgs[system]}

    def observed_percent(self) -> float:
        """Time-weighted share of queries whose dependence manifested
        during profiling (the 'Observed Deps' band of Figure 8)."""
        total_w = 0.0
        acc = 0.0
        for h, pdg in zip(self.hot, self.pdgs["caf"]):
            observed = self.prepared.profiles.memdep.observed_pairs(h.loop)
            if pdg.total_queries == 0:
                continue
            count = sum(1 for r in pdg.records
                        if (r.src, r.dst, r.cross_iteration) in observed)
            total_w += h.time_fraction
            acc += h.time_fraction * 100.0 * count / pdg.total_queries
        return acc / total_w if total_w else 0.0


_RESULTS_CACHE: Dict[tuple, WorkloadResults] = {}


def _config_key(config: Optional[OrchestratorConfig]) -> tuple:
    return tuple(sorted(
        (k, str(v)) for k, v in config_fingerprint(config).items()))


def analyze_workload(wl, config: Optional[OrchestratorConfig] = None
                     ) -> WorkloadResults:
    """Run all four systems' PDG clients over one workload (cached).

    ``config`` selects the orchestrator's join/bailout policies for
    every system — benches and the serving layer pick policies here
    instead of editing source.
    """
    key = (wl.name, _config_key(config))
    if key in _RESULTS_CACHE:
        return _RESULTS_CACHE[key]
    p = prepare(wl)
    hot = hot_loops(p.profiles)
    pdgs: Dict[str, List[LoopPDG]] = {}
    for system_name in SYSTEMS:
        system = build_system(system_name, p.module, p.context,
                              p.profiles, config)
        client = PDGClient(system)
        pdgs[system_name] = [client.analyze_loop(h.loop) for h in hot]
    result = WorkloadResults(p, hot, pdgs)
    _RESULTS_CACHE[key] = result
    return result


def analyze_all(config: Optional[OrchestratorConfig] = None
                ) -> List[WorkloadResults]:
    return [analyze_workload(wl, config) for wl in ALL_WORKLOADS]


def coverage_via_service(workload_names, systems=SYSTEMS,
                         workers: int = 4,
                         executor: str = "process",
                         cache_dir: Optional[str] = None,
                         config: Optional[OrchestratorConfig] = None
                         ) -> Dict[str, Dict[str, float]]:
    """Time-weighted %NoDep per workload x system, computed through
    the batched query service (``repro.service``) instead of
    in-process clients.  Lets Fig. 8/9/10-style benches run against
    the serving stack: one batch fans every (workload, system) pair
    across the worker pool and the persistent cache."""
    from repro.service import (
        DependenceService,
        ServiceConfig,
        request_for_workload,
    )
    requests = [request_for_workload(name, system=system, config=config)
                for name in workload_names for system in systems]
    service_config = ServiceConfig(workers=workers, executor=executor,
                                   cache_dir=cache_dir)
    with DependenceService(service_config) as service:
        batch = service.run_batch(requests)
    out: Dict[str, Dict[str, float]] = {}
    for request, answers in zip(requests, batch.answers):
        out.setdefault(request.name, {})[request.system] = \
            weighted_no_dep_answers(answers)
    return out


def removed_keys(pdg: LoopPDG) -> set:
    return {(id(r.src), id(r.dst), r.cross_iteration)
            for r in pdg.records if r.removed}


def improved_records(scaf_pdg: LoopPDG, conf_pdg: LoopPDG):
    """Queries SCAF resolves that confluence does not (Table 2's
    population of 'improved queries')."""
    conf = removed_keys(conf_pdg)
    return [r for r in scaf_pdg.records
            if r.removed and (id(r.src), id(r.dst), r.cross_iteration)
            not in conf]


def emit(name: str, text: str) -> None:
    """Print a result block and mirror it to benchmarks/results/."""
    print(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, name), "w") as f:
        f.write(text + "\n")


def format_table(headers: List[str], rows: List[List[str]],
                 title: str = "") -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)
