"""The cut memo against the orchestrator that never memoizes a
cut-tainted answer, on real workloads.

Every system is built twice per workload: once as shipped, once with
:class:`~tests.orchestrator_oracle.NoCutMemoOrchestrator` swapped in.
Each analyzes the workload's hot loops in roster order and in reversed
order on one system, as a prepared module serves its loops.  Per-query
answers (contributors included) and loop footprints must be identical,
and SCAF must make strictly fewer module evaluations wherever the
oracle cut a cycle.  The workloads are cheap and cycle-heavy; 179.art
and 056.ear have two hot loops each.
"""

import pytest

from repro import (
    build_caf,
    build_confluence,
    build_memory_speculation,
    build_scaf,
)
from repro.clients import PDGClient, hot_loops
from repro.core import confluence, framework
from repro.service import summarize_pdg
from repro.service.worker import loop_footprint
from repro.workloads import get_workload, prepare

from tests.orchestrator_oracle import NoCutMemoOrchestrator

WORKLOADS = ("429.mcf", "470.lbm", "525.x264", "179.art", "056.ear")

SYSTEMS = {
    "caf": lambda p: build_caf(p.module, p.context, p.profiles),
    "confluence": lambda p: build_confluence(p.module, p.profiles,
                                             p.context),
    "scaf": lambda p: build_scaf(p.module, p.profiles, p.context),
    "memory-speculation": lambda p: build_memory_speculation(
        p.module, p.profiles, p.context),
}


def analyze(prepared, build, reverse):
    """Per-loop (answer, footprint) pairs and the system's counters."""
    system = build(prepared)
    client = PDGClient(system)
    hot = hot_loops(prepared.profiles)
    loops = []
    for h in (reversed(hot) if reverse else hot):
        pdg = client.analyze_loop(h.loop)
        loops.append((summarize_pdg(prepared.name, system.name, pdg,
                                    h.time_fraction, 0.0),
                      loop_footprint(system, h.loop)))
    return loops, system.stats


@pytest.mark.parametrize("reverse", (False, True),
                         ids=("roster", "reversed"))
@pytest.mark.parametrize("name", WORKLOADS)
def test_cut_memo_matches_oracle(name, reverse, monkeypatch):
    prepared = prepare(get_workload(name))
    for system_name, build in SYSTEMS.items():
        loops, stats = analyze(prepared, build, reverse)
        with monkeypatch.context() as patch:
            patch.setattr(framework, "Orchestrator", NoCutMemoOrchestrator)
            patch.setattr(confluence, "Orchestrator", NoCutMemoOrchestrator)
            oracle_loops, oracle_stats = analyze(prepared, build, reverse)
        assert loops == oracle_loops, system_name
        if system_name == "scaf" and oracle_stats.cycles_cut:
            assert stats.total_module_evals < \
                oracle_stats.total_module_evals
