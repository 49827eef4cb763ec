"""Figure 8: dependence coverage (%NoDep) by scheme, per benchmark.

Regenerates the stacked bars of Figure 8: for each of the 16
workloads, the time-weighted %NoDep achieved by CAF (static memory
analysis), composition by confluence, SCAF (composition by
collaboration), and memory speculation, plus the share of queries
whose dependence was observed during profiling.  Also reports the
paper's two headline aggregates: SCAF's coverage gain over confluence
and the shrink of the memory-speculation residual.
"""

import os

import pytest

from common import (
    SYSTEMS,
    analyze_all,
    analyze_workload,
    coverage_via_service,
    emit,
    format_table,
)
from repro.clients import geometric_mean


def _coverage_table(results):
    rows = []
    aggregates = {s: [] for s in SYSTEMS}
    observed = []
    for wr in results:
        row = [wr.name]
        for s in SYSTEMS:
            value = wr.coverage(s)
            aggregates[s].append(value)
            row.append(f"{value:6.2f}")
        obs = wr.observed_percent()
        observed.append(obs)
        row.append(f"{obs:6.2f}")
        rows.append(row)

    avg_row = ["Average"]
    geo_row = ["Geomean"]
    for s in SYSTEMS:
        avg_row.append(f"{sum(aggregates[s]) / len(aggregates[s]):6.2f}")
        geo_row.append(f"{geometric_mean(aggregates[s]):6.2f}")
    avg_row.append(f"{sum(observed) / len(observed):6.2f}")
    geo_row.append("")
    rows.extend([avg_row, geo_row])

    table = format_table(
        ["benchmark", "CAF", "Confluence", "SCAF", "MemSpec", "ObservedDeps"],
        rows,
        title="Figure 8: %NoDep dependence coverage by scheme "
              "(time-weighted over hot loops)")

    # Headline aggregates (paper: +68.35% mean / +56.27% geomean
    # coverage over confluence; 58.41% geomean reduction of the
    # memory-speculation bar).
    gain = [wr.coverage("scaf") - wr.coverage("confluence")
            for wr in results]
    conf_resid = [max(wr.coverage("memory-speculation")
                      - wr.coverage("confluence"), 1e-9) for wr in results]
    scaf_resid = [max(wr.coverage("memory-speculation")
                      - wr.coverage("scaf"), 1e-9) for wr in results]
    rel_gain = [100.0 * (s - c) / max(c, 1e-9)
                for s, c in zip((wr.coverage("scaf") for wr in results),
                                (wr.coverage("confluence")
                                 for wr in results))]
    shrink = [100.0 * (1.0 - s / c)
              for s, c in zip(scaf_resid, conf_resid)]
    summary = "\n".join([
        "",
        f"SCAF coverage gain over confluence: "
        f"mean +{sum(gain) / len(gain):.2f} points, "
        f"max +{max(gain):.2f} points",
        f"SCAF relative coverage increase:    "
        f"mean +{sum(rel_gain) / len(rel_gain):.2f}%",
        f"Memory-speculation residual shrink: "
        f"mean {sum(shrink) / len(shrink):.2f}% "
        f"(geomean residual {geometric_mean(scaf_resid):.2f} vs "
        f"{geometric_mean(conf_resid):.2f} points)",
    ])
    return table + summary


def test_fig8_dependence_coverage(benchmark, all_results):
    """Regenerate Figure 8 and check its structural claims."""
    report = benchmark.pedantic(
        lambda: _coverage_table(all_results), rounds=1, iterations=1)
    emit("fig8_coverage.txt", report)

    for wr in all_results:
        assert wr.coverage("caf") <= wr.coverage("confluence") + 1e-9
        assert wr.coverage("confluence") <= wr.coverage("scaf") + 1e-9
        assert wr.coverage("scaf") <= \
            wr.coverage("memory-speculation") + 1e-9


def test_fig8_coverage_via_service():
    """Figure 8 through the serving layer (repro.service).

    Gated on REPRO_SERVICE_SMOKE (a comma-separated workload list) so
    the default bench run stays in-process; CI smokes it on two
    workloads.  The batched, parallel, cached path must reproduce the
    sequential harness's numbers exactly.
    """
    smoke = os.environ.get("REPRO_SERVICE_SMOKE")
    if not smoke:
        pytest.skip("set REPRO_SERVICE_SMOKE=<wl1,wl2,...> to serve "
                    "Figure 8 through repro.service")
    names = [n.strip() for n in smoke.split(",") if n.strip()]
    workers = int(os.environ.get("REPRO_SERVICE_WORKERS", "4"))

    from repro.workloads import get_workload
    served = coverage_via_service(names, workers=workers)
    for name in names:
        sequential = analyze_workload(get_workload(name))
        for system in SYSTEMS:
            assert abs(served[name][system]
                       - sequential.coverage(system)) < 1e-9, \
                (name, system)
