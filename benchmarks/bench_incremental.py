"""Incremental re-analysis: reuse after a single-function edit.

For each of the 16 workloads, appends a small self-contained helper
function to the module, serves the batch cold, then *edits only that
helper* twice, serving the batch after each edit against the same
persistent cache.  The edits are outside every hot loop's dependence
footprint (the helper is never called and touches only its own
alloca), so the incremental probe must revalidate every cached loop
answer and the warm runs must answer from the cache.  The measured
warm run is the second edit's: it picks each loop's answer from a
lineage that holds several stored versions of it.  The reused/
recomputed split, the module-evaluation ratio, and wall time are the
report.

``REPRO_INCREMENTAL_SMOKE=<wl1,wl2,...>`` restricts the sweep to a
workload subset (the CI smoke path); the full-sweep assertions about
aggregate reuse apply only to the unrestricted run.
"""

import os
import time

from common import ALL_WORKLOADS, emit, format_table

#: Self-contained and never called: its body only touches its own
#: alloca, so editing it cannot be inside any hot loop's footprint.
HELPER = """
func @__incremental_probe(i32 %seed) -> i32 {
entry:
  %slot = alloca i32
  store i32 %seed, i32* %slot
  br %loop
loop:
  %i = phi i32 [0, %entry], [%i.next, %loop]
  %cur = load i32* %slot
  %next = add i32 %cur, {step}
  store i32 %next, i32* %slot
  %i.next = add i32 %i, 1
  %more = icmp slt i32 %i.next, 4
  condbr i1 %more, %loop, %done
done:
  %out = load i32* %slot
  ret i32 %out
}
"""


def _edited_source(workload, step: int) -> str:
    return workload.source + HELPER.replace("{step}", str(step))


def _run_batch(workloads, step: int, cache_dir: str, system: str):
    """One inline-executor batch over edited workload modules."""
    from repro.service import (
        AnalysisRequest,
        DependenceService,
        ServiceConfig,
    )
    requests = [
        AnalysisRequest(name=wl.name, source=_edited_source(wl, step),
                        entry=wl.entry, system=system)
        for wl in workloads]
    config = ServiceConfig(workers=0, executor="inline",
                           cache_dir=cache_dir)
    started = time.perf_counter()
    with DependenceService(config) as service:
        batch = service.run_batch(requests)
    return batch, time.perf_counter() - started


def _sweep(workloads, cache_dir: str, system: str = "scaf"):
    """Cold run on edit #1, then edit #2, then the measured warm run on
    edit #3; per-workload rows."""
    from repro.service import STATUS_CACHED

    cold, cold_s = _run_batch(workloads, 1, cache_dir, system)
    _run_batch(workloads, 2, cache_dir, system)
    warm, warm_s = _run_batch(workloads, 3, cache_dir, system)

    rows = []
    for wl, cold_answers, warm_answers in zip(
            workloads, cold.answers, warm.answers):
        reused = sum(a.status == STATUS_CACHED for a in warm_answers)
        rows.append({
            "name": wl.name,
            "loops": len(warm_answers),
            "reused": reused,
            "recomputed": len(warm_answers) - reused,
            "identical": ([a.identity() for a in cold_answers]
                          == [a.identity() for a in warm_answers]),
        })
    return {
        "rows": rows,
        "cold_evals": cold.telemetry.module_evals,
        "warm_evals": warm.telemetry.module_evals,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "warm_snapshot": warm.telemetry,
    }


def _report(result) -> str:
    rows = [[r["name"], str(r["loops"]), str(r["reused"]),
             str(r["recomputed"]), "yes" if r["identical"] else "NO"]
            for r in result["rows"]]
    table = format_table(
        ["benchmark", "hot loops", "reused", "recomputed", "identical"],
        rows,
        title="Incremental re-analysis after editing one (uncalled) "
              "function per workload")
    cold_e, warm_e = result["cold_evals"], result["warm_evals"]
    ratio = (cold_e / warm_e) if warm_e else float("inf")
    summary = "\n".join([
        "",
        f"module evaluations: cold {cold_e}, warm {warm_e} "
        f"({'inf' if warm_e == 0 else f'{ratio:.1f}'}x fewer)",
        f"wall time:          cold {result['cold_s']:.2f}s, "
        f"warm {result['warm_s']:.2f}s",
        f"footprint probes:   "
        f"{result['warm_snapshot'].incremental_probes}, loops served "
        f"incrementally: {result['warm_snapshot'].loops_incremental}",
    ])
    return table + summary


def _selected_workloads():
    smoke = os.environ.get("REPRO_INCREMENTAL_SMOKE")
    if not smoke:
        return list(ALL_WORKLOADS), False
    names = {n.strip() for n in smoke.split(",") if n.strip()}
    return [wl for wl in ALL_WORKLOADS if wl.name in names], True


def test_incremental_reuse(benchmark, tmp_path):
    """Warm runs must reuse footprint-clean loops and match bitwise."""
    workloads, smoke = _selected_workloads()
    result = benchmark.pedantic(
        lambda: _sweep(workloads, str(tmp_path / "cache")),
        rounds=1, iterations=1)
    emit("incremental_smoke.txt" if smoke else "incremental.txt",
         _report(result))

    # Reused answers must be bitwise-identical to the cold run's.
    for row in result["rows"]:
        assert row["identical"], row["name"]

    # The helper edit is outside every footprint: the warm run should
    # do (at least) 2x less module-evaluation work on nearly every
    # workload — with full reuse, zero evaluations at all.
    assert result["rows"], "no workloads selected"
    fully_reused = sum(r["recomputed"] == 0 for r in result["rows"])
    threshold = 12 if not smoke else len(result["rows"])
    assert fully_reused >= threshold, \
        (fully_reused, [r for r in result["rows"] if r["recomputed"]])
    assert result["warm_evals"] * 2 <= result["cold_evals"]
