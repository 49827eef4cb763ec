"""Execution-engine speed: closure-compiled closures vs tree-walker.

Times every registered workload under both engines and gates the
tentpole's headline: **pure execution** (no listeners attached, the
regime the closure compiler targets) must be at least **3x** faster
compiled than tree-walked, aggregated across workloads (geomean).

The cold-profiling bundle time (all six profilers attached) is
measured and reported as context, *not* gated: with listeners on,
the profilers' per-event Python work is identical in both engines
and takes most of the run, so the bundle-level speedup is smaller.

Equality is asserted on every run, both regimes: return value,
dynamic instruction count and loop statistics for pure execution;
every profile fact (``repro.profiling.bundle_facts``) for the bundles.

``REPRO_INTERP_SMOKE=name,name`` restricts to a comma-separated
workload subset (the CI smoke job).  Results land in
``benchmarks/results/interp_compile*.txt`` and ``BENCH_interp.json``
at the repo root for artifact upload.
"""

import json
import os
import time

from common import emit, format_table

from repro.analysis import AnalysisContext
from repro.clients import geometric_mean
from repro.interp import CompiledInterpreter, Interpreter, compile_module
from repro.profiling import bundle_facts, run_profilers
from repro.workloads import ALL_WORKLOADS

BENCH_JSON = os.path.join(os.path.dirname(__file__), os.pardir,
                          "BENCH_interp.json")

#: Minimum aggregate (geomean) pure-execution speedup the compiled
#: engine must deliver over the tree-walker.
SPEEDUP_GATE = 3.0

#: Timing repetitions per engine per workload; the minimum is kept.
REPEATS = 2


def _selected():
    subset = os.environ.get("REPRO_INTERP_SMOKE", "")
    if not subset:
        return list(ALL_WORKLOADS)
    names = {n.strip() for n in subset.split(",") if n.strip()}
    chosen = [w for w in ALL_WORKLOADS if w.name in names]
    missing = names - {w.name for w in chosen}
    if missing:
        raise ValueError(f"unknown workloads in REPRO_INTERP_SMOKE: "
                         f"{sorted(missing)}")
    return chosen


def _loop_stats_facts(interp):
    return sorted((loop.header.parent.name, loop.header.name,
                   s.invocations, s.iterations, s.dynamic_insts)
                  for loop, s in interp.loop_stats.items())


def _time_pure(workload, engine):
    """Min-of-REPEATS pure execution; returns (seconds, facts)."""
    best = None
    facts = None
    for _ in range(REPEATS):
        module = workload.build()
        analysis = AnalysisContext(module)
        if engine == "compiled":
            compile_module(module, analysis)  # exclude compile time
            interp = CompiledInterpreter(module, analysis)
        else:
            interp = Interpreter(module, analysis)
        started = time.perf_counter()
        ret = interp.run("main")
        elapsed = time.perf_counter() - started
        facts = (ret, interp.total_instructions(),
                 _loop_stats_facts(interp))
        best = elapsed if best is None else min(best, elapsed)
    return best, facts


def _time_bundle(workload, engine):
    """One cold profiling run (parse/build excluded); returns
    (seconds, profile facts)."""
    module = workload.build()
    analysis = AnalysisContext(module)
    started = time.perf_counter()
    bundle = run_profilers(module, analysis,
                           compile=(engine == "compiled"))
    elapsed = time.perf_counter() - started
    assert bundle.engine == engine
    return elapsed, bundle_facts(bundle)


def _measure(workload):
    module = workload.build()
    analysis = AnalysisContext(module)
    started = time.perf_counter()
    compile_module(module, analysis)
    compile_s = time.perf_counter() - started

    tree_s, tree_facts = _time_pure(workload, "tree")
    comp_s, comp_facts = _time_pure(workload, "compiled")
    assert comp_facts == tree_facts, \
        f"{workload.name}: engines disagree on pure execution"

    tree_bundle_s, tree_profile = _time_bundle(workload, "tree")
    comp_bundle_s, comp_profile = _time_bundle(workload, "compiled")
    assert comp_profile == tree_profile, \
        f"{workload.name}: engines disagree on profile facts"

    return {
        "workload": workload.name,
        "instructions": tree_facts[1],
        "compile_s": round(compile_s, 6),
        "tree_exec_s": round(tree_s, 6),
        "compiled_exec_s": round(comp_s, 6),
        "exec_speedup": round(tree_s / comp_s, 3) if comp_s else None,
        "tree_bundle_s": round(tree_bundle_s, 6),
        "compiled_bundle_s": round(comp_bundle_s, 6),
        "bundle_speedup": round(tree_bundle_s / comp_bundle_s, 3)
        if comp_bundle_s else None,
    }


def _report(rows, exec_geo, bundle_geo, smoke):
    table = format_table(
        ["workload", "insts", "tree", "compiled", "speedup",
         "bundle tree", "bundle comp", "bundle x"],
        [[r["workload"], str(r["instructions"]),
          f"{r['tree_exec_s'] * 1000:.1f}ms",
          f"{r['compiled_exec_s'] * 1000:.1f}ms",
          f"{r['exec_speedup']:.2f}x",
          f"{r['tree_bundle_s'] * 1000:.1f}ms",
          f"{r['compiled_bundle_s'] * 1000:.1f}ms",
          f"{r['bundle_speedup']:.2f}x"] for r in rows],
        title="Execution engines: compiled closures vs tree-walker"
              + (" (smoke subset)" if smoke else ""))
    return (f"{table}\n\n"
            f"geomean pure-execution speedup: {exec_geo:.2f}x "
            f"(gate: >= {SPEEDUP_GATE:.1f}x)\n"
            f"geomean cold-bundle speedup:    {bundle_geo:.2f}x "
            f"(context only; listener-bound)")


def test_interp_compile_speedup(benchmark):
    workloads = _selected()
    smoke = bool(os.environ.get("REPRO_INTERP_SMOKE"))

    rows = benchmark.pedantic(
        lambda: [_measure(w) for w in workloads],
        rounds=1, iterations=1)

    exec_geo = geometric_mean([r["exec_speedup"] for r in rows])
    bundle_geo = geometric_mean([r["bundle_speedup"] for r in rows])
    emit("interp_compile_smoke.txt" if smoke else "interp_compile.txt",
         _report(rows, exec_geo, bundle_geo, smoke))

    payload = {
        "benchmark": "bench_interp_compile",
        "smoke": smoke,
        "speedup_gate": SPEEDUP_GATE,
        "repeats": REPEATS,
        "geomean_exec_speedup": round(exec_geo, 3),
        "geomean_bundle_speedup": round(bundle_geo, 3),
        "workloads": rows,
    }
    with open(BENCH_JSON, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")

    assert exec_geo >= SPEEDUP_GATE, (
        f"compiled engine only {exec_geo:.2f}x over the tree-walker "
        f"(gate {SPEEDUP_GATE:.1f}x)")
