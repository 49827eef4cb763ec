"""Regenerate scafbench's ``golden.json`` from the sequential path.

Every answer is computed in-process, one workload at a time, without
the service, the cache or the daemon::

    parse -> verify -> run_profilers -> build_* -> PDGClient.analyze_loop
          -> summarize_pdg

The time-weighted %NoDep of the CAF and SCAF inputs is cross-checked,
to two decimals, against the CAF and SCAF columns of the Figure 8
table that ``benchmarks/bench_fig8_coverage.py`` writes (skipped when
that file is absent)::

    python3 benchmarks/scafbench/make_golden.py [--fig8 PATH] [--check]

``--check`` compares with the checked-in file instead of writing it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import golden  # noqa: E402

#: input kind -> (system, edit step or None)
INPUTS = {"caf": ("caf", None), "scaf": ("scaf", None),
          "caf-edit": ("caf", 1)}
#: Index into a Figure 8 row's [CAF, Confluence, SCAF, MemSpec] values.
FIG8_COLUMNS = {"caf": 0, "scaf": 2}


def sequential_answers(workload, system: str, step):
    from repro import build_caf, build_scaf, run_profilers
    from repro.analysis import AnalysisContext
    from repro.clients import PDGClient, hot_loops
    from repro.ir import parse_module, verify_module
    from repro.service import summarize_pdg

    source = workload.source
    if step is not None:
        source = golden.edited_source(source, step)
    module = parse_module(source, name=workload.name)
    verify_module(module)
    context = AnalysisContext(module)
    profiles = run_profilers(module, context, entry=workload.entry)
    if system == "caf":
        analysis = build_caf(module, context, profiles)
    else:
        analysis = build_scaf(module, profiles, context)
    client = PDGClient(analysis)
    return [summarize_pdg(workload.name, system, client.analyze_loop(h.loop),
                          h.time_fraction, 0.0)
            for h in hot_loops(profiles)]


def read_fig8(path: Path):
    """``{workload: [caf, confluence, scaf, memspec]}`` from the table."""
    rows = {}
    for line in path.read_text().splitlines():
        parts = line.split()
        if len(parts) >= 5 and parts[0][:3].isdigit() and "." in parts[0]:
            rows[parts[0]] = [float(v) for v in parts[1:5]]
    return rows


def build() -> dict:
    from repro.clients import weighted_no_dep_answers
    from repro.workloads import ALL_WORKLOADS

    doc = {"version": 1, "inputs": {}, "weighted_no_dep": {}}
    for kind, (system, step) in INPUTS.items():
        doc["inputs"][kind] = {}
        doc["weighted_no_dep"][kind] = {}
        for workload in ALL_WORKLOADS:
            answers = sequential_answers(workload, system, step)
            doc["inputs"][kind][workload.name] = {
                a.loop: golden.entry_for(a) for a in answers}
            doc["weighted_no_dep"][kind][workload.name] = round(
                weighted_no_dep_answers(answers), 2)
            print(f"{kind:9s} {workload.name:15s} {len(answers)} loops "
                  f"{doc['weighted_no_dep'][kind][workload.name]:6.2f}",
                  flush=True)
    return doc


def cross_check(doc: dict, fig8: Path) -> list:
    problems = []
    if doc["inputs"]["caf-edit"] != doc["inputs"]["caf"]:
        problems.append("caf-edit answers differ from caf answers")
    if not fig8.exists():
        print(f"cross-check skipped: {fig8} not found")
        return problems
    table = read_fig8(fig8)
    for kind, column in FIG8_COLUMNS.items():
        for name, value in doc["weighted_no_dep"][kind].items():
            want = table.get(name, [None] * 4)[column]
            if want is None or abs(value - want) > 0.005:
                problems.append(f"{kind} {name}: {value:.2f} vs Figure 8 "
                                f"{want}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fig8", type=Path, default=ROOT / "benchmarks"
                        / "results" / "fig8_coverage.txt")
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()

    doc = build()
    problems = cross_check(doc, args.fig8)
    if args.check and golden.load() != doc:
        problems.append(f"{golden.GOLDEN_PATH} differs from a fresh build")
    for problem in problems:
        print(f"MISMATCH {problem}", file=sys.stderr)
    if problems:
        return 1
    if not args.check:
        with open(golden.GOLDEN_PATH, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {golden.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
