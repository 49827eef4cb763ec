"""Compare two sets of scafbench results under BENCHMARK.json's bounds.

    python3 benchmarks/scafbench/compare.py A B

A and B are each a results JSON written by ``run.py`` or a directory
of them (for example ten seeded runs).  For every (workload, end-to-end
metric) the verdict is:

- ``unresolved`` when either side's spread is wider than the bound,
  unless every B value is better than every A value (``better``);
- ``worse`` / ``better`` when B's median moved past the bound;
- ``within`` otherwise.

A side's spread is the distance between the first and third quartile
of its values, as a share of their median: the per-run medians when a
side has several files, the per-unit samples when it has one.  Counts
that must repeat exactly (queries per unit, profile runs per unit)
are compared for equality when both sides ran the same seeds.  Runs
that started with the load average above ``nproc`` are flagged
``noisy``.  Exits 1 on any ``worse`` verdict or count difference.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]


def load_side(path: Path) -> List[Dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    docs = []
    for file in files:
        with open(file) as f:
            doc = json.load(f)
        if "workloads" in doc:
            doc["_file"] = str(file)
            docs.append(doc)
    if not docs:
        raise SystemExit(f"compare: no scafbench results in {path}")
    return docs


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return abs(q3 - q1) / abs(median) if median else 0.0


def side_values(docs: List[Dict], workload: str, metric: str
                ) -> List[float]:
    runs = [d["workloads"][workload]["metrics"][metric] for d in docs
            if metric in d["workloads"].get(workload, {}).get("metrics", {})]
    if len(runs) == 1:
        return list(runs[0]["samples"])
    return [r["value"] for r in runs]


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> Tuple[str, float, float]:
    """(verdict, signed change of B's median vs A's, wider spread)."""
    a_med, b_med = statistics.median(a), statistics.median(b)
    change = (b_med - a_med) / a_med if a_med else 0.0
    worse_by = change if better == "lower" else -change
    width = max(spread(a), spread(b))
    if width > bound:
        beats = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
        return ("better" if beats else "unresolved"), change, width
    if worse_by > bound:
        return "worse", change, width
    if worse_by < -bound:
        return "better", change, width
    return "within", change, width


def counts_of(docs: List[Dict], workload: str) -> Dict[str, set]:
    seen: Dict[str, set] = {}
    for doc in docs:
        result = doc["workloads"].get(workload)
        if result is None:
            continue
        for name, value in result.get("counts", {}).items():
            seen.setdefault(name, set()).add(value)
    return seen


def calibration(docs: List[Dict]) -> float:
    """Median time of run.py's calibration loop over a side's runs (0
    when not recorded): how fast the host was while they ran."""
    values = [r["env"][when]["calibration_s"] for d in docs
              for r in d["workloads"].values()
              for when in ("before", "after")
              if "calibration_s" in r["env"].get(when, {})]
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as f:
        metrics = json.load(f)["end_to_end"]
    side_a, side_b = load_side(args.a), load_side(args.b)
    workloads = [w for w in side_a[0]["workloads"]
                 if all(w in d["workloads"] for d in side_a + side_b)]

    failed = False
    header = (f"{'workload':16s} {'metric':15s} {'A':>11s} {'B':>11s} "
              f"{'change':>8s} {'spread':>7s} {'bound':>6s}  verdict")
    print(header)
    print("-" * len(header))
    for workload in workloads:
        for m in metrics:
            a = side_values(side_a, workload, m["name"])
            b = side_values(side_b, workload, m["name"])
            if not a or not b:
                continue
            result, change, width = verdict(a, b, m["better"], m["bound"])
            failed |= result == "worse"
            print(f"{workload:16s} {m['name']:15s} "
                  f"{statistics.median(a):11.5g} {statistics.median(b):11.5g} "
                  f"{change:+8.1%} {width:7.1%} {m['bound']:6.0%}  {result}")

    same_seeds = (sorted(d["seed"] for d in side_a)
                  == sorted(d["seed"] for d in side_b))
    print()
    for workload in workloads:
        ca, cb = counts_of(side_a, workload), counts_of(side_b, workload)
        for name in sorted(set(ca) & set(cb)):
            values = sorted(ca[name] | cb[name])
            if not same_seeds:
                status = "not compared (seeds differ)"
            elif len(values) == 1:
                status = "exact"
            else:
                status = "DIFFERS"
                failed = True
            print(f"count {workload} {name}: A {sorted(ca[name])} "
                  f"B {sorted(cb[name])} {status}")

    noisy = [f"{d['_file']}:{w}" for d in side_a + side_b
             for w, r in d["workloads"].items() if r["env"]["noisy"]]
    print(f"noisy runs: {', '.join(noisy) if noisy else 'none'}")
    speeds = [calibration(side) for side in (side_a, side_b)]
    if all(speeds):
        print(f"host calibration loop: A {speeds[0]:.4f} s, "
              f"B {speeds[1]:.4f} s ({speeds[1] / speeds[0] - 1:+.1%})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
