"""Self-tests of the scafbench harness (not part of tier-1)::

    PYTHONPATH=src python -m pytest --noconftest -q \\
        benchmarks/scafbench/test_scafbench.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import golden  # noqa: E402
import make_golden  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


# -- percentile rule ----------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (5000, 99), (1000, 99), (999, 98), (600, 98), (224, 95), (200, 95),
    (199, 94), (100, 90), (64, 84), (32, 68), (21, 52), (20, 50),
    (19, None), (16, None)])
def test_tail_percentile_is_the_highest_with_ten_beyond(n, expected):
    assert run.tail_percentile(n) == expected
    if expected is not None:
        assert n * (100 - expected) / 100 >= 10
        if expected < 99:
            assert n * (100 - expected - 1) / 100 < 10


def test_tail_is_the_maximum_below_twenty_samples():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, "max of n=3")
    value, label = run.tail([float(i) for i in range(1, 65)])
    assert label == "p84 of n=64"
    assert 53.0 <= value <= 55.0


# -- self-time fold ---------------------------------------------------------------

def _span(sid, parent, layer, start, end, pid, name="x"):
    return {"id": sid, "parent": parent, "layer": layer, "name": name,
            "start": start, "end": end, "pid": pid, "tid": 1}


def test_fold_subtracts_direct_children_across_two_pids():
    spans_in = [
        # front process: a 10 s batch with a 1 s cache read inside it
        _span("1:0", None, "service.sched", 0.0, 10.0, 1),
        _span("1:1", "1:0", "service.cache_read", 2.0, 3.0, 1),
        # worker: profile 4 s containing a 1 s context build; a query of
        # 3 s that itself contains a nested 2 s query with a 0.5 s
        # context build
        _span("2:0", None, "profiling.run", 0.0, 4.0, 2),
        _span("2:1", "2:0", "analysis.context", 1.0, 2.0, 2),
        _span("2:2", None, "core.query", 5.0, 8.0, 2),
        _span("2:3", "2:2", "core.query", 5.5, 7.5, 2),
        _span("2:4", "2:3", "analysis.context", 6.0, 6.5, 2),
    ]
    folded = spans.fold(spans_in)
    assert folded["self_s"] == pytest.approx({
        "service.sched": 9.0, "service.cache_read": 1.0,
        "profiling.run": 3.0, "analysis.context": 1.5, "core.query": 2.5})
    assert folded["self_by_pid"] == pytest.approx({1: 10.0, 2: 7.0})
    assert folded["calls"]["core.query"] == 2
    assert folded["max_s"]["core.query"] == pytest.approx(3.0)


def test_installed_wrappers_record_spans_and_uninstall(tmp_path):
    import repro.service.worker as worker
    from repro.analysis.loops import LoopInfo
    from repro.service import request_for_workload

    original_parse = worker.parse_module
    original_compute = LoopInfo.__dict__["compute"]
    uninstall = spans.install(tmp_path)
    try:
        worker.prepare_request(request_for_workload("164.gzip", "caf"))
    finally:
        uninstall()
    assert worker.parse_module is original_parse
    assert LoopInfo.__dict__["compute"] is original_compute
    folded = spans.fold(spans.read_spans(tmp_path))
    assert folded["name_calls"]["worker.parse_module"] == 1
    assert folded["calls"]["profiling.run"] == 1
    assert folded["calls"]["analysis.context"] >= 1


# -- seeded plans -------------------------------------------------------------

@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_plan_other_seed_other_order(workload):
    plan = run.make_plan(workload, 1, 0)
    assert plan == run.make_plan(workload, 1, 0)
    assert plan != run.make_plan(workload, 2, 0)
    names = sorted(run.workload_names())
    for client in plan:
        # every round is a permutation of the 16 workloads
        for start in range(0, len(client), 16):
            assert sorted(client[start:start + 16]) == names


def test_plan_sizes_match_the_units():
    assert [len(c) for c in run.make_plan("daemon-hit", 3, 0)] == \
        [16 * run.DAEMON_ROUNDS] * run.CLIENTS
    assert len(run.make_plan("edit-stream", 3, 0)[0]) == 16 * run.EDIT_ROUNDS


# -- golden answers -------------------------------------------------------------

def test_golden_accepts_fresh_answers_and_detects_a_corrupted_entry():
    from repro.workloads import get_workload
    answers = make_golden.sequential_answers(get_workload("164.gzip"),
                                             "caf", None)
    truth = golden.load()
    assert golden.check(truth, "caf", "164.gzip", answers) == ([], 0, 0)

    corrupted = json.loads(json.dumps(truth))
    entry = corrupted["inputs"]["caf"]["164.gzip"][answers[0].loop]
    entry["sha256"] = "0" * 64
    mismatches, _, _ = golden.check(corrupted, "caf", "164.gzip", answers)
    assert mismatches == [f"caf/164.gzip/{answers[0].loop}"]

    # A missing loop fails the request without making it wrong.
    assert golden.check(truth, "caf", "164.gzip", []) == \
        ([], len(answers), 0)


# -- compare.py -------------------------------------------------------------------

@pytest.mark.parametrize("a, b, better, expected", [
    ([10.0, 10.1, 9.9], [10.2, 10.3, 10.1], "lower", "within"),
    ([10.0, 10.1, 9.9], [12.0, 12.1, 11.9], "lower", "worse"),
    ([10.0, 10.1, 9.9], [8.0, 8.1, 7.9], "lower", "better"),
    ([10.0, 10.1, 9.9], [8.0, 8.1, 7.9], "higher", "worse"),
    ([10.0, 14.0, 7.0, 12.0], [10.5, 10.0], "lower", "unresolved"),
    ([10.0, 14.0, 7.0, 12.0], [5.0, 5.1], "lower", "better"),
])
def test_compare_verdicts(a, b, better, expected):
    assert compare.verdict(a, b, better, 0.10)[0] == expected


def _results(path, seed, wall_samples, queries, noisy=False):
    metrics = {name: {"value": 1.0, "samples": [1.0], "unit": unit}
               for name, unit in run.END_TO_END.items()}
    metrics["wall_s"] = {"value": sorted(wall_samples)[len(wall_samples) // 2],
                         "samples": wall_samples, "unit": "s"}
    doc = {"seed": seed, "workloads": {"suite-caf-cold": {
        "metrics": metrics, "counts": {"queries_per_unit": queries},
        "env": {"noisy": noisy}}}}
    path.write_text(json.dumps(doc))
    return path


def test_compare_main_reports_verdicts_counts_and_noise(tmp_path, capsys):
    a = _results(tmp_path / "a.json", 1, [8.0, 8.1], 6099)
    b = _results(tmp_path / "b.json", 1, [8.1, 8.2], 6099, noisy=True)
    assert compare.main([str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "wall_s" in out and "within" in out
    assert "queries_per_unit: A [6099] B [6099] exact" in out
    assert "b.json:suite-caf-cold" in out

    worse = _results(tmp_path / "c.json", 1, [11.0, 11.1], 6100)
    assert compare.main([str(a), str(worse)]) == 1
    out = capsys.readouterr().out
    assert "worse" in out and "DIFFERS" in out


def test_module_names_match_the_telemetry_series():
    import dataclasses
    from repro.service import (DependenceService, ServiceConfig,
                               request_for_workload)
    config = ServiceConfig(workers=0, executor="inline")
    with DependenceService(config) as service:
        batch = service.run_batch([request_for_workload("164.gzip", "scaf")])
    counts = run.telemetry_counts(dataclasses.asdict(batch.telemetry))
    evaluated = {key for key, value in counts.items()
                 if key.startswith("modules.") and value}
    assert evaluated
    assert evaluated <= {f"modules.{m}.evals" for m in run.module_names()}


# -- BENCHMARK.json ----------------------------------------------------------------

def test_benchmark_json_matches_the_harness():
    doc = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == \
        run.layer_catalogue()
