"""tools/bench_pairs.py's summary of alternating perfbench pairs."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "solve_s", "better": "lower"}, {"name": "share", "better": "higher"}]


def _runs(parent, change, **extra):
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change), 1):
        for side, value in (("parent", p), ("change", c)):
            runs.append({"pair": pair, "side": side, "correct": True, "attempted": 10,
                         "failed": 0, "solve_s": value, "share": value, **extra})
    return runs


def test_summary_of_a_change_that_wins_every_pair():
    summary = bench_pairs.summarize(_runs([1.0, 2.0, 3.0, 4.0, 5.0],
                                         [0.5, 1.5, 2.5, 3.5, 4.5]), METRICS)
    solve = summary["summary"]["solve_s"]
    # statistics.quantiles' default (exclusive) quartiles
    assert solve["parent"] == {"median": 3.0, "q1": 1.5, "q3": 4.5, "min": 1.0, "max": 5.0,
                               "n": 5}
    assert solve["change"]["median"] == 2.5
    assert solve["change_better_in"] == "5/5"
    assert solve["median_change_rel"] == pytest.approx(-0.5 / 3)
    assert solve["parent_iqr"] == 3.0
    assert solve["median_gap_exceeds_parent_iqr"] is False
    # the same values, where higher is better, lose every pair
    assert summary["summary"]["share"]["change_better_in"] == "0/5"
    assert summary["every_run_correct"] is True and summary["failed_runs"] == 0


def test_a_gap_beyond_the_parent_spread_and_ties():
    summary = bench_pairs.summarize(_runs([1.0, 1.1, 1.0, 1.1], [2.0, 1.1, 2.0, 2.0]),
                                   METRICS)
    share = summary["summary"]["share"]
    assert share["change_better_in"] == "3/4"  # the tie is no win
    assert share["median_gap_exceeds_parent_iqr"] is True


def test_failed_runs_and_runs_without_metrics():
    runs = _runs([1.0, 2.0], [1.0, 2.0], failed=1)
    runs.append({"pair": 3, "side": "change", "correct": False, "attempted": 0,
                 "failed": 0, "error": "worker exited 1"})
    summary = bench_pairs.summarize(runs, METRICS)
    assert summary["every_run_correct"] is False
    assert summary["failed_runs"] == 4
    solve = summary["summary"]["solve_s"]
    assert solve["change"]["n"] == solve["parent"]["n"] == 2
    assert solve["change_better_in"] == "0/2"
