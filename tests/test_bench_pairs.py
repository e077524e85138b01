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


def test_a_gain_is_established_by_nine_tenths_of_ten_pairs_and_the_parent_iqr():
    parent = [1.0, 1.1, 1.2, 1.0, 1.1, 1.2, 1.0, 1.1, 1.2, 1.1]
    change = [0.5] * 9 + [1.3]  # the change loses pair 10
    solve, share = (bench_pairs.summarize(_runs(parent, change), METRICS)["summary"][m]
                    for m in ("solve_s", "share"))
    assert solve["change_better_in"] == "9/10" and solve["gain_established"] is True
    # higher is better for share: the same gap is a loss
    assert share["median_gap_exceeds_parent_iqr"] is True
    assert share["gain_established"] is False
    # 8 wins of 10, or 9 of 9 pairs, are too few
    change[0] = 1.3
    assert bench_pairs.summarize(_runs(parent, change), METRICS)["summary"]["solve_s"][
        "gain_established"] is False
    nine = bench_pairs.summarize(_runs(parent[:9], [0.5] * 9), METRICS)["summary"]["solve_s"]
    assert nine["change_better_in"] == "9/9" and nine["gain_established"] is False
    # a gap within the parent's spread is no gain, however many pairs it wins
    near = bench_pairs.summarize(_runs(parent, [p - 0.01 for p in parent]), METRICS)
    assert near["summary"]["solve_s"]["change_better_in"] == "10/10"
    assert near["summary"]["solve_s"]["gain_established"] is False
