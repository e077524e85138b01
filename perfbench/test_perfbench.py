"""Tests of the benchmark itself: failure accounting, the printer, tracing.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run as bench  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, bench.SRC)
import trdecomp as td  # noqa: E402


@pytest.fixture(scope="module")
def small():
    x, _ = td.synth_tensor(td.SynthSpec(order=3, dim=5, rank=2, seed=1))
    return x


def _cfg(**kw):
    return td.SolverConfig(ranks=(2, 2, 2), seed=0, **kw)


def _raises(x, cfg):
    raise np.linalg.LinAlgError("SVD did not converge")


def _nan_cores(x, cfg):
    cores, trace = td.tr_als(x, cfg)
    cores[0] = cores[0].copy()
    cores[0][0, 0, 0] = np.nan
    return cores, trace


def test_each_failure_counts_once(small):
    runs = [
        workloads.Run("raises", _raises, _cfg(max_iters=2), workloads._no_check),
        workloads.Run("nan", _nan_cores, _cfg(max_iters=2), workloads._no_check),
        workloads.Run("misses", td.tr_als, _cfg(max_iters=1, rse_tol=1e-30),
                      workloads._ends_with_tol),
        workloads.Run("ok", td.tr_als, _cfg(max_iters=3), workloads._als_monotone),
    ]
    out = worker.summarize_passes(workloads.WORKLOADS["dense-1m"],
                                  [worker.run_pass(runs, small, td)])
    assert out["attempted"] == 4
    assert out["failed"] == 3
    assert out["runs_failed_share"] == 0.75
    reasons = {r["label"]: r["failure"] for r in out["runs"]}
    assert reasons["raises"].startswith("raised LinAlgError")
    assert reasons["nan"] == "non-finite"
    assert reasons["misses"].startswith("missed target")
    assert reasons["ok"] is None
    assert sum(out["failures"].values()) == 3
    assert out["correct"]


def test_nan_rse_is_non_finite_even_without_divergence_flag(small):
    cores, trace = td.tr_als(small, _cfg(max_iters=1))
    trace.records[-1] = (1, 0.0, float("nan"))
    assert not trace.diverged
    assert workloads.failure_reason(trace, cores, workloads._no_check) == "non-finite"


def test_disagreeing_rse_is_incorrect_not_failed(small):
    out = worker.summarize_passes(workloads.WORKLOADS["dense-1m"], [[
        {"label": "a", "wall_s": 1.0, "rse": 0.5, "failure": None,
         "error": workloads.rse_disagreement(0.5, 0.6)}]])
    assert out["failed"] == 0 and not out["correct"]


def _fake_result(trace: bool) -> dict:
    w = workloads.WORKLOADS["paper-k1e4"]
    res = {"workload": w, "seed": 2, "env": {}, "errors": [], "correct": True,
           "attempted": 6, "failed": 0, "runs_failed_share": 0.0, "passes": 1, "pass_s": [3.2],
           "setup_samples": [0.4], "setup_s": 0.4, "solve_s": 3.2, "peak_rss_mb": 60.5,
           "runs": [{"label": "TR-ALS", "iterations": 3, "rse": 1e-9, "wall_s": 0.1,
                     "terminal_reason": "tol", "failure": None}]}
    if trace:
        res.update(layers={k: 1.5 for k in bench.PER_LAYER}, breakdown={"solvers.run": 1.0},
                   traced_passes=1, spans=10, spans_file="spans.csv.gz")
    return res


@pytest.mark.parametrize("trace", [False, True])
def test_printer_emits_every_metric_with_unit(capsys, trace):
    result = bench.report(_fake_result(trace), 10, trace)
    lines = capsys.readouterr().out.splitlines()
    expected = bench.PER_LAYER if trace else bench.REPORTED
    for name, unit in expected.items():
        assert any(ln.split()[:1] == [name] and ln.split()[-1] == unit for ln in lines), name
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(bench.PER_LAYER if trace else bench.END_TO_END)


def test_benchmark_json_matches_the_printer():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_self_time_subtracts_direct_children():
    spans = [["run", 0.0, 10.0, None, 0], ["a", 1.0, 5.0, 0, 0],
             ["b", 2.0, 3.0, 1, 0], ["c", 6.0, 7.0, 0, 0]]
    assert tracing.self_times(spans) == [5.0, 3.0, 1.0, 1.0]
    assert tracing.by_name(spans)["a"] == (1, 3.0)


def test_tracer_restores_the_package(small):
    originals = [getattr(getattr(td, m), a) for m, a, _ in tracing.SPAN_POINTS]
    tracer = tracing.Tracer()
    cfg = _cfg(max_iters=4, batch_grad=5, batch_hess=5, damping=1e-8,
               sampling=td.SamplingSpec("leverage"))
    plain = td.tr_scaled_brsgd(small, cfg)[1].records
    with tracer.installed(td), tracer.run():
        traced = td.tr_scaled_brsgd(small, cfg)[1].records
    assert [getattr(getattr(td, m), a) for m, a, _ in tracing.SPAN_POINTS] == originals
    assert [r[2] for r in traced] == [r[2] for r in plain]
    names = {s[tracing.NAME] for s in tracer.spans}
    assert {"sampling.draw", "sampling.dist", "solvers.grad", "core.reconstruct"} <= names
    assert tracer.counts["sampling.dist_cores_computed"] == 4 * 2
