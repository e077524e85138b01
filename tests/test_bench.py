import json

import numpy as np
import pytest

from trdecomp.bench import (
    ConfigError,
    _summary_csv,
    display_name,
    emit_summary,
    load_config,
    run_experiment,
    solver_config,
    summarize,
)
from trdecomp.trace import (
    RunTrace,
    parse_trace_csv,
    read_trace_csv,
    render_trace_csv,
    trace_filename,
    write_trace_csv,
)


def counting_clock():
    state = {"t": 0.0}

    def clock():
        state["t"] += 1.0
        return state["t"]

    return clock


BASE_CONFIG = {
    "tensor": {"synth": {"order": 3, "dim": 8, "rank": 2, "seed": 3}},
    "algorithms": ["tr-als", "tr-brsgd"],
    "sampling": ["uniform", "leverage"],
    "solver": {
        "ranks": [2, 2, 2],
        "step": {"kind": "constant", "alpha": 0.05},
        "batch_grad": 10,
        "max_iters": 5,
    },
    "trials": 2,
    "seed": 9,
}


class TestTraceCsv:
    def test_roundtrip_bitwise(self):
        records = [
            (0, 0.0, 1.4142135623730951),
            (3, 0.1 + 0.2, 1e-300),
            (7, 123.456789012345678, np.pi * 1e-15),
        ]
        trace = RunTrace("tr-brsgd", "leverage", records, "max_iters", trial=4)
        back = parse_trace_csv(render_trace_csv(trace))
        assert back.records == records  # float64-exact via 17 digit rendering
        assert back.algorithm == "tr-brsgd"
        assert back.sampling == "leverage"
        assert back.terminal_reason == "max_iters"
        assert back.trial == 4
        assert back.diverged is False

    def test_diverged_reads_the_terminal_reason(self):
        # the metadata's diverged= is written for readers of the file and
        # ignored on parsing: a run diverged exactly when it stopped so
        for reason, flag in (("diverged", 0), ("max_iters", 1), ("tol", 1)):
            text = (f"# algorithm=tr-gd;sampling=none;trial=0;"
                    f"terminal_reason={reason};diverged={flag}\n"
                    "iteration,elapsed_s,rse\n0,0,1\n")
            back = parse_trace_csv(text)
            assert back.diverged == (reason == "diverged")
        trace = RunTrace("tr-gd", "none", [(0, 0.0, float("nan"))], "diverged")
        assert "diverged=1" in render_trace_csv(trace).splitlines()[0]

    def test_file_roundtrip(self, tmp_path):
        trace = RunTrace("tr-als", "none", [(0, 0.0, 0.5)], "tol")
        path = tmp_path / trace_filename("tr-als", "none", 0)
        write_trace_csv(trace, path)
        back = read_trace_csv(path)
        assert back.records == trace.records
        assert back.terminal_reason == "tol"

    def test_filename_scheme(self):
        assert trace_filename("tr-brsgd", "euclidean", 3) == "tr-brsgd-euclidean-t3.csv"


class TestSummaries:
    def test_single_trace(self):
        trace = RunTrace("tr-als", "none", [(0, 0.0, 1.0), (4, 2.0, 0.25)], "tol")
        rows = summarize([trace])
        assert rows == [{
            "algorithm": "TR-ALS", "rse": 0.25, "iterations": 4.0,
            "time_s": 2.0, "trials": 1, "diverged": 0,
        }]

    def test_mean_over_trials(self):
        t1 = RunTrace("tr-brsgd", "uniform", [(10, 1.0, 0.2)], "max_iters", trial=0)
        t2 = RunTrace("tr-brsgd", "uniform", [(10, 3.0, 0.4)], "max_iters", trial=1)
        rows = summarize([t1, t2])
        assert rows[0]["rse"] == pytest.approx(0.3)
        assert rows[0]["time_s"] == pytest.approx(2.0)
        assert rows[0]["trials"] == 2

    def test_diverged_trials_counted_not_averaged(self, tmp_path):
        nan = float("nan")
        traces = [
            RunTrace("tr-brsgd", "uniform", [(10, 1.0, 0.25)], "max_iters", trial=0),
            RunTrace("tr-brsgd", "uniform", [(4, 9.0, nan)], "diverged", trial=1),
            RunTrace("tr-brsgd", "uniform", [(10, 3.0, 0.75)], "max_iters", trial=2),
            RunTrace("tr-gd", "none", [(10, 1.0, nan)], "diverged", trial=0),
            RunTrace("tr-gd", "none", [(20, 2.0, nan)], "diverged", trial=1),
        ]
        gd, brsgd = summarize(traces)
        assert (brsgd["rse"], brsgd["iterations"], brsgd["time_s"]) == (0.5, 10.0, 2.0)
        assert (brsgd["trials"], brsgd["diverged"]) == (3, 1)
        assert gd == {"algorithm": "TR-GD", "rse": None, "iterations": None,
                      "time_s": None, "trials": 2, "diverged": 2}
        md, _ = emit_summary(traces)
        assert "| TR-GD | - | - | - | 2/2 |" in md
        assert "| TR-BRSGD-U | 5.000e-01 | 1.000e+01 | 2.000e+00 | 1/3 |" in md
        assert "nan" not in md
        assert _summary_csv(summarize(traces), False).splitlines()[1:] == [
            "algorithm,rse,iterations,time_s,trials,diverged",
            "TR-GD,,,,2,2",
            "TR-BRSGD-U,0.5,10,2,3,1",
        ]

    def test_canonical_row_order(self):
        traces = []
        for algo in ("tr-scaled-brsgd", "tr-brsgd"):
            for samp in ("leverage", "euclidean", "uniform"):
                traces.append(RunTrace(algo, samp, [(1, 0.0, 0.1)], "max_iters"))
        for algo in ("tr-scaled-gd", "tr-gd", "tr-als"):
            traces.append(RunTrace(algo, "none", [(1, 0.0, 0.1)], "max_iters"))
        rows = summarize(traces)
        assert [r["algorithm"] for r in rows] == [
            "TR-ALS", "TR-GD", "TR-ScaledGD",
            "TR-BRSGD-U", "TR-BRSGD-E", "TR-BRSGD-L",
            "TR-ScaledBRSGD-U", "TR-ScaledBRSGD-E", "TR-ScaledBRSGD-L",
        ]

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_markdown_notes_timing_choice(self):
        trace = RunTrace("tr-als", "none", [(1, 0.0, 0.1)], "max_iters")
        md, _ = emit_summary([trace], time_includes_eval=True)
        assert "includes" in md
        md, _ = emit_summary([trace], time_includes_eval=False)
        assert "excludes" in md

    def test_display_names(self):
        assert display_name("tr-als", "none") == "TR-ALS"
        assert display_name("tr-brsgd", "uniform") == "TR-BRSGD-U"
        assert display_name("tr-scaled-brsgd", "leverage") == "TR-ScaledBRSGD-L"


class TestConfig:
    def test_missing_keys(self):
        with pytest.raises(ConfigError):
            load_config({"algorithms": ["tr-als"]})

    def test_unknown_algorithm(self):
        cfg = dict(BASE_CONFIG, algorithms=["tr-magic"])
        with pytest.raises(ConfigError):
            load_config(cfg)

    def test_unknown_sampling(self):
        cfg = dict(BASE_CONFIG, sampling=["sideways"])
        with pytest.raises(ConfigError):
            load_config(cfg)

    def test_optimal_rejected(self):
        cfg = dict(BASE_CONFIG, sampling=["optimal"])
        with pytest.raises(ConfigError):
            load_config(cfg)

    def test_not_an_object(self):
        with pytest.raises(ConfigError, match="JSON object"):
            load_config("[1, 2]")

    def test_unknown_top_level_key(self):
        cfg = dict(BASE_CONFIG, trails=5)
        with pytest.raises(ConfigError, match="'trails'"):
            load_config(cfg)

    @pytest.mark.parametrize("key, value", [
        ("recompute", "sweep"), ("batchgrad", 50), ("share_hessian_batch", True)])
    def test_unknown_solver_key(self, key, value):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            solver_config(dict(BASE_CONFIG["solver"], **{key: value}), "uniform", 0)

    @pytest.mark.parametrize("step, bad", [
        ({"kind": "constant", "alpha": 0.7, "gamma": 0.7}, "gamma"),
        ({"alpha": 0.1, "eta": 0.1}, "eta"),
        ({"kind": "robbins_monro", "alpha0": 0.1, "alpha": 0.1}, "alpha"),
        ({"kind": "adagrad", "eta": 0.1, "gamma": 1.0}, "gamma"),
    ])
    def test_step_key_the_kind_does_not_take(self, step, bad):
        solver = dict(BASE_CONFIG["solver"], step=step)
        with pytest.raises(ConfigError, match=f"'{bad}'"):
            solver_config(solver, "uniform", 0)

    def test_every_step_key_accepted(self):
        for step in ({"kind": "constant", "alpha": 0.1},
                     {"kind": "robbins_monro", "alpha0": 0.1, "gamma": 0.75},
                     {"kind": "adagrad", "eta": 0.1, "b": 1.0, "eps": 0.1}):
            solver_config(dict(BASE_CONFIG["solver"], step=step), "uniform", 0)

    def test_unknown_solver_key_fails_the_run(self, tmp_path):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["solver"]["recompute"] = "sweep"
        with pytest.raises(ConfigError, match="'recompute'"):
            run_experiment(cfg, tmp_path / "r", clock=counting_clock())
        assert not list((tmp_path / "r").glob("*.csv"))

    def test_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(BASE_CONFIG))
        cfg = load_config(str(path))
        assert cfg["trials"] == 2

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(str(path))


class TestRunExperiment:
    def test_grid_outputs(self, tmp_path):
        out = tmp_path / "run"
        traces = run_experiment(BASE_CONFIG, out, clock=counting_clock())
        # tr-als ignores sampling (2 trials); tr-brsgd runs 2 samplings x 2 trials
        assert len(traces) == 2 + 4
        assert (out / "tr-als-none-t0.csv").exists()
        assert (out / "tr-als-none-t1.csv").exists()
        assert (out / "tr-brsgd-uniform-t0.csv").exists()
        assert (out / "tr-brsgd-leverage-t1.csv").exists()
        assert (out / "summary.csv").exists()
        assert (out / "summary.md").exists()
        assert (out / "config.json").exists()
        assert (out / "meta.json").exists()
        summary = (out / "summary.csv").read_text()
        assert summary.startswith("# time_includes_eval=0")
        assert "TR-BRSGD-U" in summary

    def test_max_iters_bounds_records(self, tmp_path):
        traces = run_experiment(BASE_CONFIG, tmp_path / "r", clock=counting_clock())
        for tr in traces:
            assert tr.final()[0] <= 5
            assert tr.terminal_reason == "max_iters"

    def test_tol_termination(self, tmp_path):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["algorithms"] = ["tr-als"]
        cfg["solver"]["max_iters"] = 50
        cfg["solver"]["rse_tol"] = 0.5  # any progressing sweep crosses this
        cfg["trials"] = 1
        traces = run_experiment(cfg, tmp_path / "r", clock=counting_clock())
        assert traces[0].terminal_reason == "tol"
        assert traces[0].final()[2] <= 0.5

    def test_max_time_zero(self, tmp_path):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["solver"]["max_iters"] = None
        cfg["solver"]["max_seconds"] = 0.0
        cfg["trials"] = 1
        traces = run_experiment(cfg, tmp_path / "r", clock=counting_clock())
        for tr in traces:
            assert tr.terminal_reason == "max_time"
            assert tr.final()[0] == 0

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_experiment(BASE_CONFIG, out1, clock=counting_clock())
        run_experiment(BASE_CONFIG, out2, clock=counting_clock())
        names = sorted(p.name for p in out1.glob("*.csv"))
        assert names
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_full_grid_structure(self, tmp_path):
        cfg = {
            "tensor": {"synth": {"order": 3, "dim": 6, "rank": 2, "seed": 1}},
            "algorithms": ["tr-als", "tr-gd", "tr-scaled-gd",
                           "tr-brsgd", "tr-scaled-brsgd"],
            "sampling": ["uniform", "euclidean", "leverage"],
            "solver": {"ranks": [2, 2, 2],
                       "step": {"kind": "constant", "alpha": 0.02},
                       "batch_grad": 8, "batch_hess": 8, "damping": 1e-6,
                       "max_iters": 3},
            "trials": 1,
            "seed": 4,
        }
        traces = run_experiment(cfg, tmp_path / "grid", clock=counting_clock())
        # 3 deterministic cells plus 2 stochastic algorithms x 3 samplings
        assert len(traces) == 3 + 6
        rows = summarize(traces)
        assert [r["algorithm"] for r in rows] == [
            "TR-ALS", "TR-GD", "TR-ScaledGD",
            "TR-BRSGD-U", "TR-BRSGD-E", "TR-BRSGD-L",
            "TR-ScaledBRSGD-U", "TR-ScaledBRSGD-E", "TR-ScaledBRSGD-L",
        ]
        for tr in traces:
            its = [r[0] for r in tr.records]
            els = [r[1] for r in tr.records]
            assert its == sorted(set(its))  # strictly increasing
            assert all(b >= a for a, b in zip(els, els[1:]))

    def test_real_clock_rse_columns_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_experiment(BASE_CONFIG, out1)
        run_experiment(BASE_CONFIG, out2)
        for p1 in sorted(out1.glob("*-t*.csv")):
            t1 = read_trace_csv(p1)
            t2 = read_trace_csv(out2 / p1.name)
            assert [(r[0], r[2]) for r in t1.records] == [
                (r[0], r[2]) for r in t2.records]
