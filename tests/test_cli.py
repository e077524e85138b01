import json

import numpy as np

from trdecomp.cli import main
from trdecomp.tensorfile import read_tensor
from trdecomp.trace import read_trace_csv


def test_synth_writes_tensor(tmp_path, capsys):
    out = tmp_path / "x.trt"
    rc = main(["synth", "--order", "3", "--dim", "6", "--rank", "2",
               "--seed", "4", "--out", str(out)])
    assert rc == 0
    x = read_tensor(out)
    assert x.shape == (6, 6, 6)


def test_synth_ill_conditioned_validation(tmp_path, capsys):
    rc = main(["synth", "--dim", "3", "--rank", "2", "--kind", "ill_conditioned",
               "--kappa", "100", "--out", str(tmp_path / "x.trt")])
    assert rc == 2  # dim < rank^2


def test_decompose(tmp_path, capsys):
    tensor_path = tmp_path / "x.trt"
    main(["synth", "--order", "3", "--dim", "8", "--rank", "2", "--seed", "1",
          "--out", str(tensor_path)])
    out_dir = tmp_path / "run"
    rc = main(["decompose", "--tensor", str(tensor_path), "--algorithm", "tr-als",
               "--out-dir", str(out_dir), "--ranks", "2", "2", "2",
               "--max-iters", "30", "--rse-tol", "1e-9", "--seed", "0"])
    assert rc == 0
    trace = read_trace_csv(out_dir / "tr-als-none-t0.csv")
    assert trace.terminal_reason in ("tol", "max_iters")
    cores = np.load(out_dir / "cores.npz")
    assert {k for k in cores.files} == {"core0", "core1", "core2"}
    assert cores["core0"].shape == (2, 8, 2)


def test_decompose_missing_tensor(tmp_path):
    rc = main(["decompose", "--tensor", str(tmp_path / "absent.trt"),
               "--algorithm", "tr-als", "--out-dir", str(tmp_path / "o"),
               "--ranks", "2", "2", "--max-iters", "1"])
    assert rc == 2


def test_benchmark_and_report(tmp_path, capsys):
    cfg = {
        "tensor": {"synth": {"order": 3, "dim": 8, "rank": 2, "seed": 3}},
        "algorithms": ["tr-als", "tr-brsgd"],
        "sampling": ["uniform"],
        "solver": {"ranks": [2, 2, 2], "step": {"kind": "constant", "alpha": 0.05},
                   "batch_grad": 10, "max_iters": 4},
        "trials": 1,
        "seed": 2,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "bench"
    rc = main(["benchmark", "--config", str(cfg_path), "--out-dir", str(out_dir)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "TR-ALS" in printed and "TR-BRSGD-U" in printed

    rc = main(["report", "--traces", str(out_dir)])
    assert rc == 0
    assert "TR-BRSGD-U" in capsys.readouterr().out


def test_benchmark_override(tmp_path, capsys):
    cfg = {
        "tensor": {"synth": {"order": 3, "dim": 6, "rank": 2, "seed": 3}},
        "algorithms": ["tr-als"],
        "solver": {"ranks": [2, 2, 2], "max_iters": 10},
        "trials": 1,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "bench"
    rc = main(["benchmark", "--config", str(cfg_path), "--out-dir", str(out_dir),
               "--set", "solver.max_iters=2"])
    assert rc == 0
    trace = read_trace_csv(out_dir / "tr-als-none-t0.csv")
    assert trace.final()[0] == 2


def test_benchmark_rejects_removed_solver_key(tmp_path, capsys):
    cfg = {
        "tensor": {"synth": {"order": 3, "dim": 6, "rank": 2, "seed": 3}},
        "algorithms": ["tr-scaled-brsgd"],
        "solver": {"ranks": [2, 2, 2], "max_iters": 2},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["benchmark", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o"),
               "--set", "solver.share_hessian_batch=true"])
    assert rc == 2
    assert "share_hessian_batch" in capsys.readouterr().err
    cfg["trails"] = 5
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["benchmark", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    assert "trails" in capsys.readouterr().err


def test_benchmark_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{broken")
    rc = main(["benchmark", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")])
    assert rc == 2


def test_report_empty_dir(tmp_path):
    rc = main(["report", "--traces", str(tmp_path)])
    assert rc == 2


def test_divergence_exit_code(tmp_path, capsys):
    tensor_path = tmp_path / "x.trt"
    main(["synth", "--order", "3", "--dim", "8", "--rank", "2", "--seed", "1",
          "--out", str(tensor_path)])
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["decompose", "--tensor", str(tensor_path),
                   "--algorithm", "tr-brsgd", "--out-dir", str(tmp_path / "o"),
                   "--ranks", "2", "2", "2", "--alpha", "1e8",
                   "--batch-grad", "5", "--max-iters", "20", "--seed", "0"])
    assert rc == 3


def test_non_finite_run_exit_code(tmp_path, capsys):
    tensor_path = tmp_path / "x.trt"
    main(["synth", "--order", "3", "--dim", "25", "--rank", "3", "--kind",
          "ill_conditioned", "--kappa", "1e4", "--seed", "2", "--out", str(tensor_path)])
    out_dir = tmp_path / "o"
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["decompose", "--tensor", str(tensor_path), "--algorithm", "tr-gd",
                   "--out-dir", str(out_dir), "--ranks", "3", "3", "3", "--alpha", "0.1",
                   "--eval-every", "10", "--max-iters", "30", "--seed", "0"])
    assert rc == 3
    trace = read_trace_csv(out_dir / "tr-gd-none-t0.csv")
    assert trace.terminal_reason == "diverged" and trace.diverged
    assert trace.final()[0] == 10


def test_non_finite_stochastic_run_exit_code(tmp_path, capsys):
    # a leverage run whose core goes non-finite between evaluations stops as
    # diverged instead of raising from the next leverage SVD
    tensor_path = tmp_path / "x.trt"
    main(["synth", "--order", "3", "--dim", "8", "--rank", "2", "--seed", "15",
          "--out", str(tensor_path)])
    out_dir = tmp_path / "o"
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["decompose", "--tensor", str(tensor_path), "--algorithm", "tr-brsgd",
                   "--sampling", "leverage", "--out-dir", str(out_dir),
                   "--ranks", "2", "2", "2", "--alpha", "1e6", "--batch-grad", "10",
                   "--eval-every", "100", "--max-iters", "300", "--seed", "7"])
    assert rc == 3
    trace = read_trace_csv(out_dir / "tr-brsgd-leverage-t0.csv")
    assert trace.terminal_reason == "diverged"
    assert trace.final()[0] < 100
