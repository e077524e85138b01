import dataclasses
import json
import re
import shlex
import typing
from pathlib import Path

import numpy as np
import pytest

from trdecomp.bench import STEP_KINDS, run_experiment, solver_config
from trdecomp.cli import _solver_dict, build_parser, main
from trdecomp.datagen import SynthSpec, synth_tensor
from trdecomp.solvers import SolverConfig
from trdecomp.tensorfile import MAGIC, read_tensor, write_tensor
from trdecomp.trace import read_trace_csv


def test_synth_writes_tensor(tmp_path, capsys):
    out = tmp_path / "x.trt"
    rc = main(["synth", "--order", "3", "--dim", "6", "--rank", "2",
               "--seed", "4", "--out", str(out)])
    assert rc == 0
    x = read_tensor(out)
    assert x.shape == (6, 6, 6)


def test_synth_ill_conditioned_validation(tmp_path, capsys):
    rc = main(["synth", "--order", "3", "--dim", "3", "--rank", "2", "--kind",
               "ill_conditioned", "--kappa", "100", "--out", str(tmp_path / "x.trt")])
    assert rc == 2  # dim < rank^2
    assert "dim >= rank^2" in capsys.readouterr().err


def test_synth_refuses_a_nan_kappa(tmp_path, capsys):
    out = tmp_path / "x.trt"
    rc = main(["synth", "--order", "3", "--dim", "4", "--rank", "2", "--kind",
               "ill_conditioned", "--kappa", "nan", "--out", str(out)])
    assert rc == 2
    assert "condition number must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_synth_refuses_a_bad_kappa_for_a_gaussian_tensor(tmp_path, capsys):
    out = tmp_path / "k.trt"
    rc = main(["synth", "--order", "3", "--dim", "4", "--rank", "2", "--kind",
               "gaussian", "--kappa", "-5", "--out", str(out)])
    assert rc == 2
    assert "condition number must be >= 1" in capsys.readouterr().err
    assert not out.exists()


SYNTH_FIELDS = dataclasses.fields(SynthSpec)


@pytest.mark.parametrize("field", SYNTH_FIELDS, ids=[f.name for f in SYNTH_FIELDS])
def test_every_synth_field_is_a_flag(field):
    # the synth flags are SynthSpec's fields: required exactly where the field
    # has no default, and a flag left out takes the field's default
    required = {"order": "4", "dim": "9", "rank": "3"}
    argv = ["synth", "--out", "x.trt"]
    for name, value in required.items():
        if name != field.name:
            argv += [_flag(name), value]
    if field.default is dataclasses.MISSING:
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        argv += [_flag(field.name), required[field.name]]
        assert getattr(build_parser().parse_args(argv), field.name) == int(required[field.name])
    else:
        assert field.name not in vars(build_parser().parse_args(argv))
        value = {"kind": "ill_conditioned", "kappa": "10.5", "seed": "7"}[field.name]
        args = build_parser().parse_args(argv + [_flag(field.name), value])
        assert str(getattr(args, field.name)) == value


def test_synth_flags_build_the_spec_a_config_does(tmp_path, capsys):
    out = tmp_path / "x.trt"
    rc = main(["synth", "--order", "3", "--dim", "9", "--rank", "3", "--kind",
               "ill_conditioned", "--kappa", "10", "--seed", "4", "--out", str(out)])
    assert rc == 0
    expected, _ = synth_tensor(SynthSpec(order=3, dim=9, rank=3, kind="ill_conditioned",
                                         kappa=10.0, seed=4))
    np.testing.assert_array_equal(read_tensor(out), expected)


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
    assert f"evaluating every {trace.eval_every}" in capsys.readouterr().out
    cores = np.load(out_dir / "cores.npz")
    assert {k for k in cores.files} == {"core0", "core1", "core2"}
    assert cores["core0"].shape == (2, 8, 2)


def test_a_failed_cores_save_leaves_the_earlier_file(tmp_path, monkeypatch):
    tensor_path = tmp_path / "x.trt"
    main(["synth", "--order", "3", "--dim", "6", "--rank", "2", "--seed", "1",
          "--out", str(tensor_path)])
    out_dir = tmp_path / "run"
    argv = ["decompose", "--tensor", str(tensor_path), "--algorithm", "tr-als",
            "--out-dir", str(out_dir), "--ranks", "2", "2", "2", "--max-iters", "3"]
    assert main([*argv, "--seed", "0"]) == 0
    first = (out_dir / "cores.npz").read_bytes()
    write_array = np.lib.format.write_array
    written = []

    def fail_after_one(fid, array, **kw):
        # the first core goes out whole, then the save fails part-way
        if written:
            raise OSError(28, "No space left on device")
        written.append(array)
        write_array(fid, array, **kw)

    monkeypatch.setattr(np.lib.format, "write_array", fail_after_one)
    with pytest.raises(OSError, match="No space"):
        main([*argv, "--seed", "1"])
    assert len(written) == 1
    assert (out_dir / "cores.npz").read_bytes() == first
    assert not list(out_dir.glob(".tmp-*"))


def test_decompose_missing_tensor(tmp_path):
    rc = main(["decompose", "--tensor", str(tmp_path / "absent.trt"),
               "--algorithm", "tr-als", "--out-dir", str(tmp_path / "o"),
               "--ranks", "2", "2", "--max-iters", "1"])
    assert rc == 2


def test_malformed_tensor_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "x.trt"
    path.write_bytes(MAGIC + b"\x01")
    rc = main(["decompose", "--tensor", str(path), "--algorithm", "tr-als",
               "--out-dir", str(tmp_path / "o"), "--ranks", "2", "2", "--max-iters", "1"])
    assert rc == 2
    cfg = {"tensor": {"file": str(path)}, "algorithms": ["tr-als"],
           "solver": {"ranks": [2, 2], "max_iters": 1}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["benchmark", "--config", str(cfg_path), "--out-dir", str(tmp_path / "b")])
    assert rc == 2
    assert capsys.readouterr().err.count("truncated header") == 2


@pytest.mark.parametrize("x", [np.zeros((3, 0, 2)), np.full((3, 4, 2), np.nan),
                               np.full((3, 4, 2), 1e200)],
                         ids=["empty-mode", "nan", "norm-overflows"])
@pytest.mark.parametrize("algorithm", ["tr-als", "tr-brsgd"])
def test_decompose_rejects_a_tensor_no_run_can_fit(tmp_path, capsys, x, algorithm):
    path = tmp_path / "x.trt"
    write_tensor(path, x)
    out_dir = tmp_path / "o"
    rc = main(["decompose", "--tensor", str(path), "--algorithm", algorithm,
               "--out-dir", str(out_dir), "--ranks", "2", "2", "2", "--max-iters", "3"])
    assert rc == 2
    assert "cannot fit" in capsys.readouterr().err
    assert not out_dir.exists()


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

    report = tmp_path / "report.md"
    rc = main(["report", "--traces", str(out_dir), "--out", str(report)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "TR-BRSGD-U" in printed and "| Eval (s) |" in printed
    assert report.read_text(encoding="utf-8") == printed


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


def test_benchmark_checks_the_config_once_overridden(tmp_path, capsys):
    cfg = {
        "tensor": {"synth": {"order": 3, "dim": 6, "rank": 2, "seed": 3}},
        "algorithms": ["tr-als"],
        "solver": {"ranks": [2, 2, 2], "max_iters": 2},
        "trials": 0,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "bench"
    rc = main(["benchmark", "--config", str(cfg_path), "--out-dir", str(out_dir),
               "--set", "trials=1"])
    assert rc == 0
    assert [p.name for p in out_dir.glob("*-t*.csv")] == ["tr-als-none-t0.csv"]
    capsys.readouterr()
    rc = main(["benchmark", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    assert "trials must be >= 1" in capsys.readouterr().err
    cfg_path.write_text('{"tensor": ')
    rc = main(["benchmark", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o"),
               "--set", "trials=1"])
    assert rc == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_benchmark_trials_and_seed_are_config_overrides(tmp_path, capsys):
    # trials and seed are set like any other config entry; they have no flags
    cfg = {
        "tensor": {"synth": {"order": 3, "dim": 6, "rank": 2, "seed": 3}},
        "algorithms": ["tr-als", "tr-brsgd"],
        "sampling": ["uniform"],
        "solver": {"ranks": [2, 2, 2], "batch_grad": 5, "max_iters": 4, "eval_every": 1},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "bench"
    rc = main(["benchmark", "--config", str(cfg_path), "--out-dir", str(out_dir),
               "--set", "trials=2", "--set", "seed=4"])
    assert rc == 0
    assert sorted(p.name for p in out_dir.glob("*-t*.csv")) == [
        "tr-als-none-t0.csv", "tr-als-none-t1.csv",
        "tr-brsgd-uniform-t0.csv", "tr-brsgd-uniform-t1.csv"]

    def rses(out):
        return [[r[2] for r in read_trace_csv(out / f"tr-brsgd-uniform-t{t}.csv").records]
                for t in (0, 1)]

    reference = tmp_path / "ref"
    run_experiment({**cfg, "trials": 2, "seed": 4}, reference)
    assert rses(out_dir) == rses(reference)
    run_experiment({**cfg, "trials": 2}, tmp_path / "seed0")
    assert rses(out_dir) != rses(tmp_path / "seed0")

    for flag in ("--trials", "--seed"):
        with pytest.raises(SystemExit) as exc:
            main(["benchmark", "--config", str(cfg_path), "--out-dir", str(out_dir),
                  flag, "2"])
        assert exc.value.code == 2


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


def test_benchmark_rejects_misspelt_synth_key(tmp_path, capsys):
    cfg = {
        "tensor": {"synth": {"order": 3, "dim": 9, "rank": 3, "kind": "ill_conditioned",
                             "kapa": 1e4, "seed": 2}},
        "algorithms": ["tr-als"],
        "solver": {"ranks": [3, 3, 3], "max_iters": 2},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["benchmark", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    assert "kapa" in capsys.readouterr().err
    assert not list((tmp_path / "o").glob("*.csv"))


def test_decompose_rejects_a_directory_as_tensor(tmp_path, capsys):
    rc = main(["decompose", "--tensor", str(tmp_path), "--algorithm", "tr-als",
               "--out-dir", str(tmp_path / "o"), "--ranks", "2", "2", "--max-iters", "1"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_benchmark_rejects_a_directory_as_config(tmp_path, capsys):
    rc = main(["benchmark", "--config", str(tmp_path), "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_benchmark_with_a_bad_solver_block_leaves_no_out_dir(tmp_path, capsys):
    cfg_path = _config_file(tmp_path, {
        "tensor": {"synth": {"order": 3, "dim": 4, "rank": 2, "seed": 3}},
        "algorithms": ["tr-als"], "solver": {"ranks": [2, 2, 2], "max_iters": 2},
    })
    out_dir = tmp_path / "o"
    rc = main(["benchmark", "--config", str(cfg_path), "--out-dir", str(out_dir),
               "--set", "solver.step.kind=newton"])
    assert rc == 2
    assert "unknown step kind 'newton'" in capsys.readouterr().err
    assert not out_dir.exists()


def test_benchmark_rejects_a_real_too_large_for_a_float(tmp_path, capsys):
    cfg_path = _config_file(tmp_path, {
        "tensor": {"synth": {"order": 3, "dim": 4, "rank": 2, "seed": 3}},
        "algorithms": ["tr-scaled-gd"],
        "solver": {"ranks": [2, 2, 2], "max_iters": 2, "damping": 10**400},
    })
    assert "1" + "0" * 400 in cfg_path.read_text()
    rc = main(["benchmark", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    assert "damping is too large for a float" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_benchmark_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{broken")
    rc = main(["benchmark", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")])
    assert rc == 2


def test_report_empty_dir(tmp_path):
    rc = main(["report", "--traces", str(tmp_path)])
    assert rc == 2


def test_report_rejects_a_misspelt_terminal_reason(tmp_path, capsys):
    (tmp_path / "tr-gd-none-t0.csv").write_text(
        "# algorithm=tr-gd;sampling=none;trial=0;terminal_reason=max_iter;diverged=0\n"
        "iteration,elapsed_s,rse\n0,0,1\n")
    rc = main(["report", "--traces", str(tmp_path)])
    assert rc == 2
    assert "unknown terminal_reason 'max_iter'" in capsys.readouterr().err


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
    # stopped at the iteration that overflowed, not at the next evaluation
    assert trace.final()[0] == 4


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


def _config_file(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("overrides, match", [
    (["solver.damping=0", "solver.batch_hess=3"], "batch_hess=3 is below"),
    (["solver.ranks=[2,2]"], "2 ranks for an order-3 tensor"),
], ids=["singular-hessian-batch", "rank-count"])
def test_benchmark_checks_every_run_against_the_tensor_before_writing(tmp_path, capsys,
                                                                      overrides, match):
    # TR-ALS runs first and fits the batch sizes; TR-ScaledBRSGD at damping 0
    # does not, and a rank count that misses the order fits no run
    cfg_path = _config_file(tmp_path, {
        "tensor": {"synth": {"order": 3, "dim": 4, "rank": 2, "seed": 3}},
        "algorithms": ["tr-als", "tr-scaled-brsgd"],
        "solver": {"ranks": [2, 2, 2], "max_iters": 2, "damping": 1e-8, "batch_hess": 4},
    })
    argv = ["benchmark", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")]
    rc = main(argv + [arg for item in overrides for arg in ("--set", item)])
    assert rc == 2
    assert match in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    assert main(argv) == 0 and (tmp_path / "o" / "summary.csv").exists()


def test_benchmark_refuses_a_tensor_with_no_rse_before_writing(tmp_path, capsys):
    path = tmp_path / "zeros.trt"
    write_tensor(path, np.zeros((3, 3, 3)))
    cfg_path = _config_file(tmp_path, {
        "tensor": {"file": str(path)}, "algorithms": ["tr-als"],
        "solver": {"ranks": [2, 2, 2], "max_iters": 2},
    })
    rc = main(["benchmark", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    assert "RSE undefined" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_a_failed_solve_is_a_diverged_trial(tmp_path, capsys):
    # ranks above what the N=2 data supports make every Gram factor singular:
    # at damping 0 TR-ScaledGD has no Cholesky factor, and each trial stops as
    # diverged at its first step while the grid runs on and writes its summary
    cfg_path = _config_file(tmp_path, {
        "tensor": {"synth": {"order": 2, "dim": 3, "rank": 1, "seed": 10}},
        "algorithms": ["tr-als", "tr-scaled-gd"],
        "solver": {"ranks": [3, 3], "max_iters": 5},
        "trials": 2,
    })
    out_dir = tmp_path / "o"
    rc = main(["benchmark", "--config", str(cfg_path), "--out-dir", str(out_dir)])
    assert rc == 3
    summary = (out_dir / "summary.md").read_text(encoding="utf-8")
    assert re.search(r"^\| TR-ALS \|.* \| 0/2 \|$", summary, re.M)
    assert re.search(r"^\| TR-ScaledGD \| - \| - \| - \| - \| 2/2 \|$", summary, re.M)
    for trial in (0, 1):
        trace = read_trace_csv(out_dir / f"tr-scaled-gd-none-t{trial}.csv")
        assert trace.terminal_reason == "diverged"
        assert [r[0] for r in trace.records] == [0, 1]


def test_negative_seed_is_an_input_error(tmp_path, capsys):
    _tiny_tensor(tmp_path)
    rc = main(_decompose_argv(tmp_path, "--max-iters", "2", "--seed", "-1",
                              algorithm="tr-als"))
    assert rc == 2
    assert "seed must be >= 0, not -1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    cfg_path = _config_file(tmp_path, {
        "tensor": {"synth": {"order": 3, "dim": 4, "rank": 2, "seed": 3}},
        "algorithms": ["tr-als"], "solver": {"ranks": [2, 2, 2], "max_iters": 2},
        "seed": -5,
    })
    rc = main(["benchmark", "--config", str(cfg_path), "--out-dir", str(tmp_path / "b")])
    assert rc == 2
    assert "seed must be >= 0, not -5" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()
    rc = main(["synth", "--order", "3", "--dim", "4", "--rank", "2", "--seed", "-2",
               "--out", str(tmp_path / "y.trt")])
    assert rc == 2
    assert "seed must be >= 0, not -2" in capsys.readouterr().err


def test_scaled_brsgd_rejects_a_hessian_batch_that_cannot_be_factored(tmp_path, capsys):
    # at damping 0 a Hessian factor of batch_hess rows has rank <= batch_hess,
    # below the 2*2 = 4 of these ranks: no step could ever be solved
    _tiny_tensor(tmp_path)
    rc = main(_decompose_argv(tmp_path, "--max-iters", "2", algorithm="tr-scaled-brsgd"))
    assert rc == 2
    err = capsys.readouterr().err
    assert "batch_hess=1" in err and "damping=0" in err
    assert not (tmp_path / "o").exists()
    for flags in (["--damping", "1e-8"], ["--batch-hess", "4"]):
        rc = main(_decompose_argv(tmp_path, "--max-iters", "2", *flags,
                                  algorithm="tr-scaled-brsgd"))
        assert rc in (0, 3) and (tmp_path / "o").exists()


def test_missing_config_file_is_not_reported_as_bad_json(tmp_path, capsys):
    rc = main(["benchmark", "--config", str(tmp_path / "missing.json"),
               "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "No such file" in err and "JSON" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags, match", [
    (["--ranks", "2", "2"], "2 ranks for an order-3 tensor"),
    (["--ranks", "2", "0", "2"], "ranks must be positive"),
    (["--batch-grad", "0"], "batch sizes must be >= 1"),
    (["--batch-hess", "0"], "batch sizes must be >= 1"),
], ids=["rank-count", "rank-zero", "batch-grad-zero", "batch-hess-zero"])
def test_decompose_rejects_ranks_and_batch_sizes_no_run_can_use(tmp_path, capsys, flags,
                                                               match):
    _tiny_tensor(tmp_path)
    rc = main(_decompose_argv(tmp_path, "--max-iters", "2", *flags))
    assert rc == 2
    assert match in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_benchmark_override_syntax(tmp_path, capsys):
    cfg_path = _config_file(tmp_path, {
        "tensor": {"synth": {"order": 3, "dim": 4, "rank": 2, "seed": 3}},
        "algorithms": ["tr-als"], "solver": {"ranks": [2, 2, 2], "max_iters": 2},
    })
    out_dir = tmp_path / "o"

    def benchmark(*overrides):
        return main(["benchmark", "--config", str(cfg_path), "--out-dir", str(out_dir),
                     *(arg for item in overrides for arg in ("--set", item))])

    assert benchmark("trials") == 2
    assert "'trials' is not key=value" in capsys.readouterr().err
    assert benchmark("solver.step.kind=newton") == 2
    assert "unknown step kind 'newton'" in capsys.readouterr().err
    assert not list(out_dir.glob("*.csv"))
    # a value that is not JSON is kept as a string
    assert benchmark("solver.step.kind=robbins_monro", "solver.step.alpha0=0.5") == 0
    written = json.loads((out_dir / "config.json").read_text(encoding="utf-8"))
    assert written["solver"]["step"] == {"kind": "robbins_monro", "alpha0": 0.5}


@pytest.mark.parametrize("flags", [
    ["--rse-tol", "-1"], ["--rse-tol", "nan"], ["--max-iters", "-1"],
    ["--max-seconds", "-1"], ["--damping", "nan"], ["--damping=-1e-8"],
    ["--init-scale", "0"], ["--init-scale", "inf"], ["--alpha", "nan"],
    ["--eval-every", "0"]])
def test_decompose_rejects_bad_solver_values(tmp_path, capsys, flags):
    tensor_path = tmp_path / "x.trt"
    main(["synth", "--order", "3", "--dim", "6", "--rank", "2", "--seed", "1",
          "--out", str(tensor_path)])

    def decompose(out_dir, *extra):
        # a Hessian batch of 4 R_n*R_(n+1) rows factors at damping 0
        return main(["decompose", "--tensor", str(tensor_path), "--algorithm",
                     "tr-scaled-brsgd", "--out-dir", str(out_dir), "--ranks", "2", "2", "2",
                     "--batch-hess", "16", "--max-iters", "5", *extra])

    assert decompose(tmp_path / "ok") == 0
    capsys.readouterr()
    out_dir = tmp_path / "o"
    rc = decompose(out_dir, *flags)
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not out_dir.exists()


def test_time_includes_eval_rejected(tmp_path, capsys):
    for argv in (["decompose", "--tensor", "x.trt", "--algorithm", "tr-als",
                  "--out-dir", str(tmp_path), "--ranks", "2", "2",
                  "--time-includes-eval"],
                 ["report", "--traces", str(tmp_path), "--time-includes-eval"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    cfg = {
        "tensor": {"synth": {"order": 3, "dim": 6, "rank": 2, "seed": 3}},
        "algorithms": ["tr-als"],
        "solver": {"ranks": [2, 2, 2], "max_iters": 2},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["benchmark", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o"),
               "--set", "solver.time_includes_eval=true"])
    assert rc == 2
    assert "time_includes_eval" in capsys.readouterr().err


def _tiny_tensor(tmp_path):
    path = tmp_path / "x.trt"
    main(["synth", "--order", "3", "--dim", "4", "--rank", "2", "--seed", "1",
          "--out", str(path)])
    return path


def _decompose_argv(tmp_path, *flags, algorithm="tr-brsgd"):
    return ["decompose", "--tensor", str(tmp_path / "x.trt"), "--algorithm", algorithm,
            "--out-dir", str(tmp_path / "o"), "--ranks", "2", "2", "2", *flags]


# A value of each field type that differs from every default and that every
# field of that type accepts (gamma lies in (0.5, 1]).
def _sample_value(hint):
    return 7 if int in (hint, *typing.get_args(hint)) else 0.75


def _flag(name):
    return "--" + name.replace("_", "-")


def _settings_from_flags(*flags):
    args = build_parser().parse_args(
        ["decompose", "--tensor", "x.trt", "--algorithm", "tr-brsgd", "--out-dir", "o",
         *flags])
    return solver_config(_solver_dict(args), args.sampling, args.seed)


SOLVER_HINTS = typing.get_type_hints(SolverConfig)
SOLVER_FIELDS = [f.name for f in dataclasses.fields(SolverConfig)
                 if f.name not in ("sampling", "seed", "schedule")]


@pytest.mark.parametrize("name", SOLVER_FIELDS)
def test_every_solver_field_is_a_config_key_and_a_flag(name):
    if name == "ranks":
        value, flags = (2, 3, 4), ["--ranks", "2", "3", "4"]
    else:
        value = _sample_value(SOLVER_HINTS[name])
        flags = ["--ranks", "2", "2", "2", _flag(name), str(value)]
    block = {"ranks": [2, 2, 2], name: list(value) if name == "ranks" else value}
    assert getattr(solver_config(block, "uniform", 0), name) == value
    assert getattr(_settings_from_flags(*flags), name) == value


def test_every_step_class_is_a_step_kind():
    assert set(typing.get_args(SOLVER_HINTS["schedule"])) == set(STEP_KINDS.values())


@pytest.mark.parametrize("kind", list(STEP_KINDS))
def test_every_step_field_is_a_config_key_and_a_flag(kind):
    cls = STEP_KINDS[kind]
    values = {f.name: 0.75 for f in dataclasses.fields(cls)}
    block = {"ranks": [2, 2, 2], "step": {"kind": kind, **values}}
    assert solver_config(block, "uniform", 0).schedule == cls(**values)
    flags = [arg for name, v in values.items() for arg in (_flag(name), str(v))]
    settings = _settings_from_flags("--ranks", "2", "2", "2", "--step-kind", kind, *flags)
    assert settings.schedule == cls(**values)


@pytest.mark.parametrize("flags, match", [
    (["--step-kind", "adagrad", "--eta", "0.1", "--alpha", "0.5"], "'alpha'"),
    (["--step-kind", "robbins_monro"], "alpha0"),
    (["--alpha0", "0.1"], "'alpha0'"),
], ids=["alpha-with-adagrad", "robbins-monro-without-alpha0", "alpha0-with-constant"])
def test_decompose_rejects_a_step_flag_set_it_cannot_use(tmp_path, capsys, flags, match):
    _tiny_tensor(tmp_path)
    rc = main(_decompose_argv(tmp_path, "--max-iters", "2", *flags))
    assert rc == 2
    assert re.search(match, capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


def test_decompose_takes_the_solver_config_defaults(tmp_path, capsys):
    # no --max-iters: the run stops at SolverConfig's 1000 iterations
    _tiny_tensor(tmp_path)
    rc = main(_decompose_argv(tmp_path, "--eval-every", "500"))
    assert rc == 0
    trace = read_trace_csv(tmp_path / "o" / "tr-brsgd-uniform-t0.csv")
    assert trace.terminal_reason == "max_iters"
    assert trace.final()[0] == SolverConfig(ranks=(2, 2, 2)).max_iters == 1000


@pytest.mark.parametrize("override, match", [
    ("solver=3", "solver must be an object"),
    ("solver.step=0.1", "step must be an object"),
    ("seed.x=1", "'seed' is not an object"),
    ("algorithms.x=1", "'algorithms' is not an object"),
])
def test_benchmark_rejects_a_non_object_block(tmp_path, capsys, override, match):
    cfg = {
        "tensor": {"synth": {"order": 3, "dim": 4, "rank": 2, "seed": 3}},
        "algorithms": ["tr-als"],
        "solver": {"ranks": [2, 2, 2], "max_iters": 2},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["benchmark", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o"),
               "--set", override])
    assert rc == 2
    assert match in capsys.readouterr().err
    assert not list((tmp_path / "o").glob("*.csv"))


def _readme_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("trdecomp "):
                commands.append(shlex.split(line)[1:])
    return commands


def test_readme_commands_parse():
    # parse only: every documented command and flag exists as written
    commands = _readme_commands()
    assert len(commands) >= 5
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)
