"""Command-line interface.

Subcommands:
  synth      write a synthetic tensor to a binary tensor file
  decompose  run one algorithm on one tensor, writing cores and a trace CSV
  benchmark  run a full (algorithm x sampling x trial) grid from a JSON config
  report     summarize a directory of trace CSVs into a table

Exit codes: 0 success, 2 configuration/input error, 3 numerical failure
(a run stopped as diverged: its RSE or a core went non-finite).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

import numpy as np

from .bench import (
    SOLVER_FUNCTIONS,
    ConfigError,
    emit_summary,
    load_config,
    run_experiment,
    solver_config,
)
from .datagen import GENERATOR_KINDS, SynthSpec, synth_tensor
from .tensorfile import read_tensor, write_tensor
from .trace import read_trace_csv, trace_filename, write_trace_csv


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ranks", type=int, nargs="+", required=True)
    p.add_argument("--step-kind", choices=["constant", "robbins_monro", "adagrad"],
                   default="constant")
    p.add_argument("--alpha", type=float, default=1e-2)
    p.add_argument("--alpha0", type=float, default=1e-2)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--eta", type=float, default=1e-2)
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--batch-grad", type=int, default=1)
    p.add_argument("--batch-hess", type=int, default=1)
    p.add_argument("--damping", type=float, default=0.0)
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--max-seconds", type=float, default=None)
    p.add_argument("--rse-tol", type=float, default=None)
    p.add_argument("--eval-every", type=int, default=None)
    p.add_argument("--init-scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)


def _solver_dict(args) -> dict:
    step = {"kind": args.step_kind}
    if args.step_kind == "constant":
        step["alpha"] = args.alpha
    elif args.step_kind == "robbins_monro":
        step.update(alpha0=args.alpha0, gamma=args.gamma)
    else:
        step.update(eta=args.eta, b=args.b, eps=args.eps)
    return {
        "ranks": args.ranks,
        "step": step,
        "batch_grad": args.batch_grad,
        "batch_hess": args.batch_hess,
        "damping": args.damping,
        "max_iters": args.max_iters,
        "max_seconds": args.max_seconds,
        "rse_tol": args.rse_tol,
        "eval_every": args.eval_every,
        "init_scale": args.init_scale,
    }


def cmd_synth(args) -> int:
    spec = SynthSpec(order=args.order, dim=args.dim, rank=args.rank,
                     kind=args.kind, kappa=args.kappa, seed=args.seed)
    x, _cores = synth_tensor(spec)
    write_tensor(args.out, x)
    print(f"wrote {args.out}: shape {x.shape}")
    return 0


def cmd_decompose(args) -> int:
    x = read_tensor(args.tensor)
    cfg = solver_config(_solver_dict(args), args.sampling, args.seed)
    cores, trace = SOLVER_FUNCTIONS[args.algorithm](x, cfg)
    os.makedirs(args.out_dir, exist_ok=True)
    np.savez(os.path.join(args.out_dir, "cores.npz"),
             **{f"core{n}": c for n, c in enumerate(cores)})
    write_trace_csv(trace, os.path.join(
        args.out_dir, trace_filename(args.algorithm, trace.sampling, 0)))
    it, elapsed, rse_val = trace.final()
    print(f"{args.algorithm}: stopped by {trace.terminal_reason} at iteration {it}, "
          f"rse {rse_val:.3e}, {elapsed:.2f}s iterating + {trace.eval_s:.2f}s evaluating "
          f"every {trace.eval_every}")
    return 3 if trace.diverged else 0


def _apply_overrides(cfg: dict, assignments) -> dict:
    for item in assignments or []:
        key, _, raw = item.partition("=")
        if not raw:
            raise ConfigError(f"override {item!r} is not key=value")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    return cfg


def cmd_benchmark(args) -> int:
    cfg = load_config(args.config)
    if args.trials is not None:
        cfg["trials"] = args.trials
    if args.seed is not None:
        cfg["seed"] = args.seed
    _apply_overrides(cfg, args.set)
    traces = run_experiment(cfg, args.out_dir)
    with open(os.path.join(args.out_dir, "summary.md"), encoding="utf-8") as f:
        print(f.read(), end="")
    return 3 if any(t.diverged for t in traces) else 0


def cmd_report(args) -> int:
    paths = sorted(glob.glob(os.path.join(args.traces, "*-t*.csv")))
    traces = [read_trace_csv(p) for p in paths]
    if not traces:
        raise ConfigError(f"no trace CSVs found under {args.traces}")
    summary_md, _rows = emit_summary(traces)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(summary_md)
    print(summary_md, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trdecomp",
                                     description="Tensor ring decomposition benchmark CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic tensor file")
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--kind", choices=GENERATOR_KINDS, default="gaussian")
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("decompose", help="run one algorithm on one tensor")
    p.add_argument("--tensor", required=True)
    p.add_argument("--algorithm", required=True, choices=sorted(SOLVER_FUNCTIONS))
    p.add_argument("--sampling", choices=["uniform", "leverage", "euclidean"],
                   default="uniform")
    p.add_argument("--out-dir", required=True)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("benchmark", help="run the grid described by a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config entry, dotted keys allowed "
                        "(e.g. solver.max_iters=50)")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("report", help="summarize a directory of trace CSVs")
    p.add_argument("--traces", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
