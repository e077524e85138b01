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
import dataclasses
import glob
import io
import json
import os
import sys
import typing

import numpy as np

from .bench import (
    ALGORITHMS,
    STEP_KINDS,
    ConfigError,
    config_keys,
    emit_summary,
    load_tensor,
    parse_config,
    run_experiment,
    solver_config,
)
from .datagen import GENERATOR_KINDS, SynthSpec
from .sampling import SAMPLING_KINDS
from .solvers import SolverConfig
from .tensorfile import atomic_write_bytes, read_tensor, write_tensor
from .trace import read_trace_csv, trace_filename, write_trace_csv

# decompose flags: one per key of a solver block and of a step (key -> type),
# named as the key with dashes; --step-kind gives the step's kind
_SOLVER_FLAGS = {k: t for k, t in config_keys(SolverConfig).items() if k != "step"}
_STEP_FLAGS = {k: t for cls in STEP_KINDS.values() for k, t in config_keys(cls).items()}
# synth flags: one per SynthSpec field, required where the field has no default
_SYNTH_FLAGS = config_keys(SynthSpec)
_SYNTH_REQUIRED = {f.name for f in dataclasses.fields(SynthSpec)
                   if f.default is dataclasses.MISSING}


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--step-kind", dest="kind", choices=list(STEP_KINDS),
                   default=argparse.SUPPRESS)
    for key, hint in {**_SOLVER_FLAGS, **_STEP_FLAGS}.items():
        p.add_argument("--" + key.replace("_", "-"),
                       type=int if int in (hint, *typing.get_args(hint)) else float,
                       nargs="+" if key == "ranks" else None, required=key == "ranks",
                       default=argparse.SUPPRESS)


def _solver_dict(args) -> dict:
    """The solver block of the flags given.  A flag left out leaves its key
    out, so the run takes the SolverConfig or step class default."""
    given = vars(args)
    solver = {key: given[key] for key in _SOLVER_FLAGS if key in given}
    step = {key: given[key] for key in ("kind", *_STEP_FLAGS) if key in given}
    if step:
        solver["step"] = step
    return solver


def cmd_synth(args) -> int:
    # the flags given form a config's tensor.synth block, read as a config is
    given = vars(args)
    x = load_tensor({"synth": {key: given[key] for key in _SYNTH_FLAGS if key in given}})
    write_tensor(args.out, x)
    print(f"wrote {args.out}: shape {x.shape}")
    return 0


def cmd_decompose(args) -> int:
    x = read_tensor(args.tensor)
    cfg = solver_config(_solver_dict(args), args.sampling, args.seed)
    _display, solve, _stochastic = ALGORITHMS[args.algorithm]
    cores, trace = solve(x, cfg)
    os.makedirs(args.out_dir, exist_ok=True)
    # saved whole before it replaces an earlier run's file
    saved = io.BytesIO()
    np.savez(saved, **{f"core{n}": c for n, c in enumerate(cores)})
    atomic_write_bytes(os.path.join(args.out_dir, "cores.npz"), saved.getbuffer())
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
        *path, last = key.split(".")
        for part in path:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {item!r}: {part!r} is not an object")
        node[last] = value
    return cfg


def cmd_benchmark(args) -> int:
    # run_experiment checks the config once the overrides are in
    cfg = _apply_overrides(parse_config(args.config), args.set)
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
        atomic_write_bytes(args.out, summary_md.encode())
    print(summary_md, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trdecomp",
                                     description="Tensor ring decomposition benchmark CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic tensor file",
                       description="A flag left out takes the SynthSpec default; "
                                   f"--kind is one of {', '.join(GENERATOR_KINDS)}.")
    for key, hint in _SYNTH_FLAGS.items():
        p.add_argument("--" + key, type=hint, required=key in _SYNTH_REQUIRED,
                       default=argparse.SUPPRESS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("decompose", help="run one algorithm on one tensor",
                       description="A solver or step flag left out takes the "
                                   "SolverConfig or step class default.")
    p.add_argument("--tensor", required=True)
    p.add_argument("--algorithm", required=True, choices=list(ALGORITHMS))
    # optimal is a diagnostic, refused here as in benchmark configs
    p.add_argument("--sampling", choices=[k for k in SAMPLING_KINDS if k != "optimal"],
                   default="uniform")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("benchmark", help="run the grid described by a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config entry, dotted keys allowed "
                        "(e.g. solver.max_iters=50)")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("report", help="summarize a directory of trace CSVs")
    p.add_argument("--traces", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    return parser


# an input path that is missing, is a directory where a file is wanted (or
# the reverse) or cannot be read is an input error
_INPUT_OS_ERRORS = (FileNotFoundError, IsADirectoryError, NotADirectoryError, PermissionError)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, *_INPUT_OS_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
