"""Experiment harness: config parsing, the benchmark grid, and summaries.

A benchmark config is one JSON document:

    {
      "tensor": {"synth": {"order": 3, "dim": 20, "rank": 3, "kind": "gaussian",
                            "kappa": 1.0, "seed": 1}}            # or {"file": "x.trt"}
      "algorithms": ["tr-als", "tr-brsgd"],
      "sampling": ["uniform", "leverage"],      # used by stochastic algorithms only
      "solver": {"ranks": [3, 3, 3], "step": {"kind": "constant", "alpha": 0.05},
                  "batch_grad": 100, "batch_hess": 100, "damping": 0.0,
                  "max_iters": 1000, "max_seconds": null, "rse_tol": null,
                  "eval_every": null, "init_scale": 1.0,
                  "time_includes_eval": false},
      "trials": 1,
      "seed": 0
    }

Unknown keys at the top level, in `solver` and in `step` (for the chosen step
kind) are errors.  Each requested (algorithm, sampling) cell runs `trials`
times with derived seeds; every run writes a trace CSV, and the summary
reports per cell how many trials diverged and the arithmetic mean of the
terminal RSE, iteration count and elapsed seconds over the other trials.
"""

from __future__ import annotations

import datetime
import json
import os

import numpy as np

from . import solvers
from .datagen import SynthSpec, synth_tensor
from .sampling import SamplingSpec
from .tensorfile import atomic_write_bytes, read_tensor
from .trace import RunTrace, fmt_float, trace_filename, write_trace_csv

ALGORITHM_ORDER = ["tr-als", "tr-gd", "tr-scaled-gd", "tr-brsgd", "tr-scaled-brsgd"]
STOCHASTIC_ALGORITHMS = {"tr-brsgd", "tr-scaled-brsgd"}
SAMPLING_ORDER = ["uniform", "euclidean", "leverage", "optimal"]
SOLVER_FUNCTIONS = {
    "tr-als": solvers.tr_als,
    "tr-gd": solvers.tr_gd,
    "tr-scaled-gd": solvers.tr_scaled_gd,
    "tr-brsgd": solvers.tr_brsgd,
    "tr-scaled-brsgd": solvers.tr_scaled_brsgd,
}
_DISPLAY = {
    "tr-als": "TR-ALS",
    "tr-gd": "TR-GD",
    "tr-scaled-gd": "TR-ScaledGD",
    "tr-brsgd": "TR-BRSGD",
    "tr-scaled-brsgd": "TR-ScaledBRSGD",
}
_SAMPLING_SUFFIX = {"uniform": "U", "euclidean": "E", "leverage": "L", "optimal": "O"}
_CONFIG_KEYS = ("tensor", "algorithms", "sampling", "solver", "trials", "seed")
_SOLVER_KEYS = ("ranks", "step", "batch_grad", "batch_hess", "damping", "max_iters",
                "max_seconds", "rse_tol", "eval_every", "init_scale",
                "time_includes_eval")
_STEP_KEYS = {"constant": ("alpha",), "robbins_monro": ("alpha0", "gamma"),
              "adagrad": ("eta", "b", "eps")}


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def display_name(algorithm: str, sampling: str) -> str:
    base = _DISPLAY.get(algorithm, algorithm)
    if algorithm in STOCHASTIC_ALGORITHMS:
        return f"{base}-{_SAMPLING_SUFFIX.get(sampling, sampling)}"
    return base


def _reject_unknown_keys(d, allowed, where: str) -> None:
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {where} key(s) {', '.join(map(repr, unknown))}; "
                          f"allowed keys: {', '.join(allowed)}")


def _step_from_dict(d) -> object:
    kind = d.get("kind", "constant")
    if kind not in _STEP_KEYS:
        raise ConfigError(f"unknown step kind {kind!r}")
    _reject_unknown_keys(d, ("kind", *_STEP_KEYS[kind]), f"{kind} step")
    try:
        if kind == "constant":
            return solvers.ConstantStep(alpha=float(d["alpha"]))
        if kind == "robbins_monro":
            return solvers.RobbinsMonroStep(
                alpha0=float(d["alpha0"]), gamma=float(d.get("gamma", 1.0)))
        return solvers.AdaGradStep(
            eta=float(d["eta"]), b=float(d.get("b", 0.0)),
            eps=float(d.get("eps", 0.0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad step config {d!r}: {exc}") from exc


def load_config(source) -> dict:
    """Parse a config given as a dict, a JSON string, or a file path."""
    if isinstance(source, dict):
        cfg = dict(source)
    else:
        text = source
        if os.path.exists(str(source)):
            with open(source, encoding="utf-8") as f:
                text = f.read()
        try:
            cfg = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown_keys(cfg, _CONFIG_KEYS, "config")
    for key in ("tensor", "algorithms", "solver"):
        if key not in cfg:
            raise ConfigError(f"config missing required key {key!r}")
    cfg.setdefault("sampling", ["uniform"])
    cfg.setdefault("trials", 1)
    cfg.setdefault("seed", 0)
    for algo in cfg["algorithms"]:
        if algo not in SOLVER_FUNCTIONS:
            raise ConfigError(f"unknown algorithm {algo!r}")
    for samp in cfg["sampling"]:
        if samp not in SAMPLING_ORDER:
            raise ConfigError(f"unknown sampling kind {samp!r}")
        if samp == "optimal":
            raise ConfigError("optimal sampling is a diagnostic mode, not for benchmarks")
    if int(cfg["trials"]) < 1:
        raise ConfigError("trials must be >= 1")
    return cfg


def load_tensor(tensor_cfg) -> np.ndarray:
    if "file" in tensor_cfg:
        try:
            return read_tensor(tensor_cfg["file"])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read tensor file: {exc}") from exc
    if "synth" in tensor_cfg:
        s = tensor_cfg["synth"]
        try:
            spec = SynthSpec(
                order=int(s["order"]), dim=int(s["dim"]), rank=int(s["rank"]),
                kind=s.get("kind", "gaussian"), kappa=float(s.get("kappa", 1.0)),
                seed=int(s.get("seed", 0)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad synth spec: {exc}") from exc
        return synth_tensor(spec)[0]
    raise ConfigError("tensor config needs a 'file' or 'synth' entry")


def solver_config(solver_cfg, sampling_kind: str, seed: int) -> solvers.SolverConfig:
    d = dict(solver_cfg)
    _reject_unknown_keys(d, _SOLVER_KEYS, "solver")
    try:
        return solvers.SolverConfig(
            ranks=tuple(int(r) for r in d["ranks"]),
            schedule=_step_from_dict(d.get("step", {"kind": "constant", "alpha": 1e-2})),
            batch_grad=int(d.get("batch_grad", 1)),
            batch_hess=int(d.get("batch_hess", 1)),
            damping=float(d.get("damping", 0.0)),
            sampling=SamplingSpec(kind=sampling_kind),
            max_iters=None if d.get("max_iters") is None else int(d["max_iters"]),
            max_seconds=None if d.get("max_seconds") is None else float(d["max_seconds"]),
            rse_tol=None if d.get("rse_tol") is None else float(d["rse_tol"]),
            eval_every=None if d.get("eval_every") is None else int(d["eval_every"]),
            seed=seed,
            init_scale=float(d.get("init_scale", 1.0)),
            time_includes_eval=bool(d.get("time_includes_eval", False)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad solver config: {exc}") from exc


def _trial_seed(master_seed: int, algo_idx: int, samp_idx: int, trial: int) -> int:
    ss = np.random.SeedSequence(master_seed, spawn_key=(2, algo_idx, samp_idx, trial))
    return int(ss.generate_state(1)[0])


def run_experiment(config, out_dir, clock=None) -> list[RunTrace]:
    """Run the full (algorithm x sampling x trial) grid, write per-run trace
    CSVs plus summaries under out_dir, and return the traces.

    Wall-clock metadata lands in meta.json; all other outputs depend only on
    (config, seed) and the injected clock.
    """
    cfg = load_config(config)
    os.makedirs(out_dir, exist_ok=True)
    started = datetime.datetime.now().isoformat()
    x = load_tensor(cfg["tensor"])
    traces: list[RunTrace] = []
    for algo in cfg["algorithms"]:
        samplings = cfg["sampling"] if algo in STOCHASTIC_ALGORITHMS else ["none"]
        for samp in samplings:
            for trial in range(int(cfg["trials"])):
                seed = _trial_seed(int(cfg["seed"]),
                                   ALGORITHM_ORDER.index(algo),
                                   SAMPLING_ORDER.index(samp) if samp != "none" else 0,
                                   trial)
                run_cfg = solver_config(cfg["solver"],
                                        samp if samp != "none" else "uniform", seed)
                _cores, trace = SOLVER_FUNCTIONS[algo](x, run_cfg, clock=clock)
                trace.trial = trial
                traces.append(trace)
                write_trace_csv(trace, os.path.join(
                    out_dir, trace_filename(algo, samp, trial)))
    time_includes_eval = bool(cfg["solver"].get("time_includes_eval", False))
    summary_md, rows = emit_summary(traces, time_includes_eval=time_includes_eval)
    atomic_write_bytes(os.path.join(out_dir, "summary.md"), summary_md.encode())
    atomic_write_bytes(os.path.join(out_dir, "summary.csv"),
                       _summary_csv(rows, time_includes_eval).encode())
    atomic_write_bytes(os.path.join(out_dir, "config.json"),
                       (json.dumps(cfg, indent=2, sort_keys=True) + "\n").encode())
    meta = {"started": started, "finished": datetime.datetime.now().isoformat()}
    atomic_write_bytes(os.path.join(out_dir, "meta.json"),
                       (json.dumps(meta, indent=2) + "\n").encode())
    return traces


def _sort_key(item):
    (algo, samp) = item
    a = ALGORITHM_ORDER.index(algo) if algo in ALGORITHM_ORDER else len(ALGORITHM_ORDER)
    s = SAMPLING_ORDER.index(samp) if samp in SAMPLING_ORDER else -1
    return (a, s)


def summarize(traces) -> list[dict]:
    """One row per (algorithm, sampling), in canonical table order: the trial
    count, how many trials diverged, and the mean terminal RSE, iterations and
    elapsed seconds over the trials that did not (None when all diverged)."""
    if not traces:
        raise ValueError("no traces to summarize")
    groups: dict[tuple[str, str], list[RunTrace]] = {}
    for tr in traces:
        groups.setdefault((tr.algorithm, tr.sampling), []).append(tr)
    rows = []
    for (algo, samp) in sorted(groups, key=_sort_key):
        group = groups[(algo, samp)]
        finals = [tr.final() for tr in group if not tr.diverged]

        def mean(i):
            return float(np.mean([f[i] for f in finals])) if finals else None

        rows.append({
            "algorithm": display_name(algo, samp),
            "rse": mean(2),
            "iterations": mean(0),
            "time_s": mean(1),
            "trials": len(group),
            "diverged": len(group) - len(finals),
        })
    return rows


def emit_summary(traces, time_includes_eval: bool = False):
    """Markdown summary table (and its rows) in the canonical row order."""
    rows = summarize(traces)
    lines = [
        "| Method | RSE | Iterations | Time (s) | Diverged |",
        "| --- | --- | --- | --- | --- |",
    ]
    for r in rows:
        means = " | ".join("-" if r[k] is None else f"{r[k]:.3e}"
                           for k in ("rse", "iterations", "time_s"))
        lines.append(f"| {r['algorithm']} | {means} | {r['diverged']}/{r['trials']} |")
    lines.append("")
    lines.append(f"Elapsed time {'includes' if time_includes_eval else 'excludes'} "
                 "RSE evaluation overhead.")
    return "\n".join(lines) + "\n", rows


def _summary_csv(rows, time_includes_eval: bool) -> str:
    lines = [f"# time_includes_eval={int(time_includes_eval)}",
             "algorithm,rse,iterations,time_s,trials,diverged"]
    for r in rows:
        means = ",".join("" if r[k] is None else fmt_float(r[k])
                         for k in ("rse", "iterations", "time_s"))
        lines.append(f"{r['algorithm']},{means},{r['trials']},{r['diverged']}")
    return "\n".join(lines) + "\n"


__all__ = [
    "ALGORITHM_ORDER",
    "STOCHASTIC_ALGORITHMS",
    "SAMPLING_ORDER",
    "ConfigError",
    "display_name",
    "load_config",
    "load_tensor",
    "solver_config",
    "run_experiment",
    "summarize",
    "emit_summary",
]
