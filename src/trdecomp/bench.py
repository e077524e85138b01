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
                  "eval_every": null, "init_scale": 1.0},
      "trials": 1,
      "seed": 0
    }

Unknown keys at the top level, in `tensor`, in `tensor.synth`, in `solver` and
in `step` (for the chosen step kind) are errors, and so is a `tensor` with both
`file` and `synth`, as are `algorithms` or `sampling` that are not a non-empty
list of distinct known names, and an integer field (`trials`, `seed`, ranks,
batch sizes, `max_iters`, `eval_every`, synth sizes) given a bool or a
fractional number.  Each requested (algorithm, sampling) cell runs `trials`
times with derived seeds; every run writes a trace CSV, and the summary
reports per cell how many trials diverged and the arithmetic mean of the
terminal RSE, iteration count, elapsed (iteration) seconds and RSE-evaluation
seconds over the other trials.
"""

from __future__ import annotations

import datetime
import json
import numbers
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
_TENSOR_KEYS = ("file", "synth")
_SYNTH_KEYS = ("order", "dim", "rank", "kind", "kappa", "seed")
_SOLVER_KEYS = ("ranks", "step", "batch_grad", "batch_hess", "damping", "max_iters",
                "max_seconds", "rse_tol", "eval_every", "init_scale")
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


def _int(value, where: str) -> int:
    """An integer config value; a bool, or a number int() would truncate, is
    refused rather than silently changing the run."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{where} must be an integer, not {value!r}")
    return int(value)


def _check_names(cfg, key: str, known, what: str) -> None:
    names = cfg[key]
    # a string would be read one character at a time
    if not isinstance(names, (list, tuple)) or not names:
        raise ConfigError(f"{key} must be a non-empty list, not {names!r}")
    for name in names:
        if not isinstance(name, str) or name not in known:
            raise ConfigError(f"unknown {what} {name!r}")
        # a repeated name would run again into the same trace files
        if names.count(name) > 1:
            raise ConfigError(f"{what} {name!r} is listed more than once")


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
    _check_names(cfg, "algorithms", SOLVER_FUNCTIONS, "algorithm")
    _check_names(cfg, "sampling", SAMPLING_ORDER, "sampling kind")
    if "optimal" in cfg["sampling"]:
        raise ConfigError("optimal sampling is a diagnostic mode, not for benchmarks")
    cfg["trials"] = _int(cfg["trials"], "trials")
    cfg["seed"] = _int(cfg["seed"], "seed")
    if cfg["trials"] < 1:
        raise ConfigError("trials must be >= 1")
    return cfg


def load_tensor(tensor_cfg) -> np.ndarray:
    if not isinstance(tensor_cfg, dict):
        raise ConfigError("tensor config must be an object")
    _reject_unknown_keys(tensor_cfg, _TENSOR_KEYS, "tensor")
    if len(tensor_cfg) != 1:
        raise ConfigError("tensor config needs exactly one of 'file' or 'synth'")
    if "file" in tensor_cfg:
        try:
            return read_tensor(tensor_cfg["file"])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read tensor file: {exc}") from exc
    s = tensor_cfg["synth"]
    if not isinstance(s, dict):
        raise ConfigError("tensor.synth must be an object")
    _reject_unknown_keys(s, _SYNTH_KEYS, "tensor.synth")
    try:
        spec = SynthSpec(
            order=_int(s["order"], "order"), dim=_int(s["dim"], "dim"),
            rank=_int(s["rank"], "rank"), kind=s.get("kind", "gaussian"),
            kappa=float(s.get("kappa", 1.0)), seed=_int(s.get("seed", 0), "seed"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad synth spec: {exc}") from exc
    return synth_tensor(spec)[0]


def solver_config(solver_cfg, sampling_kind: str, seed: int) -> solvers.SolverConfig:
    d = dict(solver_cfg)
    _reject_unknown_keys(d, _SOLVER_KEYS, "solver")
    try:
        return solvers.SolverConfig(
            ranks=tuple(_int(r, "ranks") for r in d["ranks"]),
            schedule=_step_from_dict(d.get("step", {"kind": "constant", "alpha": 1e-2})),
            batch_grad=_int(d.get("batch_grad", 1), "batch_grad"),
            batch_hess=_int(d.get("batch_hess", 1), "batch_hess"),
            damping=float(d.get("damping", 0.0)),
            sampling=SamplingSpec(kind=sampling_kind),
            max_iters=None if d.get("max_iters") is None else _int(d["max_iters"], "max_iters"),
            max_seconds=None if d.get("max_seconds") is None else float(d["max_seconds"]),
            rse_tol=None if d.get("rse_tol") is None else float(d["rse_tol"]),
            eval_every=(None if d.get("eval_every") is None
                        else _int(d["eval_every"], "eval_every")),
            seed=seed,
            init_scale=float(d.get("init_scale", 1.0)),
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
            for trial in range(cfg["trials"]):
                seed = _trial_seed(cfg["seed"],
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
    summary_md, rows = emit_summary(traces)
    atomic_write_bytes(os.path.join(out_dir, "summary.md"), summary_md.encode())
    atomic_write_bytes(os.path.join(out_dir, "summary.csv"), _summary_csv(rows).encode())
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
    count, how many trials diverged, and the mean terminal RSE, iterations,
    elapsed seconds and evaluation seconds over the trials that did not (None
    when all diverged, and the evaluation mean also when a trace does not
    record its evaluation time)."""
    if not traces:
        raise ValueError("no traces to summarize")
    groups: dict[tuple[str, str], list[RunTrace]] = {}
    for tr in traces:
        groups.setdefault((tr.algorithm, tr.sampling), []).append(tr)
    rows = []
    for (algo, samp) in sorted(groups, key=_sort_key):
        group = groups[(algo, samp)]
        kept = [tr for tr in group if not tr.diverged]

        def mean(values):
            return None if not values or None in values else float(np.mean(values))

        rows.append({
            "algorithm": display_name(algo, samp),
            "rse": mean([tr.final()[2] for tr in kept]),
            "iterations": mean([tr.final()[0] for tr in kept]),
            "time_s": mean([tr.final()[1] for tr in kept]),
            "eval_s": mean([tr.eval_s for tr in kept]),
            "trials": len(group),
            "diverged": len(group) - len(kept),
        })
    return rows


_MEANS = ("rse", "iterations", "time_s", "eval_s")


def emit_summary(traces):
    """Markdown summary table (and its rows) in the canonical row order."""
    rows = summarize(traces)
    lines = [
        "| Method | RSE | Iterations | Time (s) | Eval (s) | Diverged |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for r in rows:
        means = " | ".join("-" if r[k] is None else f"{r[k]:.3e}" for k in _MEANS)
        lines.append(f"| {r['algorithm']} | {means} | {r['diverged']}/{r['trials']} |")
    lines.append("")
    lines.append("Time counts iteration work only; Eval is the RSE evaluation time.")
    return "\n".join(lines) + "\n", rows


def _summary_csv(rows) -> str:
    lines = ["algorithm,rse,iterations,time_s,eval_s,trials,diverged"]
    for r in rows:
        means = ",".join("" if r[k] is None else fmt_float(r[k]) for k in _MEANS)
        lines.append(f"{r['algorithm']},{means},{r['trials']},{r['diverged']}")
    return "\n".join(lines) + "\n"


__all__ = [
    "ALGORITHM_ORDER", "STOCHASTIC_ALGORITHMS", "SAMPLING_ORDER", "ConfigError",
    "display_name", "load_config", "load_tensor", "solver_config", "run_experiment",
    "summarize", "emit_summary",
]
