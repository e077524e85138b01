"""Experiment harness: config parsing, the benchmark grid, and summaries.

A benchmark config is one JSON document:

    {
      "tensor": {"synth": {"order": 3, "dim": 20, "rank": 3, "kind": "gaussian",
                            "kappa": 1.0, "seed": 1}}            # or {"file": "x.trt"}
      "algorithms": ["tr-als", "tr-brsgd"],
      "sampling": ["uniform", "leverage"],      # used by stochastic algorithms only
      "solver": {"ranks": [3, 3, 3], "step": {"kind": "constant", "alpha": 0.05},
                  "batch_grad": 100, "batch_hess": 300, "damping": 1e-8,
                  "max_iters": 500, "rse_tol": 1e-10, "eval_every": 10},
      "trials": 3,
      "seed": 7
    }

The keys of `solver`, `step` and `tensor.synth` are the fields of
`solvers.SolverConfig` (`schedule` spelt `step`, less `sampling` and `seed`,
which the grid sets per run), of the step class `kind` names (default
`constant`) and of `datagen.SynthSpec`; a key left out takes the dataclass's
default.  Unknown keys, blocks that are not objects, a `tensor` with both
`file` and `synth`, `algorithms` or `sampling` that are not a non-empty list
of distinct known names, and a bad `trials` or `seed` are refused here.  The
dataclass refuses a bad value of its own key, by type (`solvers.check_fields`)
then by range, as a ConfigError.  Each (algorithm, sampling) cell runs `trials`
times with derived seeds; every run writes a trace CSV, and the summary
reports per cell how many trials diverged and the arithmetic mean of the
terminal RSE, iteration count, elapsed (iteration) seconds and RSE-evaluation
seconds over the other trials.
"""

from __future__ import annotations

import datetime
import json
import os

import numpy as np

from . import solvers
from .datagen import SynthSpec, synth_tensor
from .sampling import SAMPLING_KINDS, SamplingSpec
from .tensorfile import atomic_write_bytes, read_tensor
from .trace import RunTrace, fmt_float, trace_filename, write_trace_csv

# name -> (display name, solver, stochastic), in the canonical order of the
# summary rows and the trial seeds
ALGORITHMS = {
    "tr-als": ("TR-ALS", solvers.tr_als, False),
    "tr-gd": ("TR-GD", solvers.tr_gd, False),
    "tr-scaled-gd": ("TR-ScaledGD", solvers.tr_scaled_gd, False),
    "tr-brsgd": ("TR-BRSGD", solvers.tr_brsgd, True),
    "tr-scaled-brsgd": ("TR-ScaledBRSGD", solvers.tr_scaled_brsgd, True),
}
STEP_KINDS = {"constant": solvers.ConstantStep, "robbins_monro": solvers.RobbinsMonroStep,
              "adagrad": solvers.AdaGradStep}
_CONFIG_KEYS = ("tensor", "algorithms", "sampling", "solver", "trials", "seed")
_TENSOR_KEYS = ("file", "synth")


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def config_keys(cls) -> dict:
    """Config key -> field type of a settings dataclass (`SolverConfig`, a
    step class, `SynthSpec`): its fields, except that a SolverConfig spells
    `schedule` as `step` and leaves `sampling` and `seed` to each run."""
    keys = dict(solvers.field_types(cls))
    if cls is solvers.SolverConfig:
        keys["step"] = keys.pop("schedule")
        del keys["sampling"], keys["seed"]
    return keys


def display_name(algorithm: str, sampling: str) -> str:
    base, _solve, stochastic = ALGORITHMS.get(algorithm, (algorithm, None, False))
    if stochastic:  # the kind's initial: U, E, L or O
        return f"{base}-{sampling[0].upper() if sampling in SAMPLING_KINDS else sampling}"
    return base


def _reject_unknown_keys(d, allowed, where: str) -> None:
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {where} key(s) {', '.join(map(repr, unknown))}; "
                          f"allowed keys: {', '.join(allowed)}")


def _object(d, where: str) -> dict:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object, not {d!r}")
    return d


def _from_dict(cls, d, where: str, **per_run):
    """Build settings dataclass `cls`, which checks the values, from config
    object `d`.  Only the keys `d` has are passed on: every default is its own."""
    _reject_unknown_keys(_object(d, where), config_keys(cls), where)
    kw = dict(d)
    if "step" in kw:
        kw["schedule"] = _step_from_dict(kw.pop("step"))
    try:
        return cls(**kw, **per_run)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {where} config: {exc}") from exc


def _step_from_dict(d) -> object:
    kind = _object(d, "step").get("kind", "constant")
    if not isinstance(kind, str) or kind not in STEP_KINDS:
        raise ConfigError(f"unknown step kind {kind!r}")
    return _from_dict(STEP_KINDS[kind], {k: v for k, v in d.items() if k != "kind"},
                      f"{kind} step")


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


def parse_config(source) -> dict:
    """A config given as a dict or the path of a JSON file, as a new dict
    with the defaults of `sampling`, `trials` and `seed` filled in.  Only its
    being a JSON object is checked; `load_config` checks the rest."""
    if isinstance(source, dict):
        cfg = dict(source)
    else:
        with open(source, encoding="utf-8") as f:
            try:
                cfg = json.load(f)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    cfg.setdefault("sampling", ["uniform"])
    cfg.setdefault("trials", 1)
    cfg.setdefault("seed", 0)
    return cfg


def load_config(source) -> dict:
    """Parse a config given as a dict or a JSON file path, and check it."""
    cfg = parse_config(source)
    _reject_unknown_keys(cfg, _CONFIG_KEYS, "config")
    for key in ("tensor", "algorithms", "solver"):
        if key not in cfg:
            raise ConfigError(f"config missing required key {key!r}")
    _check_names(cfg, "algorithms", ALGORITHMS, "algorithm")
    _check_names(cfg, "sampling", SAMPLING_KINDS, "sampling kind")
    if "optimal" in cfg["sampling"]:
        raise ConfigError("optimal sampling is a diagnostic mode, not for benchmarks")
    cfg["trials"] = solvers.as_int(cfg["trials"], "trials", ConfigError)
    cfg["seed"] = solvers.as_int(cfg["seed"], "seed", ConfigError)
    if cfg["trials"] < 1:
        raise ConfigError("trials must be >= 1")
    if cfg["seed"] < 0:
        raise ConfigError(f"seed must be >= 0, not {cfg['seed']}")
    return cfg


def load_tensor(tensor_cfg) -> np.ndarray:
    _reject_unknown_keys(_object(tensor_cfg, "tensor config"), _TENSOR_KEYS, "tensor")
    if len(tensor_cfg) != 1:
        raise ConfigError("tensor config needs exactly one of 'file' or 'synth'")
    if "file" in tensor_cfg:
        try:
            return read_tensor(tensor_cfg["file"])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read tensor file: {exc}") from exc
    return synth_tensor(_from_dict(SynthSpec, tensor_cfg["synth"], "tensor.synth"))[0]


def solver_config(solver_cfg, sampling_kind: str, seed: int) -> solvers.SolverConfig:
    return _from_dict(solvers.SolverConfig, solver_cfg, "solver",
                      sampling=SamplingSpec(kind=sampling_kind), seed=seed)


def _trial_seed(master_seed: int, algo_idx: int, samp_idx: int, trial: int) -> int:
    ss = np.random.SeedSequence(master_seed, spawn_key=(2, algo_idx, samp_idx, trial))
    return int(ss.generate_state(1)[0])


def run_experiment(config, out_dir, clock=None) -> list[RunTrace]:
    """Run the full (algorithm x sampling x trial) grid, write per-run trace
    CSVs plus summaries under out_dir, and return the traces.

    Wall-clock metadata lands in meta.json; all other outputs depend only on
    (config, seed) and the injected clock.  Every run's SolverConfig is built,
    the tensor loaded and each run's fit to it checked (`solvers.check_fit`)
    before out_dir is made, so a config or input error leaves nothing behind.
    """
    cfg = load_config(config)
    runs = []
    for algo in cfg["algorithms"]:
        _display, solve, stochastic = ALGORITHMS[algo]
        for samp in cfg["sampling"] if stochastic else ["none"]:
            for trial in range(cfg["trials"]):
                seed = _trial_seed(cfg["seed"],
                                   list(ALGORITHMS).index(algo),
                                   SAMPLING_KINDS.index(samp) if stochastic else 0,
                                   trial)
                run_cfg = solver_config(cfg["solver"],
                                        samp if stochastic else "uniform", seed)
                runs.append((algo, samp, trial, solve, run_cfg))
    started = datetime.datetime.now().isoformat()
    x = load_tensor(cfg["tensor"])
    for _algo, _samp, _trial, solve, run_cfg in runs:
        solvers.check_fit(x, run_cfg, sampled_hessian=solve is solvers.tr_scaled_brsgd)
    os.makedirs(out_dir, exist_ok=True)
    traces: list[RunTrace] = []
    for algo, samp, trial, solve, run_cfg in runs:
        _cores, trace = solve(x, run_cfg, clock=clock)
        trace.trial = trial
        traces.append(trace)
        write_trace_csv(trace, os.path.join(out_dir, trace_filename(algo, samp, trial)))
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
    a = list(ALGORITHMS).index(algo) if algo in ALGORITHMS else len(ALGORITHMS)
    s = SAMPLING_KINDS.index(samp) if samp in SAMPLING_KINDS else -1
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
    "ALGORITHMS", "STEP_KINDS", "ConfigError", "config_keys", "display_name",
    "parse_config", "load_config", "load_tensor", "solver_config", "run_experiment",
    "summarize", "emit_summary",
]
