"""The benchmark's workloads: input spec, solver runs and output checks.

This module imports nothing from trdecomp at import time. The worker hands
the package in once it has timed the import, so building the runs is part of
the measured set-up, as it is for a user of the library.

Seeds: `--seed n` makes the tensor with synth seed n and runs every solver
with seed n. The default seed 2 reproduces the tensor of
configs/ill_conditioned.json.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 2
TARGET_RSE = 1e-8
# Relative agreement between a run's last trace RSE and metrics.rse.
RSE_AGREEMENT = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    order: int
    dim: int
    rank: int
    kind: str
    kappa: float
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-k1e4", 3, 25, 3, "ill_conditioned", 1e4,
                 "paper-style kappa=1e4 instance; sampling does most of the work"),
        Workload("dense-1m", 3, 100, 3, "gaussian", 1.0,
                 "1e6 entries; the dense ALS/ScaledGD path, no sampling"),
        Workload("order4-defaults", 4, 30, 3, "gaussian", 1.0,
                 "order 4, default eval cadence; RSE evaluation dominates"),
    )
}


@dataclass
class Run:
    """One solver call of a workload, with the check its output must pass."""

    label: str
    solve: Callable
    config: object
    # (trace) -> None if the run met its accuracy check, else the reason
    check: Callable


def _no_check(trace):
    return None


def _below(limit):
    def check(trace):
        rse = trace.records[-1][2]
        return None if rse < limit else f"missed accuracy: RSE {rse:.3g} >= {limit:g}"
    return check


def _ends_with_tol(trace):
    if trace.terminal_reason == "tol":
        return None
    return f"missed target: ended by {trace.terminal_reason} at RSE {trace.records[-1][2]:.3g}"


def _als_monotone(trace):
    # ALS solves each subproblem exactly, so the error never grows; the slack
    # is the one acceptance criterion 9 of the test suite allows.
    sq = [r[2] ** 2 for r in trace.records]
    for a, b in zip(sq, sq[1:]):
        if b > a + 1e-12 * sq[0]:
            return "ALS error grew between sweeps"
    return None


def _decreased(trace):
    first, last = trace.records[0][2], trace.records[-1][2]
    return None if last < first else f"RSE did not decrease ({first:.3g} -> {last:.3g})"


def build_runs(td, workload: Workload, seed: int) -> list[Run]:
    """The solver runs of one pass over `workload`, built with package `td`."""
    ranks = (workload.rank,) * workload.order
    runs = []
    if workload.name == "paper-k1e4":
        # The solver block of configs/ill_conditioned.json, copied so that a
        # change to that file does not change the benchmark.
        for label, solve, check in (("TR-BRSGD", td.tr_brsgd, _no_check),
                                    ("TR-ScaledBRSGD", td.tr_scaled_brsgd, _below(1e-1))):
            for kind in ("uniform", "euclidean", "leverage"):
                cfg = td.SolverConfig(
                    ranks=ranks, schedule=td.ConstantStep(0.3), batch_grad=100,
                    batch_hess=300, damping=1e-8, sampling=td.SamplingSpec(kind),
                    max_iters=1000, rse_tol=1e-10, eval_every=100, seed=seed,
                    init_scale=0.3)
                runs.append(Run(f"{label}-{kind[0].upper()}", solve, cfg, check))
    elif workload.name == "dense-1m":
        # Fixed budgets near the sweep counts the runs need for RSE 1e-8:
        # from random starts about a quarter of ALS runs and an eighth of
        # ScaledGD runs stall near RSE 0.4 on this tensor family, so a
        # target stop would turn those stalls into 10x longer runs.
        runs.append(Run("TR-ALS", td.tr_als, td.SolverConfig(
            ranks=ranks, max_iters=12, eval_every=1, seed=seed), _als_monotone))
        runs.append(Run("TR-ScaledGD", td.tr_scaled_gd, td.SolverConfig(
            ranks=ranks, schedule=td.ConstantStep(0.5), max_iters=50,
            eval_every=1, seed=seed), _decreased))
    elif workload.name == "order4-defaults":
        for kind in ("uniform", "leverage"):
            cfg = td.SolverConfig(
                ranks=ranks, schedule=td.ConstantStep(0.3), batch_grad=100,
                batch_hess=300, damping=1e-8, sampling=td.SamplingSpec(kind),
                max_iters=1000, rse_tol=TARGET_RSE, seed=seed, init_scale=0.3)
            runs.append(Run(f"TR-ScaledBRSGD-{kind[0].upper()}", td.tr_scaled_brsgd,
                            cfg, _ends_with_tol))
    else:
        raise ValueError(f"unknown workload {workload.name!r}")
    return runs


def failure_reason(trace, cores, check) -> str | None:
    """Why a finished run failed, or None. Finiteness is checked directly:
    the solvers flag divergence only when a core norm exceeds 1e8, and a NaN
    core never does."""
    import numpy as np

    rse = trace.records[-1][2]
    if not math.isfinite(rse) or not all(np.isfinite(c).all() for c in cores):
        return "non-finite"
    if trace.diverged:
        return "diverged"
    return check(trace)


def rse_disagreement(trace_rse: float, independent_rse: float) -> str | None:
    """An error message if the trace's last RSE and an independent RSE differ."""
    if abs(trace_rse - independent_rse) <= RSE_AGREEMENT * abs(independent_rse):
        return None
    return f"trace RSE {trace_rse!r} != metrics.rse {independent_rse!r}"


def cross_run_errors(workload: Workload, final_rse: dict[str, float]) -> list[str]:
    """Checks over the runs of one pass (labels of finished runs only)."""
    if workload.name != "paper-k1e4":
        return []
    scaled = [v for k, v in final_rse.items() if k.startswith("TR-ScaledBRSGD")]
    plain = [v for k, v in final_rse.items() if k.startswith("TR-BRSGD")]
    if scaled and plain and not statistics.median(scaled) < statistics.median(plain):
        return ["ScaledBRSGD median RSE is not below the BRSGD median"]
    return []
