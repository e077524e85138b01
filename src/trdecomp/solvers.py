"""TR decomposition solvers.

Deterministic baselines (alternating least squares, gradient descent, scaled
gradient descent) and the block-randomized stochastic methods: per iteration
a mode is drawn uniformly, subchain rows and matching fibers are sampled, and
only that core is updated along the (optionally preconditioned) stochastic
gradient.  Step schedules include a constant step, a decaying
Robbins-Monro step, and per-entry AdaGrad.

All solvers return ``(cores, RunTrace)`` and are bitwise deterministic given
(config, seed): per-iteration randomness comes from counter-derived Philox
streams, so draws do not depend on evaluation cadence.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .core import (
    core_unfolding,
    fold_core,
    mode_n_unfolding,
    residual_norm,
    subchain_tensor,
    subchain_unfolding,
    tr_reconstruct,  # noqa: F401  (perfbench/tracing.py spans calls made through here)
    validate_cores,
)
from .sampling import (
    SampleBatch,
    SamplingSpec,
    core_distribution,
    core_distributions,  # noqa: F401  (perfbench/tracing.py spans calls made through here)
    optimal_distribution_oracle,
    sample_rows_batch,
    sample_subchain_fibers,
)
from .trace import RunTrace

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# step schedules


@dataclass(frozen=True)
class ConstantStep:
    alpha: float

    def __post_init__(self):
        # zero is allowed as a degenerate diagnostic (iterates stay put)
        if self.alpha < 0:
            raise ValueError("constant step size must be nonnegative")


@dataclass(frozen=True)
class RobbinsMonroStep:
    """alpha_t = alpha0 / (t+1)**gamma; gamma in (0.5, 1] makes the step sums
    divergent while the squared sums stay finite."""

    alpha0: float
    gamma: float = 1.0

    def __post_init__(self):
        if self.alpha0 <= 0:
            raise ValueError("alpha0 must be positive")
        if not 0.5 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0.5, 1]")


@dataclass(frozen=True)
class AdaGradStep:
    """Per-entry step eta / (b + sum of squared past direction entries)^(1/2+eps)."""

    eta: float
    b: float = 0.0
    eps: float = 0.0

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.b < 0 or self.eps < 0:
            raise ValueError("b and eps must be nonnegative")


def schedule_value(schedule, t: int) -> float:
    if isinstance(schedule, ConstantStep):
        return schedule.alpha
    if isinstance(schedule, RobbinsMonroStep):
        return schedule.alpha0 / (t + 1) ** schedule.gamma
    raise TypeError(f"no scalar step value for {type(schedule).__name__}")


def adagrad_update(acc: np.ndarray, direction: np.ndarray, eta: float,
                   b: float = 0.0, eps: float = 0.0) -> np.ndarray:
    """Accumulate squared direction entries into `acc` (in place) and return
    the per-entry step matrix eta / (b + acc)^(1/2+eps).

    Entries whose accumulator (plus b) is zero get step eta; that only happens
    where every past direction entry was zero, so the step multiplies zero.
    """
    acc += direction * direction
    base = b + acc
    steps = np.full_like(base, eta)
    mask = base > 0
    steps[mask] = eta / base[mask] ** (0.5 + eps)
    return steps


class AdaGradState:
    """Per-core accumulators of squared search-direction entries."""

    def __init__(self):
        self.acc: dict[int, np.ndarray] = {}

    def step_matrix(self, mode: int, direction: np.ndarray, sched: AdaGradStep) -> np.ndarray:
        if mode not in self.acc:
            self.acc[mode] = np.zeros_like(direction)
        return adagrad_update(self.acc[mode], direction, sched.eta, sched.b, sched.eps)


# ---------------------------------------------------------------------------
# gradients, Hessians, directions


def objective(cores, x: np.ndarray) -> float:
    """0.5 * squared Frobenius error of the TR model against x."""
    return 0.5 * residual_norm(cores, x) ** 2


def _grad_and_gram(cores, x, mode):
    sub = subchain_unfolding(subchain_tensor(cores, mode))
    gram = sub.T @ sub
    g = core_unfolding(cores[mode]) @ gram - mode_n_unfolding(x, mode) @ sub
    return g, gram


def full_gradient(cores, x: np.ndarray, mode: int) -> np.ndarray:
    """Exact block gradient of the half squared error w.r.t. the unfolded core:
    G_(2) (S^T S) - X_[n] S with S the subchain unfolding."""
    return _grad_and_gram(cores, x, mode)[0]


def stochastic_gradient(core: np.ndarray, batch: SampleBatch, j_total: int) -> np.ndarray:
    """Row-sampled gradient estimate for the core whose mode was sampled.

    With S the sampled subchain rows, X_S the matching fibers and
    D = diag(1/probs), the value is

        (1/(batch * J)) * (G_(2) S^T D S - X_S D S),

    whose expectation is full_gradient / J, so J times it is unbiased for the
    full gradient.  Solvers step with this value (the constant is absorbed by
    the step size).
    """
    if batch.fibers is None:
        raise ValueError("gradient estimation needs sampled fibers")
    if np.any(batch.probs <= 0):
        raise ValueError("nonpositive realized probability in batch")
    s = subchain_unfolding(batch.subchain)
    w = 1.0 / batch.probs
    g2 = core_unfolding(core)
    m = len(w)
    return (g2 @ (s.T @ (s * w[:, None])) - (batch.fibers * w) @ s) / (m * j_total)


def stochastic_hessian(batch: SampleBatch, j_total: int, damping: float = 0.0) -> np.ndarray:
    """Small-factor Hessian estimate (1/(batch * J)) S^T D S + damping * I.

    The full Hessian block is this factor Kronecker the identity on the mode
    extent; the identity factor is exploited by the solvers, never formed.
    """
    if np.any(batch.probs <= 0):
        raise ValueError("nonpositive realized probability in batch")
    s = subchain_unfolding(batch.subchain)
    w = 1.0 / batch.probs
    h = s.T @ (s * w[:, None]) / (len(w) * j_total)
    if damping:
        h = h + damping * np.eye(h.shape[0])
    return h


def search_direction(g: np.ndarray, h: np.ndarray | None = None,
                     damping: float = 0.0) -> np.ndarray:
    """Descent direction -g, or -g h^{-1} through a symmetric positive-definite
    solve when a (damped) Hessian factor is given.

    A non-finite g or h (an overflowed estimate) has no solve and gives an
    all-NaN direction, so the step it makes is caught as a non-finite core.
    """
    if h is None:
        return -g
    if not (np.isfinite(g).all() and np.isfinite(h).all()):
        return np.full_like(g, np.nan)
    try:
        factor = scipy.linalg.cho_factor(h)
    except np.linalg.LinAlgError as exc:
        if damping <= 0:
            raise ValueError(
                "Hessian factor is singular; use a positive damping parameter"
            ) from exc
        jitter = max(damping, 1e-12 * np.trace(h) / h.shape[0])
        factor = scipy.linalg.cho_factor(h + jitter * np.eye(h.shape[0]))
    return -scipy.linalg.cho_solve(factor, g.T).T


# ---------------------------------------------------------------------------
# configuration and shared run loop


@dataclass
class SolverConfig:
    """Knobs shared by all solvers.

    ranks are the target TR-ranks (length = tensor order, cyclically chained).
    batch_grad / batch_hess are the gradient and Hessian sampling sizes.
    damping is the preconditioner ridge.
    Stopping: any subset of max_iters / max_seconds / rse_tol, at least one
    set; they are checked in the order rse_tol, max_iters, max_seconds at each
    evaluation point, after a non-finite RSE or core, which always stops the
    run.  eval_every=None evaluates every iteration for tensors
    under 1e6 entries and every 100 iterations above.
    """

    ranks: tuple[int, ...]
    schedule: ConstantStep | RobbinsMonroStep | AdaGradStep = field(
        default_factory=lambda: ConstantStep(1e-2)
    )
    batch_grad: int = 1
    batch_hess: int = 1
    damping: float = 0.0
    sampling: SamplingSpec = field(default_factory=SamplingSpec)
    max_iters: int | None = 1000
    max_seconds: float | None = None
    rse_tol: float | None = None
    eval_every: int | None = None
    seed: int = 0
    init_scale: float = 1.0
    time_includes_eval: bool = False

    def __post_init__(self):
        self.ranks = tuple(int(r) for r in self.ranks)
        if any(r < 1 for r in self.ranks):
            raise ValueError("ranks must be positive")
        if self.batch_grad < 1 or self.batch_hess < 1:
            raise ValueError("batch sizes must be >= 1")
        if self.max_iters is None and self.max_seconds is None and self.rse_tol is None:
            raise ValueError("at least one stopping criterion must be set")
        if self.eval_every is not None and self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")


def _root_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(0,))))


def _iteration_rng(seed: int, t: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(1, t))))


def _init_cores(x: np.ndarray, config: SolverConfig, init) -> list[np.ndarray]:
    if len(config.ranks) != x.ndim:
        raise ValueError(f"{len(config.ranks)} ranks for an order-{x.ndim} tensor")
    if init is not None:
        cores = [np.array(c, dtype=np.float64, copy=True) for c in init]
        validate_cores(cores)
        return cores
    rng = _root_rng(config.seed)
    ranks = config.ranks
    return [
        config.init_scale * rng.standard_normal((ranks[n], x.shape[n], ranks[(n + 1) % x.ndim]))
        for n in range(x.ndim)
    ]


def _run_loop(x, cores, config, algorithm, sampling_name, do_iteration,
              callback=None, clock=None):
    """Drive `do_iteration(t, cores)` until a stopping criterion fires.

    Iteration work is timed with `clock` (default perf_counter); evaluation
    time is excluded from elapsed unless config.time_includes_eval.  Stopping
    criteria are checked only at evaluation points, in the order
    non-finite -> rse_tol -> max_iters -> max_seconds; an evaluation is forced
    whenever the iteration count or elapsed budget is hit, or when
    `do_iteration` returns False: the stochastic solvers do so as soon as they
    write a non-finite core, because the next draw from that core's
    distribution would raise.  A non-finite RSE or core stops the run with
    reason "diverged".
    """
    clock = clock if clock is not None else time.perf_counter
    x = np.asfortranarray(x)  # residual_norm reads a column-major x in place
    norm_x = np.linalg.norm(x)
    if norm_x == 0:
        raise ValueError("cannot fit an all-zero tensor (RSE undefined)")
    eval_every = config.eval_every
    if eval_every is None:
        eval_every = 1 if x.size < 1_000_000 else 100
    max_iters = math.inf if config.max_iters is None else config.max_iters
    max_seconds = math.inf if config.max_seconds is None else config.max_seconds
    tol = config.rse_tol

    records: list[tuple[int, float, float]] = []
    state = {"elapsed": 0.0, "non_finite": False}

    def evaluate(t: int) -> float:
        t0 = clock()
        rse_val = float(residual_norm(cores, x) / norm_x)
        if not (math.isfinite(rse_val) and all(np.isfinite(c).all() for c in cores)):
            state["non_finite"] = True
            logger.warning("%s: non-finite RSE or core at iteration %d, stopping",
                           algorithm, t)
        dt = clock() - t0
        if config.time_includes_eval:
            state["elapsed"] += dt
        records.append((t, state["elapsed"], rse_val))
        if callback is not None:
            callback(t, state["elapsed"], rse_val)
        return rse_val

    def stop_reason(t: int, rse_val: float) -> str | None:
        if state["non_finite"]:
            return "diverged"
        if tol is not None and rse_val <= tol:
            return "tol"
        if t >= max_iters:
            return "max_iters"
        if state["elapsed"] >= max_seconds:
            return "max_time"
        return None

    rse_val = evaluate(0)
    reason = stop_reason(0, rse_val)
    t = 0
    while reason is None:
        t0 = clock()
        finite = do_iteration(t, cores)
        state["elapsed"] += clock() - t0
        t += 1
        if (not finite or t % eval_every == 0 or t >= max_iters
                or state["elapsed"] >= max_seconds):
            rse_val = evaluate(t)
            reason = stop_reason(t, rse_val)
    trace = RunTrace(
        algorithm=algorithm,
        sampling=sampling_name,
        records=records,
        terminal_reason=reason,
    )
    return cores, trace


def _apply_step(cores, mode, direction, config, t, adagrad_state) -> bool:
    """Replace cores[mode] by a new array one step along `direction`; never
    write into the old one.  Returns whether the new core is finite."""
    g2 = core_unfolding(cores[mode])
    if isinstance(config.schedule, AdaGradStep):
        steps = adagrad_state.step_matrix(mode, direction, config.schedule)
        g2 = g2 + steps * direction
    else:
        g2 = g2 + schedule_value(config.schedule, t) * direction
    r_left, _, r_right = cores[mode].shape
    cores[mode] = fold_core(g2, r_left, r_right)
    return bool(np.isfinite(g2).all())


# ---------------------------------------------------------------------------
# deterministic solvers


def tr_als(x, config: SolverConfig, init=None, callback=None, clock=None,
           on_core_update=None):
    """Alternating least squares: cyclic sweeps where each core update solves
    its linear least-squares subproblem exactly.

    One iteration of the trace is one full sweep.  Rank-deficient subchain
    unfoldings fall back to the minimum-norm solution with a logged warning.
    `on_core_update(mode, cores)`, if given, fires after every core update.
    """
    x = np.asarray(x, dtype=np.float64)
    cores = _init_cores(x, config, init)

    def sweep(_t, cores):
        for n in range(x.ndim):
            a = subchain_unfolding(subchain_tensor(cores, n))
            rhs = mode_n_unfolding(x, n).T
            sol, _res, rank, _sv = np.linalg.lstsq(a, rhs, rcond=None)
            if rank < a.shape[1]:
                logger.warning(
                    "tr_als: subchain unfolding for mode %d is rank deficient "
                    "(%d < %d); using the minimum-norm update", n, rank, a.shape[1]
                )
            r_left, _, r_right = cores[n].shape
            cores[n] = fold_core(sol.T, r_left, r_right)
            if on_core_update is not None:
                on_core_update(n, cores)
        return True

    return _run_loop(x, cores, config, "tr-als", "none", sweep,
                     callback=callback, clock=clock)


def _gradient_descent(x, config, init, callback, clock, scaled):
    x = np.asarray(x, dtype=np.float64)
    cores = _init_cores(x, config, init)
    adagrad_state = AdaGradState()
    name = "tr-scaled-gd" if scaled else "tr-gd"

    def iteration(t, cores):
        damping = config.damping
        blocks = [_grad_and_gram(cores, x, n) for n in range(x.ndim)]
        for n, (g, gram) in enumerate(blocks):
            if scaled:
                h = gram + damping * np.eye(gram.shape[0]) if damping else gram
                direction = search_direction(g, h, damping=damping)
            else:
                direction = -g
            _apply_step(cores, n, direction, config, t, adagrad_state)
        # a non-finite core only propagates NaN through full-gradient
        # iterations, so it is left to the next evaluation
        return True

    return _run_loop(x, cores, config, name, "none", iteration,
                     callback=callback, clock=clock)


def tr_gd(x, config: SolverConfig, init=None, callback=None, clock=None):
    """Full gradient descent: every core is updated each iteration from the
    same iterate (simultaneous block updates)."""
    return _gradient_descent(x, config, init, callback, clock, scaled=False)


def tr_scaled_gd(x, config: SolverConfig, init=None, callback=None, clock=None):
    """Gradient descent with each block gradient right-multiplied by the
    inverse (damped) Gram matrix of its subchain unfolding."""
    return _gradient_descent(x, config, init, callback, clock, scaled=True)


# ---------------------------------------------------------------------------
# block-randomized stochastic solvers


def _stochastic_solver(x, config, init, callback, clock, scaled):
    x = np.asarray(x, dtype=np.float64)
    cores = _init_cores(x, config, init)
    n_modes = x.ndim
    sizes = [x.size // x.shape[n] for n in range(n_modes)]
    adagrad_state = AdaGradState()
    name = "tr-scaled-brsgd" if scaled else "tr-brsgd"
    # k -> (core array, its distribution).  An entry is exact while cores[k]
    # is the stored array: _apply_step replaces a core with a new array and
    # never writes into one, so only the core updated last goes stale.
    dist_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def dists_for(mode, cores):
        for k, core in enumerate(cores):
            if k != mode and (k not in dist_cache or dist_cache[k][0] is not core):
                dist_cache[k] = (core, core_distribution(core, config.sampling.kind))
        return [None if k == mode else dist_cache[k][1] for k in range(n_modes)]

    def draw_batches(cores, rng):
        n = int(rng.integers(n_modes))
        if config.sampling.kind == "optimal":
            sub_mat = subchain_unfolding(subchain_tensor(cores, n))
            resid = core_unfolding(cores[n]) @ sub_mat.T - mode_n_unfolding(x, n)
            q = optimal_distribution_oracle(resid, sub_mat)
            batch = sample_rows_batch(cores, x, n, config.batch_grad, q, rng)
            if not scaled:
                return n, batch, None
            return n, batch, sample_rows_batch(cores, x, n, config.batch_hess, q, rng)
        dists = dists_for(n, cores)
        batch = sample_subchain_fibers(cores, x, n, config.batch_grad, dists, rng)
        if not scaled:
            return n, batch, None
        return n, batch, sample_subchain_fibers(
            cores, x, n, config.batch_hess, dists, rng, with_fibers=False)

    def iteration(t, cores):
        rng = _iteration_rng(config.seed, t)
        n, batch, batch_h = draw_batches(cores, rng)
        g = stochastic_gradient(cores[n], batch, sizes[n])
        if scaled:
            h = stochastic_hessian(batch_h, sizes[n], config.damping)
            direction = search_direction(g, h, damping=config.damping)
        else:
            direction = -g
        return _apply_step(cores, n, direction, config, t, adagrad_state)

    return _run_loop(x, cores, config, name, config.sampling.kind, iteration,
                     callback=callback, clock=clock)


def tr_brsgd(x, config: SolverConfig, init=None, callback=None, clock=None):
    """Block-randomized stochastic gradient descent: draw a mode uniformly,
    sample subchain rows and fibers, and update only that core along the
    negative stochastic gradient."""
    return _stochastic_solver(x, config, init, callback, clock, scaled=False)


def tr_scaled_brsgd(x, config: SolverConfig, init=None, callback=None, clock=None):
    """Stochastic block updates preconditioned by the inverse of the damped
    Gram factor of an independent row-sampled batch."""
    return _stochastic_solver(x, config, init, callback, clock, scaled=True)


__all__ = [
    "ConstantStep",
    "RobbinsMonroStep",
    "AdaGradStep",
    "schedule_value",
    "adagrad_update",
    "AdaGradState",
    "objective",
    "full_gradient",
    "stochastic_gradient",
    "stochastic_hessian",
    "search_direction",
    "SolverConfig",
    "tr_als",
    "tr_gd",
    "tr_scaled_gd",
    "tr_brsgd",
    "tr_scaled_brsgd",
]
