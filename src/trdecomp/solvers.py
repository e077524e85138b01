"""TR decomposition solvers.

Deterministic baselines (alternating least squares, gradient descent, scaled
gradient descent) and the block-randomized stochastic methods: per iteration
a mode is drawn uniformly, subchain rows and matching fibers are sampled, and
only that core is updated along the (optionally preconditioned) stochastic
gradient.  Step schedules include a constant step, a decaying
Robbins-Monro step, and per-entry AdaGrad.

All solvers return ``(cores, RunTrace)`` and are bitwise deterministic given
(config, seed, BLAS build, BLAS thread count): a different BLAS, or the same
one at another thread count, may round the dense products differently.
A run draws its initial cores from one Philox stream and every iteration's
mode and rows from a second; evaluation draws nothing, so draws do not
depend on evaluation cadence.
"""

from __future__ import annotations

import functools
import logging
import math
import numbers
import time
import typing
from dataclasses import dataclass, field, fields

import numpy as np

from .core import (
    _subchain_product,
    core_unfolding,
    fold_core,
    half_chains,
    mode_n_unfolding,
    numerical_rank,
    residual_norm,
    rotation_modes,
    slab_products,
    subchain_tensor,
    subchain_unfolding,
    tr_reconstruct,  # noqa: F401  (perfbench/tracing.py spans calls made through here)
    unfolding_matmul,
    validate_cores,
)
from .metrics import reference_norm
from .sampling import (
    CoreSampler,
    SamplingSpec,
    core_distribution,
    core_distributions,  # noqa: F401  (perfbench/tracing.py spans calls made through here)
    core_sampler,
    optimal_distribution_oracle,
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
        check_fields(self)
        # zero is allowed as a degenerate diagnostic (iterates stay put)
        if not 0 <= self.alpha < math.inf:
            raise ValueError("constant step size must be finite and nonnegative")


@dataclass(frozen=True)
class RobbinsMonroStep:
    """alpha_t = alpha0 / (t+1)**gamma; gamma in (0.5, 1] makes the step sums
    divergent while the squared sums stay finite."""

    alpha0: float
    gamma: float = 1.0

    def __post_init__(self):
        check_fields(self)
        if not 0 < self.alpha0 < math.inf:
            raise ValueError("alpha0 must be finite and positive")
        if not 0.5 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0.5, 1]")


@dataclass(frozen=True)
class AdaGradStep:
    """Per-entry step eta / (b + sum of squared past direction entries)^(1/2+eps)."""

    eta: float
    b: float = 0.0
    eps: float = 0.0

    def __post_init__(self):
        check_fields(self)
        if not 0 < self.eta < math.inf:
            raise ValueError("eta must be finite and positive")
        if not (0 <= self.b < math.inf and 0 <= self.eps < math.inf):
            raise ValueError("b and eps must be finite and nonnegative")


# ---------------------------------------------------------------------------
# gradients, Hessians, directions


def _transfer_grams(cores) -> list[np.ndarray]:
    """Every mode's Gram S_n^T S_n, from no subchain: sum_j S(j) (x) S(j) is
    the product, in rotation order, of the transfer matrices
    W_k = sum_i G_k(i) (x) G_k(i), read into `core_unfolding`'s column order."""
    transfer = []
    for c in cores:
        r1, i, r2 = c.shape
        a = c.transpose(0, 2, 1).reshape(r1 * r2, i)
        transfer.append((a @ a.T).reshape(r1, r2, r1, r2).swapaxes(1, 2).reshape(r1 * r1, -1))
    grams = []
    for n, (r1, _, r2) in enumerate(c.shape for c in cores):
        m = functools.reduce(np.matmul, [transfer[k] for k in rotation_modes(n, len(cores))])
        grams.append(m.reshape(r2, r2, r1, r1).swapaxes(1, 2).reshape(r2 * r1, -1))
    return grams


def _closing_core(t: np.ndarray, p: int, q: int) -> np.ndarray:
    """The (p, K, q) core whose slice k is row k of t as a (p, q) matrix.  With
    Q t a factorization of a half-chain's (J, p*q) unfolding, the half-chain
    is this core with Q applied along its middle index; t = I gives the unit
    core of `_tree_products`, whose slice k = i*q + j is e_i e_j^T."""
    return t.reshape(len(t), p, q).transpose(1, 0, 2)


def _half_qr(half) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR Q T of the (J, R_a*R_c) subchain unfolding S of the half-chain
    of the cores `half`, taken core by core as in the left-orthogonalization
    of a tensor train; the J x R_a*R_c unfolding is never formed.

    The first core's (I_1, R_a*R_b) unfolding is Q_1 T_1.  Each next core G
    is joined to the `_closing_core` C of the last T, and the (r*I, R_a*R')
    subchain unfolding of [C, G] is Q_k T_k.  Then
    S = (I (x) Q_1) ... (I (x) Q_m-1) Q_m T_m, and each Kronecker factor has
    orthonormal columns, so Q is their product, expanded into one C-ordered
    (J, K) array (first core's index fastest), and T = T_m is upper
    triangular.  K is the last QR's column count, which may fall below
    min(J, R_a*R_c) where an inner rank or extent is small; Q T = S holds
    all the same.
    """
    q, t = np.linalg.qr(subchain_unfolding(half[0]))
    for c in half[1:]:
        block = _subchain_product(_closing_core(t, half[0].shape[0], c.shape[0]), c)
        qk, t = np.linalg.qr(subchain_unfolding(block))
        q = np.matmul(q, qk.reshape(c.shape[1], q.shape[1], -1)).reshape(-1, qk.shape[1])
    return q, t


def _reduced_data(product: np.ndarray, ring) -> np.ndarray:
    """The data tensor of a reduced ring [C, G_lo, ..., G_hi-1], C its closing
    core, from the C-ordered (J, K) product of x with C's K columns: the
    column-major (K, I_lo, ..., I_hi-1) view of its transpose, no copy."""
    return product.T.reshape([c.shape[1] for c in ring], order="F")


def _tree_products(cores, x, units) -> list[np.ndarray]:
    """X_[n] S_n for every mode n, from one `slab_products` pass over x.

    With X the (J_L, J_R) view of x and L, R the `half_chains`, Z = X R_unf
    and Y = X^T L_unf have K = R_0 R_h columns.  A left mode's product is
    that of Z with the subchain of the reduced ring [units[0], G_0, ...,
    G_{h-1}], whose slice k = b R_0 + a is e_b e_a^T; a right mode's takes Y
    and units[1] alike.  Y overwrites R's stack slab by slab, once Z has
    read it: a fresh (J_R, K) Y, or a per-run buffer, was mapped or trimmed
    and faulted in again by glibc on every call."""
    h = x.ndim // 2
    left, right = half_chains(cores)
    r_unf = subchain_unfolding(right)
    xmat = x.reshape(left.shape[1], right.shape[1], order="F")
    z, y = slab_products(xmat, r_unf, subchain_unfolding(left), y=r_unf)
    products = []
    for product, ring in ((z, [units[0], *cores[:h]]), (y, [units[1], *cores[h:]])):
        data = _reduced_data(product, ring)
        products += [unfolding_matmul(data, m, subchain_unfolding(subchain_tensor(ring, m)))
                     for m in range(1, len(ring))]
    return products


def stochastic_gradient(core: np.ndarray, s: np.ndarray, fibers: np.ndarray,
                        probs: np.ndarray, j_total: int) -> np.ndarray:
    """Row-sampled gradient estimate for the core whose mode was sampled.

    With S = s the sampled rows of the subchain unfolding, X_S the matching
    fibers and D = diag(1/probs), the value is

        (1/(batch * J)) * (G_(2) S^T D S - X_S D S),

    whose expectation is the exact block gradient G_(2) (S^T S) - X_[n] S over
    the full subchain unfolding S, divided by J; so J times it is unbiased for
    the full gradient.  Solvers step with this value (the constant is absorbed by
    the step size).
    """
    if (probs <= 0).any():
        raise ValueError("nonpositive realized probability in batch")
    w = 1.0 / probs
    g2 = core_unfolding(core)
    return (g2 @ (s.T @ (s * w[:, None])) - (fibers * w) @ s) / (len(w) * j_total)


def stochastic_hessian(s: np.ndarray, probs: np.ndarray, j_total: int) -> np.ndarray:
    """Small-factor Hessian estimate (1/(batch * J)) S^T D S from the sampled
    subchain-unfolding rows S = s and D = diag(1/probs).

    The full Hessian block is this factor Kronecker the identity on the mode
    extent; the identity factor is exploited by the solvers, never formed.
    """
    if (probs <= 0).any():
        raise ValueError("nonpositive realized probability in batch")
    w = 1.0 / probs
    return s.T @ (s * w[:, None]) / (len(w) * j_total)


def search_direction(g: np.ndarray, h: np.ndarray,
                     damping: float) -> tuple[np.ndarray, bool]:
    """Descent direction -g (h + damping I)^{-1} through the Cholesky factor
    of the damped Hessian factor, and whether it took the jitter fallback.

    The factor is numpy's `cholesky(upper=True)`, which is LAPACK dpotrf's
    upper factor bit for bit, and the solve goes through its inverse W = U^-1:
    the direction is -(g W) W^T.  If damping > 0 and the damped factor is not
    numerically positive definite, it is factored once more with the ridge
    raised by max(damping, 1e-12 * trace / R^2), and the flag is True; the
    scaled solvers count it in `RunTrace.chol_jitter`.  With no Cholesky
    factor (at zero damping, or after the retry) or a non-finite g or h (an
    overflowed estimate) there is no solve: the direction is all NaN, so its
    step writes a non-finite core and the run stops as diverged.
    """
    size = h.shape[0]
    if damping:
        h = h.astype(np.float64)
        h.flat[::size + 1] += damping
    if not (np.isfinite(g).all() and np.isfinite(h).all()):
        return np.full_like(g, np.nan), False
    jittered = False
    try:
        factor = np.linalg.cholesky(h, upper=True)
    except np.linalg.LinAlgError:
        if not damping > 0:
            return np.full_like(g, np.nan), False
        jittered = True
        h.flat[::size + 1] += max(damping, 1e-12 * np.trace(h) / size)
        try:
            factor = np.linalg.cholesky(h, upper=True)
        except np.linalg.LinAlgError:
            return np.full_like(g, np.nan), True
    w = np.linalg.inv(factor)
    return -(g @ w) @ w.T, jittered


# ---------------------------------------------------------------------------
# configuration and shared run loop


def as_int(value, where: str, error=ValueError) -> int:
    """`value` as an int; a bool, or a number int() would truncate, raises
    `error` rather than silently changing the run."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{where} must be an integer, not {value!r}")
    return int(value)


@functools.cache
def field_types(cls) -> dict:
    """Field name -> type of settings dataclass `cls`: one shared dict per class."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def check_fields(settings) -> None:
    """Check each field of a settings dataclass against its type, storing
    counts as ints and reals as floats; a bad value raises ValueError naming
    its field.  None only where the type is Optional, a tuple of counts from a
    list or a tuple, counts by `as_int`, no bool or string for a real."""
    for name, hint in field_types(type(settings)).items():
        value = getattr(settings, name)
        types = typing.get_args(hint) or (hint,)
        if value is None and type(None) in types:
            continue
        if typing.get_origin(hint) is tuple:
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"{name} must be a list or a tuple, not {value!r}")
            value = tuple(as_int(v, name) for v in value)
        elif int in types:
            value = as_int(value, name)
        elif float in types:
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, not {value!r}")
            try:
                value = float(value)
            except OverflowError:
                raise ValueError(f"{name} is too large for a float") from None
        elif not isinstance(value, types):
            raise ValueError(f"{name} must be a "
                             f"{' or '.join(t.__name__ for t in types)}, not {value!r}")
        object.__setattr__(settings, name, value)


@dataclass
class SolverConfig:
    """Knobs shared by all solvers.

    ranks are the target TR-ranks (length = tensor order, cyclically chained).
    batch_grad / batch_hess are the gradient and Hessian sampling sizes.
    damping is the preconditioner ridge; init_scale the standard deviation of
    the random start.
    Stopping: any subset of max_iters / max_seconds / rse_tol, at least one
    set; they are checked in the order rse_tol, max_iters, max_seconds at each
    evaluation point, after a non-finite RSE or core, which always stops the
    run.  max_seconds counts iteration time only, never RSE evaluation.
    eval_every=None evaluates every ceil(9/N) iterations in a dense or
    `optimal` run, and in a sampled one at the smallest interval, at most
    100, at which the modelled evaluation time is at most 10% of the run.
    Invalid values raise ValueError here, before a run starts: each field's
    type first (`check_fields`), then its range.
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

    def __post_init__(self):
        check_fields(self)
        if len(self.ranks) < 2:
            raise ValueError(f"ranks must have at least 2 entries, not {self.ranks}")
        if any(r < 1 for r in self.ranks):
            raise ValueError("ranks must be positive")
        if self.batch_grad < 1 or self.batch_hess < 1:
            raise ValueError("batch sizes must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, not {self.seed}")
        if self.max_iters is None and self.max_seconds is None and self.rse_tol is None:
            raise ValueError("at least one stopping criterion must be set")
        if self.max_iters is not None and self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        # written so that NaN fails these checks
        if self.max_seconds is not None and not self.max_seconds >= 0:
            raise ValueError("max_seconds must be >= 0")
        if self.rse_tol is not None and not self.rse_tol >= 0:
            raise ValueError("rse_tol must be >= 0")
        if self.eval_every is not None and self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if not 0 <= self.damping < math.inf:
            raise ValueError("damping must be finite and >= 0")
        if not 0 < self.init_scale < math.inf:
            raise ValueError("init_scale must be finite and positive")


def _run_rng(seed: int, stream: int) -> np.random.Generator:
    """Stream 0 of a run draws the initial cores, stream 1 the iterations."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(stream,))))


def _init_cores(x: np.ndarray, config: SolverConfig, init) -> list[np.ndarray]:
    ranks = config.ranks
    shapes = [(ranks[n], x.shape[n], ranks[(n + 1) % x.ndim]) for n in range(x.ndim)]
    if init is not None:
        cores = [np.array(c, dtype=np.float64, copy=True) for c in init]
        validate_cores(cores)
        fitted = [c.shape for c in cores]
        if fitted != shapes:
            raise ValueError(f"init cores of shapes {fitted} do not fit the config's "
                             f"ranks and the tensor: expected {shapes}")
        return cores
    rng = _run_rng(config.seed, 0)
    return [config.init_scale * rng.standard_normal(shape) for shape in shapes]


# Default evaluation cadence.  It reads sizes only, never a clock, so the
# cadence and hence every run stay bitwise deterministic.  A dense run and
# the `optimal` diagnostic evaluate every ceil(9/N) iterations, by rule.  A
# sampled iteration costs the same at any size of x, so its cadence comes
# from a time model in nanoseconds with two constants: an evaluation costs
# CALL_NS plus ~1 ns per entry of x it reads, and a sampled iteration
# CALL_NS plus SLICE_NS for each of the N-1 slices of each drawn row.
# Measured against modelled, single-threaded OpenBLAS on a 2-vCPU Xeon, min
# of 15 (BENCH_cadence_model.json): residual_norm 19, 42, 1010 and 1331 us
# on 6^3, 25^3, 30^4 and 100^3 (30, 46, 840, 1030); a uniform TR-BRSGD
# iteration at batch 100 72 and 154 us on 25^3 and 30^4 (76, 99); a
# TR-ScaledBRSGD one at batches 100/300 171-307 and 268-358 us (214, 306).
# The sampled iterations predate the guide tables, which made a
# TR-ScaledBRSGD one 10-21% cheaper; refitting from measured stage costs is
# left to the cadence work (ROADMAP item 3).
CALL_NS = 30_000
SLICE_NS = 230
MAX_EVAL_EVERY = 100

# A dense solver's RSE from its own products of x (`_estimated_rse`)
# cancels: its relative error measured about c * eps / RSE^2, c = 1 to 10,
# on 25^3, 100^3 and 30^4 (BENCH_dense_one_pass.json).  So at c = 10 it is
# within ESTIMATE_BOUND of `residual_norm` above ESTIMATE_FLOOR
# (10 eps / 5e-3^2 = 8.9e-11).
ESTIMATE_FLOOR = 5e-3
ESTIMATE_BOUND = 1e-10


def _default_eval_every(x, rows: int | None) -> int:
    """ceil(9/N) for a dense or `optimal` run (rows None); for a run that
    draws `rows` rows per iteration, the smallest k <= MAX_EVAL_EVERY whose
    modelled evaluation share eval / (eval + k * iteration) is at most 10%,
    i.e. k * iteration >= 9 * eval."""
    if rows is None:
        return math.ceil(9 / x.ndim)
    iteration_ns = CALL_NS + SLICE_NS * (x.ndim - 1) * rows
    return min(MAX_EVAL_EVERY, math.ceil(9 * (CALL_NS + x.size) / iteration_ns))


def check_fit(x, config: SolverConfig, sampled_hessian: bool = False) -> float:
    """x's norm, after the checks of a run that need the tensor, which every
    solver makes first and `bench.run_experiment` makes before it writes
    anything.  Each raises ValueError: a tensor with no RSE (`reference_norm`),
    ranks not one per mode, or, for a sampled Hessian (TR-ScaledBRSGD), a
    batch_hess below R_n R_(n+1) at damping 0, where the factor is singular."""
    norm = reference_norm(x)
    ranks, order = config.ranks, np.ndim(x)
    if len(ranks) != order:
        raise ValueError(f"{len(ranks)} ranks for an order-{order} tensor")
    r2 = max(ranks[n] * ranks[(n + 1) % order] for n in range(order))
    if sampled_hessian and config.damping == 0 and config.batch_hess < r2:
        raise ValueError(f"batch_hess={config.batch_hess} is below the Hessian factor size "
                         f"R_n*R_(n+1)={r2}, so at damping=0 the factor is singular; "
                         "raise batch_hess or set a positive damping")
    return norm


def _fit_input(x, config, sampled_hessian=False) -> tuple[np.ndarray, float]:
    """x column-major (no copy for `read_tensor` and `synth_tensor` output),
    read in place by every solver, and its norm from `check_fit`, which each
    solver calls through this first."""
    x = np.asfortranarray(x, dtype=np.float64)
    return x, check_fit(x, config, sampled_hessian)


def _estimated_rse(cross, model_sq, norm_x, tol) -> float | None:
    """The RSE from a = `cross` = <X_(n) S_n, G_n> and b = `model_sq` =
    <G_n S_n^T S_n, G_n>, two numbers a dense solver took of the current
    iterate for some mode n, as ||X - M||^2 = ||X||^2 - 2a + b; None unless
    that is finite, above ESTIMATE_FLOOR and, within ESTIMATE_BOUND, above
    tol, so the estimate never decides a stop."""
    sq = norm_x * norm_x - 2 * cross + model_sq
    rse_val = float(math.sqrt(sq) / norm_x) if sq > 0 else 0.0
    if not (ESTIMATE_FLOOR < rse_val < math.inf):
        return None
    if tol is not None and rse_val * (1 - ESTIMATE_BOUND) <= tol:
        return None
    return rse_val


def _run_loop(x, norm_x, cores, config, trace, do_iteration, rows, clock=None,
              own_terms=None):
    """Drive `do_iteration(t, cores)` until a stopping criterion fires, and
    fill in the solver's `trace`: its records, eval_every, eval_s,
    terminal_reason and, for a solver with `own_terms`, estimated.
    Counters the iterations keep (chol_jitter, rank_deficient) are the
    solver's own: it made the trace and counts into it.

    x and its norm come from `_fit_input`, so `residual_norm` reads x in
    place.  Iteration work is timed with `clock` (default perf_counter) into
    the records' elapsed time, which max_seconds is checked against;
    evaluation time is kept apart, in the trace's eval_s.  The RSE is
    evaluated at iteration 0 and every config.eval_every iterations, or if
    that is None every `_default_eval_every(x, rows)`: `rows` is what a
    sampled iteration draws, None for a dense solver and `optimal`.
    Stopping criteria are checked only at evaluation points, in the order
    non-finite -> rse_tol -> max_iters -> max_seconds; an evaluation is
    forced whenever the iteration count or elapsed budget is hit, or when
    `do_iteration` returns False.  The step-based solvers return whether
    their step wrote finite cores (a preconditioner with no Cholesky factor
    gives an all-NaN direction, so its step does not), and the `optimal`
    sampler returns False for a non-finite residual, which leaves no
    distribution to draw from.  A False return, or a non-finite RSE or core,
    stops the run at that iteration with reason "diverged".

    A dense solver passes `own_terms(cores)`, which gives the two numbers
    (a, b) of `_estimated_rse` its iterations took of the current iterate,
    or None.  At an evaluation that is not terminal (no iteration or time
    budget hit, every core finite) the estimate ||X||^2 - 2a + b is the
    record, counted in the trace's `estimated`, wherever `_estimated_rse`
    takes it: then the evaluation reads no x.  Everywhere else the record
    is `residual_norm`'s, so every stop is decided, and every terminal
    record taken, exactly.
    """
    clock = clock if clock is not None else time.perf_counter
    eval_every = config.eval_every
    if eval_every is None:
        eval_every = _default_eval_every(x, rows)
    max_iters = math.inf if config.max_iters is None else config.max_iters
    max_seconds = math.inf if config.max_seconds is None else config.max_seconds
    tol = config.rse_tol
    trace.eval_every, trace.eval_s = eval_every, 0.0
    if own_terms is not None:
        trace.estimated = 0
    t, elapsed, finite = 0, 0.0, True
    while True:
        budget_hit = t >= max_iters or elapsed >= max_seconds
        if not finite or budget_hit or t % eval_every == 0:
            t0 = clock()
            finite = finite and all(np.isfinite(c).all() for c in cores)
            own = None if budget_hit or not finite or own_terms is None else own_terms(cores)
            rse_val = None if own is None else _estimated_rse(*own, norm_x, tol)
            if rse_val is None:
                rse_val = float(residual_norm(cores, x) / norm_x)
            else:
                trace.estimated += 1
            finite = finite and math.isfinite(rse_val)
            if not finite:
                logger.warning("%s: non-finite iterate, RSE or core at iteration %d, "
                               "stopping", trace.algorithm, t)
            trace.eval_s += clock() - t0
            trace.records.append((t, elapsed, rse_val))
            trace.terminal_reason = ("diverged" if not finite
                                     else "tol" if tol is not None and rse_val <= tol
                                     else "max_iters" if t >= max_iters
                                     else "max_time" if elapsed >= max_seconds else None)
            if trace.terminal_reason is not None:
                return cores, trace
        t0 = clock()
        finite = do_iteration(t, cores)
        elapsed += clock() - t0
        t += 1


def _adagrad_steps(acc: np.ndarray, direction: np.ndarray, sched: AdaGradStep) -> np.ndarray:
    """Accumulate squared direction entries into `acc` (in place) and return
    the per-entry step matrix eta / (b + acc)^(1/2+eps).

    Entries whose accumulator (plus b) is zero get step eta; that only happens
    where every past direction entry was zero, so the step multiplies zero.
    """
    eta, b, eps = sched.eta, sched.b, sched.eps
    acc += direction * direction
    base = b + acc
    return np.divide(eta, base ** (0.5 + eps), out=np.full_like(base, eta), where=base > 0)


def _apply_step(cores, mode, direction, config, t, adagrad_acc) -> bool:
    """Replace cores[mode] by a new array one step along `direction`; never
    write into the old one.  Returns whether the new core is finite.

    The step is the constant alpha, the Robbins-Monro alpha0 / (t+1)^gamma,
    or AdaGrad's per-entry steps from the accumulator adagrad_acc[mode] of
    that core's squared past directions.
    """
    g2 = core_unfolding(cores[mode])
    sched = config.schedule
    if isinstance(sched, AdaGradStep):
        if mode not in adagrad_acc:
            adagrad_acc[mode] = np.zeros_like(direction)
        g2 = g2 + _adagrad_steps(adagrad_acc[mode], direction, sched) * direction
    elif isinstance(sched, RobbinsMonroStep):
        g2 = g2 + sched.alpha0 / (t + 1) ** sched.gamma * direction
    else:
        g2 = g2 + sched.alpha * direction
    r_left, _, r_right = cores[mode].shape
    cores[mode] = fold_core(g2, r_left, r_right)
    return bool(np.isfinite(g2).all())


# ---------------------------------------------------------------------------
# deterministic solvers


def _min_norm_update(sub: np.ndarray, x: np.ndarray, mode: int,
                     shape: tuple[int, int]) -> tuple[np.ndarray, int, float]:
    """Minimum-norm solution G of min ||G S^T - X_[n]||_F, n = mode, the
    numerical rank of S, counted as for a matrix of `shape`, and ||P||^2,
    both numbers a and b of `_estimated_rse` for the iterate G leaves.

    One thin SVD S = U diag(s) V^T gives G = (P / s_r) V_r^T with
    P = X_[n] U_r, where r is the count of singular values above
    max(shape) * eps * s_max (`numerical_rank`).  The solve works at the
    conditioning of S; the normal equations would square it.  P is read off
    a column-major x in place (`unfolding_matmul`).  G S^T is the projection
    P U_r^T of X_[n], so <X_[n] S, G> = <G S^T S, G> = ||P||^2.
    """
    u, s, vt = np.linalg.svd(sub, full_matrices=False)
    rank = numerical_rank(s, shape)
    p = unfolding_matmul(x, mode, u[:, :rank])
    sol = (p / s[:rank]) @ vt[:rank]
    return sol, rank, float(np.vdot(p, p))


def tr_als(x, config: SolverConfig, init=None, clock=None):
    """Alternating least squares: cyclic sweeps where each core update solves
    its linear least-squares subproblem exactly.

    One iteration of the trace is one full sweep, in two phases at the
    `half_chains` cut h = N//2, with X the (J_L, J_R) view of x.  Phase A
    updates modes 0..h-1 against the right half-chain; phase B then updates
    modes h..N-1 against the left half-chain of the updated cores.  Each
    phase takes the thin QR Q T of the fixed half's unfolding core by core
    (`_half_qr`), never forming that unfolding, and makes one
    `slab_products` pass over x, for X Q (phase A) or X^T Q (phase B).  With
    C the `_closing_core` of T, mode n's subchain unfolding is S = P M,
    where M is that of the reduced ring [C, G_lo, ..., G_hi-1] and P (Q on
    the fixed half's index) has orthonormal columns.  So S and M share their
    singular values, and the exact least-squares update of mode n is the
    minimum-norm solution of the reduced problem, M against the product of
    x, from one SVD of M (`_min_norm_update`); and ||G S^T|| = ||G M^T||, so
    the sweep's last update, of mode N-1, gives a = b = ||P||^2 for the RSE
    estimate ||X||^2 - 2a + b of the iterate it leaves (`_run_loop`).
    Each update's rank is counted as for the full S; each sweep adds its
    rank-deficient updates to the trace's rank_deficient, and the run logs
    one warning giving how many of its N x sweeps core updates were rank
    deficient.
    """
    x, norm_x = _fit_input(x, config)
    cores = _init_cores(x, config, init)
    trace = RunTrace("tr-als", "none", chol_jitter=0, rank_deficient=0)
    h = x.ndim // 2
    xmat = x.reshape(math.prod(x.shape[:h]), -1, order="F")
    # the last update's ||P||^2, for the iterate the last sweep left
    own = [None]

    def sweep(_t, cores):
        for lo, hi, fixed in ((0, h, 1), (h, x.ndim, 0)):
            q, t = _half_qr(cores[h:] if fixed else cores[:h])
            product = slab_products(xmat, right=q)[0] if fixed else slab_products(xmat, left=q)[1]
            ring = [_closing_core(t, cores[hi - 1].shape[2], cores[lo].shape[0]), *cores[lo:hi]]
            data = _reduced_data(product, ring)
            for m, n in enumerate(range(lo, hi), 1):
                sub = subchain_unfolding(subchain_tensor(ring, m))
                sol, rank, pp = _min_norm_update(sub, data, m,
                                                 (x.size // x.shape[n], sub.shape[1]))
                own[0] = pp, pp
                trace.rank_deficient += rank < sub.shape[1]
                ring[m] = cores[n] = fold_core(sol, cores[n].shape[0], cores[n].shape[2])
        return True

    _run_loop(x, norm_x, cores, config, trace, sweep, None, clock,
              own_terms=lambda _cores: own[0])
    if trace.rank_deficient:
        logger.warning(
            "tr_als: %d of %d core updates were rank deficient; each took "
            "the minimum-norm solution",
            trace.rank_deficient, x.ndim * trace.final()[0])
    return cores, trace


def _gradient_descent(x, config, init, clock, scaled):
    """TR-GD, or TR-ScaledGD if `scaled`.  After its step each iteration
    takes the Grams and products of the iterate it leaves and, with
    G_0 = `core_unfolding(cores[0])`, the two numbers a = <X_(0) S_0, G_0>
    and b = <G_0 S_0^T S_0, G_0> of its RSE estimate ||X||^2 - 2a + b."""
    x, norm_x = _fit_input(x, config)  # read in place by _tree_products
    cores = _init_cores(x, config, init)
    adagrad_acc: dict[int, np.ndarray] = {}
    trace = RunTrace("tr-scaled-gd" if scaled else "tr-gd", "none", chol_jitter=0)
    r0, rh = config.ranks[0], config.ranks[x.ndim // 2]
    units = [_closing_core(np.eye(p * q), p, q) for p, q in ((rh, r0), (r0, rh))]
    max_iters = math.inf if config.max_iters is None else config.max_iters
    # (grams, products, (a, b)) of the current iterate, which the next
    # iteration starts from; the last iteration need not take them
    ahead = []

    def tree(cores):
        grams, products = _transfer_grams(cores), _tree_products(cores, x, units)
        g = core_unfolding(cores[0])
        return grams, products, (float(np.vdot(products[0], g)), float(np.vdot(g @ grams[0], g)))

    def iteration(t, cores):
        grams, products, _ = ahead.pop() if ahead else tree(cores)
        finite = True
        for n, (gram, xs) in enumerate(zip(grams, products)):
            g = core_unfolding(cores[n]) @ gram - xs
            if scaled:
                direction, jittered = search_direction(g, gram, config.damping)
                trace.chol_jitter += jittered
            else:
                direction = -g
            finite = _apply_step(cores, n, direction, config, t, adagrad_acc) and finite
        if finite and t + 1 < max_iters:
            ahead.append(tree(cores))
        return finite

    return _run_loop(x, norm_x, cores, config, trace, iteration, None, clock,
                     own_terms=lambda _cores: ahead[0][2] if ahead else None)


def tr_gd(x, config: SolverConfig, init=None, clock=None):
    """Full gradient descent: every core is updated each iteration from the
    same iterate (simultaneous block updates)."""
    return _gradient_descent(x, config, init, clock, scaled=False)


def tr_scaled_gd(x, config: SolverConfig, init=None, clock=None):
    """Gradient descent with each block gradient right-multiplied by the
    inverse (damped) Gram matrix of its subchain unfolding."""
    return _gradient_descent(x, config, init, clock, scaled=True)


# ---------------------------------------------------------------------------
# block-randomized stochastic solvers


def _stochastic_solver(x, config, init, clock, scaled):
    x, norm_x = _fit_input(x, config, sampled_hessian=scaled)
    cores = _init_cores(x, config, init)
    n_modes = x.ndim
    adagrad_acc: dict[int, np.ndarray] = {}
    kind = config.sampling.kind
    trace = RunTrace("tr-scaled-brsgd" if scaled else "tr-brsgd", kind, chol_jitter=0)
    rotations = [rotation_modes(n, n_modes) for n in range(n_modes)]
    # dists[k] samples the slices of cores[k]; it is built when first needed
    # and dropped when cores[k] is replaced, except that a uniform
    # distribution depends only on I_k, so it is built once per run.
    dists: list[CoreSampler | None] = [None] * n_modes
    rng = _run_rng(config.seed, 1)
    b = config.batch_grad
    rows = b + (config.batch_hess if scaled else 0)

    def iteration(t, cores):
        n = int(rng.integers(n_modes))
        if kind == "optimal":
            # the subchain unfolding's rows are the slices of G^{!=n}: they
            # are drawn from the order-2 ring [G_n, G^{!=n}] over X_(n)
            sub = subchain_tensor(cores, n)
            sub_mat = subchain_unfolding(sub)
            xn = mode_n_unfolding(x, n)
            residual = core_unfolding(cores[n]) @ sub_mat.T - xn
            if not np.isfinite(residual).all():
                return False
            oracle = core_sampler(sub, optimal_distribution_oracle(residual, sub_mat))
            ring, data, mode, samplers = [cores[n], sub], xn, 0, [None, oracle]
        else:
            for k in rotations[n]:
                if dists[k] is None:
                    dists[k] = core_sampler(cores[k], core_distribution(cores[k], kind))
            ring, data, mode, samplers = cores, x, n, dists
        s, fibers, probs = sample_subchain_fibers(ring, data, mode, rows, samplers, rng,
                                                  fiber_rows=b)
        # i.i.d. rows: the first b form the gradient batch, the rest the
        # Hessian batch, which reads no fibers
        j_total = x.size // x.shape[n]
        g = stochastic_gradient(cores[n], s[:b], fibers, probs[:b], j_total)
        if scaled:
            h = stochastic_hessian(s[b:], probs[b:], j_total)
            direction, jittered = search_direction(g, h, config.damping)
            trace.chol_jitter += jittered
        else:
            direction = -g
        finite = _apply_step(cores, n, direction, config, t, adagrad_acc)
        if kind != "uniform":
            dists[n] = None
        return finite

    return _run_loop(x, norm_x, cores, config, trace, iteration,
                     None if kind == "optimal" else rows, clock)


def tr_brsgd(x, config: SolverConfig, init=None, clock=None):
    """Block-randomized stochastic gradient descent: draw a mode uniformly,
    sample subchain rows and fibers, and update only that core along the
    negative stochastic gradient."""
    return _stochastic_solver(x, config, init, clock, scaled=False)


def tr_scaled_brsgd(x, config: SolverConfig, init=None, clock=None):
    """Stochastic block updates preconditioned by the inverse of the damped
    Gram factor of an independent row-sampled batch.  Each iteration draws
    batch_grad + batch_hess i.i.d. rows in one call: the first batch_grad form
    the gradient batch, the rest the Hessian batch."""
    return _stochastic_solver(x, config, init, clock, scaled=True)


__all__ = [
    "ConstantStep", "RobbinsMonroStep", "AdaGradStep", "as_int", "field_types",
    "check_fields", "SolverConfig", "check_fit",
    "stochastic_gradient", "stochastic_hessian", "search_direction",
    "tr_als", "tr_gd", "tr_scaled_gd", "tr_brsgd", "tr_scaled_brsgd",
]
