"""Row-sampling machinery for stochastic TR solvers.

Per-core probability distributions (uniform, leverage-based, Euclidean-based)
induce a product distribution over the rows of the subchain unfolding; drawing
one slice index per core realizes a row draw without ever materializing that
matrix.  A diagnostic oracle distribution built from the full residual is also
provided, together with the variance functional it minimizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    core_unfolding,
    mode_n_unfolding,
    rotation_modes,
    slices_hadamard,
    subchain_tensor,
)

SAMPLING_KINDS = ("uniform", "leverage", "euclidean", "optimal")


@dataclass(frozen=True)
class SamplingSpec:
    """Which per-core distribution to sample with.

    `optimal` draws from the variance-minimizing distribution, which needs
    the full residual matrix at every iteration; it is a diagnostic, and the
    benchmark configs and the CLI refuse it.
    """

    kind: str = "uniform"

    def __post_init__(self):
        if self.kind not in SAMPLING_KINDS:
            raise ValueError(f"unknown sampling kind {self.kind!r}")


def check_prob_vector(p: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("probability vector must be 1-D")
    if not np.isfinite(p).all():
        raise ValueError("probability vector has non-finite entries")
    if np.any(p < 0):
        raise ValueError("probability vector has negative entries")
    if abs(p.sum() - 1.0) > tol:
        raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
    return p


def uniform_dist(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


def leverage_scores(m: np.ndarray, rank_tol: float | None = None) -> np.ndarray:
    """Squared row norms of an orthonormal basis for the column space of `m`.

    The basis comes from a thin SVD truncated at rank_tol (default
    max(rows, cols) * eps * sigma_max), so scores sum to the numerical rank.
    A zero matrix yields all-zero scores.
    """
    scores, _ = _leverage_scores_rank(m, rank_tol)
    return scores


def _leverage_scores_rank(m, rank_tol=None):
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1:
        raise ValueError("leverage scores need a non-empty matrix")
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    if rank_tol is None:
        smax = s[0] if s.size else 0.0
        rank_tol = max(m.shape) * np.finfo(np.float64).eps * smax
    rank = int(np.sum(s > rank_tol))
    basis = u[:, :rank]
    return np.einsum("ij,ij->i", basis, basis), rank


def core_dist_leverage(core: np.ndarray) -> np.ndarray:
    """Per-slice distribution proportional to leverage scores of the core
    unfolding, normalized by its rank."""
    scores, rank = _leverage_scores_rank(core_unfolding(core))
    if rank == 0:
        raise ValueError("leverage distribution undefined for an all-zero core")
    return scores / rank


def core_dist_euclidean(core: np.ndarray) -> np.ndarray:
    """Per-slice distribution proportional to squared slice Frobenius norms."""
    core = np.asarray(core, dtype=np.float64)
    sq = np.einsum("rjs,rjs->j", core, core)
    total = sq.sum()
    if np.isinf(total) and np.isfinite(core).all():
        # the squares overflowed; the distribution does not depend on scale
        return core_dist_euclidean(core / np.abs(core).max())
    if total == 0:
        raise ValueError("Euclidean distribution undefined for an all-zero core")
    return sq / total


def core_distribution(core: np.ndarray, kind: str) -> np.ndarray:
    """Per-slice distribution of one core; it depends on that core only."""
    if kind == "uniform":
        return uniform_dist(core.shape[1])
    if kind == "leverage":
        return core_dist_leverage(core)
    if kind == "euclidean":
        return core_dist_euclidean(core)
    raise ValueError(f"no per-core distribution for kind {kind!r}")


def core_distributions(cores, mode: int, kind: str) -> list:
    """Distributions for every core k != mode (None at position `mode`)."""
    dists: list = [None] * len(cores)
    for k in rotation_modes(mode, len(cores)):
        dists[k] = core_distribution(cores[k], kind)
    return dists


@dataclass
class SampleBatch:
    """Sampled subchain rows with matching tensor fibers and row probabilities.

    subchain has shape (R_{mode+1}, batch, R_mode); fibers holds the sampled
    columns of the mode unfolding (I_mode, batch) and may be None when only
    the subchain rows are needed; probs are the realized row probabilities
    (product of the per-core draw probabilities).
    """

    mode: int
    idxs: np.ndarray | None
    subchain: np.ndarray
    fibers: np.ndarray | None
    probs: np.ndarray


def _gather_fibers(x, mode, drawn_by_mode):
    xm = np.moveaxis(np.asarray(x), mode, 0)
    rest = [k for k in range(x.ndim) if k != mode]
    return xm[(slice(None),) + tuple(drawn_by_mode[k] for k in rest)]


def sample_subchain_fibers(
    cores,
    x: np.ndarray,
    mode: int,
    batch_size: int,
    dists,
    rng: np.random.Generator,
    with_fibers: bool = True,
) -> SampleBatch:
    """Draw `batch_size` subchain rows by independent per-core slice draws.

    For each core k != mode, indices are drawn i.i.d. with replacement from
    dists[k] by inverting its CDF at uniform variates.  That is what
    Generator.choice(p=...) does after its own checks, so draws and generator
    state match it bit for bit.  The sampled subchain is accumulated
    slice-wise starting from identity slices, and the realized row
    probability is the product of the per-core probabilities.  Matching mode-`mode` fibers of `x` are gathered
    unless with_fibers is False.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    n = len(cores)
    order = rotation_modes(mode, n)
    r_next = cores[order[0]].shape[0]
    idxs = np.empty((batch_size, n - 1), dtype=np.int64)
    probs = np.ones(batch_size)
    sub = np.broadcast_to(np.eye(r_next)[:, None, :], (r_next, batch_size, r_next))
    drawn_by_mode = {}
    for col, k in enumerate(order):
        p_k = check_prob_vector(dists[k])
        if len(p_k) != cores[k].shape[1]:
            raise ValueError(f"distribution for core {k} has wrong length")
        cdf = p_k.cumsum()
        cdf /= cdf[-1]
        drawn = cdf.searchsorted(rng.random(batch_size), side="right")
        idxs[:, col] = drawn
        drawn_by_mode[k] = drawn
        probs *= p_k[drawn]
        sub = slices_hadamard(sub, cores[k][:, drawn, :])
    fibers = _gather_fibers(x, mode, drawn_by_mode) if with_fibers else None
    return SampleBatch(mode, idxs, sub, fibers, probs)


def complete_sample_batch(cores, x: np.ndarray, mode: int) -> SampleBatch:
    """Diagnostic batch covering every subchain row exactly once at uniform
    probability 1/J; stochastic estimates on it equal their deterministic
    counterparts up to roundoff."""
    n = len(cores)
    order = rotation_modes(mode, n)
    dims_rot = [cores[k].shape[1] for k in order]
    j_total = int(np.prod(dims_rot))
    tuples = np.unravel_index(np.arange(j_total), dims_rot, order="F")
    idxs = np.stack(tuples, axis=1).astype(np.int64)
    return SampleBatch(
        mode=mode,
        idxs=idxs,
        subchain=subchain_tensor(cores, mode),
        fibers=mode_n_unfolding(x, mode),
        probs=np.full(j_total, 1.0 / j_total),
    )


def sample_rows_batch(
    cores,
    x: np.ndarray,
    mode: int,
    batch_size: int,
    q: np.ndarray,
    rng: np.random.Generator,
) -> SampleBatch:
    """Draw rows directly from a full distribution q over the subchain rows.

    Materializes the whole subchain tensor, so this is a diagnostic path only
    (it is how the oracle distribution is sampled).
    """
    q = check_prob_vector(q)
    sub = subchain_tensor(cores, mode)
    if len(q) != sub.shape[1]:
        raise ValueError("row distribution length does not match subchain")
    rows = rng.choice(len(q), size=batch_size, replace=True, p=q)
    order = rotation_modes(mode, len(cores))
    dims_rot = [cores[k].shape[1] for k in order]
    tuples = np.unravel_index(rows, dims_rot, order="F")
    drawn_by_mode = {k: tuples[c] for c, k in enumerate(order)}
    return SampleBatch(
        mode=mode,
        idxs=np.stack(tuples, axis=1).astype(np.int64),
        subchain=sub[:, rows, :],
        fibers=_gather_fibers(x, mode, drawn_by_mode),
        probs=q[rows],
    )


def product_row_distribution(cores, mode: int, dists) -> np.ndarray:
    """Materialize the row distribution induced by per-core distributions:
    q(row) = prod over k != mode of dists[k][i_k], rows ordered with the
    mode+1 index fastest."""
    q = np.ones(1)
    for k in rotation_modes(mode, len(cores)):
        p_k = check_prob_vector(dists[k])
        q = np.outer(q, p_k).ravel(order="F")
    return q


def optimal_distribution_oracle(residual: np.ndarray, subchain_mat: np.ndarray) -> np.ndarray:
    """Variance-minimizing row distribution, proportional to the product of
    the residual column norm and the subchain row norm.

    `residual` is the current-model unfolding minus the data unfolding
    (I_mode, J); `subchain_mat` is the subchain unfolding (J, R_n*R_{n+1}).
    Requires the full residual, hence oracle/diagnostic use only.
    """
    residual = np.asarray(residual)
    subchain_mat = np.asarray(subchain_mat)
    if residual.shape[1] != subchain_mat.shape[0]:
        raise ValueError("residual columns must match subchain rows")
    w = np.linalg.norm(residual, axis=0) * np.linalg.norm(subchain_mat, axis=1)
    total = w.sum()
    if total == 0:
        raise ValueError("all sampling weights are zero")
    return w / total


def variance_functional(
    residual: np.ndarray,
    subchain_mat: np.ndarray,
    q: np.ndarray,
    batch_size: int,
) -> float:
    """Expected squared Frobenius error of the normalized row-sampled gradient
    estimator under row distribution q with the given batch size:

        (1/batch) * [ sum_j ||r_j||^2 ||s_j||^2 / q_j  -  ||residual @ subchain||_F^2 ]
    """
    q = check_prob_vector(q)
    residual = np.asarray(residual)
    subchain_mat = np.asarray(subchain_mat)
    w = np.linalg.norm(residual, axis=0) ** 2 * np.linalg.norm(subchain_mat, axis=1) ** 2
    if np.any((q == 0) & (w > 0)):
        raise ValueError("zero probability on a row with nonzero weight")
    terms = np.divide(w, q, out=np.zeros_like(w), where=w > 0)
    grad = residual @ subchain_mat
    return float((terms.sum() - np.linalg.norm(grad) ** 2) / batch_size)


__all__ = [
    "SAMPLING_KINDS",
    "SamplingSpec",
    "check_prob_vector",
    "uniform_dist",
    "leverage_scores",
    "core_dist_leverage",
    "core_dist_euclidean",
    "core_distribution",
    "core_distributions",
    "SampleBatch",
    "sample_subchain_fibers",
    "complete_sample_batch",
    "sample_rows_batch",
    "product_row_distribution",
    "optimal_distribution_oracle",
    "variance_functional",
]
