"""Row-sampling machinery for stochastic TR solvers.

`core_distribution` gives one core's per-slice distribution (uniform,
leverage-based or Euclidean-based).  The distributions of the cores other than
the sampled mode induce a product distribution over the rows of the subchain
unfolding, and `sample_subchain_fibers` realizes a row draw by drawing one
slice index per core, without ever materializing that matrix.  It draws the
indices from `CoreSampler`s (`core_sampler`): a checked distribution, its
CDF and a guide table over that CDF, built once per distribution, not once
per draw.  The drawn slices come from the cores the draw is given, never
from a replaced core.  Every draw inverts the CDF of a checked probability
vector at uniform variates through the guide table (an exact indexed search,
`CoreSampler.draw`), which returns the indices that
`cdf.searchsorted(u, side="right")` returns; so draws are exactly those of
Generator.choice(p=...).

All four kinds draw this way.  The `optimal` diagnostic's
variance-minimizing distribution (`optimal_distribution_oracle`, which needs
the full residual) is over the rows of the subchain unfolding, that is over
the slices of the subchain tensor G^{!=n}; its caller draws them as the
order-2 ring [G_n, G^{!=n}], whose data tensor is the mode unfolding X_(n).

A sampled batch is three arrays `(s, fibers, probs)`: the drawn rows of the
subchain unfolding as a C-contiguous (batch, R_mode*R_{mode+1}) matrix, the
matching columns of the mode unfolding (I_mode, batch), and the realized row
probabilities (for per-core draws, the product of the per-core draw
probabilities).  Rows are i.i.d., so disjoint row ranges of a batch are
independent batches; a caller that needs fibers for only the first rows (the
gradient batch of a scaled step, whose Hessian batch reads none) asks for
just those, and only they are gathered from x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import core_unfolding, numerical_rank, rotation_modes, slices_hadamard

# in the canonical order of the summary rows and the trial seeds
SAMPLING_KINDS = ("uniform", "euclidean", "leverage", "optimal")


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


def check_prob_vector(p: np.ndarray) -> np.ndarray:
    """Return `p` as a float64 vector, or raise ValueError unless it is a
    probability vector: finite, nonnegative and summing to 1 within 1e-12.

    Two reductions decide it: a NaN or infinite entry, or a sum that
    overflows, makes the sum non-finite; then the minimum and the sum are
    tested.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("probability vector must be 1-D")
    total = p.sum()
    if not math.isfinite(total):
        raise ValueError("probability vector has non-finite entries or sum")
    if p.size and p.min() < 0:
        raise ValueError("probability vector has negative entries")
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    return p


def _leverage_scores_rank(m):
    """Squared row norms of an orthonormal basis for the column space of `m`,
    and its numerical rank.

    The basis comes from a thin SVD truncated at max(rows, cols) * eps *
    sigma_max, so the scores sum to the rank.  A zero matrix yields all-zero
    scores.
    """
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    rank = numerical_rank(s, m.shape)
    basis = u[:, :rank]
    return np.einsum("ij,ij->i", basis, basis), rank


def _core_dist_leverage(core: np.ndarray) -> np.ndarray:
    """Per-slice distribution proportional to leverage scores of the core
    unfolding, normalized by its rank."""
    scores, rank = _leverage_scores_rank(core_unfolding(core))
    if rank == 0:
        raise ValueError("leverage distribution undefined for an all-zero core")
    return scores / rank


def _core_dist_euclidean(core: np.ndarray) -> np.ndarray:
    """Per-slice distribution proportional to squared slice Frobenius norms."""
    core = np.asarray(core, dtype=np.float64)
    sq = np.einsum("rjs,rjs->j", core, core)
    total = sq.sum()
    if np.isinf(total) and np.isfinite(core).all():
        # the squares overflowed; the distribution does not depend on scale
        return _core_dist_euclidean(core / np.abs(core).max())
    if total == 0:
        raise ValueError("Euclidean distribution undefined for an all-zero core")
    return sq / total


def core_distribution(core: np.ndarray, kind: str) -> np.ndarray:
    """Per-slice distribution of one core; it depends on that core only."""
    if kind == "uniform":
        return np.full(core.shape[1], 1.0 / core.shape[1])
    if kind == "leverage":
        return _core_dist_leverage(core)
    if kind == "euclidean":
        return _core_dist_euclidean(core)
    raise ValueError(f"no per-core distribution for kind {kind!r}")


def core_distributions(cores, mode: int, kind: str) -> list:
    """Distributions for every core k != mode (None at position `mode`)."""
    dists: list = [None] * len(cores)
    for k in rotation_modes(mode, len(cores)):
        dists[k] = core_distribution(cores[k], kind)
    return dists


@dataclass(frozen=True)
class CoreSampler:
    """What a per-core slice draw needs of the distribution, built by
    `core_sampler`: the checked distribution `p` over a core's I slices, its
    normalised CDF, and a guide table over that CDF.  The slices themselves
    come from the core the draw is given.

    The guide table has M entries, M the smallest power of two >= 2I:
    `guide[m]` counts the CDF entries below m/M, and `steps` is the most CDF
    entries any one bucket [m/M, (m+1)/M) holds.  At M >= 2I a bucket is
    at most half as wide as a uniform slice's probability, so a near-uniform
    distribution takes one step; runs of small probabilities take more.  At
    M < 4I the table costs at most four entries per slice."""

    p: np.ndarray
    cdf: np.ndarray
    guide: np.ndarray
    steps: int

    def draw(self, u: np.ndarray) -> np.ndarray:
        """Slice indices drawn by inverting the CDF at the uniform variates
        `u` in [0, 1): `cdf.searchsorted(u, side="right")`, bit for bit.

        u*M and its floor are exact for a power-of-two M, so the guide entry
        of u's bucket counts only CDF entries <= u, and at most `steps` more
        CDF entries lie in that bucket at or below u; stepping past them
        (cdf[-1] == 1 > u stops the walk inside the CDF) lands on the count
        of CDF entries <= u, ties and zero-probability slices included."""
        drawn = self.guide[(u * len(self.guide)).astype(np.intp)]
        for _ in range(self.steps):
            drawn += self.cdf[drawn] <= u
        return drawn


def core_sampler(core: np.ndarray, p) -> CoreSampler:
    """Sampler drawing the slices of `core` from distribution `p`; raises
    ValueError unless `p` is a probability vector over the core's slices.

    Its CDF is normalised to end at exactly 1.  Inverting that CDF at uniform
    variates (`searchsorted(u, side="right")`) is what
    Generator.choice(p=...) does after its own checks; the sampler's guide
    table returns the same indices (`CoreSampler.draw`), so draws and
    generator state match Generator.choice bit for bit.  The table is built
    in O(I + M) from the bucket of each CDF entry."""
    p, size = check_prob_vector(p), np.shape(core)[1]
    if len(p) != size:
        raise ValueError(f"core distribution has length {len(p)}, not {size}")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    buckets = 1 << (2 * size - 1).bit_length()
    # the CDF entries in each bucket; entries equal to 1 fall past the last
    counts = np.bincount((cdf * buckets).astype(np.intp), minlength=buckets + 1)[:buckets]
    return CoreSampler(p, cdf, np.add.accumulate(counts) - counts, int(counts.max()))


def sample_subchain_fibers(
    cores,
    x: np.ndarray,
    mode: int,
    batch_size: int,
    samplers,
    rng: np.random.Generator,
    fiber_rows: int | None = None,
):
    """Draw `batch_size` subchain rows by independent per-core slice draws
    and return the batch `(s, fibers, probs)`.

    `cores` is any TR ring over the data tensor `x`: the model's cores over
    x, or the order-2 ring [G_n, G^{!=n}] of a core and its subchain tensor
    over the mode unfolding X_(n), whose slices are the rows of the subchain
    unfolding (that is how the `optimal` distribution over those rows is
    drawn).  For each core k != mode, in the order mode+1, ..., mode-1,
    indices are drawn i.i.d. with replacement from samplers[k] (a
    `CoreSampler` over the slices of cores[k]) by inverting its CDF at one
    row of rng.random((N-1, batch_size)) (`CoreSampler.draw`, the guide
    table's exact search), which is also what N-1 successive
    Generator.choice calls draw, and only the drawn slices are gathered from
    cores[k], as a contiguous (batch, R_k, R_{k+1}) block.
    Each sampled subchain slice is the product of the drawn core slices in
    that order, started from the first core's slices, and the realized row
    probability is the product of the per-core probabilities, likewise
    started from the first core's.  The slice products come out
    contiguous as (batch, R_{mode+1}, R_mode), so the rows `s` of the
    subchain unfolding are a reshape of them; an order-2 batch, which has no
    product, is the first core's gather itself.  The matching mode-`mode`
    fibers of `x` are gathered for the first `fiber_rows` rows only (all
    rows when None).
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    rotation = rotation_modes(mode, len(cores))
    u = rng.random((len(rotation), batch_size))
    sub = probs = None
    fiber_index = [slice(None)]
    for k, u_k in zip(rotation, u):
        sampler = samplers[k]
        drawn = sampler.draw(u_k)
        fiber_index.append(drawn[:fiber_rows])
        slices = cores[k].transpose(1, 0, 2).take(drawn, axis=0).transpose(1, 0, 2)
        if sub is None:
            sub, probs = slices, sampler.p[drawn]
        else:
            sub, probs = slices_hadamard(sub, slices), probs * sampler.p[drawn]
    fibers = x.transpose([mode] + rotation)[tuple(fiber_index)]
    s = np.ascontiguousarray(sub.transpose(1, 0, 2)).reshape(batch_size, -1)
    return s, fibers, probs


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
    if (not math.isfinite(total) and np.isfinite(residual).all()
            and np.isfinite(subchain_mat).all()):
        # the norms or their products overflowed; the distribution does not
        # depend on either input's scale
        return optimal_distribution_oracle(residual / np.abs(residual).max(),
                                           subchain_mat / np.abs(subchain_mat).max())
    if total == 0:
        raise ValueError("all sampling weights are zero")
    return w / total


__all__ = [
    "SamplingSpec", "check_prob_vector", "core_distribution", "core_distributions",
    "CoreSampler", "core_sampler", "sample_subchain_fibers", "optimal_distribution_oracle",
]
