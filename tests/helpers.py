"""Oracles used to pin expected values.

The brute-force ones are plain loops over definitions, deliberately not
sharing code paths with the package internals they check.
"""

import numpy as np

from trdecomp import solvers
from trdecomp.core import (core_unfolding, mode_n_unfolding, residual_norm, rotation_modes,
                           subchain_tensor, subchain_unfolding, unfolding_matmul)
from trdecomp.sampling import check_prob_vector, core_sampler


def random_cores(rng, dims, ranks):
    """Standard normal cores of extents `dims` and cyclic ranks `ranks`."""
    n = len(dims)
    return [
        rng.standard_normal((ranks[k], dims[k], ranks[(k + 1) % n]))
        for k in range(n)
    ]


def counting_clock():
    """A clock that advances by 1.0 at every call, so a run's elapsed and
    evaluation times count clock calls instead of wall time."""
    state = {"t": 0.0}

    def clock():
        state["t"] += 1.0
        return state["t"]

    return clock


def arange_tensor(shape):
    """Tensor whose entry (i_1,...,i_N) is its 1-based column-major position."""
    return np.arange(1.0, np.prod(shape) + 1.0).reshape(shape, order="F")


def linear_pos(idx, dims):
    """0-based column-major position of a 0-based index tuple."""
    pos, stride = 0, 1
    for i, d in zip(idx, dims):
        pos += i * stride
        stride *= d
    return pos


def unfold_by_definition(x, mode, classical=False):
    """Element-wise unfolding straight from the definition."""
    dims = x.shape
    n = x.ndim
    if classical:
        rest = [k for k in range(n) if k != mode]
    else:
        rest = [(mode + s) % n for s in range(1, n)]
    out = np.zeros((dims[mode], int(np.prod([dims[k] for k in rest]))))
    for idx in np.ndindex(*dims):
        col = linear_pos([idx[k] for k in rest], [dims[k] for k in rest])
        out[idx[mode], col] = x[idx]
    return out


def reconstruct_by_trace(cores):
    """Per-entry trace of the slice product, straight from the model."""
    shape = tuple(c.shape[1] for c in cores)
    out = np.zeros(shape)
    for idx in np.ndindex(*shape):
        mat = np.eye(cores[0].shape[0])
        for n, c in enumerate(cores):
            mat = mat @ c[:, idx[n], :]
        out[idx] = np.trace(mat)
    return out


def leverage_by_svd(m):
    """Leverage scores and rank from a full SVD basis."""
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    cut = max(m.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > cut))
    basis = u[:, :rank]
    return np.array([np.dot(row, row) for row in basis]), rank


def lstsq_core_update(sub, xn):
    """Minimum-norm G of min ||G sub^T - xn||_F by LAPACK's gelsd, and the
    rank gelsd found."""
    sol, _res, rank, _sv = np.linalg.lstsq(sub, xn.T, rcond=None)
    return sol.T, rank


def half_squared_error(cores, x):
    return 0.5 * np.linalg.norm(reconstruct_by_trace(cores) - x) ** 2


def finite_diff_core_gradient(cores, x, mode, h=1e-6):
    """Central finite differences of the half squared error w.r.t. the
    entries of the unfolded core at `mode`."""
    core = cores[mode]
    r1, i_n, r2 = core.shape
    grad = np.zeros((i_n, r1 * r2))
    for i in range(i_n):
        for c in range(r1 * r2):
            a, b = c % r1, c // r1
            bumped = [np.array(cc, copy=True) for cc in cores]
            bumped[mode][a, i, b] += h
            f_plus = half_squared_error(bumped, x)
            bumped[mode][a, i, b] -= 2 * h
            f_minus = half_squared_error(bumped, x)
            grad[i, c] = (f_plus - f_minus) / (2 * h)
    return grad


def product_dist_by_enumeration(dists_rot, dims_rot):
    """Row distribution q(row) = prod of per-core probs, first rotation
    index fastest, by explicit enumeration."""
    j_total = int(np.prod(dims_rot))
    q = np.zeros(j_total)
    for idx in np.ndindex(*dims_rot):
        val = 1.0
        for c, i in enumerate(idx):
            val *= dists_rot[c][i]
        q[linear_pos(idx, dims_rot)] = val
    return q


# The oracles below are built from the package's dense primitives (they check
# the sampled paths against the dense ones, not the primitives themselves).


def uniform_dist(n):
    return np.full(n, 1.0 / n)


def complete_sample_batch(cores, x, mode):
    """Batch (S, X_(n), 1/J) covering every subchain-unfolding row exactly
    once at uniform probability 1/J; stochastic estimates on it equal their
    deterministic counterparts up to roundoff."""
    s = subchain_unfolding(subchain_tensor(cores, mode))
    j_total = s.shape[0]
    return s, mode_n_unfolding(x, mode), np.full(j_total, 1.0 / j_total)


def grad_and_gram(cores, x, mode):
    """Reference block gradient of the half squared error w.r.t. the unfolded
    core, G_(2) (S^T S) - X_[n] S with S the subchain unfolding, and the Gram
    matrix S^T S, one mode at a time (the solvers take all modes at once)."""
    sub = subchain_unfolding(subchain_tensor(cores, mode))
    gram = sub.T @ sub
    g = core_unfolding(cores[mode]) @ gram - unfolding_matmul(x, mode, sub)
    return g, gram


def samplers(cores, dists):
    """The `CoreSampler`s that `sample_subchain_fibers` draws from, one per
    per-core distribution in `dists` (None stays None)."""
    return [None if p is None else core_sampler(core, p) for core, p in zip(cores, dists)]


def choice_draws(cores, mode, dists, batch_size, rng):
    """Replay the per-core draws of `sample_subchain_fibers` with
    Generator.choice on `rng`, a twin of the generator the sampler was given.

    Returns the drawn slice indices (batch, N-1), one column per core in the
    order mode+1, ..., mode-1, and the subchain rows they address (mode+1
    index fastest).  `rng` ends in the state the sampler leaves its
    generator in.
    """
    rot = rotation_modes(mode, len(cores))
    idxs = np.stack([rng.choice(cores[k].shape[1], size=batch_size, replace=True, p=dists[k])
                     for k in rot], axis=1)
    rows = np.ravel_multi_index(idxs.T, [cores[k].shape[1] for k in rot], order="F")
    return idxs, rows


def product_row_distribution(cores, mode, dists):
    """Row distribution induced by per-core distributions, materialized:
    q(row) = prod over k != mode of dists[k][i_k], rows ordered with the
    mode+1 index fastest."""
    q = np.ones(1)
    for k in rotation_modes(mode, len(cores)):
        q = np.outer(q, check_prob_vector(dists[k])).ravel(order="F")
    return q


def variance_functional(residual, subchain_mat, q, batch_size):
    """Expected squared Frobenius error of the normalized row-sampled gradient
    estimator under row distribution q with the given batch size:

        (1/batch) * [ sum_j ||r_j||^2 ||s_j||^2 / q_j  -  ||residual @ subchain||_F^2 ]
    """
    q = check_prob_vector(q)
    w = np.linalg.norm(residual, axis=0) ** 2 * np.linalg.norm(subchain_mat, axis=1) ** 2
    if np.any((q == 0) & (w > 0)):
        raise ValueError("zero probability on a row with nonzero weight")
    terms = np.divide(w, q, out=np.zeros_like(w), where=w > 0)
    grad = residual @ subchain_mat
    return float((terms.sum() - np.linalg.norm(grad) ** 2) / batch_size)


def als_objectives(x, config, monkeypatch):
    """Half squared error 0.5 ||TR(G) - x||^2 after every core update of one
    tr_als run from its random start.  tr_als folds each update with
    `solvers.fold_core`, modes 0 to N-1 in every sweep, so a spy on it
    replays the updates onto a copy of the initial cores; the replay must end
    at the run's final cores."""
    cores = solvers._init_cores(x, config, None)
    objs = []
    original = solvers.fold_core

    def spy(mat, left_rank, right_rank):
        folded = original(mat, left_rank, right_rank)
        cores[len(objs) % len(cores)] = folded
        objs.append(0.5 * residual_norm(cores, x) ** 2)
        return folded

    with monkeypatch.context() as patch:
        patch.setattr(solvers, "fold_core", spy)
        final, _ = solvers.tr_als(x, config)
    assert all(np.array_equal(a, b) for a, b in zip(final, cores))
    return objs
