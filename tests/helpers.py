"""Independent brute-force oracles used to pin expected values.

Everything here is written as plain loops over definitions, deliberately not
sharing code paths with the package internals it checks.
"""

import numpy as np


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
