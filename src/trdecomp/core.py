"""Dense tensor primitives for tensor ring (TR) models.

A dense tensor is a plain float64 ndarray.  Its canonical linear layout is
column-major: element (i_1, ..., i_N) sits at flat position
i_1 + (i_2-1)*I_1 + ... (1-based), i.e. the first index varies fastest.
All unfoldings, folds and products below are defined relative to that order.

A TR-core is a 3-way array of shape (R_n, I_n, R_{n+1}); its i-th lateral
slice is core[:, i, :].  A TR decomposition is a list of N >= 2 cores with
cyclically chained ranks (the right rank of the last core equals the left
rank of the first).
"""

from __future__ import annotations

import math

import numpy as np

# Bytes per model slab in tr_reconstruct / residual_norm: small enough that a
# slab and the matching entries of x stay in L2.
SLAB_BYTES = 256 * 1024

__all__ = [
    "multi_index",
    "mode_n_unfolding",
    "classical_mode_n_unfolding",
    "fold_mode_n",
    "fold_classical_mode_n",
    "core_unfolding",
    "fold_core",
    "subchain_unfolding",
    "subchain_product",
    "slices_hadamard",
    "subchain_tensor",
    "rotation_modes",
    "tr_ranks",
    "validate_cores",
    "tr_reconstruct",
    "residual_norm",
    "tr_reconstruct_trace",
    "frobenius_norm",
]


def multi_index(indices, dims) -> int:
    """Linear position (1-based) of a 1-based index tuple, first index fastest.

    Returns i_1 + (i_2-1)*I_1 + (i_3-1)*I_1*I_2 + ... for indices (i_1, ..., i_N)
    within extents (I_1, ..., I_N).
    """
    if len(indices) != len(dims):
        raise ValueError(f"got {len(indices)} indices for {len(dims)} dims")
    lin = 0
    stride = 1
    for axis, (i, d) in enumerate(zip(indices, dims)):
        if not 1 <= i <= d:
            raise ValueError(f"index {i} out of range [1, {d}] on axis {axis}")
        lin += (i - 1) * stride
        stride *= d
    return lin + 1


def _check_mode(mode: int, ndim: int) -> None:
    if not 0 <= mode < ndim:
        raise ValueError(f"mode {mode} invalid for order-{ndim} tensor")


def rotation_modes(mode: int, ndim: int) -> list[int]:
    """Modes k != mode in the cyclic order mode+1, ..., N-1, 0, ..., mode-1."""
    _check_mode(mode, ndim)
    return [(mode + s) % ndim for s in range(1, ndim)]


def _materialized(out: np.ndarray, x: np.ndarray) -> np.ndarray:
    # unfoldings promise fresh matrices; reshape only copies when it must
    return out.copy() if np.may_share_memory(out, x) else out


def mode_n_unfolding(x: np.ndarray, mode: int) -> np.ndarray:
    """Unfold with rows indexed by `mode` and columns by the rotated
    remaining modes (mode+1, ..., mode-1), first of them fastest."""
    x = np.asarray(x)
    _check_mode(mode, x.ndim)
    perm = list(range(mode, x.ndim)) + list(range(mode))
    out = np.transpose(x, perm).reshape(x.shape[mode], -1, order="F")
    return _materialized(out, x)


def classical_mode_n_unfolding(x: np.ndarray, mode: int) -> np.ndarray:
    """Unfold with rows indexed by `mode` and columns by the remaining modes
    in their original order (0, ..., mode-1, mode+1, ...), first fastest."""
    x = np.asarray(x)
    _check_mode(mode, x.ndim)
    perm = [mode] + list(range(mode)) + list(range(mode + 1, x.ndim))
    out = np.transpose(x, perm).reshape(x.shape[mode], -1, order="F")
    return _materialized(out, x)


def fold_mode_n(mat: np.ndarray, shape, mode: int) -> np.ndarray:
    """Exact inverse of :func:`mode_n_unfolding`."""
    shape = tuple(shape)
    _check_mode(mode, len(shape))
    perm = list(range(mode, len(shape))) + list(range(mode))
    arr = np.asarray(mat).reshape([shape[p] for p in perm], order="F")
    return np.transpose(arr, np.argsort(perm))


def fold_classical_mode_n(mat: np.ndarray, shape, mode: int) -> np.ndarray:
    """Exact inverse of :func:`classical_mode_n_unfolding`."""
    shape = tuple(shape)
    _check_mode(mode, len(shape))
    perm = [mode] + list(range(mode)) + list(range(mode + 1, len(shape)))
    arr = np.asarray(mat).reshape([shape[p] for p in perm], order="F")
    return np.transpose(arr, np.argsort(perm))


def core_unfolding(core: np.ndarray) -> np.ndarray:
    """Mode-2 classical unfolding of a TR-core: (R_n, I_n, R_{n+1}) ->
    (I_n, R_n*R_{n+1}) with the left rank index fastest along columns."""
    return classical_mode_n_unfolding(core, 1)


def fold_core(mat: np.ndarray, left_rank: int, right_rank: int) -> np.ndarray:
    """Inverse of :func:`core_unfolding`: (I_n, R_n*R_{n+1}) -> (R_n, I_n, R_{n+1})."""
    mat = np.asarray(mat)
    return fold_classical_mode_n(mat, (left_rank, mat.shape[0], right_rank), 1)


def subchain_unfolding(sub: np.ndarray) -> np.ndarray:
    """Mode-2 unfolding of a subchain tensor: (R_{n+1}, J, R_n) -> (J, R_n*R_{n+1}).

    Column ordering matches :func:`core_unfolding`, so for any TR model
    X_[n] = core_unfolding(G_n) @ subchain_unfolding(G^{!=n}).T holds exactly.
    """
    return mode_n_unfolding(sub, 1)


def subchain_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mode-2 subchain product of 3-way tensors.

    (I_1, J_1, K) x (K, J_2, I_2) -> (I_1, J_1*J_2, I_2); the lateral slice at
    the merged index (j_1 fastest) is the matrix product A(j_1) @ B(j_2).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 3 or b.ndim != 3:
        raise ValueError("subchain_product expects two 3-way tensors")
    if a.shape[2] != b.shape[0]:
        raise ValueError(f"inner ranks differ: {a.shape[2]} vs {b.shape[0]}")
    i1, j1, _ = a.shape
    _, j2, i2 = b.shape
    out = np.einsum("ajk,kmb->amjb", a, b)
    return out.reshape(i1, j1 * j2, i2)


def slices_hadamard(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Slice-wise matrix product: result slice j is A(j) @ B(j).

    (I_1, J, K) x (K, J, I_2) -> (I_1, J, I_2).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 3 or b.ndim != 3:
        raise ValueError("slices_hadamard expects two 3-way tensors")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"middle extents differ: {a.shape[1]} vs {b.shape[1]}")
    if a.shape[2] != b.shape[0]:
        raise ValueError(f"inner ranks differ: {a.shape[2]} vs {b.shape[0]}")
    return np.einsum("ajk,kjb->ajb", a, b)


def tr_ranks(cores) -> list[int]:
    """Chained ranks (R_1, ..., R_N) of a core list."""
    return [c.shape[0] for c in cores]


def validate_cores(cores) -> None:
    """Check TR-core shapes and the cyclic rank chain; raise ValueError if broken."""
    if len(cores) < 2:
        raise ValueError("a TR decomposition needs at least 2 cores")
    for n, c in enumerate(cores):
        if np.asarray(c).ndim != 3:
            raise ValueError(f"core {n} is not 3-way")
    for n, c in enumerate(cores):
        nxt = cores[(n + 1) % len(cores)]
        if c.shape[2] != nxt.shape[0]:
            raise ValueError(
                f"rank chain broken between cores {n} and {(n + 1) % len(cores)}: "
                f"{c.shape[2]} vs {nxt.shape[0]}"
            )


def _chain(cores) -> np.ndarray:
    """Subchain product of consecutive cores, first core's slice index fastest."""
    sub = cores[0]
    for c in cores[1:]:
        sub = subchain_product(sub, c)
    return sub


def subchain_tensor(cores, mode: int) -> np.ndarray:
    """Merge all cores except `mode` into one 3-way tensor
    (R_{mode+1}, prod of other extents, R_mode), middle index ordered with the
    mode+1 extent fastest."""
    order = rotation_modes(mode, len(cores))
    if len(order) == 1:
        return np.array(cores[order[0]], copy=True)
    return _chain([cores[k] for k in order])


def _model_slabs(cores):
    """Yield (lo, hi, slab): entries lo..hi-1 of the TR model in column-major
    flat order, computed into one reused buffer.

    The ring is cut into a left half-chain L over modes 0..h-1 and a right
    half-chain R over modes h..N-1, h = N//2.  With j_L and j_R the merged
    indices of those modes (first mode fastest), model entry (j_L, j_R) is
    trace(L(j_L) R(j_R)), so the (J_R, J_L) matrix of the model is one
    product Rt @ Lt with inner size R_0*R_h.  Its rows are contiguous runs of
    the column-major flat model; a slab is a block of rows of about
    SLAB_BYTES.  A slab is only valid until the next one is requested.
    The cores must already have passed validate_cores.
    """
    h = len(cores) // 2
    left = _chain(cores[:h])    # (R_0, J_L, R_h)
    right = _chain(cores[h:])   # (R_h, J_R, R_0)
    r0, j_left, rh = left.shape
    j_right = right.shape[1]
    # inner index k = a + R_0*b pairs L[a, j_L, b] with R[b, j_R, a]
    lt = left.transpose(2, 0, 1).reshape(rh * r0, j_left)
    rt = right.transpose(1, 0, 2).reshape(j_right, rh * r0)
    rows = max(1, min(j_right, SLAB_BYTES // (8 * max(j_left, 1))))
    buf = np.empty(rows * j_left)
    for start in range(0, j_right, rows):
        stop = min(start + rows, j_right)
        slab = buf[: (stop - start) * j_left]
        np.matmul(rt[start:stop], lt, out=slab.reshape(stop - start, j_left))
        yield start * j_left, stop * j_left, slab


def tr_reconstruct(cores) -> np.ndarray:
    """Dense tensor represented by TR-cores, in column-major (Fortran) order.

    Filled slab by slab from the same kernel that :func:`residual_norm` uses,
    so ``residual_norm(cores, tr_reconstruct(cores)) == 0.0`` exactly.
    """
    validate_cores(cores)
    shape = tuple(c.shape[1] for c in cores)
    out = np.empty(shape, order="F")
    flat = out.reshape(-1, order="F")
    for lo, hi, slab in _model_slabs(cores):
        flat[lo:hi] = slab
    return out


def residual_norm(cores, x) -> float:
    """Frobenius norm of TR(cores) - x, without building the dense model.

    The model is streamed in slabs of about SLAB_BYTES and each slab is
    differenced with the matching entries of x directly (no expansion of the
    square, which would lose precision at small residuals).  A column-major
    x is read in place; any other layout is copied once.
    """
    validate_cores(cores)
    x = np.asarray(x, dtype=np.float64)
    shape = tuple(c.shape[1] for c in cores)
    if x.shape != shape:
        raise ValueError(f"tensor shape {x.shape} does not match the cores' {shape}")
    flat = x.reshape(-1, order="F")
    total = 0.0
    for lo, hi, slab in _model_slabs(cores):
        slab -= flat[lo:hi]
        total += float(slab @ slab)
    return math.sqrt(total)


def tr_reconstruct_trace(cores) -> np.ndarray:
    """Entry-wise reconstruction: X(i_1,...,i_N) = trace(G_1(i_1) ... G_N(i_N)).

    Slow diagnostic path; keeps a rolling slice product per entry.
    """
    validate_cores(cores)
    shape = tuple(c.shape[1] for c in cores)
    out = np.empty(shape)
    for idx in np.ndindex(shape):
        prod = cores[0][:, idx[0], :]
        for n in range(1, len(cores)):
            prod = prod @ cores[n][:, idx[n], :]
        out[idx] = np.trace(prod)
    return out


def frobenius_norm(a) -> float:
    """Square root of the sum of squared entries, for any array."""
    return float(np.linalg.norm(np.asarray(a).ravel()))
