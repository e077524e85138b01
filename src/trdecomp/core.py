"""Dense tensor primitives for tensor ring (TR) models.

A dense tensor is a plain float64 ndarray.  Its canonical linear layout is
column-major: element (i_1, ..., i_N) sits at flat position
i_1 + (i_2-1)*I_1 + ... (1-based), i.e. the first index varies fastest.
All unfoldings, folds and products below are defined relative to that order.

A TR-core is a 3-way array of shape (R_n, I_n, R_{n+1}); its i-th lateral
slice is core[:, i, :].  A TR decomposition is a list of N >= 2 cores with
cyclically chained ranks (the right rank of the last core equals the left
rank of the first).

Every subchain (the product of consecutive cores) is built in one layout: a
C-contiguous slice stack (J, R_left, R_right) whose j-th entry is the slice
product at merged index j.  The 3-way (R_left, J, R_right) tensor that
:func:`subchain_tensor` returns is a transposed view of that stack, and the
(J, R_left*R_right) subchain unfolding is a reshape of it, so neither is a
copy.  `sampling` gathers only each draw's slices, from each core's
(I, R_left, R_right) transposed view.

The ring is cut once, at h = N//2, by :func:`half_chains`: the RSE
evaluation and the two products of x of a TR-GD iteration use its halves,
and each phase of a TR-ALS sweep fixes one of them (whose QR `solvers`
takes core by core, without building it).  All read x as a (J_L, J_R)
matrix, in the same column slabs: :func:`residual_norm` differences each
with the model's, and :func:`slab_products` takes both products of x from
each.
"""

from __future__ import annotations

import math

import numpy as np

# Bytes per slab of the (J_L, J_R) view of x or of the model, in
# tr_reconstruct, residual_norm and slab_products: small enough that a slab
# and what is read or written with it stay in L2.
SLAB_BYTES = 256 * 1024

__all__ = [
    "mode_n_unfolding", "unfolding_matmul", "core_unfolding", "fold_core", "subchain_unfolding",
    "slices_hadamard", "subchain_tensor", "half_chains", "rotation_modes", "validate_cores",
    "numerical_rank", "slab_products", "tr_reconstruct", "residual_norm",
]


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


def unfolding_matmul(x: np.ndarray, mode: int, m: np.ndarray) -> np.ndarray:
    """X_[mode] @ m without unfolding x: a column-major x is read in place.

    The solvers never pass the data tensor: each call gets a reduced ring's
    (K, I_lo, ..., I_hi-1) tensor, K = R_0 R_h (`solvers._reduced_data`), at
    a mode >= 1, with a C-ordered m.  On a rank-3 100^3 tensor the largest
    is the (9, 100, 100) right ring's, whose mode-1 batch of 100 takes three
    chunks.

    x is viewed as x3 of shape (A, I_mode, B) in column-major order, A the
    product of the extents before `mode` and B of those after it, so column
    b + B*a of X_[mode] is the fiber x3[a, :, b].  The product is a batched
    one over b of the contiguous (I_mode, A) slabs of x3 with the (A, K)
    blocks of m, summed over b: a Python loop over a would be far slower on
    the last mode.  A C-ordered m is read in place; any other layout of m,
    or of x, is copied by every call.

    The batch is taken in chunks whose (b, I_mode, K) products share one
    buffer with the running sum, which leads each chunk; so the sum over b
    is added in the order of one unchunked sum, and the result is the same
    bit for bit (where I_mode * K > 1; a sum of scalars is pairwise).  The
    buffer holds at most SLAB_BYTES, or the sum and one (I_mode, K) product
    where a product alone passes SLAB_BYTES / 2.  The whole batch's products
    would be a (B, I_mode, K) temporary (720 KB for that mode-1 batch),
    above glibc's mmap threshold, so whether a call mapped and faulted in
    fresh pages or reused the heap would depend on the dynamic mmap and trim
    thresholds that earlier frees happened to set.  The result has the dtype
    of x @ m.
    """
    x = np.asarray(x)
    m = np.asarray(m)
    _check_mode(mode, x.ndim)
    a = math.prod(x.shape[:mode])
    b = math.prod(x.shape[mode + 1:])
    if m.ndim != 2 or m.shape[0] != a * b:
        raise ValueError(f"m of shape {m.shape} does not match the {a * b} columns "
                         f"of the mode-{mode} unfolding")
    x3 = x.reshape(a, x.shape[mode], b, order="F")
    n, k = x.shape[mode], m.shape[1]
    m3 = m.reshape(a, b, k).transpose(1, 0, 2)
    xt = x3.transpose(2, 1, 0)
    dtype = np.result_type(x, m)
    rows = max(1, SLAB_BYTES // max(dtype.itemsize * n * k, 1) - 1)
    # buf[0] is the running sum, buf[1:] one chunk's products; zeros is the
    # sum of an empty batch
    buf = np.empty((min(rows, b) + 1, n, k), dtype)
    out = np.zeros((n, k), dtype)
    for lo in range(0, b, rows):
        hi = min(lo + rows, b)
        np.matmul(xt[lo:hi], m3[lo:hi], out=buf[1:hi - lo + 1])
        if lo == 0:
            np.add.reduce(buf[1:hi + 1], axis=0, out=out)
        else:
            buf[0] = out
            np.add.reduce(buf[:hi - lo + 1], axis=0, out=out)
    return out


def core_unfolding(core: np.ndarray) -> np.ndarray:
    """Mode-2 classical unfolding of a TR-core: (R_n, I_n, R_{n+1}) ->
    (I_n, R_n*R_{n+1}) with the left rank index fastest along columns."""
    core = np.asarray(core)
    out = np.transpose(core, (1, 0, 2)).reshape(core.shape[1], -1, order="F")
    return _materialized(out, core)


def fold_core(mat: np.ndarray, left_rank: int, right_rank: int) -> np.ndarray:
    """Inverse of :func:`core_unfolding`: (I_n, R_n*R_{n+1}) -> (R_n, I_n, R_{n+1})."""
    mat = np.asarray(mat)
    arr = mat.reshape((mat.shape[0], left_rank, right_rank), order="F")
    return np.transpose(arr, (1, 0, 2))


def subchain_unfolding(sub: np.ndarray) -> np.ndarray:
    """Mode-2 unfolding of a subchain tensor: (R_{n+1}, J, R_n) -> (J, R_n*R_{n+1}).

    Column ordering matches :func:`core_unfolding`, so for any TR model
    X_[n] = core_unfolding(G_n) @ subchain_unfolding(G^{!=n}).T holds exactly.
    The unfolding is the C-ordered reshape of the (J, R_{n+1}, R_n) slice
    stack: for the view :func:`subchain_tensor` or :func:`half_chains`
    returns it is that stack's memory, not a copy.  Only the caller that
    built the subchain owns that memory and may write into it, as
    `solvers._tree_products` writes Y into its right half-chain.
    """
    sub = np.asarray(sub)
    return sub.transpose(1, 0, 2).reshape(sub.shape[1], -1)


def _slice_stack(t: np.ndarray) -> np.ndarray:
    """The lateral slices of a 3-way (I_1, J, I_2) tensor as a C-contiguous
    (J, I_1, I_2) stack; a transposed view of such a stack is not copied."""
    return np.ascontiguousarray(np.asarray(t, dtype=np.float64).transpose(1, 0, 2))


def _subchain_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mode-2 subchain product of 3-way tensors.

    (I_1, J_1, K) x (K, J_2, I_2) -> (I_1, J_1*J_2, I_2); the lateral slice at
    the merged index (j_1 fastest) is the matrix product A(j_1) @ B(j_2).
    It is one batched matmul over the slices of b, (1, J_1*I_1, K) @
    (J_2, K, I_2), which writes the contiguous (J_1*J_2, I_1, I_2) slice
    stack of the result directly; the result is the transposed view of that
    stack.  (Batching over every (j_1, j_2) pair instead would make J_1*J_2
    tiny BLAS calls.)
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 3 or b.ndim != 3:
        raise ValueError("a subchain product takes two 3-way tensors")
    if a.shape[2] != b.shape[0]:
        raise ValueError(f"inner ranks differ: {a.shape[2]} vs {b.shape[0]}")
    i1, j1, k = a.shape
    _, j2, i2 = b.shape
    stack = np.matmul(_slice_stack(a).reshape(1, j1 * i1, k), _slice_stack(b))
    return stack.reshape(j1 * j2, i1, i2).transpose(1, 0, 2)


def slices_hadamard(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Slice-wise matrix product: result slice j is A(j) @ B(j).

    (I_1, J, K) x (K, J, I_2) -> (I_1, J, I_2), computed as one batched
    matmul over the slice index, (J, I_1, K) @ (J, K, I_2).  The result is a
    transposed view of that contiguous (J, I_1, I_2) product, so passing it
    back in as `a` hands matmul contiguous slices.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 3 or b.ndim != 3:
        raise ValueError("slices_hadamard expects two 3-way tensors")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"middle extents differ: {a.shape[1]} vs {b.shape[1]}")
    if a.shape[2] != b.shape[0]:
        raise ValueError(f"inner ranks differ: {a.shape[2]} vs {b.shape[0]}")
    return np.matmul(a.transpose(1, 0, 2), b.transpose(1, 0, 2)).transpose(1, 0, 2)


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


def numerical_rank(s: np.ndarray, shape: tuple[int, ...]) -> int:
    """Numerical rank of a matrix of `shape` with singular values `s` (in
    descending order): the count above max(shape) * eps * s[0], the cut-off
    of np.linalg.lstsq(rcond=None)."""
    return int(np.count_nonzero(s > max(shape) * np.finfo(np.float64).eps * s[0]))


def _chain(cores) -> np.ndarray:
    """Subchain product of consecutive cores, first core's slice index
    fastest: the (R_left, J, R_right) view of a fresh contiguous slice stack."""
    first = np.asarray(cores[0], dtype=np.float64).transpose(1, 0, 2)
    sub = np.array(first, order="C").transpose(1, 0, 2)
    for c in cores[1:]:
        sub = _subchain_product(sub, c)
    return sub


def subchain_tensor(cores, mode: int) -> np.ndarray:
    """Merge all cores except `mode` into one 3-way tensor
    (R_{mode+1}, prod of other extents, R_mode), middle index ordered with the
    mode+1 extent fastest.

    The result is the transposed view of a fresh C-contiguous
    (J, R_{mode+1}, R_mode) slice stack, which :func:`subchain_unfolding`
    reshapes without a copy; with two cores the stack holds the other core's
    slices.
    """
    return _chain([cores[k] for k in rotation_modes(mode, len(cores))])


def half_chains(cores) -> tuple[np.ndarray, np.ndarray]:
    """The ring's left (R_0, J_L, R_h) and right (R_h, J_R, R_0) half-chains."""
    h = len(cores) // 2
    return _chain(cores[:h]), _chain(cores[h:])


def _slab_columns(j_left: int, j_right: int) -> int:
    """Columns of the (J_L, J_R) view per slab of about SLAB_BYTES."""
    return max(1, min(j_right, SLAB_BYTES // (8 * max(j_left, 1))))


def _model_slabs(cores):
    """Yield (lo, hi, slab): entries lo..hi-1 of the TR model in column-major
    flat order, computed into one reused buffer.

    Model entry (j_L, j_R) is trace(L(j_L) R(j_R)) for the ring's
    `half_chains` L and R, so the (J_R, J_L) matrix of the model is one
    product Rt @ Lt with inner size R_0*R_h.  Its rows are contiguous runs of
    the column-major flat model; a slab is a block of rows of about
    SLAB_BYTES.  A slab is only valid until the next one is requested.
    The cores must already have passed validate_cores.
    """
    left, right = half_chains(cores)
    r0, j_left, rh = left.shape
    j_right = right.shape[1]
    # inner index k = a + R_0*b pairs L[a, j_L, b] with R[b, j_R, a]; rt is
    # the right half-chain's slice stack, read in place
    lt = left.transpose(2, 0, 1).reshape(rh * r0, j_left)
    rt = subchain_unfolding(right)
    rows = _slab_columns(j_left, j_right)
    buf = np.empty(rows * j_left)
    for start in range(0, j_right, rows):
        stop = min(start + rows, j_right)
        slab = buf[: (stop - start) * j_left]
        np.matmul(rt[start:stop], lt, out=slab.reshape(stop - start, j_left))
        yield start * j_left, stop * j_left, slab


def slab_products(xmat: np.ndarray, right: np.ndarray | None = None,
                  left: np.ndarray | None = None, y: np.ndarray | None = None):
    """(Z, Y) = (xmat @ right, xmat.T @ left) in one pass over xmat; either
    factor may be None, and so is then its product.

    xmat is the column-major (J_L, J_R) view of x at the `half_chains` cut,
    read in the column slabs of about SLAB_BYTES that `_model_slabs` makes,
    so a slab stays in L2 while both products read it.  Z (J_L, K) is
    summed slab by slab into a fresh C-ordered array; the slab's rows of Y,
    xs.T @ left, are written into the same rows of `y`, a C-ordered
    (J_R, K) array, fresh if None.  Z has read a slab's rows of `right`
    before they are written, so `y` may be `right` itself: the caller that
    built the right half-chain hands its unfolding as both.
    """
    j_left, j_right = xmat.shape
    cols = _slab_columns(j_left, j_right)
    z = part = None
    if right is not None:
        z = np.empty((j_left, right.shape[1]))
        part = np.empty_like(z) if cols < j_right else None
    if left is not None and y is None:
        y = np.empty((j_right, left.shape[1]))
    for start in range(0, j_right, cols):
        stop = min(start + cols, j_right)
        xs = xmat[:, start:stop]
        if right is not None:
            np.matmul(xs, right[start:stop], out=z if start == 0 else part)
            if start:
                z += part
        if left is not None:
            np.matmul(xs.T, left, out=y[start:stop])
    return z, y


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
    differenced with the matching entries of x directly.  The expanded
    square ||x||^2 - 2<x, M> + ||M||^2 cancels: its relative error grows as
    about eps / RSE^2.  The dense solvers take it all the same, from the
    products of x an iteration forms anyway, for the records of a run that
    lie above `solvers.ESTIMATE_FLOOR`, where it stays within
    `solvers.ESTIMATE_BOUND` of this; every stop, every terminal record and
    every record below the floor comes from here.  A column-major x is read
    in place; any other layout is copied once.
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
