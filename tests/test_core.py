import tracemalloc

import numpy as np
import pytest

from trdecomp import core
from trdecomp.core import (
    _subchain_product,
    core_unfolding,
    fold_core,
    mode_n_unfolding,
    residual_norm,
    slab_products,
    slices_hadamard,
    subchain_tensor,
    subchain_unfolding,
    tr_reconstruct,
    unfolding_matmul,
    validate_cores,
)

from helpers import (
    arange_tensor,
    linear_pos,
    random_cores,
    reconstruct_by_trace,
    unfold_by_definition,
)


class TestUnfoldings:
    def test_mode_1_of_counting_tensor(self):
        x = arange_tensor((2, 2, 2))
        expected = np.array([[1, 3, 5, 7], [2, 4, 6, 8]], dtype=float)
        np.testing.assert_array_equal(mode_n_unfolding(x, 0), expected)

    def test_mode_2_of_counting_tensor(self):
        x = arange_tensor((2, 2, 2))
        # columns ordered (i3, i1) with i3 fastest
        expected = np.array([[1, 5, 2, 6], [3, 7, 4, 8]], dtype=float)
        np.testing.assert_array_equal(mode_n_unfolding(x, 1), expected)

    def test_classical_mode_2_of_counting_tensor(self):
        x = arange_tensor((2, 2, 2))
        # the core unfolding is the classical mode-2 one: columns ordered
        # (i1, i3) with i1 fastest
        expected = np.array([[1, 2, 5, 6], [3, 4, 7, 8]], dtype=float)
        np.testing.assert_array_equal(core_unfolding(x), expected)

    def test_zero_tensor(self):
        x = np.zeros((2, 2, 2))
        for mode in range(3):
            np.testing.assert_array_equal(mode_n_unfolding(x, mode), np.zeros((2, 4)))
        np.testing.assert_array_equal(core_unfolding(x), np.zeros((2, 4)))

    @pytest.mark.parametrize("shape", [(4, 3), (3, 4, 2), (2, 3, 2, 4), (2, 2, 3, 2, 2)])
    def test_matches_definition(self, shape):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(shape)
        for mode in range(len(shape)):
            np.testing.assert_array_equal(
                mode_n_unfolding(x, mode), unfold_by_definition(x, mode))
        if len(shape) == 3:
            np.testing.assert_array_equal(
                core_unfolding(x), unfold_by_definition(x, 1, classical=True))

    @pytest.mark.parametrize("shape", [(1, 4, 1), (3, 4, 2), (2, 3, 4), (2, 1, 3)])
    def test_fold_roundtrip(self, shape):
        rng = np.random.default_rng(2)
        core = rng.standard_normal(shape)
        back = fold_core(core_unfolding(core), shape[0], shape[2])
        np.testing.assert_array_equal(back, core)

    def test_invalid_mode(self):
        x = np.zeros((2, 2))
        for bad in (-1, 2):
            with pytest.raises(ValueError):
                mode_n_unfolding(x, bad)

    def test_unfoldings_never_alias_input(self):
        # F-ordered input makes the mode-0 reshape a candidate view
        x = np.asfortranarray(np.random.default_rng(0).standard_normal((3, 4, 5)))
        for mode in range(3):
            assert not np.may_share_memory(mode_n_unfolding(x, mode), x)
        # the unfolding of a folded core reshapes to a view of its buffer
        core = fold_core(np.random.default_rng(1).standard_normal((4, 15)), 3, 5)
        assert not np.may_share_memory(core_unfolding(core), core)

    def test_core_unfolding_roundtrip(self):
        rng = np.random.default_rng(3)
        core = rng.standard_normal((2, 5, 3))
        mat = core_unfolding(core)
        assert mat.shape == (5, 6)
        # column r1 + r2*R1 holds core[r1, :, r2]
        for r1 in range(2):
            for r2 in range(3):
                np.testing.assert_array_equal(mat[:, r1 + 2 * r2], core[r1, :, r2])
        np.testing.assert_array_equal(fold_core(mat, 2, 3), core)


class TestUnfoldingMatmul:
    @pytest.mark.parametrize("shape", [(4, 3), (3, 4, 2), (2, 3, 4, 2), (2, 3, 2, 2, 3)])
    @pytest.mark.parametrize("x_order", ["C", "F"])
    @pytest.mark.parametrize("m_order", ["C", "F"])
    @pytest.mark.parametrize("k", [1, 5])
    def test_matches_the_unfolding(self, shape, x_order, m_order, k):
        rng = np.random.default_rng(4)
        x = np.asarray(rng.standard_normal(shape), order=x_order)
        for mode in range(len(shape)):
            m = np.asarray(rng.standard_normal((x.size // shape[mode], k)), order=m_order)
            got = unfolding_matmul(x, mode, m)
            assert got.shape == (shape[mode], k)
            np.testing.assert_allclose(got, mode_n_unfolding(x, mode) @ m, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("x_order", ["C", "F"])
    def test_a_middle_mode_batch_of_several_chunks(self, x_order):
        # (I, K) = (100, 9) takes 35 batches per chunk: 130 is 4 chunks, the
        # last of 25
        shape, k = (3, 100, 130), 9
        rows = core.SLAB_BYTES // (8 * shape[1] * k) - 1
        assert shape[2] >= 2 * rows + 1 and shape[2] % rows
        # positive entries: with no cancellation, 390-term sums agree to
        # 390 u < 1e-13 relative entry by entry
        rng = np.random.default_rng(5)
        x = np.asarray(rng.random(shape), order=x_order)
        m = rng.random((shape[0] * shape[2], k))
        got = unfolding_matmul(x, 1, m)
        np.testing.assert_allclose(got, mode_n_unfolding(x, 1) @ m, rtol=1e-13, atol=0)
        # the running sum leads each chunk, so the chunks add up in the
        # order of one unchunked sum over the batch
        x3 = np.asfortranarray(x).reshape(shape, order="F")
        unchunked = x3.transpose(2, 1, 0) @ m.reshape(shape[0], shape[2], k).transpose(1, 0, 2)
        np.testing.assert_array_equal(got, unchunked.sum(axis=0))

    @pytest.mark.parametrize("dtype", [np.float32, np.complex128])
    def test_a_chunked_product_keeps_the_dtype_of_x_at_m(self, dtype):
        shape, k = (3, 100, 130), 9
        rng = np.random.default_rng(7)
        x = np.asfortranarray(rng.random(shape)).astype(dtype)
        m = rng.random((shape[0] * shape[2], k)).astype(dtype)
        got = unfolding_matmul(x, 1, m)
        assert got.dtype == dtype
        np.testing.assert_allclose(got, mode_n_unfolding(x, 1) @ m, rtol=1e-5, atol=0)

    def test_a_middle_mode_product_allocates_at_most_a_slab(self):
        # the whole batch's (B, I, K) products of 100^3 mode 1 at K = 9
        # would be 720 KB
        rng = np.random.default_rng(6)
        x = np.asfortranarray(rng.standard_normal((100, 100, 100)))
        m = rng.standard_normal((10000, 9))
        tracemalloc.start()
        try:
            out = unfolding_matmul(x, 1, m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < core.SLAB_BYTES + out.nbytes + 8 * 1024

    def test_rejects_a_bad_mode_or_row_count(self):
        x = np.zeros((2, 3, 4))
        with pytest.raises(ValueError, match="mode"):
            unfolding_matmul(x, 3, np.zeros((6, 1)))
        with pytest.raises(ValueError, match="columns"):
            unfolding_matmul(x, 1, np.zeros((7, 1)))


class TestSubchainProduct:
    def test_scalar_slices(self):
        a = np.array([[[2.0]], [[3.0]]]).transpose(1, 0, 2)  # slices [2], [3]
        b = np.array([[[5.0]], [[7.0]]]).transpose(1, 0, 2)  # slices [5], [7]
        out = _subchain_product(a, b)
        assert out.shape == (1, 4, 1)
        # merged index has the first operand's slice index fastest
        np.testing.assert_allclose(out[0, :, 0], [10, 15, 14, 21])

    def test_identity_left(self):
        rng = np.random.default_rng(4)
        r = 3
        a = np.stack([np.eye(r)] * 2, axis=1)  # 2 identity slices
        b = rng.standard_normal((r, 4, 2))
        out = _subchain_product(a, b)
        for j2 in range(4):
            for j1 in range(2):
                np.testing.assert_array_equal(out[:, j1 + 2 * j2, :], b[:, j2, :])

    def test_identity_right(self):
        rng = np.random.default_rng(5)
        r = 2
        a = rng.standard_normal((3, 4, r))
        b = np.stack([np.eye(r)] * 3, axis=1)
        out = _subchain_product(a, b)
        for j1 in range(4):
            for j2 in range(3):
                np.testing.assert_array_equal(out[:, j1 + 4 * j2, :], a[:, j1, :])

    def test_slices_are_products(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((4, 5, 3))
        out = _subchain_product(a, b)
        assert out.shape == (2, 15, 3)
        for j1 in range(3):
            for j2 in range(5):
                np.testing.assert_allclose(
                    out[:, j1 + 3 * j2, :], a[:, j1, :] @ b[:, j2, :], atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="inner ranks differ: 3 vs 2"):
            _subchain_product(np.zeros((2, 2, 3)), np.zeros((2, 2, 2)))
        with pytest.raises(ValueError, match="two 3-way tensors"):
            _subchain_product(np.zeros((2, 3)), np.zeros((3, 2, 2)))
        with pytest.raises(ValueError, match="two 3-way tensors"):
            _subchain_product(np.zeros((2, 2, 3)), np.zeros((3, 2, 2, 1)))

    def test_result_is_a_view_of_a_contiguous_slice_stack(self):
        rng = np.random.default_rng(6)
        out = _subchain_product(rng.standard_normal((2, 3, 4)), rng.standard_normal((4, 5, 3)))
        assert out.transpose(1, 0, 2).flags.c_contiguous


class TestSlicesHadamard:
    def test_identity_passthrough(self):
        rng = np.random.default_rng(7)
        r = 3
        a = np.stack([np.eye(r)] * 4, axis=1)
        b = rng.standard_normal((r, 4, 2))
        np.testing.assert_array_equal(slices_hadamard(a, b), b)

    def test_scalar_slices(self):
        a = np.zeros((1, 2, 1))
        b = np.zeros((1, 2, 1))
        a[0, :, 0] = [2.0, 3.0]
        b[0, :, 0] = [5.0, 7.0]
        out = slices_hadamard(a, b)
        np.testing.assert_allclose(out[0, :, 0], [10.0, 21.0])

    def test_single_slice_is_matmul(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((3, 1, 4))
        b = rng.standard_normal((4, 1, 2))
        np.testing.assert_allclose(
            slices_hadamard(a, b)[:, 0, :], a[:, 0, :] @ b[:, 0, :], atol=1e-14)

    def test_mismatch(self):
        with pytest.raises(ValueError):
            slices_hadamard(np.zeros((2, 3, 2)), np.zeros((2, 4, 2)))
        with pytest.raises(ValueError):
            slices_hadamard(np.zeros((2, 3, 2)), np.zeros((3, 3, 2)))


class TestSubchainTensor:
    def test_two_cores_returns_other(self):
        rng = np.random.default_rng(9)
        cores = random_cores(rng, (3, 4), (2, 2))
        np.testing.assert_array_equal(subchain_tensor(cores, 0), cores[1])
        np.testing.assert_array_equal(subchain_tensor(cores, 1), cores[0])

    def test_slices_match_core_slice_products(self):
        rng = np.random.default_rng(10)
        dims, ranks = (3, 4, 5), (2, 3, 2)
        cores = random_cores(rng, dims, ranks)
        for mode in range(3):
            rot = [(mode + s) % 3 for s in range(1, 3)]
            sub = subchain_tensor(cores, mode)
            dims_rot = [dims[k] for k in rot]
            assert sub.shape == (ranks[(mode + 1) % 3], np.prod(dims_rot), ranks[mode])
            for idx in np.ndindex(*dims_rot):
                expected = cores[rot[0]][:, idx[0], :]
                for c, k in enumerate(rot[1:], start=1):
                    expected = expected @ cores[k][:, idx[c], :]
                j = linear_pos(idx, dims_rot)
                np.testing.assert_allclose(sub[:, j, :], expected, atol=1e-13)

    def test_identity_cores(self):
        r = 2
        cores = [np.stack([np.eye(r)] * d, axis=1) for d in (2, 3, 2)]
        sub = subchain_tensor(cores, 0)
        for j in range(sub.shape[1]):
            np.testing.assert_array_equal(sub[:, j, :], np.eye(r))


# (dims, ranks) of orders 2-6, with unequal ranks and extents
STACK_CASES = [
    ((4, 3), (2, 3)),
    ((3, 4, 5), (2, 3, 1)),
    ((3, 2, 4, 2), (2, 1, 3, 2)),
    ((2, 3, 2, 3, 2), (1, 2, 3, 2, 2)),
    ((2, 2, 3, 2, 2, 3), (2, 3, 1, 2, 2, 3)),
]


def einsum_subchain_unfolding(cores, mode):
    """(J, R_mode*R_{mode+1}) subchain unfolding by one einsum over the
    rotated cores: row j merges their slice indices, first fastest; column
    b + R_mode*a holds the entry (a, b) of the slice product."""
    order = [(mode + s) % len(cores) for s in range(1, len(cores))]
    ranks, dims = "ABCDEFG", "ijklmno"
    terms = [ranks[t] + dims[t] + ranks[t + 1] for t in range(len(order))]
    out = ranks[0] + dims[:len(order)] + ranks[len(order)]
    full = np.einsum(",".join(terms) + "->" + out, *(cores[k] for k in order))
    m = len(order)
    # slice indices reversed, so a C-order reshape puts the first fastest
    stacked = full.transpose(list(range(m, 0, -1)) + [0, m + 1])
    return stacked.reshape(-1, full.shape[0] * full.shape[-1])


@pytest.mark.parametrize("dims,ranks", STACK_CASES,
                         ids=[f"order{len(dims)}" for dims, _ in STACK_CASES])
class TestSubchainStack:
    def test_unfolding_matches_an_einsum_reference(self, dims, ranks):
        rng = np.random.default_rng(len(dims))
        cores = random_cores(rng, dims, ranks)
        for mode in range(len(dims)):
            got = subchain_unfolding(subchain_tensor(cores, mode))
            expected = einsum_subchain_unfolding(cores, mode)
            assert got.shape == expected.shape
            assert np.linalg.norm(got - expected) <= 1e-14 * np.linalg.norm(expected)

    def test_unfolding_is_the_stack_itself(self, dims, ranks):
        rng = np.random.default_rng(len(dims))
        cores = random_cores(rng, dims, ranks)
        for mode in range(len(dims)):
            sub = subchain_tensor(cores, mode)
            mat = subchain_unfolding(sub)
            assert mat.flags.c_contiguous
            assert np.shares_memory(mat, sub)
            # a fresh stack: nothing of the cores
            assert not any(np.shares_memory(sub, c) for c in cores)

    def test_reconstruction_has_zero_residual(self, dims, ranks):
        rng = np.random.default_rng(len(dims))
        cores = random_cores(rng, dims, ranks)
        assert residual_norm(cores, tr_reconstruct(cores)) == 0.0


def strided_cores(rng, dims, ranks):
    """Random cores as fold_core makes them: strided views, not C-contiguous."""
    n = len(dims)
    return [
        fold_core(rng.standard_normal((dims[k], ranks[k] * ranks[(k + 1) % n])),
                  ranks[k], ranks[(k + 1) % n])
        for k in range(n)
    ]


@pytest.mark.parametrize("dims,ranks", [((5, 4, 6), (3, 2, 4)), ((3, 4, 2, 5), (2, 3, 2, 2))])
def test_strided_cores_give_bitwise_equal_results(dims, ranks):
    rng = np.random.default_rng(23)
    cores = strided_cores(rng, dims, ranks)
    assert not any(c.flags.c_contiguous for c in cores)
    copies = [np.ascontiguousarray(c) for c in cores]
    for mode in range(len(dims)):
        sub, sub_copy = subchain_tensor(cores, mode), subchain_tensor(copies, mode)
        # the layout too: later products round differently on another layout
        assert sub.strides == sub_copy.strides
        assert sub.tobytes() == sub_copy.tobytes()
    for _ in range(20):
        x = rng.standard_normal(dims)
        assert residual_norm(cores, x) == residual_norm(copies, x)


class TestReconstruct:
    def test_rank_one_all_ones(self):
        cores = [np.ones((1, d, 1)) for d in (2, 3, 4)]
        np.testing.assert_array_equal(tr_reconstruct(cores), np.ones((2, 3, 4)))

    def test_identity_slices_give_constant_trace(self):
        r = 2
        cores = [np.stack([np.eye(r)] * d, axis=1) for d in (2, 3, 2)]
        np.testing.assert_array_equal(tr_reconstruct(cores), np.full((2, 3, 2), 2.0))

    def test_matches_bruteforce_trace(self):
        rng = np.random.default_rng(11)
        cores = random_cores(rng, (3, 4, 5), (2, 2, 2))
        fast = tr_reconstruct(cores)
        slow = reconstruct_by_trace(cores)
        np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=1e-12)

    def test_unfolding_identity_every_mode(self):
        rng = np.random.default_rng(12)
        cores = random_cores(rng, (3, 4, 5, 2), (2, 3, 2, 2))
        x = tr_reconstruct(cores)
        for mode in range(4):
            lhs = mode_n_unfolding(x, mode)
            rhs = core_unfolding(cores[mode]) @ subchain_unfolding(
                subchain_tensor(cores, mode)).T
            err = np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs)
            assert err < 1e-12

    def test_cyclic_shift_invariance(self):
        rng = np.random.default_rng(13)
        dims = (3, 4, 5)
        cores = random_cores(rng, dims, (2, 3, 2))
        x = tr_reconstruct(cores)
        for shift in range(1, 3):
            shifted = cores[shift:] + cores[:shift]
            perm = list(range(shift, 3)) + list(range(shift))
            err = np.linalg.norm(tr_reconstruct(shifted) - np.transpose(x, perm))
            assert err / np.linalg.norm(x) < 1e-12

    def test_validate_cores(self):
        rng = np.random.default_rng(14)
        cores = random_cores(rng, (3, 4), (2, 3))
        validate_cores(cores)
        bad = [cores[0], rng.standard_normal((4, 4, 2))]
        with pytest.raises(ValueError, match="rank chain"):
            validate_cores(bad)
        with pytest.raises(ValueError):
            validate_cores([cores[0]])
        with pytest.raises(ValueError, match="core 1 is not 3-way"):
            validate_cores([cores[0], cores[1][:, :, 0]])


# (extents, ranks): orders 2 to 5, non-uniform ranks, non-cubical extents
KERNEL_CASES = [
    ((3, 5), (2, 3)),
    ((4, 3, 5), (2, 1, 3)),
    ((2, 5, 3, 4), (3, 2, 1, 2)),
    ((3, 2, 4, 1, 3), (2, 3, 2, 2, 1)),
]


def _layouts(x):
    """The same tensor C-ordered, F-ordered and as a strided slice."""
    wide = np.zeros(tuple(2 * d for d in x.shape))
    sliced = wide[tuple(slice(None, None, 2) for _ in x.shape)]
    sliced[...] = x
    return {"C": np.ascontiguousarray(x), "F": np.asfortranarray(x), "sliced": sliced}


class TestResidualNorm:
    @pytest.mark.parametrize("dims,ranks", KERNEL_CASES)
    @pytest.mark.parametrize("rows_per_slab", [1, 2, None])
    def test_matches_trace_oracle(self, dims, ranks, rows_per_slab, monkeypatch):
        if rows_per_slab is not None:
            j_left = int(np.prod(dims[: len(dims) // 2]))
            monkeypatch.setattr(core, "SLAB_BYTES", rows_per_slab * 8 * j_left)
        rng = np.random.default_rng(21)
        cores = random_cores(rng, dims, ranks)
        model = reconstruct_by_trace(cores)
        x = rng.standard_normal(dims)
        expected = np.linalg.norm(model - x)
        for layout, xl in _layouts(x).items():
            assert residual_norm(cores, xl) == pytest.approx(expected, rel=1e-12), layout
        np.testing.assert_allclose(tr_reconstruct(cores), model, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("dims,ranks", KERNEL_CASES)
    def test_exact_zero_on_own_reconstruction(self, dims, ranks):
        rng = np.random.default_rng(22)
        cores = random_cores(rng, dims, ranks)
        x = tr_reconstruct(cores)
        for layout, xl in _layouts(x).items():
            assert residual_norm(cores, xl) == 0.0, layout

    @pytest.mark.parametrize("dims,ranks", KERNEL_CASES)
    def test_small_residual_near_rse_1e_10(self, dims, ranks):
        # a direct difference keeps the residual's leading digits where
        # expanding the square would lose all of them
        rng = np.random.default_rng(23)
        cores = random_cores(rng, dims, ranks)
        model = reconstruct_by_trace(cores)
        noise = rng.standard_normal(dims)
        x = model + 1e-10 * np.linalg.norm(model) / np.linalg.norm(noise) * noise
        expected = np.linalg.norm(model - x)
        assert expected / np.linalg.norm(x) == pytest.approx(1e-10, rel=1e-3)
        for layout, xl in _layouts(x).items():
            assert residual_norm(cores, xl) == pytest.approx(expected, rel=1e-4), layout

    def test_shape_mismatch(self):
        rng = np.random.default_rng(24)
        cores = random_cores(rng, (3, 4), (2, 2))
        with pytest.raises(ValueError, match="shape"):
            residual_norm(cores, np.zeros((4, 3)))

    def test_reconstruction_is_column_major(self):
        rng = np.random.default_rng(25)
        x = tr_reconstruct(random_cores(rng, (3, 4, 5), (2, 2, 2)))
        assert x.flags.f_contiguous


class TestSlabProducts:
    @pytest.mark.parametrize("shape", [(1, 7), (6, 20), (12, 5)])
    @pytest.mark.parametrize("cols_per_slab", [1, 3, None])
    def test_matches_the_two_products(self, shape, cols_per_slab, monkeypatch):
        if cols_per_slab is not None:
            monkeypatch.setattr(core, "SLAB_BYTES", cols_per_slab * 8 * shape[0])
        rng = np.random.default_rng(26)
        xmat = np.asfortranarray(rng.standard_normal(shape))
        right = rng.standard_normal((shape[1], 4))
        left = rng.standard_normal((shape[0], 4))
        expected_z, expected_y = xmat @ right, xmat.T @ left
        z, y = slab_products(xmat, right, left)
        np.testing.assert_allclose(z, expected_z, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(y, expected_y, rtol=1e-13, atol=1e-13)
        assert slab_products(xmat, right=right)[1] is None
        assert slab_products(xmat, left=left)[0] is None
        # Y may take the rows of `right` that Z has read
        z, y = slab_products(xmat, right, left, y=right)
        assert y is right
        np.testing.assert_allclose(z, expected_z, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(y, expected_y, rtol=1e-13, atol=1e-13)

    def test_slabs_are_those_of_the_model(self):
        # residual_norm and the products read x in the same column slabs
        j_left, j_right = 50, 2500
        cols = core._slab_columns(j_left, j_right)
        assert 1 < cols < j_right and cols * 8 * j_left <= core.SLAB_BYTES
        cores = random_cores(np.random.default_rng(27), (50, 50, 50), (2, 2, 2))
        spans = [(lo, hi) for lo, hi, _ in core._model_slabs(cores)]
        assert spans[0] == (0, cols * j_left) and len(spans) == -(-j_right // cols)
