import numpy as np
import pytest

from trdecomp import core
from trdecomp.core import (
    classical_mode_n_unfolding,
    core_unfolding,
    fold_classical_mode_n,
    fold_core,
    fold_mode_n,
    frobenius_norm,
    mode_n_unfolding,
    multi_index,
    residual_norm,
    slices_hadamard,
    subchain_product,
    subchain_tensor,
    subchain_unfolding,
    tr_reconstruct,
    tr_reconstruct_trace,
    validate_cores,
)

from helpers import arange_tensor, linear_pos, reconstruct_by_trace, unfold_by_definition


class TestMultiIndex:
    def test_examples(self):
        assert multi_index([1, 1, 1], [2, 3, 4]) == 1
        assert multi_index([2, 3, 4], [2, 3, 4]) == 24
        # 2 + (1-1)*2 + (2-1)*6
        assert multi_index([2, 1, 2], [2, 3, 4]) == 8

    def test_out_of_range_names_axis(self):
        with pytest.raises(ValueError, match="axis 1"):
            multi_index([1, 4, 1], [2, 3, 4])
        with pytest.raises(ValueError, match="axis 0"):
            multi_index([0, 1, 1], [2, 3, 4])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            multi_index([1, 1], [2, 3, 4])

    @pytest.mark.parametrize("dims", [(2, 3), (2, 3, 4), (3, 1, 2, 2)])
    def test_bijection(self, dims):
        seen = {
            multi_index([i + 1 for i in idx], dims)
            for idx in np.ndindex(*dims)
        }
        assert seen == set(range(1, int(np.prod(dims)) + 1))


class TestUnfoldings:
    def test_mode_1_of_counting_tensor(self):
        x = arange_tensor((2, 2, 2))
        expected = np.array([[1, 3, 5, 7], [2, 4, 6, 8]], dtype=float)
        np.testing.assert_array_equal(mode_n_unfolding(x, 0), expected)
        # mode 1 coincides with the classical unfolding
        np.testing.assert_array_equal(classical_mode_n_unfolding(x, 0), expected)

    def test_mode_2_of_counting_tensor(self):
        x = arange_tensor((2, 2, 2))
        # columns ordered (i3, i1) with i3 fastest
        expected = np.array([[1, 5, 2, 6], [3, 7, 4, 8]], dtype=float)
        np.testing.assert_array_equal(mode_n_unfolding(x, 1), expected)

    def test_classical_mode_2_of_counting_tensor(self):
        x = arange_tensor((2, 2, 2))
        # columns ordered (i1, i3) with i1 fastest
        expected = np.array([[1, 2, 5, 6], [3, 4, 7, 8]], dtype=float)
        np.testing.assert_array_equal(classical_mode_n_unfolding(x, 1), expected)

    def test_zero_tensor(self):
        x = np.zeros((2, 2, 2))
        for mode in range(3):
            np.testing.assert_array_equal(mode_n_unfolding(x, mode), np.zeros((2, 4)))
            np.testing.assert_array_equal(classical_mode_n_unfolding(x, mode), np.zeros((2, 4)))

    @pytest.mark.parametrize("shape", [(4, 3), (3, 4, 2), (2, 3, 2, 4), (2, 2, 3, 2, 2)])
    def test_matches_definition(self, shape):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(shape)
        for mode in range(len(shape)):
            np.testing.assert_array_equal(
                mode_n_unfolding(x, mode), unfold_by_definition(x, mode))
            np.testing.assert_array_equal(
                classical_mode_n_unfolding(x, mode),
                unfold_by_definition(x, mode, classical=True))

    @pytest.mark.parametrize("shape", [(4, 3), (3, 4, 2), (2, 3, 2, 4), (2, 2, 3, 2, 2)])
    def test_fold_roundtrip(self, shape):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(shape)
        for mode in range(len(shape)):
            back = fold_mode_n(mode_n_unfolding(x, mode), shape, mode)
            np.testing.assert_array_equal(back, x)
            back = fold_classical_mode_n(
                classical_mode_n_unfolding(x, mode), shape, mode)
            np.testing.assert_array_equal(back, x)

    def test_invalid_mode(self):
        x = np.zeros((2, 2))
        for bad in (-1, 2):
            with pytest.raises(ValueError):
                mode_n_unfolding(x, bad)
            with pytest.raises(ValueError):
                classical_mode_n_unfolding(x, bad)

    def test_unfoldings_never_alias_input(self):
        # F-ordered input makes the mode-0 reshape a candidate view
        x = np.asfortranarray(np.random.default_rng(0).standard_normal((3, 4, 5)))
        for mode in range(3):
            for fn in (mode_n_unfolding, classical_mode_n_unfolding):
                out = fn(x, mode)
                assert not np.may_share_memory(out, x)

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


class TestSubchainProduct:
    def test_scalar_slices(self):
        a = np.array([[[2.0]], [[3.0]]]).transpose(1, 0, 2)  # slices [2], [3]
        b = np.array([[[5.0]], [[7.0]]]).transpose(1, 0, 2)  # slices [5], [7]
        out = subchain_product(a, b)
        assert out.shape == (1, 4, 1)
        # merged index has the first operand's slice index fastest
        np.testing.assert_allclose(out[0, :, 0], [10, 15, 14, 21])

    def test_identity_left(self):
        rng = np.random.default_rng(4)
        r = 3
        a = np.stack([np.eye(r)] * 2, axis=1)  # 2 identity slices
        b = rng.standard_normal((r, 4, 2))
        out = subchain_product(a, b)
        for j2 in range(4):
            for j1 in range(2):
                np.testing.assert_array_equal(out[:, j1 + 2 * j2, :], b[:, j2, :])

    def test_identity_right(self):
        rng = np.random.default_rng(5)
        r = 2
        a = rng.standard_normal((3, 4, r))
        b = np.stack([np.eye(r)] * 3, axis=1)
        out = subchain_product(a, b)
        for j1 in range(4):
            for j2 in range(3):
                np.testing.assert_array_equal(out[:, j1 + 4 * j2, :], a[:, j1, :])

    def test_slices_are_products(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((4, 5, 3))
        out = subchain_product(a, b)
        assert out.shape == (2, 15, 3)
        for j1 in range(3):
            for j2 in range(5):
                np.testing.assert_allclose(
                    out[:, j1 + 3 * j2, :], a[:, j1, :] @ b[:, j2, :], atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            subchain_product(np.zeros((2, 2, 3)), np.zeros((2, 2, 2)))


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


def random_cores(rng, dims, ranks):
    n = len(dims)
    return [
        rng.standard_normal((ranks[k], dims[k], ranks[(k + 1) % n]))
        for k in range(n)
    ]


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
        np.testing.assert_allclose(tr_reconstruct_trace(cores), slow, atol=1e-13)

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

class TestFrobeniusNorm:
    def test_values(self):
        assert frobenius_norm(np.zeros((2, 3))) == 0.0
        assert frobenius_norm(np.array([[3.0]])) == 3.0
        assert frobenius_norm(arange_tensor((2, 2, 2))) == pytest.approx(
            np.sqrt(204.0), rel=1e-15)
