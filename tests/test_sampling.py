import copy
import dataclasses

import numpy as np
import pytest

from trdecomp import sampling
from trdecomp.core import (
    core_unfolding,
    mode_n_unfolding,
    rotation_modes,
    subchain_tensor,
    subchain_unfolding,
    tr_reconstruct,
)
from trdecomp.sampling import (
    SamplingSpec,
    _leverage_scores_rank,
    check_prob_vector,
    core_distribution,
    core_distributions,
    core_sampler,
    optimal_distribution_oracle,
    sample_subchain_fibers,
)

from helpers import (
    choice_draws,
    complete_sample_batch,
    leverage_by_svd,
    linear_pos,
    product_dist_by_enumeration,
    product_row_distribution,
    random_cores,
    samplers,
    uniform_dist,
    variance_functional,
)


class TestSamplingSpec:
    def test_validation(self):
        SamplingSpec("leverage")
        with pytest.raises(ValueError):
            SamplingSpec("bogus")


class TestCheckProbVector:
    @pytest.mark.parametrize("p", [[np.nan, 1.0], [0.5, np.nan, 0.5], [np.inf, 0.0]])
    def test_rejects_non_finite(self, p):
        # abs(nan - 1) > tol is false, so the sum check alone lets NaN through
        with pytest.raises(ValueError, match="non-finite"):
            check_prob_vector(p)

    @pytest.mark.parametrize("p, match", [([1.5, -0.5], "negative"),
                                          ([[0.5, 0.5]], "1-D")],
                             ids=["negative", "2-D"])
    def test_rejects_a_finite_non_distribution(self, p, match):
        # [1.5, -0.5] sums to 1: only the sign check refuses it
        with pytest.raises(ValueError, match=match):
            check_prob_vector(p)

    def test_draw_rejects_non_finite(self):
        rng = np.random.default_rng(5)
        cores = random_cores(rng, (3, 2), (2, 2))
        with pytest.raises(ValueError, match="non-finite"):
            core_sampler(cores[1], np.array([np.nan, 1.0]))


class TestLeverageScores:
    def test_orthonormal_rows_given(self):
        m = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(_leverage_scores_rank(m)[0], [1.0, 1.0, 0.0], atol=1e-14)

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((7, 3)))
        np.testing.assert_allclose(
            _leverage_scores_rank(q)[0], (q * q).sum(axis=1), atol=1e-13)

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((6, 2))
        expected, rank = leverage_by_svd(m)
        scores, got_rank = _leverage_scores_rank(m)
        np.testing.assert_allclose(scores, expected, atol=1e-12)
        assert got_rank == rank
        assert scores.sum() == pytest.approx(rank, abs=1e-10)

    def test_zero_matrix(self):
        scores, rank = _leverage_scores_rank(np.zeros((4, 2)))
        np.testing.assert_array_equal(scores, np.zeros(4))
        assert rank == 0


class TestCoreDistributions:
    def test_leverage_orthonormal_block(self):
        # unfolding rows: 2x2 identity stacked over a zero row
        mat = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        core = mat.reshape(3, 2, 1, order="F").transpose(1, 0, 2)
        assert core_unfolding(core).shape == (3, 2)
        np.testing.assert_array_equal(core_unfolding(core), mat)
        np.testing.assert_allclose(
            core_distribution(core, "leverage"), [0.5, 0.5, 0.0], atol=1e-14)

    def test_leverage_rank_one(self):
        v = np.array([1.0, -2.0, 3.0])
        core = v.reshape(1, 3, 1)
        np.testing.assert_allclose(
            core_distribution(core, "leverage"), v**2 / np.sum(v**2), atol=1e-14)

    def test_leverage_matches_oracle(self):
        rng = np.random.default_rng(2)
        core = rng.standard_normal((2, 6, 2))
        scores, rank = leverage_by_svd(core_unfolding(core))
        np.testing.assert_allclose(
            core_distribution(core, "leverage"), scores / rank, atol=1e-12)

    def test_leverage_zero_core(self):
        with pytest.raises(ValueError):
            core_distribution(np.zeros((2, 3, 2)), "leverage")

    def test_optimal_is_no_per_core_distribution(self):
        # `optimal` is over the subchain's rows, from the full residual
        with pytest.raises(ValueError, match="no per-core distribution"):
            core_distribution(np.ones((2, 3, 2)), "optimal")

    def test_euclidean_examples(self):
        rng = np.random.default_rng(3)
        slices = [rng.standard_normal((2, 2)) for _ in range(2)]
        slices = [s / np.linalg.norm(s) for s in slices]  # equal-norm slices
        core = np.stack(slices, axis=1)
        p = core_distribution(core, "euclidean")
        np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-12)

        core = np.zeros((1, 2, 1))
        core[0, :, 0] = [1.0, np.sqrt(3.0)]  # squared slice norms 1 and 3
        np.testing.assert_allclose(core_distribution(core, "euclidean"), [0.25, 0.75], atol=1e-14)

        single = np.full((2, 1, 2), 0.3)
        np.testing.assert_allclose(core_distribution(single, "euclidean"), [1.0])

        with pytest.raises(ValueError):
            core_distribution(np.zeros((2, 2, 2)), "euclidean")

    def test_prob_vector_invariants(self):
        rng = np.random.default_rng(4)
        cores = random_cores(rng, (4, 5, 3), (2, 2, 2))
        for kind in ("uniform", "leverage", "euclidean"):
            for mode in range(3):
                dists = core_distributions(cores, mode, kind)
                assert dists[mode] is None
                for k in rotation_modes(mode, 3):
                    p = check_prob_vector(dists[k])
                    assert np.all(p >= 0)
                    assert abs(p.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("kind", ["leverage", "euclidean"])
def test_product_distribution_dominates_subchain_distribution(kind):
    # product of per-core distributions vs the brute-force distribution of the
    # merged subchain, with the corresponding constant beta
    rng = np.random.default_rng(5)
    for trial in range(6):
        n = 3 if trial % 2 == 0 else 4
        dims = tuple(rng.integers(2, 7, size=n))
        ranks = (2,) * n
        cores = random_cores(rng, dims, ranks)
        for mode in range(n):
            dists = core_distributions(cores, mode, kind)
            q = product_row_distribution(cores, mode, dists)
            sub = subchain_tensor(cores, mode)
            mat = subchain_unfolding(sub)
            if kind == "leverage":
                scores, rank = leverage_by_svd(mat)
                p_sub = scores / rank
                others = [k for k in range(n) if k not in (mode, (mode + 1) % n)]
                beta = 1.0 / (
                    ranks[mode] * ranks[(mode + 1) % n]
                    * np.prod([ranks[k] ** 2 for k in others])
                )
            else:
                slice_sq = np.einsum("rjs,rjs->j", sub, sub)
                p_sub = slice_sq / slice_sq.sum()
                beta = 1.0 / np.prod(
                    [np.linalg.norm(cores[k]) ** 2 for k in range(n) if k != mode])
            assert np.all(q + 1e-12 >= beta * p_sub)
            # weaker fallback: q is positive wherever the subchain distribution is
            assert np.all(q[p_sub > 1e-15] > 0)


class TestProductRowDistribution:
    def test_matches_enumeration(self):
        rng = np.random.default_rng(6)
        dims = (3, 4, 2)
        cores = random_cores(rng, dims, (2, 2, 2))
        for mode in range(3):
            dists = core_distributions(cores, mode, "euclidean")
            q = product_row_distribution(cores, mode, dists)
            rot = rotation_modes(mode, 3)
            expected = product_dist_by_enumeration(
                [dists[k] for k in rot], [dims[k] for k in rot])
            np.testing.assert_allclose(q, expected, atol=1e-14)
            assert abs(q.sum() - 1.0) < 1e-12

    def test_is_the_distribution_rows_are_drawn_from(self):
        rng = np.random.default_rng(15)
        dims = (3, 4, 2)
        cores = random_cores(rng, dims, (2, 2, 2))
        x = rng.standard_normal(dims)
        draws = 100_000
        ref = copy.deepcopy(rng)
        for mode in range(3):
            dists = core_distributions(cores, mode, "euclidean")
            q = product_row_distribution(cores, mode, dists)
            _, fibers, probs = sample_subchain_fibers(cores, x, mode, draws,
                                                      samplers(cores, dists), rng)
            _, rows = choice_draws(cores, mode, dists, draws, ref)
            # on a Gaussian x a fiber identifies its row
            np.testing.assert_array_equal(fibers, mode_n_unfolding(x, mode)[:, rows])
            np.testing.assert_allclose(probs, q[rows], rtol=1e-15)
            counts = np.bincount(rows, minlength=q.size)
            se = np.sqrt(draws * q * (1 - q))
            assert np.all(np.abs(counts - draws * q) <= 5 * se)


class TestSampleSubchainFibers:
    def test_degenerate_distributions(self):
        rng = np.random.default_rng(7)
        dims = (3, 4, 2)
        cores = random_cores(rng, dims, (2, 2, 2))
        x = tr_reconstruct(cores)
        mode = 0
        dists = [None] + [
            np.eye(dims[k])[0] for k in (1, 2)
        ]
        s, fibers, probs = sample_subchain_fibers(cores, x, mode, 5, samplers(cores, dists), rng)
        np.testing.assert_array_equal(probs, np.ones(5))
        # slice 0 of both other cores is row 0 of the subchain unfolding
        row = subchain_unfolding(subchain_tensor(cores, mode))[0]
        for f in range(5):
            np.testing.assert_allclose(s[f], row, atol=1e-14)
            np.testing.assert_array_equal(fibers[:, f], x[:, 0, 0])

    @staticmethod
    def _check_rows_and_fibers(rng, dims, ranks):
        n = len(dims)
        cores = random_cores(rng, dims, ranks)
        x = rng.standard_normal(dims)
        ref = copy.deepcopy(rng)
        for mode in range(n):
            dists = core_distributions(cores, mode, "euclidean")
            s, fibers, probs = sample_subchain_fibers(cores, x, mode, 50,
                                                      samplers(cores, dists), rng)
            idxs, rows = choice_draws(cores, mode, dists, 50, ref)
            sub_mat = subchain_unfolding(subchain_tensor(cores, mode))
            xn = mode_n_unfolding(x, mode)
            rot = rotation_modes(mode, n)
            dims_rot = [dims[k] for k in rot]
            assert s.shape == (50, ranks[mode] * ranks[(mode + 1) % n])
            assert s.flags.c_contiguous
            if n == 2:
                # the subchain starts from the first drawn slices: for N = 2
                # there is no product at all
                np.testing.assert_array_equal(
                    s, subchain_unfolding(cores[rot[0]][:, idxs[:, 0], :]))
            # on a Gaussian x a fiber identifies its row
            np.testing.assert_array_equal(fibers, xn[:, rows])
            for f in range(50):
                idx = idxs[f]
                j = linear_pos(idx, dims_rot)
                np.testing.assert_allclose(s[f], sub_mat[j], atol=1e-13)
                np.testing.assert_array_equal(fibers[:, f], xn[:, j])
                expected_p = dists[rot[0]][idx[0]]
                for c, k in enumerate(rot[1:], start=1):
                    expected_p = expected_p * dists[k][idx[c]]
                assert probs[f] == expected_p
        assert rng.random() == ref.random()

    def test_rows_match_subchain_and_fibers_match_columns(self):
        self._check_rows_and_fibers(np.random.default_rng(8), (3, 4, 5), (2, 3, 2))

    @pytest.mark.parametrize("dims, ranks", [
        ((3, 4), (2, 3)),
        ((3, 4, 2, 3), (2, 3, 2, 1)),
        ((2, 3, 2, 2, 3), (2, 1, 3, 2, 2)),
    ], ids=["order2", "order4", "order5"])
    def test_rows_match_subchain_and_fibers_match_columns_at_other_orders(self, dims, ranks):
        self._check_rows_and_fibers(np.random.default_rng(len(dims)), dims, ranks)

    def test_empirical_frequencies_uniform(self):
        rng = np.random.default_rng(9)
        dims = (4, 3, 2)  # J_0 = 6
        cores = random_cores(rng, dims, (2, 2, 2))
        x = tr_reconstruct(cores)
        dists = [None, uniform_dist(3), uniform_dist(2)]
        draws = 100_000
        ref = copy.deepcopy(rng)
        _, fibers, probs = sample_subchain_fibers(cores, x, 0, draws, samplers(cores, dists), rng)
        np.testing.assert_allclose(probs, 1.0 / 6.0, rtol=1e-15)
        idxs, _ = choice_draws(cores, 0, dists, draws, ref)
        rot = rotation_modes(0, 3)
        dims_rot = [dims[k] for k in rot]
        rows = np.array([linear_pos(idx, dims_rot) for idx in idxs])
        np.testing.assert_array_equal(fibers, mode_n_unfolding(x, 0)[:, rows])
        counts = np.bincount(rows, minlength=6)
        p = 1.0 / 6.0
        se = np.sqrt(draws * p * (1 - p))
        assert np.all(np.abs(counts - draws * p) <= 5 * se)

    @pytest.mark.parametrize("kind", ["uniform", "leverage", "euclidean", "zeros"])
    def test_draws_match_generator_choice(self, kind):
        # inverting the CDF must give Generator.choice(p=...)'s draws bit for
        # bit and leave the generator in the same state
        rng = np.random.default_rng(12)
        dims = (3, 6, 5)
        cores = random_cores(rng, dims, (2, 3, 2))
        x = rng.standard_normal(dims)
        for mode in range(3):
            if kind == "zeros":
                dists = [np.array([0.0, 0.7, 0.3]), np.array([0.5, 0, 0.25, 0, 0, 0.25]),
                         np.array([0.0, 0.2, 0.0, 0.8, 0.0])]
                dists[mode] = None
            else:
                dists = core_distributions(cores, mode, kind)
            ours, ref = np.random.default_rng(13 + mode), np.random.default_rng(13 + mode)
            s, fibers, probs = sample_subchain_fibers(cores, x, mode, 1000,
                                                      samplers(cores, dists), ours)
            idxs, rows = choice_draws(cores, mode, dists, 1000, ref)
            # on a Gaussian x a fiber identifies its row
            np.testing.assert_array_equal(fibers, mode_n_unfolding(x, mode)[:, rows])
            rot = rotation_modes(mode, 3)
            expected_p = dists[rot[0]][idxs[:, 0]] * dists[rot[1]][idxs[:, 1]]
            np.testing.assert_array_equal(probs, expected_p)
            np.testing.assert_allclose(
                s, subchain_unfolding(subchain_tensor(cores, mode))[rows], atol=1e-13)
            assert ours.random() == ref.random()
            assert np.all(probs > 0)

    def test_fiber_rows_gathers_only_the_leading_rows(self):
        rng = np.random.default_rng(14)
        dims = (3, 6, 5)
        cores = random_cores(rng, dims, (2, 3, 2))
        x = rng.standard_normal(dims)
        for mode in range(3):
            samps = samplers(cores, core_distributions(cores, mode, "euclidean"))
            full_rng, part_rng = np.random.default_rng(20 + mode), np.random.default_rng(20 + mode)
            s, fibers, probs = sample_subchain_fibers(cores, x, mode, 40, samps, full_rng)
            s_k, fibers_k, probs_k = sample_subchain_fibers(cores, x, mode, 40, samps, part_rng,
                                                            fiber_rows=7)
            assert fibers_k.shape == (dims[mode], 7)
            np.testing.assert_array_equal(fibers_k, fibers[:, :7])
            np.testing.assert_array_equal(s_k, s)
            np.testing.assert_array_equal(probs_k, probs)
            assert full_rng.random() == part_rng.random()

    def test_rejects_a_wrong_length_distribution(self):
        rng = np.random.default_rng(11)
        cores = random_cores(rng, (3, 4), (2, 2))
        with pytest.raises(ValueError, match="length 3, not 4"):
            core_sampler(cores[1], uniform_dist(3))

    def test_bad_batch_size(self):
        rng = np.random.default_rng(11)
        cores = random_cores(rng, (3, 4), (2, 2))
        x = tr_reconstruct(cores)
        with pytest.raises(ValueError):
            sample_subchain_fibers(cores, x, 0, 0, samplers(cores, [None, uniform_dist(4)]), rng)


class TestCoreSampler:
    def test_holds_the_checked_distribution_and_its_cdf(self):
        rng = np.random.default_rng(16)
        core = rng.standard_normal((2, 5, 3))
        p = core_distribution(core, "euclidean")
        sampler = core_sampler(core, p)
        assert [f.name for f in dataclasses.fields(sampler)] == ["p", "cdf", "guide", "steps"]
        np.testing.assert_array_equal(sampler.p, p)
        assert sampler.cdf[-1] == 1.0
        np.testing.assert_array_equal(np.diff(sampler.cdf) >= 0, True)
        # the guide table: M a power of two in [2I, 4I), nondecreasing, each
        # entry at most the CDF entries <= m/M, and `steps` covering the
        # fullest bucket [m/M, (m+1)/M)
        m = len(sampler.guide)
        assert m & (m - 1) == 0 and 2 * len(p) <= m < 4 * len(p)
        np.testing.assert_array_equal(np.diff(sampler.guide) >= 0, True)
        edges = np.arange(m) / m
        assert (sampler.guide <= sampler.cdf.searchsorted(edges, side="right")).all()
        in_bucket = np.bincount((sampler.cdf * m).astype(np.intp), minlength=m + 1)[:m]
        assert sampler.steps >= in_bucket.max()

    def test_draws_the_slices_of_the_current_cores(self):
        # samplers built before their cores are replaced draw the slices of
        # the replacing cores, as a solver's uniform samplers do all run long
        rng = np.random.default_rng(17)
        dims, ranks = (3, 4, 5), (2, 3, 2)
        old = random_cores(rng, dims, ranks)
        new = random_cores(rng, dims, ranks)
        x = rng.standard_normal(dims)
        for mode in range(3):
            dists = core_distributions(old, mode, "euclidean")
            ref = np.random.default_rng(30 + mode)
            s, _, _ = sample_subchain_fibers(new, x, mode, 30, samplers(old, dists),
                                             np.random.default_rng(30 + mode))
            _, rows = choice_draws(new, mode, dists, 30, ref)
            np.testing.assert_allclose(
                s, subchain_unfolding(subchain_tensor(new, mode))[rows], atol=1e-13)

    def test_checks_through_the_module_namespace(self, monkeypatch):
        # the benchmark's tracer spans `sampling.check_prob_vector`
        calls = []

        def spy(p):
            calls.append(p)
            return check_prob_vector(p)

        monkeypatch.setattr(sampling, "check_prob_vector", spy)
        core_sampler(np.ones((1, 4, 1)), uniform_dist(4))
        assert len(calls) == 1


def _adversarial_keys(cdf, m, rng):
    """Uniform variates in [0, 1) that probe a guide table of m buckets:
    random ones, 0 and the largest double below 1, every bucket edge k/m
    and the double below it, every CDF entry and the double below it."""
    edges = np.arange(m) / m
    keys = np.concatenate([rng.random(2000), [0.0, np.nextafter(1.0, 0.0)], edges,
                           np.nextafter(edges, -1.0), cdf, np.nextafter(cdf, -1.0)])
    return keys[(keys >= 0) & (keys < 1)]


class TestGuideDraw:
    """`CoreSampler.draw` inverts the CDF through its guide table and must
    return `cdf.searchsorted(u, side="right")` index for index."""

    @staticmethod
    def assert_exact(sampler, rng):
        u = _adversarial_keys(sampler.cdf, len(sampler.guide), rng)
        np.testing.assert_array_equal(sampler.draw(u), sampler.cdf.searchsorted(u, side="right"))

    @pytest.mark.parametrize("p", [
        [0.0, 0.0, 0.5, 0.0, 0.5, 0.0, 0.0],   # leading, inner and trailing zeros
        [0.25, 0.25, 0.25, 0.25],              # every CDF entry on a bucket edge
        [0.125] * 8,                           # likewise, one entry per edge
        [1e-9] * 5 + [1 - 5e-9],               # five entries in the first bucket
        [1 - 5e-9] + [1e-9] * 5,               # five entries in the last bucket
        [1.0],                                 # I = 1
        [0.0, 1.0, 0.0],
    ])
    def test_equals_searchsorted_on_adversarial_cdfs(self, p):
        p = np.asarray(p)
        sampler = core_sampler(np.ones((1, len(p), 1)), p / p.sum())
        self.assert_exact(sampler, np.random.default_rng(40))

    def test_a_crowded_bucket_takes_more_steps(self):
        p = np.array([1e-9] * 5 + [1 - 5e-9])
        assert core_sampler(np.ones((1, 6, 1)), p).steps == 5

    @pytest.mark.parametrize("kind", ["uniform", "euclidean", "leverage"])
    def test_equals_searchsorted_on_core_distributions(self, kind):
        rng = np.random.default_rng(41)
        for size in (1, 2, 3, 7, 25, 30, 64, 65):
            core = rng.standard_normal((3, size, 2))
            self.assert_exact(core_sampler(core, core_distribution(core, kind)), rng)

    def test_equals_searchsorted_on_the_optimal_ring(self):
        # the optimal oracle's sampler covers the J slices of the subchain
        # tensor G^{!=n}, drawn as the order-2 ring [G_n, G^{!=n}]
        rng = np.random.default_rng(42)
        dims = (6, 7, 5)
        cores = random_cores(rng, dims, (3, 2, 3))
        x = tr_reconstruct(random_cores(rng, dims, (3, 2, 3)))
        for mode in range(3):
            sub = subchain_tensor(cores, mode)
            sub_mat = subchain_unfolding(sub)
            residual = core_unfolding(cores[mode]) @ sub_mat.T - mode_n_unfolding(x, mode)
            q = optimal_distribution_oracle(residual, sub_mat)
            self.assert_exact(core_sampler(sub, q), rng)


class TestGuideMemory:
    def test_optimal_table_is_at_most_four_entries_per_slice(self):
        rng = np.random.default_rng(43)
        for dims in [(6, 7, 5), (9, 9, 9), (4, 5, 6, 7)]:
            cores = random_cores(rng, dims, (2,) * len(dims))
            sub = subchain_tensor(cores, 0)
            j_total = sub.shape[1]
            sampler = core_sampler(sub, rng.dirichlet(np.ones(j_total)))
            assert len(sampler.guide) <= 4 * j_total

    def test_building_samplers_keeps_no_module_state(self):
        # each table belongs to its sampler: nothing sized by the
        # distributions seen is cached at module level
        def snapshot():
            return {name: (id(value), len(value) if isinstance(value, (dict, list, set)) else None)
                    for name, value in vars(sampling).items()}

        before = snapshot()
        rng = np.random.default_rng(44)
        for size in list(range(1, 70)) + [255, 256, 257, 1000, 4097]:
            core_sampler(np.ones((1, size, 1)), rng.dirichlet(np.ones(size)))
        assert snapshot() == before


class TestCompleteSampleBatch:
    def test_covers_everything(self):
        rng = np.random.default_rng(12)
        dims = (3, 4, 2)
        cores = random_cores(rng, dims, (2, 2, 2))
        x = rng.standard_normal(dims)
        for mode in range(3):
            s, fibers, probs = complete_sample_batch(cores, x, mode)
            j_total = x.size // dims[mode]
            assert probs.shape == (j_total,)
            np.testing.assert_allclose(probs, 1.0 / j_total)
            np.testing.assert_array_equal(
                s, subchain_unfolding(subchain_tensor(cores, mode)))
            np.testing.assert_array_equal(fibers, mode_n_unfolding(x, mode))


class TestOptimalRingDraw:
    """The `optimal` distribution is over the rows of the subchain unfolding,
    i.e. the slices of the subchain tensor G^{!=n}; it is drawn as the
    order-2 ring [G_n, G^{!=n}] over the mode unfolding X_(n)."""

    def test_rows_and_probs(self):
        rng = np.random.default_rng(13)
        dims = (3, 4, 2)
        cores = random_cores(rng, dims, (2, 2, 2))
        x = rng.standard_normal(dims)
        q = rng.dirichlet(np.ones(8))
        sub = subchain_tensor(cores, 0)
        sub_mat = subchain_unfolding(sub)
        xn = mode_n_unfolding(x, 0)
        ref = copy.deepcopy(rng)
        s, fibers, probs = sample_subchain_fibers([cores[0], sub], xn, 0, 40,
                                                  [None, core_sampler(sub, q)], rng)
        rows = ref.choice(len(q), size=40, replace=True, p=q)
        np.testing.assert_array_equal(s, sub_mat[rows])
        assert s.flags.c_contiguous
        # on a Gaussian x a fiber identifies its row
        np.testing.assert_array_equal(fibers, xn[:, rows])
        np.testing.assert_array_equal(probs, q[rows])
        assert rng.random() == ref.random()

    def test_fiber_rows_gathers_only_the_leading_rows(self):
        rng = np.random.default_rng(13)
        core, sub = rng.standard_normal((2, 3, 2)), rng.standard_normal((2, 8, 2))
        xn = rng.standard_normal((3, 8))
        ring, oracle = [core, sub], [None, core_sampler(sub, rng.dirichlet(np.ones(8)))]
        ref = copy.deepcopy(rng)
        s, fibers, probs = sample_subchain_fibers(ring, xn, 0, 40, oracle, rng)
        s_k, fibers_k, probs_k = sample_subchain_fibers(ring, xn, 0, 40, oracle, ref,
                                                        fiber_rows=9)
        assert fibers_k.shape == (3, 9)
        np.testing.assert_array_equal(fibers_k, fibers[:, :9])
        np.testing.assert_array_equal(s_k, s)
        np.testing.assert_array_equal(probs_k, probs)

    @pytest.mark.parametrize("q", [np.full(7, 1 / 7), np.full(8, 0.2),
                                   np.r_[np.nan, np.full(7, 1 / 7)]],
                             ids=["wrong-length", "sum", "nan"])
    def test_rejects_a_bad_distribution(self, q):
        # the subchain tensor of a rank-1 ring over 8 rows
        with pytest.raises(ValueError):
            core_sampler(np.zeros((1, 8, 1)), q)


class TestOptimalDistribution:
    def test_uniform_when_weights_equal(self):
        residual = np.eye(3)  # columns all unit norm
        subchain = np.ones((3, 2))
        np.testing.assert_allclose(
            optimal_distribution_oracle(residual, subchain), np.full(3, 1 / 3))

    def test_normalization_with_zeros(self):
        residual = np.array([[2.0, 0.0, 2.0]])
        subchain = np.ones((3, 1))
        np.testing.assert_allclose(
            optimal_distribution_oracle(residual, subchain), [0.5, 0.0, 0.5])

    def test_all_zero_weights(self):
        with pytest.raises(ValueError):
            optimal_distribution_oracle(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_rejects_residual_columns_not_matching_the_subchain_rows(self):
        with pytest.raises(ValueError, match="must match subchain rows"):
            optimal_distribution_oracle(np.ones((2, 3)), np.ones((4, 2)))

    @pytest.mark.parametrize("scale", [1e200, 1e160], ids=["norms", "products"])
    def test_overflowing_finite_inputs(self, scale):
        # the norms (or only their products) overflow; the distribution does
        # not depend on either input's scale
        rng = np.random.default_rng(15)
        residual = rng.standard_normal((4, 6))
        subchain = rng.standard_normal((6, 3))
        with np.errstate(over="ignore", invalid="ignore"):
            q = optimal_distribution_oracle(scale * residual, 1e160 * subchain)
        np.testing.assert_allclose(q, optimal_distribution_oracle(residual, subchain),
                                   rtol=1e-12)

    def test_minimizes_variance_functional(self):
        rng = np.random.default_rng(14)
        residual = rng.standard_normal((4, 6))
        subchain = rng.standard_normal((6, 3))
        q_opt = optimal_distribution_oracle(residual, subchain)
        v_opt = variance_functional(residual, subchain, q_opt, 2)
        for _ in range(100):
            q = rng.dirichlet(np.ones(6))
            if np.all(q > 0):
                assert variance_functional(residual, subchain, q, 2) >= v_opt - 1e-9
        # closed-form minimum
        w = np.linalg.norm(residual, axis=0) * np.linalg.norm(subchain, axis=1)
        grad = residual @ subchain
        v_closed = (w.sum() ** 2 - np.linalg.norm(grad) ** 2) / 2
        assert v_opt == pytest.approx(v_closed, rel=1e-12)


class TestVarianceFunctional:
    def test_zero_residual(self):
        subchain = np.ones((4, 2))
        assert variance_functional(np.zeros((3, 4)), subchain, uniform_dist(4), 2) == 0.0

    def test_hand_expanded_uniform(self):
        residual = np.array([[1.0, -2.0], [0.5, 1.0]])
        subchain = np.array([[2.0, 0.0], [1.0, 1.0]])
        q = uniform_dist(2)
        batch = 2
        # explicit expansion of the defining sum
        total = 0.0
        for j in range(2):
            rj = np.linalg.norm(residual[:, j]) ** 2
            sj = np.linalg.norm(subchain[j, :]) ** 2
            total += rj * sj / q[j]
        expected = (total - np.linalg.norm(residual @ subchain) ** 2) / batch
        assert variance_functional(residual, subchain, q, batch) == pytest.approx(
            expected, rel=1e-14)

    def test_zero_probability_with_weight(self):
        residual = np.array([[1.0, 1.0]])
        subchain = np.ones((2, 1))
        with pytest.raises(ValueError):
            variance_functional(residual, subchain, np.array([1.0, 0.0]), 1)
