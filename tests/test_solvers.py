import logging
import math

import numpy as np
import pytest

from trdecomp.core import (
    core_unfolding,
    mode_n_unfolding,
    subchain_tensor,
    subchain_unfolding,
    tr_reconstruct,
)
from trdecomp import sampling
from trdecomp.datagen import SynthSpec, synth_tensor
from trdecomp.sampling import (
    SamplingSpec,
    complete_sample_batch,
    sample_subchain_fibers,
    uniform_dist,
)
from trdecomp.solvers import (
    AdaGradStep,
    ConstantStep,
    RobbinsMonroStep,
    SolverConfig,
    adagrad_update,
    full_gradient,
    objective,
    schedule_value,
    search_direction,
    stochastic_gradient,
    stochastic_hessian,
    tr_als,
    tr_brsgd,
    tr_gd,
    tr_scaled_brsgd,
    tr_scaled_gd,
)
from trdecomp.trace import TERMINAL_REASONS

from helpers import finite_diff_core_gradient, reconstruct_by_trace


def random_cores(rng, dims, ranks):
    n = len(dims)
    return [
        rng.standard_normal((ranks[k], dims[k], ranks[(k + 1) % n]))
        for k in range(n)
    ]


def _counting_clock():
    state = {"t": 0.0}

    def clock():
        state["t"] += 1.0
        return state["t"]

    return clock


class TestSchedules:
    def test_values(self):
        assert schedule_value(ConstantStep(0.3), 17) == 0.3
        rm = RobbinsMonroStep(2.0, 0.75)
        assert schedule_value(rm, 0) == 2.0
        assert schedule_value(rm, 3) == pytest.approx(2.0 / 4**0.75)

    def test_validation(self):
        with pytest.raises(ValueError):
            ConstantStep(-1.0)
        with pytest.raises(ValueError):
            RobbinsMonroStep(1.0, 0.5)
        with pytest.raises(ValueError):
            RobbinsMonroStep(1.0, 1.5)
        with pytest.raises(ValueError):
            AdaGradStep(0.0)

    @pytest.mark.parametrize("gamma", [0.6, 0.75, 1.0])
    def test_robbins_monro_sums(self, gamma):
        # partial sums of alpha_t grow without bound; sums of squares stay
        # under the integral bound 1 + 1/(2*gamma - 1)
        alpha0 = 1.0
        t = np.arange(1_000_000, dtype=np.float64)
        steps = alpha0 / (t + 1) ** gamma
        s1 = np.cumsum(steps)
        s2 = np.sum(steps**2)
        lower = ((t[-1] + 1) ** (1 - gamma) - 1) / (1 - gamma) if gamma < 1 else np.log(t[-1] + 1)
        assert s1[-1] >= lower
        assert s1[-1] > s1[len(t) // 100] + 1.0  # still growing far into the tail
        assert s2 <= alpha0**2 * (1 + 1 / (2 * gamma - 1)) + 1e-9


class TestAdaGrad:
    def test_first_step(self):
        acc = np.zeros((1, 1))
        d = np.array([[0.4]])
        steps = adagrad_update(acc, d, eta=0.7)
        assert steps[0, 0] == pytest.approx(0.7 / 0.4, rel=1e-15)

    def test_two_step_accumulation(self):
        acc = np.zeros((1, 2))
        d1 = np.array([[0.3, 0.0]])
        d2 = np.array([[-0.2, 0.0]])
        adagrad_update(acc, d1, eta=0.7)
        steps = adagrad_update(acc, d2, eta=0.7)
        assert steps[0, 0] == pytest.approx(0.7 / np.sqrt(0.3**2 + 0.2**2), rel=1e-15)
        # zero-history entry falls back to eta (it multiplies a zero direction)
        assert steps[0, 1] == 0.7

    def test_zero_directions_leave_core_fixed(self):
        # integer-valued cores keep all products exact, so the residual and
        # every gradient are exactly zero in floats
        rng = np.random.default_rng(0)
        truth = [rng.integers(-2, 3, size=(2, 5, 2)).astype(float) for _ in range(3)]
        x = tr_reconstruct(truth)
        cfg = SolverConfig(ranks=(2, 2, 2), schedule=AdaGradStep(0.5),
                           max_iters=5, seed=1)
        cores, trace = tr_gd(x, cfg, init=truth)
        for a, b in zip(cores, truth):
            np.testing.assert_array_equal(a, b)

    def test_b_and_eps(self):
        acc = np.zeros((1, 1))
        d = np.array([[2.0]])
        steps = adagrad_update(acc, d, eta=1.0, b=1.0, eps=0.5)
        assert steps[0, 0] == pytest.approx(1.0 / (1.0 + 4.0), rel=1e-15)


class TestFullGradient:
    def test_zero_at_exact_fit(self):
        x, truth = synth_tensor(SynthSpec(order=3, dim=4, rank=2, seed=5))
        for mode in range(3):
            g = full_gradient(truth, x, mode)
            assert np.linalg.norm(g) < 1e-10

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        dims, ranks = (3, 4, 5), (2, 2, 2)
        cores = random_cores(rng, dims, ranks)
        x = rng.standard_normal(dims)
        for mode in range(3):
            g = full_gradient(cores, x, mode)
            fd = finite_diff_core_gradient(cores, x, mode)
            err = np.linalg.norm(g - fd) / np.linalg.norm(fd)
            assert err < 1e-6

    def test_scalar_instance(self):
        g1, g2, g3, xval = 1.3, -0.7, 0.4, 2.0
        cores = [np.full((1, 1, 1), v) for v in (g1, g2, g3)]
        x = np.full((1, 1, 1), xval)
        g = full_gradient(cores, x, 0)
        expected = (g1 * g2 * g3 - xval) * (g2 * g3)
        assert g[0, 0] == pytest.approx(expected, rel=1e-14)


class TestStochasticGradient:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.dims, self.ranks = (3, 4, 5), (2, 2, 2)
        self.cores = random_cores(rng, self.dims, self.ranks)
        self.x = rng.standard_normal(self.dims)
        self.rng = rng

    def test_complete_sample_recovers_full_gradient(self):
        for mode in range(3):
            j = self.x.size // self.dims[mode]
            batch = complete_sample_batch(self.cores, self.x, mode)
            unbiased = j * stochastic_gradient(self.cores[mode], batch, j)
            full = full_gradient(self.cores, self.x, mode)
            scale = np.linalg.norm(full)
            np.testing.assert_allclose(unbiased, full, atol=1e-13 * scale)

    def test_degenerate_single_draw(self):
        mode = 0
        j = self.x.size // self.dims[0]
        dists = [None, np.eye(4)[2], np.eye(5)[1]]
        batch = sample_subchain_fibers(self.cores, self.x, mode, 1, dists, self.rng)
        g = stochastic_gradient(self.cores[mode], batch, j)
        row = (self.cores[1][:, 2, :] @ self.cores[2][:, 1, :])
        s = row.T.ravel(order="F")[None, :]  # row of the subchain unfolding
        # direct evaluation of the estimator with one row at probability 1
        sub = subchain_unfolding(batch.subchain)
        np.testing.assert_allclose(sub, s, atol=1e-13)
        g2 = core_unfolding(self.cores[mode])
        xcol = batch.fibers
        expected = (g2 @ (s.T @ s) - xcol @ s) / j
        np.testing.assert_allclose(g, expected, atol=1e-13)

    def test_uniform_simplification(self):
        mode = 1
        j = self.x.size // self.dims[mode]
        dists = [uniform_dist(3), None, uniform_dist(5)]
        batch = sample_subchain_fibers(self.cores, self.x, mode, 6, dists, self.rng)
        g = stochastic_gradient(self.cores[mode], batch, j)
        s = subchain_unfolding(batch.subchain)
        g2 = core_unfolding(self.cores[mode])
        simplified = (g2 @ (s.T @ s) - batch.fibers @ s) / 6
        np.testing.assert_allclose(g, simplified, rtol=1e-12, atol=1e-13)

    def test_unbiased_monte_carlo(self):
        # mean over many batches equals the value on the concatenated batch,
        # so a single large uniform batch checks the expectation cheaply
        mode = 0
        j = self.x.size // self.dims[0]
        dists = [None, uniform_dist(4), uniform_dist(5)]
        batch = sample_subchain_fibers(self.cores, self.x, mode, 200_000, dists,
                                       np.random.default_rng(8))
        unbiased = j * stochastic_gradient(self.cores[mode], batch, j)
        full = full_gradient(self.cores, self.x, mode)
        err = np.linalg.norm(unbiased - full) / np.linalg.norm(full)
        assert err < 0.02

    def test_bad_probs(self):
        batch = complete_sample_batch(self.cores, self.x, 0)
        batch.probs = batch.probs.copy()
        batch.probs[0] = 0.0
        with pytest.raises(ValueError):
            stochastic_gradient(self.cores[0], batch, 20)


class TestStochasticHessian:
    def setup_method(self):
        rng = np.random.default_rng(9)
        self.dims, self.ranks = (3, 4, 2), (2, 2, 2)
        self.cores = random_cores(rng, self.dims, self.ranks)
        self.x = rng.standard_normal(self.dims)

    def test_complete_sample_identity(self):
        for mode in range(3):
            j = self.x.size // self.dims[mode]
            sub = subchain_unfolding(subchain_tensor(self.cores, mode))
            gram = sub.T @ sub
            for eta in (0.0, 0.3):
                batch = complete_sample_batch(self.cores, self.x, mode)
                h = stochastic_hessian(batch, j, eta)
                expected = gram / j + eta * np.eye(gram.shape[0])
                np.testing.assert_allclose(h, expected, atol=1e-12)

    def test_symmetric_psd(self):
        rng = np.random.default_rng(10)
        dists = [None, uniform_dist(4), uniform_dist(2)]
        batch = sample_subchain_fibers(self.cores, self.x, 0, 6, dists, rng,
                                       with_fibers=False)
        h = stochastic_hessian(batch, 8, 0.0)
        assert np.abs(h - h.T).max() < 1e-12
        assert np.linalg.eigvalsh(h).min() > -1e-12

    def test_monte_carlo_mean(self):
        # same concatenation argument as for the gradient: one large batch
        mode = 0
        j = self.x.size // self.dims[mode]
        rng = np.random.default_rng(11)
        dists = [None, uniform_dist(4), uniform_dist(2)]
        batch = sample_subchain_fibers(self.cores, self.x, mode, 200_000, dists, rng,
                                       with_fibers=False)
        h = stochastic_hessian(batch, j, 0.0)
        sub = subchain_unfolding(subchain_tensor(self.cores, mode))
        gram = sub.T @ sub
        err = np.linalg.norm(j * h - gram) / np.linalg.norm(gram)
        assert err < 0.01

    def test_monte_carlo_mean_within_standard_errors(self):
        # per-draw contributions J*h_f = w_f s_f s_f^T; componentwise z-test
        mode = 0
        j = self.x.size // self.dims[mode]
        rng = np.random.default_rng(12)
        dists = [None, uniform_dist(4), uniform_dist(2)]
        n_draws = 200_000
        batch = sample_subchain_fibers(self.cores, self.x, mode, n_draws, dists, rng,
                                       with_fibers=False)
        s = subchain_unfolding(batch.subchain)
        w = 1.0 / batch.probs
        contrib = np.einsum("f,fr,fs->frs", w, s, s)
        sub = subchain_unfolding(subchain_tensor(self.cores, mode))
        gram = sub.T @ sub
        mean = contrib.mean(axis=0)
        se = contrib.std(axis=0, ddof=1) / np.sqrt(n_draws)
        z = np.abs(mean - gram) / np.maximum(se, 1e-30)
        assert np.all(z <= 5.0)

    def test_hessian_small_factor_matches_gradient_jacobian(self):
        # d(grad)/d(core) has block structure gram x identity; finite
        # differences of the gradient recover gram on each diagonal block
        rng = np.random.default_rng(12)
        dims, ranks = (3, 3, 2), (2, 2, 2)
        cores = random_cores(rng, dims, ranks)
        x = rng.standard_normal(dims)
        mode = 0
        sub = subchain_unfolding(subchain_tensor(cores, mode))
        gram = sub.T @ sub
        h = 1e-6
        i_n, rr = dims[mode], ranks[0] * ranks[1]
        jac = np.zeros((i_n * rr, i_n * rr))
        for col in range(i_n * rr):
            i, c = col % i_n, col // i_n  # column-major entry of the unfolded core
            bumped = [np.array(cc, copy=True) for cc in cores]
            g2 = core_unfolding(bumped[mode]).copy()
            g2[i, c] += h
            bumped[mode] = np.transpose(
                g2.reshape(i_n, ranks[0], ranks[1], order="F"), (1, 0, 2))
            gp = full_gradient(bumped, x, mode)
            g2[i, c] -= 2 * h
            bumped[mode] = np.transpose(
                g2.reshape(i_n, ranks[0], ranks[1], order="F"), (1, 0, 2))
            gm = full_gradient(bumped, x, mode)
            jac[:, col] = ((gp - gm) / (2 * h)).ravel(order="F")
        expected = np.kron(gram, np.eye(i_n))
        err = np.linalg.norm(jac - expected) / np.linalg.norm(expected)
        assert err < 1e-5


class TestSearchDirection:
    def test_identity_hessian(self):
        g = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(search_direction(g, np.eye(3)), -g)
        np.testing.assert_array_equal(search_direction(g), -g)

    def test_zero_gradient(self):
        h = np.eye(3) * 2.0
        np.testing.assert_array_equal(search_direction(np.zeros((2, 3)), h), np.zeros((2, 3)))

    def test_solve_residual(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((4, 4))
        h = a @ a.T + 0.5 * np.eye(4)
        g = rng.standard_normal((3, 4))
        d = search_direction(g, h)
        assert np.linalg.norm(d @ h + g) < 1e-10

    def test_singular_without_damping(self):
        g = np.ones((2, 2))
        h = np.zeros((2, 2))
        with pytest.raises(ValueError, match="damping"):
            search_direction(g, h, damping=0.0)


class TestTrAls:
    def test_exact_recovery_small(self):
        x, _ = synth_tensor(SynthSpec(order=3, dim=10, rank=2, seed=1))
        cfg = SolverConfig(ranks=(2, 2, 2), max_iters=50, rse_tol=1e-9, seed=0)
        cores, trace = tr_als(x, cfg)
        assert trace.terminal_reason == "tol"
        assert trace.final()[2] < 1e-8

    def test_fixed_point_at_truth(self):
        x, truth = synth_tensor(SynthSpec(order=3, dim=8, rank=2, seed=2))
        cfg = SolverConfig(ranks=(2, 2, 2), max_iters=3, seed=0)
        cores, trace = tr_als(x, cfg, init=truth)
        assert all(r[2] < 1e-12 for r in trace.records)

    def test_objective_monotone_per_update(self):
        for seed in (0, 1):
            x, _ = synth_tensor(SynthSpec(order=3, dim=6, rank=2, seed=seed))
            objs = []
            cfg = SolverConfig(ranks=(3, 3, 3), max_iters=8, seed=seed)
            tr_als(x, cfg, on_core_update=lambda n, cores: objs.append(objective(cores, x)))
            f0 = objs[0]
            assert all(b <= a + 1e-12 * f0 for a, b in zip(objs, objs[1:]))

    def test_rank_deficient_warns(self, caplog):
        # N=2 with J < R*R forces a rank-deficient least-squares system
        x, _ = synth_tensor(SynthSpec(order=2, dim=2, rank=1, seed=3))
        cfg = SolverConfig(ranks=(2, 2), max_iters=2, seed=0)
        with caplog.at_level(logging.WARNING):
            tr_als(x, cfg)
        assert any("rank deficient" in r.message for r in caplog.records)

    def test_monotone_rse_trace(self):
        x, _ = synth_tensor(SynthSpec(order=3, dim=20, rank=3, seed=1))
        cfg = SolverConfig(ranks=(3, 3, 3), max_iters=20, seed=0)
        _, trace = tr_als(x, cfg)
        rses = [r[2] for r in trace.records]
        assert all(b <= a + 1e-12 for a, b in zip(rses, rses[1:]))


class TestTrGd:
    def test_zero_step_keeps_iterates(self):
        x, _ = synth_tensor(SynthSpec(order=3, dim=5, rank=2, seed=4))
        cfg = SolverConfig(ranks=(2, 2, 2), schedule=ConstantStep(0.0),
                           max_iters=3, seed=5)
        cores, trace = tr_gd(x, cfg)
        assert len({r[2] for r in trace.records}) == 1

    def test_zero_residual_fixed(self):
        rng = np.random.default_rng(1)
        truth = [rng.integers(-2, 3, size=(2, 5, 2)).astype(float) for _ in range(3)]
        x = tr_reconstruct(truth)  # integer entries: residual exactly zero
        cfg = SolverConfig(ranks=(2, 2, 2), schedule=ConstantStep(0.1),
                           max_iters=3, seed=5)
        cores, trace = tr_gd(x, cfg, init=truth)
        for a, b in zip(cores, truth):
            np.testing.assert_array_equal(a, b)

    def test_rse_decreases(self):
        x, _ = synth_tensor(SynthSpec(order=3, dim=8, rank=2, seed=7))
        cfg = SolverConfig(ranks=(2, 2, 2), schedule=ConstantStep(2e-4),
                           max_iters=100, seed=3)
        _, trace = tr_gd(x, cfg)
        assert trace.records[-1][2] < trace.records[0][2]


class TestTrScaledGd:
    def test_orthonormal_subchain_equals_gd(self):
        # both cores have orthonormal unfoldings, so every Gram factor is the
        # identity and the scaled step coincides with the plain step
        rng = np.random.default_rng(15)
        cores = []
        for d in (6, 7):
            q, _ = np.linalg.qr(rng.standard_normal((d, 4)))
            cores.append(np.transpose(q.reshape(d, 2, 2, order="F"), (1, 0, 2)))
        x = tr_reconstruct(cores) + 0.1 * rng.standard_normal((6, 7))
        cfg = SolverConfig(ranks=(2, 2), schedule=ConstantStep(0.2), max_iters=1, seed=8)
        cores_gd, _ = tr_gd(x, cfg, init=cores)
        cores_sgd, _ = tr_scaled_gd(x, cfg, init=cores)
        for a, b in zip(cores_gd, cores_sgd):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_matches_vectorized_block_form(self):
        rng = np.random.default_rng(16)
        dims, ranks = (3, 4, 5), (2, 2, 2)
        cores = random_cores(rng, dims, ranks)
        x = rng.standard_normal(dims)
        alpha = 0.3
        cfg = SolverConfig(ranks=ranks, schedule=ConstantStep(alpha), max_iters=1, seed=9)
        stepped, _ = tr_scaled_gd(x, cfg, init=cores)
        for n in range(3):
            sub = subchain_unfolding(subchain_tensor(cores, n))
            gram = sub.T @ sub
            g = full_gradient(cores, x, n)
            h_block = np.kron(gram, np.eye(dims[n]))
            vec_new = core_unfolding(cores[n]).ravel(order="F") - alpha * np.linalg.solve(
                h_block, g.ravel(order="F"))
            expected = vec_new.reshape(dims[n], ranks[n] * ranks[(n + 1) % 3], order="F")
            np.testing.assert_allclose(core_unfolding(stepped[n]), expected, atol=1e-10)

    def test_singular_gram_zero_damping_raises(self):
        # target ranks above what the data supports at N=2 make the subchain
        # unfolding rank deficient
        x, _ = synth_tensor(SynthSpec(order=2, dim=3, rank=1, seed=10))
        cfg = SolverConfig(ranks=(3, 3), schedule=ConstantStep(0.1), max_iters=1, seed=0)
        with pytest.raises(ValueError, match="damping"):
            tr_scaled_gd(x, cfg)

    def test_faster_than_gd_when_ill_conditioned(self):
        # iterations to reach RSE 1e-3 at each method's best constant step
        x, _ = synth_tensor(SynthSpec(order=3, dim=8, rank=2,
                                      kind="ill_conditioned", kappa=1e4, seed=3))

        def iters_to_tol(solver, alphas, **extra):
            best = None
            for alpha in alphas:
                cfg = SolverConfig(ranks=(2, 2, 2), schedule=ConstantStep(alpha),
                                   max_iters=1500, rse_tol=1e-3, eval_every=10,
                                   seed=1, init_scale=0.3, **extra)
                with np.errstate(over="ignore", invalid="ignore"):
                    _, trace = solver(x, cfg)
                it = trace.final()[0] if trace.terminal_reason == "tol" else 1501
                best = it if best is None else min(best, it)
            return best

        gd_iters = iters_to_tol(tr_gd, (0.1, 0.3, 1.0))
        scaled_iters = iters_to_tol(tr_scaled_gd, (0.1, 0.3, 1.0), damping=1e-10)
        assert scaled_iters < gd_iters


class TestTrBrsgd:
    def test_complete_sample_step_is_scaled_block_step(self):
        rng = np.random.default_rng(17)
        dims, ranks = (3, 4, 2), (2, 2, 2)
        cores = random_cores(rng, dims, ranks)
        x = rng.standard_normal(dims)
        mode, j = 0, 8
        batch = complete_sample_batch(cores, x, mode)
        g = stochastic_gradient(cores[mode], batch, j)
        np.testing.assert_allclose(
            g, full_gradient(cores, x, mode) / j, atol=1e-13)

    def test_fixed_seed_bitwise_reproducible(self):
        x, _ = synth_tensor(SynthSpec(order=3, dim=8, rank=2, seed=11))
        cfg = SolverConfig(ranks=(2, 2, 2), schedule=ConstantStep(0.05),
                           batch_grad=10, max_iters=60, eval_every=10, seed=21,
                           sampling=SamplingSpec("leverage"))
        # a counting clock removes wall-time noise from the elapsed column
        c1, t1 = tr_brsgd(x, cfg, clock=_counting_clock())
        c2, t2 = tr_brsgd(x, cfg, clock=_counting_clock())
        assert t1.records == t2.records
        for a, b in zip(c1, c2):
            np.testing.assert_array_equal(a, b)

    def test_converges_well_conditioned(self):
        x, _ = synth_tensor(SynthSpec(order=3, dim=20, rank=3, seed=1))
        cfg = SolverConfig(ranks=(3, 3, 3), schedule=ConstantStep(0.1),
                           batch_grad=100, max_iters=4000, eval_every=500, seed=3,
                           sampling=SamplingSpec("uniform"))
        _, trace = tr_brsgd(x, cfg)
        assert trace.final()[2] < 1e-2

    def test_adagrad_runs_and_improves(self):
        x, _ = synth_tensor(SynthSpec(order=3, dim=10, rank=2, seed=12))
        cfg = SolverConfig(ranks=(2, 2, 2), schedule=AdaGradStep(0.5),
                           batch_grad=50, max_iters=800, eval_every=100, seed=4,
                           sampling=SamplingSpec("euclidean"))
        _, trace = tr_brsgd(x, cfg)
        assert trace.final()[2] < 0.5 * trace.records[0][2]

    def test_distributions_refreshed_only_for_changed_cores(self, monkeypatch):
        # the first iteration computes both other cores' distributions; after
        # that only the core updated last can be stale
        calls = []
        original = sampling.core_dist_leverage
        monkeypatch.setattr(sampling, "core_dist_leverage",
                            lambda core: calls.append(1) or original(core))
        x, _ = synth_tensor(SynthSpec(order=3, dim=8, rank=2, seed=13))
        iters = 30
        cfg = SolverConfig(ranks=(2, 2, 2), schedule=ConstantStep(0.05),
                           batch_grad=20, max_iters=iters, eval_every=10, seed=5,
                           sampling=SamplingSpec("leverage"))
        _, trace = tr_brsgd(x, cfg)
        assert trace.final()[0] == iters
        assert 2 <= len(calls) <= 2 + iters

    def test_optimal_sampling_runs(self):
        x, _ = synth_tensor(SynthSpec(order=3, dim=6, rank=2, seed=14))
        cfg = SolverConfig(ranks=(2, 2, 2), schedule=ConstantStep(0.05),
                           batch_grad=10, max_iters=10, seed=6,
                           sampling=SamplingSpec("optimal"))
        _, trace = tr_brsgd(x, cfg)
        assert trace.final()[0] == 10

    def test_divergence_flag(self):
        x, _ = synth_tensor(SynthSpec(order=3, dim=8, rank=2, seed=15))
        cfg = SolverConfig(ranks=(2, 2, 2), schedule=ConstantStep(1e6),
                           batch_grad=10, max_iters=30, eval_every=10, seed=7,
                           sampling=SamplingSpec("uniform"))
        with np.errstate(over="ignore", invalid="ignore"):
            _, trace = tr_brsgd(x, cfg)
        assert trace.diverged and trace.terminal_reason == "diverged"


class TestTrScaledBrsgd:
    def test_fixed_seed_bitwise_reproducible(self):
        x, _ = synth_tensor(SynthSpec(order=3, dim=8, rank=2, seed=16))
        cfg = SolverConfig(ranks=(2, 2, 2), schedule=ConstantStep(0.05),
                           batch_grad=10, batch_hess=20, damping=1e-8,
                           max_iters=60, eval_every=10, seed=22,
                           sampling=SamplingSpec("euclidean"))
        c1, t1 = tr_scaled_brsgd(x, cfg, clock=_counting_clock())
        c2, t2 = tr_scaled_brsgd(x, cfg, clock=_counting_clock())
        assert t1.records == t2.records
        for a, b in zip(c1, c2):
            np.testing.assert_array_equal(a, b)

    def test_huge_damping_approaches_plain_direction(self):
        rng = np.random.default_rng(18)
        dims, ranks = (3, 4, 2), (2, 2, 2)
        cores = random_cores(rng, dims, ranks)
        x = rng.standard_normal(dims)
        mode, j = 0, 8
        dists = [None, uniform_dist(4), uniform_dist(2)]
        batch = sample_subchain_fibers(cores, x, mode, 6, dists, rng)
        batch_h = sample_subchain_fibers(cores, x, mode, 6, dists, rng,
                                         with_fibers=False)
        g = stochastic_gradient(cores[mode], batch, j)
        norms = []
        for eta in (1e-2, 1e0, 1e2, 1e4):
            h = stochastic_hessian(batch_h, j, eta)
            d = search_direction(g, h, damping=eta)
            norms.append(np.linalg.norm(d))
        assert all(b < a for a, b in zip(norms, norms[1:]))  # monotone shrink
        h = stochastic_hessian(batch_h, j, 1e8)
        d = search_direction(g, h, damping=1e8)
        cos = np.sum(d * (-g)) / (np.linalg.norm(d) * np.linalg.norm(g))
        assert cos > 1 - 1e-6

    def test_approximately_unbiased_direction(self):
        # instance scaled so the Hessian factor has spectral norm <= 1; the
        # average preconditioned direction should land near the full scaled
        # direction (soft first-order check)
        rng = np.random.default_rng(19)
        dims, ranks = (3, 4, 2), (2, 2, 2)
        cores = random_cores(rng, dims, ranks)
        x = rng.standard_normal(dims)
        mode, j = 0, 8
        sub = subchain_unfolding(subchain_tensor(cores, mode))
        gram = sub.T @ sub
        scale = 1.0 / np.sqrt(np.linalg.norm(gram, 2))
        cores = [scale * c for c in cores]
        x = scale**3 * x
        sub = subchain_unfolding(subchain_tensor(cores, mode))
        gram = sub.T @ sub
        g_full = full_gradient(cores, x, mode)
        target = -np.linalg.solve(gram.T, g_full.T).T
        dists = [None, uniform_dist(4), uniform_dist(2)]
        acc = np.zeros_like(g_full)
        trials = 3000
        mc_rng = np.random.default_rng(20)
        for _ in range(trials):
            b_g = sample_subchain_fibers(cores, x, mode, 16, dists, mc_rng)
            b_h = sample_subchain_fibers(cores, x, mode, 32, dists, mc_rng,
                                         with_fibers=False)
            g = stochastic_gradient(cores[mode], b_g, j)
            h = stochastic_hessian(b_h, j, 1e-4)
            acc += search_direction(g, h, damping=1e-4)
        mean_dir = acc / trials
        err = np.linalg.norm(mean_dir - target) / np.linalg.norm(target)
        assert err < 0.10


class TestStoppingCriteria:
    def test_max_time_zero(self):
        x, _ = synth_tensor(SynthSpec(order=3, dim=5, rank=2, seed=18))
        cfg = SolverConfig(ranks=(2, 2, 2), max_iters=None, max_seconds=0.0, seed=0)
        _, trace = tr_als(x, cfg)
        assert trace.terminal_reason == "max_time"
        assert trace.records == [trace.records[0]]
        assert trace.records[0][0] == 0

    def test_max_iters_exact(self):
        x, _ = synth_tensor(SynthSpec(order=3, dim=5, rank=2, seed=19))
        cfg = SolverConfig(ranks=(2, 2, 2), max_iters=5, eval_every=2, seed=0)
        _, trace = tr_als(x, cfg)
        assert trace.terminal_reason == "max_iters"
        assert trace.final()[0] == 5

    def test_tol_priority_over_iters(self):
        x, truth = synth_tensor(SynthSpec(order=3, dim=5, rank=2, seed=20))
        cfg = SolverConfig(ranks=(2, 2, 2), max_iters=0, rse_tol=1.0, seed=0)
        _, trace = tr_als(x, cfg, init=truth)
        assert trace.terminal_reason == "tol"

    def test_requires_a_criterion(self):
        with pytest.raises(ValueError):
            SolverConfig(ranks=(2, 2, 2), max_iters=None)

    def test_callback_fires(self):
        x, _ = synth_tensor(SynthSpec(order=3, dim=5, rank=2, seed=21))
        seen = []
        cfg = SolverConfig(ranks=(2, 2, 2), max_iters=3, seed=0)
        tr_als(x, cfg, callback=lambda it, el, r: seen.append(it))
        assert seen == [0, 1, 2, 3]

    def test_injected_clock(self):
        x, _ = synth_tensor(SynthSpec(order=3, dim=5, rank=2, seed=22))
        ticks = iter(range(1000))
        cfg = SolverConfig(ranks=(2, 2, 2), max_iters=3, seed=0)
        _, trace = tr_als(x, cfg, clock=lambda: float(next(ticks)))
        # iteration work costs one tick; evaluations are excluded from elapsed
        assert [r[1] for r in trace.records] == [0.0, 1.0, 2.0, 3.0]

    def test_non_finite_rse_stops_as_diverged(self):
        # kappa=1e4 instance at alpha=0.1: GD overflows to NaN by iteration 10
        x, _ = synth_tensor(SynthSpec(order=3, dim=25, rank=3, kind="ill_conditioned",
                                      kappa=1e4, seed=2))
        cfg = SolverConfig(ranks=(3, 3, 3), schedule=ConstantStep(0.1),
                           max_iters=30, eval_every=10, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            cores, trace = tr_gd(x, cfg)
        assert [r[0] for r in trace.records] == [0, 10]
        assert np.isfinite(trace.records[0][2]) and np.isnan(trace.records[1][2])
        assert trace.diverged
        assert trace.terminal_reason == "diverged" and "diverged" in TERMINAL_REASONS
        assert not all(np.isfinite(c).all() for c in cores)

    @pytest.mark.parametrize("solver", [tr_brsgd, tr_scaled_brsgd])
    @pytest.mark.parametrize("kind", ["uniform", "euclidean", "leverage"])
    def test_non_finite_core_between_evaluations_stops_as_diverged(self, solver, kind):
        # the next draw from a non-finite core's distribution would raise, so
        # the run is evaluated and stopped at the iteration that wrote it
        x, _ = synth_tensor(SynthSpec(order=3, dim=8, rank=2, seed=15))
        cfg = SolverConfig(ranks=(2, 2, 2), schedule=ConstantStep(1e6),
                           batch_grad=10, batch_hess=10, damping=1e-8,
                           max_iters=300, eval_every=100, seed=7,
                           sampling=SamplingSpec(kind))
        with np.errstate(over="ignore", invalid="ignore"):
            cores, trace = solver(x, cfg)
        assert trace.terminal_reason == "diverged" and trace.diverged
        it, _, rse_val = trace.final()
        assert 0 < it < 100 and not math.isfinite(rse_val)
        assert not all(np.isfinite(c).all() for c in cores)

    def test_overflowed_preconditioner_stops_as_diverged(self):
        # an overflowed Gram matrix has no Cholesky factor; the step it makes
        # is non-finite and caught at the next evaluation
        x, _ = synth_tensor(SynthSpec(order=3, dim=8, rank=2, seed=15))
        cfg = SolverConfig(ranks=(2, 2, 2), schedule=ConstantStep(1e6),
                           damping=1e-8, max_iters=40, eval_every=20, seed=7)
        with np.errstate(over="ignore", invalid="ignore"):
            _, trace = tr_scaled_gd(x, cfg)
        assert trace.terminal_reason == "diverged" and trace.diverged
        assert trace.final()[0] == 20 and not math.isfinite(trace.final()[2])

    @pytest.mark.parametrize("solver", [tr_als, tr_scaled_brsgd])
    def test_last_trace_rse_matches_trace_oracle(self, solver):
        rng = np.random.default_rng(23)
        dims, ranks = (4, 3, 5, 2), (2, 3, 2, 2)
        x = reconstruct_by_trace(random_cores(rng, dims, ranks))
        x += 0.01 * np.linalg.norm(x) / np.sqrt(x.size) * rng.standard_normal(dims)
        cfg = SolverConfig(ranks=ranks, schedule=ConstantStep(0.1), batch_grad=20,
                           batch_hess=20, damping=1e-6, max_iters=20, eval_every=5,
                           seed=1)
        cores, trace = solver(x, cfg)
        oracle = np.linalg.norm(reconstruct_by_trace(cores) - x) / np.linalg.norm(x)
        assert trace.final()[2] == pytest.approx(oracle, rel=1e-12)
