import dataclasses
import functools
import logging
import math
import re
import tracemalloc
import typing

import numpy as np
import pytest

from trdecomp import core, sampling, solvers
from trdecomp.core import (
    core_unfolding,
    mode_n_unfolding,
    residual_norm,
    subchain_tensor,
    subchain_unfolding,
    tr_reconstruct,
)
from trdecomp.datagen import SynthSpec, synth_tensor
from trdecomp.sampling import SAMPLING_KINDS, SamplingSpec, sample_subchain_fibers
from trdecomp.solvers import (
    ESTIMATE_BOUND,
    ESTIMATE_FLOOR,
    AdaGradStep,
    ConstantStep,
    MAX_EVAL_EVERY,
    RobbinsMonroStep,
    SolverConfig,
    _adagrad_steps,
    _apply_step,
    _estimated_rse,
    _init_cores,
    _min_norm_update,
    field_types,
    search_direction,
    stochastic_gradient,
    stochastic_hessian,
    tr_als,
    tr_brsgd,
    tr_gd,
    tr_scaled_brsgd,
    tr_scaled_gd,
)
from trdecomp.trace import TERMINAL_REASONS, parse_trace_csv, render_trace_csv

from helpers import (
    als_objectives,
    complete_sample_batch,
    counting_clock,
    finite_diff_core_gradient,
    grad_and_gram,
    lstsq_core_update,
    random_cores,
    reconstruct_by_trace,
    samplers,
    uniform_dist,
)


def _step_size(schedule, t):
    """The step _apply_step takes at iteration t: from a zero core along an
    all-ones direction the new core is the step itself."""
    cores = [np.zeros((1, 1, 1)), np.zeros((1, 1, 1))]
    config = SolverConfig(ranks=(1, 1), schedule=schedule)
    _apply_step(cores, 0, np.ones((1, 1)), config, t, {})
    return cores[0][0, 0, 0]


class TestSchedules:
    def test_values(self):
        assert _step_size(ConstantStep(0.3), 17) == 0.3
        rm = RobbinsMonroStep(2.0, 0.75)
        assert _step_size(rm, 0) == 2.0
        assert _step_size(rm, 3) == pytest.approx(2.0 / 4**0.75)

    def test_validation(self):
        with pytest.raises(ValueError):
            ConstantStep(-1.0)
        with pytest.raises(ValueError):
            RobbinsMonroStep(1.0, 0.5)
        with pytest.raises(ValueError):
            RobbinsMonroStep(1.0, 1.5)
        with pytest.raises(ValueError):
            AdaGradStep(0.0)

    # a non-finite step would make the run diverge at its first iteration
    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -1.0])
    def test_constant_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="constant step"):
            ConstantStep(alpha)

    @pytest.mark.parametrize("alpha0", [math.nan, math.inf, 0.0])
    def test_robbins_monro_alpha0_rejected(self, alpha0):
        with pytest.raises(ValueError, match="alpha0"):
            RobbinsMonroStep(alpha0)

    @pytest.mark.parametrize("kwargs", [{"eta": math.nan}, {"eta": math.inf},
                                        {"eta": 1.0, "b": math.nan},
                                        {"eta": 1.0, "eps": math.nan}])
    def test_adagrad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AdaGradStep(**kwargs)

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
        steps = _adagrad_steps(acc, d, AdaGradStep(0.7))
        assert steps[0, 0] == pytest.approx(0.7 / 0.4, rel=1e-15)

    def test_two_step_accumulation(self):
        acc = np.zeros((1, 2))
        d1 = np.array([[0.3, 0.0]])
        d2 = np.array([[-0.2, 0.0]])
        _adagrad_steps(acc, d1, AdaGradStep(0.7))
        steps = _adagrad_steps(acc, d2, AdaGradStep(0.7))
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
        steps = _adagrad_steps(acc, d, AdaGradStep(1.0, b=1.0, eps=0.5))
        assert steps[0, 0] == pytest.approx(1.0 / (1.0 + 4.0), rel=1e-15)


class TestFullGradient:
    def test_zero_at_exact_fit(self):
        x, truth = synth_tensor(SynthSpec(order=3, dim=4, rank=2, seed=5))
        for mode in range(3):
            g = grad_and_gram(truth, x, mode)[0]
            assert np.linalg.norm(g) < 1e-10

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        dims, ranks = (3, 4, 5), (2, 2, 2)
        cores = random_cores(rng, dims, ranks)
        x = rng.standard_normal(dims)
        for mode in range(3):
            g = grad_and_gram(cores, x, mode)[0]
            fd = finite_diff_core_gradient(cores, x, mode)
            err = np.linalg.norm(g - fd) / np.linalg.norm(fd)
            assert err < 1e-6

    def test_scalar_instance(self):
        g1, g2, g3, xval = 1.3, -0.7, 0.4, 2.0
        cores = [np.full((1, 1, 1), v) for v in (g1, g2, g3)]
        x = np.full((1, 1, 1), xval)
        g = grad_and_gram(cores, x, 0)[0]
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
            unbiased = j * stochastic_gradient(self.cores[mode], *batch, j)
            full = grad_and_gram(self.cores, self.x, mode)[0]
            scale = np.linalg.norm(full)
            np.testing.assert_allclose(unbiased, full, atol=1e-13 * scale)

    def test_degenerate_single_draw(self):
        mode = 0
        j = self.x.size // self.dims[0]
        dists = [None, np.eye(4)[2], np.eye(5)[1]]
        batch = sample_subchain_fibers(self.cores, self.x, mode, 1,
                                       samplers(self.cores, dists), self.rng)
        g = stochastic_gradient(self.cores[mode], *batch, j)
        row = (self.cores[1][:, 2, :] @ self.cores[2][:, 1, :])
        s = row.T.ravel(order="F")[None, :]  # row of the subchain unfolding
        # direct evaluation of the estimator with one row at probability 1
        np.testing.assert_allclose(batch[0], s, atol=1e-13)
        g2 = core_unfolding(self.cores[mode])
        xcol = batch[1]
        expected = (g2 @ (s.T @ s) - xcol @ s) / j
        np.testing.assert_allclose(g, expected, atol=1e-13)

    def test_uniform_simplification(self):
        mode = 1
        j = self.x.size // self.dims[mode]
        dists = [uniform_dist(3), None, uniform_dist(5)]
        s, fibers, probs = sample_subchain_fibers(self.cores, self.x, mode, 6,
                                                  samplers(self.cores, dists), self.rng)
        g = stochastic_gradient(self.cores[mode], s, fibers, probs, j)
        g2 = core_unfolding(self.cores[mode])
        simplified = (g2 @ (s.T @ s) - fibers @ s) / 6
        np.testing.assert_allclose(g, simplified, rtol=1e-12, atol=1e-13)

    def test_unbiased_monte_carlo(self):
        # mean over many batches equals the value on the concatenated batch,
        # so a single large uniform batch checks the expectation cheaply
        mode = 0
        j = self.x.size // self.dims[0]
        dists = [None, uniform_dist(4), uniform_dist(5)]
        batch = sample_subchain_fibers(self.cores, self.x, mode, 200_000,
                                       samplers(self.cores, dists),
                                       np.random.default_rng(8))
        unbiased = j * stochastic_gradient(self.cores[mode], *batch, j)
        full = grad_and_gram(self.cores, self.x, mode)[0]
        err = np.linalg.norm(unbiased - full) / np.linalg.norm(full)
        assert err < 0.02

    def test_bad_probs(self):
        s, fibers, probs = complete_sample_batch(self.cores, self.x, 0)
        probs[0] = 0.0
        with pytest.raises(ValueError, match="nonpositive"):
            stochastic_gradient(self.cores[0], s, fibers, probs, 20)
        with pytest.raises(ValueError, match="nonpositive"):
            stochastic_hessian(s, probs, 20)


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
            s, _, probs = complete_sample_batch(self.cores, self.x, mode)
            np.testing.assert_allclose(stochastic_hessian(s, probs, j), gram / j, atol=1e-12)

    def test_symmetric_psd(self):
        rng = np.random.default_rng(10)
        dists = [None, uniform_dist(4), uniform_dist(2)]
        s, _, probs = sample_subchain_fibers(self.cores, self.x, 0, 6,
                                             samplers(self.cores, dists), rng)
        h = stochastic_hessian(s, probs, 8)
        assert np.abs(h - h.T).max() < 1e-12
        assert np.linalg.eigvalsh(h).min() > -1e-12

    def test_monte_carlo_mean(self):
        # same concatenation argument as for the gradient: one large batch
        mode = 0
        j = self.x.size // self.dims[mode]
        rng = np.random.default_rng(11)
        dists = [None, uniform_dist(4), uniform_dist(2)]
        s, _, probs = sample_subchain_fibers(self.cores, self.x, mode, 200_000,
                                             samplers(self.cores, dists), rng)
        h = stochastic_hessian(s, probs, j)
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
        s, _, probs = sample_subchain_fibers(self.cores, self.x, mode, n_draws,
                                             samplers(self.cores, dists), rng)
        w = 1.0 / probs
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
            gp = grad_and_gram(bumped, x, mode)[0]
            g2[i, c] -= 2 * h
            bumped[mode] = np.transpose(
                g2.reshape(i_n, ranks[0], ranks[1], order="F"), (1, 0, 2))
            gm = grad_and_gram(bumped, x, mode)[0]
            jac[:, col] = ((gp - gm) / (2 * h)).ravel(order="F")
        expected = np.kron(gram, np.eye(i_n))
        err = np.linalg.norm(jac - expected) / np.linalg.norm(expected)
        assert err < 1e-5


class TestSearchDirection:
    def test_identity_hessian(self):
        g = np.arange(6.0).reshape(2, 3)
        d, jittered = search_direction(g, np.eye(3), 0.0)
        np.testing.assert_array_equal(d, -g)
        assert jittered is False

    def test_zero_gradient(self):
        h = np.eye(3) * 2.0
        d, _ = search_direction(np.zeros((2, 3)), h, 0.0)
        np.testing.assert_array_equal(d, np.zeros((2, 3)))

    def test_solve_residual(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((4, 4))
        h = a @ a.T + 0.5 * np.eye(4)
        g = rng.standard_normal((3, 4))
        d, _ = search_direction(g, h, 0.0)
        assert np.linalg.norm(d @ h + g) < 1e-10

    def test_damping_is_added_once(self):
        # the ridge is added here, to the undamped factor the estimates return
        rng = np.random.default_rng(14)
        a = rng.standard_normal((4, 4))
        h = a @ a.T
        g = rng.standard_normal((3, 4))
        for eta in (0.3, 2.0):
            d, _ = search_direction(g, h, eta)
            assert np.linalg.norm(d @ (h + eta * np.eye(4)) + g) < 1e-10

    def test_singular_without_damping(self):
        # no Cholesky factor and no retry at zero damping: the direction is
        # all NaN, so the step it makes stops the run as diverged
        g = np.ones((2, 2))
        h = np.zeros((2, 2))
        d, jittered = search_direction(g, h, damping=0.0)
        assert d.shape == g.shape and np.isnan(d).all() and jittered is False

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input(self, bad):
        g, h = np.ones((2, 2)), np.eye(2)
        for args in ((np.where(g, bad, 0.0), h), (g, np.where(h, bad, 0.0))):
            d, jittered = search_direction(*args, damping=1e-8)
            assert np.isnan(d).all() and jittered is False

    @staticmethod
    def _assert_backward_stable(d, g, a):
        # d a = -g up to a backward error of a small multiple of n eps |a| |d|
        n = a.shape[0]
        bound = 4 * n * np.finfo(np.float64).eps * np.linalg.norm(a) * np.linalg.norm(d)
        assert np.linalg.norm(d @ a + g) <= bound

    @pytest.mark.parametrize("r", [2, 3, 4])
    @pytest.mark.parametrize("damping", [0.0, 1e-8, 0.5])
    def test_bitwise_equal_to_scipy_cholesky(self, r, damping):
        # the factor is LAPACK dpotrf's upper factor, the one
        # scipy.linalg.cho_factor computes, taken by numpy's
        # cholesky(upper=True); the solve goes through its inverse, so the
        # direction is checked by its backward error, and its bits against
        # the same arithmetic written out here
        rng = np.random.default_rng(r)
        a = rng.standard_normal((r * r, 2 * r * r))
        h = a @ a.T
        g = rng.standard_normal((7, r * r))
        damped = h + damping * np.eye(r * r)
        d, _ = search_direction(g, h, damping)
        self._assert_backward_stable(d, g, damped)
        w = np.linalg.inv(np.linalg.cholesky(damped, upper=True))
        np.testing.assert_array_equal(d, -(g @ w) @ w.T)

    def test_jitter_fallback_on_a_numerically_singular_factor(self):
        # h + 1e-8 I rounds to the rank-one h, whose Cholesky factorization
        # fails; the counted retry raises the ridge by 1e-12 * trace / R^2 =
        # 1e8, and a ridge off by more than about 2% misses the bound
        h = 1e20 * np.ones((4, 4))
        g = np.random.default_rng(15).standard_normal((3, 4))
        damping = 1e-8
        jitter = max(damping, 1e-12 * np.trace(h) / 4)
        d, jittered = search_direction(g, h, damping)
        assert np.isfinite(d).all() and jittered is True
        self._assert_backward_stable(d, g, h + jitter * np.eye(4))

    def test_failed_jitter_retry_gives_nan(self):
        # an indefinite factor stays indefinite after the jitter: the retry
        # is flagged, and the direction is all NaN
        h = np.diag([1.0, -1.0])
        d, jittered = search_direction(np.ones((2, 2)), h, damping=1e-8)
        assert np.isnan(d).all() and jittered is True


def _spec_problems(spec, ranks):
    """(S, x, n) for every mode of a synthetic tensor, at a random start and,
    where the ranks fit, at the truth."""
    x, truth = synth_tensor(spec)
    starts = [_init_cores(x, SolverConfig(ranks=ranks, seed=0), None)]
    if truth[0].shape[0] == ranks[0]:
        starts.append(truth)
    return [(subchain_unfolding(subchain_tensor(cores, n)), x, n)
            for cores in starts for n in range(x.ndim)]


def _conditioned_problem(kappa, mode=1, shape=(6, 40, 25), k=9, seed=0, duplicate=False):
    """[(S, x, mode)]: a column-major x and a C-ordered J x k S with singular
    values logspaced from 1 to 1/kappa, J the mode's unfolding width; with
    `duplicate`, S's last column repeats its first."""
    rng = np.random.default_rng(seed)
    x = np.asfortranarray(rng.standard_normal(shape))
    j = x.size // shape[mode]
    u, _ = np.linalg.qr(rng.standard_normal((j, k)))
    v, _ = np.linalg.qr(rng.standard_normal((k, k)))
    sub = (u * np.logspace(0, -np.log10(kappa), k)) @ v.T
    if duplicate:
        sub = np.hstack([sub[:, :k - 1], sub[:, :1]])
    return [(np.ascontiguousarray(sub), x, mode)]


# (builder of (S, x, n) problems, whether their S are rank deficient)
UPDATE_PROBLEMS = [
    pytest.param(functools.partial(_spec_problems, SynthSpec(order=3, dim=10, rank=2, seed=1),
                                   (2, 2, 2)), False, id="full-rank"),
    pytest.param(functools.partial(_spec_problems,
                                   SynthSpec(order=3, dim=25, rank=3, kind="ill_conditioned",
                                             kappa=1e4, seed=2), (3, 3, 3)),
                 False, id="paper-k1e4"),
    # N=2 with J < R*R: the minimum-norm solution is the only one pinned
    pytest.param(functools.partial(_spec_problems, SynthSpec(order=2, dim=2, rank=1, seed=3),
                                   (2, 2)), True, id="n2-j-below-r2"),
    *[pytest.param(functools.partial(_conditioned_problem, kappa, mode), False,
                   id=f"kappa{kappa:.0e}-mode{mode}")
      for kappa in (1e2, 1e4, 1e6, 1e9) for mode in ((0, 1, 2) if kappa < 1e9 else (1,))],
    pytest.param(functools.partial(_conditioned_problem, 1e2, duplicate=True), True,
                 id="two-equal-columns"),
]


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

    def test_objective_monotone_per_update(self, monkeypatch):
        for seed in (0, 1):
            x, _ = synth_tensor(SynthSpec(order=3, dim=6, rank=2, seed=seed))
            cfg = SolverConfig(ranks=(3, 3, 3), max_iters=8, seed=seed)
            objs = als_objectives(x, cfg, monkeypatch)
            assert len(objs) == 8 * 3
            f0 = objs[0]
            assert all(b <= a + 1e-12 * f0 for a, b in zip(objs, objs[1:]))

    def test_rank_deficient_warns(self, caplog):
        # N=2 with J < R*R forces a rank-deficient least-squares system
        x, _ = synth_tensor(SynthSpec(order=2, dim=2, rank=1, seed=3))
        cfg = SolverConfig(ranks=(2, 2), max_iters=2, seed=0)
        with caplog.at_level(logging.WARNING):
            tr_als(x, cfg)
        records = [r for r in caplog.records if "rank deficient" in r.message]
        assert len(records) == 1
        assert "4 of 4 core updates" in records[0].message

    def test_rank_deficient_updates_are_counted_in_the_trace(self):
        # ranks the data cannot support: every update of both sweeps
        x, _ = synth_tensor(SynthSpec(order=2, dim=2, rank=1, seed=3))
        _, trace = tr_als(x, SolverConfig(ranks=(2, 2), max_iters=2, seed=0))
        assert trace.rank_deficient == 4
        assert parse_trace_csv(render_trace_csv(trace)).rank_deficient == 4
        # a well-posed run counts none; the other solvers do not count
        x, _ = synth_tensor(SynthSpec(order=3, dim=6, rank=2, seed=1))
        cfg = SolverConfig(ranks=(2, 2, 2), schedule=ConstantStep(1e-3), max_iters=2, seed=0)
        assert tr_als(x, cfg)[1].rank_deficient == 0
        for solver in (tr_gd, tr_scaled_gd, tr_brsgd, tr_scaled_brsgd):
            assert solver(x, dataclasses.replace(cfg, damping=1e-8))[1].rank_deficient is None

    @pytest.mark.parametrize("problems, deficient", UPDATE_PROBLEMS)
    def test_update_matches_lstsq(self, problems, deficient):
        for sub, x, n in problems():
            sol, rank, _ = _min_norm_update(sub, x, n, sub.shape)
            expected, expected_rank = lstsq_core_update(sub, mode_n_unfolding(x, n))
            assert rank == expected_rank
            assert (rank < sub.shape[1]) == deficient
            err = np.linalg.norm(sol - expected) / np.linalg.norm(expected)
            assert err < 1e-10

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
                           max_iters=3, eval_every=1, seed=5)
        cores, trace = tr_gd(x, cfg)
        # records 1 and 2 are the iteration's own estimates of the same
        # iterate; the terminal record is residual_norm's, as the first is
        assert trace.estimated == 2
        first, *estimated, last = [r[2] for r in trace.records]
        assert last == first
        assert all(abs(e - first) <= ESTIMATE_BOUND * first for e in estimated)

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
            g = grad_and_gram(cores, x, n)[0]
            h_block = np.kron(gram, np.eye(dims[n]))
            vec_new = core_unfolding(cores[n]).ravel(order="F") - alpha * np.linalg.solve(
                h_block, g.ravel(order="F"))
            expected = vec_new.reshape(dims[n], ranks[n] * ranks[(n + 1) % 3], order="F")
            np.testing.assert_allclose(core_unfolding(stepped[n]), expected, atol=1e-10)

    def test_singular_gram_zero_damping_diverges(self):
        # target ranks above what the data supports at N=2 make the subchain
        # unfolding rank deficient: the first step has no Cholesky factor
        x, _ = synth_tensor(SynthSpec(order=2, dim=3, rank=1, seed=10))
        cfg = SolverConfig(ranks=(3, 3), schedule=ConstantStep(0.1), max_iters=5,
                           eval_every=5, seed=0)
        cores, trace = tr_scaled_gd(x, cfg)
        assert trace.terminal_reason == "diverged"
        assert [r[0] for r in trace.records] == [0, 1]
        assert trace.chol_jitter == 0
        assert all(np.isnan(c).all() for c in cores)

    def test_jitter_fallbacks_are_counted_in_the_trace(self):
        # the same singular Gram matrices with a ridge too small to change
        # them: every core update of every iteration takes the fallback
        x, _ = synth_tensor(SynthSpec(order=2, dim=3, rank=1, seed=10))
        cfg = SolverConfig(ranks=(3, 3), schedule=ConstantStep(0.1), max_iters=5,
                           damping=1e-30, seed=0)
        _cores, trace = tr_scaled_gd(x, cfg)
        assert trace.chol_jitter == 2 * 5
        assert parse_trace_csv(render_trace_csv(trace)).chol_jitter == 2 * 5
        # a well-posed run takes none, and one run's count does not leak into
        # the next
        _cores, trace = tr_scaled_gd(x, dataclasses.replace(cfg, ranks=(1, 1)))
        assert trace.chol_jitter == 0

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


DENSE_SOLVERS = [tr_als, tr_gd, tr_scaled_gd]

# unequal dims and a rank chain (2, 3, 4, 2, 3) cut to orders 2 to 5
TREE_CASES = [((5, 4), (2, 3)), ((4, 6, 3), (2, 3, 4)), ((3, 5, 2, 4), (2, 3, 4, 2)),
              ((3, 2, 4, 3, 2), (2, 3, 4, 2, 3))]


def _is_unit_core(c):
    """Whether core c, (p, p*q, q), has the slices e_i e_j^T at k = i*q + j."""
    p, pq, q = c.shape
    return pq == p * q and all(
        (c[:, k, :] == np.eye(p)[:, [k // q]] @ np.eye(q)[[k % q]]).all() for k in range(pq))


def _spy_rings(monkeypatch):
    """Record the ring of every `subchain_tensor` call made through `solvers`."""
    rings = []
    original = solvers.subchain_tensor

    def spy(ring, mode):
        rings.append(list(ring))
        return original(ring, mode)

    monkeypatch.setattr(solvers, "subchain_tensor", spy)
    return rings


class TestTreeGradients:
    """TR-GD and TR-ScaledGD take every block gradient of an iteration from
    two contractions of x (`_tree_products`) and every Gram from the cores'
    transfer matrices (`_transfer_grams`); both agree with the per-mode
    formula of `helpers.grad_and_gram` up to roundoff."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("dims, ranks", TREE_CASES, ids=lambda v: "x".join(map(str, v)))
    def test_an_iteration_steps_along_the_reference_blocks(self, dims, ranks, order,
                                                           monkeypatch):
        rng = np.random.default_rng(len(dims))
        cores = random_cores(rng, dims, ranks)
        x = np.asarray(rng.standard_normal(dims), order=order)
        directions = {}

        def spy(cores, mode, direction, *args):
            directions[mode] = direction.copy()
            return original(cores, mode, direction, *args)

        original = solvers._apply_step
        monkeypatch.setattr(solvers, "_apply_step", spy)
        tr_gd(x, SolverConfig(ranks=ranks, schedule=ConstantStep(1e-3), max_iters=1, seed=0),
              init=cores)
        assert sorted(directions) == list(range(len(dims)))
        for n, direction in directions.items():
            ref = grad_and_gram(cores, x, n)[0]
            assert np.abs(-direction - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("dims, ranks", TREE_CASES, ids=lambda v: "x".join(map(str, v)))
    def test_transfer_grams_are_the_subchain_grams(self, dims, ranks):
        cores = random_cores(np.random.default_rng(7), dims, ranks)
        grams = solvers._transfer_grams(cores)
        for n, gram in enumerate(grams):
            sub = subchain_unfolding(subchain_tensor(cores, n))
            ref = sub.T @ sub
            assert gram.shape == ref.shape
            assert np.abs(gram - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("dims, ranks", [
        ((4, 6, 3), (2, 3, 4)), ((3, 5, 2, 4), (2, 3, 4, 2)),
        # (J_L, J_R) views of two column slabs or more
        ((40, 40, 40), (3, 2, 3)), ((12, 10, 15, 20), (2, 3, 2, 3))],
        ids=lambda v: "x".join(map(str, v)))
    def test_the_products_are_the_reference_blocks(self, dims, ranks):
        rng = np.random.default_rng(11)
        cores = random_cores(rng, dims, ranks)
        x = np.asfortranarray(rng.standard_normal(dims))
        h = len(dims) // 2
        j_left = math.prod(dims[:h])
        slabs = -(-(x.size // j_left) // core._slab_columns(j_left, x.size // j_left))
        assert (slabs > 1) == (dims[0] > 6)
        r0, rh = ranks[0], ranks[h]
        units = [solvers._closing_core(np.eye(p * q), p, q) for p, q in ((rh, r0), (r0, rh))]
        for n, xs in enumerate(solvers._tree_products(cores, x, units)):
            g, gram = grad_and_gram(cores, x, n)
            ref = core_unfolding(cores[n]) @ gram - g
            assert np.abs(xs - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("solver", [tr_gd, tr_scaled_gd], ids=lambda f: f.__name__)
    def test_one_slab_pass_per_iteration(self, solver, monkeypatch):
        x, _ = synth_tensor(SynthSpec(order=3, dim=50, rank=2, seed=1))
        passes = []

        def spy(xmat, *args, _original=solvers.slab_products, **kwargs):
            passes.append(np.may_share_memory(xmat, x))
            return _original(xmat, *args, **kwargs)

        monkeypatch.setattr(solvers, "slab_products", spy)
        cfg = SolverConfig(ranks=(2, 2, 2), schedule=ConstantStep(1e-5), max_iters=4,
                           eval_every=1, seed=0)
        _, trace = solver(x, cfg)
        assert trace.terminal_reason == "max_iters"
        # iterations 0-2 take the products of the iterate they leave for the
        # next one, and the records at 1-3 estimate from them; the last
        # iteration takes none, as no iteration follows it
        assert passes == [True] * 4
        assert trace.estimated == 3

    def test_the_unit_cores_have_the_documented_slices(self, monkeypatch):
        rings = _spy_rings(monkeypatch)
        cores = random_cores(np.random.default_rng(3), (3, 5, 2, 4), (2, 3, 4, 2))
        tr_gd(np.ones((3, 5, 2, 4)), SolverConfig(ranks=(2, 3, 4, 2), max_iters=1), init=cores)
        assert len(rings) == 4
        assert [ring[0].shape for ring in rings] == [(4, 8, 2)] * 2 + [(2, 8, 4)] * 2
        assert all(_is_unit_core(ring[0]) for ring in rings)

    @pytest.mark.parametrize("solver", [tr_gd, tr_scaled_gd], ids=lambda f: f.__name__)
    def test_an_iteration_builds_no_subchain_of_the_model(self, solver, monkeypatch):
        x, _ = synth_tensor(SynthSpec(order=3, dim=6, rank=2, seed=1))
        cfg = SolverConfig(ranks=(2, 2, 2), schedule=ConstantStep(1e-3), max_iters=2,
                           eval_every=1, seed=0)
        rings = _spy_rings(monkeypatch)
        # positive control: the `optimal` sampler builds its subchains from
        # the model's cores
        tr_brsgd(x, dataclasses.replace(cfg, sampling=SamplingSpec("optimal")))
        assert rings and not any(_is_unit_core(ring[0]) for ring in rings)
        rings.clear()
        solver(x, cfg)
        # two iterations, each with one ring of 2 cores and one of 3
        assert sorted(len(ring) for ring in rings) == [2, 2, 3, 3, 3, 3]
        assert all(_is_unit_core(ring[0]) for ring in rings)


def _is_closing_core(c):
    """Whether core c, (p, K, q), has as slices the rows of an upper-triangular
    (K, p*q) matrix, as the closing core of a thin QR's triangular factor does."""
    p, k, q = c.shape
    t = c.transpose(1, 0, 2).reshape(k, p * q)
    return k <= p * q and (np.triu(t) == t).all()


class TestAlsHalfChainSweep:
    """A TR-ALS sweep updates modes 0..h-1 against the right half-chain and
    then modes h..N-1 against the left one, each phase on a reduced ring
    closed by the triangular factor of the fixed half's QR; every update is
    still the minimum-norm least-squares update on the full subchain."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("dims, ranks", [
        *TREE_CASES,
        # mode 2's subchain unfolding is 8 x 9: its updates are rank deficient
        ((2, 4, 5), (3, 3, 3)),
    ], ids=lambda v: "x".join(map(str, v)))
    def test_every_update_is_the_full_subchain_lstsq(self, dims, ranks, order, monkeypatch):
        rng = np.random.default_rng(len(dims))
        cores = random_cores(rng, dims, ranks)
        x = np.asarray(rng.standard_normal(dims), order=order)
        updates = []

        def spy(mat, left_rank, right_rank):
            updates.append(mat.copy())
            return original(mat, left_rank, right_rank)

        original = solvers.fold_core
        monkeypatch.setattr(solvers, "fold_core", spy)
        _, trace = tr_als(x, SolverConfig(ranks=ranks, max_iters=2, seed=0), init=cores)
        assert len(updates) == 2 * len(dims)
        deficient = 0
        for k, sol in enumerate(updates):
            n = k % len(dims)
            sub = subchain_unfolding(subchain_tensor(cores, n))
            expected, rank = lstsq_core_update(sub, mode_n_unfolding(x, n))
            deficient += rank < sub.shape[1]
            assert np.linalg.norm(sol - expected) <= 1e-10 * np.linalg.norm(expected)
            cores[n] = original(sol, ranks[n], ranks[(n + 1) % len(dims)])
        assert trace.rank_deficient == deficient
        # the order-2 case (J < R^2 for both modes) and the last case are deficient
        assert (deficient > 0) == (len(dims) == 2 or dims == (2, 4, 5))

    @pytest.mark.parametrize("dims, ranks", TREE_CASES, ids=lambda v: "x".join(map(str, v)))
    def test_a_sweep_reads_x_twice_and_builds_no_subchain_of_the_model(self, dims, ranks,
                                                                       monkeypatch):
        x = np.asfortranarray(np.random.default_rng(5).standard_normal(dims))
        reads = []

        def matmul(*args, _original=np.matmul, **kwargs):
            reads.append(any(np.may_share_memory(a, x) for a in args))
            return _original(*args, **kwargs)

        def unfolding_matmul(t, mode, m, _original=solvers.unfolding_matmul):
            reads.append(np.may_share_memory(t, x))
            return _original(t, mode, m)

        def slab_products(xmat, *args, _original=solvers.slab_products, **kwargs):
            passes.append(np.may_share_memory(xmat, x))
            return _original(xmat, *args, **kwargs)

        passes = []
        monkeypatch.setattr(np, "matmul", matmul)
        monkeypatch.setattr(solvers, "unfolding_matmul", unfolding_matmul)
        monkeypatch.setattr(solvers, "slab_products", slab_products)
        rings = _spy_rings(monkeypatch)
        sweeps, n, h = 2, len(dims), len(dims) // 2
        cfg = SolverConfig(ranks=ranks, max_iters=sweeps, eval_every=1, seed=0)
        tr_als(x, cfg)
        # positive control: the spy sees a product read from x
        np.matmul(x.reshape(dims[0], -1, order="F"), np.ones((x.size // dims[0], 1)))
        assert reads.count(True) == 2 * sweeps + 1
        assert passes == [True] * 2 * sweeps
        assert [len(ring) for ring in rings] == sweeps * ([h + 1] * h + [n - h + 1] * (n - h))
        assert all(_is_closing_core(ring[0]) for ring in rings)
        assert not any(_is_closing_core(c) for c in solvers._init_cores(x, cfg, None))



def _half(rng, dims, ranks, rank_one=()):
    """Standard normal cores of a half-chain with extents `dims` and ranks
    `ranks` (R_a, ..., R_c); the cores at `rank_one` have rank-1 unfoldings."""
    half = [rng.standard_normal((ranks[k], dims[k], ranks[k + 1])) for k in range(len(dims))]
    for k in rank_one:
        half[k] = np.einsum("a,i,b->aib", *(rng.standard_normal(n) for n in half[k].shape))
    return half


def _check_thin_qr(q, t, s):
    assert q.flags.c_contiguous and q.shape == (s.shape[0], t.shape[0])
    assert (np.triu(t) == t).all()
    assert np.abs(q.T @ q - np.eye(q.shape[1])).max() <= 1e-14
    assert np.abs(q @ t - s).max() <= 1e-14 * np.abs(s).max()


class TestHalfQr:
    """TR-ALS takes the thin QR of its fixed half-chain's unfolding core by
    core (`solvers._half_qr`), never from the assembled J x R^2 unfolding."""

    @pytest.mark.parametrize("dims, ranks", [
        ((100,), (3, 3)),  # one core: an order-2 ring, and phase B at order 3
        ((100, 100), (3, 3, 3)),  # phase A's half of a rank-3 100^3 ring
        ((6, 6), (3, 3, 3)),  # I < R^2: 6^3 at rank 3
        ((4, 6), (2, 3, 4)),
        ((3, 5, 2), (2, 3, 4, 2)),  # three cores: phase A at order 5
        ((12, 12, 12), (3, 3, 3, 3)),
    ], ids=lambda v: "x".join(map(str, v)))
    def test_it_is_the_qr_of_the_unfolding_up_to_column_signs(self, dims, ranks):
        half = _half(np.random.default_rng(len(dims)), dims, ranks)
        s = subchain_unfolding(core._chain(half))
        q, t = solvers._half_qr(half)
        _check_thin_qr(q, t, s)
        ref_q, ref_t = np.linalg.qr(s)
        assert q.shape == ref_q.shape
        signs = np.sign(np.diag(t)) * np.sign(np.diag(ref_t))
        assert np.abs(q * signs - ref_q).max() <= 1e-13 * np.abs(ref_q).max()
        assert np.abs(signs[:, None] * t - ref_t).max() <= 1e-13 * np.abs(ref_t).max()

    @pytest.mark.parametrize("dims, ranks, rank_one, columns", [
        # an inner rank of 1: the last block has 3 * 2 rows, below min(J, K) = 9
        ((5, 2), (3, 1, 3), (), 6),
        ((6, 6), (3, 3, 3), (0,), 9),
        ((4, 3, 5), (2, 3, 2, 3), (1,), 6),
    ], ids=["inner-rank-1", "rank-1-first-core", "rank-1-middle-core"])
    def test_uneven_ranks_and_rank_deficient_halves(self, dims, ranks, rank_one, columns):
        half = _half(np.random.default_rng(3), dims, ranks, rank_one)
        s = subchain_unfolding(core._chain(half))
        q, t = solvers._half_qr(half)
        _check_thin_qr(q, t, s)
        assert q.shape[1] == columns
        assert np.abs(t.T @ t - s.T @ s).max() <= 1e-13 * np.abs(s.T @ s).max()

    def test_no_qr_reads_a_fixed_half_of_j_rows(self, monkeypatch):
        shapes = []

        def qr(a, *args, _original=np.linalg.qr, **kwargs):
            shapes.append(a.shape)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", qr)
        x = np.asfortranarray(np.random.default_rng(1).standard_normal((20, 20, 20)))
        tr_als(x, SolverConfig(ranks=(3, 3, 3), max_iters=2, seed=0))
        # per sweep: phase A's two blocks, (20, 9) and (180, 9), and phase
        # B's one (20, 9); the core updates take no QR
        assert sorted(shapes) == sorted(2 * [(20, 9), (180, 9), (20, 9)])

    def test_each_update_takes_one_svd_of_its_reduced_subchain(self, monkeypatch):
        shapes = []

        def svd(a, *args, _original=np.linalg.svd, **kwargs):
            shapes.append(a.shape)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd)
        x = np.asfortranarray(np.random.default_rng(1).standard_normal((20, 20, 20)))
        tr_als(x, SolverConfig(ranks=(3, 3, 3), max_iters=2, seed=0))
        # per sweep: phase A's one update of a (9, 20, 20) ring's (9, 9)
        # subchain, phase B's two of a (9, 20) ring's (180, 9) subchains;
        # none reads J = 400 rows
        assert shapes == 2 * [(9, 9), (180, 9), (180, 9)]

    def test_a_run_with_rank_deficient_halves_is_monotone(self, monkeypatch):
        # on rank-1 data every update has a rank-1 unfolding, so each phase B
        # fixes a half of rank-1 cores, whose T is numerically singular
        rng = np.random.default_rng(9)
        x = np.einsum("i,j,k,l->ijkl", *(rng.standard_normal(n) for n in (4, 5, 3, 4)))
        deficient = []

        def half_qr(half, _original=solvers._half_qr):
            q, t = _original(half)
            s = np.linalg.svd(t, compute_uv=False)
            deficient.append(core.numerical_rank(s, (q.shape[0], t.shape[1])) < len(s))
            return q, t

        monkeypatch.setattr(solvers, "_half_qr", half_qr)
        cfg = SolverConfig(ranks=(2, 2, 2, 2), max_iters=8, seed=1)
        objs = als_objectives(x, cfg, monkeypatch)
        assert len(objs) == 8 * 4 and deficient.count(True) >= 8
        assert all(b <= a + 1e-12 * objs[0] for a, b in zip(objs, objs[1:]))

    def test_a_run_allocates_under_two_fixed_halves(self):
        # a whole rank-3 run on 100^3, evaluation included; phase A's Q and
        # the RSE evaluation's right half-chain are its largest blocks, each
        # one (J_R, R^2) half (measured 1.6 halves in all); a Householder QR
        # of the assembled unfolding adds the unfolding and LAPACK's
        # Fortran-ordered copies of it (3.0 halves)
        x = np.asfortranarray(np.random.default_rng(2).standard_normal((100, 100, 100)))
        half = 100 * 100 * 9 * 8
        tracemalloc.start()
        try:
            tr_als(x, SolverConfig(ranks=(3, 3, 3), max_iters=3, seed=0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * half


class TestDenseSolversReadXInPlace:
    @pytest.mark.parametrize("solver", DENSE_SOLVERS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_x_is_never_unfolded(self, solver, order, monkeypatch):
        x, _ = synth_tensor(SynthSpec(order=3, dim=6, rank=2, seed=1))
        x = np.asarray(x, order=order)
        unfolded = []
        for module in (core, solvers):
            def spy(t, mode, _original=module.mode_n_unfolding):
                unfolded.append(t.shape == x.shape)
                return _original(t, mode)
            monkeypatch.setattr(module, "mode_n_unfolding", spy)
        # positive control: the spy sees an unfolding of x made through solvers
        solvers.mode_n_unfolding(x, 0)
        assert unfolded == [True]
        unfolded.clear()
        cfg = SolverConfig(ranks=(2, 2, 2), schedule=ConstantStep(1e-3), max_iters=2,
                           eval_every=1, seed=0)
        solver(x, cfg)
        assert not any(unfolded)

    @pytest.mark.parametrize("solver", [tr_als, tr_scaled_gd], ids=lambda f: f.__name__)
    def test_an_iteration_allocates_no_copy_of_x(self, solver):
        # the largest blocks an iteration allocates are the Q of a TR-ALS
        # phase's fixed half, or TR-ScaledGD's right half-chain, whose stack
        # then takes Y: each J_R x R^2, a thirtieth of x here,
        # beside slab buffers of at most core.SLAB_BYTES (a seventh)
        x, _ = synth_tensor(SynthSpec(order=3, dim=60, rank=2, seed=1))
        cfg = SolverConfig(ranks=(2, 2, 2), schedule=ConstantStep(0.5), max_iters=1,
                           eval_every=1, seed=0)
        tracemalloc.start()
        try:
            solver(x, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * x.nbytes


    def test_a_multi_slab_iteration_writes_y_into_the_right_half_chain(self, monkeypatch):
        # (J_L, J_R) = (8, 19600) spans five column slabs, and the right
        # half-chain's (J_R, R^2) stack is 1.4 MB: an iteration holds it and
        # buffers of at most core.SLAB_BYTES (measured 1.31 stacks in all),
        # where a fresh (J_R, R^2) Y would add another stack (2.31 measured);
        # RSE evaluation is stubbed out
        monkeypatch.setattr(solvers, "residual_norm", lambda cores, x: 1.0)
        x = np.asfortranarray(np.random.default_rng(4).standard_normal((8, 140, 140)))
        stack = 140 * 140 * 9 * 8
        assert core._slab_columns(8, 140 * 140) * 4 < 140 * 140
        cfg = SolverConfig(ranks=(3, 3, 3), schedule=ConstantStep(1e-3), max_iters=2,
                           eval_every=1, seed=0)
        tracemalloc.start()
        try:
            tr_scaled_gd(x, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * stack


@pytest.mark.parametrize("solver", [tr_brsgd, tr_scaled_brsgd], ids=["brsgd", "scaled"])
@pytest.mark.parametrize("kind", ["uniform", "leverage"])
def test_a_stochastic_iteration_allocates_a_sliver_of_x(solver, kind, monkeypatch):
    # a stochastic iteration reads a batch of fibers, so what it allocates
    # does not grow with x: under 10% of it at 80^3 (about 6% measured),
    # and a smaller share on larger tensors; RSE evaluation is stubbed out
    monkeypatch.setattr(solvers, "residual_norm", lambda cores, x: 1.0)
    x = np.asfortranarray(np.random.default_rng(3).standard_normal((80, 80, 80)))
    cfg = SolverConfig(ranks=(3, 3, 3), schedule=ConstantStep(1e-3), batch_grad=100,
                       batch_hess=300, sampling=SamplingSpec(kind), max_iters=20,
                       eval_every=20, seed=0)
    tracemalloc.start()
    try:
        solver(x, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * x.nbytes


class TestTrBrsgd:
    def test_complete_sample_step_is_scaled_block_step(self):
        rng = np.random.default_rng(17)
        dims, ranks = (3, 4, 2), (2, 2, 2)
        cores = random_cores(rng, dims, ranks)
        x = rng.standard_normal(dims)
        mode, j = 0, 8
        batch = complete_sample_batch(cores, x, mode)
        g = stochastic_gradient(cores[mode], *batch, j)
        np.testing.assert_allclose(
            g, grad_and_gram(cores, x, mode)[0] / j, atol=1e-13)

    def test_fixed_seed_bitwise_reproducible(self):
        x, _ = synth_tensor(SynthSpec(order=3, dim=8, rank=2, seed=11))
        cfg = SolverConfig(ranks=(2, 2, 2), schedule=ConstantStep(0.05),
                           batch_grad=10, max_iters=60, eval_every=10, seed=21,
                           sampling=SamplingSpec("leverage"))
        # a counting clock removes wall-time noise from the elapsed column
        c1, t1 = tr_brsgd(x, cfg, clock=counting_clock())
        c2, t2 = tr_brsgd(x, cfg, clock=counting_clock())
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
        original = solvers.core_distribution
        monkeypatch.setattr(solvers, "core_distribution",
                            lambda core, kind: calls.append(1) or original(core, kind))
        x, _ = synth_tensor(SynthSpec(order=3, dim=8, rank=2, seed=13))
        iters = 30
        cfg = SolverConfig(ranks=(2, 2, 2), schedule=ConstantStep(0.05),
                           batch_grad=20, max_iters=iters, eval_every=10, seed=5,
                           sampling=SamplingSpec("leverage"))
        _, trace = tr_brsgd(x, cfg)
        assert trace.final()[0] == iters
        # 2 at the first iteration, then one for each iteration that draws
        # from the core the one before it replaced
        assert len(calls) == 22

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
    def test_jitter_fallbacks_are_counted_in_the_trace(self):
        # ranks the data cannot support and a ridge too small to change the
        # sampled Hessian factors: every iteration's solve takes the fallback
        x, _ = synth_tensor(SynthSpec(order=2, dim=3, rank=1, seed=10))
        cfg = SolverConfig(ranks=(3, 3), schedule=ConstantStep(0.1), batch_grad=5,
                           batch_hess=9, damping=1e-30, max_iters=20, seed=0)
        _cores, trace = tr_scaled_brsgd(x, cfg)
        assert trace.final()[0] == 20
        assert trace.chol_jitter == 20
        assert parse_trace_csv(render_trace_csv(trace)).chol_jitter == 20

    def test_fixed_seed_bitwise_reproducible(self):
        x, _ = synth_tensor(SynthSpec(order=3, dim=8, rank=2, seed=16))
        cfg = SolverConfig(ranks=(2, 2, 2), schedule=ConstantStep(0.05),
                           batch_grad=10, batch_hess=20, damping=1e-8,
                           max_iters=60, eval_every=10, seed=22,
                           sampling=SamplingSpec("euclidean"))
        c1, t1 = tr_scaled_brsgd(x, cfg, clock=counting_clock())
        c2, t2 = tr_scaled_brsgd(x, cfg, clock=counting_clock())
        assert t1.records == t2.records
        for a, b in zip(c1, c2):
            np.testing.assert_array_equal(a, b)

    def test_one_generator_and_one_draw_per_iteration(self, monkeypatch):
        # replay: stream 1 of the seed gives each iteration's mode, then all
        # of its rows in one sampler call; the first batch_grad rows form the
        # gradient batch and the rest the Hessian batch
        x, _ = synth_tensor(SynthSpec(order=3, dim=8, rank=2, seed=16))
        cfg = SolverConfig(ranks=(2, 2, 2), schedule=ConstantStep(0.05),
                           batch_grad=10, batch_hess=20, damping=1e-8,
                           max_iters=3, eval_every=3, seed=22,
                           sampling=SamplingSpec("euclidean"))
        batch_sizes = []

        def spy(*args, **kwargs):
            batch_sizes.append(args[3])
            return sample_subchain_fibers(*args, **kwargs)

        monkeypatch.setattr(solvers, "sample_subchain_fibers", spy)
        solved, _ = tr_scaled_brsgd(x, cfg)
        assert batch_sizes == [30, 30, 30]

        cores = _init_cores(x, cfg, None)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(22, spawn_key=(1,))))
        for t in range(3):
            n = int(rng.integers(3))
            dists = [None if k == n else sampling.core_distribution(c, "euclidean")
                     for k, c in enumerate(cores)]
            s, fibers, probs = sample_subchain_fibers(cores, x, n, 30, samplers(cores, dists), rng)
            j = x.size // x.shape[n]
            g = stochastic_gradient(cores[n], s[:10], fibers[:, :10], probs[:10], j)
            h = stochastic_hessian(s[10:], probs[10:], j)
            _apply_step(cores, n, search_direction(g, h, 1e-8)[0], cfg, t, {})
        for a, b in zip(solved, cores):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("solver", [tr_brsgd, tr_scaled_brsgd], ids=["brsgd", "scaled"])
    def test_one_sampler_build_per_core_array(self, solver, monkeypatch):
        # a core's sampler is built when the core is first needed and again
        # only after the core is replaced: never twice for one core array
        x, _ = synth_tensor(SynthSpec(order=4, dim=5, rank=2, seed=16))
        cfg = SolverConfig(ranks=(2, 2, 2, 2), schedule=ConstantStep(0.05),
                           batch_grad=10, batch_hess=20, damping=1e-8,
                           max_iters=40, eval_every=40, seed=22,
                           sampling=SamplingSpec("leverage"))
        built = []
        original = solvers.core_sampler

        def spy(core, p):
            built.append(core)
            return original(core, p)

        monkeypatch.setattr(solvers, "core_sampler", spy)
        solver(x, cfg)
        # the run replaces one core per iteration
        assert len(built) <= x.ndim + cfg.max_iters
        for i, core in enumerate(built):
            assert not any(core is other for other in built[:i])

    def test_a_uniform_sampler_is_built_once_per_run(self, monkeypatch):
        # a uniform distribution depends only on the slice count
        x, _ = synth_tensor(SynthSpec(order=4, dim=5, rank=2, seed=16))
        cfg = SolverConfig(ranks=(2, 2, 2, 2), schedule=ConstantStep(0.05),
                           batch_grad=10, batch_hess=20, damping=1e-8,
                           max_iters=40, eval_every=40, seed=22)
        built = []
        original = solvers.core_sampler
        monkeypatch.setattr(solvers, "core_sampler",
                            lambda core, p: built.append(core) or original(core, p))
        tr_scaled_brsgd(x, cfg)
        assert len(built) == x.ndim

    @pytest.mark.parametrize("kind", ["uniform", "optimal"])
    def test_gathers_fibers_for_the_gradient_batch_only(self, kind, monkeypatch):
        # the Hessian batch reads no fibers, so none are gathered for it
        x, _ = synth_tensor(SynthSpec(order=3, dim=8, rank=2, seed=16))
        cfg = SolverConfig(ranks=(2, 2, 2), schedule=ConstantStep(0.05),
                           batch_grad=10, batch_hess=20, damping=1e-8,
                           max_iters=3, eval_every=3, seed=22, sampling=SamplingSpec(kind))
        gathered, handed = [], []
        original = solvers.sample_subchain_fibers

        def sampler_spy(*args, **kwargs):
            batch = original(*args, **kwargs)
            gathered.append(batch[1])
            return batch

        def gradient_spy(core, s, fibers, probs, j_total):
            handed.append(fibers)
            return stochastic_gradient(core, s, fibers, probs, j_total)

        monkeypatch.setattr(solvers, "sample_subchain_fibers", sampler_spy)
        monkeypatch.setattr(solvers, "stochastic_gradient", gradient_spy)
        tr_scaled_brsgd(x, cfg)
        assert len(gathered) == len(handed) == 3
        for fibers, given in zip(gathered, handed):
            assert fibers.shape == (8, cfg.batch_grad)
            assert given is fibers

    @pytest.mark.parametrize("solver", [tr_brsgd, tr_scaled_brsgd], ids=["brsgd", "scaled"])
    def test_row_major_input_runs_bitwise_as_column_major(self, solver):
        # the solvers take x column-major at entry, so its layout moves nothing
        x, _ = synth_tensor(SynthSpec(order=3, dim=8, rank=2, seed=16))
        cfg = SolverConfig(ranks=(2, 2, 2), schedule=ConstantStep(0.05),
                           batch_grad=10, batch_hess=20, damping=1e-8,
                           max_iters=40, eval_every=10, seed=23,
                           sampling=SamplingSpec("leverage"))
        c_cores, c_trace = solver(np.ascontiguousarray(x), cfg, clock=counting_clock())
        f_cores, f_trace = solver(np.asfortranarray(x), cfg, clock=counting_clock())
        assert c_trace.records == f_trace.records
        for a, b in zip(c_cores, f_cores):
            assert a.tobytes() == b.tobytes()

    def test_huge_damping_approaches_plain_direction(self):
        rng = np.random.default_rng(18)
        dims, ranks = (3, 4, 2), (2, 2, 2)
        cores = random_cores(rng, dims, ranks)
        x = rng.standard_normal(dims)
        mode, j = 0, 8
        dists = [None, uniform_dist(4), uniform_dist(2)]
        batch = sample_subchain_fibers(cores, x, mode, 6, samplers(cores, dists), rng)
        s_h, _, probs_h = sample_subchain_fibers(cores, x, mode, 6, samplers(cores, dists), rng)
        g = stochastic_gradient(cores[mode], *batch, j)
        norms = []
        for eta in (1e-2, 1e0, 1e2, 1e4):
            h = stochastic_hessian(s_h, probs_h, j)
            d, _ = search_direction(g, h, damping=eta)
            norms.append(np.linalg.norm(d))
        assert all(b < a for a, b in zip(norms, norms[1:]))  # monotone shrink
        h = stochastic_hessian(s_h, probs_h, j)
        d, _ = search_direction(g, h, damping=1e8)
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
        g_full = grad_and_gram(cores, x, mode)[0]
        target = -np.linalg.solve(gram.T, g_full.T).T
        dists = [None, uniform_dist(4), uniform_dist(2)]
        acc = np.zeros_like(g_full)
        trials = 3000
        mc_rng = np.random.default_rng(20)
        for _ in range(trials):
            b_g = sample_subchain_fibers(cores, x, mode, 16, samplers(cores, dists), mc_rng)
            s_h, _, probs_h = sample_subchain_fibers(cores, x, mode, 32,
                                                     samplers(cores, dists), mc_rng)
            g = stochastic_gradient(cores[mode], *b_g, j)
            h = stochastic_hessian(s_h, probs_h, j)
            acc += search_direction(g, h, damping=1e-4)[0]
        mean_dir = acc / trials
        err = np.linalg.norm(mean_dir - target) / np.linalg.norm(target)
        assert err < 0.10


def _with_entry(value):
    x = np.ones((3, 4, 2))
    x[1, 2, 0] = value
    return x


class TestOptimalSampling:
    """The `optimal` diagnostic samples whole rows of the subchain that the
    iteration builds once to form its residual."""

    @staticmethod
    def _config(**extra):
        return SolverConfig(ranks=(2, 2, 2), schedule=ConstantStep(0.05), batch_grad=10,
                            batch_hess=20, damping=1e-8, sampling=SamplingSpec("optimal"),
                            **extra)

    @pytest.mark.parametrize("solver", [tr_brsgd, tr_scaled_brsgd])
    def test_one_subchain_build_per_iteration(self, solver, monkeypatch):
        builds = []
        original = core.subchain_tensor

        def spy(cores, mode):
            builds.append(mode)
            return original(cores, mode)

        for module in (core, solvers, sampling):
            if hasattr(module, "subchain_tensor"):
                monkeypatch.setattr(module, "subchain_tensor", spy)
        x, _ = synth_tensor(SynthSpec(order=3, dim=6, rank=2, seed=14))
        _, trace = solver(x, self._config(max_iters=12, eval_every=12, seed=6))
        assert trace.final()[0] == 12
        assert len(builds) == 12

    @pytest.mark.parametrize("seed", [2, 3, 5])
    def test_overflow_stops_as_diverged(self, seed):
        # between two evaluations the cores grow huge but stay finite, so the
        # oracle's norms and then the residual overflow; the run stops as
        # diverged instead of raising
        x, _ = synth_tensor(SynthSpec(order=4, dim=6, rank=2, seed=3))
        cfg = SolverConfig(ranks=(2, 2, 2, 2), schedule=ConstantStep(1.0), batch_grad=20,
                           init_scale=0.5, sampling=SamplingSpec("optimal"), max_iters=200,
                           eval_every=20, seed=seed)
        with np.errstate(over="ignore", invalid="ignore"):
            _, trace = tr_brsgd(x, cfg)
        assert trace.terminal_reason == "diverged"

    def test_fixed_seed_bitwise_reproducible(self):
        x, _ = synth_tensor(SynthSpec(order=3, dim=6, rank=2, seed=14))
        cfg = self._config(max_iters=40, eval_every=10, seed=23)
        c1, t1 = tr_scaled_brsgd(x, cfg, clock=counting_clock())
        c2, t2 = tr_scaled_brsgd(x, cfg, clock=counting_clock())
        assert t1.records == t2.records
        assert render_trace_csv(t1) == render_trace_csv(t2)
        for a, b in zip(c1, c2):
            np.testing.assert_array_equal(a, b)


class TestUnfittableTensor:
    # each is rejected before a cost model divides by an extent or a run
    # evaluates an undefined RSE
    @pytest.mark.parametrize("solve", [tr_als, tr_gd, tr_scaled_gd, tr_brsgd, tr_scaled_brsgd])
    @pytest.mark.parametrize("x", [
        np.zeros((3, 0, 2)), np.zeros((3, 4, 2)), _with_entry(np.nan), _with_entry(np.inf),
        np.full((3, 4, 2), 1e200)],
        ids=["empty-mode", "all-zero", "nan", "inf", "norm-overflows"])
    def test_rejected_at_entry(self, solve, x):
        cfg = SolverConfig(ranks=(2, 2, 2), max_iters=3, seed=0)
        with pytest.raises(ValueError, match="cannot fit"):
            solve(x, cfg)


class TestInitCores:
    @pytest.mark.parametrize("solve", [tr_als, tr_gd, tr_scaled_gd, tr_brsgd, tr_scaled_brsgd])
    @pytest.mark.parametrize("ranks, dims", [((3, 3, 3), (4, 5, 6)), ((2, 2, 2), (4, 5, 7))],
                             ids=["ranks", "dims"])
    def test_init_that_does_not_fit_is_refused(self, solve, ranks, dims):
        # a rank-3 start for a rank-2 config, or the cores of another tensor,
        # would run at their own shapes: both shapes are named instead
        init = random_cores(np.random.default_rng(0), dims, ranks)
        cfg = SolverConfig(ranks=(2, 2, 2), damping=1e-8, max_iters=2, seed=0)
        with pytest.raises(ValueError, match=re.escape(
                f"init cores of shapes {[c.shape for c in init]} do not fit the config's "
                "ranks and the tensor: expected [(2, 4, 2), (2, 5, 2), (2, 6, 2)]")):
            solve(np.ones((4, 5, 6)), cfg, init=init)


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

    def test_injected_clock(self):
        x, _ = synth_tensor(SynthSpec(order=3, dim=5, rank=2, seed=22))
        ticks = iter(range(1000))
        cfg = SolverConfig(ranks=(2, 2, 2), max_iters=3, eval_every=1, seed=0)
        _, trace = tr_als(x, cfg, clock=lambda: float(next(ticks)))
        # iteration work costs one tick; evaluations are excluded from elapsed
        # and counted apart, one tick each
        assert [r[1] for r in trace.records] == [0.0, 1.0, 2.0, 3.0]
        assert (trace.eval_every, trace.eval_s) == (1, 4.0)

    def test_non_finite_rse_stops_as_diverged(self):
        # kappa=1e4 instance at alpha=0.1: a GD step writes a non-finite core
        # at iteration 4, and the run stops there rather than at the next
        # evaluation (10)
        x, _ = synth_tensor(SynthSpec(order=3, dim=25, rank=3, kind="ill_conditioned",
                                      kappa=1e4, seed=2))
        cfg = SolverConfig(ranks=(3, 3, 3), schedule=ConstantStep(0.1),
                           max_iters=30, eval_every=10, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            cores, trace = tr_gd(x, cfg)
        assert [r[0] for r in trace.records] == [0, 4]
        assert np.isfinite(trace.records[0][2]) and not np.isfinite(trace.records[1][2])
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
        # is non-finite, and the run stops at that iteration (12), not at the
        # next evaluation (20)
        x, _ = synth_tensor(SynthSpec(order=3, dim=8, rank=2, seed=15))
        cfg = SolverConfig(ranks=(2, 2, 2), schedule=ConstantStep(1e6),
                           damping=1e-8, max_iters=40, eval_every=20, seed=7)
        with np.errstate(over="ignore", invalid="ignore"):
            _, trace = tr_scaled_gd(x, cfg)
        assert trace.terminal_reason == "diverged" and trace.diverged
        assert [r[0] for r in trace.records] == [0, 12]
        assert not math.isfinite(trace.final()[2])

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


class TestSolverConfigValidation:
    """Values no run can use are rejected when the config is built, not once
    the run has started (or never, for a tolerance that cannot fire)."""

    def test_boundary_values_stay_valid(self):
        SolverConfig(ranks=(2, 2), max_iters=0, max_seconds=0.0, rse_tol=0.0,
                     damping=0.0)

    @pytest.mark.parametrize("ranks", [(), (3,), [3]])
    def test_a_ring_needs_two_ranks(self, ranks):
        with pytest.raises(ValueError, match="ranks must have at least 2 entries"):
            SolverConfig(ranks=ranks)

    @pytest.mark.parametrize("rse_tol", [math.nan, -1e-8, -math.inf])
    def test_rse_tol(self, rse_tol):
        with pytest.raises(ValueError, match="rse_tol"):
            SolverConfig(ranks=(2, 2), rse_tol=rse_tol)

    @pytest.mark.parametrize("max_iters", [-1, -1000])
    def test_max_iters(self, max_iters):
        with pytest.raises(ValueError, match="max_iters"):
            SolverConfig(ranks=(2, 2), max_iters=max_iters)

    @pytest.mark.parametrize("max_seconds", [-1.0, math.nan])
    def test_max_seconds(self, max_seconds):
        with pytest.raises(ValueError, match="max_seconds"):
            SolverConfig(ranks=(2, 2), max_seconds=max_seconds)

    @pytest.mark.parametrize("damping", [-1e-8, math.nan, math.inf])
    def test_damping(self, damping):
        with pytest.raises(ValueError, match="damping"):
            SolverConfig(ranks=(2, 2), damping=damping)

    @pytest.mark.parametrize("init_scale", [0.0, -0.3, math.nan, math.inf])
    def test_init_scale(self, init_scale):
        with pytest.raises(ValueError, match="init_scale"):
            SolverConfig(ranks=(2, 2), init_scale=init_scale)

    @pytest.mark.parametrize("eval_every", [0, -5])
    def test_eval_every(self, eval_every):
        with pytest.raises(ValueError, match="eval_every"):
            SolverConfig(ranks=(2, 2), eval_every=eval_every)

    @pytest.mark.parametrize("key, value", [
        ("ranks", (2.7, 2.2)), ("ranks", (2, True)), ("batch_grad", 2.5),
        ("batch_hess", True), ("max_iters", 2.5), ("max_iters", math.nan),
        ("eval_every", 2.5), ("eval_every", math.inf), ("seed", 1.5), ("seed", False),
    ])
    def test_counts_are_integers(self, key, value):
        # a bool or a fraction is refused, not truncated or met mid-run
        kwargs = {"ranks": (2, 2), key: value}
        with pytest.raises(ValueError, match=f"{key} must be an integer, not"):
            SolverConfig(**kwargs)

    def test_integral_floats_are_taken_as_ints(self):
        cfg = SolverConfig(ranks=(2.0, 3.0), batch_grad=4.0, batch_hess=5.0,
                           max_iters=6.0, eval_every=7.0, seed=8.0)
        counts = (cfg.ranks, cfg.batch_grad, cfg.batch_hess, cfg.max_iters, cfg.eval_every,
                  cfg.seed)
        assert counts == ((2, 3), 4, 5, 6, 7, 8)
        assert all(type(v) is int for v in (*cfg.ranks, *counts[1:]))


# every settings class, with the fewest valid arguments it can be built from
SETTINGS = {
    SolverConfig: {"ranks": (2, 2)},
    ConstantStep: {"alpha": 0.1},
    RobbinsMonroStep: {"alpha0": 0.1},
    AdaGradStep: {"eta": 0.1},
    SynthSpec: {"order": 3, "dim": 4, "rank": 2},
}
# values of the right kind but the wrong class, per field name
WRONG_CLASS = {"schedule": ["x"], "sampling": ["leverage"]}


def _bad_fields():
    """(class, field, value) for a value of the wrong type for each field of
    each settings class, read off the field's type: a bool and a string for
    a real, a fraction for a count, a bare count for a tuple of them, None
    where the type is not Optional."""
    for cls in SETTINGS:
        for name, hint in field_types(cls).items():
            types = typing.get_args(hint) or (hint,)
            bad = list(WRONG_CLASS.get(name, []))
            if float in types:
                bad += [True, "1"]
            if int in types:
                bad.append(1.5)
            if typing.get_origin(hint) is tuple:
                bad += [(2, 1.5), 2]
            if type(None) not in types:
                bad.append(None)
            for value in bad:
                yield pytest.param(cls, name, value, id=f"{cls.__name__}-{name}-{value!r}")


class TestCheckFields:
    """Each settings class checks its fields' types when built, by the one
    rule set of `solvers.check_fields`."""

    @pytest.mark.parametrize("cls, name, value", _bad_fields())
    def test_a_value_of_the_wrong_type_is_refused_when_built(self, cls, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an? "):
            cls(**{**SETTINGS[cls], name: value})

    @pytest.mark.parametrize("cls, name", [(SolverConfig, "damping"), (ConstantStep, "alpha"),
                                           (SynthSpec, "kappa")])
    def test_an_integer_too_large_for_a_float_is_refused_by_name(self, cls, name):
        with pytest.raises(ValueError, match=f"^{name} is too large for a float"):
            cls(**{**SETTINGS[cls], name: 10**400})

    def test_reals_are_stored_as_floats(self):
        cfg = SolverConfig(ranks=[2, 2], damping=1, max_seconds=5, init_scale=2)
        assert cfg.ranks == (2, 2)
        assert all(type(v) is float for v in (cfg.damping, cfg.max_seconds, cfg.init_scale))
        assert type(ConstantStep(1).alpha) is float
        assert type(SynthSpec(order=3, dim=4, rank=2, kappa=10).kappa) is float


def _default_cadence(solver, shape, batches=(100, 300), kind="uniform"):
    """The evaluation cadence a run of `solver` on a tensor of `shape` takes
    with eval_every left at None, read from a run that stops at its first
    evaluation."""
    cfg = SolverConfig(ranks=(3,) * len(shape), batch_grad=batches[0],
                       batch_hess=batches[1], damping=1e-8, sampling=SamplingSpec(kind),
                       max_iters=0, seed=0)
    return solver(np.ones(shape, order="F"), cfg)[1].eval_every


ALL_SOLVERS = [tr_als, tr_gd, tr_scaled_gd, tr_brsgd, tr_scaled_brsgd]


class TestEvalCadence:
    def test_als_stops_within_the_cadence_of_its_target(self):
        # 1e6 entries: a cadence of 100 sweeps would stop this run at sweep 100
        x, _ = synth_tensor(SynthSpec(order=3, dim=100, rank=3, seed=2))
        every = SolverConfig(ranks=(3, 3, 3), rse_tol=1e-8, eval_every=1, seed=2)
        _, trace1 = tr_als(x, every)
        assert trace1.terminal_reason == "tol" and trace1.final()[0] == 11
        cfg = SolverConfig(ranks=(3, 3, 3), rse_tol=1e-8, seed=2)
        _, trace = tr_als(x, cfg)
        k = trace.eval_every
        assert 1 <= k <= 3
        assert trace.terminal_reason == "tol"
        assert 11 <= trace.final()[0] <= 11 + k - 1

    @pytest.mark.parametrize("solver, dim", [
        (tr_als, 40), (tr_gd, 40), (tr_scaled_gd, 40), (tr_brsgd, 25),
        (tr_scaled_brsgd, 40)], ids=lambda v: getattr(v, "__name__", str(v)))
    def test_cadence_moves_only_the_checks(self, solver, dim):
        # evaluation draws nothing, so a run evaluated every k iterations
        # has the iterates of one evaluated every iteration
        x, _ = synth_tensor(SynthSpec(order=3, dim=dim, rank=3, seed=5))
        kw = dict(ranks=(3, 3, 3), schedule=ConstantStep(1e-3 if solver is tr_gd else 0.3),
                  batch_grad=100, batch_hess=300, damping=1e-8, seed=3, init_scale=0.3)
        k = solver(x, SolverConfig(max_iters=0, **kw))[1].eval_every
        assert k > 1
        cores_k, trace_k = solver(x, SolverConfig(max_iters=3 * k, **kw),
                                  clock=counting_clock())
        cores_1, trace_1 = solver(x, SolverConfig(max_iters=3 * k, eval_every=1, **kw),
                                  clock=counting_clock())
        assert (trace_k.eval_every, trace_1.eval_every) == (k, 1)
        for a, b in zip(cores_k, cores_1):
            assert a.tobytes() == b.tobytes()
        assert trace_k.records == [r for r in trace_1.records if r[0] % k == 0]
        assert trace_k.terminal_reason == trace_1.terminal_reason == "max_iters"
        assert trace_k.eval_s == 4 and trace_1.eval_s == 3 * k + 1

    @pytest.mark.parametrize("solver", ALL_SOLVERS, ids=lambda f: f.__name__)
    def test_model(self, solver):
        if solver in (tr_als, tr_gd, tr_scaled_gd):
            # a dense run evaluates every ceil(9/N) iterations at any
            # size, by rule
            for order, large in ((2, 1000), (3, 100), (4, 32), (5, 16)):
                for dim in (3, large):
                    assert _default_cadence(solver, (dim,) * order) == math.ceil(9 / order)
            return
        # a sampled iteration costs the same at any size, so the cadence
        # grows with |X| until it reaches the cap
        ks = [_default_cadence(solver, (dim,) * 3, batches=(10, 30))
              for dim in (2, 5, 10, 20, 40, 70, 100)]
        assert all(b >= a for a, b in zip(ks, ks[1:]))
        assert 1 < ks[0] < ks[-1] == MAX_EVAL_EVERY
        # the `optimal` diagnostic forms a full residual: the dense rule
        assert _default_cadence(solver, (40,) * 3, kind="optimal") == 3

    def test_order4_defaults_cadence(self):
        # perfbench's order4-defaults workload: 30^4, batches 100/300
        assert _default_cadence(tr_scaled_brsgd, (30,) * 4) == 25

    def test_explicit_cadence_honoured(self):
        x, _ = synth_tensor(SynthSpec(order=3, dim=30, rank=2, seed=1))
        cfg = SolverConfig(ranks=(2, 2, 2), batch_grad=10, max_iters=10, eval_every=7,
                           seed=0)
        _, trace = tr_brsgd(x, cfg)
        assert trace.eval_every == 7
        assert [r[0] for r in trace.records] == [0, 7, 10]


def _replay(solver, x, cfg, monkeypatch, clock=None):
    """Run `solver` and return its cores, its trace and, for every estimate
    `_run_loop` recorded, (estimate, residual_norm of the same iterate / ||x||)."""
    pairs, iterate = [], []
    run_loop, estimated_rse = solvers._run_loop, solvers._estimated_rse

    def loop(*args, own_products=None):
        def own(cores):
            iterate[:] = [c.copy() for c in cores]
            return own_products(cores)
        return run_loop(*args, own_products=None if own_products is None else own)

    def estimate(own, norm_x, tol):
        value = estimated_rse(own, norm_x, tol)
        if value is not None:
            pairs.append((value, residual_norm(iterate, x) / norm_x))
        return value

    monkeypatch.setattr(solvers, "_run_loop", loop)
    monkeypatch.setattr(solvers, "_estimated_rse", estimate)
    cores, trace = solver(x, cfg, clock=clock)
    return cores, trace, pairs


def _exact(cores, x):
    return float(residual_norm(cores, x) / np.linalg.norm(x))


class TestOwnRse:
    """Above ESTIMATE_FLOOR a dense solver's record is the RSE from the
    products its iterations took of that iterate, within ESTIMATE_BOUND of
    residual_norm's; every stop and every terminal record is exact."""

    def test_the_estimate_is_taken_only_where_it_is_vouched_for(self):
        # one entry each: ||X - M||^2 = 1 - 2a + b at ||X|| = 1
        def own(a, b):
            return np.array([a]), np.array([1.0]), np.array([b])

        assert _estimated_rse(own(0.0, 0.0), 1.0, None) == 1.0
        assert _estimated_rse(own(0.5, 0.01), 1.0, None) == pytest.approx(0.1)
        floor_sq = ESTIMATE_FLOOR ** 2
        assert _estimated_rse(own(0.5, 1.001 * floor_sq), 1.0, None) is not None
        for a, b in ((0.5, 0.999 * floor_sq), (0.5, 0.0), (0.6, 0.0),
                     (math.nan, 0.0), (0.0, math.inf), (0.0, math.nan)):
            assert _estimated_rse(own(a, b), 1.0, None) is None, (a, b)
        # a tolerance the estimate cannot tell apart within its bound
        tol = 0.1
        assert _estimated_rse(own(0.5, 0.01), 1.0, tol) is None
        assert _estimated_rse(own(0.5, 0.0101), 1.0, tol) is not None
        assert _estimated_rse(own(0.5, (tol * (1 + ESTIMATE_BOUND / 2)) ** 2), 1.0, tol) is None

    @pytest.mark.parametrize("order, dim", [(3, 100), (4, 30)])
    @pytest.mark.parametrize("solver, kw", [
        (tr_gd, dict(schedule=ConstantStep(1e-5), max_iters=6)),
        (tr_scaled_gd, dict(schedule=ConstantStep(0.5), damping=1e-8, max_iters=30)),
        (tr_als, dict(max_iters=10))], ids=["gd", "scaled-gd", "als"])
    def test_every_estimate_replays_within_its_bound(self, solver, kw, order, dim,
                                                     monkeypatch):
        x, _ = synth_tensor(SynthSpec(order=order, dim=dim, rank=3, seed=2))
        cfg = SolverConfig(ranks=(3,) * order, eval_every=1, seed=2, init_scale=0.5, **kw)
        cores, trace, pairs = _replay(solver, x, cfg, monkeypatch)
        assert len(pairs) == trace.estimated > 0
        for estimate, exact in pairs:
            assert exact > ESTIMATE_FLOOR / 2
            assert abs(estimate - exact) <= ESTIMATE_BOUND * exact
        estimates = [e for e, _ in pairs]
        assert [r[2] for r in trace.records if r[2] in estimates] == estimates
        # every record is taken: below the floor and at the end exactly
        assert len(trace.records) == cfg.max_iters + 1
        assert trace.terminal_reason == "max_iters"
        assert trace.final()[2] == _exact(cores, x)
        if solver is tr_als:
            assert min(r[2] for r in trace.records) < ESTIMATE_FLOOR

    @pytest.mark.parametrize("solver", [tr_als, tr_scaled_gd], ids=lambda f: f.__name__)
    def test_a_tol_stop_near_the_floor_is_exact(self, solver, monkeypatch):
        x, _ = synth_tensor(SynthSpec(order=3, dim=20, rank=2, seed=3))
        tol = 2 * ESTIMATE_FLOOR
        cfg = SolverConfig(ranks=(2, 2, 2), schedule=ConstantStep(0.5), damping=1e-8,
                           max_iters=400, rse_tol=tol, eval_every=1, seed=1)
        cores, trace, pairs = _replay(solver, x, cfg, monkeypatch)
        assert trace.terminal_reason == "tol" and trace.estimated > 0
        assert all(estimate * (1 - ESTIMATE_BOUND) > tol for estimate, _ in pairs)
        assert trace.final()[2] == _exact(cores, x) <= tol

    @pytest.mark.parametrize("solver", DENSE_SOLVERS, ids=lambda f: f.__name__)
    def test_a_max_time_stop_is_exact(self, solver, monkeypatch):
        # an iteration costs one tick of the counting clock
        x, _ = synth_tensor(SynthSpec(order=3, dim=10, rank=2, seed=4))
        cfg = SolverConfig(ranks=(2, 2, 2), schedule=ConstantStep(1e-3), max_iters=None,
                           max_seconds=5, eval_every=1, seed=1)
        cores, trace, pairs = _replay(solver, x, cfg, monkeypatch, clock=counting_clock())
        assert trace.terminal_reason == "max_time"
        assert trace.final()[0] == 5 and trace.estimated == len(pairs) == 4
        assert trace.final()[2] == _exact(cores, x)

    def test_a_non_finite_iterate_still_ends_diverged(self, monkeypatch):
        # test_non_finite_rse_stops_as_diverged's run, evaluated every
        # iteration: the iterates before the overflow are estimated, and the
        # finite iterate at 3 whose residual overflows is not
        x, _ = synth_tensor(SynthSpec(order=3, dim=25, rank=3, kind="ill_conditioned",
                                      kappa=1e4, seed=2))
        cfg = SolverConfig(ranks=(3, 3, 3), schedule=ConstantStep(0.1), max_iters=30,
                           eval_every=1, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            cores, trace, pairs = _replay(tr_gd, x, cfg, monkeypatch)
            final = residual_norm(cores, x)
        assert trace.terminal_reason == "diverged" and trace.final()[0] == 3
        assert trace.estimated == len(pairs) > 0
        assert not math.isfinite(trace.final()[2]) and not math.isfinite(final)
        for estimate, exact in pairs:
            assert abs(estimate - exact) <= ESTIMATE_BOUND * exact

    @pytest.mark.parametrize("solver", [tr_brsgd, tr_scaled_brsgd], ids=["brsgd", "scaled"])
    @pytest.mark.parametrize("kind", SAMPLING_KINDS)
    def test_the_stochastic_solvers_never_estimate(self, solver, kind, monkeypatch):
        x, _ = synth_tensor(SynthSpec(order=3, dim=8, rank=2, seed=5))
        cfg = SolverConfig(ranks=(2, 2, 2), schedule=ConstantStep(0.05), batch_grad=10,
                           batch_hess=20, damping=1e-8, sampling=SamplingSpec(kind),
                           max_iters=10, eval_every=1, seed=1)
        _, trace, pairs = _replay(solver, x, cfg, monkeypatch)
        assert trace.estimated is None and pairs == []
        assert "estimated" not in render_trace_csv(trace)

    def test_the_count_is_in_the_trace_file(self):
        x, _ = synth_tensor(SynthSpec(order=3, dim=8, rank=2, seed=6))
        _, trace = tr_als(x, SolverConfig(ranks=(2, 2, 2), max_iters=4, eval_every=1, seed=1))
        assert trace.estimated > 0
        assert parse_trace_csv(render_trace_csv(trace)).estimated == trace.estimated
