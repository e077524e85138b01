"""End-to-end acceptance checks, one test per criterion.

Each test prints a PASS line after its assertions; run with `pytest -s` (or
`-rA`) to see them.  Monte-Carlo checks are vectorized so the whole module
stays within its stated runtime budgets.
"""

import copy
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import trdecomp
from trdecomp.bench import run_experiment
from trdecomp.core import (
    core_unfolding,
    mode_n_unfolding,
    rotation_modes,
    subchain_tensor,
    subchain_unfolding,
)
from trdecomp.datagen import SynthSpec, synth_tensor
from trdecomp.sampling import (
    SamplingSpec,
    core_distributions,
    optimal_distribution_oracle,
    sample_subchain_fibers,
)
from trdecomp.solvers import (
    AdaGradStep,
    ConstantStep,
    SolverConfig,
    _adagrad_steps,
    search_direction,
    stochastic_hessian,
    tr_als,
    tr_brsgd,
    tr_scaled_brsgd,
    tr_scaled_gd,
)

from helpers import (
    als_objectives,
    choice_draws,
    complete_sample_batch,
    counting_clock,
    finite_diff_core_gradient,
    grad_and_gram,
    leverage_by_svd,
    linear_pos,
    product_row_distribution,
    random_cores,
    samplers,
    variance_functional,
)


def _draw_product_batches(cores, x, mode, dists, batch, n_batches, rng):
    """Vectorized equivalent of many independent per-core row draws.

    Returns (S, xs, probs): sampled subchain rows (n_batches, batch, RR),
    fibers (I, n_batches, batch) and realized probabilities (n_batches, batch).
    """
    n = len(cores)
    rot = rotation_modes(mode, n)
    idx = {
        k: rng.choice(cores[k].shape[1], size=(n_batches, batch), p=dists[k])
        for k in rot
    }
    probs = np.ones((n_batches, batch))
    for k in rot:
        probs *= dists[k][idx[k]]
    t = cores[rot[0]][:, idx[rot[0]], :]
    for k in rot[1:]:
        t = np.einsum("abfc,cbfd->abfd", t, cores[k][:, idx[k], :])
    r_next, _, _, r_n = t.shape
    s = t.transpose(1, 2, 0, 3).reshape(n_batches, batch, r_next * r_n)
    xm = np.moveaxis(x, mode, 0)
    rest = [k for k in range(n) if k != mode]
    xs = xm[(slice(None),) + tuple(idx[k] for k in rest)]
    return s, xs, probs


def _proof_estimates(g2, s, xs, probs):
    """Per-batch gradient estimates normalized to be unbiased for the full
    gradient: (1/batch) sum_f w_f (G s_f^T s_f - x_f s_f)."""
    w = 1.0 / probs
    a = np.einsum("bf,bfr,bfs->brs", w, s, s)
    term1 = np.einsum("ir,brs->bis", g2, a)
    term2 = np.einsum("bf,ibf,bfr->bir", w, xs, s)
    return (term1 - term2) / s.shape[1]


def _row_batches(sub_mat, xn, q, batch, n_batches, rng):
    rows = rng.choice(len(q), size=(n_batches, batch), p=q)
    return sub_mat[rows], xn[:, rows], q[rows]


def test_criterion_1_als_exact_recovery():
    t0 = time.perf_counter()
    x, _ = synth_tensor(SynthSpec(order=3, dim=20, rank=3, seed=1))
    cfg = SolverConfig(ranks=(3, 3, 3), max_iters=50, rse_tol=1e-9, seed=0)
    _, trace = tr_als(x, cfg)
    elapsed = time.perf_counter() - t0
    it, _, final_rse = trace.final()
    assert final_rse < 1e-8
    assert it <= 50
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 1 PASS: TR-ALS exact recovery, rse {final_rse:.2e} "
          f"in {it} sweeps ({elapsed:.1f}s)")


def test_criterion_2_gradient_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    dims, ranks = (5, 6, 7), (2, 2, 2)
    cores = random_cores(rng, dims, ranks)
    x = rng.standard_normal(dims)
    worst = 0.0
    for mode in range(3):
        g = grad_and_gram(cores, x, mode)[0]
        fd = finite_diff_core_gradient(cores, x, mode)
        worst = max(worst, np.linalg.norm(g - fd) / np.linalg.norm(fd))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-5
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 2 PASS: gradient matches finite differences, "
          f"worst rel err {worst:.2e} ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def mc_instance():
    rng = np.random.default_rng(3)
    dims, ranks = (3, 4, 6), (2, 2, 2)
    truth = random_cores(rng, dims, ranks)
    sub0 = subchain_tensor(truth, 0)
    x = (core_unfolding(truth[0]) @ subchain_unfolding(sub0).T).reshape(dims, order="F")
    cores = random_cores(rng, dims, ranks)
    return dims, cores, x


def test_criterion_3_gradient_unbiasedness(mc_instance):
    t0 = time.perf_counter()
    dims, cores, x = mc_instance
    mode = 0
    j = x.size // dims[mode]
    assert j <= 24
    g2 = core_unfolding(cores[mode])
    full = grad_and_gram(cores, x, mode)[0]
    n_batches = 100_000
    for kind in ("uniform", "leverage", "euclidean"):
        dists = core_distributions(cores, mode, kind)
        rng = np.random.default_rng(30)
        s, xs, probs = _draw_product_batches(cores, x, mode, dists, 2, n_batches, rng)
        est = _proof_estimates(g2, s, xs, probs)
        mean = est.mean(axis=0)
        se = est.std(axis=0, ddof=1) / np.sqrt(n_batches)
        z = np.abs(mean - full) / np.maximum(se, 1e-30)
        assert np.all(z <= 5.0), f"{kind}: max z-score {z.max():.2f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 3 PASS: stochastic gradient unbiased for uniform/"
          f"leverage/euclidean, 1e5 batches ({elapsed:.1f}s)")


def test_criterion_4_variance_formula(mc_instance):
    dims, cores, x = mc_instance
    mode = 0
    j = x.size // dims[mode]
    g2 = core_unfolding(cores[mode])
    full = grad_and_gram(cores, x, mode)[0]
    sub_mat = subchain_unfolding(subchain_tensor(cores, mode))
    xn = mode_n_unfolding(x, mode)
    residual = g2 @ sub_mat.T - xn
    batch, n_batches = 2, 100_000

    empirical = {}
    ses = {}
    for kind in ("uniform", "leverage", "euclidean"):
        dists = core_distributions(cores, mode, kind)
        q_rows = product_row_distribution(cores, mode, dists)
        rng = np.random.default_rng(41)
        s, xs, probs = _draw_product_batches(cores, x, mode, dists, batch, n_batches, rng)
        est = _proof_estimates(g2, s, xs, probs)
        v_b = np.sum((est - full) ** 2, axis=(1, 2))
        empirical[kind] = v_b.mean()
        ses[kind] = v_b.std(ddof=1) / np.sqrt(n_batches)
        if kind in ("uniform", "euclidean"):
            v_formula = variance_functional(residual, sub_mat, q_rows, batch)
            rel = abs(empirical[kind] - v_formula) / v_formula
            assert rel < 0.03, f"{kind}: {rel:.3f}"

    q_opt = optimal_distribution_oracle(residual, sub_mat)
    rng = np.random.default_rng(42)
    s, xs, probs = _row_batches(sub_mat, xn, q_opt, batch, n_batches, rng)
    est = _proof_estimates(g2, s, xs, probs)
    v_b = np.sum((est - full) ** 2, axis=(1, 2))
    v_opt_emp = v_b.mean()
    se_opt = v_b.std(ddof=1) / np.sqrt(n_batches)

    w = np.linalg.norm(residual, axis=0) * np.linalg.norm(sub_mat, axis=1)
    v_opt_closed = (w.sum() ** 2 - np.linalg.norm(residual @ sub_mat) ** 2) / batch
    assert abs(v_opt_emp - v_opt_closed) / v_opt_closed < 0.03
    for kind in ("uniform", "leverage", "euclidean"):
        margin = 5.0 * np.sqrt(se_opt**2 + ses[kind] ** 2)
        assert v_opt_emp <= empirical[kind] + margin
    print(f"\nACCEPTANCE 4 PASS: variance formula within 3% "
          f"(uniform {empirical['uniform']:.3e}, optimal {v_opt_emp:.3e} "
          f"vs closed form {v_opt_closed:.3e})")


def test_criterion_5_distribution_bounds():
    rng = np.random.default_rng(5)
    checked = 0
    for trial in range(20):
        n = 3 if trial % 2 == 0 else 4
        dims = tuple(rng.integers(2, 7, size=n))
        ranks = (2,) * n
        cores = random_cores(rng, dims, ranks)
        for mode in range(n):
            sub = subchain_tensor(cores, mode)
            mat = subchain_unfolding(sub)
            # leverage variant
            dists = core_distributions(cores, mode, "leverage")
            q = product_row_distribution(cores, mode, dists)
            scores, rank = leverage_by_svd(mat)
            p_lev = scores / rank
            others = [k for k in range(n) if k not in (mode, (mode + 1) % n)]
            beta_lev = 1.0 / (
                ranks[mode] * ranks[(mode + 1) % n]
                * np.prod([ranks[k] ** 2 for k in others]))
            assert np.all(q + 1e-12 >= beta_lev * p_lev)
            # Euclidean variant
            dists = core_distributions(cores, mode, "euclidean")
            q = product_row_distribution(cores, mode, dists)
            slice_sq = np.einsum("rjs,rjs->j", sub, sub)
            p_euc = slice_sq / slice_sq.sum()
            beta_euc = 1.0 / np.prod(
                [np.linalg.norm(cores[k]) ** 2 for k in range(n) if k != mode])
            assert np.all(q + 1e-12 >= beta_euc * p_euc)
            checked += 1
    print(f"\nACCEPTANCE 5 PASS: leverage/euclidean product bounds hold on "
          f"{checked} (instance, mode) pairs")


def test_criterion_6_row_sampling_correctness():
    rng = np.random.default_rng(6)
    dims, ranks = (4, 5, 3), (2, 3, 2)
    cores = random_cores(rng, dims, ranks)
    x = rng.standard_normal(dims)
    mode = 1
    dists = core_distributions(cores, mode, "euclidean")
    ref = copy.deepcopy(rng)
    s, fibers, probs = sample_subchain_fibers(cores, x, mode, 1000, samplers(cores, dists),
                                              rng)
    idxs, _ = choice_draws(cores, mode, dists, 1000, ref)
    assert rng.random() == ref.random()
    sub_mat = subchain_unfolding(subchain_tensor(cores, mode))
    xn = mode_n_unfolding(x, mode)
    rot = rotation_modes(mode, 3)
    dims_rot = [dims[k] for k in rot]
    rows = np.array([linear_pos(idx, dims_rot) for idx in idxs])
    np.testing.assert_allclose(s, sub_mat[rows], atol=1e-13)
    # on a Gaussian x a fiber identifies its row
    np.testing.assert_array_equal(fibers, xn[:, rows])
    expected_p = dists[rot[0]][idxs[:, 0]]
    for c, k in enumerate(rot[1:], start=1):
        expected_p = expected_p * dists[k][idxs[:, c]]
    np.testing.assert_array_equal(probs, expected_p)
    print("\nACCEPTANCE 6 PASS: sampled rows, fibers and probabilities match "
          "the materialized subchain over 1000 draws")


def test_criterion_7_hessian_identities():
    rng = np.random.default_rng(7)
    dims, ranks = (3, 4, 2), (2, 2, 2)
    cores = random_cores(rng, dims, ranks)
    x = rng.standard_normal(dims)
    for mode in range(3):
        j = x.size // dims[mode]
        sub = subchain_unfolding(subchain_tensor(cores, mode))
        gram = sub.T @ sub
        s, _, probs = complete_sample_batch(cores, x, mode)
        h = stochastic_hessian(s, probs, j)
        np.testing.assert_allclose(h, gram / j, atol=1e-12)
        # the direction solves with the damped factor h + eta I
        g = np.random.default_rng(70 + mode).standard_normal((dims[mode], gram.shape[0]))
        for eta in (0.0, 0.05):
            damped = gram / j + eta * np.eye(gram.shape[0])
            d, _ = search_direction(g, h, eta)
            np.testing.assert_allclose(d @ damped, -g, atol=1e-10)
    # one scaled full-gradient step equals the vectorized block form
    alpha = 0.3
    cfg = SolverConfig(ranks=ranks, schedule=ConstantStep(alpha), max_iters=1, seed=0)
    stepped, _ = tr_scaled_gd(x, cfg, init=cores)
    for n in range(3):
        sub = subchain_unfolding(subchain_tensor(cores, n))
        gram = sub.T @ sub
        g = grad_and_gram(cores, x, n)[0]
        h_block = np.kron(gram, np.eye(dims[n]))
        vec_new = core_unfolding(cores[n]).ravel(order="F") - alpha * np.linalg.solve(
            h_block, g.ravel(order="F"))
        expected = vec_new.reshape(dims[n], ranks[n] * ranks[(n + 1) % 3], order="F")
        assert np.abs(core_unfolding(stepped[n]) - expected).max() < 1e-10
    print("\nACCEPTANCE 7 PASS: complete-sample Hessian identity and "
          "matrix-vs-vectorized scaled step agree")


def test_criterion_8_ill_conditioned_trend():
    t0 = time.perf_counter()
    x, _ = synth_tensor(SynthSpec(order=3, dim=25, rank=3, kind="ill_conditioned",
                                  kappa=1e4, seed=2))
    seeds = range(10)
    iters = 1000

    def final_rses(solver, sampling, alphas, **extra):
        best = None
        for alpha in alphas:
            finals = []
            for seed in seeds:
                cfg = SolverConfig(
                    ranks=(3, 3, 3), schedule=ConstantStep(alpha), batch_grad=100,
                    max_iters=iters, eval_every=250, seed=seed, init_scale=0.3,
                    sampling=SamplingSpec(sampling), **extra)
                with np.errstate(over="ignore", invalid="ignore"):
                    _, trace = solver(x, cfg)
                finals.append(trace.final()[2])
            med = np.median(finals)
            if best is None or (np.isfinite(med) and med < best[0]):
                best = (med, alpha, finals)
        return best

    plain = final_rses(tr_brsgd, "uniform", (0.3, 1.0, 3.0, 10.0, 30.0))
    scaled = final_rses(tr_scaled_brsgd, "leverage", (0.01, 0.03, 0.1, 0.3, 1.0),
                        batch_hess=300, damping=1e-8)
    elapsed = time.perf_counter() - t0
    assert scaled[0] < plain[0], (scaled, plain)
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 8 PASS: kappa=1e4 medians over 10 seeds, "
          f"TR-ScaledBRSGD-L {scaled[0]:.2e} (alpha {scaled[1]}) < "
          f"TR-BRSGD-U {plain[0]:.2e} (alpha {plain[1]}) ({elapsed:.0f}s)")


def test_criterion_9_als_monotonicity(monkeypatch):
    rng = np.random.default_rng(9)
    for trial in range(10):
        n = 3 if trial % 2 == 0 else 4
        dims = tuple(rng.integers(4, 7, size=n))
        rank = 2 if trial % 3 else 3
        x = rng.standard_normal(dims)
        cfg = SolverConfig(ranks=(rank,) * n, max_iters=8, seed=trial)
        objs = als_objectives(x, cfg, monkeypatch)
        assert len(objs) == 8 * n
        f0 = objs[0]
        for a, b in zip(objs, objs[1:]):
            assert b <= a + 1e-12 * f0
    print("\nACCEPTANCE 9 PASS: ALS objective non-increasing across every core "
          "update on 10 random instances")


def test_criterion_10_determinism(tmp_path):
    config = {
        "tensor": {"synth": {"order": 3, "dim": 8, "rank": 2, "seed": 3}},
        "algorithms": ["tr-als", "tr-brsgd", "tr-scaled-brsgd"],
        "sampling": ["uniform", "leverage"],
        "solver": {
            "ranks": [2, 2, 2],
            "step": {"kind": "constant", "alpha": 0.05},
            "batch_grad": 10, "batch_hess": 20, "damping": 1e-8,
            "max_iters": 5,
        },
        "trials": 2,
        "seed": 11,
    }
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_experiment(config, out1, clock=counting_clock())
    run_experiment(config, out2, clock=counting_clock())
    names = sorted(p.name for p in out1.glob("*.csv"))
    assert len(names) == 2 + 2 * 2 * 2 + 1  # traces plus summary.csv
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    print(f"\nACCEPTANCE 10 PASS: {len(names)} CSV outputs byte-identical "
          "across reruns at one BLAS thread count")


def test_criterion_10_determinism_at_two_blas_threads():
    # runs are bitwise deterministic given (config, seed, BLAS build, BLAS
    # thread count); OpenBLAS reads its thread count when it loads, so the
    # rerun check runs again in a fresh interpreter at two threads
    src = os.path.dirname(os.path.dirname(trdecomp.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    t0 = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_criterion_10_determinism"],
        env=env, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - t0
    assert result.returncode == 0, result.stdout + result.stderr
    assert "1 passed" in result.stdout
    print(f"\nACCEPTANCE 10 PASS at OPENBLAS_NUM_THREADS=2 ({elapsed:.1f}s)")


def test_dense_solvers_rerun_bitwise():
    x, _ = synth_tensor(SynthSpec(order=3, dim=40, rank=3, seed=2))
    runs = [(tr_als, SolverConfig(ranks=(3, 3, 3), max_iters=6, eval_every=1, seed=2)),
            (tr_scaled_gd, SolverConfig(ranks=(3, 3, 3), schedule=ConstantStep(0.5),
                                        max_iters=10, eval_every=1, seed=2))]
    for solve, cfg in runs:
        (cores_a, trace_a), (cores_b, trace_b) = (
            solve(x, cfg, clock=counting_clock()) for _ in range(2))
        assert trace_a.records == trace_b.records, solve.__name__
        assert [c.tobytes() for c in cores_a] == [c.tobytes() for c in cores_b], solve.__name__


def test_dense_solvers_rerun_bitwise_at_two_blas_threads():
    # the in-place X_[n] products of TR-ALS and TR-ScaledGD, at two threads
    src = os.path.dirname(os.path.dirname(trdecomp.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    t0 = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_dense_solvers_rerun_bitwise"],
        env=env, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - t0
    assert result.returncode == 0, result.stdout + result.stderr
    assert "1 passed" in result.stdout
    print(f"\nTR-ALS and TR-ScaledGD reruns byte-identical at OPENBLAS_NUM_THREADS=2 "
          f"({elapsed:.1f}s)")


def test_criterion_11_adagrad_arithmetic():
    eta = 0.7
    acc = np.zeros((1, 1))
    d1 = np.array([[0.3]])
    d2 = np.array([[-0.2]])
    step1 = _adagrad_steps(acc, d1, AdaGradStep(eta))
    assert abs(step1[0, 0] - eta / 0.3) <= 1e-15 * (eta / 0.3)
    step2 = _adagrad_steps(acc, d2, AdaGradStep(eta))
    expected = eta / np.sqrt(0.3**2 + 0.2**2)
    assert abs(step2[0, 0] - expected) <= 1e-15 * expected
    print("\nACCEPTANCE 11 PASS: two-step accumulator arithmetic exact to 1e-15")
