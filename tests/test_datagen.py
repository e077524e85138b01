import math

import numpy as np
import pytest

from trdecomp.core import core_unfolding, tr_reconstruct, validate_cores
from trdecomp.datagen import (
    SynthSpec,
    _gaussian_cores,
    _ill_conditioned_cores,
    synth_tensor,
)
from trdecomp.metrics import rse
from trdecomp.solvers import SolverConfig, tr_als


class TestSpecValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            SynthSpec(order=1, dim=4, rank=2)
        with pytest.raises(ValueError):
            SynthSpec(order=3, dim=0, rank=2)
        with pytest.raises(ValueError):
            SynthSpec(order=3, dim=4, rank=2, kind="weird")
        with pytest.raises(ValueError):
            SynthSpec(order=3, dim=3, rank=2, kind="ill_conditioned")  # dim < rank^2
        with pytest.raises(ValueError):
            SynthSpec(order=3, dim=4, rank=2, kind="ill_conditioned", kappa=0.5)
        with pytest.raises(ValueError):
            SynthSpec(order=3, dim=4, rank=1, kind="ill_conditioned", kappa=10.0)
        with pytest.raises(ValueError, match="condition number must be >= 1"):
            SynthSpec(order=3, dim=4, rank=2, kind="ill_conditioned", kappa=math.nan)

    @pytest.mark.parametrize("kappa", [-5.0, 0.5, math.nan])
    def test_kappa_is_checked_for_every_kind(self, kappa):
        # a Gaussian spec ignores kappa, so a mistyped one would go unnoticed
        with pytest.raises(ValueError, match="condition number must be >= 1"):
            SynthSpec(order=3, dim=4, rank=2, kappa=kappa)


    def test_counts_are_integers_as_in_the_solver_config(self):
        # an integral float is taken as an int, a bool or a fraction refused,
        # as SolverConfig does: not met inside numpy, nor read as order 1
        spec = SynthSpec(order=3.0, dim=4.0, rank=2.0, seed=5.0)
        counts = (spec.order, spec.dim, spec.rank, spec.seed)
        assert counts == (3, 4, 2, 5) and all(type(v) is int for v in counts)
        x, _ = synth_tensor(spec)
        np.testing.assert_array_equal(x, synth_tensor(SynthSpec(order=3, dim=4, rank=2,
                                                                seed=5))[0])
        for key, value in [("order", True), ("dim", 4.5), ("rank", False), ("seed", 1.5)]:
            kwargs = {"order": 3, "dim": 4, "rank": 2, key: value}
            with pytest.raises(ValueError, match=f"{key} must be an integer, not"):
                SynthSpec(**kwargs)


class TestGaussianCores:
    def test_deterministic(self):
        spec = SynthSpec(order=3, dim=6, rank=2, seed=42)
        a = _gaussian_cores(spec)
        b = _gaussian_cores(spec)
        for c1, c2 in zip(a, b):
            np.testing.assert_array_equal(c1, c2)

    def test_seeds_differ(self):
        a = _gaussian_cores(SynthSpec(order=3, dim=6, rank=2, seed=1))
        b = _gaussian_cores(SynthSpec(order=3, dim=6, rank=2, seed=2))
        assert not np.array_equal(a[0], b[0])

    def test_moments(self):
        # enough entries for tight moment checks
        spec = SynthSpec(order=3, dim=900, rank=20, seed=7)
        cores = _gaussian_cores(spec)
        entries = np.concatenate([c.ravel() for c in cores])
        n = entries.size
        assert n >= 1_000_000
        assert abs(entries.mean()) <= 5.0 / np.sqrt(n)
        assert abs(entries.var() - 1.0) <= 0.02

    def test_shapes_and_chain(self):
        cores = _gaussian_cores(SynthSpec(order=4, dim=5, rank=3, seed=3))
        validate_cores(cores)
        assert all(c.shape == (3, 5, 3) for c in cores)


class TestIllConditionedCores:
    def test_kappa_one_gives_unit_condition(self):
        spec = SynthSpec(order=3, dim=5, rank=2, kind="ill_conditioned",
                         kappa=1.0, seed=4)
        for core in _ill_conditioned_cores(spec):
            s = np.linalg.svd(core_unfolding(core), compute_uv=False)
            np.testing.assert_allclose(s, np.ones(4), atol=1e-12)

    def test_condition_number(self):
        spec = SynthSpec(order=3, dim=6, rank=2, kind="ill_conditioned",
                         kappa=1e4, seed=5)
        for core in _ill_conditioned_cores(spec):
            s = np.linalg.svd(core_unfolding(core), compute_uv=False)
            assert s[0] / s[-1] == pytest.approx(1e4, rel=1e-8)

    def test_geometric_profile(self):
        spec = SynthSpec(order=3, dim=9, rank=3, kind="ill_conditioned",
                         kappa=1e3, seed=6)
        core = _ill_conditioned_cores(spec)[0]
        s = np.linalg.svd(core_unfolding(core), compute_uv=False)
        ratios = s[1:] / s[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-8)
        assert s[0] / s[-1] == pytest.approx(1e3, rel=1e-10)

    def test_right_factor_shared(self):
        # distinct singular values identify right singular vectors up to sign
        spec = SynthSpec(order=3, dim=6, rank=2, kind="ill_conditioned",
                         kappa=100.0, seed=8)
        cores = _ill_conditioned_cores(spec)
        _, _, vt1 = np.linalg.svd(core_unfolding(cores[0]), full_matrices=False)
        _, _, vt2 = np.linalg.svd(core_unfolding(cores[1]), full_matrices=False)
        align = np.abs(np.sum(vt1 * vt2, axis=1))
        np.testing.assert_allclose(align, np.ones(4), atol=1e-10)

    def test_rank_one(self):
        # R^2 = 1: one singular value, so the cores are unit vectors
        x, cores = synth_tensor(SynthSpec(order=3, dim=4, rank=1, kind="ill_conditioned",
                                          seed=3))
        np.testing.assert_array_equal(x, tr_reconstruct(cores))
        for core in cores:
            assert core.shape == (1, 4, 1)
            assert np.linalg.norm(core) == pytest.approx(1.0, rel=1e-14)

    def test_deterministic(self):
        spec = SynthSpec(order=3, dim=5, rank=2, kind="ill_conditioned",
                         kappa=10.0, seed=9)
        a = _ill_conditioned_cores(spec)
        b = _ill_conditioned_cores(spec)
        for c1, c2 in zip(a, b):
            np.testing.assert_array_equal(c1, c2)


class TestSynthTensor:
    def test_self_consistency(self):
        x, cores = synth_tensor(SynthSpec(order=3, dim=6, rank=2, seed=10))
        np.testing.assert_array_equal(x, tr_reconstruct(cores))
        assert rse(cores, x) == 0.0

    def test_memory_guard(self):
        with pytest.raises(ValueError, match="cap"):
            synth_tensor(SynthSpec(order=3, dim=1000, rank=2, seed=0))

    def test_recovery_by_als(self):
        x, _ = synth_tensor(SynthSpec(order=3, dim=10, rank=2, seed=11))
        cfg = SolverConfig(ranks=(2, 2, 2), max_iters=50, rse_tol=1e-9, seed=0)
        cores, trace = tr_als(x, cfg)
        assert trace.final()[2] < 1e-8
