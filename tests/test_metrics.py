import numpy as np
import pytest

from trdecomp.core import tr_reconstruct
from trdecomp.metrics import rse

from helpers import random_cores


class TestRse:
    def test_exact_reconstruction(self):
        rng = np.random.default_rng(0)
        cores = random_cores(rng, (3, 4, 5), (2, 2, 2))
        assert rse(cores, tr_reconstruct(cores)) == 0.0

    def test_zero_cores_give_one(self):
        rng = np.random.default_rng(1)
        truth = tr_reconstruct(random_cores(rng, (3, 4), (2, 2)))
        zeros = [np.zeros((2, 3, 2)), np.zeros((2, 4, 2))]
        assert rse(zeros, truth) == pytest.approx(1.0, rel=1e-15)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(2)
        cores = random_cores(rng, (3, 4, 2), (2, 2, 2))
        truth = rng.standard_normal((3, 4, 2))
        est = tr_reconstruct(cores)
        expected = np.sqrt(np.sum((est - truth) ** 2)) / np.sqrt(np.sum(truth**2))
        assert rse(cores, truth) == pytest.approx(expected, rel=1e-13)

    def test_zero_truth_raises(self):
        rng = np.random.default_rng(3)
        cores = random_cores(rng, (3, 4), (2, 2))
        with pytest.raises(ValueError):
            rse(cores, np.zeros((3, 4)))

    @pytest.mark.parametrize("entry, scale", [(np.nan, 1.0), (np.inf, 1.0), (0.0, 1e300)],
                             ids=["nan", "inf", "norm-overflows"])
    def test_reference_without_rse_raises(self, entry, scale):
        # the solvers refuse to fit these tensors for the same reason
        rng = np.random.default_rng(4)
        cores = random_cores(rng, (3, 4), (2, 2))
        truth = tr_reconstruct(cores) * scale
        truth[1, 2] += entry
        with pytest.raises(ValueError, match="RSE undefined"):
            rse(cores, truth)
