"""Fit metrics reported by the benchmark harness."""

from __future__ import annotations

import numpy as np

from .core import residual_norm


def rse(cores, truth: np.ndarray) -> float:
    """Relative square error ||TR(cores) - truth||_F / ||truth||_F."""
    truth = np.asarray(truth)
    denom = np.linalg.norm(truth)
    if denom == 0:
        raise ValueError("RSE undefined for an all-zero reference tensor")
    return float(residual_norm(cores, truth) / denom)


__all__ = ["rse"]
