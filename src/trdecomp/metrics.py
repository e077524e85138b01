"""Fit metrics reported by the benchmark harness."""

from __future__ import annotations

import math

import numpy as np

from .core import residual_norm


def reference_norm(x: np.ndarray) -> float:
    """||x||_F, the RSE denominator.  A tensor with no entries, only zeros or
    a non-finite norm (a NaN or inf entry, or entries whose squares overflow)
    has no RSE: ValueError."""
    with np.errstate(over="ignore"):  # an overflowing norm is rejected below
        norm = np.linalg.norm(x)
    if not 0 < norm < math.inf:
        raise ValueError(f"cannot fit or score against a tensor of norm {norm}: it is "
                         "empty, all zero or not finite (RSE undefined)")
    return norm


def rse(cores, truth: np.ndarray) -> float:
    """Relative square error ||TR(cores) - truth||_F / ||truth||_F; a truth
    `reference_norm` refuses raises ValueError."""
    truth = np.asarray(truth)
    denom = reference_norm(truth)
    return float(residual_norm(cores, truth) / denom)


__all__ = ["reference_norm", "rse"]
