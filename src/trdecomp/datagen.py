"""Seeded synthetic tensor generators.

Two families: cores with i.i.d. standard normal entries (well conditioned),
and cores whose unfoldings share a fixed right factor and have geometrically
decaying singular values so each unfolding has a prescribed condition number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import fold_core, tr_reconstruct
from .solvers import check_fields

GENERATOR_KINDS = ("gaussian", "ill_conditioned")
# synth_tensor refuses larger tensors (8 bytes an entry: 800 MB)
MAX_SYNTH_ENTRIES = 100_000_000


@dataclass(frozen=True)
class SynthSpec:
    """Cubical synthetic instance: `order` cores of shape (rank, dim, rank).
    Bad values raise ValueError: types first (`solvers.check_fields`), then ranges."""

    order: int
    dim: int
    rank: int
    kind: str = "gaussian"
    kappa: float = 1.0
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.order < 2:
            raise ValueError("tensor order must be >= 2")
        if self.dim < 1 or self.rank < 1:
            raise ValueError("dim and rank must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, not {self.seed}")
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        # checked for every kind, so a mistyped kappa never goes unnoticed;
        # written so that NaN fails it
        if not self.kappa >= 1:
            raise ValueError("condition number must be >= 1")
        if self.kind == "ill_conditioned":
            if self.dim < self.rank**2:
                raise ValueError(
                    f"ill-conditioned cores need dim >= rank^2 "
                    f"({self.dim} < {self.rank**2})"
                )
            if self.rank == 1 and self.kappa != 1:
                raise ValueError("rank 1 admits only condition number 1")


def _rng(spec: SynthSpec) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(spec.seed)))


def _orthonormal_columns(rng, rows, cols):
    # QR of a Gaussian matrix; fixing the R diagonal signs makes it unique.
    q, r = np.linalg.qr(rng.standard_normal((rows, cols)))
    return q * np.sign(np.diag(r))


def _gaussian_cores(spec: SynthSpec) -> list[np.ndarray]:
    """Cores with i.i.d. standard normal entries."""
    rng = _rng(spec)
    return [
        rng.standard_normal((spec.rank, spec.dim, spec.rank))
        for _ in range(spec.order)
    ]


def _ill_conditioned_cores(spec: SynthSpec) -> list[np.ndarray]:
    """Cores whose unfoldings are U_n S V^T with fresh orthonormal U_n per
    core, a single orthogonal V shared by all cores, and singular values
    decaying geometrically from 1 to 1/kappa."""
    rng = _rng(spec)
    r2 = spec.rank**2
    v = _orthonormal_columns(rng, r2, r2)
    if r2 > 1:
        s = spec.kappa ** (-np.arange(r2) / (r2 - 1))
    else:
        s = np.ones(1)
    cores = []
    for _ in range(spec.order):
        u = _orthonormal_columns(rng, spec.dim, r2)
        unfolding = (u * s) @ v.T
        cores.append(fold_core(unfolding, spec.rank, spec.rank))
    return cores


def synth_tensor(spec: SynthSpec):
    """Ground-truth cores and the dense tensor they represent."""
    if spec.dim**spec.order > MAX_SYNTH_ENTRIES:
        raise ValueError(
            f"synthetic tensor would hold {spec.dim**spec.order} entries "
            f"(cap {MAX_SYNTH_ENTRIES})"
        )
    if spec.kind == "gaussian":
        cores = _gaussian_cores(spec)
    else:
        cores = _ill_conditioned_cores(spec)
    return tr_reconstruct(cores), cores


__all__ = ["GENERATOR_KINDS", "SynthSpec", "synth_tensor"]
