"""Tensor ring decomposition via block-randomized stochastic gradient methods.

Library layout:
  core       dense tensor primitives (unfoldings, subchain products, reconstruction,
             the streamed residual norm)
  sampling   per-core sampling distributions and subchain-row sampling
  solvers    TR-ALS, TR-GD, TR-ScaledGD, TR-BRSGD, TR-ScaledBRSGD
  datagen    seeded synthetic tensor generators
  metrics    RSE
  bench      experiment grid runner, trace CSVs, summary tables
  tensorfile the binary .trt tensor format
  trace      run traces and their CSV files
  cli        command-line interface (see `trdecomp --help`)

The top level exports the user API (`__all__`): the five solvers with their
configuration, synthetic data, the RSE and residual, tensor files and run
traces.  Layer functions are imported from their own modules.
"""

from .core import residual_norm, tr_reconstruct
from .datagen import SynthSpec, synth_tensor
from .metrics import rse
from .sampling import SamplingSpec
from .solvers import (AdaGradStep, ConstantStep, RobbinsMonroStep, SolverConfig,
                      tr_als, tr_brsgd, tr_gd, tr_scaled_brsgd, tr_scaled_gd)
from .tensorfile import read_tensor, write_tensor
from .trace import RunTrace, read_trace_csv, write_trace_csv

__all__ = [
    # solvers and their configuration
    "tr_als", "tr_gd", "tr_scaled_gd", "tr_brsgd", "tr_scaled_brsgd",
    "SolverConfig", "ConstantStep", "RobbinsMonroStep", "AdaGradStep", "SamplingSpec",
    # data, fit and files
    "SynthSpec", "synth_tensor", "rse", "residual_norm", "tr_reconstruct",
    "read_tensor", "write_tensor", "RunTrace", "read_trace_csv", "write_trace_csv",
]

__version__ = "0.1.0"
