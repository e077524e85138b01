"""Tensor ring decomposition via block-randomized stochastic gradient methods.

Library layout:
  core       dense tensor primitives (unfoldings, subchain products, reconstruction,
             the streamed residual norm)
  sampling   per-core sampling distributions and subchain-row sampling
  solvers    TR-ALS, TR-GD, TR-ScaledGD, TR-BRSGD, TR-ScaledBRSGD
  datagen    seeded synthetic tensor generators
  metrics    RSE
  bench      experiment grid runner, trace CSVs, summary tables
  cli        command-line interface (see `trdecomp --help`)
"""

from .core import (
    classical_mode_n_unfolding,
    core_unfolding,
    fold_classical_mode_n,
    fold_core,
    mode_n_unfolding,
    residual_norm,
    slices_hadamard,
    subchain_product,
    subchain_tensor,
    subchain_unfolding,
    tr_reconstruct,
    validate_cores,
)
from .datagen import SynthSpec, gaussian_cores, ill_conditioned_cores, synth_tensor
from .metrics import rse
from .sampling import (
    SampleBatch,
    SamplingSpec,
    complete_sample_batch,
    core_dist_euclidean,
    core_dist_leverage,
    leverage_scores,
    optimal_distribution_oracle,
    sample_rows_batch,
    sample_subchain_fibers,
    variance_functional,
)
from .solvers import (
    AdaGradState,
    AdaGradStep,
    ConstantStep,
    RobbinsMonroStep,
    SolverConfig,
    adagrad_update,
    full_gradient,
    objective,
    search_direction,
    stochastic_gradient,
    stochastic_hessian,
    tr_als,
    tr_brsgd,
    tr_gd,
    tr_scaled_brsgd,
    tr_scaled_gd,
)
from .tensorfile import read_tensor, write_tensor
from .trace import RunTrace, read_trace_csv, write_trace_csv

__version__ = "0.1.0"
