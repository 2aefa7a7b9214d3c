"""Gaussian-process surrogates with stochastic-search variable selection.

Fit ordinary-kriging models to computer-experiment data, place a
normal-mixture prior with latent inclusion indicators on the correlation
parameters, sample the posterior by Metropolis-within-Gibbs, and read off
which inputs matter.

The names below are the user-facing API; the modules (designs, gp, sampler,
report, testbed, io, linalg) hold the rest.
"""

from .designs import maximin_lhd, random_lhd
from .errors import (
    BenchmarkError,
    IllConditionedError,
    NotPositiveDefiniteError,
    OptimizerFailedError,
    SamplerError,
)
from .gp import Dataset, FitOptions, GpParams, Prediction, mle_fit, predict_batch
from .report import select_variables
from .sampler import Chain, Hyperparams, default_hyperparams, run_chain
from .testbed import BenchmarkSpec, run_benchmark

__version__ = "0.1.0"

__all__ = [
    "BenchmarkError",
    "BenchmarkSpec",
    "Chain",
    "Dataset",
    "FitOptions",
    "GpParams",
    "Hyperparams",
    "IllConditionedError",
    "NotPositiveDefiniteError",
    "OptimizerFailedError",
    "Prediction",
    "SamplerError",
    "default_hyperparams",
    "maximin_lhd",
    "mle_fit",
    "predict_batch",
    "random_lhd",
    "run_benchmark",
    "run_chain",
    "select_variables",
]
