"""hmmar: hidden-state estimation for Markov-switching AR(p) observation models.

The hidden state of a finite Markov chain drives the coefficients of an
autoregressive observation process.  This package simulates such models and
estimates the hidden state two ways: the optimal Bayes filter/predictor when
the transition matrix is known, and a nonparametric filter/predictor (kernel
conditional-density estimate projected onto the emission mixture via a
simplex-constrained QP) when it is not.  A Monte-Carlo harness compares the
two on repeated experiments.
"""

from .filters import FilterRun, run_filters, warmup_threshold
from .gaussian import product_integral
from .harness import (ConfigError, ErrorStat, ErrorSummary, ExperimentConfig,
                      config_from_dict, emit_trace, example_config,
                      example_config_path, load_config, run_experiment)
from .kde import (EmbeddedSample, conditional_weights, embed, oversmoothed_bandwidth,
                  ucv_bandwidth, ucv_objective)
from .model import (ArStateParams, SwitchingArModel, Trajectory,
                    TransitionMatrix, model_from_dict, simulate,
                    stationary_distribution)
from .simplex_qp import SimplexPoint, is_positive_definite, solve_kkt

__version__ = "0.1.0"

__all__ = [
    "ArStateParams", "ConfigError", "EmbeddedSample", "ErrorStat",
    "ErrorSummary", "ExperimentConfig", "FilterRun", "SimplexPoint",
    "SwitchingArModel", "Trajectory", "TransitionMatrix",
    "conditional_weights", "config_from_dict", "embed", "emit_trace",
    "example_config", "example_config_path", "is_positive_definite",
    "load_config", "model_from_dict", "oversmoothed_bandwidth", "product_integral",
    "run_experiment", "run_filters", "simulate", "solve_kkt",
    "stationary_distribution", "ucv_bandwidth", "ucv_objective", "warmup_threshold",
]
