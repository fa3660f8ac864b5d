"""Speciation and collapse times of empirical-score diffusion models on
manifold Gaussian-mixture data: theory evaluators plus desk-scale
stochastic experiments."""

from .activations import Activation, make_activation
from .collapse import (CollapseResult, FreeEnergyResult, collapse_method,
                       collapse_time, collapse_time_glm,
                       collapse_time_linear_isometry, collapse_time_linear_rmt,
                       f_rs, f_star, mp_logdet, psi, psi_big,
                       psi_big_linear, psi_quadrature_check,
                       stationarity_residual)
from .diffusion import DiffusionSchedule, EmpiricalScore, schedule
from .model import (Dataset, EmbeddingMatrix, ManifoldModel, SampleStream,
                    TheoryParams, build_embedding, make_model, model_from_config,
                    model_to_config, sample_count, sample_dataset)
from .speciation import (GammaFunctions, GepConstants, gamma0_rows,
                         gep_constants, lambdas, potential,
                         potential_curvature_at_zero, reduced_sde_simulate,
                         speciation_time_asymptotic, speciation_time_finite)
from .experiments import (ExperimentRecord, collapse_crossing_experiment,
                          free_energy_mc, model_hash, rem_derivative_check,
                          speciation_experiment, threshold_crossing,
                          tilted_log_partition)

__version__ = "0.1.0"
