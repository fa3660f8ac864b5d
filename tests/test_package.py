"""The package's public names."""
import types

import manifold_diffusion

# every name `manifold_diffusion` exports; a name leaves (or joins) this
# list only together with the code and tests that go with it
PUBLIC = {
    "Activation", "CollapseResult", "Dataset", "DiffusionSchedule",
    "EmbeddingMatrix", "EmpiricalScore", "ExperimentRecord",
    "FreeEnergyResult", "GammaFunctions", "GepConstants", "ManifoldModel",
    "SampleStream", "TheoryParams", "build_embedding", "collapse_crossing_experiment",
    "collapse_method", "collapse_time", "collapse_time_glm",
    "collapse_time_linear_isometry", "collapse_time_linear_rmt", "f_rs",
    "f_star", "free_energy_mc", "gamma0_rows", "gep_constants", "lambdas",
    "make_activation", "make_model", "model_from_config", "model_hash",
    "model_to_config", "mp_logdet", "potential",
    "potential_curvature_at_zero", "psi", "psi_big", "psi_big_linear",
    "psi_quadrature_check", "reduced_sde_simulate", "rem_derivative_check",
    "sample_count", "sample_dataset", "schedule", "speciation_experiment",
    "speciation_time_asymptotic", "speciation_time_finite",
    "stationarity_residual", "threshold_crossing", "tilted_log_partition",
}


def test_public_names_are_pinned():
    names = {name for name, value in vars(manifold_diffusion).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC
