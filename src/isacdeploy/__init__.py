"""Cooperative array node deployment optimization.

Places and orients antenna-array nodes so that a coverage region can be
localized robustly: a distance-weighted steering-vector correlation scores
how confusable grid points are, a real-coded genetic algorithm minimizes the
worst-case score, and a MUSIC Monte Carlo simulator validates the resulting
deployments against baselines and random placements. Importing the package
first keeps numpy's BLAS on the calling thread unless the user chose otherwise.
"""

import os

# The Monte Carlo pool (`--threads`) is the process's one thread pool. BLAS
# threads spin against it on the small 12x12 and 12x200 products: on a 2-core
# box, 4 deployments x 241 points at 50 trials took 5.0 s at 2 pool threads
# with OpenBLAS threads on (4.4-5.4 s at 1), and 2.1-2.2 s pinned.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

from isacdeploy.config import (
    EXPERIMENT_KINDS,
    ConfigError,
    ExperimentConfig,
    ExperimentSettings,
    config_to_dict,
    deployment_to_dict,
    load_config,
    load_deployment,
    parse_config,
    parse_deployment,
    with_seed,
)
from isacdeploy.correlation import (
    CorrelationReport,
    GridCodebook,
    UndefinedCorrelationError,
    build_codebook,
    frobenius_separability,
    max_weighted_correlation,
    overlap_decompose,
    pearson,
    weight_slabs,
    weighted_correlation,
)
from isacdeploy.experiments import (
    InfeasibleDeploymentError,
    ResultBundle,
    Table,
    derived_rng,
    run_alpha_sweep,
    run_evaluate,
    run_experiment,
    run_montecarlo,
    run_node_sweep,
    run_optimize,
    run_snr_sweep,
)
from isacdeploy.ga import (
    GaParams,
    GaResult,
    GeneBounds,
    decode_chromosome,
    deployment_bounds,
    encode_deployment,
    fitness,
    polynomial_mutation,
    project_feasible,
    run_ga,
    sbx_crossover,
    tournament_select,
)
from isacdeploy.geometry import (
    SPEED_OF_LIGHT,
    DegenerateGeometryError,
    Deployment,
    Scenario,
    UnsupportedConfigurationError,
    coverage_grid,
    deployment_layout,
    deployment_violations,
    midpoint_baseline,
    random_deployment,
    steering_matrix,
    steering_vector,
    wavelength_of,
    wrap_angle,
)
from isacdeploy.music import (
    LocalizationStats,
    localize,
    rmse_map,
    rmse_maps,
)
from isacdeploy.signals import (
    PowerLevels,
    complex_normal,
    generate_snapshots,
    sample_covariance,
    snr_to_powers,
)

__version__ = "0.1.0"

__all__ = [
    "EXPERIMENT_KINDS",
    "SPEED_OF_LIGHT",
    "ConfigError",
    "CorrelationReport",
    "DegenerateGeometryError",
    "Deployment",
    "ExperimentConfig",
    "ExperimentSettings",
    "GaParams",
    "GaResult",
    "GeneBounds",
    "GridCodebook",
    "InfeasibleDeploymentError",
    "LocalizationStats",
    "PowerLevels",
    "ResultBundle",
    "Scenario",
    "Table",
    "UndefinedCorrelationError",
    "UnsupportedConfigurationError",
    "build_codebook",
    "complex_normal",
    "config_to_dict",
    "coverage_grid",
    "decode_chromosome",
    "deployment_bounds",
    "deployment_layout",
    "deployment_to_dict",
    "deployment_violations",
    "derived_rng",
    "encode_deployment",
    "fitness",
    "frobenius_separability",
    "generate_snapshots",
    "load_config",
    "load_deployment",
    "localize",
    "max_weighted_correlation",
    "midpoint_baseline",
    "overlap_decompose",
    "parse_config",
    "parse_deployment",
    "pearson",
    "polynomial_mutation",
    "project_feasible",
    "random_deployment",
    "rmse_map",
    "rmse_maps",
    "run_alpha_sweep",
    "run_evaluate",
    "run_experiment",
    "run_ga",
    "run_montecarlo",
    "run_node_sweep",
    "run_optimize",
    "run_snr_sweep",
    "sample_covariance",
    "sbx_crossover",
    "snr_to_powers",
    "steering_matrix",
    "steering_vector",
    "tournament_select",
    "wavelength_of",
    "weight_slabs",
    "weighted_correlation",
    "with_seed",
    "wrap_angle",
]
