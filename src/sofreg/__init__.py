"""Scalar-on-function linear regression under MAR responses, with a
projected Cramer-von Mises linearity test and a Monte Carlo harness."""

from .estimators import (
    FunctionalSlope,
    MarSample,
    ObservanceModel,
    fit_observance,
    fit_slope,
    joint_loocv_cutoffs,
    observed_pairs_basis,
)
from .exceptions import (
    ConfigError,
    CsvFormatError,
    DegenerateSampleError,
    GridMismatchError,
    NumericalError,
    SingularBasisError,
    SofregError,
)
from .functional import (
    FpcBasis,
    FunctionalSample,
    Grid,
    center,
    fpc_decompose,
    inner_product,
    norm,
    project_scores,
)
from .gof import (
    AMatrix,
    GofResult,
    build_a_matrix,
    golden_section_multipliers,
    pcvm_statistic,
    residuals,
    wild_bootstrap_test,
)
from .simulation import (
    CellResult,
    DgpConfig,
    McReport,
    beta_curve,
    gen_missing,
    gen_ou_sample,
    gen_responses,
    generate_dataset,
    mc_experiment,
    mse_estimation,
    ou_covariance,
)

__version__ = "0.1.0"
