"""Scalar-on-function linear regression under MAR responses, with a
projected Cramer-von Mises linearity test and a Monte Carlo harness."""

__version__ = "0.1.0"

from .estimators import FunctionalSlope, MarSample, fit_slope
from .exceptions import (
    ConfigError,
    CsvFormatError,
    DegenerateSampleError,
    GridMismatchError,
    NumericalError,
    SingularBasisError,
    SofregError,
)
from .functional import FunctionalSample, Grid, fpc_decompose
from .gof import GofResult, wild_bootstrap_test
from .simulation import DgpConfig, generate_dataset, mc_experiment
