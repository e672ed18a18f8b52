"""Exception hierarchy shared across the package, and the seed rule."""

import numbers


class SofregError(Exception):
    """Base class for all library errors."""


class GridMismatchError(SofregError):
    """Curves or samples do not live on the same grid."""


class DegenerateSampleError(SofregError):
    """A sample carries no usable variation (identical curves, zero spread)."""


class ConfigError(SofregError):
    """Invalid user-supplied configuration."""


class NumericalError(SofregError):
    """A numerical procedure produced a non-finite result."""


class CsvFormatError(SofregError):
    """Malformed input file; carries the offending 1-based line number and
    the message without it."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line, self.message = line, message


def check_seed(seed) -> None:
    """The seed rule: refuse None, which draws from OS entropy, and a negative integer.

    Every function that takes a seed checks it here before any work:
    `fit_slope` (and through it `wild_bootstrap_test`), `lasso_select`,
    `golden_section_multipliers`, `gen_ou_sample`, `gen_responses`,
    `gen_missing`, `generate_dataset` and `mc_experiment`. So a seed is
    refused alike whether or not a LASSO or a draw would read it, and no
    result depends on entropy that a rerun cannot repeat. Anything else
    `numpy.random.default_rng` takes (a sequence, a Generator) passes.
    """
    if seed is None:
        raise ConfigError("a seed is required; None would draw from OS entropy")
    if isinstance(seed, numbers.Integral) and seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed}")
