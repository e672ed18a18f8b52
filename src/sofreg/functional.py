"""Discretized L2 primitives: grids, curve samples, centering, and FPC bases.

Curves are vectors of values on a shared equidistant grid over [a, b]; all
integrals are trapezoid-rule sums, so norms, distances and score projections
reduce to fixed-weight dot products.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DegenerateSampleError, GridMismatchError

#: Relative tolerance for the equidistance check on grid spacings.
GRID_SPACING_RTOL = 1e-9

#: Default variance-ratio cutoff used to pick the number of retained FPCs.
DEFAULT_VAR_CUTOFF = 0.005


@dataclass(frozen=True)
class Grid:
    """Equidistant abscissae in [a, b] with trapezoid quadrature weights."""

    points: np.ndarray
    spacing: float = field(init=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 3:
            raise GridMismatchError("grid needs at least 3 points")
        if not np.all(np.isfinite(pts)):
            raise GridMismatchError("grid points must be finite")
        diffs = np.diff(pts)
        if np.any(diffs <= 0):
            raise GridMismatchError("grid points must be strictly increasing")
        mean_step = float(diffs.mean())
        if np.max(np.abs(diffs - mean_step)) > GRID_SPACING_RTOL * mean_step:
            raise GridMismatchError("only equidistant grids are supported")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "spacing", mean_step)

    @classmethod
    def regular(cls, a: float = 0.0, b: float = 1.0, n_points: int = 201) -> "Grid":
        return cls(np.linspace(a, b, n_points))

    @property
    def n_points(self) -> int:
        return self.points.size

    @property
    def quad_weights(self) -> np.ndarray:
        """Trapezoid weights: spacing * [1/2, 1, ..., 1, 1/2]."""
        w = np.full(self.n_points, self.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w


@dataclass(frozen=True)
class FunctionalSample:
    """n discretized curves (rows) on a shared grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.atleast_2d(np.asarray(self.values, dtype=float))
        if vals.shape[1] != self.grid.n_points:
            raise GridMismatchError(
                f"curves have {vals.shape[1]} columns, grid has {self.grid.n_points} points"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("curve values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def sq_norms(self) -> np.ndarray:
        """Squared L2 norm of every curve."""
        return self.values**2 @ self.grid.quad_weights

    def pairwise_sq_distances(self) -> np.ndarray:
        """Matrix of squared L2 distances between curves."""
        g = (self.values * self.grid.quad_weights) @ self.values.T
        sq = np.diag(g)
        d2 = sq[:, None] + sq[None, :] - 2.0 * g
        np.fill_diagonal(d2, 0.0)
        return np.maximum(d2, 0.0)


def center(sample: FunctionalSample) -> tuple[FunctionalSample, np.ndarray]:
    """Subtract the cross-sectional mean curve; returns (centered sample, mean)."""
    mean_curve = sample.values.mean(axis=0)
    centered = FunctionalSample(sample.grid, sample.values - mean_curve)
    return centered, mean_curve


@dataclass(frozen=True)
class FpcBasis:
    """Eigenstructure of the sample covariance operator (1/n normalization).

    Attributes
    ----------
    eigenvalues : (K,) nonincreasing, nonnegative.
    eigenfunctions : (K, m) rows orthonormal under the grid inner product.
    scores : (n, K) projections of the centered curves on the eigenfunctions.
    mean_curve : (m,) mean subtracted before decomposing.
    var_cutoff : the variance-ratio cutoff that chose K.
    """

    grid: Grid
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    scores: np.ndarray
    mean_curve: np.ndarray
    var_cutoff: float

    @property
    def k_max(self) -> int:
        return self.eigenvalues.size

    @property
    def n(self) -> int:
        return self.scores.shape[0]


def project_scores(basis: FpcBasis, values: np.ndarray) -> np.ndarray:
    """Scores of arbitrary curves (rows) in an existing basis."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[1] != basis.grid.n_points:
        raise GridMismatchError("curves do not live on the basis grid")
    centered = values - basis.mean_curve
    return (centered * basis.grid.quad_weights) @ basis.eigenfunctions.T


def fpc_decompose(
    sample: FunctionalSample, var_cutoff: float = DEFAULT_VAR_CUTOFF
) -> FpcBasis:
    """Decompose the sample covariance operator into FPCs and scores.

    Components are retained while they explain more than `var_cutoff` of the
    total variance, plus the first component at or below the cutoff (K_max
    grows until its last component explains at most `var_cutoff`). Works
    through the SVD of the quadrature-weighted, centered data matrix scaled
    by 1/sqrt(n), which is equivalent to eigensolving the discretized
    covariance kernel but numerically stabler.

    Raises
    ------
    DegenerateSampleError
        If the centered sample has no variation (all curves identical).
    """
    if not 0.0 < var_cutoff <= 1.0:
        raise ValueError("var_cutoff must lie in (0, 1]")
    if sample.n < 2:
        raise DegenerateSampleError("need at least 2 curves to decompose")
    centered, mean_curve = center(sample)

    sqrt_w = np.sqrt(sample.grid.quad_weights)
    scaled = centered.values * sqrt_w / np.sqrt(sample.n)
    u, s, vt = np.linalg.svd(scaled, full_matrices=False)

    eigenvalues = s**2
    total = float(eigenvalues.sum())
    # relative to the data's own range, so the same curves in other units
    # decompose alike; equal constant curves can center to rounding dust
    scale = sample.values.max() - sample.values.min()
    if scale == 0.0 or total <= 1e-24 * scale**2:
        raise DegenerateSampleError(
            "sample covariance operator is null (all curves identical)"
        )
    ratios = eigenvalues / total
    k_max = max(1, int(np.sum(ratios > var_cutoff)))
    # include the first component at/below the cutoff unless it is numerical dust
    if k_max < ratios.size and eigenvalues[k_max] > 1e-12 * eigenvalues[0]:
        k_max += 1

    eigenfunctions = vt[:k_max] / sqrt_w
    scores = np.sqrt(sample.n) * u[:, :k_max] * s[:k_max]

    # Deterministic sign: largest-magnitude entry of each eigenfunction is positive.
    for k in range(k_max):
        j = int(np.argmax(np.abs(eigenfunctions[k])))
        if eigenfunctions[k, j] < 0:
            eigenfunctions[k] = -eigenfunctions[k]
            scores[:, k] = -scores[:, k]

    eigenfunctions.setflags(write=False)
    scores.setflags(write=False)
    return FpcBasis(
        grid=sample.grid,
        eigenvalues=eigenvalues[:k_max],
        eigenfunctions=eigenfunctions,
        scores=scores,
        mean_curve=mean_curve,
        var_cutoff=var_cutoff,
    )
