"""Discretized L2 primitives: grids, curve samples, and FPC bases.

Curves are vectors of values on a shared equidistant grid over [a, b]; all
integrals are trapezoid-rule sums, so norms, distances and score projections
reduce to fixed-weight dot products.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .exceptions import DegenerateSampleError, GridMismatchError

#: Relative tolerance for the equidistance check on grid spacings.
GRID_SPACING_RTOL = 1e-9

#: Default variance-ratio cutoff used to pick the number of retained FPCs.
DEFAULT_VAR_CUTOFF = 0.005


class ReadOnlyArrays:
    """Base of a value class: a frozen dataclass that compares and hashes by identity.

    Declare the subclass `@dataclass(frozen=True, eq=False)`. Its
    `__post_init__` replaces each ndarray field by a read-only copy, so no
    caller's array is frozen in place, and no later write to one reaches the
    object. A subclass that converts or checks its arrays does so first and
    then calls `super().__post_init__()`.
    """

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                copy = np.array(value)  # keeps the memory order; ndarray.copy would not
                copy.setflags(write=False)
                object.__setattr__(self, f.name, copy)


@dataclass(frozen=True, eq=False)
class Grid(ReadOnlyArrays):
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
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "spacing", mean_step)
        super().__post_init__()

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


@dataclass(frozen=True, eq=False)
class FunctionalSample(ReadOnlyArrays):
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
        object.__setattr__(self, "values", vals)
        super().__post_init__()

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


@dataclass(frozen=True, eq=False)
class FpcBasis(ReadOnlyArrays):
    """Eigenstructure of the sample covariance operator (1/n normalization).

    A value class (`ReadOnlyArrays`): it compares and hashes by identity, so
    it can key per-basis memos, and its arrays are read-only copies of those
    it was given.

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
    grows until its last component explains at most `var_cutoff`).

    With C the centered curves times sqrt(w / n) (w the quadrature weights),
    the eigenvalues are those of the smaller of the two Gram matrices of C
    (Ramsay & Silverman 2005, Functional Data Analysis, sec. 8.4):

    - n <= grid points: C C' = U diag(lambda) U', scores sqrt(n) U_k s_k and
      eigenfunctions C' U_k / s_k / sqrt(w), with s_k = sqrt(lambda_k); the
      scores skip the product with C, which would carry the error of U_k
      along the larger components into them;
    - otherwise: C'C = V diag(lambda) V', eigenfunctions V_k / sqrt(w) and
      scores sqrt(n) C V_k.

    Eigenvalues are sorted in descending order and clamped at zero. A
    symmetric eigensolver perturbs each by a few eps * lambda_1, so lambda_k
    keeps a relative accuracy of about eps * lambda_1 / lambda_k, and an
    eigenfunction about eps * lambda_1 over its eigenvalue gap; a retained
    component explains more than the cutoff of the variance, which bounds
    lambda_1 / lambda_k. The thin SVD of C gives the same basis within
    these bounds at about two to three times the cost.

    Raises
    ------
    DegenerateSampleError
        If the centered sample has no variation (all curves identical).
    """
    if not 0.0 < var_cutoff <= 1.0:
        raise ValueError("var_cutoff must lie in (0, 1]")
    n = sample.n
    if n < 2:
        raise DegenerateSampleError("need at least 2 curves to decompose")
    mean_curve = sample.values.mean(axis=0)

    sqrt_w = np.sqrt(sample.grid.quad_weights)
    scaled = (sample.values - mean_curve) * (sqrt_w / np.sqrt(n))
    curves_side = n <= sample.grid.n_points
    gram = scaled @ scaled.T if curves_side else scaled.T @ scaled
    eigenvalues, vectors = np.linalg.eigh(gram)
    eigenvalues = np.maximum(eigenvalues[::-1], 0.0)

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

    top = vectors[:, ::-1][:, :k_max]
    if curves_side:
        s = np.sqrt(eigenvalues[:k_max])
        eigenfunctions = (top.T @ scaled) / s[:, None] / sqrt_w
        scores = np.sqrt(n) * top * s
    else:
        eigenfunctions = top.T / sqrt_w
        scores = np.sqrt(n) * (scaled @ top)

    # Deterministic sign: largest-magnitude entry of each eigenfunction is positive.
    for k in range(k_max):
        j = int(np.argmax(np.abs(eigenfunctions[k])))
        if eigenfunctions[k, j] < 0:
            eigenfunctions[k] = -eigenfunctions[k]
            scores[:, k] = -scores[:, k]

    return FpcBasis(
        grid=sample.grid,
        eigenvalues=eigenvalues[:k_max],
        eigenfunctions=eigenfunctions,
        scores=scores,
        mean_curve=mean_curve,
        var_cutoff=var_cutoff,
    )
