"""Projected Cramer-von Mises linearity test with wild-bootstrap calibration.

The statistic integrates a residual-marked empirical process over projection
directions confined to the span of the FPCs used by the fitted slope. That
integral has a closed form: a quadratic form of the observed-pair residuals
in a matrix A built from spherical angles between score-difference vectors.
Since the angles of a triangle sum to pi, A needs only two of the three
angles of each triangle of distinct score points; coincident score rows
enter as one point weighted by their count. The points are visited as
vertices in blocks: one batched matmul and one arccos give the angles of
every triangle at a block's vertices, and each block holds as many vertices
as keep that angle tensor within a fixed entry budget, _BLOCK_ENTRIES, so
its working set stays in cache.

Calibration resamples residuals with golden-section multipliers and refits
the slope coefficients with every selected structure (index sets, cutoffs,
observance probabilities, and A itself) frozen at the original fit. The
refit belongs to the fit and lives in `estimators`:
`FunctionalSlope.refit_residuals` runs it, completing a two-stage fit's
responses by the estimators' own completion rule, and
`FunctionalSlope.observed_scores` gives the score rows of the observed pairs
that A is built on. This module keeps A, the statistic and the quadratic
form. At frozen structure the refit residuals are linear in the bootstrap
responses, res = y* R, and y* = mu + v * eps, so each replicate statistic is
a quadratic form in its multipliers v: no replicate refits. A is built once
per sample and score block and kept on the sample.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .estimators import FunctionalSlope, MarSample, fit_slope
from .exceptions import ConfigError, GridMismatchError, NumericalError, check_seed
from .functional import FpcBasis, ReadOnlyArrays

#: Relative tolerance under which two score vectors count as coincident.
SCORE_COINCIDENCE_RTOL = 1e-12

#: Vertex angles (radians) this close to 0 or pi are taken from chord lengths.
_CHORD_ANGLE = 1e-4

#: Entries (r1^2 per vertex) of one vertex block's angle tensor: 2^16 float64
#: values, 512 KB, so that a block's working set stays in cache.
_BLOCK_ENTRIES = 2**16

GOLDEN_LOW = (1.0 - math.sqrt(5.0)) / 2.0
GOLDEN_HIGH = (1.0 + math.sqrt(5.0)) / 2.0
GOLDEN_P_LOW = (5.0 + math.sqrt(5.0)) / 10.0


@dataclass(frozen=True, eq=False)
class AMatrix(ReadOnlyArrays):
    """Closed-form projection-integral matrix for a block of score rows."""

    values: np.ndarray

    @property
    def n_s(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class GofResult(ReadOnlyArrays):
    """Observed statistic, bootstrap replicates, and the resulting p-value of
    the test of `slope`, the fit whose tag and selection were tested."""

    statistic: float
    bootstrap_statistics: np.ndarray
    p_value: float
    slope: FunctionalSlope
    seed: int
    n_obs: int

    @property
    def b(self) -> int:
        return self.bootstrap_statistics.size


def _unit_differences(block: np.ndarray):
    """Unit difference vectors between the distinct points of a score block.

    Two rows coincide when their sup-norm distance is at most
    SCORE_COINCIDENCE_RTOL times the larger of their sup-norms; coincident
    rows collapse into one point. Returns (unit, weights, point):
    unit[a, b] = (x_b - x_a) / |x_b - x_a| between points (zero for a = b),
    weights[a] counts the rows at point a, and point[i] is row i's point.
    Raises ValueError when coincidence is not transitive, since the rows
    then form no set of points.
    """
    diff = block[None, :, :] - block[:, None, :]
    gap = np.zeros(diff.shape[:2])
    for k in range(diff.shape[2]):  # one column at a time: no second n*n*K array
        np.maximum(gap, np.abs(diff[:, :, k]), out=gap)
    row_scale = np.max(np.abs(block), axis=1)
    pair_scale = np.maximum(row_scale[:, None], row_scale[None, :])
    floor = np.finfo(float).tiny
    coincident = gap <= SCORE_COINCIDENCE_RTOL * np.maximum(pair_scale, floor)
    first = np.argmax(coincident, axis=1)
    if not np.array_equal(coincident, first[:, None] == first[None, :]):
        raise ValueError("score rows coincide non-transitively")
    points, point, weights = np.unique(first, return_inverse=True, return_counts=True)
    if points.size < block.shape[0]:
        diff = diff[np.ix_(points, points)]
    lengths = np.sqrt(np.einsum("abk,abk->ab", diff, diff))
    np.fill_diagonal(lengths, 1.0)
    diff /= lengths[:, :, None]
    return diff, weights.astype(float), point


@functools.cache
def _fringe_pattern(width: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices (i, j) with j <= i < width: vertex r0 + j of a block against point r0 + i.

    Read-only, and cached: _BLOCK_ENTRIES keeps every width below 40.
    """
    pattern = np.tril_indices(width)
    for index in pattern:
        index.setflags(write=False)
    return pattern


def _block_edges(n_p: int) -> list[int]:
    """Edges 1 = e_0 < e_1 < ... = n_p of the vertex blocks over n_p points.

    Block [r0, r1) holds the most vertices whose (r1, r1, r1 - r0) angle
    tensor fits _BLOCK_ENTRIES, and at least one.
    """
    edges = [1]
    while edges[-1] < n_p:
        r0, width = edges[-1], 1
        while r0 + width < n_p and (r0 + width + 1) ** 2 * (width + 1) <= _BLOCK_ENTRIES:
            width += 1
        edges.append(r0 + width)
    return edges


def _block_angles(unit: np.ndarray, r0: int, r1: int, fringe: tuple, out: np.ndarray) -> np.ndarray:
    """t[a, b, j] = angle at point a of the triangle (a, b, r0 + j) for a, b < r0 + j.

    One batched matmul into `out` gives the cosines of the block's vertices
    r0 <= r < r1 with j = r - r0 last. t[a, a, j] = pi; the fringe, where a
    or b is at or past r0 + j, is zero. arccos magnifies the rounding of a
    cosine near +-1, so angles within _CHORD_ANGLE of 0 or pi come from the
    chord between the two unit vectors. The fringe is zeroed before arccos
    too (cosine 0), so it never reaches that fix-up.
    """
    width = r1 - r0
    t = out[: r1 * r1 * width].reshape(r1, r1, width)
    # a contiguous (r1, K, width) right operand: with the strided view the
    # batched products of a wide block ran up to ~3x slower
    np.matmul(unit[:r1, :r1], np.ascontiguousarray(unit[:r1, r0:r1].transpose(0, 2, 1)), out=t)
    i, j = fringe
    t[i, :, j] = 0.0
    t[:, i, j] = 0.0
    np.clip(t, -1.0, 1.0, out=t)
    np.arccos(t, out=t)
    # in one dimension every cosine is exactly +-1 and arccos is exact
    if unit.shape[2] > 1:
        flat = np.flatnonzero((t < _CHORD_ANGLE) | (t > np.pi - _CHORD_ANGLE))
        if flat.size:
            fa, fb, fj = np.unravel_index(flat, t.shape)
            obtuse = t[fa, fb, fj] > 0.5 * np.pi
            away = np.where(obtuse, -1.0, 1.0)[:, None] * unit[fa, r0 + fj]
            chord = np.linalg.norm(unit[fa, fb] - away, axis=1)
            small = 2.0 * np.arcsin(np.minimum(0.5 * chord, 1.0))
            t[fa, fb, fj] = np.where(obtuse, np.pi - small, small)
    t.reshape(r1 * r1, width)[:: r1 + 1] = np.pi
    t[i, :, j] = 0.0
    t[:, i, j] = 0.0
    return t


def _half_sums(unit: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """half such that half + half.T sums, over third points, the terms between distinct points.

    The angle tensor and the weighted sum of each block reuse two buffers:
    a fresh array per block would pay its page faults every time. Only
    blocks of two or more vertices fill the second one, and those have
    r1^2 <= _BLOCK_ENTRIES / 2.
    """
    n_p = weights.size
    edges = _block_edges(n_p)
    angles = np.empty(max((r1 * r1 * (r1 - r0) for r0, r1 in zip(edges, edges[1:])), default=0))
    weighted = np.empty(min(n_p * n_p, _BLOCK_ENTRIES // 2))
    below = np.cumsum(weights) - weights  # rows at points before r (exact: counts)
    half = np.zeros((n_p, n_p))
    for r0, r1 in zip(edges, edges[1:]):
        width = r1 - r0
        i, j = _fringe_pattern(width)
        fringe = (r0 + i, j)
        t = _block_angles(unit, r0, r1, fringe, angles)
        # the terms of third points b < r in A_ar: sum over b of
        # w_b * (pi - t[b, a, r]); t[a, a] = pi drops b = a
        pair_terms = np.pi * below[r0:r1] - (weights[:r1] @ t.reshape(r1, -1)).reshape(r1, width)
        pair_terms[fringe] = 0.0
        half[:r1, r0:r1] += pair_terms
        # the terms of the block's vertices r in A_ab: sum over r of
        # w_r * t[a, b, r]; for one vertex, scaling t in place beats a gemv
        # over a single column
        if width == 1:
            t *= weights[r0]
            half[:r1, :r1] += t[:, :, 0]
        else:
            terms = weighted[: r1 * r1]
            np.dot(t.reshape(r1 * r1, width), weights[r0:r1], out=terms)
            half[:r1, :r1] += terms.reshape(r1, r1)
    return half


def build_a_matrix(score_block: np.ndarray) -> AMatrix:
    """Assemble A with entries A_lm = sum_r c * angle_term(l, m, r).

    angle_term is 2*pi when the three score vectors coincide, pi when exactly
    one pair does, and pi - (angle at vertex r between the difference
    vectors) otherwise; c = pi^(N_K/2 - 1) / Gamma(N_K / 2), with N_K the
    width of the (n_s, N_K) block. From N_K = 344, where Gamma(N_K / 2)
    overflows, c is computed in log space; from N_K = 438 it is no longer a
    normal float (0.0 from 455, which would make every p-value 1), and the
    build raises NumericalError. Entries depend only on angles, so the
    matrix is invariant under a common rescaling of scores.

    Coincident rows are one point weighted by its row count. For three
    distinct points the angles of their triangle sum to pi, so pi minus the
    angle at r is the sum of the angles at l and m. Points are visited in
    order; at point r the angles at a and b of every triangle (a, b, r) with
    a, b < r give all three entries of that triangle: r's term in A_ab, and
    the terms of b in A_ar and of a in A_br. That takes two arccos per
    triangle, where evaluating every angle at every vertex takes six.

    The points r are visited in blocks r0 <= r < r1, each as wide as keeps
    its (r1, r1, r1 - r0) angle tensor within _BLOCK_ENTRIES: one batched
    matmul, one arccos and two contractions per block. Early blocks are
    wide (39 vertices from r = 1); from r = 181 on, a block is one vertex.
    """
    block = np.asarray(score_block, dtype=float)
    if not np.all(np.isfinite(block)):
        raise ValueError("score block must be finite")
    n_s, n_k = block.shape
    if n_s < 2:
        raise ValueError("need at least 2 score rows")
    # Gamma(N_K/2) overflows from N_K = 344, so c is taken in log space there
    c = (np.pi ** (n_k / 2.0 - 1.0) / math.gamma(n_k / 2.0) if n_k < 344 else
         math.exp((n_k / 2.0 - 1.0) * math.log(np.pi) - math.lgamma(n_k / 2.0)))
    if c < np.finfo(float).tiny:
        raise NumericalError(f"A's constant c is not a normal float at {n_k} score columns")

    unit, weights, point = _unit_differences(block)
    # half + half.T sums, over third points, the terms between distinct points
    half = _half_sums(unit, weights)
    total = half + half.T
    # third rows at l or at m each add pi; l and m at one point add pi per
    # other row and 2*pi per row there
    total += np.pi * (weights[:, None] + weights[None, :])
    np.fill_diagonal(total, np.pi * (n_s + weights))

    total *= c
    return AMatrix(values=total[np.ix_(point, point)])


def pcvm_statistic(residual_vector: np.ndarray, a: AMatrix) -> float:
    """Quadratic-form statistic eps' A eps / n_s^2, n_s the rows of A (clamped at zero)."""
    eps = np.asarray(residual_vector, dtype=float)
    if eps.shape != (a.n_s,):
        raise GridMismatchError(
            f"residual vector has {eps.shape}, A is {a.values.shape}"
        )
    value = float(eps @ a.values @ eps) / float(a.n_s) ** 2
    return max(value, 0.0)


def golden_section_multipliers(
    shape: int | tuple[int, ...], seed: int | np.random.Generator = 0
) -> np.ndarray:
    """Two-point multipliers (1 -+ sqrt(5))/2 with mean 0 and variance 1.

    `seed` may be a Generator, which is drawn from (and advanced) in place.
    """
    check_seed(seed)
    if np.min(shape) < 1:
        raise ValueError("every dimension of shape must be at least 1")
    rng = np.random.default_rng(seed)
    return np.where(rng.random(shape) < GOLDEN_P_LOW, GOLDEN_LOW, GOLDEN_HIGH)


def wild_bootstrap_test(
    sample: MarSample,
    basis: FpcBasis,
    method_tag: str,
    b: int = 500,
    seed: int = 0,
) -> GofResult:
    """Run the full testing procedure for one estimator.

    Fits the slope, computes the observed statistic, then draws `b`
    golden-section replicates y*_i = <X_i, beta-hat> + V_i * eps_i over the
    observed pairs (the missingness pattern is kept), refits coefficients at
    the frozen structure, and recomputes the statistic with the same A.
    The refit residuals are y* R with R = slope.refit_residuals(sample, I),
    so with M = R A R', E = diag(eps) and mu the fitted values, replicate b
    is (c0 + v_b q1 + v_b Q v_b') / n_obs^2 (clamped at zero), where
    Q = E M E, q1 = 2 E M mu and c0 = mu' M mu; a non-finite operator
    raises NumericalError. p-value = #(observed statistic <= replicate
    statistic) / b. A is built once per sample and score block: tests on
    one sample whose fits use the same score columns share it. The slope
    comes from `fit_slope`, so a CV-selected slope (C, S, I, W) already
    fitted on this sample and basis is taken from the sample's memo, not
    refitted; a LASSO slope is refitted with `seed`. `seed` also draws the
    multipliers, and it must be a nonnegative integer, the one kind of seed
    that `GofResult.seed` records.
    """
    if b < 1:
        raise ValueError("bootstrap count must be at least 1")
    if not isinstance(seed, (int, np.integer)):
        raise ConfigError(f"seed must be a nonnegative integer, got {seed}")
    slope = fit_slope(sample, basis, method_tag, seed=seed)

    score_rows = slope.observed_scores(sample)
    mu = slope.predict_centered(score_rows)  # fitted values over the observed pairs
    eps = sample.y_centered - mu
    block = score_rows[:, np.asarray(slope.indices, dtype=int) - 1]
    a = sample._derived(("A", block.shape, block.tobytes()), lambda: build_a_matrix(block))
    n_s = sample.n_obs
    observed_stat = pcvm_statistic(eps, a)

    # Noiseless-linear data leaves only round-off in the residuals; the test
    # then has nothing against linearity, so every statistic is zero (p = 1)
    # instead of a comparison of quadratic forms of numerical dust. The
    # yardstick is the spread of the observed responses, so units do not decide.
    if float(np.max(np.abs(eps))) <= 1e-10 * float(np.max(np.abs(sample.y_centered))):
        observed_stat, stats = 0.0, np.zeros(b)
    else:
        refit = slope.refit_residuals(sample, np.eye(n_s))
        m = refit @ a.values @ refit.T
        m_mu = m @ mu
        q = eps[:, None] * m * eps[None, :]
        q1 = 2.0 * eps * m_mu
        c0 = float(mu @ m_mu)
        if not (math.isfinite(c0) and np.all(np.isfinite(q1)) and np.all(np.isfinite(q))):
            raise NumericalError(f"non-finite bootstrap operator for method {slope.method_tag}")

        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0x426F6F)))
        v = golden_section_multipliers((b, n_s), rng)
        stats = np.einsum("bl,bl->b", v @ q, v)
        stats += v @ q1
        stats += c0
        stats /= float(n_s) ** 2
        np.maximum(stats, 0.0, out=stats)

    p_value = float(np.count_nonzero(observed_stat <= stats)) / b
    return GofResult(
        statistic=observed_stat,
        bootstrap_statistics=stats,
        p_value=p_value,
        slope=slope,
        seed=seed,
        n_obs=n_s,
    )
