"""Independent oracles for the L2 primitives, the estimators, the projected
Cramer-von Mises test and LASSO CV.

The L2 references (`inner_product`, `norm`, `reconstruct`) are trapezoid
sums on a grid and a truncated score expansion. The estimator references refit by `lstsq` on explicit designs and complete
responses from a slope's public predictions, sharing no code with the
pipeline in `sofreg.estimators`.

The test oracles deliberately avoid the closed-form A-matrix route:
directions are drawn uniformly on the unit sphere of the score space, the
marked empirical process is evaluated through the projected ECDF, and the
direction integral is the sphere surface area times the sample mean over
draws. The bootstrap reference refits every replicate by itself at the
frozen structure and forms its quadratic form in A, the route the
production quadratic form in the multipliers replaces. The LASSO oracle
cross-validates fold by fold with one exact path per centred training fold
instead of one batched path over all folds, and `kkt_violation` measures
how far a coefficient vector is from optimal. The Nadaraya-Watson reference
scores every candidate bandwidth by an explicit leave-one-out loop.
"""

import math

import numpy as np

from sofreg.estimators import BANDWIDTH_FACTORS
from sofreg.exceptions import GridMismatchError
from sofreg.functional import FunctionalSample
from sofreg.gof import _observed_score_rows, _refit_residuals, pcvm_statistic, residuals
from sofreg.lasso import lambda_grid, lasso_path


def _as_curve(grid, f):
    f = np.asarray(f, dtype=float)
    if f.shape != (grid.n_points,):
        raise GridMismatchError(
            f"curve has {f.shape} values, grid has {grid.n_points} points"
        )
    return f


def inner_product(grid, f, g):
    """Trapezoid approximation of integral of f*g over the grid's domain."""
    f = _as_curve(grid, f)
    g = _as_curve(grid, g)
    return float(np.dot(grid.quad_weights, f * g))


def norm(grid, f):
    """L2 norm induced by :func:`inner_product`."""
    return float(np.sqrt(max(inner_product(grid, f, f), 0.0)))


def reconstruct(basis, n_components=None):
    """Centered-curve reconstruction from the first `n_components` FPCs."""
    k = basis.k_max if n_components is None else n_components
    return basis.scores[:, :k] @ basis.eigenfunctions[:k]


def ols_fpc_coefficients(basis, y, index_set, weight_index):
    """Least-squares slope coefficients of y on the selected score columns.

    `y` is a full-length response vector over the basis rows; only the
    `weight_index` rows enter the fit, which carries an intercept. Raises
    ValueError when a selected component has a zero eigenvalue.
    """
    idx = np.asarray(index_set, dtype=int)
    if idx.size == 0:
        raise ValueError("index_set must be nonempty")
    if np.any(basis.eigenvalues[idx - 1] <= 1e-14 * max(basis.eigenvalues[0], 1e-300)):
        raise ValueError(f"zero eigenvalue among components {tuple(idx)}")
    rows = np.asarray(weight_index, dtype=int)
    design = np.column_stack([np.ones(rows.size), basis.scores[np.ix_(rows, idx - 1)]])
    return np.linalg.lstsq(design, np.asarray(y, dtype=float)[rows], rcond=None)[0][1:]


def impute_responses(sample, slope):
    """Responses completed with slope predictions at unobserved entries."""
    out = sample.y.astype(float).copy()
    miss = ~sample.r
    if miss.any():
        out[miss] = slope.predict_sample(FunctionalSample(sample.x.grid, sample.x.values[miss]))
    return out


def completed_ipw_responses(sample, slope, observance):
    """Inverse-probability-weighted completion of the response vector.

    Weights are R_i / p(X_i) scaled to mean one over the observed rows.
    """
    weights = np.where(sample.r, 1.0 / observance.fitted_probabilities, 0.0)
    weights /= weights[sample.r].mean()
    y_filled = np.where(sample.r, sample.y, 0.0)
    return weights * y_filled + (1.0 - weights) * slope.predict_sample(sample.x)


def per_replicate_bootstrap_statistics(sample, slope, a, multipliers):
    """Wild-bootstrap statistics by one refit per replicate.

    Row b of `multipliers` draws y*_b = mu + v_b * eps over the observed
    pairs (mu the fitted values, eps the residuals); its residuals after a
    refit at the frozen structure give the statistic in the test matrix `a`.
    """
    eps = residuals(sample, slope)
    mu = slope.predict_centered(_observed_score_rows(sample, slope))
    return np.array([
        pcvm_statistic(_refit_residuals(sample, slope, (mu + v * eps)[None, :])[0], a)
        for v in multipliers
    ])


def sphere_area(dim: int) -> float:
    return 2.0 * np.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


def _unit_directions(rng, count, dim):
    g = rng.normal(size=(count, dim))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def mc_a_matrix(score_block, n_draws=100_000, seed=0, batch=20_000):
    """Direction-sampling estimate of sum_r omega{gamma: p_l <= p_r, p_m <= p_r}.

    Assumes almost-surely distinct projections (no duplicated score rows).
    """
    block = np.asarray(score_block, dtype=float)
    if block.ndim == 1:
        block = block[:, None]
    n, dim = block.shape
    rng = np.random.default_rng(seed)
    acc = np.zeros((n, n))
    done = 0
    while done < n_draws:
        b = min(batch, n_draws - done)
        gamma = _unit_directions(rng, b, dim)
        proj = block @ gamma.T  # (n, b)
        ranks = np.argsort(np.argsort(proj, axis=0), axis=0)
        above = n - ranks  # count of r with p_r >= p_l, self included
        acc += np.minimum(above[:, None, :], above[None, :, :]).sum(axis=2)
        done += b
    return sphere_area(dim) * acc / n_draws


def mc_pcvm_statistic(score_block, residual_vector, n_draws=100_000, seed=0, batch=20_000):
    """Projected-ECDF estimate of the Cramer-von Mises functional.

    For each direction the marked process is n^{-1/2} sum_l eps_l 1{p_l <= u}
    evaluated at the projected points, squared, and averaged against the ECDF;
    ties in projections are handled with right-continuous counts.
    """
    block = np.asarray(score_block, dtype=float)
    if block.ndim == 1:
        block = block[:, None]
    eps = np.asarray(residual_vector, dtype=float)
    n, dim = block.shape
    rng = np.random.default_rng(seed)
    total = 0.0
    done = 0
    while done < n_draws:
        b = min(batch, n_draws - done)
        gamma = _unit_directions(rng, b, dim)
        proj = block @ gamma.T  # (n, b)
        order = np.argsort(proj, axis=0, kind="stable")
        eps_sorted = np.take_along_axis(np.broadcast_to(eps[:, None], proj.shape), order, axis=0)
        # projections of distinct score rows tie with probability zero, so the
        # r-th sorted cumulative sum is the marked process at u = p_(r)
        cums = np.cumsum(eps_sorted, axis=0)
        total += float(np.sum(cums**2)) / n
        done += b
    return sphere_area(dim) * total / n_draws / n


def case_table_a_matrix(score_block):
    """Literal triple-loop evaluation of the angle case table."""
    block = np.asarray(score_block, dtype=float)
    if block.ndim == 1:
        block = block[:, None]
    n, dim = block.shape
    constant = np.pi ** (dim / 2.0 - 1.0) / math.gamma(dim / 2.0)
    out = np.zeros((n, n))
    for l in range(n):
        for m in range(n):
            total = 0.0
            for r in range(n):
                dl = block[l] - block[r]
                dm = block[m] - block[r]
                nl, nm = np.linalg.norm(dl), np.linalg.norm(dm)
                same_lm = np.allclose(block[l], block[m], rtol=0, atol=1e-300)
                if nl == 0.0 and nm == 0.0:
                    total += 2.0 * np.pi
                elif nl == 0.0 or nm == 0.0 or same_lm:
                    total += np.pi
                else:
                    cosang = np.clip(dl @ dm / (nl * nm), -1.0, 1.0)
                    total += abs(np.pi - np.arccos(cosang))
            out[l, m] = constant * total
    return out


def kkt_violation(design, y, beta, lam):
    """Largest subgradient violation of the solution (0 means exact KKT)."""
    grad = 2.0 * design.T @ (design @ beta - y)
    active = beta != 0.0
    viol = np.zeros_like(beta)
    viol[active] = np.abs(grad[active] + lam * np.sign(beta[active]))
    viol[~active] = np.maximum(np.abs(grad[~active]) - lam, 0.0)
    return float(np.max(viol)) if beta.size else 0.0


def lasso_cv_reference(design, y, seed, folds=10):
    """Fold-by-fold 10-fold CV with the one-standard-error rule.

    Uses the selector's fold assignment and lambda grid, fits each centred
    training fold with its own `lasso_path` call and the full centred sample
    with another. Returns (support, lambda, cv, cv_se).
    """
    design = np.asarray(design, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.size
    folds = max(2, min(folds, n))
    assignment = np.random.default_rng(seed).permutation(n) % folds
    xc, yc = design - design.mean(axis=0), y - y.mean()
    lambdas = lambda_grid(xc, yc)
    mse = np.empty((folds, lambdas.size))
    for f in range(folds):
        train, test = assignment != f, assignment == f
        col_mean, y_mean = design[train].mean(axis=0), y[train].mean()
        path = lasso_path(design[train] - col_mean, y[train] - y_mean, lambdas)
        resid = (y[test] - y_mean)[:, None] - (design[test] - col_mean) @ path.T
        mse[f] = np.mean(resid**2, axis=0)
    cv = mse.mean(axis=0)
    se = mse.std(axis=0, ddof=1) / np.sqrt(folds)
    best = int(np.argmin(cv))
    chosen = int(np.argmax(cv <= cv[best] + se[best]))
    beta = lasso_path(xc, yc, lambdas[chosen:chosen + 1])[0]
    support = tuple(int(j) + 1 for j in np.flatnonzero(beta != 0.0)) or (1,)
    return support, float(lambdas[chosen]), cv, se


def nw_bandwidth_reference(sample):
    """Leave-one-out CV bandwidth of the Nadaraya-Watson observance fit.

    Candidates are BANDWIDTH_FACTORS times the median pairwise L2 distance
    between curves; each is scored by the squared error of predicting every
    indicator r_i from the other curves with the kernel exp(-u^2/2) (the
    observed share when every weight underflows). Ties go to the first.
    """
    x, r = sample.x, sample.r.astype(float)
    n = sample.n
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dist[i, j] = dist[j, i] = norm(x.grid, x.values[i] - x.values[j])
    median = float(np.median(dist[np.triu_indices(n, k=1)]))
    best_err, best_h = np.inf, None
    for factor in BANDWIDTH_FACTORS:
        h = float(factor) * median
        err = 0.0
        for i in range(n):
            others = np.arange(n) != i
            with np.errstate(under="ignore"):
                weights = np.exp(-0.5 * (dist[i, others] / h) ** 2)
            total = weights.sum()
            p = weights @ r[others] / total if total > 0.0 else r.mean()
            err += (r[i] - p) ** 2
        if err < best_err:
            best_err, best_h = err, h
    return best_h
