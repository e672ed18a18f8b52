"""L1-penalized least squares on FPC scores.

Minimizes sum_i (y_i - sum_k b_k s_ik)^2 + lambda * sum_k |b_k| along its
exact solution path: the LARS-lasso homotopy (Efron, Hastie, Johnstone &
Tibshirani 2004, Ann. Statist.). With mu = lambda / 2 and correlations
c = X'y - X'X b, the path is linear in mu between kinks. On a segment with
active set A and signs s, b_A(mu) = G_AA^{-1} (X_A'y - mu s), and the segment
ends where an inactive |c_j| reaches mu (a join) or an active coefficient
reaches zero (a drop). Each requested lambda is read off the closed form of
its segment, so the coefficients satisfy the KKT conditions to rounding and
are exactly zero off the active set.

The score designs have a handful of columns, so a path has a few kinks and
each costs one small solve; the cost is in numpy calls, not arithmetic.
Paths are therefore followed in lockstep over a stack of problems: the CV
folds and the full sample of one selection move together, one batched solve
per step, with every inactive row and column of a Gram matrix replaced by
the identity so that inactive coefficients solve to exactly zero.
Cross-validation evaluates every fold's exact path on the glmnet-style grid
and applies the one-standard-error rule (Friedman, Hastie & Tibshirani 2010,
J. Stat. Softw.). Scores are deliberately left unstandardized: their scale
carries the component variances.
"""

from __future__ import annotations

import numpy as np

N_LAMBDAS = 100
LAMBDA_MIN_RATIO = 1e-4

#: Cross-validation folds of `lasso_select` (fewer when n is smaller).
FOLDS = 10


def lambda_max(design: np.ndarray, y: np.ndarray) -> float:
    """Smallest penalty that forces the all-zero solution (gradient bound)."""
    return float(np.max(np.abs(2.0 * design.T @ y)))


def lambda_grid(design: np.ndarray, y: np.ndarray, n_lambdas: int = N_LAMBDAS) -> np.ndarray:
    """Descending log-spaced grid spanning [lambda_max * 1e-4, lambda_max]."""
    lmax = lambda_max(design, y)
    if lmax <= 0.0:
        return np.full(n_lambdas, 0.0)
    return np.geomspace(lmax, lmax * LAMBDA_MIN_RATIO, n_lambdas)


def _exact_path(gram: np.ndarray, cty: np.ndarray, mus: np.ndarray,
                mu_top: np.ndarray) -> np.ndarray:
    """Exact LASSO coefficients of a stack of F problems at shared half-penalties.

    `gram` is (F, K, K), `cty` (F, K), `mus` (L,) nonnegative in any order, and
    `mu_top` (F,) the kink where each problem's first column joins;
    coefficients are zero at and above it. Returns an (F, L, K) array.

    All members take one step per iteration: one batched solve on Grams whose
    inactive rows and columns are the identity, then every member's next kink
    from vectorised join and drop candidates. A member stops once its kink
    passes the smallest requested mu, and the loop ends when all have. Ties
    resolve as one path followed alone would: drops before joins, drops in
    the order their columns joined, joins by column index with + before -.
    """
    n_members, k = cty.shape
    out = np.zeros((n_members, mus.size, k))
    if mus.size == 0:
        return out
    lowest = float(mus.min())
    live = mu_top > lowest
    if not live.any():
        return out

    members = np.arange(n_members)
    cols = np.arange(k)
    eye = np.eye(k)
    first = np.argmax(np.abs(cty), axis=1)
    active = np.zeros((n_members, k), dtype=bool)
    active[members, first] = True
    signs = np.zeros((n_members, k))
    signs[members, first] = np.sign(cty[members, first])
    joined_at = np.zeros((n_members, k), dtype=int)  # step at which each column joined
    mu = np.array(mu_top, dtype=float)
    # The event each member just took; its reverse at the same mu is rounding
    # noise and is excluded for one step only, so a later rejoin still counts.
    last_col, last_join, last_sign = first, np.ones(n_members, dtype=bool), signs[members, first]
    join_signs = np.array([1.0, -1.0])
    segments = []  # (u, v, lower kink) per step; -inf marks members already done
    # A path has finitely many kinks; a cap turns a numerical cycle into an error.
    for step in range(1, 100 * (k + 1) + 1):
        padded = np.where(active[:, :, None] & active[:, None, :], gram, eye)
        rhs = np.stack([np.where(active, cty, 0.0), signs], axis=2)
        sol = np.linalg.solve(padded, rhs)
        u, v = sol[..., 0], sol[..., 1]

        # Next kink below mu; candidates above mu are rounding and clamp to it.
        toward_zero = active & (signs * v < 0.0)
        toward_zero &= ~(last_join[:, None] & (cols == last_col[:, None]))
        drop = np.minimum(mu[:, None], np.divide(u, v, out=np.full_like(u, -np.inf),
                                                 where=toward_zero))
        best_drop = drop.max(axis=1)
        tied = toward_zero & (drop == best_drop[:, None])
        drop_col = np.argmin(np.where(tied, joined_at, step), axis=1)

        # c_j(mu) = base_j + mu * slope_j; sign * c_j - mu grows as mu falls
        # when the denominator 1 - sign * slope_j is positive.
        base = cty - (gram @ u[:, :, None])[:, :, 0]
        slope = (gram @ v[:, :, None])[:, :, 0]
        numer = np.stack([base, -base], axis=2)
        denom = np.stack([1.0 - slope, 1.0 + slope], axis=2)
        rejoin = ((cols[:, None] == last_col[:, None, None])
                  & (join_signs == last_sign[:, None, None]) & ~last_join[:, None, None])
        joinable = ~active[:, :, None] & (denom > 0.0) & ~rejoin
        join = np.minimum(mu[:, None, None], np.divide(numer, denom, out=np.full_like(numer, -np.inf),
                                                       where=joinable)).reshape(n_members, 2 * k)
        pick = np.argmax(join, axis=1)  # first maximum: lowest column, + before -
        best_join = join[members, pick]

        mu_next = np.maximum(np.maximum(best_drop, best_join), 0.0)
        segments.append((u, v, np.where(live, mu_next, -np.inf)))
        live &= mu_next > lowest  # no event means mu_next = 0, the end of the path
        if not live.any():
            break
        is_drop = best_drop >= best_join
        col = np.where(is_drop, drop_col, pick // 2)
        sign = np.where(is_drop, signs[members, drop_col], join_signs[pick % 2])
        m, c = members[live], col[live]
        active[m, c] = ~is_drop[live]
        signs[m, c] = np.where(is_drop[live], 0.0, sign[live])
        joined_at[m, c] = step
        last_col = np.where(live, col, last_col)
        last_join = np.where(live, ~is_drop, last_join)
        last_sign = np.where(live, sign, last_sign)
        mu = mu_next
    else:
        raise ValueError("LASSO path did not terminate; the design is degenerate")

    u_all, v_all, lower = (np.stack(parts) for parts in zip(*segments))
    # Each mu lies on the first segment whose lower kink it reaches.
    seg = np.count_nonzero(lower[:, :, None] > mus, axis=0)  # (F, L)
    out = u_all[seg, members[:, None]] - mus[:, None] * v_all[seg, members[:, None]]
    out[mus >= mu_top[:, None]] = 0.0
    return out


def _check_gram(gram: np.ndarray, what: str) -> None:
    if np.any(np.diagonal(gram, axis1=-2, axis2=-1) <= 0.0):
        raise ValueError(what)


def _full_problem(design: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Checked Gram, correlations and first-join half-penalty of one design."""
    if not (np.all(np.isfinite(design)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite inputs to the LASSO")
    gram = design.T @ design
    _check_gram(gram, "design has a zero column; the LASSO path is undefined")
    return gram, design.T @ y, lambda_max(design, y) / 2.0


def lasso_path(design: np.ndarray, y: np.ndarray, lambdas: np.ndarray) -> np.ndarray:
    """Exact coefficient path at the given penalties (any order).

    Returns an (L, K) array; row l solves the objective at lambdas[l].
    """
    gram, cty, mu_top = _full_problem(np.asarray(design, dtype=float), np.asarray(y, dtype=float))
    lambdas = np.asarray(lambdas, dtype=float)
    if np.any(lambdas < 0.0):
        raise ValueError("penalties must be nonnegative")
    return _exact_path(gram[None], cty[None], lambdas / 2.0, np.array([mu_top]))[0]


def lasso_select(
    design: np.ndarray, y: np.ndarray, seed: int | np.random.Generator = 0
) -> tuple[tuple[int, ...], dict]:
    """Pick the active set by FOLDS-fold CV with the one-standard-error rule.

    An unpenalized intercept is handled by centering y and the design
    columns on each training set (a no-op for zero-mean score designs).
    Returns 1-based column indices of the support at the most penalized
    lambda whose CV error is within one standard error of the minimum,
    with {1} as the fallback for an empty support.
    """
    design = np.asarray(design, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.size
    folds = max(2, min(FOLDS, n))
    rng = np.random.default_rng(seed)
    assignment = rng.permutation(n) % folds

    xc = design - design.mean(axis=0)
    yc = y - y.mean()
    lambdas = lambda_grid(xc, yc)
    if lambdas[0] <= 0.0:  # y orthogonal to every column: nothing to select
        return (1,), {"lambda": 0.0, "cv": None}

    # Every fold as a masked copy of the sample, centred on its training rows.
    train = assignment != np.arange(folds)[:, None]  # (folds, n)
    weight = train.astype(float)
    n_train = weight.sum(axis=1)
    col_mean = (weight @ design) / n_train[:, None]
    y_mean = (weight @ y) / n_train
    xf = np.where(train[:, :, None], design - col_mean[:, None, :], 0.0)
    gram = xf.transpose(0, 2, 1) @ xf
    _check_gram(gram, "a CV fold left a zero design column; the LASSO path is undefined")
    cty = (xf.transpose(0, 2, 1) @ (y - y_mean[:, None])[:, :, None])[:, :, 0]
    full_gram, full_cty, full_top = _full_problem(xc, yc)
    paths = _exact_path(
        np.concatenate([gram, full_gram[None]]),
        np.concatenate([cty, full_cty[None]]),
        lambdas / 2.0,
        np.append(np.max(np.abs(cty), axis=1), full_top),
    )

    # Test rows grouped by fold in their original order, zero-weight padded.
    size = np.bincount(assignment, minlength=folds)
    slot = np.arange(size.max())
    held = slot < size[:, None]
    rows = np.argsort(assignment, kind="stable")[
        np.minimum(np.cumsum(size)[:, None] - size[:, None] + slot, n - 1)]
    resid = ((y[rows] - y_mean[:, None])[:, :, None]
             - (design[rows] - col_mean[:, None, :]) @ paths[:folds].transpose(0, 2, 1))
    fold_mse = np.sum(np.where(held[:, :, None], resid**2, 0.0), axis=1) / size[:, None]

    cv = fold_mse.mean(axis=0)
    se = fold_mse.std(axis=0, ddof=1) / np.sqrt(folds)
    best = int(np.argmin(cv))
    threshold = cv[best] + se[best]
    chosen = int(np.argmax(cv <= threshold))  # grid descends, so first hit = largest lambda

    support = tuple(int(j) + 1 for j in np.flatnonzero(paths[folds, chosen] != 0.0))
    if not support:
        support = (1,)
    diagnostics = {
        "lambda": float(lambdas[chosen]),
        "lambda_index": chosen,
        "cv": cv,
        "cv_se": se,
        "folds": folds,
    }
    return support, diagnostics
