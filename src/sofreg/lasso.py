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
each costs one small solve. Cross-validation evaluates every fold's exact
path on the glmnet-style grid and applies the one-standard-error rule
(Friedman, Hastie & Tibshirani 2010, J. Stat. Softw.). Scores are
deliberately left unstandardized: their scale carries the component
variances.
"""

from __future__ import annotations

import numpy as np

N_LAMBDAS = 100
LAMBDA_MIN_RATIO = 1e-4


def lambda_max(design: np.ndarray, y: np.ndarray) -> float:
    """Smallest penalty that forces the all-zero solution (gradient bound)."""
    return float(np.max(np.abs(2.0 * design.T @ y)))


def lambda_grid(design: np.ndarray, y: np.ndarray, n_lambdas: int = N_LAMBDAS) -> np.ndarray:
    """Descending log-spaced grid spanning [lambda_max * 1e-4, lambda_max]."""
    lmax = lambda_max(design, y)
    if lmax <= 0.0:
        return np.full(n_lambdas, 0.0)
    return np.geomspace(lmax, lmax * LAMBDA_MIN_RATIO, n_lambdas)


def _exact_path(gram: np.ndarray, cty: np.ndarray, mus: np.ndarray, mu_top: float) -> np.ndarray:
    """Exact LASSO coefficients at each half-penalty in `mus` (any order).

    `mu_top` is the kink where the first column joins; coefficients are zero
    at and above it. Returns an (L, K) array.
    """
    k = cty.size
    out = np.zeros((mus.size, k))
    order = np.argsort(-mus, kind="stable")
    descending = mus[order]
    pos = int(np.count_nonzero(mus >= mu_top))
    if pos == mus.size or mu_top <= 0.0:
        return out

    first = int(np.argmax(np.abs(cty)))
    active = [first]
    signs = [float(np.sign(cty[first]))]
    mu = mu_top
    # The event that just happened; its reverse at the same mu is rounding
    # noise and is excluded for one step only, so a later rejoin still counts.
    last = (first, "join", signs[0])
    # A path has finitely many kinks; a cap turns a numerical cycle into an error.
    for _ in range(100 * (k + 1)):
        a = np.asarray(active, dtype=int)
        sol = np.linalg.solve(gram[a[:, None], a], np.column_stack([cty[a], signs]))
        u, v = sol[:, 0], sol[:, 1]

        # Next kink below mu; candidates above mu are rounding and clamp to it.
        mu_next, event = 0.0, None
        for j, s_j, u_j, v_j in zip(active, signs, u.tolist(), v.tolist()):
            if s_j * v_j < 0.0 and last[:2] != (j, "join"):  # moving toward zero
                cand = min(mu, u_j / v_j)
                if cand > mu_next:
                    mu_next, event = cand, (j, "drop", s_j)
        inactive = np.ones(k, dtype=bool)
        inactive[a] = False
        inactive = np.flatnonzero(inactive)
        if inactive.size:
            cross = gram[inactive[:, None], a]
            base = cty[inactive] - cross @ u  # c_j(mu) = base_j + mu * slope_j
            slope = cross @ v
            for j, b_j, e_j in zip(inactive.tolist(), base.tolist(), slope.tolist()):
                for sign in (1.0, -1.0):
                    denom = 1.0 - sign * e_j  # > 0: sign * c_j - mu grows as mu falls
                    if denom <= 0.0 or last == (j, "drop", sign):
                        continue
                    cand = min(mu, sign * b_j / denom)
                    if cand > mu_next:
                        mu_next, event = cand, (j, "join", sign)

        end = pos + int(np.count_nonzero(descending[pos:] >= mu_next))
        out[order[pos:end, None], a] = u - descending[pos:end, None] * v
        pos = end
        if pos == mus.size:
            return out
        if event is None:  # the last segment runs down to mu = 0
            break
        j, kind, sign = event
        if kind == "join":
            active.append(j)
            signs.append(sign)
        else:
            drop = active.index(j)
            del active[drop], signs[drop]
        mu, last = mu_next, event
    raise ValueError("LASSO path did not terminate; the design is degenerate")


def _check_gram(gram: np.ndarray, what: str) -> None:
    if np.any(np.diag(gram) <= 0.0):
        raise ValueError(what)


def lasso_path(design: np.ndarray, y: np.ndarray, lambdas: np.ndarray) -> np.ndarray:
    """Exact coefficient path at the given penalties.

    Returns an (L, K) array; row l solves the objective at lambdas[l].
    """
    design = np.asarray(design, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.all(np.isfinite(design)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite inputs to lasso_path")
    gram = design.T @ design
    _check_gram(gram, "design has a zero column; the LASSO path is undefined")
    lambdas = np.asarray(lambdas, dtype=float)
    if np.any(lambdas < 0.0):
        raise ValueError("penalties must be nonnegative")
    return _exact_path(gram, design.T @ y, lambdas / 2.0, lambda_max(design, y) / 2.0)


def kkt_violation(design: np.ndarray, y: np.ndarray, beta: np.ndarray, lam: float) -> float:
    """Largest subgradient violation of the solution (0 means exact KKT)."""
    grad = 2.0 * design.T @ (design @ beta - y)
    active = beta != 0.0
    viol = np.zeros_like(beta)
    viol[active] = np.abs(grad[active] + lam * np.sign(beta[active]))
    viol[~active] = np.maximum(np.abs(grad[~active]) - lam, 0.0)
    return float(np.max(viol)) if beta.size else 0.0


def lasso_select(
    design: np.ndarray,
    y: np.ndarray,
    folds: int = 10,
    seed: int | np.random.Generator = 0,
    n_lambdas: int = N_LAMBDAS,
) -> tuple[tuple[int, ...], dict]:
    """Pick the active set by K-fold CV with the one-standard-error rule.

    An unpenalized intercept is handled by centering y and the design
    columns on each training set (a no-op for zero-mean score designs).
    Returns 1-based column indices of the support at the most penalized
    lambda whose CV error is within one standard error of the minimum,
    with {1} as the fallback for an empty support.
    """
    design = np.asarray(design, dtype=float)
    y = np.asarray(y, dtype=float)
    n, k = design.shape
    folds = max(2, min(folds, n))
    rng = np.random.default_rng(seed)
    assignment = rng.permutation(n) % folds

    xc = design - design.mean(axis=0)
    yc = y - y.mean()
    lambdas = lambda_grid(xc, yc, n_lambdas)
    if lambdas[0] <= 0.0:  # y orthogonal to every column: nothing to select
        return (1,), {"lambda": 0.0, "cv": None}

    mus = lambdas / 2.0
    fold_mse = np.empty((lambdas.size, folds))
    for f in range(folds):
        train = assignment != f
        col_mean = design[train].mean(axis=0)
        y_mean = y[train].mean()
        xf = design[train] - col_mean
        gram = xf.T @ xf
        _check_gram(gram, "a CV fold left a zero design column; reduce folds")
        cty = xf.T @ (y[train] - y_mean)
        path = _exact_path(gram, cty, mus, float(np.max(np.abs(cty))))
        test = ~train
        resid = (y[test] - y_mean)[:, None] - (design[test] - col_mean) @ path.T
        fold_mse[:, f] = np.mean(resid**2, axis=0)

    cv = fold_mse.mean(axis=1)
    se = fold_mse.std(axis=1, ddof=1) / np.sqrt(folds)
    best = int(np.argmin(cv))
    threshold = cv[best] + se[best]
    chosen = int(np.argmax(cv <= threshold))  # grid descends, so first hit = largest lambda

    beta = lasso_path(xc, yc, lambdas[chosen : chosen + 1])[0]
    support = tuple(int(j) + 1 for j in np.flatnonzero(beta != 0.0))
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
