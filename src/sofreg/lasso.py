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

The designs are FPC score blocks, whose columns are nonzero and mutually
orthogonal, so no two are equal. A design with two equal columns is outside
this contract: once both are active the padded Gram matrix is singular, so
`lasso_select` may raise `numpy.linalg.LinAlgError` (which `mc` counts as a
replicate failure), and a support it does return may split the pair
arbitrarily. A design needs at least three rows, so that every CV fold
trains on two or more; a `MarSample` has at least three observed pairs.

The score designs have a handful of columns, so a path has a few kinks and
each costs one small solve; the cost is in numpy calls, not arithmetic.
Paths are therefore followed in lockstep over a stack of problems: the CV
folds and the full sample of one selection move together, one batched solve
per step, with every inactive row and column of a Gram matrix replaced by
the identity so that inactive coefficients solve to exactly zero. The step
state is kept across steps and changed only where a column joins or drops:
the solve's right-hand side (the active columns' correlations X'y and
signs, zero elsewhere), the active set, the step at which each column
joined (the drop tie-break), and two masks of the columns that may drop and
the (column, sign) pairs that may join, which exclude the reverse of each
member's last event for one step.
Cross-validation evaluates every fold's exact path on the glmnet-style grid
and applies the one-standard-error rule (Friedman, Hastie & Tibshirani 2010,
J. Stat. Softw.). Scores are deliberately left unstandardized: their scale
carries the component variances.
"""

from __future__ import annotations

import numpy as np

from .exceptions import check_seed

N_LAMBDAS = 100
LAMBDA_MIN_RATIO = 1e-4

#: Cross-validation folds of `lasso_select` (n of them when n is smaller).
FOLDS = 10

#: The penalty grid over lambda_max: descending log spacing from 1 to
#: LAMBDA_MIN_RATIO. It is unit-free and multiplied by lambda_max last, so
#: data rescaled by a power of two give a grid rescaled exactly.
UNIT_LAMBDAS = np.geomspace(1.0, LAMBDA_MIN_RATIO, N_LAMBDAS)
UNIT_LAMBDAS.setflags(write=False)

_PLUS_MINUS = np.array([1.0, -1.0])


def _exact_path(gram: np.ndarray, cty: np.ndarray, mus: np.ndarray,
                mu_top: np.ndarray) -> np.ndarray:
    """Exact LASSO coefficients of a stack of F problems at shared half-penalties.

    `gram` is (F, K, K), `cty` (F, K), `mus` (L,) nonnegative in any order
    with L >= 1, and `mu_top` (F,) the kink where each problem's first column
    joins; coefficients are zero at and above it. Returns an (F, L, K) array.

    All members take one step per iteration: one batched solve on Grams whose
    inactive rows and columns are the identity, then every member's next kink
    from vectorised join and drop candidates. A member stops once its kink
    passes the smallest requested mu, and the loop ends when all have. Ties
    resolve as one path followed alone would: drops before joins, drops in
    the order their columns joined, joins by column index with + before -.
    """
    n_members, k = cty.shape
    out = np.zeros((n_members, mus.size, k))
    lowest = float(mus.min())
    live = mu_top > lowest
    if not live.any():
        return out

    members = np.arange(n_members)
    eye = np.eye(k)
    first = np.argmax(np.abs(cty), axis=1)
    active = np.zeros((n_members, k), dtype=bool)
    active[members, first] = True
    # The right-hand side of every solve: masked correlations and signs,
    # changed only where a column joins or drops.
    rhs = np.zeros((n_members, k, 2))
    rhs[members, first, 0] = cty[members, first]
    rhs[members, first, 1] = np.sign(cty[members, first])
    signs = rhs[:, :, 1]
    joined_at = np.zeros((n_members, k), dtype=int)  # step at which each column joined
    mu = np.array(mu_top, dtype=float)
    # Which active columns may drop and which inactive ones may join with
    # which sign. The reverse of the event a member just took, at the same mu,
    # is rounding noise: a column that just joined cannot drop, nor one that
    # just dropped rejoin with its old sign, for one step only, so a later
    # rejoin counts.
    may_drop = np.zeros((n_members, k), dtype=bool)
    may_join = np.repeat(~active[:, :, None], 2, axis=2)
    # Every step's candidate kinks: drops by column, then joins by (column,
    # sign), so the first maximum takes drops before joins, the lowest
    # column first and + before -; -inf marks a column with no candidate.
    kinks = np.empty((n_members, 3 * k))
    drops = kinks[:, :k]
    joins = kinks[:, k:].reshape(n_members, k, 2)
    sols = []
    lowers = []  # lower kink per step; -inf marks members already done
    # A path has finitely many kinks; a cap turns a numerical cycle into an error.
    for step in range(1, 100 * (k + 1) + 1):
        padded = np.where(active[:, :, None] & active[:, None, :], gram, eye)
        sol = np.linalg.solve(padded, rhs)
        u, v = sol[:, :, 0], sol[:, :, 1]
        kinks.fill(-np.inf)

        toward_zero = may_drop & (signs * v < 0.0)
        np.divide(u, v, out=drops, where=toward_zero)

        # c_j(mu) = base_j + mu * slope_j with base = c - G u and slope = G v;
        # sign * c_j - mu grows as mu falls when 1 - sign * slope_j > 0. Both
        # products are matrix-vector ones, taken in one call: a matrix-matrix
        # product rounds them differently, and that moves exact ties.
        moved = np.matmul(gram[:, None], sol.transpose(0, 2, 1)[:, :, :, None])[:, :, :, 0]
        numer = (cty - moved[:, 0])[:, :, None] * _PLUS_MINUS
        denom = 1.0 - moved[:, 1, :, None] * _PLUS_MINUS
        np.divide(numer, denom, out=joins, where=may_join & (denom > 0.0))

        # Next kink below mu; candidates above mu are rounding and clamp to it.
        np.minimum(mu[:, None], kinks, out=kinks)
        pick = np.argmax(kinks, axis=1)
        best = kinks[members, pick]
        mu_next = np.maximum(best, 0.0)
        sols.append(sol)
        lowers.append(np.where(live, mu_next, -np.inf))
        live &= mu_next > lowest  # no event means mu_next = 0, the end of the path
        if not live.any():
            break
        m = members[live]
        dropped = pick[m] < k
        col, minus = np.divmod(pick[m] - k, 2)
        sign = _PLUS_MINUS[minus]
        if dropped.any():
            d = m[dropped]
            tied = toward_zero[d] & (drops[d] == best[d, None])
            col[dropped] = np.argmin(np.where(tied, joined_at[d], step), axis=1)
            sign[dropped] = signs[d, col[dropped]]
        active[m, col] = ~dropped
        rhs[m, col, 0] = np.where(dropped, 0.0, cty[m, col])
        rhs[m, col, 1] = np.where(dropped, 0.0, sign)
        joined_at[m, col] = step
        may_drop[m] = active[m]
        may_drop[m, col] = False
        may_join[m] = ~active[m, :, None]
        may_join[m, col, (sign < 0.0).astype(int)] = False
        mu = mu_next
    else:
        raise ValueError("LASSO path did not terminate; the design is degenerate")

    sol_all, lower = np.stack(sols), np.stack(lowers)
    # Each mu lies on the first segment whose lower kink it reaches.
    seg = np.count_nonzero(lower[:, :, None] > mus, axis=0)  # (F, L)
    on = sol_all[seg, members[:, None]]
    out = on[..., 0] - mus[:, None] * on[..., 1]
    out[mus >= mu_top[:, None]] = 0.0
    return out


def _check_gram(gram: np.ndarray, what: str) -> None:
    if np.any(np.diagonal(gram, axis1=-2, axis2=-1) <= 0.0):
        raise ValueError(what)


def _full_gram(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Checked Gram matrix of one design."""
    if not (np.all(np.isfinite(design)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite inputs to the LASSO")
    gram = design.T @ design
    _check_gram(gram, "design has a zero column; the LASSO path is undefined")
    return gram


def lasso_select(
    design: np.ndarray, y: np.ndarray, seed: int | np.random.Generator = 0
) -> tuple[tuple[int, ...], dict]:
    """Pick the active set by FOLDS-fold CV with the one-standard-error rule.

    An unpenalized intercept is handled by centering y and the design
    columns on each training set (a no-op for zero-mean score designs).
    Returns 1-based column indices of the support at the most penalized
    lambda whose CV error is within one standard error of the minimum,
    with {1} as the fallback for an empty support. `seed` draws the fold
    assignment; None or a negative one is refused (`check_seed`). It needs
    at least 3 rows: with 2, each fold trains on one row, whose centred
    columns are all zero.
    """
    check_seed(seed)
    design = np.asarray(design, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.size
    if n < 3:
        raise ValueError(f"the LASSO cross-validation needs at least 3 rows, got {n}")
    folds = min(FOLDS, n)
    rng = np.random.default_rng(seed)
    assignment = rng.permutation(n) % folds

    xc = design - design.mean(axis=0)
    yc = y - y.mean()
    full_cty = xc.T @ yc
    lambda_max = float(np.max(np.abs(2.0 * full_cty)))  # the all-zero solution's bound
    if lambda_max <= 0.0:  # y orthogonal to every column: nothing to select
        return (1,), {"lambda": 0.0, "cv": None}
    lambdas = lambda_max * UNIT_LAMBDAS

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
    paths = _exact_path(
        np.concatenate([gram, _full_gram(xc, yc)[None]]),
        np.concatenate([cty, full_cty[None]]),
        lambdas / 2.0,
        np.append(np.max(np.abs(cty), axis=1), lambda_max / 2.0),
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
    return support, {"lambda": float(lambdas[chosen]), "cv": cv, "cv_se": se}
