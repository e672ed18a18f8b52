"""Slope estimators for the scalar-on-function linear model with MAR responses.

All eight estimators run one two-stage pipeline, `fit_slope`: a completion of
the missing responses times a selector of FPC score columns. The first stage
regresses the observed responses on the scores of the observed curves. The
simplified estimators (S, SL) stop there, and the complete-data references
(C, CL) are the same fit on fully observed samples. The imputed (I, IL) and
inverse probability weighted (W, WL) estimators complete all n responses
from the first stage (predictions at missing entries, or weights from an
estimated observance probability) and select and refit in the basis of all
n curves. The selector is top-K by leave-one-out CV (for I and W, both
cutoffs jointly) or a LASSO support with an OLS refit, in both stages.

Each regression uses the FPC basis of the curves whose pairs it fits: the
simplified estimator decomposes the observed curves only, at the variance
cutoff of the all-curves basis it is given, while the completed-sample
second stages decompose all n curves. With no missing responses the two
bases coincide and every estimator collapses to its complete-data
counterpart. What a sample alone determines (the observed-pairs basis at a
cutoff, the scores of the curves with missing responses in it, the
observance fit, the CV-selected fits C, S, I and W in a basis, and the
test's A matrices) is computed once per `MarSample` and kept on it, so
callers pass none of it around. LASSO fits depend on their seed as well, so
they are not kept.

One completion rule, `_completed_responses`, serves the second stage of a
fit, the joint leave-one-out CV that selects its two cutoffs, and the refits
of the wild bootstrap. Those refits live here too, beside the plug-in fit
they reuse: `FunctionalSlope.refit_residuals` refits a slope at its frozen
structure, and `FunctionalSlope.observed_scores` gives the score rows of the
observed pairs in the slope's own basis; `gof` builds its test on them.

Coefficients come from ordinary least squares with an unpenalized intercept.
Every design is a basis's own score rows, whose columns have zero mean, are
mutually orthogonal and have squared norms n * eigenvalue, so the least
squares solution is the classical FPC plug-in form (Hall & Horowitz 2007,
Ann. Statist.): alpha = mean(y) and b_k = sum_i y_i S_ik / (n a_k).
Responses are centered once by the mean of the observed ones; per-fit
intercepts absorb subsample selection offsets, and the global mean is added
back for predictions and imputations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError, DegenerateSampleError, GridMismatchError, check_seed
from .functional import (
    DEFAULT_VAR_CUTOFF,
    FpcBasis,
    FunctionalSample,
    ReadOnlyArrays,
    fpc_decompose,
    project_scores,
)
from .lasso import lasso_select

#: Lower clamp on fitted observance probabilities (bounds IPW weights by 20).
EPS_P = 0.05

#: Bandwidth grid factors applied to the median pairwise curve distance.
BANDWIDTH_FACTORS = np.round(np.arange(0.1, 1.51, 0.1), 10)

METHOD_TAGS = ("C", "CL", "S", "SL", "I", "IL", "W", "WL")

#: Leave-one-out CV errors within this multiple of y~'y~ of the smallest
#: differ only by round-off and count as ties.
CV_TIE_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class MarSample(ReadOnlyArrays):
    """Curves, responses, and observance indicators (X_i, Y_i, R_i).

    `y` entries are meaningful only where `r` is True; unobserved entries
    may be NaN. At least three responses must be observed: with two, the
    first stage interpolates them and the LASSO cross-validation has no
    training fold with a nonzero column. They must be finite, and the
    squared norm of their centered values must not overflow: every fit's
    cross-validation and tie tolerance is made of such sums. The observed
    view is derived once, on construction: the indices of the observed
    pairs, their count, the mean of their responses and those responses
    centered by it, `y_centered`, on which every fit works. A value class
    (`ReadOnlyArrays`): a sample compares and hashes by identity, and `y`,
    `r` and the view's arrays are read-only copies, so the caller's arrays
    stay writeable.
    """

    x: FunctionalSample
    y: np.ndarray
    r: np.ndarray
    observed_index: np.ndarray = field(init=False, repr=False)
    n_obs: int = field(init=False, repr=False)
    observed_mean: float = field(init=False, repr=False)
    y_centered: np.ndarray = field(init=False, repr=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        r = np.asarray(self.r, dtype=bool)
        if y.shape != (self.x.n,) or r.shape != (self.x.n,):
            raise GridMismatchError(f"row count mismatch: {self.x.n} curves but {y.size} "
                                    f"responses and {r.size} observance indicators")
        observed_index, y_observed = np.flatnonzero(r), y[r]
        if observed_index.size < 3:
            raise ValueError("need at least 3 observed responses")
        if not np.all(np.isfinite(y_observed)):
            raise ValueError("observed responses must be finite")
        # the refusal replaces numpy's warning where the sum or the squared norm overflows
        with np.errstate(over="ignore", invalid="ignore"):
            observed_mean = float(y_observed.mean())
            y_centered = y_observed - observed_mean
            if not np.isfinite(y_centered @ y_centered):
                raise ValueError("the centered observed responses' squared norm overflows")
        for name, value in (("y", y), ("r", r), ("observed_index", observed_index),
                            ("n_obs", observed_index.size), ("observed_mean", observed_mean),
                            ("y_centered", y_centered)):
            object.__setattr__(self, name, value)
        super().__post_init__()

    @property
    def n(self) -> int:
        return self.x.n

    def _derived(self, key, compute):
        """`compute()`, run once per `key` for this sample and then kept.

        Only for values the sample alone determines; `key` must name every
        other input of `compute`.
        """
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]


def observed_pairs_basis(sample: MarSample, var_cutoff: float = DEFAULT_VAR_CUTOFF) -> FpcBasis:
    """FPC basis of the curves whose responses are observed."""
    x_obs = FunctionalSample(sample.x.grid, sample.x.values[sample.observed_index])
    return fpc_decompose(x_obs, var_cutoff)


def _first_stage_basis(sample: MarSample, basis: FpcBasis) -> FpcBasis:
    """The observed-pairs basis at `basis`'s cutoff, once per sample and cutoff.

    With every response observed it is `basis` itself.
    """
    if sample.n_obs == sample.n:
        return basis
    cutoff = basis.var_cutoff
    return sample._derived(("observed_basis", cutoff),
                           lambda: observed_pairs_basis(sample, cutoff))


def _missing_scores(sample: MarSample, basis: FpcBasis) -> np.ndarray:
    """Scores in `basis` of the curves whose responses are missing, once per sample and basis."""
    return sample._derived(("missing_scores", basis),
                           lambda: project_scores(basis, sample.x.values[~sample.r]))


@dataclass(frozen=True, eq=False)
class FunctionalSlope(ReadOnlyArrays):
    """A fitted slope: coefficients on a set of FPC indices plus its curve.

    `basis` is the FPC basis the fit lives in (observed-pairs basis for the
    simplified family, full-sample basis otherwise). `response_center` is the
    observed-response mean removed before fitting; `alpha` is the fit's own
    intercept on that centered scale, the mean of the responses it fitted.
    Two-stage fits keep their first-stage fit in `first_stage` (None for
    one-stage fits), and IPW fits their completion weights in `ipw_weights`,
    so that `refit_residuals` can refit the whole pipeline for the
    bootstrap. The selection is held in `indices` alone (a CV cutoff K
    selects columns 1..K); one-stage CV fits (C, S) also keep their
    leave-one-out CV errors per K in `cv_errors`, and LASSO fits the penalty
    of their support in `lasso_lambda`. Every field is immutable: its arrays
    are read-only copies made on construction, and its basis holds only
    read-only arrays too, so a fit kept on a sample cannot change.
    """

    method_tag: str
    indices: tuple[int, ...]
    coefficients: np.ndarray
    basis: FpcBasis
    curve: np.ndarray
    response_center: float
    alpha: float = 0.0
    cv_errors: np.ndarray | None = None
    lasso_lambda: float | None = None
    first_stage: FunctionalSlope | None = None
    ipw_weights: np.ndarray | None = None

    @property
    def intercept(self) -> float:
        """Raw-scale intercept of the fitted regression."""
        return self.response_center + self.alpha

    def predict_centered(self, scores: np.ndarray) -> np.ndarray:
        """Predictions on the centered-response scale from score rows."""
        cols = np.asarray(self.indices) - 1
        return self.alpha + scores[:, cols] @ self.coefficients

    def predict_sample(self, x: FunctionalSample) -> np.ndarray:
        """Raw-scale predictions for arbitrary curves via basis projection."""
        return self.response_center + self.predict_centered(project_scores(self.basis, x.values))

    def observed_scores(self, sample: MarSample) -> np.ndarray:
        """Score rows, in this fit's basis, of the observed pairs of `sample`.

        `sample` is the sample the slope was fitted on. A one-stage fit lives
        in the observed-pairs basis, whose rows are those pairs; a two-stage
        fit lives in the basis of all n curves.
        """
        if self.first_stage is None:
            return self.basis.scores
        return self.basis.scores[sample.observed_index]

    def refit_residuals(self, sample: MarSample, ystar: np.ndarray) -> np.ndarray:
        """Residuals of refits at this fit's frozen structure, one per row of `ystar`.

        `ystar` is a (B, n_obs) stack of centered responses over the observed
        pairs of `sample`, the sample this slope was fitted on. Every refit is
        the plug-in least squares fit on the frozen score columns of the
        basis its stage was fitted in. A one-stage fit refits over the
        observed pairs; a two-stage fit first completes all n responses from
        its refitted first stage by `_completed_responses` (with the frozen
        IPW weights, if any) and refits the second stage over all rows. The
        map is linear, so the identity stack gives its matrix R: the
        residuals of any stack Y are Y @ R.
        """
        cols = np.asarray(self.indices, dtype=int) - 1
        first = self.first_stage
        target = ystar if first is None else _completed_responses(
            sample, first.basis, first.indices, ystar, self.ipw_weights)
        alpha, coef = _plugin_fit(self.basis.scores[:, cols], self.basis.eigenvalues[cols], target)
        return ystar - alpha[:, None] - coef @ self.observed_scores(sample)[:, cols].T


@dataclass(frozen=True, eq=False)
class ObservanceModel(ReadOnlyArrays):
    """Nadaraya-Watson estimate of the observance probability p(X)."""

    bandwidth: float
    fitted_probabilities: np.ndarray


def _plugin_fit(scores: np.ndarray, eigenvalues: np.ndarray, y: np.ndarray):
    """Least squares with an intercept of y on score columns of a basis's own rows.

    `eigenvalues` are the basis's a_k for those columns; see the module
    docstring for why (mean(y), S'y / (n a)) is then the exact solution. `y`
    is one response vector over the n rows or a (B, n) stack of them.
    """
    return y.mean(axis=-1), (y @ scores) / (scores.shape[0] * eigenvalues)


def _loo_residuals(scores: np.ndarray, eigenvalues: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact leave-one-out residuals of the nested plug-in fits on the first k columns.

    The inverse Gram of the design (1, S) is diag(1/n, 1/(n a_k)), so the fit
    on the first k columns has residuals y - alpha - sum_{j<=k} b_j S_ij and
    leverages 1/n + sum_{j<=k} S_ij^2 / (n a_j): cumulative sums over k.
    Entry [i, k - 1] is e_i / (1 - h_i), row i's prediction error at k
    columns when it is excluded from the fit.
    """
    n = scores.shape[0]
    alpha, coef = _plugin_fit(scores, eigenvalues, y)
    resid = (y - alpha)[:, None] - np.cumsum(scores * coef, axis=1)
    leverage = 1.0 / n + np.cumsum(scores / (n * eigenvalues) * scores, axis=1)
    return resid / np.maximum(1.0 - leverage, 1e-12)


def _first_cv_minimum(errors: np.ndarray, ytilde: np.ndarray) -> int:
    """Index of the first error within round-off of the smallest one.

    Errors closer than CV_TIE_RTOL * y~'y~ to the minimum tie and go to the
    earliest index, so an exact fit, whose errors are rounding dust, does
    not pick its cutoff by the BLAS thread count.
    """
    tol = CV_TIE_RTOL * float(ytilde @ ytilde)
    return int(np.flatnonzero(errors <= errors.min() + tol)[0])


def check_tag(tag: str) -> str:
    """`tag` upper-cased; ConfigError unless it is one of METHOD_TAGS.

    The one check of a method tag, for `fit_slope` and for the estimators
    of an `mc` run alike.
    """
    tag = tag.upper()
    if tag not in METHOD_TAGS:
        raise ConfigError(f"unknown estimator tag {tag!r}; expected one of {METHOD_TAGS}")
    return tag


def _check_basis(sample: MarSample, basis: FpcBasis):
    """Refuse a basis not decomposed from `sample`'s own curves.

    The basis's curves must be `sample.x` itself or hold the same grid and
    values; a basis of another sample, of the same size or not, is refused.
    """
    if basis.curves is not sample.x and not (
            np.array_equal(basis.curves.values, sample.x.values)
            and np.array_equal(basis.curves.grid.points, sample.x.grid.points)):
        raise GridMismatchError("basis was not computed from this sample")


def _first_stage_limit(ob: FpcBasis, sample: MarSample) -> int:
    """Largest first-stage cutoff the leave-one-out CVs may try.

    Without one of n_obs observed pairs, a fit on n_obs - 1 columns has as
    many parameters as rows: its leverages are 1 and its CV error is round-off
    over the leverage floor. So K stops at n_obs - 2; the second stage, refit
    over all n rows, keeps its limit of n_obs - 1. A sample has at least
    three observed pairs and a basis at least one column, so the limit is at
    least 1.
    """
    return min(ob.k_max, sample.n_obs - 2)


def _joint_cv_table(sample: MarSample, basis: FpcBasis,
                    ipw_weights: np.ndarray | None) -> np.ndarray:
    """CV error table over (K_first, K_second) for the two-stage pipelines.

    Each observed response is masked in turn: the first stage is refit on the
    other observed pairs at K_first, all responses are completed (the masked
    one included), the second stage is refit at K_second over all n, and it
    predicts the masked response. A least-squares fit without row i is the
    fit to all rows with y~_i replaced by its leave-one-out prediction
    y~_i - loo_i, so row i of an (n_obs, n_obs) stack holding y~ with that
    entry replaced goes through `_completed_responses` as it is: the masked
    row comes out as its first-stage prediction, imputed or blended
    (w pred + (1 - w) pred = pred). Cumulative sums over K_second give each
    row's prediction of its own masked response.
    """
    ytilde = sample.y_centered
    ob = _first_stage_basis(sample, basis)
    k1_eff = _first_stage_limit(ob, sample)
    k2_eff = min(basis.k_max, sample.n_obs - 1)
    loo_resid = _loo_residuals(ob.scores[:, :k1_eff], ob.eigenvalues[:k1_eff], ytilde)
    s2 = basis.scores[:, :k2_eff]
    s2_obs = s2[sample.observed_index]
    masked = np.tile(ytilde, (ytilde.size, 1))
    diag = np.diag_indices(ytilde.size)
    errors = np.empty((k1_eff, k2_eff))
    for ks in range(1, k1_eff + 1):
        masked[diag] = ytilde - loo_resid[:, ks - 1]
        completed = _completed_responses(sample, ob, range(1, ks + 1), masked, ipw_weights)
        alpha, coef = _plugin_fit(s2, basis.eigenvalues[:k2_eff], completed)
        pred = alpha[:, None] + np.cumsum(coef * s2_obs, axis=1)
        errors[ks - 1] = np.sum((ytilde[:, None] - pred) ** 2, axis=0)
    return errors


def joint_loocv_cutoffs(sample: MarSample, basis: FpcBasis,
                        ipw_weights: np.ndarray | None = None) -> tuple[int, int]:
    """Jointly selected (K_first, K_second) for the imputed or IPW pipeline.

    `ipw_weights` are the IPW completion weights of `_completed_responses`;
    without them the missing responses are imputed.
    """
    _check_basis(sample, basis)
    errors = _joint_cv_table(sample, basis, ipw_weights)
    # ties prefer small K_second, then K_first
    k2, k1 = divmod(_first_cv_minimum(errors.T.ravel(), sample.y_centered), errors.shape[0])
    return k1 + 1, k2 + 1


def _normalized_inverse_probabilities(sample: MarSample, observance: ObservanceModel) -> np.ndarray:
    """R_i / p_hat(X_i), Hajek-normalized to mean one over the observed rows.

    The normalization keeps the completion weights centered at one in finite
    samples (their population mean is one), which stabilizes the completed
    responses and the bootstrap refits without changing the estimator's
    asymptotic target. Entries at unobserved rows are zero.
    """
    inv_p = np.where(sample.r, 1.0 / observance.fitted_probabilities, 0.0)
    return inv_p / inv_p[sample.r].mean()


def _median(values: np.ndarray) -> float:
    """`np.median` of a nonempty 1-D array of finite floats, bit for bit.

    It partitions at the indices `np.median` uses, the last one included, so
    equal values (signed zeros among them) land where they land there, and
    takes the mean of the one or two middle values as `np.median` does. It
    does not import numpy.ma, which `np.median` does on its first call.
    """
    half = values.size // 2
    middle = [half] if values.size % 2 else [half - 1, half]
    return float(np.partition(values, middle + [-1])[middle].mean())


def fit_observance(sample: MarSample) -> ObservanceModel:
    """Nadaraya-Watson fit of p(X) = P(R=1 | X) with a CV bandwidth.

    The kernel is exp(-u^2/2) on curve distances; candidate bandwidths are
    the module's BANDWIDTH_FACTORS times the median pairwise distance, scored
    by leave-one-out squared error on the observance indicators. The fitted
    probabilities (self term included) come from the kernel sums the winning
    bandwidth's CV score computed, and are clamped to [EPS_P, 1].
    """
    d = np.sqrt(sample.x.pairwise_sq_distances())
    n = sample.n
    iu = np.triu_indices(n, k=1)
    off_diag = d[iu]
    if not np.any(off_diag > 0.0):
        raise DegenerateSampleError("all pairwise curve distances are zero")
    med = _median(off_diag)
    if med <= 0.0:
        med = float(off_diag[off_diag > 0.0].mean())

    r = sample.r.astype(float)
    rbar = float(r.mean())
    best = None
    for factor in BANDWIDTH_FACTORS:
        h = float(factor) * med
        with np.errstate(under="ignore"):
            kernel = np.exp(-0.5 * (d / h) ** 2)
        weighted, total = kernel @ r, kernel.sum(axis=1)
        numer = weighted - r  # drop the self term (K(0) = 1)
        denom = total - 1.0
        loo = np.where(denom > 0.0, numer / np.maximum(denom, 1e-300), rbar)
        err = float(np.sum((r - loo) ** 2))
        if best is None or err < best[0]:
            best = (err, h, weighted, total)
    _, h, weighted, total = best
    return ObservanceModel(bandwidth=h, fitted_probabilities=np.clip(weighted / total, EPS_P, 1.0))


def _sample_observance(sample: MarSample) -> ObservanceModel:
    """The sample's observance fit, once per sample."""
    return sample._derived("observance", lambda: fit_observance(sample))


def _ols_slope(tag: str, basis: FpcBasis, indices, y: np.ndarray,
               response_center: float, **fields) -> FunctionalSlope:
    """OLS fit, with an intercept, of y on the `indices` score columns of `basis`."""
    cols = np.asarray(indices, dtype=int) - 1
    alpha, coef = _plugin_fit(basis.scores[:, cols], basis.eigenvalues[cols], y)
    return FunctionalSlope(
        method_tag=tag,
        indices=tuple(int(i) for i in indices),
        coefficients=coef,
        basis=basis,
        curve=coef @ basis.eigenfunctions[cols],
        response_center=float(response_center),
        alpha=float(alpha),
        **fields,
    )


def _completed_responses(sample: MarSample, basis: FpcBasis, indices, y_obs: np.ndarray,
                         ipw_weights: np.ndarray | None) -> np.ndarray:
    """All n responses completed from a first stage fitted on `indices` of `basis`.

    `basis` is the observed-pairs basis and `y_obs` holds centered observed
    responses, one (n_obs,) vector or a (B, n_obs) stack. The first stage is
    fitted to them at `indices` and predicts every row: observed rows from
    the basis's own score rows, missing rows from their projections on it.
    Imputation fills the missing rows with those predictions; with
    `ipw_weights` w (zero where y is missing), every row becomes
    w y + (1 - w) pred.
    """
    cols = np.asarray(indices, dtype=int) - 1
    s_obs = basis.scores[:, cols]
    alpha, coef = _plugin_fit(s_obs, basis.eigenvalues[cols], y_obs)
    alpha = np.expand_dims(alpha, -1)
    completed = np.empty(y_obs.shape[:-1] + (sample.n,))
    obs = sample.observed_index
    if ipw_weights is None:
        completed[..., obs] = y_obs
    else:
        w = ipw_weights[obs]
        completed[..., obs] = w * y_obs + (1.0 - w) * (alpha + coef @ s_obs.T)
    completed[..., ~sample.r] = alpha + coef @ _missing_scores(sample, basis)[:, cols].T
    return completed


def fit_slope(sample: MarSample, basis: FpcBasis, method: str, seed: int = 0) -> FunctionalSlope:
    """Fit one of the eight estimators by its method tag.

    `method` is checked by `check_tag`, in any case. `basis` is the FPC
    basis of all n curves, `fpc_decompose(sample.x)`; a basis decomposed
    from other curves is refused (`_check_basis`). The first stage runs in
    the basis of the observed curves at `basis.var_cutoff`. `seed` sets the
    LASSO cross-validation folds; None or a negative one is refused for
    every tag.
    The CV-selected fits (C, S, I, W) read no seed, so the sample and the
    basis determine them: each is computed once per sample and basis, kept
    on the sample with read-only arrays, and returned as the same object on
    every later call.
    """
    check_seed(seed)
    tag = check_tag(method)
    if tag[0] == "C" and sample.n_obs != sample.n:
        raise ConfigError(f"method {tag} needs fully observed responses")
    _check_basis(sample, basis)
    if tag.endswith("L"):
        return _fit_pipeline(sample, basis, tag, seed)
    return sample._derived(("slope", basis, tag), lambda: _fit_pipeline(sample, basis, tag, seed))


def _fit_pipeline(sample: MarSample, basis: FpcBasis, tag: str, seed: int) -> FunctionalSlope:
    """The two-stage pipeline of `fit_slope` for a checked tag and basis."""
    completion, lasso = tag[0], tag.endswith("L")
    ob = _first_stage_basis(sample, basis)
    two_stage = completion in ("I", "W")
    ybar, ytilde = sample.observed_mean, sample.y_centered
    ipw_weights = None
    if completion == "W":
        ipw_weights = _normalized_inverse_probabilities(sample, _sample_observance(sample))

    # first stage: the observed pairs in their own basis; for I/IL/W/WL it is
    # the simplified fit (S or SL) with the same selector
    first_tag = "S" + tag[1:] if two_stage else tag
    if lasso:
        support, diag = lasso_select(
            ob.scores[:, :_first_stage_limit(ob, sample)], ytilde, seed=seed
        )
        first = _ols_slope(first_tag, ob, support, ytilde, ybar,
                           lasso_lambda=float(diag["lambda"]))
    elif two_stage:
        k_s, k_second = joint_loocv_cutoffs(sample, basis, ipw_weights)
        first = _ols_slope(first_tag, ob, range(1, k_s + 1), ytilde, ybar)
    else:
        k_eff = _first_stage_limit(ob, sample)
        loo_resid = _loo_residuals(ob.scores[:, :k_eff], ob.eigenvalues[:k_eff], ytilde)
        errors = np.sum(loo_resid**2, axis=0)
        k_s = _first_cv_minimum(errors, ytilde) + 1
        first = _ols_slope(first_tag, ob, range(1, k_s + 1), ytilde, ybar, cv_errors=errors)
    if not two_stage:
        return first

    # second stage: all n responses, completed from the first stage
    completed = _completed_responses(sample, ob, first.indices, ytilde, ipw_weights)
    if lasso:
        indices, diag = lasso_select(basis.scores, completed, seed=seed)
        lasso_lambda = float(diag["lambda"])
    else:
        indices, lasso_lambda = range(1, k_second + 1), None
    return _ols_slope(tag, basis, indices, completed, ybar, lasso_lambda=lasso_lambda,
                      first_stage=first, ipw_weights=ipw_weights)
