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
simplified estimator decomposes the observed curves only (so its score
columns are exactly orthogonal over its own rows and the classical plug-in
form b_k = sum y_i S_ik / (n_S a_k) is its exact OLS solution), while the
completed-sample second stages decompose all n curves. With no missing
responses the two bases coincide and every estimator collapses to its
complete-data counterpart.

Coefficients come from ordinary least squares with an unpenalized intercept.
A top-K fit reads its score columns as a slice (`scores[:, :k]`) and a LASSO
support reads them by index array; reports are reproduced to the last digit
only while each keeps that layout.
Responses are centered once by the mean of the observed ones; per-fit
intercepts absorb subsample selection offsets, and the global mean is added
back for predictions and imputations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError, DegenerateSampleError, GridMismatchError, SingularBasisError
from .functional import FpcBasis, FunctionalSample, fpc_decompose, project_scores
from .lasso import lasso_select

#: Lower clamp on fitted observance probabilities (bounds IPW weights by 20).
EPS_P = 0.05

#: Bandwidth grid factors applied to the median pairwise curve distance.
BANDWIDTH_FACTORS = np.round(np.arange(0.1, 1.51, 0.1), 10)

METHOD_TAGS = ("C", "CL", "S", "SL", "I", "IL", "W", "WL")

#: Leave-one-out CV errors within this multiple of y~'y~ of the smallest
#: differ only by round-off and count as ties.
CV_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class MarSample:
    """Curves, responses, and observance indicators (X_i, Y_i, R_i).

    `y` entries are meaningful only where `r` is True; unobserved entries
    may be NaN.
    """

    x: FunctionalSample
    y: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        r = np.asarray(self.r, dtype=bool)
        if y.shape != (self.x.n,) or r.shape != (self.x.n,):
            raise GridMismatchError("y and r must have one entry per curve")
        if int(r.sum()) < 2:
            raise ValueError("need at least 2 observed responses")
        if not np.all(np.isfinite(y[r])):
            raise ValueError("observed responses must be finite")
        y.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "r", r)

    @property
    def n(self) -> int:
        return self.x.n

    @property
    def observed_index(self) -> np.ndarray:
        return np.flatnonzero(self.r)

    @property
    def n_obs(self) -> int:
        return int(self.r.sum())

    @property
    def y_observed(self) -> np.ndarray:
        return self.y[self.r]

    @property
    def observed_mean(self) -> float:
        return float(self.y_observed.mean())


def observed_pairs_basis(sample: MarSample, var_cutoff: float | None = None) -> FpcBasis:
    """FPC basis of the curves whose responses are observed."""
    x_obs = FunctionalSample(sample.x.grid, sample.x.values[sample.observed_index])
    if var_cutoff is None:
        return fpc_decompose(x_obs)
    return fpc_decompose(x_obs, var_cutoff)


@dataclass(frozen=True)
class FunctionalSlope:
    """A fitted slope: coefficients on a set of FPC indices plus its curve.

    `basis` is the FPC basis the fit lives in (observed-pairs basis for the
    simplified family, full-sample basis otherwise). `response_center` is the
    observed-response mean removed before fitting; `alpha` is the fit's own
    intercept on that centered scale (zero for full-sample fits, where score
    columns have exactly zero mean). Two-stage fits keep their first-stage fit
    in `first_stage` (None for one-stage fits), and IPW fits their completion
    weights in `ipw_weights`, so the bootstrap can refit the whole pipeline.
    """

    method_tag: str
    indices: tuple[int, ...]
    coefficients: np.ndarray
    basis: FpcBasis
    curve: np.ndarray
    response_center: float
    alpha: float = 0.0
    cutoffs: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
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


@dataclass(frozen=True)
class ObservanceModel:
    """Nadaraya-Watson estimate of the observance probability p(X)."""

    bandwidth: float
    fitted_probabilities: np.ndarray


def _solve_normal_equations(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(design.T @ design, design.T @ y)
    except np.linalg.LinAlgError as exc:
        raise SingularBasisError(f"singular score design: {exc}") from exc


def _with_intercept(design: np.ndarray) -> np.ndarray:
    return np.column_stack([np.ones(design.shape[0]), design])


def _lm_fit(score_cols: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Least squares with an intercept; returns (alpha, slope coefficients)."""
    solution = _solve_normal_equations(_with_intercept(score_cols), y)
    return float(solution[0]), solution[1:]


def _loo_pieces(design: np.ndarray, y: np.ndarray):
    """Least-squares fit plus exact leave-one-out downdates.

    `design` should already carry its intercept column. Returns
    (coef, loo_residuals, loo_coef) where loo_residuals[i] is the prediction
    error for row i when it is excluded from the fit and loo_coef[i] are the
    corresponding coefficients, via the hat-matrix identities e_i / (1 - h_i)
    and b - G^{-1} s_i e_i / (1 - h_i).
    """
    gram = design.T @ design
    try:
        ginv = np.linalg.inv(gram)
    except np.linalg.LinAlgError as exc:
        raise SingularBasisError(f"singular score design: {exc}") from exc
    coef = ginv @ (design.T @ y)
    resid = y - design @ coef
    influence = design @ ginv  # row i = G^{-1} s_i
    leverage = np.einsum("ij,ij->i", influence, design)
    denom = np.maximum(1.0 - leverage, 1e-12)
    loo_resid = resid / denom
    loo_coef = coef[None, :] - influence * loo_resid[:, None]
    return coef, loo_resid, loo_coef


def _first_cv_minimum(errors: np.ndarray, ytilde: np.ndarray) -> int:
    """Index of the first error within round-off of the smallest one.

    Errors closer than CV_TIE_RTOL * y~'y~ to the minimum tie and go to the
    earliest index, so an exact fit, whose errors are rounding dust, does
    not pick its cutoff by the BLAS thread count.
    """
    tol = CV_TIE_RTOL * float(ytilde @ ytilde)
    return int(np.flatnonzero(errors <= errors.min() + tol)[0])


def _simplified_cv_errors(ytilde, s_obs, k_eff) -> np.ndarray:
    errors = np.empty(k_eff)
    for k in range(1, k_eff + 1):
        _, loo_resid, _ = _loo_pieces(_with_intercept(s_obs[:, :k]), ytilde)
        errors[k - 1] = float(np.sum(loo_resid**2))
    return errors


def _check_basis(sample: MarSample, basis: FpcBasis | None):
    if basis is not None and basis.n != sample.n:
        raise GridMismatchError("basis was not computed from this sample")


def _first_stage_limit(ob: FpcBasis, sample: MarSample) -> int:
    k_eff = min(ob.k_max, sample.n_obs - 1)
    if k_eff < 1:
        raise ValueError("not enough observed pairs to fit any component")
    return k_eff


def _joint_cv_errors(ytilde, ob, obs, miss, scores_full, a_full, n,
                     k1_eff, k2_eff, miss_scores_ob, inv_p_obs=None):
    """CV error table over (K_first, K_second) for the two-stage pipelines.

    For each observed i, the response is masked, the first stage is refit by
    least squares on the remaining observed pairs at K_first (in the
    observed-pairs basis), all missing responses (including the masked one)
    are completed, the second stage is refit at K_second over all n in the
    full basis, and the masked response is predicted. `inv_p_obs` switches
    completion to the inverse-probability-weighted form.
    """
    s2_obs = scores_full[obs][:, :k2_eff]
    s2_miss = scores_full[miss][:, :k2_eff]
    w = np.ones(obs.size) if inv_p_obs is None else np.asarray(inv_p_obs, dtype=float)
    base = s2_obs.T @ (w * ytilde)  # (k2_eff,)
    removed = (w * ytilde)[:, None] * s2_obs  # (n_obs, k2_eff)
    base0 = float(np.sum(w * ytilde))
    removed0 = w * ytilde

    errors = np.empty((k1_eff, k2_eff))
    for ks in range(1, k1_eff + 1):
        design1 = _with_intercept(ob.scores[:, :ks])
        _, _, loo_coef = _loo_pieces(design1, ytilde)  # (n_obs, ks + 1)
        pred_self = np.einsum("ik,ik->i", loo_coef, design1)
        # Second-stage sums of completed_j(i) * S_jk (and * 1) per left-out i:
        # observed j != i keep w_j y_j + (1 - w_j) pred_j, while the masked i
        # and all missing rows carry their first-stage predictions.
        numer = base[None, :] - removed
        mean_acc = base0 - removed0
        if inv_p_obs is not None:
            pred_obs = loo_coef @ design1.T  # (left-out i, observed row j)
            numer = numer + (pred_obs * (1.0 - w)[None, :]) @ s2_obs
            mean_acc = mean_acc + pred_obs @ (1.0 - w)
        numer = numer + (w * pred_self)[:, None] * s2_obs
        mean_acc = mean_acc + w * pred_self
        if miss.size:
            pred_miss = loo_coef @ _with_intercept(miss_scores_ob[:, :ks]).T
            numer = numer + pred_miss @ s2_miss
            mean_acc = mean_acc + pred_miss.sum(axis=1)
        # full-sample score columns are exactly orthogonal and zero-mean, so
        # the second-stage lm reduces to the diagonal form plus a mean
        b_second = numer / (n * a_full[:k2_eff])[None, :]
        alpha_second = mean_acc / n
        pred_second = alpha_second[:, None] + np.cumsum(b_second * s2_obs, axis=1)
        errors[ks - 1] = np.sum((ytilde[:, None] - pred_second) ** 2, axis=0)
    return errors


def joint_loocv_cutoffs(
    sample: MarSample,
    basis: FpcBasis,
    observance: ObservanceModel | None = None,
    observed_basis: FpcBasis | None = None,
) -> tuple[int, int]:
    """Jointly selected (K_first, K_second) for the imputed or IPW pipeline."""
    _check_basis(sample, basis)
    obs = sample.observed_index
    miss = np.flatnonzero(~sample.r)
    ytilde = sample.y_observed - sample.observed_mean
    ob = observed_basis if observed_basis is not None else observed_pairs_basis(sample)
    k1_eff = _first_stage_limit(ob, sample)
    k2_eff = min(basis.k_max, sample.n_obs - 1)
    miss_scores_ob = (
        project_scores(ob, sample.x.values[miss]) if miss.size else np.zeros((0, ob.k_max))
    )
    inv_p = None
    if observance is not None:
        inv_p = _normalized_inverse_probabilities(sample, observance)[obs]
    errors = _joint_cv_errors(
        ytilde, ob, obs, miss, basis.scores, basis.eigenvalues,
        sample.n, k1_eff, k2_eff, miss_scores_ob, inv_p,
    )
    # ties prefer small K_second, then K_first
    k2, k1 = divmod(_first_cv_minimum(errors.T.ravel(), ytilde), k1_eff)
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


def fit_observance(sample: MarSample) -> ObservanceModel:
    """Nadaraya-Watson fit of p(X) = P(R=1 | X) with a CV bandwidth.

    The kernel is exp(-u^2/2) on curve distances; candidate bandwidths are
    the module's BANDWIDTH_FACTORS times the median pairwise distance, scored
    by leave-one-out squared error on the observance indicators. The fitted
    probabilities (self term included) are clamped to [EPS_P, 1].
    """
    d = np.sqrt(sample.x.pairwise_sq_distances())
    n = sample.n
    iu = np.triu_indices(n, k=1)
    off_diag = d[iu]
    if not np.any(off_diag > 0.0):
        raise DegenerateSampleError("all pairwise curve distances are zero")
    med = float(np.median(off_diag))
    if med <= 0.0:
        med = float(off_diag[off_diag > 0.0].mean())

    r = sample.r.astype(float)
    rbar = float(r.mean())
    best = None
    for factor in BANDWIDTH_FACTORS:
        h = float(factor) * med
        with np.errstate(under="ignore"):
            kernel = np.exp(-0.5 * (d / h) ** 2)
        numer = kernel @ r - r  # drop the self term (K(0) = 1)
        denom = kernel.sum(axis=1) - 1.0
        loo = np.where(denom > 0.0, numer / np.maximum(denom, 1e-300), rbar)
        err = float(np.sum((r - loo) ** 2))
        if best is None or err < best[0]:
            best = (err, h)
    h = best[1]
    with np.errstate(under="ignore"):
        kernel = np.exp(-0.5 * (d / h) ** 2)
    fitted = (kernel @ r) / kernel.sum(axis=1)
    fitted = np.clip(fitted, EPS_P, 1.0)
    fitted.setflags(write=False)
    return ObservanceModel(bandwidth=h, fitted_probabilities=fitted)


def _ols_slope(tag: str, basis: FpcBasis, indices, y: np.ndarray,
               response_center: float, **fields) -> FunctionalSlope:
    """OLS fit, with an intercept, of y on the `indices` score columns of `basis`.

    A `range` of leading components is read as a column slice, any other
    support by index array (see the module docstring).
    """
    cols = np.asarray(indices, dtype=int) - 1
    columns = basis.scores[:, :cols.size] if isinstance(indices, range) else basis.scores[:, cols]
    alpha, coef = _lm_fit(columns, y)
    return FunctionalSlope(
        method_tag=tag,
        indices=tuple(int(i) for i in indices),
        coefficients=coef,
        basis=basis,
        curve=coef @ basis.eigenfunctions[cols],
        response_center=float(response_center),
        alpha=alpha,
        **fields,
    )


def fit_slope(
    sample: MarSample,
    basis: FpcBasis,
    method: str,
    seed: int = 0,
    observance: ObservanceModel | None = None,
    observed_basis: FpcBasis | None = None,
) -> FunctionalSlope:
    """Fit one of the eight estimators by its method tag.

    `basis` is the FPC basis of all n curves; `observed_basis` (that of the
    observed curves) and `observance` (the p(X) fit of W and WL) are computed
    when not given. `seed` sets the LASSO cross-validation folds.
    """
    tag = method.upper()
    if tag not in METHOD_TAGS:
        raise ConfigError(f"unknown method tag {tag!r}; expected one of {METHOD_TAGS}")
    completion, lasso = tag[0], tag.endswith("L")
    if completion == "C" and sample.n_obs != sample.n:
        raise ConfigError(f"method {tag} needs fully observed responses")
    _check_basis(sample, basis)
    if completion == "W" and observance is None:
        observance = fit_observance(sample)
    ob = observed_basis
    if ob is None:
        ob = basis if completion == "C" else observed_pairs_basis(sample)
    two_stage = completion in ("I", "W")
    ybar = sample.observed_mean
    ytilde = sample.y_observed - ybar

    # first stage: the observed pairs in their own basis; for I/IL/W/WL it is
    # the simplified fit (S or SL) with the same selector
    first_tag = "S" + tag[1:] if two_stage else tag
    if lasso:
        support, diag = lasso_select(
            ob.scores[:, :_first_stage_limit(ob, sample)], ytilde, seed=seed
        )
        first = _ols_slope(first_tag, ob, support, ytilde, ybar,
                           cutoffs={"indices": support}, diagnostics={"lambda": diag["lambda"]})
    elif two_stage:
        k_s, k_second = joint_loocv_cutoffs(
            sample, basis,
            observance=observance if completion == "W" else None, observed_basis=ob,
        )
        first = _ols_slope(first_tag, ob, range(1, k_s + 1), ytilde, ybar,
                           cutoffs={"K_S": k_s})
    else:
        errors = _simplified_cv_errors(ytilde, ob.scores, _first_stage_limit(ob, sample))
        k_s = _first_cv_minimum(errors, ytilde) + 1
        first = _ols_slope(first_tag, ob, range(1, k_s + 1), ytilde, ybar,
                           cutoffs={"K_S": k_s}, diagnostics={"cv_errors": errors})
    if not two_stage:
        return first

    # second stage: all n responses, completed from the first stage
    completed = np.zeros(sample.n)
    completed[sample.observed_index] = ytilde
    ipw_weights = None
    if completion == "I":
        miss = np.flatnonzero(~sample.r)
        if miss.size:
            completed[miss] = first.predict_centered(project_scores(ob, sample.x.values[miss]))
    else:
        ipw_weights = _normalized_inverse_probabilities(sample, observance)
        pred = first.predict_centered(project_scores(ob, sample.x.values))
        completed = ipw_weights * completed + (1.0 - ipw_weights) * pred
    if lasso:
        indices, diag = lasso_select(basis.scores, completed, seed=seed)
        cutoffs = {"indices": indices, "first_stage": first.indices}
        diagnostics = {"lambda": diag["lambda"]}
    else:
        indices = range(1, k_second + 1)
        cutoffs = {"K_S": k_s, f"K_{completion}": k_second}
        diagnostics = {}
    return _ols_slope(tag, basis, indices, completed, ybar, cutoffs=cutoffs,
                      diagnostics=diagnostics, first_stage=first, ipw_weights=ipw_weights)
