"""Slope estimators for the scalar-on-function linear model with MAR responses.

Six estimators are provided, combining three treatments of missing responses
(simplified: use observed pairs only; imputed: fill them with simplified-fit
predictions; inverse probability weighted: fill them with weights from an
estimated observance probability) with two ways of picking FPC score columns
(top-K by leave-one-out CV, or LASSO support with an OLS refit).
Complete-data references C/CL are the same pipelines on fully observed
samples.

Each regression uses the FPC basis of the curves whose pairs it fits: the
simplified estimator decomposes the observed curves only (so its score
columns are exactly orthogonal over its own rows and the classical plug-in
form b_k = sum y_i S_ik / (n_S a_k) is its exact OLS solution), while the
completed-sample second stages decompose all n curves. With no missing
responses the two bases coincide and every estimator collapses to its
complete-data counterpart.

Coefficients come from ordinary least squares with an unpenalized intercept.
Responses are centered once by the mean of the observed ones; per-fit
intercepts absorb subsample selection offsets, and the global mean is added
back for predictions and imputations.
"""

from __future__ import annotations

import dataclasses
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
    columns have exactly zero mean). Two-stage fits keep their first stage in
    `first_stage` so the bootstrap can refit the whole pipeline.
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
    first_stage: dict | None = None

    @property
    def intercept(self) -> float:
        """Raw-scale intercept of the fitted regression."""
        return self.response_center + self.alpha

    def predict_centered(self, scores: np.ndarray) -> np.ndarray:
        """Predictions on the centered-response scale from score rows."""
        cols = np.asarray(self.indices) - 1
        return self.alpha + scores[:, cols] @ self.coefficients

    def fitted_values(self, scores: np.ndarray | None = None) -> np.ndarray:
        """Raw-scale predictions for the rows of this fit's own basis."""
        s = self.basis.scores if scores is None else scores
        return self.response_center + self.predict_centered(s)

    def predict_sample(self, x: FunctionalSample) -> np.ndarray:
        """Raw-scale predictions for arbitrary curves via basis projection."""
        return self.response_center + self.predict_centered(project_scores(self.basis, x.values))


@dataclass(frozen=True)
class ObservanceModel:
    """Nadaraya-Watson estimate of the observance probability p(X)."""

    bandwidth: float
    fitted_probabilities: np.ndarray
    eps_p: float = EPS_P
    kernel_tag: str = "gaussian"
    cv_errors: np.ndarray | None = None


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


def ols_fpc_coefficients(
    basis: FpcBasis,
    y: np.ndarray,
    index_set: tuple[int, ...] | np.ndarray,
    weight_index: np.ndarray,
) -> np.ndarray:
    """Least-squares slope coefficients of y on the selected score columns.

    `y` is a full-length response vector over the basis rows; only
    `weight_index` rows enter the fit (with an intercept). When the basis
    was decomposed from exactly the `weight_index` curves, its score columns
    are orthogonal with squared norms |I| * a_k and this reduces to the
    plug-in form b_k = sum_{i in I} y_i S_ik / (|I| a_k).
    """
    idx = np.asarray(index_set, dtype=int)
    if idx.size == 0:
        raise ValueError("index_set must be nonempty")
    a = basis.eigenvalues[idx - 1]
    if np.any(a <= 1e-14 * max(basis.eigenvalues[0], 1e-300)):
        raise SingularBasisError(f"zero eigenvalue among components {tuple(idx)}")
    rows = np.asarray(weight_index, dtype=int)
    _, coef = _lm_fit(basis.scores[rows][:, idx - 1], np.asarray(y, dtype=float)[rows])
    return coef


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


def _prep(sample: MarSample, basis: FpcBasis | None):
    if basis is not None and basis.n != sample.n:
        raise GridMismatchError("basis was not computed from this sample")
    obs = sample.observed_index
    miss = np.flatnonzero(~sample.r)
    ybar = sample.observed_mean
    ytilde = sample.y_observed - ybar
    return obs, miss, ybar, ytilde


def _first_stage_limit(ob: FpcBasis, sample: MarSample, k_max: int | None) -> int:
    k_eff = min(ob.k_max, sample.n_obs - 1)
    if k_max is not None:
        k_eff = min(k_eff, int(k_max))
    if k_eff < 1:
        raise ValueError("not enough observed pairs to fit any component")
    return k_eff


def loocv_cutoff_simplified(
    sample: MarSample,
    basis: FpcBasis | None = None,
    k_max: int | None = None,
    observed_basis: FpcBasis | None = None,
) -> int:
    """Cutoff K minimizing leave-one-out error of the observed-pairs fit.

    Errors within round-off of the minimum (CV_TIE_RTOL * y~'y~) tie, and
    ties break toward the smaller K. The search range is clamped to
    n_obs - 1 so every leave-one-out fit stays defined.
    """
    obs, _, _, ytilde = _prep(sample, basis)
    ob = observed_basis if observed_basis is not None else observed_pairs_basis(sample)
    k_eff = _first_stage_limit(ob, sample, k_max)
    errors = _simplified_cv_errors(ytilde, ob.scores, k_eff)
    return _first_cv_minimum(errors, ytilde) + 1


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
    k_max: int | None = None,
    observance: ObservanceModel | None = None,
    observed_basis: FpcBasis | None = None,
) -> tuple[int, int]:
    """Jointly selected (K_first, K_second) for the imputed or IPW pipeline."""
    obs, miss, _, ytilde = _prep(sample, basis)
    ob = observed_basis if observed_basis is not None else observed_pairs_basis(sample)
    k1_eff = _first_stage_limit(ob, sample, k_max)
    k2_eff = min(basis.k_max, sample.n_obs - 1)
    if k_max is not None:
        k2_eff = min(k2_eff, int(k_max))
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


def _make_slope(basis, tag, indices, coefficients, response_center, alpha,
                cutoffs=None, diagnostics=None, first_stage=None):
    cols = np.asarray(indices, dtype=int) - 1
    curve = coefficients @ basis.eigenfunctions[cols]
    return FunctionalSlope(
        method_tag=tag,
        indices=tuple(int(i) for i in indices),
        coefficients=np.asarray(coefficients, dtype=float),
        basis=basis,
        curve=curve,
        response_center=float(response_center),
        alpha=float(alpha),
        cutoffs=cutoffs or {},
        diagnostics=diagnostics or {},
        first_stage=first_stage,
    )


def _centered_full_response(sample: MarSample) -> np.ndarray:
    """Full-length centered responses with zeros at unobserved entries."""
    out = np.zeros(sample.n)
    out[sample.observed_index] = sample.y_observed - sample.observed_mean
    return out


def _fit_first_stage(sample, ob, k_s, ytilde):
    alpha1, coef1 = _lm_fit(ob.scores[:, :k_s], ytilde)
    return {
        "basis": ob,
        "indices": tuple(range(1, k_s + 1)),
        "alpha": alpha1,
        "coefficients": coef1,
    }


def _first_stage_predictions(first_stage, curves: np.ndarray) -> np.ndarray:
    """Centered-scale predictions of the first stage for arbitrary curves."""
    cols = np.asarray(first_stage["indices"], dtype=int) - 1
    scores = project_scores(first_stage["basis"], curves)
    return first_stage["alpha"] + scores[:, cols] @ first_stage["coefficients"]


def estimate_simplified(
    sample: MarSample,
    basis: FpcBasis | None = None,
    k_max: int | None = None,
    observed_basis: FpcBasis | None = None,
) -> FunctionalSlope:
    """Observed-pairs estimator: own FPC basis, top-K cutoff by leave-one-out CV."""
    obs, _, ybar, ytilde = _prep(sample, basis)
    ob = observed_basis if observed_basis is not None else observed_pairs_basis(sample)
    k_eff = _first_stage_limit(ob, sample, k_max)
    errors = _simplified_cv_errors(ytilde, ob.scores, k_eff)
    k_s = _first_cv_minimum(errors, ytilde) + 1
    indices = tuple(range(1, k_s + 1))
    alpha, coef = _lm_fit(ob.scores[:, :k_s], ytilde)
    return _make_slope(
        ob, "S", indices, coef, ybar, alpha,
        cutoffs={"K_S": k_s},
        diagnostics={"cv_errors": errors},
    )


def impute_responses(sample: MarSample, slope: FunctionalSlope) -> np.ndarray:
    """Responses completed with slope predictions at unobserved entries."""
    out = sample.y.astype(float).copy()
    miss = ~sample.r
    if miss.any():
        out[miss] = slope.predict_sample(
            FunctionalSample(sample.x.grid, sample.x.values[miss])
        )
    return out


def completed_ipw_responses(
    sample: MarSample, slope: FunctionalSlope, observance: ObservanceModel
) -> np.ndarray:
    """Inverse-probability-weighted completion of the response vector."""
    pred = slope.predict_sample(sample.x)
    inv_p = _normalized_inverse_probabilities(sample, observance)
    y_filled = np.where(sample.r, sample.y, 0.0)
    return inv_p * y_filled + (1.0 - inv_p) * pred



def _normalized_inverse_probabilities(sample: MarSample, observance: ObservanceModel) -> np.ndarray:
    """R_i / p_hat(X_i), Hajek-normalized to mean one over the observed rows.

    The normalization keeps the completion weights centered at one in finite
    samples (their population mean is one), which stabilizes the completed
    responses and the bootstrap refits without changing the estimator's
    asymptotic target. Entries at unobserved rows are zero.
    """
    inv_p = np.where(sample.r, 1.0 / observance.fitted_probabilities, 0.0)
    return inv_p / inv_p[sample.r].mean()


def estimate_imputed(
    sample: MarSample,
    basis: FpcBasis,
    k_max: int | None = None,
    observed_basis: FpcBasis | None = None,
) -> FunctionalSlope:
    """Estimator refit on all n responses completed by a simplified-fit imputation."""
    obs, miss, ybar, ytilde = _prep(sample, basis)
    ob = observed_basis if observed_basis is not None else observed_pairs_basis(sample)
    k_s, k_i = joint_loocv_cutoffs(sample, basis, k_max=k_max, observed_basis=ob)
    first = _fit_first_stage(sample, ob, k_s, ytilde)
    completed = _centered_full_response(sample)
    if miss.size:
        completed[miss] = _first_stage_predictions(first, sample.x.values[miss])
    indices = tuple(range(1, k_i + 1))
    alpha, coef = _lm_fit(basis.scores[:, :k_i], completed)
    return _make_slope(basis, "I", indices, coef, ybar, alpha,
                       cutoffs={"K_S": k_s, "K_I": k_i}, first_stage=first)


def estimate_ipw(
    sample: MarSample,
    basis: FpcBasis,
    observance: ObservanceModel,
    k_max: int | None = None,
    observed_basis: FpcBasis | None = None,
) -> FunctionalSlope:
    """Estimator refit on inverse-probability-weighted completed responses."""
    obs, miss, ybar, ytilde = _prep(sample, basis)
    ob = observed_basis if observed_basis is not None else observed_pairs_basis(sample)
    k_s, k_w = joint_loocv_cutoffs(
        sample, basis, k_max=k_max, observance=observance, observed_basis=ob
    )
    first = _fit_first_stage(sample, ob, k_s, ytilde)
    pred = _first_stage_predictions(first, sample.x.values)
    inv_p = _normalized_inverse_probabilities(sample, observance)
    completed = inv_p * _centered_full_response(sample) + (1.0 - inv_p) * pred
    indices = tuple(range(1, k_w + 1))
    alpha, coef = _lm_fit(basis.scores[:, :k_w], completed)
    return _make_slope(basis, "W", indices, coef, ybar, alpha,
                       cutoffs={"K_S": k_s, "K_W": k_w}, first_stage=first)


def _require_fully_observed(sample: MarSample, tag: str):
    if sample.n_obs != sample.n:
        raise ConfigError(f"method {tag} needs fully observed responses")


def estimate_complete(
    sample: MarSample,
    basis: FpcBasis,
    k_max: int | None = None,
    observed_basis: FpcBasis | None = None,
) -> FunctionalSlope:
    """Complete-data FPC estimator (benchmark); requires no missing responses."""
    _require_fully_observed(sample, "C")
    slope = estimate_simplified(sample, basis, k_max, observed_basis=observed_basis or basis)
    return dataclasses.replace(slope, method_tag="C")


def estimate_simplified_lasso(
    sample: MarSample,
    basis: FpcBasis | None = None,
    seed: int = 0,
    k_max: int | None = None,
    observed_basis: FpcBasis | None = None,
) -> FunctionalSlope:
    """LASSO-selected support on observed pairs, coefficients refit by OLS."""
    obs, _, ybar, ytilde = _prep(sample, basis)
    ob = observed_basis if observed_basis is not None else observed_pairs_basis(sample)
    k_eff = _first_stage_limit(ob, sample, k_max)
    indices, diag = lasso_select(ob.scores[:, :k_eff], ytilde, seed=seed)
    alpha, coef = _lm_fit(ob.scores[:, np.asarray(indices) - 1], ytilde)
    return _make_slope(
        ob, "SL", indices, coef, ybar, alpha,
        cutoffs={"indices": indices},
        diagnostics={"lambda": diag["lambda"]},
    )


def estimate_imputed_lasso(
    sample: MarSample,
    basis: FpcBasis,
    seed: int = 0,
    k_max: int | None = None,
    observed_basis: FpcBasis | None = None,
) -> FunctionalSlope:
    """LASSO-selected estimator on responses completed by the SL fit."""
    obs, miss, ybar, ytilde = _prep(sample, basis)
    ob = observed_basis if observed_basis is not None else observed_pairs_basis(sample)
    sl = estimate_simplified_lasso(sample, basis, seed=seed, k_max=k_max, observed_basis=ob)
    first = {
        "basis": ob,
        "indices": sl.indices,
        "alpha": sl.alpha,
        "coefficients": sl.coefficients,
    }
    completed = _centered_full_response(sample)
    if miss.size:
        completed[miss] = _first_stage_predictions(first, sample.x.values[miss])
    k_limit = basis.k_max if k_max is None else min(int(k_max), basis.k_max)
    indices, diag = lasso_select(basis.scores[:, :k_limit], completed, seed=seed)
    alpha, coef = _lm_fit(basis.scores[:, np.asarray(indices) - 1], completed)
    return _make_slope(
        basis, "IL", indices, coef, ybar, alpha,
        cutoffs={"indices": indices, "first_stage": sl.indices},
        diagnostics={"lambda": diag["lambda"]},
        first_stage=first,
    )


def estimate_ipw_lasso(
    sample: MarSample,
    basis: FpcBasis,
    observance: ObservanceModel,
    seed: int = 0,
    k_max: int | None = None,
    observed_basis: FpcBasis | None = None,
) -> FunctionalSlope:
    """LASSO-selected estimator on IPW-completed responses."""
    obs, miss, ybar, ytilde = _prep(sample, basis)
    ob = observed_basis if observed_basis is not None else observed_pairs_basis(sample)
    sl = estimate_simplified_lasso(sample, basis, seed=seed, k_max=k_max, observed_basis=ob)
    first = {
        "basis": ob,
        "indices": sl.indices,
        "alpha": sl.alpha,
        "coefficients": sl.coefficients,
    }
    pred = _first_stage_predictions(first, sample.x.values)
    inv_p = _normalized_inverse_probabilities(sample, observance)
    completed = inv_p * _centered_full_response(sample) + (1.0 - inv_p) * pred
    k_limit = basis.k_max if k_max is None else min(int(k_max), basis.k_max)
    indices, diag = lasso_select(basis.scores[:, :k_limit], completed, seed=seed)
    alpha, coef = _lm_fit(basis.scores[:, np.asarray(indices) - 1], completed)
    return _make_slope(
        basis, "WL", indices, coef, ybar, alpha,
        cutoffs={"indices": indices, "first_stage": sl.indices},
        diagnostics={"lambda": diag["lambda"]},
        first_stage=first,
    )


def estimate_complete_lasso(
    sample: MarSample,
    basis: FpcBasis,
    seed: int = 0,
    k_max: int | None = None,
    observed_basis: FpcBasis | None = None,
) -> FunctionalSlope:
    """Complete-data LASSO-selected estimator (benchmark)."""
    _require_fully_observed(sample, "CL")
    slope = estimate_simplified_lasso(
        sample, basis, seed=seed, k_max=k_max, observed_basis=observed_basis or basis
    )
    return dataclasses.replace(slope, method_tag="CL")


def fit_observance(
    sample: MarSample,
    eps_p: float = EPS_P,
    bandwidth_factors: np.ndarray = BANDWIDTH_FACTORS,
) -> ObservanceModel:
    """Nadaraya-Watson fit of p(X) = P(R=1 | X) with a CV bandwidth.

    The kernel is exp(-u^2/2) on curve distances; candidate bandwidths are
    `bandwidth_factors` times the median pairwise distance, scored by
    leave-one-out squared error on the observance indicators. The fitted
    probabilities (self term included) are clamped to [eps_p, 1].
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
    cv_errors = np.empty(len(bandwidth_factors))
    for pos, factor in enumerate(bandwidth_factors):
        h = float(factor) * med
        with np.errstate(under="ignore"):
            kernel = np.exp(-0.5 * (d / h) ** 2)
        numer = kernel @ r - r  # drop the self term (K(0) = 1)
        denom = kernel.sum(axis=1) - 1.0
        loo = np.where(denom > 0.0, numer / np.maximum(denom, 1e-300), rbar)
        err = float(np.sum((r - loo) ** 2))
        cv_errors[pos] = err
        if best is None or err < best[0]:
            best = (err, h)
    h = best[1]
    with np.errstate(under="ignore"):
        kernel = np.exp(-0.5 * (d / h) ** 2)
    fitted = (kernel @ r) / kernel.sum(axis=1)
    fitted = np.clip(fitted, eps_p, 1.0)
    fitted.setflags(write=False)
    return ObservanceModel(
        bandwidth=h, fitted_probabilities=fitted, eps_p=eps_p, cv_errors=cv_errors
    )


def fit_slope(
    sample: MarSample,
    basis: FpcBasis,
    method: str,
    seed: int = 0,
    observance: ObservanceModel | None = None,
    k_max: int | None = None,
    observed_basis: FpcBasis | None = None,
) -> FunctionalSlope:
    """Fit one of the eight estimators by its method tag."""
    method = method.upper()
    if method in ("W", "WL") and observance is None:
        observance = fit_observance(sample)
    if method == "C":
        return estimate_complete(sample, basis, k_max, observed_basis)
    if method == "CL":
        return estimate_complete_lasso(sample, basis, seed, k_max, observed_basis)
    if method == "S":
        return estimate_simplified(sample, basis, k_max, observed_basis)
    if method == "SL":
        return estimate_simplified_lasso(sample, basis, seed, k_max, observed_basis)
    if method == "I":
        return estimate_imputed(sample, basis, k_max, observed_basis)
    if method == "IL":
        return estimate_imputed_lasso(sample, basis, seed, k_max, observed_basis)
    if method == "W":
        return estimate_ipw(sample, basis, observance, k_max, observed_basis)
    if method == "WL":
        return estimate_ipw_lasso(sample, basis, observance, seed, k_max, observed_basis)
    raise ConfigError(f"unknown method tag {method!r}; expected one of {METHOD_TAGS}")
