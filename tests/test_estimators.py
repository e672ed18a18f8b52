import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sofreg.estimators
from conftest import GRID, make_mar_dataset, make_score_linear_sample
from oracles import (
    completed_ipw_responses,
    impute_responses,
    nw_bandwidth_reference,
    ols_fpc_coefficients,
)
from sofreg.estimators import (
    EPS_P,
    MarSample,
    ObservanceModel,
    fit_observance,
    fit_slope,
    joint_loocv_cutoffs,
    observed_pairs_basis,
)
from sofreg.exceptions import ConfigError, DegenerateSampleError
from sofreg.functional import FunctionalSample, fpc_decompose, project_scores
from sofreg.simulation import gen_missing, gen_ou_sample, gen_responses, mse_estimation


def aug(block):
    return np.column_stack([np.ones(block.shape[0]), block])


def brute_simplified_cv(sample, ob, k_eff):
    """Literal leave-one-out recomputation of the simplified CV curve."""
    obs = sample.observed_index
    ybar = sample.observed_mean
    yt = sample.y[obs] - ybar
    errors = np.zeros(k_eff)
    for k in range(1, k_eff + 1):
        for pos in range(obs.size):
            keep = np.arange(obs.size) != pos
            d = aug(ob.scores[keep][:, :k])
            b = np.linalg.lstsq(d, yt[keep], rcond=None)[0]
            pred = (aug(ob.scores[pos:pos + 1, :k]) @ b).item()
            errors[k - 1] += (yt[pos] - pred) ** 2
    return errors


def brute_joint_cv(sample, basis, ob, k1_eff, k2_eff, observance=None):
    """Literal refit of the full two-stage pipeline per left-out observed point."""
    obs = sample.observed_index
    n = sample.n
    ybar = sample.observed_mean
    yt_obs = sample.y[obs] - ybar
    miss = np.flatnonzero(~sample.r)
    ob_scores_miss = project_scores(ob, sample.x.values[miss]) if miss.size else None
    inv_p = None
    if observance is not None:
        inv_p = 1.0 / observance.fitted_probabilities
    errors = np.zeros((k1_eff, k2_eff))
    for pos, i in enumerate(obs):
        keep = np.arange(obs.size) != pos
        for ks in range(1, k1_eff + 1):
            d1 = aug(ob.scores[keep][:, :ks])
            b1 = np.linalg.lstsq(d1, yt_obs[keep], rcond=None)[0]

            def stage1_pred(ob_rows):
                return (aug(ob_rows[:, :ks]) @ b1)

            completed = np.zeros(n)
            completed[obs] = yt_obs
            completed[i] = stage1_pred(ob.scores[pos:pos + 1]).item()
            if inv_p is not None:
                pred_obs = stage1_pred(ob.scores)
                for q, j in enumerate(obs):
                    if j == i:
                        continue
                    completed[j] = inv_p[j] * yt_obs[q] + (1 - inv_p[j]) * pred_obs[q]
            if miss.size:
                completed[miss] = stage1_pred(ob_scores_miss)
            for ki in range(1, k2_eff + 1):
                d2 = aug(basis.scores[:, :ki])
                b2 = np.linalg.lstsq(d2, completed, rcond=None)[0]
                pred = (aug(basis.scores[i:i + 1, :ki]) @ b2).item()
                errors[ks - 1, ki - 1] += (yt_obs[pos] - pred) ** 2
    return errors


class TestOlsCoefficients:
    def test_zero_response(self):
        sample, basis = make_score_linear_sample({1: 0.0}, n=30, seed=0)
        coef = ols_fpc_coefficients(basis, np.zeros(30), (1, 2), np.arange(30))
        np.testing.assert_allclose(coef, 0.0, atol=1e-12)

    def test_single_score_response(self):
        sample, basis = make_score_linear_sample({1: 3.5}, n=50, seed=1)
        y = 3.5 * basis.scores[:, 0]
        coef = ols_fpc_coefficients(basis, y, tuple(range(1, basis.k_max + 1)), np.arange(50))
        assert coef[0] == pytest.approx(3.5, abs=1e-8)
        np.testing.assert_allclose(coef[1:], 0.0, atol=1e-8)

    def test_two_component_recovery(self):
        sample, basis = make_score_linear_sample({1: 2.0, 2: -1.0}, n=60, seed=2)
        y = 2.0 * basis.scores[:, 0] - basis.scores[:, 1]
        coef = ols_fpc_coefficients(basis, y, (1, 2), np.arange(60))
        np.testing.assert_allclose(coef, [2.0, -1.0], atol=1e-6)

    def test_zero_eigenvalue_raises(self):
        sample, basis = make_score_linear_sample({1: 1.0}, n=20, seed=3)
        import dataclasses

        broken = dataclasses.replace(
            basis, eigenvalues=np.where(np.arange(basis.k_max) == 1, 0.0, basis.eigenvalues)
        )
        with pytest.raises(ValueError):
            ols_fpc_coefficients(broken, np.ones(20), (1, 2), np.arange(20))


class TestSimplifiedCutoff:
    def test_noiseless_first_component(self):
        sample, basis = make_score_linear_sample({1: 1.0}, n=40, seed=4)
        assert fit_slope(sample, basis, "S").cutoffs["K_S"] == 1

    def test_matches_brute_force(self):
        sample, basis, _ = make_mar_dataset(n=25, beta_id=3, eta=1.0, seed=5)
        ob = observed_pairs_basis(sample)
        slope = fit_slope(sample, basis, "S")
        brute = brute_simplified_cv(sample, ob, min(ob.k_max, sample.n_obs - 1))
        np.testing.assert_allclose(slope.diagnostics["cv_errors"], brute, rtol=1e-9)
        assert slope.cutoffs["K_S"] == int(np.argmin(brute)) + 1

    def test_pure_noise_prefers_one_component(self):
        wins = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x = gen_ou_sample(50, GRID, rng)
            basis = fpc_decompose(x)
            y = rng.normal(size=50)
            sample = MarSample(x, y, np.ones(50, dtype=bool))
            wins += fit_slope(sample, basis, "S").cutoffs["K_S"] == 1
        assert wins > 50


class TestJointCutoffs:
    @pytest.mark.parametrize("mode, n, eta, delta, seed", [
        ("imputed", 22, 0.5, 0.0, 6), ("ipw", 22, 0.5, 0.0, 6),
        # the basis widths clip both limits, to K_first <= 4 and K_second <= 5
        ("imputed", 40, 2.0, 0.03, 0), ("ipw", 40, 2.0, 0.03, 0),
    ], ids=["imputed", "ipw", "imputed-n40", "ipw-n40"])
    def test_matches_brute_force(self, mode, n, eta, delta, seed):
        sample, basis, _ = make_mar_dataset(n=n, beta_id=3, eta=eta, delta=delta, seed=seed)
        ob = observed_pairs_basis(sample)
        observance = fit_observance(sample) if mode == "ipw" else None
        from sofreg.estimators import _joint_cv_table

        k1_eff = min(ob.k_max, sample.n_obs - 1)
        k2_eff = min(basis.k_max, sample.n_obs - 1)
        weights = None
        if observance:
            weights = np.where(sample.r, 1.0 / observance.fitted_probabilities, 0.0)
        fast = _joint_cv_table(sample, basis, weights)
        brute = brute_joint_cv(sample, basis, ob, k1_eff, k2_eff, observance)
        np.testing.assert_allclose(fast, brute, rtol=1e-8)

    def test_no_leave_one_out_cv_selects_an_interpolating_fit(self):
        # n_obs = 5: without one observed pair, an intercept and K = 4 columns
        # fit the 4 other rows exactly, so the leverage is 1 and the CV error
        # at K = 4 was round-off over the leverage floor (4.7e-07, against at
        # least 0.43 elsewhere); S, I and W all selected (1, 2, 3, 4)
        from sofreg.estimators import _joint_cv_table

        sample, basis, _ = make_mar_dataset(n=14, beta_id=3, eta=0.5, delta=0.03, seed=5)
        ob = observed_pairs_basis(sample)
        assert (sample.n_obs, ob.k_max, basis.k_max) == (5, 4, 5)
        slope = fit_slope(sample, basis, "S")
        brute = brute_simplified_cv(sample, ob, 3)
        np.testing.assert_allclose(slope.diagnostics["cv_errors"], brute, rtol=1e-9)
        assert slope.cutoffs["K_S"] == int(np.argmin(brute)) + 1
        observance = fit_observance(sample)
        for tag, weights, model in (
            ("I", None, None),
            ("W", np.where(sample.r, 1.0 / observance.fitted_probabilities, 0.0), observance),
        ):
            # the second stage refits over all 14 rows and keeps K <= n_obs - 1
            table = _joint_cv_table(sample, basis, weights)
            brute = brute_joint_cv(sample, basis, ob, 3, 4, model)
            np.testing.assert_allclose(table, brute, rtol=1e-8)
            cutoffs = fit_slope(sample, basis, tag).cutoffs
            # ties prefer small K_second, then K_first
            k2, k1 = divmod(int(np.argmin(brute.T.ravel())), 3)
            assert (cutoffs["K_S"], cutoffs[f"K_{tag}"]) == (k1 + 1, k2 + 1)
        for tag, key in (("SL", "indices"), ("IL", "first_stage"), ("WL", "first_stage")):
            assert max(fit_slope(sample, basis, tag, seed=1).cutoffs[key]) <= 3

    def test_returns_valid_pair(self):
        sample, basis, _ = make_mar_dataset(n=40, beta_id=2, eta=1.0, seed=7)
        ob = observed_pairs_basis(sample)
        k_s, k_i = joint_loocv_cutoffs(sample, basis)
        assert 1 <= k_s <= ob.k_max and 1 <= k_i <= basis.k_max


class TestSimplifiedEstimator:
    def test_no_missing_equals_complete(self):
        sample, basis, _ = make_mar_dataset(n=50, beta_id=1, eta=None, seed=8)
        s = fit_slope(sample, basis, "S")
        c = fit_slope(sample, basis, "C")
        assert s.indices == c.indices
        np.testing.assert_allclose(s.coefficients, c.coefficients, atol=1e-12)

    def test_noiseless_full_sample_recovery(self):
        sample, basis = make_score_linear_sample({1: 2.0, 2: -1.0}, n=60, seed=9)
        slope = fit_slope(sample, basis, "S")
        for k, target in ((1, 2.0), (2, -1.0)):
            if k in slope.indices:
                assert slope.coefficients[slope.indices.index(k)] == pytest.approx(
                    target, abs=1e-6
                )

    def test_subsample_recovery_is_exact_in_own_basis(self):
        # least squares on the observed pairs recovers a response that is
        # exactly linear in its own basis scores, whatever the MAR pattern
        rng = np.random.default_rng(10)
        x = gen_ou_sample(120, GRID, rng)
        r = gen_missing(x, 1.0, rng)
        r[:2] = True
        obs = np.flatnonzero(r)
        ob = fpc_decompose(FunctionalSample(GRID, x.values[obs]))
        y = np.full(120, np.nan)
        y[obs] = 2.0 * ob.scores[:, 0] - ob.scores[:, 1]
        sample = MarSample(x, y, r)
        slope = fit_slope(sample, fpc_decompose(x), "S")
        coef = dict(zip(slope.indices, slope.coefficients))
        assert coef[1] == pytest.approx(2.0, abs=1e-6)
        if 2 in coef:
            assert coef[2] == pytest.approx(-1.0, abs=1e-6)

    def test_mar_loses_accuracy_vs_complete(self):
        from sofreg.simulation import beta_curve

        worse = 0
        total = 0
        beta = beta_curve(3, GRID)
        for seed in range(60):
            sample, basis, y_full = make_mar_dataset(
                n=50, beta_id=3, eta=0.5, sigma_eps=0.1, seed=200 + seed
            )
            full = MarSample(sample.x, y_full, np.ones(50, dtype=bool))
            s = fit_slope(sample, basis, "S")
            c = fit_slope(full, basis, "C")
            worse += mse_estimation(beta, s) > mse_estimation(beta, c)
            total += 1
        assert worse > total / 2


class TestImputation:
    def test_all_observed_unchanged(self):
        sample, basis, _ = make_mar_dataset(n=30, beta_id=2, eta=None, seed=11)
        slope = fit_slope(sample, basis, "S")
        np.testing.assert_array_equal(impute_responses(sample, slope), sample.y)

    def test_mostly_missing_uses_predictions(self):
        sample, basis = make_score_linear_sample({1: 1.0}, n=20, seed=12)
        r = np.zeros(20, dtype=bool)
        r[[3, 11]] = True
        masked = MarSample(sample.x, np.where(r, sample.y, np.nan), r)
        slope = fit_slope(masked, basis, "S")
        completed = impute_responses(masked, slope)
        preds = slope.predict_sample(masked.x)
        np.testing.assert_array_equal(completed[r], masked.y[r])
        np.testing.assert_allclose(completed[~r], preds[~r])

    def test_imputations_track_truth(self):
        corr = []
        for seed in range(100):
            sample, basis, y_full = make_mar_dataset(n=50, beta_id=3, eta=1.0, seed=300 + seed)
            miss = ~sample.r
            if miss.sum() < 3:
                continue
            slope = fit_slope(sample, basis, "S")
            completed = impute_responses(sample, slope)
            corr.append(np.corrcoef(completed[miss], y_full[miss])[0, 1])
        assert np.mean(corr) > 0


class TestImputedEstimator:
    def test_no_missing_matches_complete_at_equal_cutoff(self):
        sample, basis, _ = make_mar_dataset(n=40, beta_id=1, eta=None, seed=13)
        imputed = fit_slope(sample, basis, "I")
        reference = ols_fpc_coefficients(
            basis, sample.y - sample.observed_mean, imputed.indices, np.arange(sample.n)
        )
        np.testing.assert_allclose(imputed.coefficients, reference, atol=1e-10)

    def test_noiseless_full_sample_recovery(self):
        sample, basis = make_score_linear_sample({1: 2.0, 2: -1.0}, n=60, seed=14)
        slope = fit_slope(sample, basis, "I")
        coef = dict(zip(slope.indices, slope.coefficients))
        assert coef[1] == pytest.approx(2.0, abs=1e-6)
        if 2 in coef:
            assert coef[2] == pytest.approx(-1.0, abs=1e-6)

    @pytest.mark.slow
    def test_imputed_beats_simplified_msee(self):
        from sofreg.simulation import beta_curve

        beta = beta_curve(3, GRID)
        msee_s, msee_i = [], []
        for seed in range(100):
            sample, basis, _ = make_mar_dataset(n=50, beta_id=3, eta=0.5, seed=400 + seed)
            msee_s.append(mse_estimation(beta, fit_slope(sample, basis, "S")))
            msee_i.append(mse_estimation(beta, fit_slope(sample, basis, "I")))
        assert np.mean(msee_i) < np.mean(msee_s)


class TestSecondStage:
    @pytest.mark.parametrize("tag", ["S", "SL", "I", "IL", "W", "WL"])
    def test_first_stage_basis_has_the_cutoff_of_the_given_basis(self, tag):
        sample, _, _ = make_mar_dataset(n=60, beta_id=3, eta=1.0, delta=0.03, seed=5)
        basis = fpc_decompose(sample.x, 0.2)
        assert basis.k_max == 2
        k_max = observed_pairs_basis(sample, 0.2).k_max
        assert k_max == 2 < observed_pairs_basis(sample).k_max
        slope = fit_slope(sample, basis, tag, seed=1)
        first = slope.first_stage or slope
        assert first.basis.n == sample.n_obs
        assert first.basis.k_max == k_max
        assert max(first.indices) <= k_max

    @pytest.mark.parametrize("tag", ["I", "IL", "W", "WL"])
    def test_refits_the_oracle_completion_of_its_first_stage(self, tag):
        sample, basis, _ = make_mar_dataset(n=50, beta_id=3, eta=1.0, seed=27)
        assert sample.n_obs < sample.n
        model = fit_observance(sample)
        slope = fit_slope(sample, basis, tag, seed=6)
        first = slope.first_stage
        assert first.first_stage is None and first.basis.n == sample.n_obs
        np.testing.assert_allclose(
            first.coefficients,
            ols_fpc_coefficients(first.basis, sample.y_observed, first.indices,
                                 np.arange(sample.n_obs)),
            rtol=1e-9, atol=1e-10,
        )
        if tag.startswith("I"):
            assert slope.ipw_weights is None
            completed = impute_responses(sample, first)
        else:
            completed = completed_ipw_responses(sample, first, model)
        reference = ols_fpc_coefficients(basis, completed, slope.indices, np.arange(sample.n))
        np.testing.assert_allclose(slope.coefficients, reference, rtol=1e-9, atol=1e-10)


class TestObservance:
    def test_all_observed_gives_ones(self):
        sample, basis, _ = make_mar_dataset(n=30, beta_id=1, eta=None, seed=15)
        model = fit_observance(sample)
        np.testing.assert_allclose(model.fitted_probabilities, 1.0)

    def test_tiny_bandwidth_recovers_indicators(self, monkeypatch):
        sample, basis, y = make_mar_dataset(n=40, beta_id=2, eta=None, seed=16)
        sq = sample.x.sq_norms()
        r = sq >= np.median(sq)
        r[np.argsort(sq)[-2:]] = True
        masked = MarSample(sample.x, np.where(r, y, np.nan), r)
        monkeypatch.setattr(sofreg.estimators, "BANDWIDTH_FACTORS", np.array([1e-3]))
        model = fit_observance(masked)
        fitted = model.fitted_probabilities
        np.testing.assert_allclose(fitted, np.clip(r.astype(float), EPS_P, 1.0), atol=1e-6)

    def test_degenerate_sample_raises(self):
        values = np.tile(np.sin(GRID.points), (5, 1))
        x = FunctionalSample(GRID, values)
        sample = MarSample(x, np.arange(5.0), np.ones(5, dtype=bool))
        with pytest.raises(DegenerateSampleError):
            fit_observance(sample)

    def test_probabilities_clamped(self):
        sample, basis, _ = make_mar_dataset(n=60, beta_id=3, eta=0.5, seed=17)
        model = fit_observance(sample)
        assert np.all(model.fitted_probabilities >= EPS_P)
        assert np.all(model.fitted_probabilities <= 1.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_bandwidth_matches_brute_force(self, seed):
        sample, _, _ = make_mar_dataset(n=50, beta_id=1 + seed % 3, eta=1.0, seed=seed)
        reference = nw_bandwidth_reference(sample)
        assert fit_observance(sample).bandwidth == pytest.approx(reference, rel=1e-12)

    @pytest.mark.slow
    def test_mean_absolute_error_against_logistic_truth(self):
        maes = []
        for seed in range(100):
            rng = np.random.default_rng(500 + seed)
            x = gen_ou_sample(200, GRID, rng)
            y = gen_responses(x, 3, 0.0, 0.1, rng)
            r = gen_missing(x, 1.0, rng)
            if r.sum() < 2:
                continue
            sample = MarSample(x, np.where(r, y, np.nan), r)
            model = fit_observance(sample)
            truth = 1.0 / (1.0 + np.exp(-x.sq_norms()))
            maes.append(np.mean(np.abs(model.fitted_probabilities - truth)))
        assert np.mean(maes) < 0.15


class TestIpwEstimator:
    def test_reduces_to_complete_when_fully_observed(self):
        sample, basis, _ = make_mar_dataset(n=40, beta_id=2, eta=None, seed=18)
        model = fit_observance(sample)
        np.testing.assert_allclose(model.fitted_probabilities, 1.0)
        w = fit_slope(sample, basis, "W")
        reference = ols_fpc_coefficients(
            basis, sample.y - sample.observed_mean, w.indices, np.arange(sample.n)
        )
        np.testing.assert_allclose(w.coefficients, reference, atol=1e-10)

    def test_single_missing_entry_gets_prediction(self):
        sample, basis, y = make_mar_dataset(n=30, beta_id=1, eta=None, seed=19)
        r = np.ones(30, dtype=bool)
        r[7] = False
        masked = MarSample(sample.x, np.where(r, y, np.nan), r)
        slope = fit_slope(masked, basis, "S")
        model = fit_observance(masked)
        completed = completed_ipw_responses(masked, slope, model)
        assert completed[7] == pytest.approx(slope.predict_sample(masked.x)[7])

    def test_ipw_collapse_to_imputed_when_p_is_one(self):
        sample, basis, _ = make_mar_dataset(n=40, beta_id=3, eta=0.5, seed=20)
        slope = fit_slope(sample, basis, "S")
        forced = ObservanceModel(bandwidth=1.0, fitted_probabilities=np.ones(sample.n))
        ipw = completed_ipw_responses(sample, slope, forced)
        imp = impute_responses(sample, slope)
        np.testing.assert_allclose(ipw, imp, atol=1e-12)


class TestLassoEstimators:
    def test_no_missing_all_collapse_to_complete_lasso(self):
        sample, basis, _ = make_mar_dataset(n=50, beta_id=1, eta=None, seed=21)
        cl = fit_slope(sample, basis, "CL", seed=11)
        for fitted in (
            fit_slope(sample, basis, "SL", seed=11),
            fit_slope(sample, basis, "IL", seed=11),
            fit_slope(sample, basis, "WL", seed=11),
        ):
            assert fitted.indices == cl.indices
            np.testing.assert_allclose(fitted.coefficients, cl.coefficients, atol=1e-10)

    def test_noiseless_two_component_truth(self):
        sample, basis = make_score_linear_sample({1: 2.0, 2: -1.0}, n=80, seed=22)
        slope = fit_slope(sample, basis, "SL", seed=0)
        assert set(slope.indices) == {1, 2}
        coef = dict(zip(slope.indices, slope.coefficients))
        assert coef[1] == pytest.approx(2.0, abs=1e-6)
        assert coef[2] == pytest.approx(-1.0, abs=1e-6)

    def test_slope_invariants(self):
        sample, basis, _ = make_mar_dataset(n=50, beta_id=3, eta=1.0, seed=23)
        for tag in ("S", "SL", "I", "IL", "W", "WL"):
            slope = fit_slope(sample, basis, tag, seed=5)
            assert slope.method_tag == tag
            assert len(slope.indices) >= 1
            cols = np.asarray(slope.indices) - 1
            np.testing.assert_allclose(
                slope.curve, slope.coefficients @ slope.basis.eigenfunctions[cols], atol=1e-10
            )
            # score-route and trapezoid-route inner products agree
            centered = sample.x.values - slope.basis.mean_curve
            trap = (centered * GRID.quad_weights) @ slope.curve
            score_route = (
                slope.predict_centered(project_scores(slope.basis, sample.x.values))
                - slope.alpha
            )
            np.testing.assert_allclose(trap, score_route, atol=1e-6)


class TestDegenerateMarReduction:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(25, 80),
           beta_id=st.sampled_from((1, 2, 3)), delta=st.sampled_from((0.0, 0.03)))
    def test_all_estimators_collapse_without_missingness(self, seed, n, beta_id, delta):
        sample, basis, _ = make_mar_dataset(n=n, beta_id=beta_id, eta=None, delta=delta,
                                            seed=seed)
        c = fit_slope(sample, basis, "C")
        s = fit_slope(sample, basis, "S")
        assert s.indices == c.indices
        np.testing.assert_allclose(s.coefficients, c.coefficients, atol=1e-10)
        for tag in ("I", "W"):
            slope = fit_slope(sample, basis, tag, seed=3)
            reference = ols_fpc_coefficients(
                basis, sample.y - sample.observed_mean, slope.indices, np.arange(sample.n)
            )
            np.testing.assert_allclose(slope.coefficients, reference, atol=1e-10)
        cl = fit_slope(sample, basis, "CL", seed=3)
        for tag in ("SL", "IL", "WL"):
            slope = fit_slope(sample, basis, tag, seed=3)
            assert slope.indices == cl.indices
            np.testing.assert_allclose(slope.coefficients, cl.coefficients, atol=1e-10)


class TestDeterminism:
    def test_same_seed_same_selections(self):
        sample, basis, _ = make_mar_dataset(n=50, beta_id=3, eta=1.0, seed=25)
        for tag in ("S", "SL", "I", "IL", "W", "WL"):
            a = fit_slope(sample, basis, tag, seed=77)
            b = fit_slope(sample, basis, tag, seed=77)
            assert a.indices == b.indices
            assert a.cutoffs == b.cutoffs
            np.testing.assert_array_equal(a.coefficients, b.coefficients)

    def test_method_c_requires_full_observation(self):
        sample, basis, _ = make_mar_dataset(n=40, beta_id=1, eta=1.0, seed=26)
        if sample.n_obs == sample.n:
            pytest.skip("draw produced no missing entries")
        with pytest.raises(ConfigError):
            fit_slope(sample, basis, "C")
