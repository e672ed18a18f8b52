import json

import numpy as np
import pytest

from sofreg import blas, simulation
from sofreg.estimators import MarSample, fit_slope
from sofreg.exceptions import ConfigError, GridMismatchError
from sofreg.functional import Grid, fpc_decompose
from sofreg.simulation import (
    DgpConfig,
    beta_curve,
    gen_missing,
    gen_ou_sample,
    gen_responses,
    generate_dataset,
    mc_experiment,
    mse_estimation,
    ou_covariance,
)

GRID = Grid.regular(0.0, 1.0, 201)


class TestOuSample:
    def test_pointwise_variance(self):
        # stationary kernel: Var X(t) = 1.5 for every t
        sample = gen_ou_sample(5000, GRID, seed=0)
        assert sample.values[:, -1].var() == pytest.approx(1.5, abs=0.1)
        assert sample.values[:, 0].var() == pytest.approx(1.5, abs=0.1)

    def test_correlation_decay(self):
        # Corr(X(s), X(t)) = exp(-|s - t| / 3)
        sample = gen_ou_sample(5000, GRID, seed=1)
        x_half = sample.values[:, 100]
        x_one = sample.values[:, 200]
        target = np.exp(-0.5 / 3.0)
        assert np.corrcoef(x_half, x_one)[0, 1] == pytest.approx(target, abs=0.05)

    def test_covariance_grid_rejects_out_of_domain(self):
        with pytest.raises(ConfigError):
            ou_covariance(Grid.regular(0.0, 2.0, 11))

    def test_factor_cache_reuse_is_deterministic(self):
        a = gen_ou_sample(4, GRID, seed=5)
        b = gen_ou_sample(4, GRID, seed=5)
        np.testing.assert_array_equal(a.values, b.values)


class TestBetaCurves:
    def test_pointwise_values(self):
        t = GRID.points
        b1 = beta_curve(1, GRID)
        b2 = beta_curve(2, GRID)
        b3 = beta_curve(3, GRID)
        assert b1[0] == pytest.approx(-1.0)
        assert b2[150] == pytest.approx(0.75)  # t = 0.75 kills the square term
        assert b3[0] == pytest.approx(1.0)
        assert b3[100] == pytest.approx(-0.5)

    def test_unknown_id(self):
        with pytest.raises(ConfigError):
            beta_curve(4, GRID)


class TestResponses:
    def test_zero_curves_zero_noise(self):
        from sofreg.functional import FunctionalSample

        x = FunctionalSample(GRID, np.zeros((5, 201)))
        y = gen_responses(x, 1, delta=0.0, sigma_eps=0.0, seed=0)
        np.testing.assert_array_equal(y, 0.0)

    def test_null_model_is_exactly_linear(self):
        x = gen_ou_sample(40, GRID, seed=2)
        y = gen_responses(x, 2, delta=0.0, sigma_eps=0.0, seed=0)
        beta = beta_curve(2, GRID)
        linear = (x.values * GRID.quad_weights) @ beta
        np.testing.assert_allclose(y, linear, atol=1e-12)

    def test_r2_calibration_beta1(self):
        # determination coefficient for the first slope at delta = 0: 0.8232
        x = gen_ou_sample(100_000, GRID, seed=3)
        y_signal = (x.values * GRID.quad_weights) @ beta_curve(1, GRID)
        r2 = y_signal.var() / (y_signal.var() + 0.01)
        assert r2 == pytest.approx(0.8232, abs=0.01)


class TestMissing:
    def test_probability_tends_to_one_for_large_norms(self):
        from sofreg.functional import FunctionalSample

        x = FunctionalSample(GRID, np.full((200, 201), 20.0))
        r = gen_missing(x, eta=1.0, seed=0)
        assert r.all()

    @pytest.mark.parametrize("eta,target", [(0.5, 0.35), (1.0, 0.27), (2.0, 0.20)])
    def test_missing_fractions(self, eta, target):
        x = gen_ou_sample(10_000, GRID, seed=4)
        r = gen_missing(x, eta=eta, seed=5)
        assert 1.0 - r.mean() == pytest.approx(target, abs=0.02)

    def test_monotone_in_eta(self):
        x = gen_ou_sample(10_000, GRID, seed=6)
        fractions = []
        for eta in (0.5, 1.0, 2.0):
            p = 1.0 / (1.0 + np.exp(-eta * x.sq_norms()))
            fractions.append(p.mean())
        assert fractions[0] < fractions[1] < fractions[2]


class TestMseEstimation:
    def test_exact_slope(self):
        from conftest import make_mar_dataset

        sample, basis, y = make_mar_dataset(n=30, beta_id=1, eta=None, seed=7)
        slope = fit_slope(sample, basis, "C")
        import dataclasses

        perfect = dataclasses.replace(slope, curve=beta_curve(1, GRID))
        assert mse_estimation(beta_curve(1, GRID), perfect) == 0.0

    def test_constant_offset(self):
        from conftest import make_mar_dataset

        sample, basis, _ = make_mar_dataset(n=30, beta_id=1, eta=None, seed=8)
        slope = fit_slope(sample, basis, "C")
        import dataclasses

        shifted = dataclasses.replace(slope, curve=beta_curve(1, GRID) + 1.0)
        assert mse_estimation(beta_curve(1, GRID), shifted) == pytest.approx(1.0)

    def test_zero_estimate_of_beta1(self):
        # integral of (sin - cos)^2 over [0,1] equals 1
        from conftest import make_mar_dataset

        sample, basis, _ = make_mar_dataset(n=30, beta_id=1, eta=None, seed=9)
        slope = fit_slope(sample, basis, "C")
        import dataclasses

        zeroed = dataclasses.replace(slope, curve=np.zeros(201))
        assert mse_estimation(beta_curve(1, GRID), zeroed) == pytest.approx(1.0, abs=1e-3)

    def test_grid_mismatch(self):
        from conftest import make_mar_dataset

        sample, basis, _ = make_mar_dataset(n=30, beta_id=1, eta=None, seed=10)
        slope = fit_slope(sample, basis, "C")
        with pytest.raises(GridMismatchError):
            mse_estimation(np.zeros(100), slope)


class TestDgpConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            DgpConfig(beta_id=5)
        with pytest.raises(ConfigError):
            DgpConfig(beta_id=1, n=5)
        with pytest.raises(ConfigError):
            DgpConfig(beta_id=1, eta=-1.0)
        with pytest.raises(ConfigError):
            DgpConfig(beta_id=1, sigma_eps=-0.1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["eta", "delta", "sigma_eps"])
    def test_non_finite_setting_is_refused(self, name, value):
        # NaN fails every comparison, so a sign check alone lets it through
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            DgpConfig(beta_id=1, n=30, **{name: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_generators_refuse_a_non_finite_setting(self, value):
        x = gen_ou_sample(20, GRID, 0)
        with pytest.raises(ConfigError, match="delta must be finite"):
            gen_responses(x, 1, delta=value)
        with pytest.raises(ConfigError, match="sigma_eps must be finite"):
            gen_responses(x, 1, sigma_eps=value)
        with pytest.raises(ConfigError, match="eta must be finite"):
            gen_missing(x, value)

    def test_generate_dataset_requires_seed(self):
        with pytest.raises(ConfigError):
            generate_dataset(DgpConfig(beta_id=1))

    def test_generate_dataset_masks_missing(self):
        sample, full_y, truth = generate_dataset(DgpConfig(beta_id=3, eta=0.5, n=40, seed=11))
        assert np.all(np.isnan(sample.y[~sample.r]))
        np.testing.assert_array_equal(sample.y[sample.r], full_y[sample.r])
        assert truth["beta"].shape == (201,)


class TestMcExperiment:
    def test_single_replicate_degenerate_aggregation(self):
        cfg = DgpConfig(beta_id=1, delta=0.0, eta=1.0, n=40)
        report = mc_experiment([cfg], m=1, b=20, estimators=("S",), seed=12)
        cell = report.cells[0]
        assert cell.rejection["S"] in (0.0, 1.0)
        assert cell.m == 1

    def test_requires_seed(self):
        cfg = DgpConfig(beta_id=1, eta=1.0, n=40)
        with pytest.raises(ConfigError):
            mc_experiment([cfg], m=1, b=10, seed=None)

    @pytest.mark.parametrize("configs, estimators", [
        ([], ("S",)),
        ([DgpConfig(beta_id=1, eta=1.0, n=40)], ()),
    ])
    def test_refuses_an_empty_grid_or_estimator_list(self, configs, estimators):
        with pytest.raises(ConfigError, match="at least one"):
            mc_experiment(configs, m=1, b=10, estimators=estimators, seed=1)

    def test_thread_count_does_not_change_results(self):
        cfg = DgpConfig(beta_id=2, delta=0.0, eta=1.0, n=40)
        r1 = mc_experiment([cfg], m=6, b=30, estimators=("S", "I"), seed=13, threads=1)
        r2 = mc_experiment([cfg], m=6, b=30, estimators=("S", "I"), seed=13, threads=2)
        for tag in ("S", "I"):
            np.testing.assert_array_equal(r1.cells[0].p_values[tag], r2.cells[0].p_values[tag])
            np.testing.assert_array_equal(r1.cells[0].msee[tag], r2.cells[0].msee[tag])

    def test_report_bytes_do_not_depend_on_threads(self):
        # the LASSO tags and IPW too, not only S and I; NaN goes through repr;
        # three cells share one worker pool and must come back in cell order
        configs = [DgpConfig(beta_id=3, delta=0.03, eta=1.0, n=40),
                   DgpConfig(beta_id=1, delta=0.0, eta=2.0, n=30),
                   DgpConfig(beta_id=2, delta=0.03, eta=0.5, n=50)]
        payloads = []
        for threads in (1, 2):
            report = mc_experiment(configs, m=4, b=20, estimators=("CL", "SL", "IL", "WL"),
                                   seed=21, threads=threads)
            payloads.append(json.dumps([{
                "n": cell.n,
                "rejection": cell.rejection,
                "msee_mean": cell.msee_mean,
                "failures": cell.failures,
                "p_values": {t: [repr(v) for v in a] for t, a in cell.p_values.items()},
                "msee": {t: [repr(v) for v in a] for t, a in cell.msee.items()},
            } for cell in report.cells], sort_keys=True))
        assert payloads[0] == payloads[1]

    def test_multi_cell_run_starts_one_pool(self, monkeypatch):
        pools = []

        class CountingPool(simulation.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(simulation, "ProcessPoolExecutor", CountingPool)
        configs = [DgpConfig(beta_id=b, delta=0.0, eta=1.0, n=30) for b in (1, 2, 3)]
        report = mc_experiment(configs, m=3, b=10, estimators=("S",), seed=23, threads=2)
        assert pools == [2]
        assert [cell.m for cell in report.cells] == [3, 3, 3]

    def test_serial_run_restores_the_callers_blas_threads(self):
        cfg = DgpConfig(beta_id=1, delta=0.0, eta=1.0, n=40)
        previous = blas.set_blas_threads(2)
        if previous is None:
            pytest.skip("no OpenBLAS loaded")
        try:
            mc_experiment([cfg], m=1, b=10, estimators=("S",), seed=22, threads=1)
        finally:
            after = blas.set_blas_threads(previous)
        assert after == 2

    @pytest.mark.parametrize("error", [FloatingPointError, ZeroDivisionError])
    def test_arithmetic_error_in_one_tag_is_counted(self, monkeypatch, error):
        cfg = DgpConfig(beta_id=2, delta=0.03, eta=1.0, n=40)
        tags = ("S", "SL", "I")
        clean = mc_experiment([cfg], m=3, b=20, estimators=tags, seed=24).cells[0]
        real_test = simulation.wild_bootstrap_test

        def failing_test(sample, basis, tag, **kwargs):
            if tag == "SL":
                raise error("injected")
            return real_test(sample, basis, tag, **kwargs)

        monkeypatch.setattr(simulation, "wild_bootstrap_test", failing_test)
        cell = mc_experiment([cfg], m=3, b=20, estimators=tags, seed=24).cells[0]
        assert cell.failures == {"S": 0, "SL": 3, "I": 0}
        assert np.all(np.isnan(cell.p_values["SL"])) and np.all(np.isnan(cell.msee["SL"]))
        for tag in ("S", "I"):
            np.testing.assert_array_equal(cell.p_values[tag], clean.p_values[tag])
            np.testing.assert_array_equal(cell.msee[tag], clean.msee[tag])
            assert cell.rejection[tag] == clean.rejection[tag]

    def test_seed_determinism(self):
        cfg = DgpConfig(beta_id=3, delta=0.01, eta=2.0, n=40)
        r1 = mc_experiment([cfg], m=4, b=25, estimators=("S",), seed=14)
        r2 = mc_experiment([cfg], m=4, b=25, estimators=("S",), seed=14)
        np.testing.assert_array_equal(r1.cells[0].p_values["S"], r2.cells[0].p_values["S"])

    def test_fits_only_mode(self):
        cfg = DgpConfig(beta_id=1, delta=0.0, eta=1.0, n=40)
        report = mc_experiment([cfg], m=3, b=0, estimators=("C", "S"), seed=15)
        cell = report.cells[0]
        assert np.all(np.isnan(cell.p_values["S"]))
        assert np.all(np.isfinite(cell.msee["S"]))

    @pytest.mark.slow
    def test_strong_alternative_cell_rejects(self):
        # the second benchmark slope at n=200, eta=1, delta=0.03 rejects in
        # essentially every replicate
        cfg = DgpConfig(beta_id=2, delta=0.03, eta=1.0, n=200)
        report = mc_experiment([cfg], m=100, b=300, estimators=("S", "I"), seed=17,
                               threads=2)
        cell = report.cells[0]
        assert cell.rejection["S"] >= 0.97
        assert cell.rejection["I"] >= 0.97

    @pytest.mark.slow
    def test_timing_ordering(self):
        cfg = DgpConfig(beta_id=3, delta=0.0, eta=1.0, n=100)
        # warm caches (BLAS, covariance factor) before timing
        mc_experiment([cfg], m=2, b=0, estimators=("S", "I", "W"), seed=99)
        report = mc_experiment([cfg], m=60, b=0, estimators=("S", "I", "W"), seed=16)
        cell = report.cells[0]
        assert cell.time_mean["S"] < cell.time_mean["I"] < cell.time_mean["W"]
