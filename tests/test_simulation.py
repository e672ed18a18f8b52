import concurrent.futures
import functools
import json
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import count_calls
from sofreg import blas, dataio, estimators, simulation
from sofreg.estimators import METHOD_TAGS, MarSample, fit_slope
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

_run_replicate = simulation._run_replicate


def _replicate_with_thread_counts(log, args):
    """`simulation._run_replicate`, logging the process's thread count around it."""
    before = len(os.listdir("/proc/self/task"))
    out = _run_replicate(args)
    after = len(os.listdir("/proc/self/task"))
    with open(log, "a", encoding="utf-8") as fh:
        fh.write(f"{os.getpid()} {before} {after}\n")
    return out


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
        with pytest.raises(ConfigError, match="n must be at least 10"):
            DgpConfig(beta_id=1, n=9)
        with pytest.raises(ConfigError):
            DgpConfig(beta_id=1, eta=-1.0)
        with pytest.raises(ConfigError):
            DgpConfig(beta_id=1, sigma_eps=-0.1)
        with pytest.raises(ConfigError, match="grid_points must be at least 3"):
            DgpConfig(beta_id=1, grid_points=2)

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
        # the seed is an argument of the draw, never a field of the configuration
        with pytest.raises(TypeError):
            DgpConfig(beta_id=1, seed=11)
        with pytest.raises(TypeError):
            generate_dataset(DgpConfig(beta_id=1))
        with pytest.raises(ConfigError, match="a seed is required"):
            generate_dataset(DgpConfig(beta_id=1), None)

    def test_generate_dataset_refuses_a_negative_seed_and_takes_what_default_rng_takes(self):
        config = DgpConfig(beta_id=1, eta=1.0, n=20)
        for seed in (-1, np.int64(-3)):
            with pytest.raises(ConfigError, match="seed must be a nonnegative integer"):
                generate_dataset(config, seed)
        by_int = generate_dataset(config, 5)[0]
        for seed in (np.int64(5), np.random.default_rng(5)):
            np.testing.assert_array_equal(generate_dataset(config, seed)[0].x.values,
                                          by_int.x.values)
        generate_dataset(config, [5, 2])

    def test_fewer_than_three_observed_keeps_the_three_largest_norm_curves(self, monkeypatch):
        monkeypatch.setattr(simulation, "gen_missing",
                            lambda x, eta, rng: np.zeros(x.n, dtype=bool))
        sample, full_y, _ = generate_dataset(DgpConfig(beta_id=2, eta=1.0, n=20), 4)
        top_three = np.sort(np.argsort(sample.x.sq_norms())[-3:])
        np.testing.assert_array_equal(sample.observed_index, top_three)
        np.testing.assert_array_equal(sample.y[sample.r], full_y[top_three])

    def test_generate_dataset_masks_missing(self):
        config = DgpConfig(beta_id=3, eta=0.5, n=40)
        sample, full_y, beta = generate_dataset(config, 11)
        assert np.all(np.isnan(sample.y[~sample.r]))
        np.testing.assert_array_equal(sample.y[sample.r], full_y[sample.r])
        np.testing.assert_array_equal(beta, beta_curve(3, config.grid))


class TestMcExperiment:
    def test_single_replicate_degenerate_aggregation(self):
        cfg = DgpConfig(beta_id=1, delta=0.0, eta=1.0, n=40)
        report = mc_experiment([cfg], m=1, b=20, estimators=("S",), seed=12)
        cell = report.cells[0]
        assert cell.rejection["S"] in (0.0, 1.0)
        assert cell.config is cfg and cell.p_values["S"].shape == (1,)

    def test_requires_seed(self):
        cfg = DgpConfig(beta_id=1, eta=1.0, n=40)
        with pytest.raises(ConfigError, match="a seed is required"):
            mc_experiment([cfg], m=1, b=10, seed=None)

    def test_seed_is_a_required_keyword(self):
        cfg = DgpConfig(beta_id=1, eta=1.0, n=40)
        with pytest.raises(TypeError, match="required keyword-only argument: 'seed'"):
            mc_experiment([cfg], m=1, b=10)
        with pytest.raises(TypeError):
            mc_experiment([cfg], 1, 10, 0.05, ("S",), 3)

    def test_refuses_a_negative_seed_before_any_replicate(self, monkeypatch):
        runs = count_calls(monkeypatch, simulation, "_run_replicate")
        with pytest.raises(ConfigError, match="seed must be a nonnegative integer, got -1"):
            mc_experiment([DgpConfig(beta_id=1, eta=1.0, n=40)], m=1, b=10, seed=-1)
        assert runs == []

    def test_refuses_zero_replicates(self):
        with pytest.raises(ConfigError, match="m must be at least 1"):
            mc_experiment([DgpConfig(beta_id=1, eta=1.0, n=40)], m=0, b=10, seed=1)

    def test_unknown_tag_names_the_valid_ones(self):
        with pytest.raises(ConfigError, match="unknown estimator tag 'X'") as err:
            mc_experiment([DgpConfig(beta_id=1, eta=1.0, n=40)], m=1, b=10,
                          estimators=("S", "x"), seed=1)
        assert str(METHOD_TAGS) in str(err.value)

    @pytest.mark.parametrize("configs, estimators", [
        ([], ("S",)),
        ([DgpConfig(beta_id=1, eta=1.0, n=40)], ()),
    ])
    def test_refuses_an_empty_grid_or_estimator_list(self, configs, estimators):
        with pytest.raises(ConfigError, match="at least one"):
            mc_experiment(configs, m=1, b=10, estimators=estimators, seed=1)

    def test_refuses_cells_of_other_grid_settings(self, monkeypatch):
        # the report holds one grid_points and one sigma_eps: it gave the
        # first cell's (21 and 0.1) for both cells
        runs = count_calls(monkeypatch, simulation, "_run_replicate")
        configs = [DgpConfig(beta_id=1, eta=1.0, n=40, grid_points=21, sigma_eps=0.1),
                   DgpConfig(beta_id=1, eta=1.0, n=40, grid_points=51, sigma_eps=0.5)]
        with pytest.raises(ConfigError, match="grid_points and sigma_eps"):
            mc_experiment(configs, m=1, b=10, estimators=("S",), seed=1)
        assert runs == []

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
                "n": cell.config.n,
                "rejection": cell.rejection,
                "msee_mean": cell.msee_mean,
                "failures": cell.failures,
                "p_values": {t: [repr(v) for v in a] for t, a in cell.p_values.items()},
                "msee": {t: [repr(v) for v in a] for t, a in cell.msee.items()},
            } for cell in report.cells], sort_keys=True))
        assert payloads[0] == payloads[1]

    def test_multi_cell_run_starts_one_pool(self, monkeypatch):
        # mc_experiment imports the pool class when a parallel run starts
        pools = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        configs = [DgpConfig(beta_id=b, delta=0.0, eta=1.0, n=30) for b in (1, 2, 3)]
        report = mc_experiment(configs, m=3, b=10, estimators=("S",), seed=23, threads=2)
        assert pools == [2]
        assert [cell.p_values["S"].size for cell in report.cells] == [3, 3, 3]

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

    def test_pool_workers_stay_single_threaded(self, tmp_path, monkeypatch):
        # a worker that calls the OpenBLAS setter starts the library's server
        # thread, which spins on a shared core through its first replicate
        # (only where OpenBLAS loaded with more than one thread: loaded at
        # one, as under OPENBLAS_NUM_THREADS=1, it has no server thread)
        if blas._openblas() is None or not os.path.isdir("/proc/self/task"):
            pytest.skip("needs OpenBLAS and /proc")
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the workers inherit the wrapper by fork")
        log = tmp_path / "threads.txt"
        monkeypatch.setattr(simulation, "_run_replicate",
                            functools.partial(_replicate_with_thread_counts, str(log)))
        configs = [DgpConfig(beta_id=3, delta=d, eta=1.0, n=40) for d in (0.0, 0.03)]
        report = mc_experiment(configs, m=3, b=20, estimators=("W", "SL"), seed=25,
                               threads=2)
        assert report.reruns == 0
        rows = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
        assert len(rows) == 6
        assert all(int(pid) != os.getpid() for pid, _, _ in rows)
        assert [(int(b), int(a)) for _, b, a in rows] == [(1, 1)] * 6

    def test_a_replicate_does_not_import_numpy_ma(self):
        # np.median imports numpy.ma on its first call: ~10 ms in the first
        # replicate of every forked worker
        code = "\n".join([
            "import sys",
            "import numpy as np",
            "import sofreg.cli",
            "from sofreg import simulation",
            "print('numpy.ma' in sys.modules)",
            "config = simulation.DgpConfig(beta_id=3, eta=1.0, n=40)",
            "out = simulation._run_replicate((config, 20, ('W', 'WL'), np.random.SeedSequence(1)))",
            "assert sorted(out['per_tag']) == ['W', 'WL']",
            "assert all(e['error'] is None for e in out['per_tag'].values())",
            "print('numpy.ma' in sys.modules)",
        ])
        src = os.path.dirname(os.path.dirname(simulation.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True, timeout=120)
        at_import, after_replicate = done.stdout.split()
        if at_import == "True":
            pytest.skip("this numpy imports numpy.ma with numpy")
        assert after_replicate == "False"

    def test_a_replicate_fits_each_cv_selected_slope_once(self, monkeypatch):
        # the tests of C, S, I and W take their slopes from the sample's memo;
        # the four LASSO tags refit in their tests (2 + 2 + 4 + 4 selections)
        lasso = count_calls(monkeypatch, estimators, "lasso_select")
        joint = count_calls(monkeypatch, estimators, "joint_loocv_cutoffs")
        config = DgpConfig(beta_id=3, eta=1.0, n=60)
        out = _run_replicate((config, 20, METHOD_TAGS, np.random.SeedSequence(3)))
        assert all(e["error"] is None for e in out["per_tag"].values())
        assert len(lasso) == 12
        assert len(joint) == 2

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

    @pytest.mark.parametrize("stage", ["fpc_decompose", "_sample_observance", "generate_dataset"])
    def test_replicate_level_failure_counts_for_every_tag(self, monkeypatch, stage):
        # a failure before the fits fails every estimator of its replicate,
        # the complete-data ones too, and leaves the other replicates alone
        cfg = DgpConfig(beta_id=3, delta=0.03, eta=1.0, n=40)
        tags = ("C", "CL", "S", "W")
        clean = mc_experiment([cfg], m=3, b=20, estimators=tags, seed=26).cells[0]
        real = getattr(simulation, stage)
        calls, drawn = [], []

        def failing_second_call(*args, **kwargs):
            calls.append(stage)
            if len(calls) == 2:
                raise FloatingPointError("injected")
            out = real(*args, **kwargs)
            if stage == "generate_dataset":
                drawn.append(1.0 - out[0].n_obs / out[0].n)
            return out

        monkeypatch.setattr(simulation, stage, failing_second_call)
        cell = mc_experiment([cfg], m=3, b=20, estimators=tags, seed=26).cells[0]
        assert cell.failures == dict.fromkeys(tags, 1)
        kept = [0, 2]
        for tag in tags:
            for values in (cell.p_values, cell.msee, cell.times):
                assert np.isnan(values[tag][1])
                assert np.all(np.isfinite(values[tag][kept]))
            np.testing.assert_array_equal(cell.p_values[tag][kept], clean.p_values[tag][kept])
            np.testing.assert_array_equal(cell.msee[tag][kept], clean.msee[tag][kept])
        if stage == "generate_dataset":
            # the replicate without data is left out of the mean, not read as 0.0
            assert cell.missing_fraction == np.mean(drawn)
        else:
            assert cell.missing_fraction == clean.missing_fraction

    def test_a_cell_without_data_reports_no_missing_fraction(self, monkeypatch):
        def failing_draw(config, seed):
            raise FloatingPointError("injected")

        monkeypatch.setattr(simulation, "generate_dataset", failing_draw)
        report = mc_experiment([DgpConfig(beta_id=1, eta=1.0, n=40)], m=2, b=10,
                               estimators=("CL", "S"), seed=27)
        cell = report.cells[0]
        assert cell.failures == {"CL": 2, "S": 2}
        assert np.isnan(cell.missing_fraction)
        payload = dataio.mc_report(report)["cells"][0]
        assert payload["missing_fraction"] is None
        assert payload["rejection"] == {"CL": None, "S": None}

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
