import json
import multiprocessing
import os
import sys

import numpy as np
import pytest

from sofreg import blas, cli, simulation
from sofreg.cli import main
from sofreg.dataio import read_curves_csv, read_responses_csv
from sofreg.estimators import MarSample, observed_pairs_basis
from sofreg.exceptions import ConfigError


def run(argv):
    return main([str(a) for a in argv])


#: File whose creation marks that a worker has already been killed.
DEATH_MARKER = None
_run_replicate = simulation._run_replicate


def _replicate_killing_its_worker_once(args):
    """The third replicate of a cell ends its worker process, once per run."""
    if args[3].spawn_key[-1] == 2:
        try:
            os.close(os.open(DEATH_MARKER, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            pass
        else:
            os._exit(1)
    return _run_replicate(args)


@pytest.fixture()
def noiseless_dataset(tmp_path):
    out = tmp_path / "data"
    code = run(["simulate", "--beta-id", 2, "--n", 60, "--delta", 0.0,
                "--sigma-eps", 0.0, "--seed", 42, "--out", out])
    assert code == 0
    return out


@pytest.fixture()
def mar_dataset(tmp_path):
    out = tmp_path / "mar"
    code = run(["simulate", "--beta-id", 3, "--n", 50, "--eta", 1.0,
                "--seed", 7, "--out", out])
    assert code == 0
    return out


class TestSimulate:
    def test_file_shapes(self, tmp_path):
        out = tmp_path / "d"
        assert run(["simulate", "--beta-id", 1, "--n", 100, "--grid-points", 201,
                    "--seed", 1, "--out", out]) == 0
        lines = (out / "curves.csv").read_text().strip().splitlines()
        assert len(lines) == 101  # grid row + 100 curves
        assert len(lines[0].split(",")) == 201
        y, r = read_responses_csv(str(out / "responses.csv"))
        assert y.size == 100 and r.all()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 1 and manifest["command"] == "simulate"

    def test_missing_fraction_matches_eta(self, tmp_path):
        out = tmp_path / "d"
        assert run(["simulate", "--beta-id", 1, "--n", 10000, "--eta", 1.0,
                    "--seed", 3, "--out", out]) == 0
        _, r = read_responses_csv(str(out / "responses.csv"))
        assert 1.0 - r.mean() == pytest.approx(0.27, abs=0.02)

    def test_seed_reproducibility(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["simulate", "--beta-id", 2, "--n", 30, "--eta", 0.5,
                        "--seed", 11, "--out", out]) == 0
        assert (a / "curves.csv").read_bytes() == (b / "curves.csv").read_bytes()
        assert (a / "responses.csv").read_bytes() == (b / "responses.csv").read_bytes()

    def test_requires_seed(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            run(["simulate", "--beta-id", 1, "--out", tmp_path / "x"])

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["eta", "delta", "sigma_eps"])
    def test_non_finite_setting_is_config_error(self, tmp_path, capsys, name, value):
        out = tmp_path / "d"
        flag = "--" + name.replace("_", "-")
        assert run(["simulate", "--n", 30, f"{flag}={value}", "--seed", 1, "--out", out]) == 3
        assert f"{name} must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestFit:
    def test_noiseless_roundtrip_recovers_truth(self, noiseless_dataset, tmp_path):
        out = tmp_path / "fit"
        assert run(["fit", "--curves", noiseless_dataset / "curves.csv",
                    "--responses", noiseless_dataset / "responses.csv",
                    "--method", "C", "--out", out]) == 0
        report = json.loads((out / "slope_C.json").read_text())
        truth = json.loads((noiseless_dataset / "truth.json").read_text())
        beta = np.asarray(truth["beta"])
        # compare the fitted curve with the truth's projection on the fit basis
        sample = read_curves_csv(str(noiseless_dataset / "curves.csv"))
        from sofreg.functional import fpc_decompose

        basis = fpc_decompose(sample)
        cols = np.asarray(report["indices"]) - 1
        w = basis.grid.quad_weights
        projection = ((beta * w) @ basis.eigenfunctions[cols].T) @ basis.eigenfunctions[cols]
        np.testing.assert_allclose(np.asarray(report["curve"]), projection, atol=1e-6)

    def test_method_s_equals_c_when_fully_observed(self, noiseless_dataset, tmp_path):
        reports = {}
        for method in ("S", "C"):
            out = tmp_path / f"fit{method}"
            assert run(["fit", "--curves", noiseless_dataset / "curves.csv",
                        "--responses", noiseless_dataset / "responses.csv",
                        "--method", method, "--out", out]) == 0
            data = json.loads((out / f"slope_{method}.json").read_text())
            del data["method"]
            reports[method] = data
        assert reports["S"] == reports["C"]

    def test_malformed_decimal_names_line(self, noiseless_dataset, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        lines = (noiseless_dataset / "curves.csv").read_text().splitlines()
        parts = lines[6].split(",")
        parts[3] = "oops"
        lines[6] = ",".join(parts)
        bad.write_text("\n".join(lines) + "\n")
        code = run(["fit", "--curves", bad,
                    "--responses", noiseless_dataset / "responses.csv",
                    "--method", "C", "--out", tmp_path / "o"])
        assert code == 2
        assert "line 7" in capsys.readouterr().err

    def test_row_count_mismatch_is_config_error(self, noiseless_dataset, tmp_path, capsys):
        short = tmp_path / "short.csv"
        lines = (noiseless_dataset / "responses.csv").read_text().splitlines()
        short.write_text("\n".join(lines[:-5]) + "\n")
        code = run(["fit", "--curves", noiseless_dataset / "curves.csv",
                    "--responses", short, "--method", "C", "--out", tmp_path / "o"])
        assert code == 3

    @pytest.mark.parametrize("grid_row", ["0,nan,1", "0,0.5,inf"])
    def test_non_finite_grid_is_config_error(self, grid_row, tmp_path, capsys):
        curves = tmp_path / "curves.csv"
        rows = np.random.default_rng(0).normal(size=(6, 3))
        lines = [grid_row] + [",".join(f"{v:.17g}" for v in row) for row in rows]
        curves.write_text("\n".join(lines) + "\n")
        responses = tmp_path / "responses.csv"
        responses.write_text("y,observed\n" + "".join(f"{v:.17g},1\n" for v in rows[:, 0]))
        code = run(["fit", "--curves", curves, "--responses", responses,
                    "--method", "S", "--out", tmp_path / "o"])
        assert code == 3
        assert "grid points must be finite" in capsys.readouterr().err

    def test_all_missing_is_config_error(self, noiseless_dataset, tmp_path):
        y, r = read_responses_csv(str(noiseless_dataset / "responses.csv"))
        all_missing = tmp_path / "none.csv"
        rows = ["y,observed"] + ["NA,0"] * y.size
        all_missing.write_text("\n".join(rows) + "\n")
        code = run(["fit", "--curves", noiseless_dataset / "curves.csv",
                    "--responses", all_missing, "--method", "S", "--out", tmp_path / "o"])
        assert code == 3

    def test_plot_written(self, mar_dataset, tmp_path):
        out = tmp_path / "fitplot"
        assert run(["fit", "--curves", mar_dataset / "curves.csv",
                    "--responses", mar_dataset / "responses.csv",
                    "--method", "I", "--plot", "--out", out]) == 0
        svg = (out / "slope_I.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg


    def test_kmax_var_cutoff_truncates_the_observed_basis(self, tmp_path):
        data = tmp_path / "d65"
        assert run(["simulate", "--beta-id", 3, "--n", 65, "--eta", 2.0,
                    "--seed", 1, "--out", data]) == 0
        out = tmp_path / "fitS"
        assert run(["fit", "--curves", data / "curves.csv",
                    "--responses", data / "responses.csv", "--method", "S",
                    "--kmax-var-cutoff", 0.2, "--out", out]) == 0
        report = json.loads((out / "slope_S.json").read_text())
        y, r = read_responses_csv(str(data / "responses.csv"))
        sample = MarSample(read_curves_csv(str(data / "curves.csv")), y, r)
        assert sample.n_obs < sample.n
        k_max = observed_pairs_basis(sample, 0.2).k_max
        assert k_max < observed_pairs_basis(sample).k_max
        assert report["cutoffs"]["K_S"] <= k_max
        assert len(report["cv_errors"]) <= k_max


@pytest.fixture()
def set_blas_threads():
    """blas.set_blas_threads, starting at 2 threads; the caller's count is restored."""
    previous = blas.set_blas_threads(2)
    if previous is None:
        pytest.skip("no OpenBLAS loaded")
    yield blas.set_blas_threads
    blas.set_blas_threads(previous)


class TestBlasThreads:
    def test_fit_and_test_reports_do_not_depend_on_the_blas_thread_count(
            self, tmp_path, set_blas_threads):
        # at the real-data shape, threaded BLAS moved trailing digits of the
        # W and WL reports of this sample
        data = tmp_path / "data"
        assert run(["simulate", "--beta-id", 3, "--n", 65, "--eta", 2.0,
                    "--seed", 0, "--out", data]) == 0
        reports = {}
        for threads in (2, 1):
            set_blas_threads(threads)
            for command, extra, stem in (("fit", [], "slope"),
                                         ("test", ["--bootstrap", 200], "gof")):
                for method in ("W", "WL"):
                    out = tmp_path / f"{command}{method}{threads}"
                    assert run([command, "--curves", data / "curves.csv",
                                "--responses", data / "responses.csv",
                                "--method", method, "--out", out, *extra]) == 0
                    reports.setdefault((command, method), []).append(
                        (out / f"{stem}_{method}.json").read_bytes())
            assert set_blas_threads(threads) == threads
        assert all(pair[0] == pair[1] for pair in reports.values())

    def test_simulate_files_do_not_depend_on_the_blas_thread_count(
            self, tmp_path, monkeypatch, set_blas_threads):
        # both the covariance factor and the product drawing the curves
        # moved with the thread count
        files = []
        for threads in (2, 1):
            set_blas_threads(threads)
            monkeypatch.setattr(simulation, "_FACTOR_CACHE", {})
            out = tmp_path / f"sim{threads}"
            assert run(["simulate", "--beta-id", 3, "--n", 100, "--eta", 1.0,
                        "--seed", 7, "--out", out]) == 0
            assert set_blas_threads(threads) == threads
            files.append([(out / name).read_bytes()
                          for name in ("curves.csv", "responses.csv", "truth.json")])
        assert files[0] == files[1]

    def test_generated_datasets_do_not_depend_on_the_blas_thread_count(
            self, set_blas_threads):
        # library callers, such as the benchmark's input writer, draw at their
        # own thread count, outside cli.main
        config = simulation.DgpConfig(beta_id=3, eta=1.0, n=100)
        draws = []
        for threads in (2, 1):
            set_blas_threads(threads)
            sample, full_y, _ = simulation.generate_dataset(config, 7)
            assert set_blas_threads(threads) == threads
            draws.append([a.tobytes() for a in (sample.x.values, full_y, sample.r)])
        assert draws[0] == draws[1]

    def test_covariance_factor_does_not_depend_on_the_blas_thread_count(
            self, monkeypatch, set_blas_threads):
        # mc_experiment forks its workers with the cached factor, whatever
        # the thread count of the caller that computed it
        grid = simulation.DgpConfig(beta_id=1).grid
        factors = []
        for threads in (2, 1):
            set_blas_threads(threads)
            monkeypatch.setattr(simulation, "_FACTOR_CACHE", {})
            factors.append(simulation._ou_factor(grid).tobytes())
        assert factors[0] == factors[1]


class TestParser:
    def test_main_builds_one_parser_per_process(self, tmp_path):
        cli.build_parser.cache_clear()
        for _ in range(2):
            assert run(["mc", "--beta-id", 1, "--m", 1, "--out", tmp_path / "x"]) == 3
        assert cli.build_parser.cache_info().misses == 1


class TestDefaultThreads:
    def test_counts_usable_cores(self, monkeypatch):
        monkeypatch.delenv(cli.THREADS_ENV, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert cli._default_threads() == 1

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delenv(cli.THREADS_ENV, raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert cli._default_threads() == 3

    def test_environment_takes_precedence(self, monkeypatch):
        monkeypatch.setenv(cli.THREADS_ENV, "5")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert cli._default_threads() == 5

    def test_malformed_environment_names_the_variable(self, monkeypatch):
        monkeypatch.setenv(cli.THREADS_ENV, "abc")
        with pytest.raises(ConfigError, match=cli.THREADS_ENV):
            cli._default_threads()


class TestTest:
    def test_deterministic_json(self, mar_dataset, tmp_path):
        payloads = []
        for sub in ("t1", "t2"):
            out = tmp_path / sub
            assert run(["test", "--curves", mar_dataset / "curves.csv",
                        "--responses", mar_dataset / "responses.csv",
                        "--method", "S", "--bootstrap", 100, "--seed", 5,
                        "--out", out]) == 0
            payloads.append((out / "gof_S.json").read_bytes())
        assert payloads[0] == payloads[1]

    def test_granularity_and_plot(self, mar_dataset, tmp_path):
        out = tmp_path / "t"
        assert run(["test", "--curves", mar_dataset / "curves.csv",
                    "--responses", mar_dataset / "responses.csv",
                    "--method", "IL", "--bootstrap", 80, "--seed", 2,
                    "--plot", "--out", out]) == 0
        report = json.loads((out / "gof_IL.json").read_text())
        assert report["bootstrap_count"] == 80
        assert abs(report["p_value"] * 80 - round(report["p_value"] * 80)) < 1e-9
        assert (out / "gof_IL.svg").read_text().startswith("<svg")

    @pytest.mark.slow
    def test_null_p_values_roughly_uniform(self, tmp_path):
        # under the null, P(p > 0.5) should be near 1/2 across seeded runs
        above = 0
        runs = 100
        for seed in range(runs):
            data = tmp_path / f"d{seed}"
            assert run(["simulate", "--beta-id", 1, "--n", 100, "--eta", 1.0,
                        "--seed", 1000 + seed, "--out", data]) == 0
            out = tmp_path / f"r{seed}"
            assert run(["test", "--curves", data / "curves.csv",
                        "--responses", data / "responses.csv",
                        "--method", "S", "--bootstrap", 100,
                        "--seed", seed, "--out", out]) == 0
            report = json.loads((out / "gof_S.json").read_text())
            above += report["p_value"] > 0.5
        assert 30 <= above <= 70


class TestMc:
    def test_smoke_run_and_formats(self, tmp_path):
        out = tmp_path / "mc"
        assert run(["mc", "--beta-id", 1, "--eta", 1.0, "--n", 40, "--delta", 0.0,
                    "--m", 2, "--bootstrap", 20, "--seed", 9, "--threads", 1,
                    "--estimators", "S", "I", "--plots", "--out", out]) == 0
        table = (out / "rejections_beta1_eta1.csv").read_text().splitlines()
        assert table[0] == "n,delta,C,CL,S,SL,I,IL,W,WL"
        assert len(table) == 2
        report = json.loads((out / "report.json").read_text())
        assert report["m"] == 2 and report["cells"][0]["n"] == 40
        assert any(p.name.startswith("boxplot_msee") for p in out.iterdir())

    def test_refuses_unseeded(self, tmp_path, capsys):
        code = run(["mc", "--beta-id", 1, "--m", 1, "--bootstrap", 10,
                    "--out", tmp_path / "x"])
        assert code == 3
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("bootstrap, alpha", [(-3, 0.05), (20, 1.5)])
    def test_rejects_out_of_range_bootstrap_and_alpha(self, tmp_path, bootstrap, alpha):
        out = tmp_path / "mc"
        assert run(["mc", "--beta-id", 1, "--eta", 1.0, "--n", 40, "--m", 1,
                    "--bootstrap", bootstrap, "--alpha", alpha, "--seed", 9,
                    "--threads", 1, "--estimators", "S", "--out", out]) == 3
        assert not (out / "report.json").exists()

    def test_threads_flag_overrides_a_malformed_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.THREADS_ENV, "abc")
        out = tmp_path / "mc"
        assert run(["mc", "--beta-id", 1, "--eta", 1.0, "--n", 40, "--m", 1,
                    "--bootstrap", 10, "--seed", 9, "--threads", 1,
                    "--estimators", "S", "--out", out]) == 0
        assert (out / "report.json").exists()

    def test_rejects_nonpositive_threads(self, tmp_path, capsys):
        out = tmp_path / "mc"
        assert run(["mc", "--beta-id", 1, "--eta", 1.0, "--n", 40, "--m", 1,
                    "--bootstrap", 10, "--seed", 9, "--threads", -5,
                    "--estimators", "S", "--out", out]) == 3
        assert "threads" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_config_file_and_flag_override(self, tmp_path):
        cfg = tmp_path / "mc.cfg"
        cfg.write_text(
            "beta_id = 2\neta = 1.0\nn = 40\ndelta = 0.0\n"
            "m = 2\nbootstrap = 15\nseed = 4\nestimators = S\n"
        )
        out = tmp_path / "mc"
        assert run(["mc", "--config", cfg, "--threads", 1, "--m", 3,
                    "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["m"] == 3  # flag overrides file
        assert report["seed"] == 4

    @pytest.mark.parametrize("line", ["n = ", "estimators = ,"])
    def test_config_file_refuses_an_empty_list(self, tmp_path, capsys, line):
        cfg = tmp_path / "mc.cfg"
        cfg.write_text(f"beta_id = 1\n{line}\nm = 1\nbootstrap = 5\nseed = 4\n")
        out = tmp_path / "mc"
        assert run(["mc", "--config", cfg, "--threads", 1, "--out", out]) == 3
        assert f"{cfg}:2: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, values, message", [
        ("--n", ["30", "30"], "cell beta_id=1, eta=1.0, n=30, delta=0.0 is given more than once"),
        ("--delta", ["0", "0.0"], "cell beta_id=1, eta=1.0, n=30, delta=0.0 is given more than once"),
        ("--estimators", ["S", "s"], "estimator tag 'S' is given more than once"),
    ], ids=["n", "delta", "estimators"])
    def test_refuses_a_repeated_cell_or_tag(self, tmp_path, capsys, flag, values, message):
        # two cells of one name, or one tag run twice, would write colliding
        # files, doubled manifest entries and indistinguishable rows
        out = tmp_path / "mc"
        # the last occurrence of a flag wins
        assert run(["mc", "--beta-id", 1, "--eta", 1.0, "--n", 30, "--delta", 0.0,
                    "--m", 2, "--bootstrap", 10, "--estimators", "S", "--seed", 1,
                    "--threads", 1, "--plots", "--out", out, flag, *values]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["n = 30, 30", "estimators = S, I, s"])
    def test_config_file_refuses_a_repeated_value(self, tmp_path, capsys, line):
        cfg = tmp_path / "mc.cfg"
        cfg.write_text(f"beta_id = 1\neta = 1.0\n{line}\nm = 1\nbootstrap = 5\nseed = 4\n")
        out = tmp_path / "mc"
        assert run(["mc", "--config", cfg, "--threads", 1, "--out", out]) == 3
        assert "is given more than once" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["eta", "delta", "sigma_eps"])
    @pytest.mark.parametrize("route", ["flag", "file"])
    def test_non_finite_setting_is_config_error(self, tmp_path, capsys, route, name, value):
        # a NaN cell would run, escape the repeated-cell check and write
        # "NaN", which is not JSON, into report.json
        out = tmp_path / "mc"
        argv = ["mc", "--beta-id", 1, "--n", 30, "--m", 1, "--bootstrap", 5,
                "--estimators", "S", "--seed", 1, "--threads", 1, "--out", out]
        if route == "flag":
            argv.append(f"--{name.replace('_', '-')}={value}")
        else:
            cfg = tmp_path / "mc.cfg"
            cfg.write_text(f"{name} = {value}\n")
            argv += ["--config", cfg]
        assert run(argv) == 3
        assert f"{name} must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_names_the_line_of_a_malformed_value(self, tmp_path, capsys):
        cfg = tmp_path / "mc.cfg"
        cfg.write_text("# slope\nbeta_id = 1.5\nseed = 4\n")
        assert run(["mc", "--config", cfg, "--out", tmp_path / "mc"]) == 3
        assert f"{cfg}:2: invalid beta_id value '1.5'" in capsys.readouterr().err

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the replacement replicate reaches workers only by fork")
    def test_killed_worker_is_rerun_serially(self, tmp_path, monkeypatch, capsys):
        argv = ["mc", "--beta-id", 2, "--eta", 1.0, "--n", 40, "--delta", 0.0, 0.03,
                "--m", 4, "--bootstrap", 20, "--seed", 31, "--threads", 2,
                "--estimators", "S", "SL"]
        assert run(argv + ["--out", tmp_path / "whole"]) == 0
        monkeypatch.setattr(sys.modules[__name__], "DEATH_MARKER", str(tmp_path / "killed"))
        monkeypatch.setattr(simulation, "_run_replicate", _replicate_killing_its_worker_once)
        capsys.readouterr()
        assert run(argv + ["--out", tmp_path / "killed-run"]) == 0
        assert (tmp_path / "killed").exists()
        assert "rerun serially" in capsys.readouterr().err
        assert ((tmp_path / "killed-run" / "report.json").read_bytes()
                == (tmp_path / "whole" / "report.json").read_bytes())

    def test_rerun_is_byte_identical(self, tmp_path):
        payloads = []
        for sub in ("m1", "m2"):
            out = tmp_path / sub
            assert run(["mc", "--beta-id", 3, "--eta", 2.0, "--n", 40,
                        "--delta", 0.0, "--m", 3, "--bootstrap", 25,
                        "--seed", 12, "--threads", 2, "--out", out]) == 0
            payloads.append((out / "report.json").read_bytes())
        assert payloads[0] == payloads[1]


#: Per mc setting: its value as a config-file line, the same value as flag
#: tokens, the value the manifest echoes, and another file value that the
#: flag must override.
SETTING_VALUES = {
    "beta_id": ("2", ["2"], [2], "1, 3"),
    "eta": ("0.5, none", ["0.5", "none"], [0.5, None], "2"),
    "n": ("32", ["32"], [32], "40"),
    "delta": ("0.03", ["0.03"], [0.03], "0"),
    "estimators": ("sl", ["sl"], ["SL"], "S, I"),
    "m": ("2", ["2"], 2, "3"),
    "bootstrap": ("12", ["12"], 12, "20"),
    "alpha": ("0.1", ["0.1"], 0.1, "0.2"),
    "seed": ("6", ["6"], 6, "7"),
    "threads": ("2", ["2"], 2, "1"),
    "grid_points": ("41", ["41"], 41, "61"),
    "sigma_eps": ("0.2", ["0.2"], 0.2, "0.05"),
}
#: Every setting of a tiny run, as flag tokens.
BASE_SETTINGS = {"beta_id": ["1"], "eta": ["1.0"], "n": ["30"], "m": ["1"],
                 "bootstrap": ["10"], "estimators": ["S"], "seed": ["5"], "threads": ["1"]}
MC_MANIFEST_CONFIG_KEYS = {"alpha", "beta_id", "bootstrap", "delta", "estimators", "eta",
                           "grid_points", "m", "n", "sigma_eps", "threads", "version"}


class TestMcSettings:
    """The flags and the config file are one interface to the same settings."""

    def test_every_setting_is_covered(self):
        assert set(SETTING_VALUES) == {s.name for s in cli.MC_SETTINGS}
        assert MC_MANIFEST_CONFIG_KEYS == set(SETTING_VALUES) - {"seed"} | {"version"}

    @pytest.mark.parametrize("name", sorted(SETTING_VALUES))
    def test_file_line_equals_flag_and_flag_overrides_file(self, tmp_path, name):
        file_text, tokens, echoed, other = SETTING_VALUES[name]
        base = [str(t) for key, values in BASE_SETTINGS.items() if key != name
                for t in ["--" + key.replace("_", "-"), *values]]
        flag = ["--" + name.replace("_", "-"), *tokens]

        def mc(label, argv, line=None):
            out = tmp_path / label
            if line is not None:
                (tmp_path / f"{label}.cfg").write_text(f"{name} = {line}\n")
                argv = ["--config", tmp_path / f"{label}.cfg", *argv]
            assert run(["mc", *argv, "--out", out]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert set(manifest["config"]) == MC_MANIFEST_CONFIG_KEYS
            value = manifest["seed"] if name == "seed" else manifest["config"][name]
            assert value == echoed
            return (out / "report.json").read_bytes(), manifest["config"]

        from_flag = mc("flag", base + flag)
        assert mc("file", base, file_text) == from_flag
        assert mc("both", base + flag, other) == from_flag


class TestRealDataWorkflowShape:
    """Mirror of the real-data analysis: 65 curves, 201 grid points, ~21%
    missing responses, all six MAR estimators tested on the same sample."""

    @pytest.mark.slow
    def test_six_method_workflow(self, tmp_path):
        data = tmp_path / "weatherlike"
        assert run(["simulate", "--beta-id", 2, "--n", 65, "--eta", 1.9,
                    "--seed", 65, "--out", data]) == 0
        _, r = read_responses_csv(str(data / "responses.csv"))
        assert 0.10 <= 1.0 - r.mean() <= 0.35
        p_values = {}
        for method in ("S", "SL", "I", "IL", "W", "WL"):
            out = tmp_path / f"wf_{method}"
            assert run(["test", "--curves", data / "curves.csv",
                        "--responses", data / "responses.csv",
                        "--method", method, "--bootstrap", 1000,
                        "--seed", 3, "--out", out]) == 0
            report = json.loads((out / f"gof_{method}.json").read_text())
            p_values[method] = report["p_value"]
        assert all(0.0 <= p <= 1.0 for p in p_values.values())
