import json
import multiprocessing
import os
import sys

import numpy as np
import pytest

from sofreg import cli, simulation
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
