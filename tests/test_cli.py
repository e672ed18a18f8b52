import json
import multiprocessing
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import count_calls
from sofreg import blas, cli, gof, simulation
from sofreg.cli import main
from sofreg.dataio import read_curves_csv, read_responses_csv
from sofreg.estimators import MarSample, observed_pairs_basis


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

    def test_eta_none_draws_the_fully_observed_sample_of_no_eta(self, tmp_path):
        # --eta none is the default, as it is a cell of mc --eta
        for label, extra in (("none", ["--eta", "none"]), ("default", [])):
            assert run(["simulate", "--n", 30, *extra, "--seed", 4,
                        "--out", tmp_path / label]) == 0
        for name in ("curves.csv", "responses.csv", "truth.json"):
            assert ((tmp_path / "none" / name).read_bytes()
                    == (tmp_path / "default" / name).read_bytes()), name

    def test_out_of_range_beta_id_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert run(["simulate", "--beta-id", 4, "--seed", 1, "--out", out]) == 3
        assert "beta_id must be 1, 2, or 3" in capsys.readouterr().err
        assert not out.exists()


def assert_one_error_line_naming(err, path):
    """`err` is one ``error:`` line, with no traceback, that names `path`."""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(path) in err and "Traceback" not in err


def fit_argv(curves, responses, out, method="S", *extra):
    return ["fit", "--curves", curves, "--responses", responses, "--method", method,
            "--out", out, *extra]


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
        assert "row count mismatch: 60 curves but 55 responses" in capsys.readouterr().err

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

    @pytest.mark.parametrize("rows, message", [
        (["1.5,1"] + ["NA,0"] * 59, "need at least 3 observed responses"),
        (["1.5,1", "2.5,1"] + ["NA,0"] * 58, "need at least 3 observed responses"),
        (["nan,1"] + ["1.5,1"] * 59, "observed responses must be finite"),
    ], ids=["one-observed", "two-observed", "nan-observed"])
    def test_unusable_responses_are_config_errors(self, noiseless_dataset, tmp_path, capsys,
                                                   rows, message):
        responses = tmp_path / "responses.csv"
        responses.write_text("\n".join(["y,observed"] + rows) + "\n")
        assert run(fit_argv(noiseless_dataset / "curves.csv", responses, tmp_path / "o")) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("text, line, message", [
        ("", 1, "empty responses file"),
        ("y,observed,z\n1.5,1,0\n", 1, "header must be 'y,observed'"),
        ("y,observed\n1.5,1\n1.5,1,0\n", 3, "expected two columns"),
        ("y,observed\n1.5,1\nx,0\n", 3, "unobserved response must be empty or NA, found 'x'"),
    ], ids=["empty", "header", "three-columns", "unobserved-value"])
    def test_malformed_responses_name_their_line(self, noiseless_dataset, tmp_path, capsys,
                                                 text, line, message):
        responses = tmp_path / "responses.csv"
        responses.write_text(text)
        assert run(fit_argv(noiseless_dataset / "curves.csv", responses, tmp_path / "o")) == 2
        assert f"error: line {line}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["curves.csv", "responses.csv"])
    def test_a_file_that_is_not_utf8_names_its_line(self, noiseless_dataset, tmp_path, capsys,
                                                   name):
        # a parse error like any other, not the codec's message without a line
        files = {n: noiseless_dataset / n for n in ("curves.csv", "responses.csv")}
        lines = files[name].read_bytes().split(b"\n")
        lines[2] = lines[2][:3] + b"\xff" + lines[2][3:]
        files[name] = tmp_path / name
        files[name].write_bytes(b"\n".join(lines))
        code = run(fit_argv(files["curves.csv"], files["responses.csv"], tmp_path / "o"))
        assert code == 2
        assert "error: line 3: not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["curves.csv", "responses.csv"])
    def test_a_missing_input_file_is_config_error(self, mar_dataset, tmp_path, capsys, name):
        files = {n: mar_dataset / n for n in ("curves.csv", "responses.csv")}
        files[name] = tmp_path / "missing" / name
        code = run(fit_argv(files["curves.csv"], files["responses.csv"], tmp_path / "o"))
        assert code == 3
        assert_one_error_line_naming(capsys.readouterr().err, files[name])

    def test_an_out_directory_that_cannot_be_made_is_config_error(self, mar_dataset, tmp_path,
                                                                  capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = run(fit_argv(mar_dataset / "curves.csv", mar_dataset / "responses.csv",
                            blocker / "out"))
        assert code == 3
        assert_one_error_line_naming(capsys.readouterr().err, blocker)

    @pytest.mark.parametrize("cutoff", [0, 1.5])
    def test_kmax_var_cutoff_outside_the_unit_interval_is_config_error(
            self, noiseless_dataset, tmp_path, capsys, cutoff):
        code = run(fit_argv(noiseless_dataset / "curves.csv", noiseless_dataset / "responses.csv",
                            tmp_path / "o", "S", "--kmax-var-cutoff", cutoff))
        assert code == 3
        assert "var_cutoff must lie in (0, 1]" in capsys.readouterr().err

    def test_identical_curves_are_a_numerical_error(self, tmp_path, capsys):
        curves = tmp_path / "curves.csv"
        curves.write_text("0,0.5,1\n" + "1,2,3\n" * 12)
        responses = tmp_path / "responses.csv"
        responses.write_text("y,observed\n" + "".join(f"{i}.5,1\n" for i in range(12)))
        assert run(fit_argv(curves, responses, tmp_path / "o")) == 4
        assert "numerical error: " in capsys.readouterr().err

    def test_method_is_case_insensitive(self, mar_dataset, tmp_path):
        reports = []
        for method in ("I", "i"):
            out = tmp_path / f"fit-{method}"
            assert run(fit_argv(mar_dataset / "curves.csv", mar_dataset / "responses.csv",
                                out, method)) == 0
            reports.append((out / "slope_I.json").read_bytes())
        assert reports[0] == reports[1]

    def test_unknown_method_is_config_error(self, mar_dataset, tmp_path, capsys):
        # the library's message, as for a tag that mc reads from a config file
        out = tmp_path / "o"
        assert run(fit_argv(mar_dataset / "curves.csv", mar_dataset / "responses.csv",
                            out, "X")) == 3
        assert "unknown method tag 'X'; expected one of" in capsys.readouterr().err
        assert not out.exists()

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


def run_fresh_process(code, *args, **env):
    """Run Python `code` with `args` in a new process that imports this sofreg
    tree, with `env` added to the environment; returns its stdout."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


#: The commands whose reports must not depend on the BLAS thread count, run
#: under `sys.argv[1]` by a process whose OpenBLAS starts at the count that
#: OPENBLAS_NUM_THREADS sets, as a shell's `sofreg` would.
FRESH_PROCESS_COMMANDS = """
import os, sys
from sofreg import blas
from sofreg.cli import main

threads = int(os.environ["OPENBLAS_NUM_THREADS"])
assert blas.set_blas_threads(threads) == threads, "OpenBLAS ignored OPENBLAS_NUM_THREADS"
root = sys.argv[1]

def run(*argv):
    assert main([str(a) for a in argv]) == 0, argv

# the wide sample has more curves than grid points: its bases come from the
# grid-side Gram
for prefix, n, grid_points, methods in (("", 65, 201, "I IL W WL"), ("wide-", 150, 101, "I WL")):
    data = f"{root}/{prefix}data"
    run("simulate", "--beta-id", 3, "--n", n, "--eta", 2.0, "--grid-points", grid_points,
        "--seed", 0, "--out", data)
    for method in methods.split():
        on_sample = ["--curves", f"{data}/curves.csv", "--responses", f"{data}/responses.csv",
                     "--method", method]
        run("fit", *on_sample, "--out", f"{root}/{prefix}fit-{method}")
        run("test", *on_sample, "--bootstrap", 200, "--out", f"{root}/{prefix}test-{method}")
# one worker runs without the pool modules, two with them
for workers in (1, 2):
    run("mc", "--beta-id", 3, "--eta", 0.5, 1.0, "--n", 40, "--delta", 0, 0.03, "--m", 4,
        "--bootstrap", 50, "--estimators", *"C CL S SL I IL W WL".split(), "--seed", 0,
        "--threads", workers, "--plots", "--out", f"{root}/mc-{workers}")
"""


def report_files(root):
    """The bytes of every file under `root` by relative path, but for the
    manifests and the boxplot_time_* plots, which record wall times."""
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*"))
            if path.is_file() and path.name != "manifest.json"
            and not path.name.startswith("boxplot_time_")}


def differing(a, b):
    """The names whose bytes differ between two `report_files`, or that one lacks."""
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


class TestSeedRule:
    def argv(self, command, data, out, method="S"):
        on_sample = ["--curves", data / "curves.csv", "--responses", data / "responses.csv",
                     "--method", method]
        return {
            "simulate": ["simulate", "--n", 30],
            "fit": ["fit", *on_sample],
            "test": ["test", *on_sample, "--bootstrap", 20],
            "mc": ["mc", "--beta-id", 1, "--n", 30, "--m", 1, "--bootstrap", 5,
                   "--estimators", "S", "--threads", 1],
        }[command] + ["--seed", -1, "--out", out]

    @pytest.mark.parametrize("command", ["simulate", "fit", "test", "mc"])
    def test_a_negative_seed_is_config_error(self, mar_dataset, tmp_path, capsys, command):
        # numpy's own refusal, "expected non-negative integer", named no setting
        out = tmp_path / "out"
        assert run(self.argv(command, mar_dataset, out)) == 3
        err = capsys.readouterr().err
        assert err == "error: seed must be a nonnegative integer, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("method", ["S", "SL"])
    def test_fit_refuses_a_negative_seed_whether_or_not_the_method_reads_it(
            self, mar_dataset, tmp_path, capsys, method):
        # S reads no seed and took -1; SL failed in numpy
        out = tmp_path / "out"
        assert run(self.argv("fit", mar_dataset, out, method)) == 3
        assert "seed must be a nonnegative integer" in capsys.readouterr().err
        assert not out.exists()


class TestBlasThreads:
    def test_fresh_processes_write_the_same_reports_at_one_and_two_blas_threads(self, tmp_path):
        # the thread count a shell sets reaches OpenBLAS when numpy loads,
        # before cli.main runs; in-process tests change it only afterwards
        if blas._openblas() is None:
            pytest.skip("no OpenBLAS loaded")
        if cli._default_threads() < 2:
            pytest.skip("OpenBLAS caps its thread count at the usable cores")
        roots = [tmp_path / f"blas-{threads}" for threads in (1, 2)]
        for threads, root in zip((1, 2), roots):
            run_fresh_process(FRESH_PROCESS_COMMANDS, root, OPENBLAS_NUM_THREADS=str(threads))
        one, two = map(report_files, roots)
        assert {"fit-W/slope_W.json", "test-WL/gof_WL.json", "wide-test-WL/gof_WL.json",
                "mc-1/report.json", "mc-2/boxplot_msee_beta3_eta1_n40_delta0.03.svg"} <= one.keys()
        assert differing(one, two) == []
        by_workers = [{name.split("/", 1)[1]: data for name, data in one.items()
                       if name.startswith(f"mc-{workers}/")} for workers in (1, 2)]
        assert differing(*by_workers) == []
        # each mc manifest lists every output once
        for mc in (root / f"mc-{workers}" for root in roots for workers in (1, 2)):
            listed = json.loads((mc / "manifest.json").read_text())["outputs"]
            assert listed == sorted(p.name for p in mc.iterdir() if p.name != "manifest.json")

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

    def test_every_command_of_the_readme_parses(self):
        # parsed only, never run: a flag removed from the parser cannot stay in the docs
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.S | re.M)
        lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
        commands = [shlex.split(line)[1:] for line in lines if line.startswith("sofreg ")]
        assert {argv[0] for argv in commands} == {"simulate", "fit", "test", "mc"}
        for argv in commands:
            assert cli.build_parser().parse_args(argv).command == argv[0]


class TestDefaultThreads:
    def test_counts_usable_cores(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert cli._default_threads() == 1

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert cli._default_threads() == 3


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

    @pytest.mark.parametrize("error", [OverflowError, ZeroDivisionError])
    def test_an_arithmetic_error_in_a_stage_is_a_numerical_error(
            self, mar_dataset, tmp_path, capsys, monkeypatch, error):
        # math.gamma(N_K / 2) in build_a_matrix overflows from N_K = 344 columns
        def failing_build(block):
            raise error("raised in build_a_matrix")

        monkeypatch.setattr(gof, "build_a_matrix", failing_build)
        out = tmp_path / "t"
        assert run(["test", "--curves", mar_dataset / "curves.csv",
                    "--responses", mar_dataset / "responses.csv",
                    "--method", "S", "--bootstrap", 10, "--out", out]) == 4
        err = capsys.readouterr().err
        assert err == "numerical error: raised in build_a_matrix\n", err
        assert not out.exists()

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

    def test_replicate_failures_are_counted_and_warned_of(self, tmp_path, monkeypatch, capsys):
        def overflowing_test(sample, basis, tag, **kwargs):
            raise FloatingPointError("overflow encountered in the test")

        monkeypatch.setattr(simulation, "wild_bootstrap_test", overflowing_test)
        out = tmp_path / "mc"
        assert run(["mc", "--beta-id", 1, "--eta", 1.0, "--n", 30, "--m", 3, "--bootstrap", 5,
                    "--estimators", "S", "--seed", 1, "--threads", 1, "--plots",
                    "--out", out]) == 0
        assert "warning: 3 replicate failures recorded\n" in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert report["cells"][0]["failures"] == {"S": 3}
        # a failed replicate has no MSEE, so the boxplot has no value to draw
        svg = (out / "boxplot_msee_beta1_eta1_n30_delta0.svg").read_text()
        assert ">empty</text>" in svg

    def test_refuses_unseeded(self, tmp_path, capsys):
        code = run(["mc", "--beta-id", 1, "--m", 1, "--bootstrap", 10,
                    "--out", tmp_path / "x"])
        assert code == 3
        assert "seed" in capsys.readouterr().err

    def test_an_out_directory_that_cannot_be_made_fails_before_the_study(
            self, tmp_path, capsys, monkeypatch):
        # the files are written after every replicate has run, so without an
        # early check the whole study would run and be thrown away
        runs = count_calls(monkeypatch, simulation, "_run_replicate")
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert run(["mc", "--beta-id", 1, "--n", 30, "--m", 2, "--bootstrap", 5,
                    "--estimators", "S", "--seed", 1, "--threads", 1,
                    "--out", blocker / "mc"]) == 3
        err = capsys.readouterr().err
        assert_one_error_line_naming(err, blocker)
        assert "Not a directory" in err
        assert runs == []

    def test_refused_settings_keep_an_out_directory_that_was_there(self, tmp_path, capsys):
        out = tmp_path / "mc"
        out.mkdir()
        assert run(["mc", "--beta-id", 1, "--n", 30, "--m", 1, "--bootstrap", 5,
                    "--estimators", "S", "S", "--seed", 1, "--threads", 1, "--out", out]) == 3
        assert "is given more than once" in capsys.readouterr().err
        assert out.is_dir()

    def test_refused_settings_remove_every_directory_made_for_the_out_directory(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["mc", "--beta-id", 1, "--n", 30, "--m", 1, "--bootstrap", 5,
                    "--estimators", "S", "S", "--seed", 1, "--threads", 1,
                    "--out", "nest/a/b/mc"]) == 3
        assert "is given more than once" in capsys.readouterr().err
        assert not (tmp_path / "nest").exists()

    def test_refused_settings_keep_an_empty_parent_that_was_there(self, tmp_path, capsys):
        nest = tmp_path / "nest"
        nest.mkdir()
        assert run(["mc", "--beta-id", 1, "--n", 30, "--m", 1, "--bootstrap", 5,
                    "--estimators", "S", "S", "--seed", 1, "--threads", 1,
                    "--out", nest / "a" / "b" / "mc"]) == 3
        assert "is given more than once" in capsys.readouterr().err
        assert nest.is_dir() and not any(nest.iterdir())

    @pytest.mark.parametrize("refused, message", [
        (["--estimators", "S", "S"], "estimator tag 'S' is given more than once"),
        (["--m", 0], "m must be at least 1"),
        (["--alpha", 1], "alpha must lie in (0, 1)"),
    ], ids=["estimators", "m", "alpha"])
    def test_a_refused_run_makes_no_directory(self, tmp_path, capsys, monkeypatch, refused,
                                              message):
        # the run is checked before --out is made, so there is nothing to remove
        made = count_calls(monkeypatch, cli.os, "makedirs")
        assert run(["mc", "--beta-id", 1, "--n", 30, "--m", 1, "--bootstrap", 5,
                    "--estimators", "S", "--seed", 1, "--threads", 1,
                    "--out", tmp_path / "nest" / "mc", *refused]) == 3
        assert message in capsys.readouterr().err
        assert made == []
        assert not (tmp_path / "nest").exists()

    @pytest.mark.parametrize("bootstrap, alpha", [(-3, 0.05), (20, 1.5)])
    def test_rejects_out_of_range_bootstrap_and_alpha(self, tmp_path, bootstrap, alpha):
        out = tmp_path / "mc"
        assert run(["mc", "--beta-id", 1, "--eta", 1.0, "--n", 40, "--m", 1,
                    "--bootstrap", bootstrap, "--alpha", alpha, "--seed", 9,
                    "--threads", 1, "--estimators", "S", "--out", out]) == 3
        assert not (out / "report.json").exists()

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

    @pytest.mark.parametrize("cells, tables, stems", [
        (["--eta", "0.5", "0.5000001"],
         ["rejections_beta1_eta0.5.csv", "rejections_beta1_eta0.5000001.csv"],
         ["beta1_eta0.5_n30_delta0", "beta1_eta0.5000001_n30_delta0"]),
        (["--eta", "0.5", "--delta", "0.1", "0.1000001"],
         ["rejections_beta1_eta0.5.csv"],
         ["beta1_eta0.5_n30_delta0.1", "beta1_eta0.5_n30_delta0.1000001"]),
    ], ids=["eta", "delta"])
    def test_cells_that_differ_past_six_digits_write_their_own_files(self, tmp_path, cells,
                                                                     tables, stems):
        # six significant digits would print each pair of values alike, and
        # the second cell's table or boxplots would overwrite the first's
        out = tmp_path / "mc"
        assert run(["mc", "--beta-id", 1, *cells, "--n", 30, "--m", 1, "--bootstrap", 10,
                    "--estimators", "S", "--seed", 1, "--threads", 1, "--plots",
                    "--out", out]) == 0
        expected = sorted(tables + ["report.json"] + [f"boxplot_{quantity}_{stem}.svg"
                                                      for quantity in ("msee", "time")
                                                      for stem in stems])
        assert json.loads((out / "manifest.json").read_text())["outputs"] == expected
        assert sorted(p.name for p in out.iterdir()) == sorted(expected + ["manifest.json"])

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

    @pytest.mark.parametrize("name, value, message", [
        ("beta_id", "4", "beta_id must be 1, 2, or 3"),
        ("estimators", "X", "unknown estimator tag 'X'; expected one of"),
    ])
    @pytest.mark.parametrize("route", ["flag", "file"])
    def test_out_of_range_setting_is_config_error(self, tmp_path, capsys, route, name, value,
                                                  message):
        # a flag and a file line are checked by the same library code
        out = tmp_path / "mc"
        flags = {"beta_id": 1, "n": 30, "m": 1, "bootstrap": 5, "estimators": "S",
                 "seed": 1, "threads": 1}
        if route == "flag":
            flags[name] = value
        else:
            del flags[name]
            cfg = tmp_path / "mc.cfg"
            cfg.write_text(f"{name} = {value}\n")
            flags["config"] = cfg
        argv = [token for key, v in flags.items() for token in ("--" + key.replace("_", "-"), v)]
        assert run(["mc", *argv, "--out", out]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("n 30", "expected 'key = value'"),
        ("replicates = 3", "unknown key 'replicates'"),
    ])
    def test_config_file_names_the_line_of_a_malformed_line(self, tmp_path, capsys, line,
                                                             message):
        cfg = tmp_path / "mc.cfg"
        cfg.write_text(f"beta_id = 1\n\n{line}\nseed = 4\n")
        out = tmp_path / "mc"
        assert run(["mc", "--config", cfg, "--out", out]) == 3
        assert f"{cfg}:3: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_names_the_line_of_a_malformed_value(self, tmp_path, capsys):
        cfg = tmp_path / "mc.cfg"
        cfg.write_text("# slope\nbeta_id = 1.5\nseed = 4\n")
        assert run(["mc", "--config", cfg, "--out", tmp_path / "mc"]) == 3
        assert f"{cfg}:2: invalid beta_id value '1.5'" in capsys.readouterr().err

    def test_config_file_that_is_not_utf8_names_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "mc.cfg"
        cfg.write_bytes(b"# cells\nn = 3\xff0\nseed = 4\n")
        out = tmp_path / "mc"
        assert run(["mc", "--config", cfg, "--out", out]) == 3
        assert (capsys.readouterr().err
                == f"error: {cfg}:2: not UTF-8 text (invalid start byte)\n")
        assert not out.exists()

    def test_a_missing_config_file_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "missing.cfg"
        assert run(["mc", "--config", cfg, "--out", tmp_path / "mc"]) == 3
        assert_one_error_line_naming(capsys.readouterr().err, cfg)

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


class TestImports:
    def test_serial_commands_load_no_pool_modules(self, tmp_path):
        # multiprocessing and concurrent.futures (with socket, logging and
        # subprocess) cost start-up time and memory; only a pool needs them
        code = "\n".join([
            "import sys",
            "def report(after):",
            "    loaded = [m for m in sys.modules if m.split('.')[0] == 'multiprocessing'",
            "              or m.startswith('concurrent.futures')]",
            "    print('pool modules after', after, ':', sorted(loaded))",
            "import sofreg",
            "report('import sofreg')",
            "from sofreg.cli import main",
            "report('import sofreg.cli')",
            f"data, out = {str(tmp_path / 'data')!r}, {str(tmp_path / 'out')!r}",
            "sample = ['--curves', data + '/curves.csv', '--responses', data + '/responses.csv',",
            "          '--method', 'I', '--seed', '1', '--out', out]",
            "for argv in (['simulate', '--beta-id', '3', '--n', '40', '--eta', '1', '--seed', '2',",
            "              '--out', data],",
            "             ['fit'] + sample, ['test', '--bootstrap', '20'] + sample,",
            "             ['mc', '--beta-id', '1', '--n', '30', '--m', '1', '--bootstrap', '10',",
            "              '--estimators', 'S', '--seed', '1', '--threads', '1', '--out', out]):",
            "    assert main(argv) == 0",
            "    report(argv[0])",
        ])
        reports = [line for line in run_fresh_process(code).splitlines()
                   if line.startswith("pool modules")]
        assert len(reports) == 6
        assert all(line.endswith(": []") for line in reports), reports


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
