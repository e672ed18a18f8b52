"""sofreg benchmark: one workload, one seed, a fixed measuring time.

    python3 sofbench/run.py --workload mc-n100 --seed 1 --seconds 45 --trace 0

Workloads (inputs are drawn from --seed; the program only reads the files):

  mc-n100   `sofreg mc`, slope 3, eta 1, n=100, delta 0 and 0.03, all eight
            estimators, M=8 per delta, B=500, --threads = usable cores.
  realdata  65 x 201 samples with ~20% missing responses; each session runs
            `fit --plot` and `test --bootstrap 1000 --plot` for S, SL, I, IL,
            W and WL on the next of six samples.

Every run attempts whole rounds (MC) or sessions (realdata) until --seconds
have passed, checks every output against recomputations in checks.py, and
prints one JSON line last. --trace 0 gives the end-to-end metrics; --trace 1
runs MC rounds with --threads 1 under the span tracer of spans.py and gives
the per-layer metrics. The BLAS thread variables are cleared, not pinned, so
the program runs as a user runs it (--pin-blas sets them to 1 instead, for
reference figures only).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".sofbench")

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("mc-n100", "realdata")
SETUP_REPEATS = 9
REAL_TAGS = ("S", "SL", "I", "IL", "W", "WL")
REAL_BOOTSTRAP = 1000

#: Per-layer metric measured outside the spans: replicates per second of the
#: untraced all-core round that each traced MC run starts with.
POOL_METRIC = ("simulation.mc_experiment.pool_replicates_per_s", "1/s", "higher")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="sofreg benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n", type=int, help="override the MC sample size (reference runs)")
    parser.add_argument("--threads", type=int, help="override the MC worker count")
    parser.add_argument("--pin-blas", action="store_true",
                        help="set the BLAS thread variables to 1 instead of clearing them")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed nonnegative")
    if args.n is not None and args.workload == "realdata":
        parser.error("--n applies to mc-n100 only")
    return args


def derived_seed(seed: int, index: int) -> int:
    """Seed of round or session `index`; distinct across runs and rounds."""
    return 1_000_003 * seed + index


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class InputSample:
    """One generated sample: its file paths and its independent parse."""

    def __init__(self, directory: str):
        import numpy as np

        from checks import Sample

        self.curves = os.path.join(directory, "curves.csv")
        self.responses = os.path.join(directory, "responses.csv")
        table = np.loadtxt(self.curves, delimiter=",", ndmin=2)
        y, observed = [], []
        with open(self.responses, encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                value, flag = line.strip().split(",")
                observed.append(flag == "1")
                y.append(float(value) if flag == "1" else float("nan"))
        self.parsed = Sample(table[0], table[1:], y, observed)


def read_inputs(directory: str, workload: str) -> list[InputSample]:
    from inputs import SHAPES, sample_dir

    return [InputSample(sample_dir(directory, k)) for k in range(SHAPES[workload]["samples"])]


class Run:
    def __init__(self, args, work: str):
        import sofreg.cli

        self.cli = sofreg.cli
        self.args = args
        self.work = work
        self.inputs = os.path.join(work, "inputs")
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.tracer = None
        self.traced_s = 0.0
        self.setup_times: list[float] = []
        self._sink = io.StringIO()

    def setup(self, out: str | None = None) -> None:
        """Time one fresh interpreter writing the inputs (to `out` for repeats)."""
        cmd = [sys.executable, os.path.join(HERE, "inputs.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--out", out or self.inputs]
        if self.args.n:
            cmd += ["--n", str(self.args.n)]
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        self.setup_times.append(time.perf_counter() - t0)

    def setup_between_rounds(self, start: float) -> None:
        """Repeat the set-up at even times through the run.

        The machine's speed drifts over tens of seconds, so repeats spread
        over the run give a steadier median than repeats back to back.
        """
        while len(self.setup_times) < SETUP_REPEATS and time.perf_counter() >= (
                start + len(self.setup_times) * self.args.seconds / SETUP_REPEATS):
            self.setup(os.path.join(self.work, "setup-repeat"))

    def setup_s(self) -> float:
        while len(self.setup_times) < SETUP_REPEATS:
            self.setup(os.path.join(self.work, "setup-repeat"))
        print("setup: " + " ".join(f"{t:.3f}" for t in self.setup_times) + " s", file=sys.stderr)
        return statistics.median(self.setup_times)

    def call(self, *argv) -> tuple[bool, float]:
        """One CLI operation through sofreg.cli.main; returns (ok, seconds)."""
        argv = [str(a) for a in argv]
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(self._sink):
            code = self.cli.main(argv)
        seconds = time.perf_counter() - t0
        self._sink.seek(0)
        self._sink.truncate()
        self.attempted += 1
        if self.tracer is not None:
            self.traced_s += seconds
        if code != 0:
            self.failed += 1
            print(f"operation failed with exit code {code}: {' '.join(argv)}", file=sys.stderr)
        return code == 0, seconds

    def check(self, fn, *args):
        """Run one checker; a failure is recorded and the run goes on."""
        from checks import CheckError

        try:
            return fn(*args)
        except CheckError as exc:
            self.errors.append(str(exc))
            print(f"check failed: {exc}", file=sys.stderr)
            return None

    def start_tracing(self):
        from spans import Tracer

        self.tracer = Tracer()
        self.tracer.install()

    def check_a_matrix(self, sample):
        """The program's A against the case table, on this run's own scores."""
        import checks
        from sofreg.gof import build_a_matrix

        rows = sample.scores(own=False)
        block = rows[:, : min(3, rows.shape[1])]
        self.check(checks.check_a_matrix, build_a_matrix(block).values, block)

    def finish(self, samples) -> None:
        if self.tracer is not None:
            self.tracer.uninstall()
        self.check_a_matrix(samples[0].parsed)


def run_mc(run: Run, start: float, until: float) -> dict:
    import checks
    from inputs import MC_BOOTSTRAP, SHAPES, TAGS

    args = run.args
    shape = SHAPES[args.workload]
    cores = len(os.sched_getaffinity(0))
    threads = args.threads or cores
    per_round = shape["m"] * len(shape["deltas"])
    config = os.path.join(run.inputs, "mc.cfg")
    samples = read_inputs(run.inputs, args.workload)

    def mc(index, workers, out):
        ok, seconds = run.call("mc", "--config", config, "--seed", derived_seed(args.seed, index),
                               "--threads", workers, "--out", out, "--plots")
        if ok:
            with open(os.path.join(out, "report.json"), "rb") as fh:
                raw = fh.read()
            bad = run.check(checks.check_mc_report, json.loads(raw), shape["m"],
                            MC_BOOTSTRAP, list(TAGS))
            if bad:
                run.failed += 1
                print(f"mc round {index}: {bad} failed replicates", file=sys.stderr)
            for name in sorted(os.listdir(out)):
                if name.endswith(".svg"):
                    run.check(checks.check_svg, os.path.join(out, name))
            return ok, seconds, raw
        return ok, seconds, None

    mc_seconds = []
    if args.trace:
        # The worker count must never change results: an untraced round on
        # every core is the reference for the traced single-process round 0.
        _, seconds, reference = mc(0, cores, os.path.join(run.work, "mc-ref"))
        pool_rate = per_round / seconds
        run.start_tracing()
    index = 0
    while index == 0 or time.perf_counter() < until:
        out = os.path.join(run.work, "mc")
        ok, seconds, raw = mc(index, 1 if args.trace else threads, out)
        mc_seconds.append(seconds)
        if args.trace and index == 0 and ok and raw != reference:
            run.errors.append("report.json differs between --threads 1 and --threads N")
            print("check failed: report.json depends on the worker count", file=sys.stderr)
        print(f"round {index}: mc {seconds:.3f} s", file=sys.stderr)
        index += 1
        run.setup_between_rounds(start)
    run.finish(samples)
    replicates = per_round * len(mc_seconds)
    return {
        "units": replicates,
        "replicates_per_s": replicates / sum(mc_seconds),
        "pool_replicates_per_s": pool_rate if args.trace else None,
    }


def run_realdata(run: Run, start: float, until: float) -> dict:
    import checks

    args = run.args
    samples = read_inputs(run.inputs, args.workload)
    fit_out = os.path.join(run.work, "fit")
    test_out = os.path.join(run.work, "test")
    if args.trace:
        run.start_tracing()
    session_seconds, test_seconds = [], {tag: [] for tag in REAL_TAGS}
    index = 0
    while index == 0 or time.perf_counter() < until:
        seed = derived_seed(args.seed, index)
        sample = samples[index % len(samples)]
        curves, responses = sample.curves, sample.responses
        if run.tracer is not None:
            run.tracer.next_unit()
        done = {}
        t0 = time.perf_counter()
        for tag in REAL_TAGS:
            fit_ok, _ = run.call("fit", "--curves", curves, "--responses", responses,
                                 "--method", tag, "--seed", seed, "--out", fit_out, "--plot")
            test_ok, seconds = run.call(
                "test", "--curves", curves, "--responses", responses, "--method", tag,
                "--bootstrap", REAL_BOOTSTRAP, "--seed", seed, "--out", test_out, "--plot")
            test_seconds[tag].append(seconds)
            done[tag] = fit_ok and test_ok
        session_seconds.append(time.perf_counter() - t0)
        print(f"session {index}: {session_seconds[-1]:.3f} s", file=sys.stderr)
        for tag, ok in done.items():
            if not ok:
                continue
            with open(os.path.join(fit_out, f"slope_{tag}.json"), encoding="utf-8") as fh:
                fit = json.load(fh)
            with open(os.path.join(test_out, f"gof_{tag}.json"), encoding="utf-8") as fh:
                gof = json.load(fh)
            run.check(checks.check_p_value, gof)
            run.check(checks.check_statistic, sample.parsed, fit, gof)
            if tag == "S":
                run.check(checks.check_simplified_fit, sample.parsed, fit)
            if tag == "SL":
                run.check(checks.check_lasso_support, sample.parsed, fit)
            run.check(checks.check_svg, os.path.join(fit_out, f"slope_{tag}.svg"))
            run.check(checks.check_svg, os.path.join(test_out, f"gof_{tag}.svg"))
        index += 1
        run.setup_between_rounds(start)
    run.finish(samples)
    return {
        "units": len(session_seconds),
        "session_s": statistics.median(session_seconds),
        # Per estimator, then averaged: the S, I and W tests take ~0.04 s and
        # the LASSO ones 0.13 to 0.24 s, so a median over all calls would
        # fall in the gap between the two groups and jump from run to run.
        "test_p50_s": statistics.mean(statistics.median(t) for t in test_seconds.values()),
    }


def end_to_end(workload: str, measured: dict) -> dict:
    """The three timing metrics from each workload's own measured figures.

    The MC workload measures replicates per second, realdata the median
    session and test times. Every workload reports all three, so the rest
    are derived here: on MC a session is one replicate and a test is one
    estimator fitted and tested within it; on realdata a replicate is one
    session.
    """
    from inputs import TAGS

    if workload == "realdata":
        return {"replicates_per_s": 1.0 / measured["session_s"],
                "session_s": measured["session_s"],
                "test_p50_s": measured["test_p50_s"]}
    per_replicate = 1.0 / measured["replicates_per_s"]
    return {"replicates_per_s": measured["replicates_per_s"],
            "session_s": per_replicate,
            "test_p50_s": per_replicate / len(TAGS)}


def execute(args, work: str) -> dict:
    run = Run(args, work)
    run.setup()
    start = time.perf_counter()
    until = start + args.seconds
    measured = (run_realdata if args.workload == "realdata" else run_mc)(run, start, until)
    setup_s = run.setup_s()
    if args.trace:
        from spans import METRICS

        try:
            layers = run.tracer.metrics(measured["units"], run.traced_s)
        except AssertionError as exc:
            run.errors.append(str(exc))
            print(f"check failed: {exc}", file=sys.stderr)
            layers = {}
        layers[POOL_METRIC[0]] = measured.get("pool_replicates_per_s") or 0.0
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit}
                   for name, unit, _ in METRICS + (POOL_METRIC,)}
    else:
        timings = end_to_end(args.workload, measured)
        values = {
            "setup_s": (setup_s, "s"),
            "replicates_per_s": (timings["replicates_per_s"], "1/s"),
            "session_s": (timings["session_s"], "s"),
            "test_p50_s": (timings["test_p50_s"], "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    return {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:  # before numpy loads its BLAS
        if args.pin_blas:
            os.environ[var] = "1"
        else:
            os.environ.pop(var, None)
    if not os.path.isfile(os.path.join(SRC, "sofreg", "__init__.py")):
        print(f"error: no sofreg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, SRC]
    import sofreg

    if os.path.dirname(os.path.abspath(sofreg.__file__)) != os.path.join(SRC, "sofreg"):
        print(f"error: imported sofreg from {sofreg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    work = os.path.join(WORK_ROOT, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    try:
        result = execute(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
