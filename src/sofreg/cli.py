"""Command-line front end: simulate, fit, test, and mc subcommands."""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

import numpy as np

from . import __version__
from .blas import single_blas_thread
from .dataio import (
    build_manifest,
    dump_json,
    gof_report,
    read_curves_csv,
    read_responses_csv,
    slope_report,
    atomic_write_text,
    write_curves_csv,
    write_responses_csv,
)
from .estimators import METHOD_TAGS, MarSample, fit_slope
from .exceptions import (
    ConfigError,
    CsvFormatError,
    DegenerateSampleError,
    NumericalError,
    SofregError,
)
from .functional import fpc_decompose
from .gof import wild_bootstrap_test
from .simulation import DgpConfig, generate_dataset, mc_experiment
from .svgplot import curve_plot, density_plot, grouped_boxplot

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONFIG = 3
EXIT_NUMERICAL = 4

THREADS_ENV = "SOFREG_THREADS"

#: Scaled harness profile (full scale via --full-scale).
SCALED_M, SCALED_B = 200, 500
FULL_M, FULL_B = 1000, 1000


def _default_threads() -> int:
    """SOFREG_THREADS, else the cores this process may run on."""
    env = os.environ.get(THREADS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"{THREADS_ENV} must be an integer, got {env!r}") from None
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return os.cpu_count() or 1


def _load_sample(curves_path: str, responses_path: str) -> MarSample:
    x = read_curves_csv(curves_path)
    y, r = read_responses_csv(responses_path)
    if y.size != x.n:
        raise ConfigError(
            f"row count mismatch: {x.n} curves but {y.size} responses"
        )
    if not r.any():
        raise ConfigError("all responses are missing")
    return MarSample(x, y, r)


def _args_config(args) -> dict:
    """JSON-safe echo of the parsed arguments."""
    skip = {"func"}
    out = {}
    for key, value in vars(args).items():
        if key in skip:
            continue
        if isinstance(value, (list, tuple)):
            out[key] = [v if isinstance(v, (int, float, str, bool)) else str(v) for v in value]
        elif value is None or isinstance(value, (int, float, str, bool)):
            out[key] = value
        else:
            out[key] = str(value)
    return out


def cmd_simulate(args) -> int:
    started = time.time()
    config = DgpConfig(
        beta_id=args.beta_id,
        delta=args.delta,
        eta=args.eta,
        n=args.n,
        grid_points=args.grid_points,
        sigma_eps=args.sigma_eps,
        seed=args.seed,
    )
    sample, full_y, truth = generate_dataset(config)
    out = args.out
    os.makedirs(out, exist_ok=True)
    curves_path = os.path.join(out, "curves.csv")
    responses_path = os.path.join(out, "responses.csv")
    truth_path = os.path.join(out, "truth.json")
    write_curves_csv(curves_path, sample.x)
    write_responses_csv(responses_path, sample.y, sample.r)
    dump_json(truth_path, {
        "beta_id": truth["beta_id"],
        "beta": [float(v) for v in truth["beta"]],
        "delta": truth["delta"],
        "eta": truth["eta"],
        "sigma_eps": truth["sigma_eps"],
        "seed": args.seed,
    })
    outputs = [curves_path, responses_path, truth_path]
    manifest = build_manifest(
        "simulate", _args_config(args) | {"version": __version__}, args.seed,
        {}, outputs, time.time() - started,
    )
    dump_json(os.path.join(out, "manifest.json"), manifest)
    print(f"wrote {len(outputs)} files to {out}")
    return EXIT_OK


def _at_one_blas_thread(command):
    """Run `command` at one BLAS thread, restoring the caller's count after it.

    Threaded BLAS may sum in another order, so without this a report's
    trailing digits would depend on the core count.
    """
    @functools.wraps(command)
    def run(args) -> int:
        with single_blas_thread():
            return command(args)
    return run


@_at_one_blas_thread
def cmd_fit(args) -> int:
    started = time.time()
    sample = _load_sample(args.curves, args.responses)
    basis = fpc_decompose(sample.x, args.kmax_var_cutoff)
    slope = fit_slope(sample, basis, args.method, seed=args.seed)
    out = args.out
    os.makedirs(out, exist_ok=True)
    report_path = os.path.join(out, f"slope_{slope.method_tag}.json")
    dump_json(report_path, slope_report(slope, sample))
    outputs = [report_path]
    if args.plot:
        svg_path = os.path.join(out, f"slope_{slope.method_tag}.svg")
        atomic_write_text(svg_path, curve_plot(
            slope.basis.grid.points,
            {f"beta ({slope.method_tag})": slope.curve},
            f"Estimated slope, method {slope.method_tag}",
        ))
        outputs.append(svg_path)
    manifest = build_manifest(
        "fit", _args_config(args) | {"version": __version__}, args.seed,
        {"curves": args.curves, "responses": args.responses},
        outputs, time.time() - started,
    )
    dump_json(os.path.join(out, "manifest.json"), manifest)
    print(f"fit {slope.method_tag}: indices={list(slope.indices)} -> {report_path}")
    return EXIT_OK


@_at_one_blas_thread
def cmd_test(args) -> int:
    started = time.time()
    sample = _load_sample(args.curves, args.responses)
    basis = fpc_decompose(sample.x, args.kmax_var_cutoff)
    result = wild_bootstrap_test(sample, basis, args.method, b=args.bootstrap, seed=args.seed)
    out = args.out
    os.makedirs(out, exist_ok=True)
    report_path = os.path.join(out, f"gof_{result.method_tag}.json")
    dump_json(report_path, gof_report(result))
    outputs = [report_path]
    if args.plot:
        svg_path = os.path.join(out, f"gof_{result.method_tag}.svg")
        atomic_write_text(svg_path, density_plot(
            result.bootstrap_statistics, result.statistic,
            f"Bootstrap statistics, method {result.method_tag} "
            f"(p = {result.p_value:.3f})",
        ))
        outputs.append(svg_path)
    manifest = build_manifest(
        "test", _args_config(args) | {"version": __version__}, args.seed,
        {"curves": args.curves, "responses": args.responses},
        outputs, time.time() - started,
    )
    dump_json(os.path.join(out, "manifest.json"), manifest)
    print(
        f"test {result.method_tag}: statistic={result.statistic:.6g} "
        f"p={result.p_value:.4f} (B={result.b}) -> {report_path}"
    )
    return EXIT_OK


def _parse_mc_config_file(path: str) -> dict:
    """Key = value lines; comma-separated lists; '#' comments."""
    result: dict = {}
    list_keys = {"beta_id", "eta", "n", "delta", "estimators"}
    int_keys = {"m", "bootstrap", "seed", "threads", "grid_points"}
    float_keys = {"alpha", "sigma_eps"}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in list_keys:
                tokens = [t.strip() for t in value.split(",") if t.strip()]
                if key == "estimators":
                    result[key] = [t.upper() for t in tokens]
                elif key == "beta_id" or key == "n":
                    result[key] = [int(t) for t in tokens]
                else:
                    result[key] = [None if t.lower() == "none" else float(t) for t in tokens]
            elif key in int_keys:
                result[key] = int(value)
            elif key in float_keys:
                result[key] = float(value)
            else:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    return result


def cmd_mc(args) -> int:
    started = time.time()
    file_config = _parse_mc_config_file(args.config) if args.config else {}

    def pick(name, flag_value, default):
        if flag_value is not None:
            return flag_value
        return file_config.get(name, default)

    beta_ids = pick("beta_id", args.beta_id, [3])
    etas = pick("eta", args.eta, [1.0])
    ns = pick("n", args.n, [100])
    deltas = pick("delta", args.delta, [0.0])
    estimators = pick("estimators", args.estimators, list(METHOD_TAGS))
    m = pick("m", args.m, FULL_M if args.full_scale else SCALED_M)
    b = pick("bootstrap", args.bootstrap, FULL_B if args.full_scale else SCALED_B)
    alpha = pick("alpha", args.alpha, 0.05)
    seed = pick("seed", args.seed, None)
    threads = pick("threads", args.threads, None)
    if threads is None:
        threads = _default_threads()
    grid_points = pick("grid_points", None, 201)
    sigma_eps = pick("sigma_eps", None, 0.1)
    if seed is None:
        raise ConfigError("mc runs must be seeded; pass --seed")

    configs = [
        DgpConfig(beta_id=bid, delta=d, eta=e, n=n,
                  grid_points=grid_points, sigma_eps=sigma_eps)
        for bid in beta_ids for e in etas for n in ns for d in deltas
    ]
    report = mc_experiment(
        configs, m=int(m), b=int(b), alpha=float(alpha),
        estimators=tuple(estimators), seed=int(seed), threads=int(threads),
    )

    out = args.out
    os.makedirs(out, exist_ok=True)
    outputs = []
    tag_order = list(METHOD_TAGS)
    for bid in beta_ids:
        for eta in etas:
            rows = ["n,delta," + ",".join(tag_order)]
            for cell in report.cells:
                if cell.beta_id != bid or cell.eta != eta:
                    continue
                cells_txt = [str(cell.n), repr(float(cell.delta))]
                for tag in tag_order:
                    value = cell.rejection.get(tag)
                    good = value is not None and np.isfinite(value)
                    cells_txt.append(repr(float(value)) if good else "")
                rows.append(",".join(cells_txt))
            eta_txt = "none" if eta is None else f"{eta:g}"
            path = os.path.join(out, f"rejections_beta{bid}_eta{eta_txt}.csv")
            atomic_write_text(path, "\n".join(rows) + "\n")
            outputs.append(path)

    payload = {
        "alpha": report.alpha,
        "m": report.m,
        "bootstrap_count": report.b,
        "seed": report.seed,
        "estimators": list(report.estimators),
        "grid_points": report.grid_points,
        "sigma_eps": report.sigma_eps,
        "cells": [
            {
                "beta_id": c.beta_id,
                "eta": c.eta,
                "n": c.n,
                "delta": c.delta,
                "m": c.m,
                "missing_fraction": c.missing_fraction,
                "failures": c.failures,
                "rejection": {t: (None if not np.isfinite(v) else v)
                              for t, v in c.rejection.items()},
                "msee_mean": {t: (None if not np.isfinite(v) else v)
                              for t, v in c.msee_mean.items()},
                "p_values": {t: [None if not np.isfinite(v) else v for v in arr]
                             for t, arr in c.p_values.items()},
                "msee": {t: [None if not np.isfinite(v) else v for v in arr]
                         for t, arr in c.msee.items()},
            }
            for c in report.cells
        ],
    }
    report_path = os.path.join(out, "report.json")
    dump_json(report_path, payload)
    outputs.append(report_path)

    if args.plots:
        for cell in report.cells:
            eta_txt = "none" if cell.eta is None else f"{cell.eta:g}"
            stem = f"beta{cell.beta_id}_eta{eta_txt}_n{cell.n}_delta{cell.delta:g}"
            for quantity, data in (("msee", cell.msee), ("time", cell.times)):
                path = os.path.join(out, f"boxplot_{quantity}_{stem}.svg")
                atomic_write_text(path, grouped_boxplot(
                    data, f"log {quantity.upper()} by estimator, {stem}",
                ))
                outputs.append(path)

    failures = sum(sum(c.failures.values()) for c in report.cells)
    timing = [
        {
            "beta_id": c.beta_id, "eta": c.eta, "n": c.n, "delta": c.delta,
            "time_mean": {t: (None if not np.isfinite(v) else v)
                          for t, v in c.time_mean.items()},
        }
        for c in report.cells
    ]
    manifest = build_manifest(
        "mc",
        {
            "beta_id": list(beta_ids), "eta": list(etas), "n": list(ns),
            "delta": list(deltas), "m": int(m), "bootstrap": int(b),
            "alpha": float(alpha), "estimators": list(estimators),
            "threads": int(threads), "grid_points": grid_points,
            "sigma_eps": sigma_eps, "version": __version__,
        },
        int(seed),
        {"config": args.config} if args.config else {},
        outputs,
        time.time() - started,
    )
    manifest["timing"] = timing
    dump_json(os.path.join(out, "manifest.json"), manifest)
    if report.reruns:
        print(f"warning: a worker died; {report.reruns} replicates were rerun serially",
              file=sys.stderr)
    if failures:
        print(f"warning: {failures} replicate failures recorded", file=sys.stderr)
    print(f"mc finished: {len(report.cells)} cells, M={m}, B={b} -> {report_path}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared for the process.

    Building it takes longer than most operations it parses, and a library
    or test caller may run main() many times in one process. It is built on
    demand, not at import, so importing the module stays cheap.
    """
    parser = argparse.ArgumentParser(
        prog="sofreg",
        description="Scalar-on-function regression with MAR responses and a "
                    "projected Cramer-von Mises linearity test.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="draw a synthetic dataset")
    sim.add_argument("--beta-id", type=int, default=3, choices=(1, 2, 3))
    sim.add_argument("--n", type=int, default=100)
    sim.add_argument("--delta", type=float, default=0.0)
    sim.add_argument("--eta", type=float, default=None)
    sim.add_argument("--sigma-eps", type=float, default=0.1)
    sim.add_argument("--grid-points", type=int, default=201)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    fit = sub.add_parser("fit", help="fit one slope estimator")
    fit.add_argument("--curves", required=True)
    fit.add_argument("--responses", required=True)
    fit.add_argument("--method", required=True, choices=METHOD_TAGS)
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--kmax-var-cutoff", type=float, default=0.005)
    fit.add_argument("--plot", action="store_true")
    fit.add_argument("--out", required=True)
    fit.set_defaults(func=cmd_fit)

    test = sub.add_parser("test", help="run the linearity test")
    test.add_argument("--curves", required=True)
    test.add_argument("--responses", required=True)
    test.add_argument("--method", required=True, choices=METHOD_TAGS)
    test.add_argument("--bootstrap", type=int, default=1000, metavar="B")
    test.add_argument("--seed", type=int, default=0)
    test.add_argument("--kmax-var-cutoff", type=float, default=0.005)
    test.add_argument("--plot", action="store_true")
    test.add_argument("--out", required=True)
    test.set_defaults(func=cmd_test)

    mc = sub.add_parser("mc", help="Monte Carlo study over a configuration grid")
    mc.add_argument("--config", help="key = value file; flags override it")
    mc.add_argument("--beta-id", type=int, nargs="+", choices=(1, 2, 3))
    mc.add_argument("--eta", type=float, nargs="+")
    mc.add_argument("--n", type=int, nargs="+")
    mc.add_argument("--delta", type=float, nargs="+")
    mc.add_argument("--m", type=int)
    mc.add_argument("--bootstrap", type=int, metavar="B")
    mc.add_argument("--alpha", type=float)
    mc.add_argument("--estimators", nargs="+", choices=METHOD_TAGS)
    mc.add_argument("--seed", type=int)
    mc.add_argument("--threads", type=int)
    mc.add_argument("--full-scale", action="store_true",
                    help="M=1000, B=1000 instead of the scaled profile")
    mc.add_argument("--plots", action="store_true")
    mc.add_argument("--out", required=True)
    mc.set_defaults(func=cmd_mc)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CsvFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DegenerateSampleError, NumericalError,
            np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SofregError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
