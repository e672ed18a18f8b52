"""Command-line front end: simulate, fit, test, and mc subcommands.

Every command runs at one BLAS thread (threaded BLAS may sum in another
order), so no output depends on the core count. `fit` and `test` share one
body and differ only in the step that makes their report. The `mc` settings
live in one table, `MC_SETTINGS`, from which come the flags, the config-file
keys, the flag-over-file resolution and the manifest's `config`. The
library checks every value once, so a flag and a file line that give the
same value fail alike (exit code 3), as does a file that cannot be read or
written. Report and manifest formats live in `dataio`; this module only
orchestrates.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
import time
from collections.abc import Callable

import numpy as np

from . import __version__
from .blas import single_blas_thread
from .dataio import (
    _numbered_lines,
    atomic_write_text,
    cell_stem,
    dump_json,
    gof_report,
    mc_report,
    mc_timing,
    read_curves_csv,
    read_responses_csv,
    rejection_tables,
    slope_report,
    truth_report,
    write_curves_csv,
    write_manifest,
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
from .functional import DEFAULT_VAR_CUTOFF, fpc_decompose
from .gof import wild_bootstrap_test
from .simulation import DgpConfig, generate_dataset, mc_experiment
from .svgplot import curve_plot, density_plot, grouped_boxplot

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONFIG = 3
EXIT_NUMERICAL = 4

_DGP_DEFAULTS = {f.name: f.default for f in dataclasses.fields(DgpConfig)}


def _default_threads() -> int:
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return os.cpu_count() or 1


def _float_or_none(token: str) -> float | None:
    return None if token.lower() == "none" else float(token)


@dataclasses.dataclass(frozen=True)
class McSetting:
    """One `mc` setting: its `--flag` and its config-file key are `name`.

    `default` is the value taken when neither a flag nor a file line gives
    one, or a function of no arguments that returns it (`threads` uses
    `_default_threads`, the cores this process may run on).
    """

    name: str
    convert: Callable[[str], object]  # a ValueError rejects the token
    many: bool  # a list of values (nargs="+", comma-separated in the file)
    default: object

    def resolve(self, args, from_file: dict):
        value = getattr(args, self.name)
        if value is None:
            value = from_file.get(self.name, self.default)
            if callable(value):
                value = value()
        return value


#: The twelve `mc` settings, in the order they are resolved.
MC_SETTINGS = (
    McSetting("beta_id", int, True, (3,)),
    McSetting("eta", _float_or_none, True, (1.0,)),
    McSetting("n", int, True, (100,)),
    McSetting("delta", float, True, (0.0,)),
    McSetting("estimators", str.upper, True, METHOD_TAGS),
    McSetting("m", int, False, 200),
    McSetting("bootstrap", int, False, 500),
    McSetting("alpha", float, False, 0.05),
    McSetting("seed", int, False, None),
    McSetting("threads", int, False, _default_threads),
    McSetting("grid_points", int, False, _DGP_DEFAULTS["grid_points"]),
    McSetting("sigma_eps", float, False, _DGP_DEFAULTS["sigma_eps"]),
)


def _read_mc_config(path: str) -> dict:
    """Key = value lines; comma-separated lists; '#' comments."""
    settings = {s.name: s for s in MC_SETTINGS}
    result: dict = {}
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        lines = _numbered_lines(raw)
    except CsvFormatError as exc:
        raise ConfigError(f"{path}:{exc.line}: {exc.message}") from None
    for lineno, text in lines:
        line = text.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        setting = settings.get(key)
        if setting is None:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        tokens = [t.strip() for t in value.split(",") if t.strip()] if setting.many else [value]
        if not tokens:
            raise ConfigError(f"{path}:{lineno}: {key} needs at least one value")
        try:
            values = [setting.convert(t) for t in tokens]
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: invalid {key} value {value!r}") from None
        result[key] = values if setting.many else values[0]
    return result


def _args_config(args) -> dict:
    """Echo of the parsed arguments (each a number, string, bool or None)."""
    return {key: value for key, value in vars(args).items() if key != "func"}


def cmd_simulate(args) -> int:
    started = time.time()
    config = DgpConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(DgpConfig)})
    sample, _, beta = generate_dataset(config, args.seed)
    outputs = [os.path.join(args.out, name)
               for name in ("curves.csv", "responses.csv", "truth.json")]
    write_curves_csv(outputs[0], sample.x)
    write_responses_csv(outputs[1], sample.y, sample.r)
    dump_json(outputs[2], truth_report(config, beta, args.seed))
    write_manifest(args.out, args.command, _args_config(args), args.seed, {}, outputs,
                   time.time() - started)
    print(f"wrote {len(outputs)} files to {args.out}")
    return EXIT_OK


def _fit_step(args, sample, basis):
    slope = fit_slope(sample, basis, args.method, seed=args.seed)
    tag = slope.method_tag
    svg = curve_plot(
        slope.basis.grid.points, {f"beta ({tag})": slope.curve},
        f"Estimated slope, method {tag}",
    ) if args.plot else None
    summary = f"fit {tag}: indices={list(slope.indices)}"
    return f"slope_{tag}", slope_report(slope, sample), svg, summary


def _test_step(args, sample, basis):
    result = wild_bootstrap_test(sample, basis, args.method, b=args.bootstrap, seed=args.seed)
    tag = result.slope.method_tag
    svg = density_plot(
        result.bootstrap_statistics, result.statistic,
        f"Bootstrap statistics, method {tag} (p = {result.p_value:.3f})",
    ) if args.plot else None
    summary = f"test {tag}: statistic={result.statistic:.6g} p={result.p_value:.4f} (B={result.b})"
    return f"gof_{tag}", gof_report(result), svg, summary


def cmd_on_sample(step, args) -> int:
    """fit or test: load the sample, run `step`, write its report, plot and manifest.

    `step(args, sample, basis)` returns (file stem, report payload, SVG text
    or None, summary line).
    """
    started = time.time()
    sample = MarSample(read_curves_csv(args.curves), *read_responses_csv(args.responses))
    basis = fpc_decompose(sample.x, args.kmax_var_cutoff)
    stem, payload, svg, summary = step(args, sample, basis)
    report_path = os.path.join(args.out, f"{stem}.json")
    dump_json(report_path, payload)
    outputs = [report_path]
    if svg is not None:
        outputs.append(os.path.join(args.out, f"{stem}.svg"))
        atomic_write_text(outputs[-1], svg)
    write_manifest(args.out, args.command, _args_config(args), args.seed,
                   {"curves": args.curves, "responses": args.responses}, outputs,
                   time.time() - started)
    print(f"{summary} -> {report_path}")
    return EXIT_OK


def cmd_mc(args) -> int:
    started = time.time()
    from_file = _read_mc_config(args.config) if args.config else {}
    settings = {s.name: s.resolve(args, from_file) for s in MC_SETTINGS}
    seed = settings.pop("seed")

    configs = [
        DgpConfig(beta_id=bid, delta=d, eta=e, n=n,
                  grid_points=settings["grid_points"], sigma_eps=settings["sigma_eps"])
        for bid in settings["beta_id"] for e in settings["eta"]
        for n in settings["n"] for d in settings["delta"]
    ]
    # atomic_write_text makes --out too, but only after the study, which may
    # run for hours: make it first, so that one that cannot be made fails
    # before the study. Settings that mc_experiment refuses remove every
    # directory made here again, deepest first.
    made = []
    path = os.path.abspath(args.out)
    while not os.path.isdir(path):
        made.append(path)
        path = os.path.dirname(path)
    os.makedirs(args.out, exist_ok=True)
    try:
        report = mc_experiment(
            configs, m=settings["m"], b=settings["bootstrap"], alpha=settings["alpha"],
            estimators=tuple(settings["estimators"]), seed=seed, threads=settings["threads"],
        )
    except SofregError:
        for path in made:
            os.rmdir(path)
        raise

    outputs = []
    for name, text in rejection_tables(report):
        outputs.append(os.path.join(args.out, name))
        atomic_write_text(outputs[-1], text)
    report_path = os.path.join(args.out, "report.json")
    dump_json(report_path, mc_report(report))
    outputs.append(report_path)
    if args.plots:
        for cell in report.cells:
            stem = cell_stem(cell.config)
            for quantity, data in (("msee", cell.msee), ("time", cell.times)):
                outputs.append(os.path.join(args.out, f"boxplot_{quantity}_{stem}.svg"))
                atomic_write_text(outputs[-1], grouped_boxplot(
                    data, f"log {quantity.upper()} by estimator, {stem}",
                ))
    write_manifest(args.out, args.command, settings, seed,
                   {"config": args.config} if args.config else {}, outputs,
                   time.time() - started, timing=mc_timing(report))

    if report.reruns:
        print(f"warning: a worker died; {report.reruns} replicates were rerun serially",
              file=sys.stderr)
    failures = sum(sum(c.failures.values()) for c in report.cells)
    if failures:
        print(f"warning: {failures} replicate failures recorded", file=sys.stderr)
    print(f"mc finished: {len(report.cells)} cells, M={report.m}, B={report.b} "
          f"-> {report_path}")
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
    sim.add_argument("--beta-id", type=int, default=3)
    for name, convert in (("n", int), ("delta", float), ("eta", _float_or_none),
                          ("sigma_eps", float), ("grid_points", int)):
        sim.add_argument("--" + name.replace("_", "-"), type=convert,
                         default=_DGP_DEFAULTS[name])
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    for command, step, help_text in (("fit", _fit_step, "fit one slope estimator"),
                                     ("test", _test_step, "run the linearity test")):
        on_sample = sub.add_parser(command, help=help_text)
        on_sample.add_argument("--curves", required=True)
        on_sample.add_argument("--responses", required=True)
        on_sample.add_argument("--method", type=str.upper, required=True)
        if command == "test":
            on_sample.add_argument("--bootstrap", type=int, default=1000, metavar="B")
        on_sample.add_argument("--seed", type=int, default=0)
        on_sample.add_argument("--kmax-var-cutoff", type=float, default=DEFAULT_VAR_CUTOFF)
        on_sample.add_argument("--plot", action="store_true")
        on_sample.add_argument("--out", required=True)
        on_sample.set_defaults(func=functools.partial(cmd_on_sample, step))

    mc = sub.add_parser("mc", help="Monte Carlo study over a configuration grid")
    mc.add_argument("--config", help="key = value file; flags override it")
    for s in MC_SETTINGS:
        mc.add_argument("--" + s.name.replace("_", "-"), type=s.convert,
                        nargs="+" if s.many else None)
    mc.add_argument("--plots", action="store_true")
    mc.add_argument("--out", required=True)
    mc.set_defaults(func=cmd_mc)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with single_blas_thread():
            return args.func(args)
    except CsvFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DegenerateSampleError, NumericalError,
            np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, SofregError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
