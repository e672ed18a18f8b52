"""File formats: input CSVs, every command's reports, and run manifests.

Curve matrix CSV: first row holds the grid abscissae, each following row one
curve; UTF-8, '.' decimal, ',' separator. Response CSV: header ``y,observed``
with the response empty or ``NA`` when observed is 0. Reports (`truth_report`,
`slope_report`, `gof_report`, `mc_report`) are JSON with sorted keys and NaN
as null, so equal seeds yield byte-identical files; wall time lives in the
manifest (`write_manifest`) only, never in a report. Every file is written
by `atomic_write_text`, which creates its directory.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile

import numpy as np

from . import __version__ as _version
from .estimators import METHOD_TAGS, FunctionalSlope, MarSample
from .exceptions import CsvFormatError
from .functional import FunctionalSample, Grid
from .gof import GofResult
from .simulation import DgpConfig, McReport


#: ASCII separator characters that numpy's float parser strips as whitespace
#: but float() rejects; a curves file holding one goes to the line parser.
_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _parse_float(token: str, line: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise CsvFormatError(f"malformed decimal value {token!r}", line=line) from None


def _numbered_lines(raw: bytes) -> list[tuple[int, str]]:
    """(1-based file line, text) of every line of the file bytes `raw` that is
    not blank, split at the line ends a text-mode read splits at. A byte
    that is not UTF-8 is a format error on its line."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n").count(b"\n") + 1
        raise CsvFormatError(f"not UTF-8 text ({exc.reason})", line=line) from None
    return [(i, ln.rstrip("\n")) for i, ln in enumerate(io.StringIO(text, newline=None), start=1)
            if ln.strip() != ""]


def read_curves_csv(path: str) -> FunctionalSample:
    """Parse a curve matrix file; errors carry 1-based file line numbers.

    numpy's C reader parses the usual file. It gives float()'s bits but
    rejects some tokens float() accepts ('1_0', non-ASCII digits) and
    whitespace-only lines, so any file it refuses (one that is not UTF-8
    among them), or reads as fewer than two rows, goes through the line
    parser, which accepts and rejects exactly as float() does and names the
    offending line.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    # a blank file would make np.loadtxt warn that it holds no data
    if raw.strip() and not any(sep in raw for sep in _SEPARATORS):
        try:
            table = np.loadtxt(io.BytesIO(raw), delimiter=",", comments=None, ndmin=2,
                               encoding="utf-8")
        except ValueError:
            pass
        else:
            if table.shape[0] >= 2:
                return FunctionalSample(Grid(table[0]), table[1:])
    return _read_curves_by_line(raw)


def _read_curves_by_line(raw: bytes) -> FunctionalSample:
    lines = _numbered_lines(raw)
    if len(lines) < 2:
        raise CsvFormatError("need a grid row plus at least one curve row", line=1)
    grid_line, grid_text = lines[0]
    grid = Grid(np.array([_parse_float(t, grid_line) for t in grid_text.split(",")]))
    rows = []
    for i, ln in lines[1:]:
        tokens = ln.split(",")
        if len(tokens) != grid.n_points:
            raise CsvFormatError(
                f"expected {grid.n_points} values, found {len(tokens)}", line=i
            )
        rows.append([_parse_float(t, i) for t in tokens])
    return FunctionalSample(grid, np.asarray(rows))


def write_curves_csv(path: str, sample: FunctionalSample) -> None:
    lines = [",".join(repr(float(v)) for v in sample.grid.points)]
    for row in sample.values:
        lines.append(",".join(repr(float(v)) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_responses_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse a ``y,observed`` file into (responses-with-NaN, indicator)."""
    with open(path, "rb") as fh:
        lines = _numbered_lines(fh.read())
    if not lines:
        raise CsvFormatError("empty responses file", line=1)
    header_line, header_text = lines[0]
    header = [t.strip().lower() for t in header_text.split(",")]
    if header != ["y", "observed"]:
        raise CsvFormatError("header must be 'y,observed'", line=header_line)
    ys, rs = [], []
    for i, ln in lines[1:]:
        tokens = [t.strip() for t in ln.split(",")]
        if len(tokens) != 2:
            raise CsvFormatError("expected two columns", line=i)
        y_tok, r_tok = tokens
        if r_tok not in ("0", "1"):
            raise CsvFormatError(f"observed flag must be 0 or 1, found {r_tok!r}", line=i)
        observed = r_tok == "1"
        if not observed and y_tok not in ("", "NA"):
            raise CsvFormatError(f"unobserved response must be empty or NA, found {y_tok!r}",
                                 line=i)
        ys.append(_parse_float(y_tok, i) if observed else float("nan"))
        rs.append(observed)
    return np.asarray(ys), np.asarray(rs, dtype=bool)


def write_responses_csv(path: str, y: np.ndarray, r: np.ndarray) -> None:
    lines = ["y,observed"]
    for value, observed in zip(y, r):
        lines.append(f"{repr(float(value))},1" if observed else "NA,0")
    atomic_write_text(path, "\n".join(lines) + "\n")


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dump_json(path: str, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _null_if_nan(value):
    """`value` with each non-finite number in it (dicts, arrays) as None."""
    if isinstance(value, dict):
        return {k: _null_if_nan(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return [_null_if_nan(v) for v in value]
    return value if np.isfinite(value) else None


def truth_report(config: DgpConfig, beta: np.ndarray, seed: int) -> dict:
    """The true slope `beta` and the settings of `config` a simulated dataset
    was drawn with at `seed`."""
    return {"beta_id": config.beta_id, "beta": [float(v) for v in beta], "delta": config.delta,
            "eta": config.eta, "sigma_eps": config.sigma_eps, "seed": seed}


def _cutoffs(slope: FunctionalSlope) -> dict:
    """The selection of a fit as its report names it: the LASSO supports of
    both stages, or the CV cutoffs K_S (first stage) and K_I or K_W (second)."""
    first = slope.first_stage
    if slope.method_tag.endswith("L"):
        supports = {"indices": list(slope.indices)}
        if first is not None:
            supports["first_stage"] = list(first.indices)
        return supports
    if first is None:
        return {"K_S": len(slope.indices)}
    return {"K_S": len(first.indices), f"K_{slope.method_tag}": len(slope.indices)}


def slope_report(slope: FunctionalSlope, sample: MarSample) -> dict:
    """Deterministic JSON payload describing a fitted slope."""
    report = {
        "method": slope.method_tag,
        "indices": list(slope.indices),
        "coefficients": [float(c) for c in slope.coefficients],
        "intercept": slope.intercept,
        "cutoffs": _cutoffs(slope),
        "n": sample.n,
        "n_observed": sample.n_obs,
        "curve": [float(v) for v in slope.curve],
        "grid": [float(v) for v in slope.basis.grid.points],
        "predictions": [float(v) for v in slope.predict_sample(sample.x)],
    }
    if slope.cv_errors is not None:
        report["cv_errors"] = [float(v) for v in slope.cv_errors]
    if slope.lasso_lambda is not None:
        report["lasso_lambda"] = slope.lasso_lambda
    return report


def gof_report(result: GofResult) -> dict:
    """Deterministic JSON payload for a test run (timing goes to the manifest)."""
    return {
        "method": result.slope.method_tag,
        "statistic": float(result.statistic),
        "p_value": float(result.p_value),
        "bootstrap_count": int(result.b),
        "indices": list(result.slope.indices),
        "seed": int(result.seed),
        "n_observed": int(result.n_obs),
        "bootstrap_statistics": [float(v) for v in result.bootstrap_statistics],
    }


def _value_text(value: float | None) -> str:
    """`value` as file names print it: "none" for None, else its ``:g`` form
    when that reads back as `value` and its ``repr`` when it does not, so
    distinct values never share a name."""
    if value is None:
        return "none"
    text = f"{value:g}"
    return text if float(text) == value else repr(float(value))


def cell_stem(config: DgpConfig) -> str:
    """File-name stem of one mc cell, e.g. ``beta3_eta1_n100_delta0``."""
    return (f"beta{config.beta_id}_eta{_value_text(config.eta)}_n{config.n}"
            f"_delta{_value_text(config.delta)}")


def _table_name(beta_id: int, eta: float | None) -> str:
    return f"rejections_beta{beta_id}_eta{_value_text(eta)}.csv"


def rejection_tables(report: McReport) -> list[tuple[str, str]]:
    """(name, text) of each ``rejections_beta<j>_eta<v>.csv``, one per (beta_id, eta)
    of the cells in their order: a row per (n, delta) cell, a column per tag,
    empty where the rate is NaN or the tag was not run."""
    tables: dict[tuple, list[str]] = {}
    for cell in report.cells:
        config = cell.config
        rows = tables.setdefault((config.beta_id, config.eta),
                                 ["n,delta," + ",".join(METHOD_TAGS)])
        rates = [_null_if_nan(cell.rejection.get(tag, np.nan)) for tag in METHOD_TAGS]
        rows.append(",".join([str(config.n), repr(float(config.delta))]
                             + ["" if v is None else repr(float(v)) for v in rates]))
    return [(_table_name(bid, eta), "\n".join(rows) + "\n") for (bid, eta), rows in tables.items()]


def _cell_values(config: DgpConfig) -> dict:
    """The four values that name an mc cell in the report and the manifest."""
    return {"beta_id": config.beta_id, "eta": config.eta, "n": config.n, "delta": config.delta}


def mc_report(report: McReport) -> dict:
    """Deterministic JSON payload of an mc run (timing goes to the manifest)."""
    config = report.cells[0].config  # the cells share grid_points and sigma_eps
    return {
        "alpha": report.alpha,
        "m": report.m,
        "bootstrap_count": report.b,
        "seed": report.seed,
        "estimators": list(report.estimators),
        "grid_points": config.grid_points,
        "sigma_eps": config.sigma_eps,
        "cells": [
            _cell_values(c.config) | {
                "m": report.m,
                "missing_fraction": _null_if_nan(c.missing_fraction),
                "failures": c.failures,
                "rejection": _null_if_nan(c.rejection),
                "msee_mean": _null_if_nan(c.msee_mean),
                "p_values": _null_if_nan(c.p_values),
                "msee": _null_if_nan(c.msee),
            }
            for c in report.cells
        ],
    }


def mc_timing(report: McReport) -> list[dict]:
    """Mean fit seconds per cell and tag, for the mc manifest."""
    return [_cell_values(c.config) | {"time_mean": _null_if_nan(c.time_mean)}
            for c in report.cells]


def write_manifest(out: str, command: str, config: dict, seed: int | None,
                   inputs: dict[str, str], outputs: list[str], wall_time_s: float,
                   **extra) -> None:
    """Write `out`/manifest.json: the command, its resolved configuration and
    seed, the library version, the SHA-256 of each input, the names of its
    outputs, its wall time and any `extra` entries (the mc timing)."""
    dump_json(os.path.join(out, "manifest.json"), {
        "command": command,
        "config": config | {"version": _version},
        "seed": seed,
        "version": _version,
        "inputs": {name: file_digest(p) for name, p in inputs.items()},
        "outputs": sorted(os.path.basename(p) for p in outputs),
        "wall_time_s": wall_time_s,
    } | extra)
