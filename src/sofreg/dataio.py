"""File formats and run manifests.

Curve matrix CSV: first row holds the grid abscissae, each following row one
curve; UTF-8, '.' decimal, ',' separator. Response CSV: header ``y,observed``
with the response empty or ``NA`` when observed is 0. Reports are JSON with
sorted keys so equal seeds yield byte-identical files; wall time lives in the
manifest only, never in a report.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile

import numpy as np

from . import __version__ as _version
from .estimators import FunctionalSlope, MarSample
from .exceptions import CsvFormatError
from .functional import FunctionalSample, Grid
from .gof import GofResult


#: ASCII separator characters that numpy's float parser strips as whitespace
#: but float() rejects; a curves file holding one goes to the line parser.
_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _parse_float(token: str, line: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise CsvFormatError(f"malformed decimal value {token!r}", line=line) from None


def _numbered_lines(path: str) -> list[tuple[int, str]]:
    """(1-based file line, text) of every line that is not blank."""
    with open(path, encoding="utf-8") as fh:
        return [(i, ln.rstrip("\n")) for i, ln in enumerate(fh, start=1) if ln.strip() != ""]


def read_curves_csv(path: str) -> FunctionalSample:
    """Parse a curve matrix file; errors carry 1-based file line numbers.

    numpy's C reader parses the usual file. It gives float()'s bits but
    rejects some tokens float() accepts ('1_0', non-ASCII digits) and
    whitespace-only lines, so any file it refuses, or reads as fewer than
    two rows, goes through the line parser, which accepts and rejects
    exactly as float() does and names the offending line.
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
    return _read_curves_by_line(path)


def _read_curves_by_line(path: str) -> FunctionalSample:
    lines = _numbered_lines(path)
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
    lines = _numbered_lines(path)
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
        if observed:
            y_val = _parse_float(y_tok, i)
        else:
            if y_tok not in ("", "NA"):
                raise CsvFormatError(
                    f"unobserved response must be empty or NA, found {y_tok!r}", line=i
                )
            y_val = float("nan")
        ys.append(y_val)
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


def slope_report(slope: FunctionalSlope, sample: MarSample) -> dict:
    """Deterministic JSON payload describing a fitted slope."""
    report = {
        "method": slope.method_tag,
        "indices": list(slope.indices),
        "coefficients": [float(c) for c in slope.coefficients],
        "intercept": slope.intercept,
        "cutoffs": {
            k: (list(v) if isinstance(v, tuple) else v) for k, v in slope.cutoffs.items()
        },
        "n": sample.n,
        "n_observed": sample.n_obs,
        "curve": [float(v) for v in slope.curve],
        "grid": [float(v) for v in slope.basis.grid.points],
        "predictions": [float(v) for v in slope.predict_sample(sample.x)],
    }
    if "cv_errors" in slope.diagnostics:
        report["cv_errors"] = [float(v) for v in slope.diagnostics["cv_errors"]]
    if "lambda" in slope.diagnostics:
        report["lasso_lambda"] = float(slope.diagnostics["lambda"])
    return report


def gof_report(result: GofResult) -> dict:
    """Deterministic JSON payload for a test run (timing goes to the manifest)."""
    return {
        "method": result.method_tag,
        "statistic": float(result.statistic),
        "p_value": float(result.p_value),
        "bootstrap_count": int(result.b),
        "indices": list(result.indices),
        "seed": int(result.seed),
        "n_observed": int(result.n_obs),
        "bootstrap_statistics": [float(v) for v in result.bootstrap_statistics],
    }


def build_manifest(
    command: str,
    config: dict,
    seed: int | None,
    inputs: dict[str, str],
    outputs: list[str],
    wall_time_s: float,
) -> dict:
    return {
        "command": command,
        "config": config,
        "seed": seed,
        "version": _version,
        "inputs": {name: file_digest(p) for name, p in inputs.items()},
        "outputs": sorted(os.path.basename(p) for p in outputs),
        "wall_time_s": wall_time_s,
    }
