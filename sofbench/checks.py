"""Output checks computed apart from the program.

Every function here re-derives a quantity from the raw inputs (curve matrix,
responses, observance flags) with numpy and the standard library only, and
raises CheckError when the program's output disagrees. Nothing is imported
from sofreg: the FPC scores, the A matrix, the least-squares fit and the
LASSO optimality conditions are all recomputed here.
"""

from __future__ import annotations

import itertools
import math
import xml.etree.ElementTree as ET

import numpy as np

#: Variance share below which FPCs stop being retained (the program's default).
VAR_CUTOFF = 0.005

#: Relative tolerance under which two score rows count as the same point.
COINCIDENCE_RTOL = 1e-12

SVG_ROOT = "{http://www.w3.org/2000/svg}svg"


class CheckError(AssertionError):
    """A program output disagrees with its independent recomputation."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    step = float(np.mean(np.diff(grid)))
    w = np.full(grid.size, step)
    w[0] = w[-1] = 0.5 * step
    return w


def fpc(curves: np.ndarray, grid: np.ndarray, n_components: int | None = None):
    """Eigen-decomposition of the weighted sample covariance W^1/2 C W^1/2.

    Returns (scores, eigenfunctions, eigenvalues, mean curve) with the
    components in decreasing order. Without `n_components`, components are
    retained while their variance share exceeds VAR_CUTOFF, plus the first
    one at or below it unless it is numerical dust.
    """
    mean = curves.mean(axis=0)
    x = curves - mean
    w = trapezoid_weights(grid)
    sw = np.sqrt(w)
    cov = (x * sw).T @ (x * sw) / x.shape[0]
    evals, evecs = np.linalg.eigh(cov)
    evals, evecs = np.clip(evals[::-1], 0.0, None), evecs[:, ::-1]
    if n_components is None:
        share = evals / evals.sum()
        n_components = max(1, int(np.sum(share > VAR_CUTOFF)))
        if n_components < share.size and evals[n_components] > 1e-12 * evals[0]:
            n_components += 1
    phi = (evecs[:, :n_components] / sw[:, None]).T
    scores = (x * w) @ phi.T
    return scores, phi, evals[:n_components], mean


def a_matrix(block: np.ndarray) -> np.ndarray:
    """A_lm = c * sum_r term(l, m, r) by the literal spherical-angle case table.

    term is 2*pi when the points l, m, r coincide, pi when exactly one of the
    pairs (l, m), (l, r), (m, r) coincides, and |pi - angle at r between
    (l - r) and (m - r)| otherwise; c = pi^(K/2 - 1) / Gamma(K/2).
    """
    block = np.atleast_2d(np.asarray(block, dtype=float))
    n, k = block.shape
    scale = np.max(np.abs(block), axis=1)
    gap = np.max(np.abs(block[:, None, :] - block[None, :, :]), axis=2)
    same = gap <= COINCIDENCE_RTOL * np.maximum(
        np.maximum(scale[:, None], scale[None, :]), np.finfo(float).tiny
    )
    total = np.zeros((n, n))
    for r in range(n):
        u = block - block[r]
        length = np.sqrt(np.einsum("ij,ij->i", u, u))
        with np.errstate(invalid="ignore", divide="ignore"):
            cos = (u @ u.T) / np.outer(length, length)
        angle = np.arccos(np.clip(np.nan_to_num(cos, nan=1.0), -1.0, 1.0))
        pairs = same.astype(int) + same[:, r][:, None] + same[:, r][None, :]
        _require(not np.any(pairs == 2), "score rows coincide non-transitively")
        term = np.where(pairs == 3, 2.0 * np.pi,
                        np.where(pairs == 1, np.pi, np.abs(np.pi - angle)))
        total += term
    return math.pi ** (k / 2.0 - 1.0) / math.gamma(k / 2.0) * total


def check_a_matrix(program_a: np.ndarray, block: np.ndarray, rtol: float = 1e-9) -> None:
    expected = a_matrix(block)
    got = np.asarray(program_a, dtype=float)
    _require(got.shape == expected.shape, f"A has shape {got.shape}, expected {expected.shape}")
    err = float(np.max(np.abs(got - expected)))
    _require(err <= rtol * float(np.max(np.abs(expected))),
             f"A differs from the case-table recomputation by {err:.3g}")


class Sample:
    """Inputs of one fit/test call plus their independent FPC bases."""

    def __init__(self, grid, curves, y, observed):
        self.grid = np.asarray(grid, dtype=float)
        self.curves = np.asarray(curves, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.observed = np.asarray(observed, dtype=bool)
        self.obs = np.flatnonzero(self.observed)
        self._bases = {}

    @property
    def n_obs(self) -> int:
        return self.obs.size

    def scores(self, own: bool) -> np.ndarray:
        """FPC scores of the observed rows in the basis of the observed curves
        (`own`) or of all curves, at the default retention rule."""
        if own not in self._bases:
            curves = self.curves[self.obs] if own else self.curves
            scores = fpc(curves, self.grid)[0]
            self._bases[own] = scores if own else scores[self.obs]
        return self._bases[own]


def check_simplified_fit(sample: Sample, report: dict, rtol: float = 1e-7) -> None:
    """S: least squares with an intercept on the observed pairs, by lstsq."""
    _require(report["method"] == "S", "not an S report")
    k = len(report["indices"])
    _require(report["indices"] == list(range(1, k + 1)), "S indices are not 1..K")
    scores, phi, _, mean = fpc(sample.curves[sample.obs], sample.grid, k)
    y_obs = sample.y[sample.obs]
    design = np.column_stack([np.ones(sample.n_obs), scores])
    sol = np.linalg.lstsq(design, y_obs - y_obs.mean(), rcond=None)[0]
    coef = sol[1:]
    curve = coef @ phi
    intercept = y_obs.mean() + sol[0]
    all_scores = ((sample.curves - mean) * trapezoid_weights(sample.grid)) @ phi.T
    predictions = intercept + all_scores @ coef

    def close(name, got, want):
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        err = float(np.max(np.abs(got - want)))
        bound = rtol * max(1.0, float(np.max(np.abs(want))))
        _require(got.shape == want.shape and err <= bound,
                 f"S {name} differs from lstsq by {err:.3g}")

    # eigenfunction signs are arbitrary, so coefficients compare in magnitude
    close("|coefficients|", np.abs(report["coefficients"]), np.abs(coef))
    close("curve", report["curve"], curve)
    close("intercept", [report["intercept"]], [intercept])
    close("predictions", report["predictions"], predictions)


def _lasso_kkt_holds(x, y, support, lam, tol) -> bool:
    """Is there a LASSO solution of sum (y - x b)^2 + lam |b|_1 with this support?

    Every sign pattern on the support is tried: b_S solves the stationarity
    equations 2 x_S'(x_S b_S - y) + lam s = 0, its signs must equal s, and
    the gradient 2 x_j'(x b - y) off the support must stay within lam.
    """
    scale = max(lam, float(np.max(np.abs(2.0 * x.T @ y))), 1e-300)
    if not support:
        return bool(np.max(np.abs(2.0 * x.T @ y)) <= lam + tol * scale)
    xs = x[:, support]
    gram, cty = xs.T @ xs, xs.T @ y
    off = [j for j in range(x.shape[1]) if j not in support]
    for signs in itertools.product((-1.0, 1.0), repeat=len(support)):
        s = np.asarray(signs)
        b = np.linalg.solve(gram, cty - 0.5 * lam * s)
        if np.any(b * s <= 0.0):
            continue
        grad = 2.0 * x.T @ (xs @ b - y)
        if np.max(np.abs(grad[support] + lam * s)) > tol * scale:
            continue
        if off and np.max(np.abs(grad[off])) > lam + tol * scale:
            continue
        return True
    return False


def check_lasso_support(sample: Sample, report: dict, tol: float = 1e-6) -> None:
    """SL: the reported support satisfies the LASSO KKT conditions at lambda."""
    _require(report["method"] == "SL", "not an SL report")
    scores, _, _, _ = fpc(sample.curves[sample.obs], sample.grid)
    k_eff = min(scores.shape[1], sample.n_obs - 1)
    x = scores[:, :k_eff] - scores[:, :k_eff].mean(axis=0)
    y_obs = sample.y[sample.obs]
    y = y_obs - y_obs.mean()
    lam = float(report["lasso_lambda"])
    support = [i - 1 for i in report["indices"]]
    _require(all(0 <= j < k_eff for j in support), "support outside the candidate columns")
    ok = _lasso_kkt_holds(x, y, support, lam, tol)
    if not ok and support == [0]:  # the program falls back to {1} for an empty support
        ok = _lasso_kkt_holds(x, y, [], lam, tol)
    _require(ok, f"support {report['indices']} violates the KKT conditions at lambda={lam:.6g}")


def check_statistic(sample: Sample, fit_report: dict, gof_report: dict,
                    rtol: float = 1e-6) -> None:
    """PCvM statistic = eps' A eps / n_obs^2 from the fit's predictions."""
    tag = fit_report["method"]
    _require(gof_report["method"] == tag, "fit and test reports name different methods")
    _require(gof_report["indices"] == fit_report["indices"],
             "the test selected other FPC indices than the fit")
    rows = sample.scores(own=tag in ("S", "SL"))
    cols = np.asarray(fit_report["indices"]) - 1
    eps = sample.y[sample.obs] - np.asarray(fit_report["predictions"])[sample.obs]
    stat = max(float(eps @ a_matrix(rows[:, cols]) @ eps) / sample.n_obs**2, 0.0)
    got = float(gof_report["statistic"])
    _require(abs(got - stat) <= rtol * max(abs(stat), 1e-300),
             f"{tag} statistic {got!r} differs from the recomputed {stat!r}")


def check_p_value(gof_report: dict) -> None:
    """p-value = #(observed <= bootstrap replicate) / B, on the 1/B lattice."""
    boot = np.asarray(gof_report["bootstrap_statistics"], dtype=float)
    b = int(gof_report["bootstrap_count"])
    _require(boot.size == b, f"{boot.size} bootstrap statistics, B={b}")
    _require(bool(np.all(np.isfinite(boot))), "non-finite bootstrap statistic")
    count = sum(1 for v in boot.tolist() if gof_report["statistic"] <= v)
    check_lattice(gof_report["p_value"], b)
    _require(gof_report["p_value"] == count / b,
             f"p-value {gof_report['p_value']!r} but the recount gives {count}/{b}")


def check_lattice(p, b: int) -> None:
    _require(p is not None and 0.0 <= p <= 1.0, f"p-value {p!r} outside [0, 1]")
    _require(abs(p * b - round(p * b)) <= 1e-9 * b, f"p-value {p!r} is off the 1/{b} lattice")


def check_mc_report(report: dict, m: int, b: int, tags: list[str]) -> int:
    """Lattice p-values and recounted rejection rates; returns failed replicates."""
    _require(report["m"] == m and report["bootstrap_count"] == b, "report M or B differs")
    _require(report["estimators"] == tags, "report estimators differ")
    failed = 0
    for cell in report["cells"]:
        failed += max(cell["failures"].values())
        for tag in tags:
            p = cell["p_values"][tag]
            _require(len(p) == m, f"{tag}: {len(p)} p-values for M={m}")
            good = [v for v in p if v is not None]
            for v in good:
                check_lattice(v, b)
            if good:
                rate = sum(1 for v in good if v <= report["alpha"]) / len(good)
                _require(abs(cell["rejection"][tag] - rate) <= 1e-12,
                         f"{tag}: rejection {cell['rejection'][tag]!r}, recount {rate!r}")
    return failed


def check_svg(path) -> None:
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        raise CheckError(f"{path}: not well-formed XML ({exc})") from None
    _require(root.tag == SVG_ROOT, f"{path}: root element is {root.tag!r}")
