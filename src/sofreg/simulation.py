"""Synthetic data generation and the Monte Carlo harness.

Covariates are zero-mean stationary Ornstein-Uhlenbeck paths on [0, 1] with
covariance 1.5 * exp(-|s - t| / 3), responses follow
y = <X, beta_j> + delta * ||X||^2 + eps, and responses go missing with
observance probability 1 / (1 + exp(-eta * ||X||^2)). This parameterization
reproduces the benchmark calibration targets: determination coefficients
0.8232 / 0.9490 / 0.9709 for the three slopes at delta = 0, expected missing
percentages of roughly 35 / 27 / 20 for eta = 0.5 / 1 / 2, and 4-6 retained
FPCs at the 0.5% variance cutoff.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .blas import set_blas_threads, single_blas_thread
from .estimators import (
    METHOD_TAGS,
    MarSample,
    _first_stage_basis,
    _sample_observance,
    check_tag,
    fit_slope,
)
from .exceptions import NUMERICAL_FAILURES, REFUSALS, ConfigError, GridMismatchError, check_seed
from .functional import FunctionalSample, Grid, fpc_decompose
from .gof import wild_bootstrap_test

_FACTOR_CACHE: dict[bytes, np.ndarray] = {}


def ou_covariance(grid: Grid) -> np.ndarray:
    """Stationary OU covariance 1.5 * exp(-|s - t| / 3) on the grid."""
    t = grid.points
    if t[0] < -1e-12 or t[-1] > 1.0 + 1e-12:
        raise ConfigError("the covariate process is defined on [0, 1]")
    return 1.5 * np.exp(-np.abs(np.subtract.outer(t, t)) / 3.0)


def _ou_factor(grid: Grid) -> np.ndarray:
    """Symmetric square-root factor of the grid covariance, cached per grid.

    An eigendecomposition with a zero clamp is used rather than a triangular
    factorization so that near-singular discretizations stay factorizable.
    It runs at one BLAS thread, as threaded BLAS may give other bits, so the
    cache never holds a factor that depends on the caller's thread count.
    """
    key = grid.points.tobytes()
    factor = _FACTOR_CACHE.get(key)
    if factor is None:
        cov = ou_covariance(grid)
        with single_blas_thread():
            eigvals, eigvecs = np.linalg.eigh(cov)
        eigvals = np.maximum(eigvals, 0.0)
        factor = eigvecs * np.sqrt(eigvals)
        _FACTOR_CACHE[key] = factor
    return factor


def gen_ou_sample(n: int, grid: Grid, seed: int | np.random.Generator = 0) -> FunctionalSample:
    """n independent zero-mean Gaussian paths with the OU covariance.

    The product runs at one BLAS thread, like `_ou_factor`, so the curves do
    not depend on the caller's thread count.
    """
    check_seed(seed)
    rng = np.random.default_rng(seed)
    factor = _ou_factor(grid)
    with single_blas_thread():
        values = rng.standard_normal((n, grid.n_points)) @ factor.T
    return FunctionalSample(grid, values)


def beta_curve(beta_id: int, grid: Grid) -> np.ndarray:
    """One of the three benchmark slopes evaluated on the grid."""
    t = grid.points
    if beta_id == 1:
        return np.sin(2 * np.pi * t) - np.cos(2 * np.pi * t)
    if beta_id == 2:
        return t - (t - 0.75) ** 2
    if beta_id == 3:
        return t + np.cos(2 * np.pi * t)
    raise ConfigError(f"unknown beta_id {beta_id!r}; expected 1, 2, or 3")


def _check_nonnegative(name: str, value: float) -> None:
    """Raise ConfigError unless `value` is finite and nonnegative (NaN fails every comparison)."""
    if not (math.isfinite(value) and value >= 0):
        raise ConfigError(f"{name} must be finite and nonnegative, got {value}")


def gen_responses(
    x: FunctionalSample,
    beta_id: int,
    delta: float = 0.0,
    sigma_eps: float = 0.1,
    seed: int | np.random.Generator = 0,
) -> np.ndarray:
    """Responses y_i = <X_i, beta> + delta * ||X_i||^2 + N(0, sigma_eps^2)."""
    check_seed(seed)
    _check_nonnegative("delta", delta)
    _check_nonnegative("sigma_eps", sigma_eps)
    rng = np.random.default_rng(seed)
    beta = beta_curve(beta_id, x.grid)
    linear = (x.values * x.grid.quad_weights) @ beta
    y = linear + delta * x.sq_norms()
    if sigma_eps > 0:
        y = y + rng.normal(0.0, sigma_eps, x.n)
    return y


def gen_missing(
    x: FunctionalSample, eta: float, seed: int | np.random.Generator = 0
) -> np.ndarray:
    """Observance indicators r_i ~ Bernoulli(1 / (1 + exp(-eta ||X_i||^2)))."""
    check_seed(seed)
    if not (math.isfinite(eta) and eta > 0):
        raise ConfigError(f"eta must be finite and positive, got {eta}")
    rng = np.random.default_rng(seed)
    p = 1.0 / (1.0 + np.exp(-eta * x.sq_norms()))
    return rng.random(x.n) < p


def mse_estimation(beta_true: np.ndarray, slope) -> float:
    """Squared L2 distance between the true slope and the fitted curve."""
    grid = slope.basis.curves.grid
    beta_true = np.asarray(beta_true, dtype=float)
    if beta_true.shape != (grid.n_points,):
        raise GridMismatchError("true slope does not live on the fitted grid")
    diff = beta_true - slope.curve
    return float((diff**2) @ grid.quad_weights)


@dataclass(frozen=True)
class DgpConfig:
    """One data-generating configuration of the benchmark study."""

    beta_id: int
    delta: float = 0.0
    eta: float | None = None
    n: int = 100
    grid_points: int = 201
    sigma_eps: float = 0.1

    def __post_init__(self):
        if self.beta_id not in (1, 2, 3):
            raise ConfigError("beta_id must be 1, 2, or 3")
        _check_nonnegative("delta", self.delta)
        if self.eta is not None and not (math.isfinite(self.eta) and self.eta > 0):
            raise ConfigError(f"eta must be finite and positive when given, got {self.eta}")
        if self.n < 10:
            raise ConfigError("n must be at least 10")
        if self.grid_points < 3:
            raise ConfigError("grid_points must be at least 3")
        # sigma_eps = 0 is allowed so noiseless round-trip checks are possible.
        _check_nonnegative("sigma_eps", self.sigma_eps)

    @property
    def grid(self) -> Grid:
        return Grid.regular(0.0, 1.0, self.grid_points)


def generate_dataset(config: DgpConfig, seed):
    """Draw one dataset; returns (MarSample with masked y, full y, true slope).

    `seed` is anything `np.random.default_rng` takes except None, so every
    dataset is reproducible. The MarSample's unobserved responses are NaN;
    `full_y` keeps the values before masking so complete-data benchmarks and
    oracle checks can use them. The true slope is beta_j of `config` on its
    grid; the other settings it was drawn with are those of `config`. A
    draw that leaves fewer than three responses observed keeps the three
    largest-norm curves observed, the fewest a MarSample takes.
    """
    check_seed(seed)
    rng = np.random.default_rng(seed)
    grid = config.grid
    x = gen_ou_sample(config.n, grid, rng)
    full_y = gen_responses(x, config.beta_id, config.delta, config.sigma_eps, rng)
    if config.eta is None:
        r = np.ones(config.n, dtype=bool)
    else:
        r = gen_missing(x, config.eta, rng)
    if int(r.sum()) < 3:  # pathological draw; keep the three largest-norm curves observed
        r[np.argsort(x.sq_norms())[-3:]] = True
    masked = np.where(r, full_y, np.nan)
    return MarSample(x, masked, r), full_y, beta_curve(config.beta_id, grid)


@dataclass(frozen=True, eq=False)
class CellResult:
    """Aggregates over the replicates of one cell, the configuration `config`."""

    config: DgpConfig
    failures: dict[str, int]
    rejection: dict[str, float]
    msee_mean: dict[str, float]
    time_mean: dict[str, float]
    p_values: dict[str, np.ndarray]
    msee: dict[str, np.ndarray]
    times: dict[str, np.ndarray]
    missing_fraction: float


@dataclass(frozen=True, eq=False)
class McReport:
    """Full harness output across a grid of cells, which share grid_points and sigma_eps."""

    alpha: float
    m: int
    b: int
    seed: int
    estimators: tuple[str, ...]
    cells: list[CellResult]
    #: Replicates run again in this process after a pool worker died.
    reruns: int = 0


# The failures of one replicate or one estimator: counted, never fatal.
_REPLICATE_FAILURES = NUMERICAL_FAILURES + REFUSALS


def _failed_entry(exc: Exception) -> dict:
    """The outcome entry of an estimator that did not finish: NaN throughout."""
    return {"p": np.nan, "msee": np.nan, "fit_s": np.nan, "error": f"{type(exc).__name__}: {exc}"}


def _run_replicate(args):
    """One generate -> fit -> test replicate (top level for pickling).

    Returns the missing fraction (NaN when generation failed) and one entry
    {"p", "msee", "fit_s", "error"} per tag; a failure before the fits gives
    every tag the same failed entry.
    """
    config, b, tags, seed_seq = args
    rng = np.random.default_rng(seed_seq)
    missing_fraction = np.nan
    try:
        sample, full_y, beta = generate_dataset(config, rng)
        missing_fraction = 1.0 - sample.n_obs / sample.n
        tag_seeds = {t: int(rng.integers(2**63 - 1)) for t in METHOD_TAGS}
        basis = fpc_decompose(sample.x)
        full_sample = MarSample(sample.x, full_y, np.ones(config.n, dtype=bool))
        # the sample keeps both, so they are computed (and may fail) here,
        # outside any one estimator's fit time
        _first_stage_basis(sample, basis)
        nw_seconds = 0.0
        if any(t in ("W", "WL") for t in tags):
            t0 = time.perf_counter()
            _sample_observance(sample)
            nw_seconds = time.perf_counter() - t0
    except _REPLICATE_FAILURES as exc:
        return {"missing_fraction": missing_fraction,
                "per_tag": dict.fromkeys(tags, _failed_entry(exc))}

    per_tag = {}
    for tag in tags:
        target = full_sample if tag in ("C", "CL") else sample
        try:
            t0 = time.perf_counter()
            slope = fit_slope(target, basis, tag, seed=tag_seeds[tag])
            fit_s = time.perf_counter() - t0
            if tag in ("W", "WL"):
                # standalone IPW fits pay for the observance estimate
                fit_s += nw_seconds
            msee = mse_estimation(beta, slope)
            p = np.nan
            if b >= 1:
                p = wild_bootstrap_test(target, basis, tag, b=b, seed=tag_seeds[tag]).p_value
        except _REPLICATE_FAILURES as exc:
            per_tag[tag] = _failed_entry(exc)
        else:
            per_tag[tag] = {"p": p, "msee": msee, "fit_s": fit_s, "error": None}
    return {"missing_fraction": missing_fraction, "per_tag": per_tag}


def _finite_mean(values: np.ndarray) -> float:
    """Mean of the finite entries of `values`; NaN when there are none."""
    good = values[np.isfinite(values)]
    return float(good.mean()) if good.size else float("nan")


def check_mc_run(configs: list[DgpConfig], m: int, b: int, alpha: float,
                 estimators: tuple[str, ...], seed, threads: int) -> tuple[str, ...]:
    """Refuse an `mc_experiment` run with ConfigError; return its upper-cased tags.

    It does no work and makes nothing, so a caller can check a run before
    it acts on it, as `sofreg mc` does before it makes its `--out` directory.
    Each tag is checked by `estimators.check_tag`, as `fit_slope` checks
    its method; the run itself refuses an empty or repeated tag.
    """
    check_seed(seed)
    if m < 1:
        raise ConfigError("m must be at least 1")
    if b < 0:
        raise ConfigError("bootstrap count must be at least 0 (0 collects fits only)")
    if not 0.0 < alpha < 1.0:
        raise ConfigError("alpha must lie in (0, 1)")
    if threads < 1:
        raise ConfigError("threads must be at least 1")
    if not configs:
        raise ConfigError("an mc run needs at least one configuration")
    # the report holds one grid_points and one sigma_eps for all its cells
    if len({(c.grid_points, c.sigma_eps) for c in configs}) > 1:
        raise ConfigError("the cells of an mc run must share grid_points and sigma_eps")
    tags = tuple(check_tag(t) for t in estimators)
    if not tags:
        raise ConfigError("an mc run needs at least one estimator")
    for t in tags:
        if tags.count(t) > 1:
            raise ConfigError(f"estimator tag {t!r} is given more than once")
    # a cell is known by these four values in every report and file name
    cells = [(c.beta_id, c.eta, c.n, c.delta) for c in configs]
    for i, cell in enumerate(cells):
        if cell in cells[:i]:
            raise ConfigError("cell beta_id={}, eta={}, n={}, delta={} is given more than once"
                              .format(*cell))
    return tags


def mc_experiment(
    configs: list[DgpConfig],
    m: int,
    b: int,
    alpha: float = 0.05,
    estimators: tuple[str, ...] = METHOD_TAGS,
    *,
    seed: int,
    threads: int = 1,
) -> McReport:
    """Run m replicates of generate -> fit -> test over each configuration.

    Pass b = 0 to collect fits (MSEE, timing) without running the test.
    Replicate seeds are spawned from `seed` before dispatch, and every
    replicate runs at one BLAS thread, so results are identical for any
    `threads` value and core count: the count is set to one around the pool
    and the serial loop alike, and the caller's count is restored after
    them. The workers are forked at one thread and inherit it; as
    `set_blas_threads` skips an unchanged count, none of them calls the
    library's setter, which would start a BLAS server thread that spins on
    a shared core through the worker's first replicate. With threads > 1
    the replicates of all cells go, in cell order, through one worker pool;
    if a worker dies, the replicates that have not come back run serially in
    this process with the same seeds, so the report is unchanged, and
    `reruns` counts them.

    A run that `check_mc_run` refuses raises its ConfigError before any
    work. Failures are counted in `failures`, never silently dropped: a
    replicate failure is any error of `exceptions.NUMERICAL_FAILURES` or
    `exceptions.REFUSALS`, the two tuples by which `sofreg` exits 4 or 3. An
    estimator that raises has NaN p-value, MSEE and time in that replicate,
    even when its fit finished before its test failed; a failure before the
    fits (data, basis or observance) counts for every estimator. The means
    and rejection rates are over the finite entries, and `missing_fraction`
    averages over the replicates whose data were drawn.
    """
    tags = check_mc_run(configs, m, b, alpha, estimators, seed, threads)
    root = np.random.SeedSequence(seed)
    arglist = [
        (config, b, tags, s)
        for config, cell_seq in zip(configs, root.spawn(len(configs)))
        for s in cell_seq.spawn(m)
    ]
    results = []
    reruns = 0
    # the pool forks inside this block; its initializer gives one BLAS thread
    # to workers of other start methods and finds forked ones at one already
    with single_blas_thread():
        if threads > 1:
            # only a parallel run loads the pool machinery (multiprocessing,
            # socket, logging, subprocess): serial runs import none of it
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool

            # forked workers inherit the factor instead of each computing it
            for config in configs:
                _ou_factor(config.grid)
            chunk = max(1, m // (8 * threads))
            try:
                with ProcessPoolExecutor(max_workers=threads, initializer=set_blas_threads,
                                         initargs=(1,)) as pool:
                    for result in pool.map(_run_replicate, arglist, chunksize=chunk):
                        results.append(result)
            except BrokenProcessPool:
                # a worker died; the replicates that did not come back run below
                reruns = len(arglist) - len(results)
        results.extend(_run_replicate(a) for a in arglist[len(results):])

    cells = []
    for c, config in enumerate(configs):
        reps = results[c * m:(c + 1) * m]
        entries = {t: [rep["per_tag"][t] for rep in reps] for t in tags}
        p_values, msee, times = (
            {t: np.array([e[key] for e in entries[t]], dtype=float) for t in tags}
            for key in ("p", "msee", "fit_s")
        )
        cells.append(
            CellResult(
                config=config,
                failures={t: sum(e["error"] is not None for e in entries[t]) for t in tags},
                rejection={t: _finite_mean(np.where(np.isnan(p), np.nan, p <= alpha))
                           for t, p in p_values.items()},
                msee_mean={t: _finite_mean(msee[t]) for t in tags},
                time_mean={t: _finite_mean(times[t]) for t in tags},
                p_values=p_values,
                msee=msee,
                times=times,
                missing_fraction=_finite_mean(np.array([rep["missing_fraction"] for rep in reps])),
            )
        )
    return McReport(
        alpha=alpha,
        m=m,
        b=b,
        seed=seed,
        estimators=tags,
        cells=cells,
        reruns=reruns,
    )
