import os

import numpy as np
import pytest
from hypothesis import settings

from sofreg.estimators import MarSample
from sofreg.functional import Grid, fpc_decompose
from sofreg.simulation import DgpConfig, gen_missing, gen_ou_sample, generate_dataset

GRID = Grid.regular(0.0, 1.0, 201)

# CI runs (GitHub Actions sets CI) draw the same examples on every run and
# print a reproduction blob on failure; local runs keep the random search
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def make_mar_dataset(n=60, beta_id=3, eta=1.0, delta=0.0, sigma_eps=0.1, seed=0):
    """One synthetic dataset on GRID's points: (masked MarSample, its basis, full y).

    The draw is `generate_dataset`'s, so the tests and the `mc` harness share
    one data generator.
    """
    config = DgpConfig(beta_id=beta_id, delta=delta, eta=eta, n=n,
                       grid_points=GRID.n_points, sigma_eps=sigma_eps)
    sample, y, _ = generate_dataset(config, seed)
    return sample, fpc_decompose(sample.x), y


def make_score_linear_sample(coeffs, n=80, seed=0, sigma=0.0, eta=None):
    """Dataset whose responses are an exact linear function of the FPC scores."""
    rng = np.random.default_rng(seed)
    x = gen_ou_sample(n, GRID, rng)
    basis = fpc_decompose(x)
    y = np.zeros(n)
    for k, c in coeffs.items():
        y += c * basis.scores[:, k - 1]
    if sigma > 0:
        y += rng.normal(0.0, sigma, n)
    if eta is None:
        r = np.ones(n, dtype=bool)
    else:
        r = gen_missing(x, eta, rng)
        if r.sum() < 3:
            r[:3] = True
    sample = MarSample(x, np.where(r, y, np.nan), r)
    return sample, basis


def count_calls(monkeypatch, module, name):
    """Wrap `module.name` to record each call; returns the list of recorded calls."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture(scope="session")
def grid201():
    return GRID
