import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_mar_dataset
from oracles import inner_product, norm, reconstruct, svd_fpc_decompose
from sofreg.estimators import fit_observance, fit_slope
from sofreg.exceptions import DegenerateSampleError, GridMismatchError
from sofreg.functional import FunctionalSample, Grid, fpc_decompose, project_scores
from sofreg.gof import build_a_matrix, wild_bootstrap_test
from sofreg.simulation import CellResult, DgpConfig, McReport

GRID = Grid.regular(0.0, 1.0, 201)
T = GRID.points


class TestGrid:
    def test_regular_spacing(self):
        assert GRID.spacing == pytest.approx(0.005)
        assert GRID.quad_weights.sum() == pytest.approx(1.0)

    def test_rejects_short_grid(self):
        with pytest.raises(GridMismatchError):
            Grid(np.array([0.0, 1.0]))

    def test_rejects_non_increasing(self):
        with pytest.raises(GridMismatchError):
            Grid(np.array([0.0, 0.5, 0.4, 1.0]))

    def test_rejects_non_equidistant(self):
        with pytest.raises(GridMismatchError):
            Grid(np.array([0.0, 0.1, 0.3, 1.0]))


class TestInnerProduct:
    def test_constant_one(self):
        ones = np.ones(201)
        assert inner_product(GRID, ones, ones) == 1.0

    def test_sin_cos_orthogonal(self):
        f = np.sin(2 * np.pi * T)
        g = np.cos(2 * np.pi * T)
        assert abs(inner_product(GRID, f, g)) < 1e-10

    def test_linear_ramp(self):
        # analytic: integral of t^2 over [0,1] = 1/3
        assert inner_product(GRID, T, T) == pytest.approx(1.0 / 3.0, abs=1e-4)

    def test_symmetry_and_bilinearity(self):
        rng = np.random.default_rng(7)
        f, g, h = rng.normal(size=(3, 201))
        assert inner_product(GRID, f, g) == pytest.approx(inner_product(GRID, g, f))
        lhs = inner_product(GRID, f, 2.0 * g + h)
        rhs = 2.0 * inner_product(GRID, f, g) + inner_product(GRID, f, h)
        assert lhs == pytest.approx(rhs)

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatchError):
            inner_product(GRID, np.ones(100), np.ones(100))


class TestNorm:
    def test_zero_curve(self):
        assert norm(GRID, np.zeros(201)) == 0.0

    def test_constant(self):
        assert norm(GRID, np.full(201, -3.0)) == pytest.approx(3.0)

    def test_sine(self):
        # integral of sin^2(2*pi*t) over [0,1] = 1/2
        f = np.sin(2 * np.pi * T)
        assert norm(GRID, f) == pytest.approx(np.sqrt(0.5), abs=1e-4)


class TestCenter:
    """fpc_decompose removes the mean curve: it keeps that mean, and the scores
    of the curves it decomposed have mean zero."""

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=(8, 201))
        basis = fpc_decompose(FunctionalSample(GRID, values))
        np.testing.assert_allclose(basis.mean_curve, values.mean(axis=0), atol=1e-15)
        np.testing.assert_allclose(basis.scores.mean(axis=0), 0.0, atol=1e-12)
        # the centered curves decompose to a zero mean and the same scores
        again = fpc_decompose(FunctionalSample(GRID, values - basis.mean_curve))
        np.testing.assert_allclose(again.mean_curve, 0.0, atol=1e-12)
        np.testing.assert_allclose(again.scores, basis.scores, atol=1e-10)

    def test_symmetric_pair(self):
        basis = fpc_decompose(FunctionalSample(GRID, np.vstack([T, -T])))
        np.testing.assert_allclose(basis.mean_curve, 0.0, atol=1e-15)
        # the pair is its own centering: its scores are opposite
        np.testing.assert_allclose(basis.scores[0], -basis.scores[1], atol=1e-15)


class TestFpcDecompose:
    def test_degenerate_sample_raises(self):
        f = np.sin(2 * np.pi * T)
        sample = FunctionalSample(GRID, np.tile(f, (5, 1)))
        with pytest.raises(DegenerateSampleError):
            fpc_decompose(sample)

    @pytest.mark.parametrize("value", [0.0, 0.1])
    def test_equal_constant_curves_raise(self, value):
        # seven copies of 0.1 center to rounding dust, not to zero
        with pytest.raises(DegenerateSampleError):
            fpc_decompose(FunctionalSample(GRID, np.full((7, GRID.n_points), value)))

    def test_curves_in_small_units(self):
        from sofreg.simulation import gen_ou_sample

        sample = gen_ou_sample(60, GRID, seed=5)
        scale = 2.0**-45  # about 3e-14; powers of two rescale exactly
        base = fpc_decompose(sample)
        small = fpc_decompose(FunctionalSample(GRID, scale * sample.values))
        assert small.k_max == base.k_max
        np.testing.assert_allclose(small.eigenfunctions, base.eigenfunctions,
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(small.scores, scale * base.scores,
                                   rtol=1e-12, atol=1e-12 * scale)

    def test_plus_minus_pair(self):
        f = np.sin(2 * np.pi * T)
        f = f / norm(GRID, f)
        basis = fpc_decompose(FunctionalSample(GRID, np.vstack([f, -f])))
        assert basis.k_max == 1
        assert basis.eigenvalues[0] == pytest.approx(1.0, abs=1e-10)
        # eigenfunction is +-f; scores are +-1 accordingly
        sign = np.sign(basis.eigenfunctions[0] @ f)
        np.testing.assert_allclose(basis.eigenfunctions[0], sign * f, atol=1e-8)
        np.testing.assert_allclose(np.sort(basis.scores[:, 0]), [-1.0, 1.0], atol=1e-8)

    def test_ou_sample_component_count(self):
        from sofreg.simulation import gen_ou_sample

        sample = gen_ou_sample(200, GRID, seed=20240517)
        basis = fpc_decompose(sample)
        assert basis.k_max in {4, 5, 6}

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_points=st.integers(11, 31),
           more_curves=st.booleans(), rank=st.integers(1, 8),
           decay=st.floats(0.3, 0.8), exponent=st.integers(-40, 40))
    def test_property_matches_the_svd_reference(self, seed, n_points, more_curves, rank,
                                                decay, exponent):
        # Centered curves Q diag(sigma) Phi with Q orthonormal and orthogonal to
        # the constants, Phi orthonormal under the grid weights and sigma
        # decaying geometrically: eigenvalues sigma^2 / n with ratio gaps, on
        # both sides of n = grid points
        rng = np.random.default_rng(seed)
        grid = Grid.regular(0.0, 1.0, n_points)
        n = int(rng.integers(n_points + 1, 3 * n_points)) if more_curves else int(
            rng.integers(2, n_points + 1))
        rank = min(rank, n - 1, n_points)
        q, _ = np.linalg.qr(np.column_stack([np.ones(n), rng.normal(size=(n, rank))]))
        sqrt_w = np.sqrt(grid.quad_weights)
        phi = np.linalg.qr(rng.normal(size=(n_points, rank)))[0].T / sqrt_w
        sigma = rng.uniform(0.5, 2.0) * decay ** np.arange(rank)
        values = (q[:, 1:] * sigma) @ phi + rng.normal(size=n_points)
        sample = FunctionalSample(grid, 2.0**exponent * values)

        basis = fpc_decompose(sample)
        spectrum, eigenfunctions, scores = svd_fpc_decompose(sample)
        k = basis.k_max
        assert k == eigenfunctions.shape[0]
        lam = spectrum[:k]
        np.testing.assert_allclose(basis.eigenvalues, lam, rtol=1e-12, atol=1e-12 * lam[0])
        # a symmetric eigensolver is accurate to eps * lambda_1 over the gap,
        # and the gaps here are at least (1 - decay^2) lambda_k
        loss = lam[0] / lam
        for got, ref, size in ((basis.eigenfunctions, eigenfunctions,
                                np.abs(eigenfunctions).max(axis=1)),
                               (basis.scores.T, scores.T, np.sqrt(n * lam))):
            error = np.abs(got - ref).max(axis=1)
            assert np.all(error <= 1e-11 * loss * size), (error / size, loss)

    @pytest.mark.parametrize("exponent", [-40, 40])
    @pytest.mark.parametrize("n, n_points", [(6, 21), (40, 21)])
    def test_degenerate_at_any_scale(self, exponent, n, n_points):
        grid = Grid.regular(0.0, 1.0, n_points)
        curve = np.random.default_rng(n).normal(size=n_points)
        for values in (np.tile(curve, (n, 1)), np.full((n, n_points), 0.1)):
            sample = FunctionalSample(grid, 2.0**exponent * values)
            for decompose in (fpc_decompose, svd_fpc_decompose):
                with pytest.raises(DegenerateSampleError):
                    decompose(sample)

    def test_sign_convention(self):
        rng = np.random.default_rng(3)
        sample = FunctionalSample(GRID, rng.normal(size=(20, 201)))
        basis = fpc_decompose(sample)
        for row in basis.eigenfunctions:
            assert row[np.argmax(np.abs(row))] > 0


@pytest.fixture(scope="module")
def ou_basis():
    from sofreg.simulation import gen_ou_sample

    sample = gen_ou_sample(60, GRID, seed=99)
    return fpc_decompose(sample), sample


class TestBasisInvariants:
    def test_orthonormality(self, ou_basis):
        basis, _ = ou_basis
        w = GRID.quad_weights
        gram = (basis.eigenfunctions * w) @ basis.eigenfunctions.T
        off = gram - np.eye(basis.k_max)
        assert np.max(np.abs(off)) < 1e-8

    def test_scores_match_projections(self, ou_basis):
        basis, sample = ou_basis
        centered = sample.values - sample.values.mean(axis=0)
        w = GRID.quad_weights
        proj = (centered * w) @ basis.eigenfunctions.T
        assert np.max(np.abs(proj - basis.scores)) < 1e-8

    def test_project_scores_refuses_curves_on_another_grid(self, ou_basis):
        basis, _ = ou_basis
        with pytest.raises(GridMismatchError, match="curves do not live on the basis grid"):
            project_scores(basis, np.ones((2, 100)))

    def test_score_variance_matches_eigenvalues(self, ou_basis):
        basis, _ = ou_basis
        var = np.mean(basis.scores**2, axis=0)  # scores have exact zero mean
        np.testing.assert_allclose(var, basis.eigenvalues, rtol=1e-6)

    def test_reconstruction_error_monotone(self, ou_basis):
        basis, sample = ou_basis
        centered = sample.values - sample.values.mean(axis=0)
        w = GRID.quad_weights
        errors = []
        for k in range(1, basis.k_max + 1):
            resid = centered - reconstruct(basis, k)
            errors.append(float(np.sum((resid**2) @ w)))
        assert all(e1 >= e2 - 1e-12 for e1, e2 in zip(errors, errors[1:]))

    def test_parseval_bound(self, ou_basis):
        basis, sample = ou_basis
        centered = sample.values - sample.values.mean(axis=0)
        avg_sq_norm = float(np.mean((centered**2) @ GRID.quad_weights))
        retained = float(basis.eigenvalues.sum())
        assert retained <= avg_sq_norm + 1e-10

    def test_parseval_equality_at_full_rank(self):
        rng = np.random.default_rng(11)
        small_grid = Grid.regular(0.0, 1.0, 21)
        sample = FunctionalSample(small_grid, rng.normal(size=(6, 21)))
        basis = fpc_decompose(sample, var_cutoff=1e-12)
        centered = sample.values - sample.values.mean(axis=0)
        avg_sq_norm = float(np.mean((centered**2) @ small_grid.quad_weights))
        assert float(basis.eigenvalues.sum()) == pytest.approx(avg_sq_norm, rel=1e-10)


def array_fields(value) -> dict:
    """The ndarray fields of a dataclass value, by name."""
    fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    return {name: v for name, v in fields.items() if isinstance(v, np.ndarray)}


def built_value(name):
    """One object of the value class `name`, built as the library builds it."""
    sample, basis, _ = make_mar_dataset(n=30, beta_id=1, eta=1.0, seed=3)
    assert sample.n_obs < sample.n

    def cell():
        return CellResult(DgpConfig(beta_id=1), failures={"S": 0}, rejection={"S": 0.5},
                          msee_mean={"S": 0.1}, time_mean={"S": 0.01},
                          p_values={"S": np.array([0.02, 0.7])}, msee={"S": np.array([0.1, 0.1])},
                          times={"S": np.array([0.01, 0.01])}, missing_fraction=0.25)

    # W holds IPW weights and a first stage (an S fit, with CV errors)
    return {
        "Grid": lambda: sample.x.grid,
        "FunctionalSample": lambda: sample.x,
        "FpcBasis": lambda: basis,
        "MarSample": lambda: sample,
        "FunctionalSlope": lambda: fit_slope(sample, basis, "W"),
        "ObservanceModel": lambda: fit_observance(sample),
        "AMatrix": lambda: build_a_matrix(basis.scores[:, :2]),
        "GofResult": lambda: wild_bootstrap_test(sample, basis, "W", b=5),
        "CellResult": cell,
        "McReport": lambda: McReport(alpha=0.05, m=2, b=10, seed=1, estimators=("S",),
                                     cells=[cell()]),
    }[name]()


class TestReadOnlyValues:
    """Every array field of a value object is a read-only copy of the array it was given."""

    VALUES = ("Grid", "FunctionalSample", "FpcBasis", "MarSample", "FunctionalSlope",
              "ObservanceModel", "AMatrix", "GofResult")

    @pytest.mark.parametrize("name", VALUES)
    def test_every_array_field_is_read_only(self, name):
        value = built_value(name)
        assert type(value).__name__ == name
        nested = [value, getattr(value, "slope", None), getattr(value, "first_stage", None)]
        arrays = {}
        for item in (v for v in nested if v is not None):
            arrays |= {f"{type(item).__name__}.{k}": v for k, v in array_fields(item).items()}
        assert arrays
        for label, array in arrays.items():
            assert not array.flags.writeable, label
            with pytest.raises(ValueError):
                array.flat[0] = 0.0

    @pytest.mark.parametrize("name", VALUES)
    def test_construction_neither_freezes_nor_shares_the_callers_arrays(self, name):
        value = built_value(name)
        given = {f.name: getattr(value, f.name) for f in dataclasses.fields(value) if f.init}
        given = {k: np.array(v) if isinstance(v, np.ndarray) else v for k, v in given.items()}
        copy = type(value)(**given)
        for key, array in given.items():
            if isinstance(array, np.ndarray):
                assert array.flags.writeable, key
                kept = getattr(copy, key)
                assert not kept.flags.writeable and not np.shares_memory(kept, array), key
                np.testing.assert_array_equal(kept, array)

    def test_the_basis_of_a_kept_fit_cannot_change(self):
        # writing to the basis of a kept fit would change its predictions and
        # every later fit_slope call that returns it from the sample's memo
        sample, basis, _ = make_mar_dataset(n=30, beta_id=1, eta=1.0, seed=3)
        slope = fit_slope(sample, basis, "I")
        for fit in (slope, slope.first_stage):
            for array in (fit.basis.eigenvalues, fit.basis.mean_curve,
                          fit.basis.eigenfunctions, fit.basis.scores):
                with pytest.raises(ValueError):
                    array += 1.0
        assert fit_slope(sample, basis, "I") is slope


class TestIdentity:
    """A value object compares and hashes by identity; configurations compare by value."""

    @pytest.mark.parametrize("name", TestReadOnlyValues.VALUES + ("CellResult", "McReport"))
    def test_equal_inputs_build_distinct_hashable_objects(self, name):
        value = built_value(name)
        given = {f.name: getattr(value, f.name) for f in dataclasses.fields(value) if f.init}
        a, b = type(value)(**given), type(value)(**given)
        assert (a == b) is False and (a != b) is True
        assert a == a and b == b
        assert hash(a) == hash(a) and hash(b) == hash(b)
        assert len({a, b}) == 2 and a in {a, b} and b in {a, b}

    @pytest.mark.parametrize("name", ["CellResult", "McReport"])
    def test_mc_results_refuse_assignment(self, name):
        value = built_value(name)
        for f in dataclasses.fields(value):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, f.name, None)

    def test_a_configuration_compares_by_value(self):
        assert DgpConfig(beta_id=1, eta=0.5) == DgpConfig(beta_id=1, eta=0.5)
        assert len({DgpConfig(beta_id=1), DgpConfig(beta_id=1)}) == 1
