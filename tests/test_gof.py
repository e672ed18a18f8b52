import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_mar_dataset, make_score_linear_sample
from oracles import (
    case_table_a_matrix,
    mc_a_matrix,
    mc_pcvm_statistic,
    per_replicate_bootstrap_statistics,
    per_vertex_a_matrix,
    residuals,
)
from sofreg.blas import single_blas_thread
import sofreg.estimators
import sofreg.gof
from sofreg.dataio import _cutoffs
from sofreg.estimators import (
    METHOD_TAGS,
    FunctionalSlope,
    MarSample,
    fit_slope,
    observed_pairs_basis,
)
from sofreg.exceptions import ConfigError, GridMismatchError, NumericalError
from sofreg.functional import FunctionalSample, fpc_decompose
from sofreg.gof import (
    GOLDEN_HIGH,
    GOLDEN_LOW,
    GOLDEN_P_LOW,
    build_a_matrix,
    golden_section_multipliers,
    pcvm_statistic,
    wild_bootstrap_test,
)


class TestResiduals:
    def test_noiseless_fit_gives_zero_residuals(self):
        sample, basis = make_score_linear_sample({1: 2.0}, n=40, seed=0)
        slope = fit_slope(sample, basis, "S")
        eps = residuals(sample, slope)
        assert np.max(np.abs(eps)) < 1e-8

    def test_zero_slope_returns_observed_responses(self):
        import dataclasses

        sample, basis, _ = make_mar_dataset(n=30, beta_id=2, eta=1.0, seed=1)
        slope = fit_slope(sample, basis, "S")
        zeroed = dataclasses.replace(
            slope,
            coefficients=np.zeros_like(slope.coefficients),
            alpha=0.0,
            curve=np.zeros_like(slope.curve),
        )
        eps = residuals(sample, zeroed)
        np.testing.assert_allclose(
            eps, sample.y[sample.r] - sample.observed_mean, atol=1e-12
        )

    def test_residual_scale_tracks_noise(self):
        sds = []
        for seed in range(100):
            sample, basis, _ = make_mar_dataset(n=100, beta_id=3, eta=1.0, seed=100 + seed)
            slope = fit_slope(sample, basis, "I")
            sds.append(residuals(sample, slope).std())
        assert 0.08 <= float(np.mean(sds)) <= 0.15


class TestAMatrix:
    def test_two_point_hand_case(self):
        a = build_a_matrix(np.array([[0.4], [2.0]]))
        np.testing.assert_allclose(a.values, [[3.0, 2.0], [2.0, 3.0]], atol=1e-12)

    def test_matches_case_table_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            block = rng.normal(size=(int(rng.integers(3, 9)), int(rng.integers(1, 4))))
            a = build_a_matrix(block)
            np.testing.assert_allclose(a.values, case_table_a_matrix(block), atol=1e-10)

    def test_matches_sphere_projection_oracle(self):
        rng = np.random.default_rng(3)
        block = rng.normal(size=(12, 2))
        a = build_a_matrix(block)
        a_mc = mc_a_matrix(block, n_draws=100_000, seed=7)
        rel = np.linalg.norm(a.values - a_mc) / np.linalg.norm(a.values)
        assert rel < 0.02

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(4)
        block = rng.normal(size=(15, 3))
        a1 = build_a_matrix(block)
        a3 = build_a_matrix(3.0 * block)
        np.testing.assert_allclose(a1.values, a3.values, atol=1e-9)

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(5)
        block = rng.normal(size=(20, 3))
        a = build_a_matrix(block).values
        np.testing.assert_allclose(a, a.T, rtol=1e-9)
        assert np.all(a >= 0.0)

    def test_duplicate_rows_use_coincidence_cases(self):
        block = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        a = build_a_matrix(block)
        np.testing.assert_allclose(a.values, case_table_a_matrix(block), atol=1e-10)

    def test_psd_on_random_instances(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            block = rng.normal(size=(int(rng.integers(4, 16)), int(rng.integers(1, 4))))
            a = build_a_matrix(block).values
            smallest = np.linalg.eigvalsh(a)[0]
            assert smallest >= -1e-8 * np.linalg.norm(a)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            build_a_matrix(np.array([[np.nan], [1.0]]))

    def test_rejects_one_row(self):
        with pytest.raises(ValueError, match="need at least 2 score rows"):
            build_a_matrix(np.array([[1.0, 2.0]]))

    @pytest.mark.parametrize("rows", [
        (0, 1, 2, 3, 1, 4, 0, 5),  # two duplicated pairs
        (0, 1, 2, 2, 3, 2, 4),  # a triplicate
        (0, 1),  # a 2-point block
    ])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_coincident_rows_match_case_table(self, rows, k):
        points = np.random.default_rng(20 + k).normal(size=(max(rows) + 1, k))
        block = points[list(rows)]
        a = build_a_matrix(block)
        np.testing.assert_allclose(a.values, case_table_a_matrix(block), atol=1e-10)

    @pytest.mark.parametrize("x", [
        np.array([3.0, -1.0, 3.0, 0.5, 7.0, -1.0, 2.0, 3.0, 11.0, -4.5]),
        np.random.default_rng(21).normal(size=40),
    ])
    def test_one_dimension_is_exact(self, x):
        # on a line every angle is 0 or pi: A_lm counts the r with x_l, x_m
        # both at or below x_r plus those with both at or above it
        le = (x[:, None] <= x[None, :]).astype(float)
        ge = (x[:, None] >= x[None, :]).astype(float)
        np.testing.assert_allclose(build_a_matrix(x[:, None]).values, le @ le.T + ge @ ge.T,
                                   rtol=0, atol=1e-12)

    def test_near_collinear_triple_keeps_its_digits(self):
        # vertex angles of ~1e-7 rad, where arccos of the cosine loses half
        # of its digits; the reference takes every angle from atan2
        block = np.array([[0.0, 0.0], [1.0, 1e-7], [2.0, 0.0], [0.4, 3.0], [-1.0, 2.5]])
        n = block.shape[0]
        reference = np.zeros((n, n))
        for r in range(n):
            d = block - block[r]
            cross = d[:, None, 0] * d[None, :, 1] - d[:, None, 1] * d[None, :, 0]
            angle = np.arctan2(np.abs(cross), d @ d.T)
            term = np.pi - angle
            np.fill_diagonal(term, np.pi)
            term[r, :] = term[:, r] = np.pi
            term[r, r] = 2.0 * np.pi
            reference += term
        # c = 1 at K = 2
        np.testing.assert_allclose(build_a_matrix(block).values, reference,
                                   rtol=1e-14, atol=0)

    def test_non_transitive_coincidence_is_rejected(self):
        # rows 0 and 1, and rows 1 and 2, coincide within the tolerance; 0 and 2 do not
        block = np.array([[1.0, 0.5], [1.0 + 0.8e-12, 0.5], [1.0 + 1.6e-12, 0.5], [0.0, 2.0]])
        with pytest.raises(ValueError, match="non-transitively"):
            build_a_matrix(block)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 160), k=st.integers(1, 5),
           edge=st.integers(0, 2**16), offsets=st.tuples(*[st.integers(0, 3)] * 2))
    def test_property_vertex_blocks_match_the_per_vertex_loop(self, seed, n, k, edge, offsets):
        # rows are visited in blocks of vertices; each block zeroes the
        # fringe where a triangle's corner is at or past its vertex. A row
        # copied across a block edge, and a near-collinear triple whose last
        # point lies past the first block (so the chord fix-up runs there),
        # stress the edges of that bookkeeping
        rng = np.random.default_rng(seed)
        block = rng.normal(size=(n, k))
        edges = sofreg.gof._block_edges(n)
        if len(edges) > 2:
            e = edges[1 + edge % (len(edges) - 2)]
            before, after = e - 1 - offsets[0], e + offsets[1]
            if before >= 0 and after < n:
                block[after] = block[before]
            if n - edges[1] >= 3:
                a, b, c = np.sort(rng.choice(np.arange(edges[1], n), size=3, replace=False))
                # c near the line through a and b: angles of ~1e-7 rad at a and b
                block[c] = block[a] + 1.7 * (block[b] - block[a]) + 1e-7 * rng.normal(size=k)
        a_matrix = build_a_matrix(block).values
        reference = per_vertex_a_matrix(block)
        assert np.abs(a_matrix - reference).max() <= 1e-13 * np.abs(reference).max()

    def test_one_build_keeps_the_peak_memory_of_the_per_vertex_loop(self):
        # the per-vertex loop peaked at 25.1 MiB for this build (the
        # (n, n, K) unit tensor is 13.7 MiB of it); the vertex blocks reuse
        # two buffers and must not raise that peak
        block = np.random.default_rng(0).normal(size=(600, 5))
        with single_blas_thread():
            tracemalloc.start()
            try:
                build_a_matrix(block)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 25.1 * 2**20

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 14), k=st.integers(1, 4),
           scale=st.floats(1e-3, 1e3), duplicates=st.integers(0, 3))
    def test_invariant_under_rotation_rescaling_and_row_order(
        self, seed, n, k, scale, duplicates
    ):
        rng = np.random.default_rng(seed)
        block = rng.normal(size=(n, k))
        for _ in range(duplicates):
            block[rng.integers(n)] = block[rng.integers(n)]
        a = build_a_matrix(block).values
        tol = {"rtol": 1e-11, "atol": 1e-11 * np.abs(a).max()}
        rotation, _ = np.linalg.qr(rng.normal(size=(k, k)))
        np.testing.assert_allclose(build_a_matrix(block @ rotation).values, a, **tol)
        np.testing.assert_allclose(build_a_matrix(scale * block).values, a, **tol)
        perm = rng.permutation(n)
        np.testing.assert_allclose(build_a_matrix(block[perm]).values,
                                   a[np.ix_(perm, perm)], **tol)


class TestPcvmStatistic:
    def test_zero_residuals(self):
        a = build_a_matrix(np.arange(6.0).reshape(6, 1))
        assert pcvm_statistic(np.zeros(6), a) == 0.0

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(7)
        block = rng.normal(size=(10, 2))
        eps = rng.normal(size=10)
        a = build_a_matrix(block)
        base = pcvm_statistic(eps, a)
        assert pcvm_statistic(3.0 * eps, a) == pytest.approx(9.0 * base, rel=1e-12)

    def test_matches_projection_integral_oracle(self):
        rng = np.random.default_rng(8)
        block = rng.normal(size=(20, 2))
        eps = rng.normal(size=20)
        a = build_a_matrix(block)
        closed = pcvm_statistic(eps, a)
        direct = mc_pcvm_statistic(block, eps, n_draws=100_000, seed=9)
        assert abs(closed - direct) / closed < 0.02

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        block = rng.normal(size=(15, 2))
        eps = rng.normal(size=15)
        stat = pcvm_statistic(eps, build_a_matrix(block))
        perm = rng.permutation(15)
        stat_p = pcvm_statistic(eps[perm], build_a_matrix(block[perm]))
        assert stat_p == pytest.approx(stat, rel=1e-10)

    def test_dimension_mismatch(self):
        a = build_a_matrix(np.arange(5.0).reshape(5, 1))
        with pytest.raises(GridMismatchError):
            pcvm_statistic(np.zeros(4), a)


class TestGoldenMultipliers:
    def test_two_point_law_moments_are_exact(self):
        mean = GOLDEN_LOW * GOLDEN_P_LOW + GOLDEN_HIGH * (1.0 - GOLDEN_P_LOW)
        second = GOLDEN_LOW**2 * GOLDEN_P_LOW + GOLDEN_HIGH**2 * (1.0 - GOLDEN_P_LOW)
        assert mean == pytest.approx(0.0, abs=1e-15)
        assert second == pytest.approx(1.0, abs=1e-15)

    def test_sample_mean_within_clt_bound(self):
        draws = golden_section_multipliers(1_000_000, seed=10)
        assert abs(draws.mean()) < 0.005

    def test_values_are_the_two_golden_points(self):
        draws = golden_section_multipliers(1000, seed=11)
        assert set(np.unique(draws)) == {GOLDEN_LOW, GOLDEN_HIGH}
        single = golden_section_multipliers(1, seed=12)
        assert single[0] in (GOLDEN_LOW, GOLDEN_HIGH)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            golden_section_multipliers(0)


class TestFixedStructureRefitter:
    @pytest.mark.parametrize("tag", METHOD_TAGS)
    def test_unit_multipliers_reproduce_the_fit(self, tag):
        # all multipliers equal to 1 make y* the observed centred responses,
        # whose refit at the frozen structure is the fit itself
        eta = None if tag in ("C", "CL") else 1.0
        sample, basis, _ = make_mar_dataset(n=50, beta_id=3, eta=eta, delta=0.03, seed=31)
        assert (sample.n_obs < sample.n) == (eta is not None)
        slope = fit_slope(sample, basis, tag, seed=4)
        refit = slope.refit_residuals(sample, sample.y_centered[None, :])[0]
        expected = residuals(sample, slope)
        assert np.linalg.norm(refit - expected) <= 1e-12 * np.linalg.norm(expected)

    @settings(max_examples=40, deadline=None)
    @given(tag=st.sampled_from(METHOD_TAGS), seed=st.integers(0, 2**31 - 1),
           n=st.integers(20, 50), b=st.integers(1, 6))
    def test_property_refit_is_linear_in_the_responses(self, tag, seed, n, b):
        # the refit at frozen structure maps y* to y* R, R its image of the
        # identity; an offset or a non-linear step in the completion breaks it
        eta = None if tag in ("C", "CL") else 1.0
        sample, basis, _ = make_mar_dataset(n=n, beta_id=1 + seed % 3, eta=eta,
                                            delta=0.03 * (seed % 2), seed=seed)
        slope = fit_slope(sample, basis, tag, seed=seed)
        ystar = np.random.default_rng(seed).normal(size=(b, sample.n_obs))
        operator = slope.refit_residuals(sample, np.eye(sample.n_obs))
        direct = slope.refit_residuals(sample, ystar)
        assert np.linalg.norm(direct - ystar @ operator) <= 1e-12 * np.linalg.norm(direct)


class TestBootstrapOracle:
    @pytest.mark.parametrize("observed, tag", [
        *(("mar", t) for t in METHOD_TAGS if t not in ("C", "CL")),
        *(("full", t) for t in METHOD_TAGS),
    ])
    def test_quadratic_form_matches_per_replicate_refits(self, observed, tag):
        sample, basis, y_full = make_mar_dataset(n=60, beta_id=3, eta=1.0, delta=0.03, seed=32)
        if observed == "full":
            sample = MarSample(sample.x, y_full, np.ones(sample.n, dtype=bool))
        b, seed = 200, 6
        result = wild_bootstrap_test(sample, basis, tag, b=b, seed=seed)
        slope = fit_slope(sample, basis, tag, seed=seed)
        cols = np.asarray(slope.indices) - 1
        a = build_a_matrix(slope.observed_scores(sample)[:, cols])
        # the multipliers of the test's own stream
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0x426F6F)))
        v = golden_section_multipliers((b, sample.n_obs), rng)
        reference = per_replicate_bootstrap_statistics(sample, slope, a, v)
        assert np.all(reference > 0.0)
        np.testing.assert_allclose(result.bootstrap_statistics, reference, rtol=1e-12, atol=0)


class TestBootstrapMoments:
    """Replicate b is (c0 + v_b q1 + v_b Q v_b') / n_obs^2 in golden-section
    multipliers, which have E v = 0, E v^2 = 1, E v^3 = 1 and E v^4 = 2
    (Mammen 1993), so E[n_obs^2 T*] = c0 + tr Q and
    Var[n_obs^2 T*] = sum_i (q1_i + Q_ii)^2 + 2 sum_{i != j} Q_ij^2."""

    #: Monte Carlo standard errors within which the moments of B replicates
    #: must fall.
    STANDARD_ERRORS = 4

    @pytest.mark.parametrize("tag", METHOD_TAGS)
    def test_replicates_have_the_closed_form_mean_and_variance(self, tag):
        # with 11 of 30 responses missing, the completions of I and W give q1
        # a large share of the variance, so replicates without v q1 fail
        # their check; for C and S q1 is round-off, as their refit
        # reproduces its own fitted values
        eta = None if tag in ("C", "CL") else 0.5
        sample, basis, _ = make_mar_dataset(n=30, beta_id=3, eta=eta, delta=0.03, seed=40)
        b, seed = 20_000, 7
        stats = wild_bootstrap_test(sample, basis, tag, b=b, seed=seed).bootstrap_statistics
        slope = fit_slope(sample, basis, tag, seed=seed)
        rows = slope.observed_scores(sample)
        a = build_a_matrix(rows[:, np.asarray(slope.indices) - 1]).values
        refit = slope.refit_residuals(sample, np.eye(sample.n_obs))
        m = refit @ a @ refit.T
        mu, eps = slope.predict_centered(rows), residuals(sample, slope)
        q = eps[:, None] * m * eps[None, :]
        q1 = 2.0 * eps * (m @ mu)
        scale = float(sample.n_obs) ** 2
        mean = (mu @ m @ mu + np.trace(q)) / scale
        off_diagonal = q - np.diag(np.diag(q))
        variance = (np.sum((q1 + np.diag(q)) ** 2) + 2.0 * np.sum(off_diagonal**2)) / scale**2
        centred = stats - stats.mean()
        mean_se = np.sqrt(variance / b)
        variance_se = np.sqrt((np.mean(centred**4) - np.mean(centred**2) ** 2) / b)
        assert abs(stats.mean() - mean) <= self.STANDARD_ERRORS * mean_se
        assert abs(stats.var() - variance) <= self.STANDARD_ERRORS * variance_se


class TestBootstrapExactLaw:
    """With n_obs <= 12 the law of a replicate given the data is a finite sum
    over the 2^n_obs golden-section patterns of the multipliers. Refitting
    every pattern gives the exact p-value p_inf = P(T* >= T), and the
    reported p-value of B replicates is Binomial(B, p_inf) / B."""

    #: Binomial standard errors within which the reported p-value must fall.
    Z = 4

    @pytest.mark.parametrize("tag", METHOD_TAGS)
    def test_p_value_lies_within_binomial_bounds_of_the_exact_p_value(self, tag):
        # n_obs is 12 for C and CL and 11 for the others; p_inf lies
        # between 0.24 and 0.54 for every tag
        eta, n = (None, 12) if tag in ("C", "CL") else (1.0, 16)
        sample, basis, _ = make_mar_dataset(n=n, beta_id=3, eta=eta, seed=3)
        assert sample.n_obs <= 12
        b, seed = 2000, 3
        slope = fit_slope(sample, basis, tag, seed=seed)
        rows = slope.observed_scores(sample)
        a = build_a_matrix(rows[:, np.asarray(slope.indices) - 1])
        mu = slope.predict_centered(rows)
        eps = sample.y_centered - mu
        low = np.array(list(itertools.product((True, False), repeat=sample.n_obs)))
        probability = np.prod(np.where(low, GOLDEN_P_LOW, 1.0 - GOLDEN_P_LOW), axis=1)
        refit = slope.refit_residuals(sample, mu + np.where(low, GOLDEN_LOW, GOLDEN_HIGH) * eps)
        stats = np.maximum(np.einsum("pl,lm,pm->p", refit, a.values, refit), 0.0)
        stats /= float(sample.n_obs) ** 2
        observed = pcvm_statistic(eps, a)
        # no pattern is within round-off of the observed statistic, so the
        # quadratic form and the refit count the same patterns
        assert np.min(np.abs(stats - observed)) > 1e-9 * observed
        p_inf = float(probability[stats >= observed].sum())
        p_value = wild_bootstrap_test(sample, basis, tag, b=b, seed=seed).p_value
        assert abs(p_value - p_inf) <= self.Z * np.sqrt(p_inf * (1.0 - p_inf) / b)


class TestWildBootstrap:
    def test_degenerate_noiseless_data(self):
        sample, basis = make_score_linear_sample({1: 1.5}, n=40, seed=13)
        result = wild_bootstrap_test(sample, basis, "S", b=200, seed=0)
        assert result.statistic == 0.0
        assert np.all(result.bootstrap_statistics == 0.0)
        assert result.p_value == 1.0

    @pytest.mark.parametrize("relative, tested", [(1e-8, True), (1e-12, False)])
    def test_residuals_count_as_round_off_below_1e_10_of_the_response_spread(
            self, relative, tested):
        # score-linear responses plus noise of `relative` times their spread:
        # residuals near 1e-8 of it are tested, near 1e-12 of it are not
        coeffs = {1: 1.5, 2: -0.8}
        clean, basis = make_score_linear_sample(coeffs, n=40, seed=13)
        spread = float(np.max(np.abs(clean.y[clean.r] - clean.observed_mean)))
        sample, _ = make_score_linear_sample(coeffs, n=40, seed=13, sigma=relative * spread)
        eps = residuals(sample, fit_slope(sample, basis, "S"))
        assert relative / 10 <= np.max(np.abs(eps)) / spread <= 10 * relative
        result = wild_bootstrap_test(sample, basis, "S", b=200, seed=0)
        if tested:
            assert result.statistic > 0.0
            assert np.any(result.bootstrap_statistics > 0.0)
        else:
            assert result.statistic == 0.0
            assert np.all(result.bootstrap_statistics == 0.0)
            assert result.p_value == 1.0

    def test_responses_in_small_units_are_still_tested(self):
        # a power of two rescales every residual and statistic exactly, so
        # only an absolute floor could change the outcome
        sample, basis, _ = make_mar_dataset(n=60, beta_id=3, eta=1.0, delta=0.03, seed=5)
        scale = 2.0**-37  # about 7e-12
        small = MarSample(sample.x, scale * sample.y, sample.r)
        base = wild_bootstrap_test(sample, basis, "S", b=200, seed=1)
        result = wild_bootstrap_test(small, basis, "S", b=200, seed=1)
        assert base.statistic > 0.0
        assert result.statistic == pytest.approx(scale**2 * base.statistic, rel=1e-12)
        assert result.p_value == base.p_value

    @pytest.mark.parametrize("seed", [None, -1, 1.0, [1, 2], np.random.default_rng(1)],
                             ids=["none", "negative", "float", "sequence", "generator"])
    def test_refuses_a_seed_other_than_a_nonnegative_integer(self, seed):
        # the result and its report record the seed, and only an integer reads back
        sample, basis, _ = make_mar_dataset(n=30, beta_id=1, eta=1.0, seed=3)
        with pytest.raises(ConfigError, match="seed must be a nonnegative integer"):
            wild_bootstrap_test(sample, basis, "SL", b=10, seed=seed)
        by_int = wild_bootstrap_test(sample, basis, "SL", b=10, seed=1)
        by_numpy = wild_bootstrap_test(sample, basis, "SL", b=10, seed=np.int64(1))
        np.testing.assert_array_equal(by_numpy.bootstrap_statistics, by_int.bootstrap_statistics)

    def test_p_value_granularity(self):
        sample, basis, _ = make_mar_dataset(n=40, beta_id=2, eta=1.0, seed=14)
        for b in (7, 50):
            result = wild_bootstrap_test(sample, basis, "S", b=b, seed=1)
            assert result.p_value == pytest.approx(
                round(result.p_value * b) / b, abs=1e-12
            )
            assert 0.0 <= result.p_value <= 1.0
            assert result.b == b

    @settings(max_examples=60, deadline=None)
    @given(tag=st.sampled_from(METHOD_TAGS), b=st.integers(5, 60),
           seed=st.integers(0, 2**31 - 1), n=st.integers(20, 40))
    def test_property_p_value_is_the_bootstrap_count(self, tag, b, seed, n):
        eta = None if tag in ("C", "CL") else 1.0
        sample, basis, _ = make_mar_dataset(n=n, beta_id=1 + seed % 3, eta=eta,
                                            delta=0.03 * (seed % 2), seed=seed)
        result = wild_bootstrap_test(sample, basis, tag, b=b, seed=seed)
        count = np.count_nonzero(result.statistic <= result.bootstrap_statistics)
        assert result.bootstrap_statistics.shape == (b,)
        assert result.p_value == count / b
        assert result.p_value == round(result.p_value * b) / b

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           a=st.one_of(st.builds(lambda k, sign: sign * 2.0**k, st.integers(-6, 6),
                                 st.sampled_from((-1.0, 1.0))),
                       st.just(1e3)),
           c=st.floats(-1e3, 1e3))
    def test_property_response_affine_equivariance(self, seed, a, c):
        # y -> a y + c keeps every selection and p-value, scales the
        # coefficients by a and maps the intercept b0 to a b0 + c
        sample, basis, y_full = make_mar_dataset(n=30, beta_id=1 + seed % 3, eta=1.0,
                                                 delta=0.03 * (seed % 2), seed=seed)
        full = MarSample(sample.x, y_full, np.ones(sample.n, dtype=bool))
        for tag in METHOD_TAGS:
            target = full if tag in ("C", "CL") else sample
            mapped = MarSample(target.x, a * target.y + c, target.r)
            kwargs = {"seed": seed}
            slope = fit_slope(target, basis, tag, **kwargs)
            image = fit_slope(mapped, basis, tag, **kwargs)
            assert image.indices == slope.indices
            assert _cutoffs(image) == _cutoffs(slope)
            scale = abs(a) * np.abs(slope.coefficients).max()
            np.testing.assert_allclose(image.coefficients, a * slope.coefficients,
                                       rtol=1e-10, atol=1e-10 * scale)
            y_scale = abs(a) * np.abs(target.y[target.r]).max() + abs(c)
            assert image.intercept == pytest.approx(a * slope.intercept + c,
                                                    rel=1e-10, abs=1e-10 * y_scale)
            test = wild_bootstrap_test(target, basis, tag, b=19, **kwargs)
            assert wild_bootstrap_test(mapped, basis, tag, b=19, **kwargs).p_value == test.p_value

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), a=st.integers(-50, 50), b=st.integers(-50, 50))
    def test_property_power_of_two_units_are_exact(self, seed, a, b):
        # curves x 2^a and responses x 2^b rescale every intermediate exactly
        # in binary, so only an absolute floor could move a selection, a
        # p-value or a bit
        sample, _, y_full = make_mar_dataset(n=40, beta_id=1 + seed % 3, eta=1.0,
                                             delta=0.03 * (seed % 2), seed=seed)
        x_scaled = FunctionalSample(sample.x.grid, 2.0**a * sample.x.values)
        every = np.ones(sample.n, dtype=bool)
        pairs = {
            "mar": (sample, MarSample(x_scaled, 2.0**b * sample.y, sample.r)),
            "full": (MarSample(sample.x, y_full, every),
                     MarSample(x_scaled, 2.0**b * y_full, every)),
        }
        kwargs = {kind: [{"basis": fpc_decompose(s.x)} for s in pair]
                  for kind, pair in pairs.items()}
        for tag in METHOD_TAGS:
            kind = "full" if tag in ("C", "CL") else "mar"
            (base, scaled), (base_kw, scaled_kw) = pairs[kind], kwargs[kind]
            slope = fit_slope(base, method=tag, seed=seed, **base_kw)
            image = fit_slope(scaled, method=tag, seed=seed, **scaled_kw)
            assert image.indices == slope.indices
            assert _cutoffs(image) == _cutoffs(slope)
            np.testing.assert_array_equal(image.coefficients,
                                          2.0 ** (b - a) * slope.coefficients)
            if tag.endswith("L"):
                assert image.lasso_lambda == 2.0 ** (a + b) * slope.lasso_lambda
            cols = np.asarray(slope.indices) - 1
            np.testing.assert_array_equal(
                build_a_matrix(image.observed_scores(scaled)[:, cols]).values,
                build_a_matrix(slope.observed_scores(base)[:, cols]).values)
            test = wild_bootstrap_test(base, method_tag=tag, b=40, seed=seed, **base_kw)
            image_test = wild_bootstrap_test(scaled, method_tag=tag, b=40, seed=seed,
                                             **scaled_kw)
            assert image_test.p_value == test.p_value
            assert image_test.statistic == 2.0 ** (2 * b) * test.statistic

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(25, 50),
           order=st.randoms(use_true_random=False))
    def test_property_row_order_is_bookkeeping_only(self, seed, n, order):
        # permuting the curves with their responses and indicators keeps
        # every selection and moves curves, statistics and bootstrap refits
        # by round-off only: observed and missing rows are tracked by index.
        # Over 300 seeded samples the worst relative differences were 4.4e-14
        # (curves), 1.1e-13 (statistics) and 1.8e-14 (refits).
        sample, _, _ = make_mar_dataset(n=n, beta_id=1 + seed % 3, eta=1.0,
                                        delta=0.03 * (seed % 2), seed=seed)
        perm = np.array(order.sample(range(n), n))
        moved = MarSample(FunctionalSample(sample.x.grid, sample.x.values[perm]),
                          sample.y[perm], sample.r[perm])
        # position in `sample`'s observed order of each observed row of `moved`
        back = np.searchsorted(sample.observed_index, perm[moved.observed_index])
        ystar = np.random.default_rng(seed).normal(size=(3, sample.n_obs))
        for tag in ("S", "I", "W"):
            slope = fit_slope(sample, fpc_decompose(sample.x), tag)
            image = fit_slope(moved, fpc_decompose(moved.x), tag)
            assert image.indices == slope.indices
            assert _cutoffs(image) == _cutoffs(slope)
            curve_scale = np.abs(slope.curve).max()
            np.testing.assert_allclose(image.curve, slope.curve, rtol=0,
                                       atol=1e-12 * curve_scale)
            test = wild_bootstrap_test(sample, fpc_decompose(sample.x), tag, b=1)
            image_test = wild_bootstrap_test(moved, fpc_decompose(moved.x), tag, b=1)
            assert image_test.statistic == pytest.approx(test.statistic, rel=1e-11)
            refit = slope.refit_residuals(sample, ystar)
            image_refit = image.refit_residuals(moved, ystar[:, back])
            np.testing.assert_allclose(image_refit, refit[:, back], rtol=0,
                                       atol=1e-12 * np.abs(refit).max())

    def test_end_to_end_determinism(self):
        sample, basis, _ = make_mar_dataset(n=50, beta_id=3, eta=1.0, seed=15)
        for tag in ("S", "I", "W", "SL"):
            r1 = wild_bootstrap_test(sample, basis, tag, b=100, seed=4)
            r2 = wild_bootstrap_test(sample, basis, tag, b=100, seed=4)
            assert r1.statistic == r2.statistic
            assert r1.p_value == r2.p_value
            np.testing.assert_array_equal(r1.bootstrap_statistics, r2.bootstrap_statistics)

    def test_sample_derives_each_input_once(self, monkeypatch):
        # the observed-pairs basis, the observance fit and each distinct A
        # are computed once per sample, through the names callers patch
        calls = {"basis": 0, "observance": 0}
        a_blocks = []

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        def counted_a(block):
            a_blocks.append((block.shape, block.tobytes()))
            return build_a_matrix(block)

        monkeypatch.setattr(sofreg.estimators, "observed_pairs_basis",
                            counted("basis", observed_pairs_basis))
        monkeypatch.setattr(sofreg.estimators, "fit_observance",
                            counted("observance", sofreg.estimators.fit_observance))
        monkeypatch.setattr(sofreg.gof, "build_a_matrix", counted_a)
        sample, basis, y_full = make_mar_dataset(n=40, beta_id=1, eta=1.0, seed=16)
        assert sample.n_obs < sample.n
        for tag in ("S", "SL", "I", "IL", "W", "WL"):
            fit_slope(sample, basis, tag, seed=2)
            wild_bootstrap_test(sample, basis, tag, b=20, seed=2)
        assert calls == {"basis": 1, "observance": 1}
        assert a_blocks and len(set(a_blocks)) == len(a_blocks)
        # another sample of the same size builds its own A
        other, _, _ = make_mar_dataset(n=40, beta_id=1, eta=1.0, seed=17)
        built = len(a_blocks)
        result = wild_bootstrap_test(other, fpc_decompose(other.x), "S", b=20, seed=2)
        assert len(a_blocks) == built + 1
        assert a_blocks[-1][0] == (other.n_obs, len(result.slope.indices))

    def test_all_methods_run_on_mar_sample(self):
        sample, basis, _ = make_mar_dataset(n=50, beta_id=2, eta=1.0, seed=17)
        for tag in ("S", "SL", "I", "IL", "W", "WL"):
            result = wild_bootstrap_test(sample, basis, tag, b=60, seed=3)
            assert result.slope.method_tag == tag
            assert result.n_obs == sample.n_obs
            assert np.all(result.bootstrap_statistics >= 0.0)

    def test_a_non_finite_operator_raises(self, monkeypatch):
        refit_residuals = FunctionalSlope.refit_residuals

        def poisoned(slope, sample, ystar):
            res = refit_residuals(slope, sample, ystar)
            res[0, 0] = np.nan
            return res

        monkeypatch.setattr(FunctionalSlope, "refit_residuals", poisoned)
        sample, basis, _ = make_mar_dataset(n=40, beta_id=2, eta=1.0, seed=14)
        with pytest.raises(NumericalError, match="non-finite bootstrap operator"):
            wild_bootstrap_test(sample, basis, "S", b=50, seed=1)

    def test_rejects_bad_bootstrap_count(self):
        sample, basis, _ = make_mar_dataset(n=30, beta_id=1, eta=1.0, seed=18)
        with pytest.raises(ValueError):
            wild_bootstrap_test(sample, basis, "S", b=0)
