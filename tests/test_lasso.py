import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sofreg.estimators
import sofreg.lasso
from conftest import make_mar_dataset
from oracles import (
    kkt_violation,
    lambda_grid,
    lambda_max,
    lasso_cv_reference,
    lasso_path,
    reference_exact_path,
)
from sofreg.estimators import fit_slope
from sofreg.lasso import _exact_path, lasso_select


# (x', y) of designs whose exact path holds a coefficient at zero after its
# drop: the kink reached again at once is rounding noise, and a path that
# lets the column straight back in gives it a coefficient of ~1e-16
DEGENERATE_DROPS = (
    ([[-1, -1, -1, 1, -1, 1], [1, 0, 1, 1, -1, 0], [1, 0, -1, 1, -1, 0], [0, 1, 1, -1, 0, -1]],
     [-3, 0, -2, 3, 3, 0]),
    ([[-1, 1, -1, -1, -1, -1, 0], [1, 1, 1, 1, 0, -1, 1], [1, 0, 1, 0, 0, -1, 1],
      [0, 0, -1, 0, 1, 1, -1], [0, 0, 1, 0, 1, -1, 0]],
     [-3, -1, 3, 1, -2, -3, 0]),
    ([[0, 0, 0, 1, 1, 1, 0, -1], [-1, -1, 1, 0, 1, 1, -1, 0], [0, 1, -1, -1, 0, 0, -1, -1],
      [-1, -1, 0, 0, -1, 0, -1, 0]],
     [3, 0, -2, 2, -3, -2, -2, 2]),
)


def random_design(rng, n=40, k=5):
    x = rng.normal(size=(n, k)) * rng.uniform(0.3, 3.0, size=k)
    y = rng.normal(size=n)
    return x, y


def scaled_kkt(x, y, lambdas, path):
    """Worst KKT violation over the path, relative to max(1, lambda_max)."""
    scale = max(1.0, lambda_max(x, y))
    return max(kkt_violation(x, y, beta, float(lam)) for lam, beta in zip(lambdas, path)) / scale


def collinear_design(seed, n=30):
    """Three columns, the third close to the sum of the others: paths with drops."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, 3))
    z[:, 2] = z[:, 0] + z[:, 1] + 0.3 * rng.normal(size=n)
    x = z - z.mean(axis=0)
    y = x @ rng.normal(size=3) + rng.normal(size=n)
    return x, y - y.mean()


def coefficients_at(x, y, lam):
    return lasso_path(x, y, np.array([lam]))[0]


def first_drop(x, y):
    """(column, lambda) of the first coefficient to return to zero, by bisection."""
    lambdas = lambda_grid(x, y, 1000)
    path = lasso_path(x, y, lambdas)
    gone = (path[:-1] != 0.0) & (path[1:] == 0.0)
    step, j = (int(v[0]) for v in np.nonzero(gone))
    hi, lo = lambdas[step], lambdas[step + 1]
    for _ in range(200):
        mid = 0.5 * (hi + lo)
        if coefficients_at(x, y, mid)[j] != 0.0:
            hi = mid
        else:
            lo = mid
    return j, lo


def recorded_selections(monkeypatch, n, eta, seed, tags=("SL", "IL", "WL")):
    """(design, y, seed) of every lasso_select call the fits of `tags` make."""
    calls = []

    def recorder(design, y, seed=0, **kwargs):
        calls.append((np.array(design), np.array(y), seed))
        return lasso_select(design, y, seed=seed, **kwargs)

    monkeypatch.setattr(sofreg.estimators, "lasso_select", recorder)
    sample, basis, y = make_mar_dataset(n=n, beta_id=1 + seed % 3, eta=eta,
                                        delta=0.03 * (seed % 2), seed=seed)
    for tag in tags:
        fit_slope(sample, basis, tag, seed=seed)
    return calls


class TestLassoPath:
    def test_all_zero_at_lambda_max(self):
        rng = np.random.default_rng(0)
        x, y = random_design(rng)
        lmax = lambda_max(x, y)
        path = lasso_path(x, y, np.array([2.0 * lmax, lmax]))
        np.testing.assert_array_equal(path, 0.0)

    def test_lambda_zero_recovers_ols_on_orthogonal_design(self):
        rng = np.random.default_rng(1)
        # orthogonal columns emulate full-sample FPC scores
        q, _ = np.linalg.qr(rng.normal(size=(50, 4)))
        x = q * np.array([3.0, 2.0, 1.0, 0.5])
        y = rng.normal(size=50)
        ols = (x.T @ y) / np.sum(x**2, axis=0)
        path = lasso_path(x, y, np.array([0.0]))
        np.testing.assert_allclose(path[0], ols, atol=1e-10)

    def test_orthogonal_soft_threshold_oracle(self):
        # analytic solution under the objective sum (y - Xb)^2 + lam * |b|_1:
        # b_k = sign(c_k) * max(|c_k| - lam/2, 0) / (X'X)_kk with c = X'y
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(rng.normal(size=(60, 5)))
        x = q * rng.uniform(0.5, 4.0, size=5)
        y = rng.normal(size=60)
        c = x.T @ y
        diag = np.sum(x**2, axis=0)
        for lam in np.array([0.1, 0.5, 1.0]) * lambda_max(x, y):
            expected = np.sign(c) * np.maximum(np.abs(c) - lam / 2.0, 0.0) / diag
            got = lasso_path(x, y, np.array([lam]))[0]
            np.testing.assert_allclose(got, expected, atol=1e-8)

    def test_kkt_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x, y = random_design(rng, n=int(rng.integers(15, 50)), k=int(rng.integers(2, 7)))
            lambdas = lambda_grid(x, y, n_lambdas=7)
            path = lasso_path(x, y, lambdas)
            scale = max(1.0, lambda_max(x, y))
            for lam, beta in zip(lambdas, path):
                assert kkt_violation(x, y, beta, float(lam)) < 1e-6 * scale

    def test_exactly_tied_joins(self):
        # three columns with identical correlations join at one kink through
        # zero-length steps; the path is the soft-threshold solution
        x = np.vstack([np.eye(3), np.zeros((1, 3))])
        y = np.array([1.0, 1.0, -1.0, 0.5])
        mus = np.array([1.5, 1.0, 0.75, 0.5, 0.0])
        path = lasso_path(x, y, 2.0 * mus)
        expected = np.sign(x.T @ y) * np.maximum(1.0 - mus[:, None], 0.0)
        np.testing.assert_array_equal(path, expected)

    def test_path_piecewise_continuity(self):
        rng = np.random.default_rng(4)
        x, y = random_design(rng)
        lambdas = lambda_grid(x, y, n_lambdas=100)
        path = lasso_path(x, y, lambdas)
        steps = np.abs(np.diff(path, axis=0)).max(axis=1)
        assert np.max(steps) < 0.3 * (np.abs(path).max() + 1.0)

    def test_coefficient_crosses_zero_and_leaves_the_set(self):
        x, y = collinear_design(seed=3)
        lambdas = lambda_grid(x, y, n_lambdas=400)
        path = lasso_path(x, y, lambdas)
        j, lam_drop = first_drop(x, y)
        before = coefficients_at(x, y, lam_drop * (1.0 + 1e-6))[j]
        after = coefficients_at(x, y, lam_drop * (1.0 - 1e-6))
        assert before != 0.0 and after[j] == 0.0
        # the column later rejoins with the opposite sign
        rejoined = path[lambdas < lam_drop, j]
        assert np.any(np.sign(rejoined) == -np.sign(before))
        assert scaled_kkt(x, y, lambdas, path) <= 1e-9

    def test_join_drop_tie(self):
        # a fourth column built to join exactly where a coefficient drops: both
        # events share one kink, and the dropped column must stay free to rejoin
        x, y = collinear_design(seed=2)
        j, lam_drop = first_drop(x, y)
        resid = y - x @ coefficients_at(x, y, lam_drop)
        w = np.random.default_rng(2).normal(size=y.size)
        w -= w.mean() + (w @ resid) / (resid @ resid) * resid
        joiner = (lam_drop / 2.0) / (resid @ resid) * resid + 0.5 * w / np.linalg.norm(w)
        xa = np.column_stack([x, joiner])
        above = coefficients_at(xa, y, lam_drop * (1.0 + 1e-6))
        below = coefficients_at(xa, y, lam_drop * (1.0 - 1e-6))
        assert above[3] == 0.0 and above[j] != 0.0
        assert below[3] != 0.0 and below[j] == 0.0
        near = lam_drop * (1.0 + np.array([1e-9, 0.0, -1e-9]))
        lambdas = np.sort(np.concatenate([lambda_grid(xa, y, n_lambdas=100), near]))[::-1]
        path = lasso_path(xa, y, lambdas)
        assert scaled_kkt(xa, y, lambdas, path) <= 1e-9
        assert np.any(path[lambdas < lam_drop, j] != 0.0)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 60), k=st.integers(1, 8),
           collinearity=st.floats(0.0, 0.99))
    def test_property_kkt_on_the_path(self, seed, n, k, collinearity):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, k)) * rng.uniform(0.3, 3.0, size=k)
        x[:, -1] = collinearity * x[:, 0] + (1.0 - collinearity) * x[:, -1]
        x -= x.mean(axis=0)
        y = x @ rng.normal(size=k) * rng.uniform(0.0, 2.0) + rng.normal(size=n)
        y -= y.mean()
        if k >= n - 1:  # keep the Gram matrix nonsingular
            x = x[:, : n - 2]
        lambdas = lambda_grid(x, y, n_lambdas=50)
        assert scaled_kkt(x, y, lambdas, lasso_path(x, y, lambdas)) <= 1e-9

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            lasso_path(np.array([[1.0], [np.nan]]), np.ones(2), np.array([1.0]))

    def test_rejects_zero_column(self):
        x = np.column_stack([np.arange(5.0) - 2.0, np.zeros(5)])
        with pytest.raises(ValueError, match="zero column"):
            lasso_path(x, np.arange(5.0), np.array([1.0]))

    def test_penalties_in_any_order(self):
        x, y = collinear_design(seed=3)
        lambdas = lambda_grid(x, y, n_lambdas=60)
        descending = lasso_path(x, y, lambdas)
        perm = np.random.default_rng(0).permutation(lambdas.size)
        np.testing.assert_array_equal(lasso_path(x, y, lambdas[perm]), descending[perm])
        repeats = np.array([5, 0, 5, 59, 17, 17, 0, 59, 33])
        np.testing.assert_array_equal(lasso_path(x, y, lambdas[repeats]), descending[repeats])

    def test_batch_of_one_equals_batch_of_many(self):
        # a problem's rows do not depend on the problems it shares a batch with,
        # even when those take more steps or finish first
        problems = [collinear_design(seed) for seed in range(4)]
        problems.append(random_design(np.random.default_rng(8), n=30, k=3))
        grams = np.stack([x.T @ x for x, _ in problems])
        ctys = np.stack([x.T @ y for x, y in problems])
        tops = np.max(np.abs(ctys), axis=1)
        mus = lambda_grid(*problems[0], n_lambdas=80)[::-1] / 2.0
        batch = _exact_path(grams, ctys, mus, tops)
        for f in range(len(problems)):
            alone = _exact_path(grams[f:f + 1], ctys[f:f + 1], mus, tops[f:f + 1])[0]
            np.testing.assert_array_equal(batch[f], alone)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_members=st.integers(1, 12), k=st.integers(1, 7),
           integer=st.booleans(), duplicate=st.booleans(), zero_corr=st.integers(0, 3),
           collinearity=st.floats(0.0, 0.99),
           degenerate=st.sampled_from([None, *range(len(DEGENERATE_DROPS))]))
    def test_property_stack_matches_the_reference_bit_for_bit(
            self, seed, n_members, k, integer, duplicate, zero_corr, collinearity, degenerate):
        # small-integer designs tie correlations exactly, duplicated columns tie
        # for good, zeroed correlations start flat, collinear columns drop and
        # rejoin, a degenerate drop holds a coefficient at zero, and
        # power-of-two scales make members finish at other kinks
        rng = np.random.default_rng(seed)
        grams, ctys = [], []
        if degenerate is not None:
            xt, y = (np.array(a, dtype=float) for a in DEGENERATE_DROPS[degenerate])
            k = xt.shape[0]
            scale = 2.0 ** int(rng.integers(-4, 5))
            grams.append(scale * (xt @ xt.T))
            ctys.append(scale * (xt @ y))
        for _ in range(n_members):
            n = k + int(rng.integers(3, 20))
            if integer:
                x = rng.integers(-2, 3, size=(n, k)).astype(float)
                y = rng.integers(-3, 4, size=n).astype(float)
            else:
                x = rng.normal(size=(n, k)) * rng.uniform(0.3, 3.0, size=k)
                y = x @ rng.normal(size=k) + rng.normal(size=n)
            x[:, -1] = collinearity * x[:, 0] + (1.0 - collinearity) * x[:, -1]
            if duplicate and k > 1:
                x[:, 1] = x[:, 0]
            x[:, ~x.any(axis=0)] = 1.0
            cty = x.T @ y
            cty[rng.permutation(k)[:zero_corr]] = 0.0
            scale = 2.0 ** int(rng.integers(-4, 5))
            grams.append(scale * (x.T @ x))
            ctys.append(scale * cty)
        grams, ctys = np.stack(grams), np.stack(ctys)
        tops = np.max(np.abs(ctys), axis=1)
        mus = np.concatenate([rng.choice(tops, size=1) * np.geomspace(2.0, 1e-4, 40), [0.0]])
        mus = mus[rng.permutation(mus.size)[:int(rng.integers(1, mus.size + 1))]]

        def outcome(path):
            try:
                return path(grams, ctys, mus, tops).tobytes()
            except (np.linalg.LinAlgError, ValueError, ArithmeticError, RuntimeWarning) as exc:
                return type(exc)

        assert outcome(_exact_path) == outcome(reference_exact_path)


class TestLassoSelect:
    def test_single_component_truth(self):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.normal(size=(60, 5)))
        x = q * np.array([3.0, 2.0, 1.0, 0.7, 0.5])
        y = 2.0 * x[:, 0]
        support, _ = lasso_select(x, y, seed=0)
        assert support == (1,)

    def test_y_orthogonal_to_every_column_selects_the_first_without_cv(self, monkeypatch):
        # lambda_max is zero: no penalty is left to choose, so no path is followed
        monkeypatch.setattr(sofreg.lasso, "_exact_path", None)
        x = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        assert not np.any(x.T @ (y - y.mean()))
        assert lasso_select(x, y, seed=0) == ((1,), {"lambda": 0.0, "cv": None})

    def test_pure_noise_falls_back_to_first(self):
        rng = np.random.default_rng(6)
        hits = 0
        for seed in range(100):
            x = rng.normal(size=(40, 5))
            y = rng.normal(size=40)
            support, _ = lasso_select(x, y, seed=seed)
            hits += support == (1,)
        assert hits > 50

    def test_rich_slope_selects_multiple_components(self):
        # slope spread over many FPCs should keep two or more score columns
        from conftest import make_mar_dataset

        multi = 0
        for seed in range(10):
            sample, basis, y = make_mar_dataset(n=200, beta_id=1, eta=None, seed=seed)
            ytilde = y - y.mean()
            support, _ = lasso_select(basis.scores, ytilde, seed=seed)
            multi += len(support) >= 2
        assert multi >= 5

    @pytest.mark.parametrize("n,eta", [(50, 0.5), (100, 1.0), (200, 2.0)])
    def test_kkt_at_every_grid_lambda_of_every_fold(self, monkeypatch, n, eta):
        # first-stage SL designs and completed-response IL/WL second stages
        worst = 0.0
        for seed in range(3):
            calls = recorded_selections(monkeypatch, n, eta, seed)
            assert len(calls) == 5
            for design, y, fold_seed in calls:
                xc, yc = design - design.mean(axis=0), y - y.mean()
                lambdas = lambda_grid(xc, yc)
                folds = min(10, y.size)
                assignment = np.random.default_rng(fold_seed).permutation(y.size) % folds
                for f in range(folds):
                    train = assignment != f
                    xf = design[train] - design[train].mean(axis=0)
                    yf = y[train] - y[train].mean()
                    worst = max(worst, scaled_kkt(xf, yf, lambdas, lasso_path(xf, yf, lambdas)))
        assert worst <= 1e-9

    @pytest.mark.parametrize("n,eta", [(50, 0.5), (100, 1.0), (200, 2.0)])
    def test_batch_matches_fold_by_fold_reference(self, monkeypatch, n, eta):
        for seed in range(3):
            for design, y, fold_seed in recorded_selections(monkeypatch, n, eta, seed):
                support, diag = lasso_select(design, y, seed=fold_seed)
                ref_support, ref_lambda, ref_cv, ref_se = lasso_cv_reference(design, y, fold_seed)
                assert support == ref_support and diag["lambda"] == ref_lambda
                np.testing.assert_allclose(diag["cv"], ref_cv, rtol=1e-12)
                np.testing.assert_allclose(diag["cv_se"], ref_se, rtol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(10, 200),
           eta=st.sampled_from([None, 0.5, 2.0]))
    def test_property_score_designs_have_nonzero_orthogonal_columns(self, seed, n, eta):
        # lasso_select assumes no two design columns are equal; every design
        # fit_slope hands it is a block of FPC scores, which has none
        tags = ("CL",) if eta is None else ("SL", "IL", "WL")
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = recorded_selections(monkeypatch, n, eta, seed, tags)
        assert calls
        for design, _, _ in calls:
            norms = np.linalg.norm(design, axis=0)
            assert np.all(norms > 0.0)
            cos = np.abs(design.T @ design) / np.outer(norms, norms)
            np.fill_diagonal(cos, 0.0)
            assert cos.max() <= 1e-12

    def test_fewer_than_three_rows_are_refused(self):
        # two rows make two folds of one training row each, whose centred
        # columns are all zero
        with pytest.raises(ValueError, match="needs at least 3 rows, got 2"):
            lasso_select(np.array([[1.0, 0.5], [-1.0, 0.5]]), np.array([0.5, -0.5]), seed=0)

    def test_seed_determinism(self):
        rng = np.random.default_rng(7)
        x, y = random_design(rng, n=50)
        s1, d1 = lasso_select(x, y, seed=42)
        s2, d2 = lasso_select(x, y, seed=42)
        assert s1 == s2 and d1["lambda"] == d2["lambda"]
        np.testing.assert_array_equal(d1["cv"], d2["cv"])
