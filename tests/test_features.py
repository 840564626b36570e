import math

import numpy as np
import pytest

from placescan.core import NUM_BEAMS
from placescan.errors import DegenerateFeatureError, InsufficientDataError
from placescan.features import (
    FeatureTransformer,
    boxcox_apply,
    boxcox_inverse,
    boxcox_loglik,
    fit_boxcox_lambda,
    fit_feature_transformer,
)


def grid_search_lambda(samples, step=1e-3):
    """Exhaustive oracle: argmax of the same profile log-likelihood over a
    fixed grid, computed directly with vectorized powers."""
    samples = np.asarray(samples, dtype=np.float64)
    lams = np.arange(-5.0, 5.0 + step / 2, step)
    logx = np.log(samples)
    log_sum = logx.sum()
    n = samples.shape[0]
    best_lam, best_ll = None, -np.inf
    for chunk in np.array_split(lams, 40):
        t = np.where(
            chunk[:, None] == 0.0,
            logx[None, :],
            (np.power(samples[None, :], chunk[:, None]) - 1.0)
            / np.where(chunk[:, None] == 0.0, 1.0, chunk[:, None]),
        )
        var = t.var(axis=1)
        ll = -(n / 2.0) * np.log(var) + (chunk - 1.0) * log_sum
        i = int(np.argmax(ll))
        if ll[i] > best_ll:
            best_ll, best_lam = float(ll[i]), float(chunk[i])
    return best_lam


class TestBoxcoxApply:
    def test_lambda_one(self):
        assert boxcox_apply(3.0, 1.0) == pytest.approx(2.0)

    def test_lambda_zero(self):
        assert boxcox_apply(math.e, 0.0) == pytest.approx(1.0)

    def test_lambda_two(self):
        assert boxcox_apply(3.0, 2.0) == pytest.approx(4.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            boxcox_apply(0.0, 1.0)
        with pytest.raises(ValueError):
            boxcox_apply(-3.0, 0.5)

    def test_continuity_at_zero(self):
        for x in (0.01, 1.7, 29.0):
            assert boxcox_apply(x, 1e-9) == pytest.approx(math.log(x), abs=1e-6)

    def test_monotonic_in_x(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            lam = rng.uniform(-5.0, 5.0)
            a, b = sorted(rng.uniform(0.001, 30.0, 2))
            if a == b:
                continue
            assert boxcox_apply(a, lam) < boxcox_apply(b, lam)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            lam = rng.uniform(-5.0, 5.0)
            x = rng.uniform(0.001, 30.0)
            y = boxcox_apply(x, lam)
            assert boxcox_inverse(y, lam) == pytest.approx(x, rel=1e-9)

    def test_inverse_domain_violation_raises(self):
        # lam=2 maps (0, inf) to (-0.5, inf); -1 is outside the image
        with pytest.raises(ValueError):
            boxcox_inverse(-1.0, 2.0)


class TestFitLambda:
    def test_lognormal_gives_lambda_near_zero(self):
        rng = np.random.default_rng(1)
        samples = np.exp(rng.standard_normal(10_000))
        assert -0.1 <= fit_boxcox_lambda(samples) <= 0.1

    def test_shifted_normal_gives_lambda_near_one(self):
        rng = np.random.default_rng(1)
        samples = rng.standard_normal(10_000) + 10.0
        assert 0.5 <= fit_boxcox_lambda(samples) <= 1.5

    def test_matches_grid_oracle(self):
        for seed in range(50):
            rng = np.random.default_rng([77, seed])
            scale = rng.uniform(0.5, 5.0)
            samples = rng.gamma(rng.uniform(0.8, 5.0), scale, size=120)
            samples = np.clip(samples, 1e-3, None)
            fitted = fit_boxcox_lambda(samples)
            oracle = grid_search_lambda(samples)
            assert fitted == pytest.approx(oracle, abs=2e-3)

    def test_degenerate_samples(self):
        with pytest.raises(DegenerateFeatureError):
            fit_boxcox_lambda(np.full(10, 4.0))

    def test_too_few_samples(self):
        with pytest.raises(InsufficientDataError):
            fit_boxcox_lambda(np.array([1.0, 2.0]))


class TestFeatureTransformer:
    def _training_matrix(self, seed=0, n=40):
        rng = np.random.default_rng(seed)
        return rng.uniform(0.5, 25.0, size=(n, NUM_BEAMS))

    def test_training_set_standardized(self):
        X = self._training_matrix()
        t = fit_feature_transformer(X)
        Xt = t.transform_matrix(X)
        assert np.all(np.abs(Xt.mean(axis=0)) <= 1e-9)
        assert np.all(np.abs(Xt.var(axis=0) - 1.0) <= 1e-6)

    def test_constant_column(self):
        X = self._training_matrix(seed=1)
        X[:, 13] = 7.0
        t = fit_feature_transformer(X)
        assert t.lambdas[13] == 1.0
        assert t.stds[13] == 1e-12
        assert np.all(t.transform_matrix(X)[:, 13] == 0.0)

    def test_matches_per_column_fit_and_apply(self):
        # the matrix fit is the scalar fit and transform, column by column
        X = self._training_matrix(seed=6)
        X[:, :40] = np.exp(X[:, :40] / 10.0)
        X[:, 7] = 3.0
        t = fit_feature_transformer(X)
        columns = [j for j in range(NUM_BEAMS) if j != 7]
        assert [t.lambdas[j] for j in columns] == [fit_boxcox_lambda(X[:, j]) for j in columns]
        transformed = np.stack(
            [boxcox_apply(X[:, j], t.lambdas[j]) for j in range(NUM_BEAMS)], axis=1
        )
        assert np.array_equal(t.means, transformed.mean(axis=0))
        assert np.array_equal(t.stds, np.maximum(transformed.std(axis=0), 1e-12))

    def test_deterministic(self):
        X = self._training_matrix(seed=2)
        a = fit_feature_transformer(X)
        b = fit_feature_transformer(X)
        assert np.array_equal(a.lambdas, b.lambdas)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.stds, b.stds)

    def test_identity_lambda_is_affine(self):
        X = self._training_matrix(seed=3)
        t = FeatureTransformer(
            lambdas=np.ones(NUM_BEAMS),
            means=np.zeros(NUM_BEAMS),
            stds=np.ones(NUM_BEAMS),
        )
        assert np.allclose(t.transform_matrix(X), X - 1.0)

    def test_no_nan_inf_on_fuzzed_rows(self):
        X = self._training_matrix(seed=4)
        t = fit_feature_transformer(X)
        rng = np.random.default_rng(5)
        fuzz = rng.uniform(0.001, 30.0, size=(10_000, NUM_BEAMS))
        assert np.all(np.isfinite(t.transform_matrix(fuzz)))

    def test_pure_function(self):
        X = self._training_matrix(seed=6)
        t = fit_feature_transformer(X)
        v = X[0]
        assert np.array_equal(t.transform(v), t.transform(v))

    def test_too_few_rows(self):
        with pytest.raises(InsufficientDataError):
            fit_feature_transformer(self._training_matrix(n=2))

    def test_json_round_trip(self):
        t = fit_feature_transformer(self._training_matrix(seed=7))
        back = FeatureTransformer.from_dict(t.to_dict())
        assert np.array_equal(back.lambdas, t.lambdas)
        assert np.array_equal(back.means, t.means)
        assert np.array_equal(back.stds, t.stds)
