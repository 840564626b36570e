import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from placescan import features
from placescan.core import (
    MAX_RANGE_M, MIN_RANGE_M, NUM_BEAMS, pack, restore, stored, validate_scan,
)
from placescan.errors import DegenerateFeatureError, DimensionError, InsufficientDataError
from placescan.features import (
    LAMBDA_TOL,
    FeatureTransformer,
    boxcox_apply,
    boxcox_loglik,
    fit_and_transform,
    fit_boxcox_lambda,
    fit_feature_transformer,
)
from placescan.simulate import SimConfig, generate_dataset


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


def golden_section(f, lo, hi, tol):
    """The scalar golden-section maximum of f over [lo, hi], in the fixed
    number of steps that narrows hi - lo, by 0.618 per step, below tol."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    steps, width = 0, hi - lo
    while width > tol:
        steps, width = steps + 1, width * inv_phi
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(steps):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def per_column_lambdas(X, tol=LAMBDA_TOL):
    """Oracle for the matrix fit: the scalar search on each column alone,
    one golden section over [-5, 5] per non-constant column, calling
    `boxcox_loglik` on that column alone."""
    lambdas = np.ones(X.shape[1])
    for j in np.flatnonzero(np.ptp(X, axis=0) >= 1e-12):
        col = X[:, j]
        lambdas[j] = golden_section(lambda lam: boxcox_loglik(col, lam), -5.0, 5.0, tol)
    return lambdas


# column generators for the lockstep oracle property
COLUMN_KINDS = {
    "spread": lambda n, rng: rng.uniform(MIN_RANGE_M, MAX_RANGE_M, n),
    "lognormal": lambda n, rng: np.exp(rng.normal(0.0, rng.uniform(0.1, 2.0), n)),
    # a narrow skewed spread, which no exponent in [-5, 5] can straighten:
    # the optimum mostly sits at an end of [-5, 5]
    "low_end": lambda n, rng: rng.uniform(0.2, 5.0) * (1.0 + 1e-3 * rng.exponential(1.0, n)),
    "high_end": lambda n, rng: rng.uniform(0.2, 5.0) * (
        1.0 - 1e-3 * np.minimum(rng.exponential(1.0, n), 5.0)),
    "ties": lambda n, rng: 0.5 * rng.integers(1, 5, n),
    "constant": lambda n, rng: np.full(n, rng.uniform(0.2, 5.0)),
}


@st.composite
def positive_matrices(draw):
    n = draw(st.integers(3, 160))
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMN_KINDS)), min_size=1, max_size=10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.stack([COLUMN_KINDS[kind](n, rng) for kind in kinds], axis=1)


def _mixed(n, seed=0):
    rng = np.random.default_rng(seed)
    return np.stack([COLUMN_KINDS[kind](n, rng) for kind in sorted(COLUMN_KINDS)], axis=1)


# tolerances: the default, and finer ones, where the search runs on until
# c and d are so close that a last-bit change in a log-likelihood flips them
TOLERANCES = st.sampled_from([LAMBDA_TOL, 1e-8, 1e-12])


class TestLockstepSearch:
    @settings(max_examples=150, deadline=None)
    @given(positive_matrices(), TOLERANCES, st.integers(1, 2000))
    @example(_mixed(3, seed=3), LAMBDA_TOL, 1 << 17)  # optima at both range ends
    @example(_mixed(3, seed=3), 1e-12, 1)
    @example(_mixed(120, seed=1), 1e-12, 4 * 120)
    # near-constant columns, on which (x^lam - 1)/lam cancels near lam = 0
    # (at -1.8e-14, say) and its log-likelihood spikes above or dips below
    # the curve; expm1(lam ln x)/lam keeps it on the curve. Here the
    # log-likelihood rises all the way to lam = 5,
    @example(np.array([[0.39667201, 0.39645461, 0.39602636]]).T, LAMBDA_TOL, 1 << 17)
    # here its maximum lies next to zero,
    @example(np.array([[0.41918197, 0.4471018, 0.41475459, 0.40018287, 0.44407324]]).T,
             LAMBDA_TOL, 1 << 17)
    # and here it is about 1.52
    @example(np.array([[1.54384474, 1.70184039, 1.83984796]]).T, LAMBDA_TOL, 1 << 17)
    def test_equals_the_per_column_search(self, X, tol, block_elements):
        # block widths from one column up to the whole matrix
        with (mock.patch.object(features, "_BLOCK_ELEMENTS", block_elements),
              mock.patch.object(features, "LAMBDA_TOL", tol)):
            lockstep = features._fit_lambdas(X)
        assert lockstep.tolist() == per_column_lambdas(X, tol).tolist()

    @settings(max_examples=60, deadline=None)
    @given(positive_matrices(), TOLERANCES)
    @example(_mixed(3, seed=3)[:, 1:2], 1e-12)
    def test_single_column_through_fit_boxcox_lambda(self, X, tol):
        col = X[:, 0]
        if np.ptp(col) < 1e-12:
            return
        with mock.patch.object(features, "LAMBDA_TOL", tol):
            fitted = fit_boxcox_lambda(col)
        assert fitted == per_column_lambdas(X[:, :1], tol)[0]

    def test_a_96_row_fit_takes_26_kernel_calls(self):
        # a 96-row matrix is one block; every column takes the 24 steps that
        # narrow [-5, 5] below 1e-4, after the first two points
        X = np.clip(generate_dataset(SimConfig.uniform(24, seed=3)).X, MIN_RANGE_M, None)
        calls = []
        kernel = features._loglik_kernel

        def counting_kernel(rows):
            loglik = kernel(rows)

            def counted(lam):
                calls.append(lam.shape)
                return loglik(lam)

            return counted

        with mock.patch.object(features, "_loglik_kernel", counting_kernel):
            lambdas = features._fit_lambdas(X)
        assert X.shape == (96, NUM_BEAMS)
        columns = int(np.count_nonzero(np.ptp(X, axis=0) >= 1e-12))
        assert calls == [(columns,)] * 26
        assert lambdas.tolist() == per_column_lambdas(X).tolist()

    @pytest.mark.parametrize("tol, steps", [(1e-2, 15), (LAMBDA_TOL, 24), (1e-6, 34)])
    def test_steps_are_the_fewest_that_narrow_the_range_below_the_tolerance(self, tol, steps):
        inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
        assert 10.0 * inv_phi**steps < tol <= 10.0 * inv_phi ** (steps - 1)
        calls = []
        kernel = features._loglik_kernel

        def counting_kernel(rows):
            loglik = kernel(rows)
            return lambda lam: calls.append(lam.size) or loglik(lam)

        with (mock.patch.object(features, "_loglik_kernel", counting_kernel),
              mock.patch.object(features, "LAMBDA_TOL", tol)):
            features._fit_lambdas(_mixed(40, seed=2))
        # the first two points, then one per step
        assert len(calls) == steps + 2

    def test_kernel_is_boxcox_loglik_at_zero_and_every_grid_point(self):
        # exactly 0, and the 101 points -5, -4.9, ..., 5, whose middle one
        # is about -1.8e-14
        X = _mixed(40, seed=1)
        rows = np.ascontiguousarray(X.T)
        loglik = features._loglik_kernel(rows)
        every = range(rows.shape[0])
        for lam in [0.0, *np.arange(-5.0, 5.0 + 0.1 / 2, 0.1)]:
            scalar = [boxcox_loglik(X[:, j], lam) for j in every]
            assert loglik(np.full(len(every), lam)).tolist() == scalar, lam
        # and each row at its own exponent
        lams = np.array([0.0, -1.25, 3.5, 0.0, 1e-300, -5.0])
        assert loglik(lams).tolist() == [boxcox_loglik(X[:, j], lams[j]) for j in every]

    def test_matrix_fit_is_the_scalar_fit_on_a_grid_near_tie(self):
        # two exponents' log-likelihoods nearly tie here, so sums over
        # axis 0, rounding differently from the 1-D column sums, would move
        # the search to the other side
        z = np.random.default_rng(0).standard_normal(96)
        x = np.exp(0.2803290429080087 * z) + 0.3
        lambdas = fit_feature_transformer(np.tile(x[:, None], (1, NUM_BEAMS))).lambdas
        assert lambdas.tolist() == [fit_boxcox_lambda(x)] * NUM_BEAMS

    def test_narrow_skewed_columns_reach_both_grid_ends(self):
        X = _mixed(40, seed=1)
        kinds = sorted(COLUMN_KINDS)
        lambdas = features._fit_lambdas(X)
        assert lambdas[kinds.index("low_end")] < -4.9
        assert lambdas[kinds.index("high_end")] > 4.9
        assert lambdas[kinds.index("constant")] == 1.0

    def test_simulated_folds_equal_the_per_column_search(self):
        X = np.clip(generate_dataset(SimConfig.uniform(24, seed=3)).X, MIN_RANGE_M, None)
        assert features._fit_lambdas(X).tolist() == per_column_lambdas(X).tolist()

    def test_peak_memory_stays_under_the_matrix(self):
        # a 2,000-row simulated matrix: the fit works in blocks of about a
        # megabyte, and the transform writes one matrix in place
        X = np.clip(generate_dataset(SimConfig.uniform(500, seed=1)).X, MIN_RANGE_M, None)
        lambdas = features._fit_lambdas(X)
        lambdas[::50] = 0.0

        def peak(f, *args):
            tracemalloc.start()
            try:
                f(*args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(features._fit_lambdas, X) <= 1.0 * X.nbytes
        assert peak(features._boxcox_columns, X, lambdas) <= 1.1 * X.nbytes
        # the clipped copy and the Box-Cox matrix, then that matrix and the
        # temporary of its standard deviation
        assert peak(fit_and_transform, X) <= 2.1 * X.nbytes


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

    def test_no_cancellation_near_zero(self):
        # expm1(z)/lam = ln x (1 + z/2 + z^2/6 + ...) with z = lam ln x, and
        # |z| <= 7e-6 here, so the next term is below 1e-16 relative; the
        # grid's middle point is about -1.8e-14, not 0
        eps = np.finfo(np.float64).eps
        x = np.geomspace(0.001, 30.0, 401)
        lnx = np.log(x)
        for lam in (-1e-6, -1e-9, -1.7763568394002505e-14, -1e-300, 1e-300, 1e-12, 1e-6):
            z = lam * lnx
            series = lnx * (1.0 + z / 2.0 + z * z / 6.0)
            assert np.all(np.abs(boxcox_apply(x, lam) - series) <= 4 * eps * np.abs(lnx)), lam

    def test_monotonic_in_x(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            lam = rng.uniform(-5.0, 5.0)
            a, b = sorted(rng.uniform(0.001, 30.0, 2))
            if a == b:
                continue
            assert boxcox_apply(a, lam) < boxcox_apply(b, lam)


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

    def test_near_constant_column_fits_the_grid_end(self):
        # its log-likelihood rises over the whole of [-5, 5]
        assert fit_boxcox_lambda([0.39667201, 0.39645461, 0.39602636]) == pytest.approx(
            5.0, abs=LAMBDA_TOL)

    def test_lists_and_arrays_agree(self):
        samples = [1.0, 2.0, 3.0, 5.5]
        array = np.array(samples)
        assert boxcox_loglik(samples, 0.5) == boxcox_loglik(array, 0.5)
        assert boxcox_apply(samples, 0.5).tolist() == boxcox_apply(array, 0.5).tolist()
        assert fit_boxcox_lambda(samples) == fit_boxcox_lambda(array)

    def test_degenerate_samples(self):
        with pytest.raises(DegenerateFeatureError):
            fit_boxcox_lambda(np.full(10, 4.0))

    def test_too_few_samples(self):
        with pytest.raises(InsufficientDataError):
            fit_boxcox_lambda(np.array([1.0, 2.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_raise(self, bad):
        # a NaN fitted 1.0 and an inf -5 before they were refused; -inf is
        # refused as non-finite before the positivity check sees it
        with pytest.raises(ValueError, match="must be finite"):
            fit_boxcox_lambda([1.0, 2.0, bad, 4.0])


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

    def test_columns_transform_is_boxcox_apply_per_column(self):
        X = self._training_matrix(seed=5)
        lambdas = np.random.default_rng(5).uniform(-5.0, 5.0, NUM_BEAMS)
        lambdas[::7] = 0.0
        expected = np.stack([boxcox_apply(X[:, j], lam) for j, lam in enumerate(lambdas)], axis=1)
        assert np.array_equal(features._boxcox_columns(X, lambdas), expected)

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
        first = t.transform_matrix(v)
        assert first.shape == (1, NUM_BEAMS)
        assert np.array_equal(first, t.transform_matrix(v))
        assert np.array_equal(first, t.transform_matrix(X)[:1])

    def test_imputes_raw_rows_as_validate_scan_does(self):
        X = self._training_matrix(seed=10)
        t = fit_feature_transformer(X)
        raw = X[:5].copy()
        for row, value in enumerate([math.nan, math.inf, -math.inf, -1.0, 45.0]):
            raw[row, [0, 100, 270]] = value
        before = raw.copy()
        imputed = np.stack([validate_scan(row) for row in raw])
        Xt = t.transform_matrix(raw)
        assert Xt.tobytes() == t.transform_matrix(imputed).tobytes()
        assert np.all(np.isfinite(Xt))
        assert raw.flags.writeable and raw.tobytes() == before.tobytes()

    @pytest.mark.parametrize(
        "rows, error",
        [
            (np.full((2, NUM_BEAMS), 5.0 + 1.0j), ValueError),
            (np.full((2, NUM_BEAMS), "5.0"), ValueError),
            (np.full((2, NUM_BEAMS), 5.0, dtype=object), ValueError),
            (np.full((2, NUM_BEAMS), True), ValueError),
            (np.full((2, NUM_BEAMS - 1), 5.0), DimensionError),
            (np.full(NUM_BEAMS + 1, 5.0), DimensionError),
            (np.full((2, 2, NUM_BEAMS), 5.0), DimensionError),
            (5.0, DimensionError),
        ],
    )
    def test_rows_that_are_not_real_271_beam_rows_raise(self, rows, error):
        t = fit_feature_transformer(self._training_matrix(seed=11))
        with pytest.raises(error):
            t.transform_matrix(rows)

    def test_too_few_rows(self):
        with pytest.raises(InsufficientDataError):
            fit_feature_transformer(self._training_matrix(n=2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rows_raise(self, bad):
        X = self._training_matrix(seed=8)
        X[3, 100] = bad
        with pytest.raises(ValueError, match="feature values must be finite"):
            fit_feature_transformer(X)

    def test_fit_and_transform_is_fit_then_transform_matrix(self):
        X = self._training_matrix(seed=9)
        X[:, 13] = 7.0
        X[:5, 20] = 1e-6  # below the sensor floor, so clipped
        X[5:9, 21] = 45.0  # beyond the sensor's range, so clipped to it
        t, Xt = fit_and_transform(X)
        alone = fit_feature_transformer(X)
        clipped = fit_feature_transformer(np.clip(X, MIN_RANGE_M, MAX_RANGE_M))
        for name in ("lambdas", "means", "stds"):
            assert np.array_equal(getattr(t, name), getattr(alone, name)), name
            assert np.array_equal(getattr(t, name), getattr(clipped, name)), name
        assert Xt.tobytes() == alone.transform_matrix(X).tobytes()

    def test_json_round_trip(self):
        t = fit_feature_transformer(self._training_matrix(seed=7))
        back = restore(FeatureTransformer, json.loads(json.dumps(stored(t), default=pack)))
        for name in ("lambdas", "means", "stds"):
            a, b = getattr(t, name), getattr(back, name)
            assert (b.dtype, b.shape) == (a.dtype, a.shape) and np.array_equal(b, a), name
