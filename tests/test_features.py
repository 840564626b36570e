import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from placescan import features
from placescan.core import MAX_RANGE_M, MIN_RANGE_M, NUM_BEAMS, pack
from placescan.errors import DegenerateFeatureError, InsufficientDataError
from placescan.features import (
    LAMBDA_TOL,
    FeatureTransformer,
    boxcox_apply,
    boxcox_inverse,
    boxcox_loglik,
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
    """The scalar golden-section maximum of f over [lo, hi]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
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
    """Oracle for the matrix fit: the scalar search on each column alone.
    The first maximum of `boxcox_loglik` over the coarse grid brackets the
    column's optimum; one scalar golden section per non-constant column
    then calls `boxcox_loglik` on that column alone."""
    grid = np.arange(-5.0, 5.0 + 0.1 / 2, 0.1)
    lambdas = np.ones(X.shape[1])
    for j in np.flatnonzero(np.ptp(X, axis=0) >= 1e-12):
        col = X[:, j]
        best = int(np.argmax([boxcox_loglik(col, lam) for lam in grid]))
        lo = grid[max(best - 1, 0)]
        hi = grid[min(best + 1, len(grid) - 1)]
        lambdas[j] = golden_section(lambda lam: boxcox_loglik(col, lam), lo, hi, tol)
    return lambdas


# column generators for the lockstep oracle property
COLUMN_KINDS = {
    "spread": lambda n, rng: rng.uniform(MIN_RANGE_M, MAX_RANGE_M, n),
    "lognormal": lambda n, rng: np.exp(rng.normal(0.0, rng.uniform(0.1, 2.0), n)),
    # a narrow skewed spread, which no exponent in [-5, 5] can straighten:
    # the optimum mostly sits at a grid end, in a bracket of width 0.1
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
    @example(_mixed(3, seed=3), LAMBDA_TOL, 1 << 17)  # optima at both grid ends
    @example(_mixed(3, seed=3), 1e-12, 1)
    @example(_mixed(120, seed=1), 1e-12, 4 * 120)
    # near-constant columns, on which (x^lam - 1)/lam cancels at the grid
    # point nearest zero (about -1.8e-14) and its log-likelihood spikes
    # above or dips below the curve; expm1(lam ln x)/lam keeps it on the
    # curve. Here the log-likelihood rises all the way to lam = 5,
    @example(np.array([[0.39667201, 0.39645461, 0.39602636]]).T, LAMBDA_TOL, 1 << 17)
    # here its maximum is the point nearest zero itself,
    @example(np.array([[0.41918197, 0.4471018, 0.41475459, 0.40018287, 0.44407324]]).T,
             LAMBDA_TOL, 1 << 17)
    # and here it is lam = 1.5, five points from the best coarse point, 2
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

    def test_grid_maximum_takes_at_most_29_kernel_calls(self):
        # a 96-row matrix is one block; a scan of all 101 grid points
        # would call the kernel 101 times before the golden section
        X = np.clip(generate_dataset(SimConfig.uniform(24, seed=3)).X, MIN_RANGE_M, None)
        grid = np.arange(-5.0, 5.0 + 0.1 / 2, 0.1)
        on_grid = []
        kernel = features._loglik_kernel

        def counting_kernel(rows):
            loglik = kernel(rows)

            def counted(lam, live):
                on_grid.append(bool(np.isin(lam, grid).all()))
                return loglik(lam, live)

            return counted

        with mock.patch.object(features, "_loglik_kernel", counting_kernel):
            lambdas = features._fit_lambdas(X)
        assert X.shape == (96, NUM_BEAMS)
        assert sum(on_grid) <= 29
        assert lambdas.tolist() == per_column_lambdas(X).tolist()

    def test_kernel_is_boxcox_loglik_at_zero_and_every_grid_point(self):
        # the grid never evaluates exactly 0 (its middle point is about
        # -1.8e-14), but a golden-section point may
        X = _mixed(40, seed=1)
        rows = np.ascontiguousarray(X.T)
        loglik = features._loglik_kernel(rows)
        every = np.arange(rows.shape[0])
        for lam in [0.0, *np.arange(-5.0, 5.0 + 0.1 / 2, 0.1)]:
            scalar = [boxcox_loglik(X[:, j], lam) for j in every]
            assert loglik(np.full(every.size, lam), every).tolist() == scalar, lam
        # and on a subset of rows, each with its own exponent
        live = np.array([4, 0, 2])
        lams = np.array([0.0, -1.25, 3.5])
        scalar = [boxcox_loglik(X[:, j], lam) for j, lam in zip(live, lams)]
        assert loglik(lams, live).tolist() == scalar

    def test_matrix_fit_is_the_scalar_fit_on_a_grid_near_tie(self):
        # two grid points' log-likelihoods nearly tie here, so an axis-0
        # grid, rounding differently from the 1-D column sums, picks the
        # other bracket
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
        for lam in (-1e-6, -1e-9, features._GRID[50], -1e-300, 1e-300, 1e-12, 1e-6):
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

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            lam = rng.uniform(-5.0, 5.0)
            x = rng.uniform(0.001, 30.0)
            y = boxcox_apply(x, lam)
            assert boxcox_inverse(y, lam) == pytest.approx(x, rel=1e-9)

    @settings(max_examples=500, deadline=None)
    @given(
        st.floats(MIN_RANGE_M, MAX_RANGE_M),
        st.one_of(st.just(0.0), st.floats(-5.0, 5.0)),
    )
    def test_inverse_round_trip_within_its_conditioning(self, x, lam):
        # Error model, one rounding of at most eps/2 per operation. With
        # z = lam ln x and u = x**lam = e**z, the forward pass rounds ln x
        # and z (relative eps to z, which expm1 passes on scaled by
        # z u/(u - 1)), then expm1 and the quotient by lam; the inverse
        # rounds lam*y. So w = lam*y, the exact u - 1, carries a relative
        # error of at most (|z u/(u - 1)| + 3/2) eps. log1p(w) = z moves by
        # w/(1 + w) times that, and dividing by lam moves ln x by
        # g = |u - 1|/(u |lam|) = |expm1(-z)/lam| times it: (|ln x| + 3g/2)
        # eps. g tends to |ln x| as lam -> 0, so the bound stays finite
        # there; it is large only at u << 1 (lam = 5, x = 0.001), where w
        # is -1 plus the few digits of u that survive. Rounding log1p, the
        # quotient and exp, and the test's two logs, add (2|ln x| + 1/2) eps.
        # Below the normal range lam*ln x and lam*y are subnormal, with an
        # absolute rounding of 2**-1075 each that the quotients by lam scale
        # up; that adds 2**-1074 (1 + |ln x|)/|lam|, at most 1 + |ln x|.
        # Twice the sum is eps (6|ln x| + 3g + 1) + 2**-1073 (1 + |ln x|)/|lam|.
        # The check allows the smaller of that and the bound it held for the
        # power form (lam*y + 1)**(1/lam), 2 eps (c/|lam| + 1 + |ln x|) with
        # c = 2 + 3|u - 1|/u, which grows as 1/|lam| near 0 but is the
        # smaller one at large |lam| and lam ln x > 0 (lam = 5, x = 30). At
        # lam = 0, exp(log x), it is 2 eps (1 + |ln x|), as before.
        eps = np.finfo(np.float64).eps
        ln_x = abs(math.log(x))
        u = math.pow(x, lam)
        cancel = 0.0 if lam == 0.0 else (2.0 + 3.0 * abs(u - 1.0) / u) / abs(lam)
        bound = 2.0 * eps * (cancel + 1.0 + ln_x)
        if lam != 0.0:
            g = abs(math.expm1(-lam * math.log(x)) / lam)
            subnormal = 2.0**-1073 * (1.0 + ln_x) / abs(lam)
            bound = min(bound, eps * (6.0 * ln_x + 3.0 * g + 1.0) + subnormal)
        back = boxcox_inverse(boxcox_apply(x, lam), lam)
        assert abs(math.log(back) - math.log(x)) <= bound

    @pytest.mark.parametrize("lam", [1e-17, features._GRID[50]])
    @pytest.mark.parametrize("x", [0.5, 7.0, 25.0])
    def test_inverse_near_zero_exponent(self, x, lam):
        # (lam*y + 1)**(1/lam) rounded lam*y away: 1.0 at lam = 1e-17, and
        # 0.50283, 6.98490, 24.99685 at the grid point nearest zero
        assert boxcox_inverse(boxcox_apply(x, lam), lam) == pytest.approx(x, rel=1e-14)

    def test_inverse_domain_violation_raises(self):
        # lam=2 maps (0, inf) to (-0.5, inf); -1 and its bound -0.5 are outside the image
        for y in (-1.0, -0.5):
            with pytest.raises(ValueError):
                boxcox_inverse(y, 2.0)


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
        assert np.array_equal(t.transform(v), t.transform(v))

    def test_too_few_rows(self):
        with pytest.raises(InsufficientDataError):
            fit_feature_transformer(self._training_matrix(n=2))

    def test_json_round_trip(self):
        t = fit_feature_transformer(self._training_matrix(seed=7))
        back = FeatureTransformer.from_dict(json.loads(json.dumps(t.to_dict(), default=pack)))
        for name in ("lambdas", "means", "stds"):
            a, b = getattr(t, name), getattr(back, name)
            assert (b.dtype, b.shape) == (a.dtype, a.shape) and np.array_equal(b, a), name
        assert back.epsilon == t.epsilon
