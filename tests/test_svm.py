import functools
import json

import numpy as np
import pytest

from placescan.classifiers import ModelSpec, model_from_json, model_to_json, train
from placescan.classifiers.svm import (
    SvmModel,
    default_gamma,
    dual_objective,
    poly_kernel,
    smo_solve,
    train_svm,
)
from placescan.core import NUM_BEAMS, NUM_CLASSES, ClassLabel, pack, restore, stored
from placescan.features import fit_feature_transformer
from placescan.simulate import SimConfig, generate_dataset


def project_box_hyperplane(alpha, y, C):
    """Euclidean projection onto {0 <= a <= C, y.a = 0} by bisection on the
    hyperplane multiplier: the oracle of `project_by_breakpoints`."""
    lo, hi = -(np.max(np.abs(alpha)) + C + 1.0), np.max(np.abs(alpha)) + C + 1.0
    for _ in range(200):
        nu = (lo + hi) / 2.0
        a = np.clip(alpha - nu * y, 0.0, C)
        if float(y @ a) > 0.0:
            lo = nu
        else:
            hi = nu
    return np.clip(alpha - (lo + hi) / 2.0 * y, 0.0, C)


def project_by_breakpoints(alpha, y, C):
    """Euclidean projection onto {0 <= a <= C, y.a = 0}, labels y of +-1.

    The projection is clip(alpha - nu y, 0, C) at the root nu of
    g(nu) = y.clip(alpha - nu y, 0, C), which is continuous, non-increasing
    and linear between its 2n breakpoints alpha_i y_i and (alpha_i - C) y_i.
    g is evaluated at the sorted breakpoints, and its root interpolated
    between the two that bracket it (Kiwiel, "Breakpoint searching
    algorithms for the continuous quadratic knapsack problem", 2008)."""
    nus = np.sort(np.concatenate([alpha * y, (alpha - C) * y]))
    g = np.clip(alpha - nus[:, None] * y, 0.0, C) @ y
    j = np.flatnonzero(g >= 0.0)[-1]  # g is C * (positives) >= 0 at nus[0]
    nu = nus[j]
    if g[j] > 0.0 and j + 1 < nus.size:
        nu += g[j] * (nus[j + 1] - nus[j]) / (g[j] - g[j + 1])
    return np.clip(alpha - nu * y, 0.0, C)


def projected_gradient_qp(K, y, C, iters=40_000):
    """Independent dense QP oracle for the SVM dual."""
    Q = (y[:, None] * y[None, :]) * K
    lipschitz = float(np.linalg.eigvalsh(Q).max())
    step = 1.0 / max(lipschitz, 1e-12)
    alpha = project_by_breakpoints(np.zeros_like(y, dtype=float), y, C)
    for _ in range(iters):
        grad = 1.0 - Q @ alpha
        new = project_by_breakpoints(alpha + step * grad, y, C)
        if np.max(np.abs(new - alpha)) < 1e-12:
            alpha = new
            break
        alpha = new
    return alpha


def kkt_violations(K, y, alpha, b, C):
    decision = K @ (alpha * y) + b
    margin = y * decision
    viol = np.zeros_like(alpha)
    at_zero = alpha <= 1e-9
    at_cap = alpha >= C - 1e-9
    free = ~at_zero & ~at_cap
    viol[at_zero] = np.maximum(0.0, 1.0 - margin[at_zero])
    viol[free] = np.abs(margin[free] - 1.0)
    viol[at_cap] = np.maximum(0.0, margin[at_cap] - 1.0)
    return viol


def _toy_problem(seed):
    rng = np.random.default_rng([33, seed])
    n = int(rng.integers(8, 21))
    X = rng.normal(size=(n, 2))
    y = np.where(X[:, 0] + 0.4 * rng.normal(size=n) > 0, 1.0, -1.0)
    if np.all(y == y[0]):
        y[0] = -y[0]
    K = poly_kernel(X, X, gamma=0.5, coef0=1.0, degree=3)
    return K, y


@functools.lru_cache(maxsize=None)
def oracle_alpha(seed):
    """The QP oracle's solution of _toy_problem(seed) at C = 1, solved once."""
    alpha = projected_gradient_qp(*_toy_problem(seed), C=1.0)
    alpha.setflags(write=False)
    return alpha


class TestQpOracle:
    def test_breakpoint_projection_matches_bisection(self):
        rng = np.random.default_rng(19)
        for n in (2, 3, 8, 20):
            for _ in range(40):
                y = rng.permutation(np.r_[1.0, -1.0, rng.choice([-1.0, 1.0], n - 2)])
                C = float(rng.uniform(0.1, 3.0))
                # box points, some on its faces, and points far outside it
                alpha = rng.choice([0.0, C, *rng.uniform(-3.0 * C, 4.0 * C, 3)], size=n)
                exact = project_by_breakpoints(alpha, y, C)
                assert np.max(np.abs(exact - project_box_hyperplane(alpha, y, C))) <= 1e-12
                assert exact.min() >= 0.0 and exact.max() <= C and abs(y @ exact) <= 1e-12


class TestPolyKernel:
    def test_zero_vectors(self):
        z = np.zeros((1, 4))
        assert poly_kernel(z, z, gamma=1.0, coef0=0.0, degree=3)[0, 0] == 0.0

    def test_linear_case(self):
        x = np.array([[1.0, 1.0]])
        assert poly_kernel(x, x, gamma=1.0, coef0=1.0, degree=1)[0, 0] == pytest.approx(3.0)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 7))
        K = poly_kernel(X, X, gamma=0.3, coef0=1.0, degree=3)
        assert np.max(np.abs(K - K.T)) <= 1e-12

    def test_default_gamma(self):
        X = np.ones((5, 10)) + np.arange(5)[:, None]
        assert default_gamma(X) == pytest.approx(1.0 / (10 * X.var()))


class TestSmo:
    def test_two_point_symmetry(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([-1.0, 1.0])
        K = poly_kernel(X, X, gamma=1.0, coef0=0.0, degree=1)
        alpha, b, converged = smo_solve(K, y, C=1.0)
        assert converged
        assert alpha[0] == pytest.approx(alpha[1], abs=1e-9)
        # decision value at x = 0 is exactly the bias
        assert b == pytest.approx(0.0, abs=1e-6)

    def test_separable_toy_matches_qp_oracle(self):
        X = np.array(
            [[-2.0, 0.0], [-1.5, 1.0], [-1.0, -1.0], [-2.5, 0.5],
             [2.0, 0.0], [1.5, -1.0], [1.0, 1.0], [2.5, -0.5]]
        )
        y = np.array([-1.0] * 4 + [1.0] * 4)
        K = poly_kernel(X, X, gamma=0.5, coef0=1.0, degree=3)
        alpha, b, converged = smo_solve(K, y, C=1.0)
        oracle = projected_gradient_qp(K, y, C=1.0)
        assert converged
        assert dual_objective(K, y, alpha) == pytest.approx(
            dual_objective(K, y, oracle), abs=1e-4
        )

    def test_twenty_seeded_problems_vs_oracle(self):
        for seed in range(20):
            K, y = _toy_problem(seed)
            alpha, b, converged = smo_solve(K, y, C=1.0)
            oracle = oracle_alpha(seed)
            smo_obj = dual_objective(K, y, alpha)
            qp_obj = dual_objective(K, y, oracle)
            assert abs(smo_obj - qp_obj) <= 1e-4, (seed, smo_obj, qp_obj)
            viol = kkt_violations(K, y, alpha, b, C=1.0)
            assert float(viol.max()) <= 1e-2, (seed, viol.max())

    def test_one_vs_rest_machines_meet_kkt_on_beam_data(self):
        # the KKT conditions certify the optimum of the convex dual
        data = generate_dataset(SimConfig.uniform(8, seed=5))
        Xt = fit_feature_transformer(data.X).transform_matrix(data.X)
        K = poly_kernel(Xt, Xt, default_gamma(Xt))
        for c in range(NUM_CLASSES):
            y = np.where(data.y == c, 1.0, -1.0)
            alpha, b, converged = smo_solve(K, y)
            assert converged, c
            assert float(kkt_violations(K, y, alpha, b, C=1.0).max()) <= 1e-2, c

    def test_zero_curvature_pairs_terminate(self):
        # every row has a twin with the opposite label: K_ii + K_jj - 2 K_ij = 0
        rng = np.random.default_rng(4)
        X = rng.normal(size=(6, 2))
        X = np.vstack([X, X])
        y = np.array([1.0, -1.0] * 3 + [-1.0, 1.0] * 3)
        K = poly_kernel(X, X, gamma=0.5, coef0=1.0, degree=3)
        alpha, _, converged = smo_solve(K, y, C=1.0)
        assert converged
        assert np.all((alpha >= 0.0) & (alpha <= 1.0))
        assert abs(float(alpha @ y)) <= 1e-12

    def test_bound_limited_steps_land_exactly_on_the_box(self):
        C = 0.3
        K, y = _toy_problem(3)
        alpha, _, converged = smo_solve(K, y, C=C)
        assert converged
        assert np.any(alpha == C) and np.any(alpha == 0.0)
        near = (alpha < 1e-9) | (alpha > C - 1e-9)
        assert np.all((alpha[near] == 0.0) | (alpha[near] == C))

    def test_iteration_cap_reports_unconverged(self, monkeypatch):
        import placescan.classifiers.svm as svm

        monkeypatch.setattr(svm, "MAX_ITER", 1)
        monkeypatch.setattr(svm, "MAX_ITER_PER_ROW", 0)
        K, y = _toy_problem(0)
        alpha, _, converged = smo_solve(K, y, C=1.0)
        assert not converged
        assert np.count_nonzero(alpha) == 2

    def test_kernel_that_is_not_finite_is_refused_before_the_loop(self, monkeypatch):
        import placescan.classifiers.svm as svm

        monkeypatch.setattr(svm, "MAX_ITER", 10)  # a missing check fails fast
        K, y = _toy_problem(0)
        K[2, 3] = K[3, 2] = np.inf
        with pytest.raises(ValueError, match="kernel matrix is not finite"):
            smo_solve(K, y, C=1.0)

    @pytest.mark.parametrize(
        "params", [{"gamma": 1e300}, {"gamma": 1.0, "degree": 400}], ids=["gamma", "degree"]
    )
    def test_hyperparameters_that_overflow_the_kernel_are_refused(self, params, monkeypatch):
        import placescan.classifiers.svm as svm

        monkeypatch.setattr(svm, "MAX_ITER", 10)  # a missing check fails fast
        X = np.random.default_rng(0).normal(size=(40, NUM_BEAMS))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="kernel matrix is not finite"):
            train_svm(X, np.arange(40) % NUM_CLASSES, **params)


class TestTrainSvm:
    def test_one_vs_rest_fits_simple_clusters(self):
        rng = np.random.default_rng(1)
        centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [4.0, 4.0]])
        X = np.vstack([c + 0.3 * rng.normal(size=(15, 2)) for c in centers])
        y = np.repeat(np.arange(4), 15)
        model = train_svm(X, y)
        acc = float(np.mean(model.predict_proba(X).argmax(axis=1) == y))
        assert acc >= 0.95
        assert all(model.converged)

    def test_probabilities_on_simplex(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 3))
        y = rng.integers(0, 4, size=40)
        model = train_svm(X, y)
        proba = model.predict_proba(rng.normal(size=(25, 3)))
        assert np.all(proba >= 0)
        assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_serialization_round_trip(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(24, 3))
        y = rng.integers(0, 4, size=24)
        model = train_svm(X, y)
        back = restore(SvmModel, json.loads(json.dumps(stored(model), default=pack)))
        for name in ("support_vectors", "coefficients", "biases"):
            a, b = getattr(model, name), getattr(back, name)
            assert (b.dtype, b.shape) == (a.dtype, a.shape) and np.array_equal(b, a), name
        assert back.converged == model.converged
        probe = rng.normal(size=(10, 3))
        assert np.array_equal(model.predict_proba(probe), back.predict_proba(probe))

    @pytest.mark.parametrize("degree", [0, -3, 2.5, True, np.int64(3)])
    def test_degree_must_be_a_positive_int(self, degree):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="degree"):
            train_svm(rng.normal(size=(8, 3)), np.arange(8) % 4, degree=degree)

    def test_one_support_vector_matrix_for_the_four_machines(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, 3))
        y = rng.integers(0, 4, size=40)
        model = train_svm(X, y)
        m = model.support_vectors.shape[0]
        assert model.coefficients.shape == (m, NUM_CLASSES)
        assert model.biases.shape == (NUM_CLASSES,)
        # a row is kept only if it supports some machine
        assert np.all(np.any(model.coefficients != 0.0, axis=1))
        for row in model.support_vectors:
            assert np.flatnonzero(np.all(X == row, axis=1)).size == 1

    def test_decision_values_match_a_per_machine_oracle(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(50, 4))
        y = rng.integers(0, 4, size=50)
        model = train_svm(X, y, degree=2, coef0=0.5)
        # every machine skips some rows of the union
        assert np.all(np.any(model.coefficients == 0.0, axis=0))
        probe = rng.normal(size=(30, 4))
        oracle = np.empty((30, NUM_CLASSES))
        for c in range(NUM_CLASSES):
            on = model.coefficients[:, c] != 0.0
            K = poly_kernel(probe, model.support_vectors[on], model.gamma, 0.5, 2)
            oracle[:, c] = K @ model.coefficients[on, c] + model.biases[c]
        assert np.allclose(model.decision_values(probe), oracle, rtol=0.0, atol=1e-12)

    def test_missing_class_model_file_round_trip(self):
        # the absent class's machine has a zero coefficient column, so its
        # decision is its bias, -1, exactly
        data = generate_dataset(SimConfig.uniform(6, seed=3))
        three = data.subset(data.y != ClassLabel.restroom)
        model = train(ModelSpec(variant="svm"), three)
        X = data.feature_matrix()
        for payload in (model.payload, model_from_json(model_to_json(model)).payload):
            assert payload.support_vectors.shape[1] == NUM_BEAMS
            assert not np.any(payload.coefficients[:, ClassLabel.restroom])
            assert payload.biases[ClassLabel.restroom] == -1.0
            Xt = model.transformer.transform_matrix(X)
            assert np.all(payload.decision_values(Xt)[:, ClassLabel.restroom] == -1.0)
        back = model_from_json(model_to_json(model))
        assert np.array_equal(back.predict_proba_matrix(X), model.predict_proba_matrix(X))

    def test_version_4_file_is_refused(self):
        # version 4 stored one support-vector matrix per machine
        data = generate_dataset(SimConfig.uniform(6, seed=3))
        document = json.loads(model_to_json(train(ModelSpec(variant="svm"), data)))
        with pytest.raises(ValueError, match="version 4; .* so retrain the model"):
            model_from_json(json.dumps({**document, "format_version": 4}))
