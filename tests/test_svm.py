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
from placescan.core import NUM_BEAMS, ClassLabel
from placescan.simulate import SimConfig, generate_dataset


def project_box_hyperplane(alpha, y, C):
    """Euclidean projection onto {0 <= a <= C, y.a = 0} by bisection on the
    hyperplane multiplier."""
    lo, hi = -(np.max(np.abs(alpha)) + C + 1.0), np.max(np.abs(alpha)) + C + 1.0
    for _ in range(200):
        nu = (lo + hi) / 2.0
        a = np.clip(alpha - nu * y, 0.0, C)
        if float(y @ a) > 0.0:
            lo = nu
        else:
            hi = nu
    return np.clip(alpha - (lo + hi) / 2.0 * y, 0.0, C)


def projected_gradient_qp(K, y, C, iters=40_000):
    """Independent dense QP oracle for the SVM dual."""
    Q = (y[:, None] * y[None, :]) * K
    lipschitz = float(np.linalg.eigvalsh(Q).max())
    step = 1.0 / max(lipschitz, 1e-12)
    alpha = project_box_hyperplane(np.zeros_like(y, dtype=float), y, C)
    for _ in range(iters):
        grad = 1.0 - Q @ alpha
        new = project_box_hyperplane(alpha + step * grad, y, C)
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
            oracle = projected_gradient_qp(K, y, C=1.0)
            smo_obj = dual_objective(K, y, alpha)
            qp_obj = dual_objective(K, y, oracle)
            assert abs(smo_obj - qp_obj) <= 1e-4, (seed, smo_obj, qp_obj)
            viol = kkt_violations(K, y, alpha, b, C=1.0)
            assert float(viol.max()) <= 1e-2, (seed, viol.max())


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
        back = SvmModel.from_dict(model.to_dict())
        probe = rng.normal(size=(10, 3))
        assert np.allclose(model.predict_proba(probe), back.predict_proba(probe))

    def test_missing_class_model_file_round_trip(self):
        # the absent class's machine keeps no support vectors
        data = generate_dataset(SimConfig.uniform(6, seed=3))
        three = data.subset(data.y != ClassLabel.restroom)
        model = train(ModelSpec(variant="svm"), three)
        assert model.payload.support_vectors[ClassLabel.restroom].shape == (0, NUM_BEAMS)
        back = model_from_json(model_to_json(model))
        assert back.payload.support_vectors[ClassLabel.restroom].shape == (0, NUM_BEAMS)
        X = data.feature_matrix()
        assert np.array_equal(back.predict_proba_matrix(X), model.predict_proba_matrix(X))
