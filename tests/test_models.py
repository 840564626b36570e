import json

import numpy as np
import pytest

from placescan.classifiers import (
    VARIANTS,
    ModelSpec,
    dataset_fingerprint,
    default_params,
    load_model,
    model_from_json,
    model_to_json,
    predict_label,
    predict_proba,
    save_model,
    train,
)
from placescan.core import ClassLabel, Dataset, validate_scan
from placescan.errors import DegenerateTrainingError, DimensionError

FAST_PARAMS = {
    "rf": {"trees": 10},
    "adaboost": {"rounds": 10},
    "svm": {},
    "logreg": {"max_iter": 200},
    "mlp": {"epochs": 3},
    "cnn": {"epochs": 2},
}


def _accuracy(model, data):
    proba = model.predict_proba_matrix(data.feature_matrix())
    return float(np.mean(proba.argmax(axis=1) == data.label_vector()))


class TestModelSpec:
    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown variant"):
            ModelSpec(variant="boosted_trees")

    def test_unknown_hyperparameter_rejected(self):
        with pytest.raises(ValueError, match="unknown hyperparameters"):
            ModelSpec(variant="rf", params={"n_estimators": 5})
        # the trainer's seed argument comes from ModelSpec.seed only
        with pytest.raises(ValueError, match="unknown hyperparameters"):
            ModelSpec(variant="mlp", params={"seed": 1})

    def test_default_params_pinned(self):
        assert {v: default_params(v) for v in VARIANTS} == {
            "rf": {"trees": 100, "max_depth": 100, "features_per_split": 16,
                   "bootstrap": True},
            "adaboost": {"rounds": 200},
            "svm": {"C": 1.0, "degree": 3, "coef0": 0.0, "gamma": None, "tol": 1e-3},
            "logreg": {"l2": 1e-4, "max_iter": 2000, "grad_tol": 1e-6},
            "mlp": {"epochs": 30, "batch_size": 32, "lr": 0.01, "dropout": 0.5},
            "cnn": {"epochs": 30, "batch_size": 32, "lr": 0.01, "dropout": 0.25},
        }

    def test_resolved_params_merge_defaults(self):
        spec = ModelSpec(variant="rf", params={"trees": 7})
        merged = spec.resolved_params()
        assert merged["trees"] == 7
        assert merged["max_depth"] == 100


class TestTrain:
    def test_single_class_data_raises(self, synth_small):
        corridors = synth_small.subset(synth_small.y == ClassLabel.corridor)
        with pytest.raises(DegenerateTrainingError):
            train(ModelSpec(variant="logreg"), corridors)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_each_variant_beats_chance_on_train(self, synth_small, variant):
        model = train(
            ModelSpec(variant=variant, seed=3, params=FAST_PARAMS[variant]),
            synth_small,
        )
        assert _accuracy(model, synth_small) > 0.25
        assert model.metadata["train_fingerprint"] == dataset_fingerprint(synth_small)

    def test_unconverged_logreg_is_recorded(self, synth_small):
        model = train(ModelSpec(variant="logreg", params={"max_iter": 1}), synth_small)
        assert model.metadata["converged"] is False

    def test_training_is_deterministic(self, synth_small):
        spec = ModelSpec(variant="rf", seed=5, params={"trees": 8})
        a = train(spec, synth_small)
        b = train(spec, synth_small)
        X = synth_small.feature_matrix()
        assert np.array_equal(a.predict_proba_matrix(X), b.predict_proba_matrix(X))


class TestPredict:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_probabilities_on_simplex(self, synth_small, variant):
        model = train(
            ModelSpec(variant=variant, seed=4, params=FAST_PARAMS[variant]),
            synth_small,
        )
        proba = model.predict_proba_matrix(synth_small.feature_matrix())
        assert np.all(proba >= 0)
        assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_predict_label_matches_argmax(self, synth_small):
        model = train(ModelSpec(variant="logreg", seed=6), synth_small)
        scan = validate_scan(synth_small.X[0])
        proba = predict_proba(model, scan)
        assert predict_label(model, scan) == ClassLabel(int(np.argmax(proba)))

    def test_wrong_feature_width_raises(self, synth_small):
        model = train(ModelSpec(variant="logreg", seed=6), synth_small)
        with pytest.raises(DimensionError):
            model.predict_proba_matrix(np.ones((1, 100)))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_batch_imputes_like_validate_scan(self, synth_small, variant):
        model = train(
            ModelSpec(variant=variant, seed=4, params=FAST_PARAMS[variant]),
            synth_small,
        )
        raw = synth_small.feature_matrix()[:4].copy()
        for row, value in enumerate([np.nan, np.inf, -np.inf, -1.0]):
            raw[row, [0, 100, 270]] = value
        scans = [validate_scan(row) for row in raw]
        batch = model.predict_proba_matrix(raw)
        assert np.all(np.isfinite(batch))
        assert np.array_equal(
            batch, model.predict_proba_matrix(np.stack([s.ranges for s in scans]))
        )
        single = np.stack([predict_proba(model, s) for s in scans])
        assert np.allclose(batch, single, rtol=1e-9, atol=1e-12)

    def test_single_scan_wrapper_agrees_with_matrix(self, synth_small):
        model = train(ModelSpec(variant="rf", seed=6, params={"trees": 5}),
                      synth_small)
        scan = validate_scan(synth_small.X[3])
        direct = model.predict_proba_matrix(np.array(scan.ranges)[None, :])[0]
        assert np.array_equal(predict_proba(model, scan), direct)


class TestSerialization:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_round_trip_preserves_predictions(self, synth_small, tmp_path, variant):
        model = train(
            ModelSpec(variant=variant, seed=7, params=FAST_PARAMS[variant]),
            synth_small,
        )
        path = tmp_path / f"{variant}.json"
        save_model(model, path)
        back = load_model(path)
        X = synth_small.feature_matrix()
        assert np.allclose(
            model.predict_proba_matrix(X), back.predict_proba_matrix(X), atol=1e-12
        )
        assert back.spec == model.spec
        assert back.metadata == model.metadata
        # files from before the class count became a constant carry it
        document = json.loads(model_to_json(model))
        document["payload"]["num_classes"] = 4
        legacy = model_from_json(json.dumps(document))
        assert np.array_equal(legacy.predict_proba_matrix(X), back.predict_proba_matrix(X))

    def test_bad_format_version_rejected(self, synth_small):
        model = train(ModelSpec(variant="logreg", seed=8), synth_small)
        text = model_to_json(model).replace('"format_version": 1', '"format_version": 99')
        with pytest.raises(ValueError, match="format version"):
            model_from_json(text)


class TestFingerprint:
    def test_sensitive_to_any_change(self, synth_small):
        base = dataset_fingerprint(synth_small)
        bumped = synth_small.feature_matrix()
        bumped[0, 0] += 0.01
        changed = Dataset(X=bumped, y=synth_small.y, heights=synth_small.heights)
        assert dataset_fingerprint(changed) != base

    def test_stable_across_calls(self, synth_small):
        assert dataset_fingerprint(synth_small) == dataset_fingerprint(synth_small)
