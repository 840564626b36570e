import hashlib
import inspect
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from placescan.classifiers import (
    MODEL_FORMAT_VERSION,
    VARIANTS,
    ModelSpec,
    dataset_fingerprint,
    default_params,
    load_model,
    model_from_json,
    model_to_json,
    predict_label,
    predict_proba,
    _trainer,
    save_model,
    train,
)
from placescan.classifiers.nets import build_mlp, train_network
from placescan.core import NUM_BEAMS, NUM_CLASSES, ClassLabel, Dataset, validate_scan
from placescan.dataset_io import write_dataset
from placescan.errors import DegenerateTrainingError, DimensionError
from placescan.features import fit_feature_transformer
from placescan.hyperparams import Domain
from placescan.simulate import SimConfig, generate_dataset

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
            "mlp": {"epochs": 30, "batch_size": 32, "lr": 0.001, "dropout": 0.5},
            "cnn": {"epochs": 30, "batch_size": 32, "lr": 0.01, "dropout": 0.25},
        }

    def test_resolved_params_merge_defaults(self):
        spec = ModelSpec(variant="rf", params={"trees": 7})
        merged = spec.resolved_params()
        assert merged["trees"] == 7
        assert merged["max_depth"] == 100


def _declared(variant: str) -> dict:
    """name -> (declared domain or None, default) of each keyword-only
    argument of the variant's trainer."""
    return {
        p.name: (getattr(p.annotation, "__metadata__", [None])[0], p.default)
        for p in inspect.signature(_trainer(variant), eval_str=True).parameters.values()
        if p.kind is p.KEYWORD_ONLY
    }


_NUMBERS_OUTSIDE = st.one_of(  # refused by every numeric domain
    st.booleans(), st.text(max_size=3), st.sampled_from([math.nan, math.inf, -math.inf]),
)
_NEGATIVE = st.one_of(st.integers(max_value=-1), st.floats(max_value=-1e-9))
_NON_INTEGRAL = st.floats(-1e6, 1e6).filter(lambda v: not v.is_integer())

# values outside each domain, keyed by its description: the contract stated
# a second time, independently of the code that enforces it
_OUTSIDE = {
    "an integer >= 1": st.one_of(_NUMBERS_OUTSIDE, st.none(), _NEGATIVE, _NON_INTEGRAL,
                                 st.sampled_from([0, 0.0, 1.0, 2.0])),
    "None or an integer >= 1": st.one_of(_NUMBERS_OUTSIDE, _NEGATIVE, _NON_INTEGRAL,
                                         st.sampled_from([0, 0.0, 1.0, 2.0])),
    "an integer >= 0": st.one_of(_NUMBERS_OUTSIDE, st.none(), _NEGATIVE, _NON_INTEGRAL,
                                 st.sampled_from([0.0, 1.0])),
    "a finite real > 0": st.one_of(_NUMBERS_OUTSIDE, st.none(), _NEGATIVE,
                                   st.sampled_from([0, 0.0])),
    "None or a finite real > 0": st.one_of(_NUMBERS_OUTSIDE, _NEGATIVE,
                                           st.sampled_from([0, 0.0])),
    "a finite real": st.one_of(_NUMBERS_OUTSIDE, st.none()),
    "a finite real >= 0": st.one_of(_NUMBERS_OUTSIDE, st.none(), _NEGATIVE),
    "a real in [0, 1)": st.one_of(_NUMBERS_OUTSIDE, st.none(), _NEGATIVE,
                                  st.integers(min_value=1), st.floats(1.0, 1e6)),
    "a bool": st.one_of(st.integers(), st.floats(), st.text(max_size=3), st.none()),
}
_SEED = "an integer >= 0"
_ARGUMENTS = [(v, name) for v in VARIANTS for name in ("seed", *default_params(v))]


class TestHyperparameterContract:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_argument_declares_a_domain_holding_its_default(self, variant):
        for name, (domain, default) in _declared(variant).items():
            if name == "seed":
                assert domain is None or domain.what == _SEED
                continue
            assert isinstance(domain, Domain), (variant, name)
            assert domain.contains(default), (variant, name, default)
            assert domain.what in _OUTSIDE, (variant, name, domain.what)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_out_of_domain_value_is_refused_naming_owner_and_argument(self, data):
        variant, name = data.draw(st.sampled_from(_ARGUMENTS))
        declared = _declared(variant)
        what = _SEED if name == "seed" else declared[name][0].what
        value = data.draw(_OUTSIDE[what], label=f"{variant} {name}")
        spec_args = {"seed": value} if name == "seed" else {"params": {name: value}}
        with pytest.raises(ValueError, match=rf"^{variant} {name} must be "):
            ModelSpec(variant, **spec_args)
        if name in declared:
            # on no rows, a check that is missing fails fast instead of training
            fit = _trainer(variant)
            with pytest.raises(ValueError, match=rf"^{fit.__name__} {name} must be "):
                fit(np.empty((0, NUM_BEAMS)), np.empty(0, dtype=np.int64), **{name: value})


class TestTrain:
    def test_single_class_data_raises(self, synth_small):
        corridors = synth_small.subset(synth_small.y == ClassLabel.corridor)
        with pytest.raises(DegenerateTrainingError):
            train(ModelSpec(variant="logreg"), corridors)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_trainer_refuses_zero_rows(self, variant):
        fit = _trainer(variant)
        with pytest.raises(ValueError, match=rf"^{fit.__name__} needs at least one training row"):
            fit(np.empty((0, NUM_BEAMS)), np.empty(0, dtype=np.int64))

    @pytest.mark.parametrize("labels", [(24,), (20, 1)])
    @pytest.mark.parametrize("variant", [*VARIANTS, "train_network"])
    def test_trainer_refuses_labels_that_are_not_one_per_row(self, variant, labels):
        X = np.random.default_rng(0).normal(size=(20, NUM_BEAMS))
        y = np.arange(math.prod(labels)).reshape(labels) % NUM_CLASSES
        if variant == "train_network":
            fit, args = train_network, (build_mlp(np.random.default_rng(0), widths=(4,)), X, y)
        else:
            fit, args = _trainer(variant), (X, y)
        with pytest.raises(ValueError, match=rf"^{fit.__name__} needs one label per row"):
            fit(*args)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_each_variant_beats_chance_on_train(self, synth_small, variant):
        model = train(
            ModelSpec(variant=variant, seed=3, params=FAST_PARAMS[variant]),
            synth_small,
        )
        assert _accuracy(model, synth_small) > 0.25
        assert model.metadata["train_fingerprint"] == dataset_fingerprint(synth_small)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_given_transformer_gives_the_same_model(self, synth_small, variant):
        spec = ModelSpec(variant=variant, seed=3, params=FAST_PARAMS[variant])
        shared = fit_feature_transformer(synth_small.X)
        assert model_to_json(train(spec, synth_small, shared)) == model_to_json(
            train(spec, synth_small)
        )

    @pytest.mark.parametrize("variant", ["mlp", "cnn"])
    def test_dropout_of_one_is_rejected(self, synth_small, variant):
        # a rate of 1 would zero every unit and predict NaN
        with pytest.raises(ValueError, match=rf"^{variant} dropout must be a real in \[0, 1\)"):
            train(ModelSpec(variant=variant, params={"dropout": 1.0}), synth_small)

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


@pytest.fixture(scope="module")
def fast_models(synth_small):
    """Every variant trained once on the 60-row set at FAST_PARAMS budgets."""
    return {v: train(ModelSpec(v, params=FAST_PARAMS[v]), synth_small) for v in VARIANTS}


_SCAN_VALUES = st.one_of(
    st.floats(0.0, 30.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([np.nan, np.inf, -np.inf, -1.0, 0.0, 1e9]),
)


class TestSimplex:
    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 4), st.just(NUM_BEAMS)), elements=_SCAN_VALUES))
    def test_probability_rows_for_any_scan(self, fast_models, scans):
        for variant, model in fast_models.items():
            proba = model.predict_proba_matrix(scans)
            assert proba.shape == (scans.shape[0], NUM_CLASSES), variant
            assert np.all(np.isfinite(proba)) and np.all(proba >= 0.0), variant
            assert np.allclose(proba.sum(axis=1), 1.0, rtol=0.0, atol=1e-9), variant

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_zero_rows_give_zero_probability_rows(self, fast_models, variant):
        proba = fast_models[variant].predict_proba_matrix(np.zeros((0, NUM_BEAMS)))
        assert proba.shape == (0, NUM_CLASSES)


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
        assert np.array_equal(model.predict_proba_matrix(X), back.predict_proba_matrix(X))
        assert back.spec == model.spec
        assert back.metadata == model.metadata
        # files from before the class count became a constant carry it
        document = json.loads(model_to_json(model))
        document["payload"]["num_classes"] = 4
        legacy = model_from_json(json.dumps(document))
        assert np.array_equal(legacy.predict_proba_matrix(X), back.predict_proba_matrix(X))

    def test_bad_format_version_rejected(self, synth_small):
        model = train(ModelSpec(variant="logreg", seed=8), synth_small)
        document = json.loads(model_to_json(model))
        assert document["format_version"] == MODEL_FORMAT_VERSION
        # files written before trees became flat arrays carry version 1
        for version in (1, MODEL_FORMAT_VERSION - 1, MODEL_FORMAT_VERSION + 1, None):
            text = json.dumps({**document, "format_version": version})
            with pytest.raises(ValueError, match=f"format version {version};"):
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

    def test_pinned_digest(self):
        # model files record this digest as their train_fingerprint, so a
        # change of writer must leave the CSV byte for byte as it was
        assert dataset_fingerprint(generate_dataset(SimConfig.uniform(15, seed=7))) == (
            "1399a728499dae7c0841899cfcfb28e950bf0747576e07d54d49c325036cc36b"
        )

    @staticmethod
    def _csv_digest(data):
        buf = io.StringIO()
        write_dataset(data, buf)
        return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()

    def test_digest_of_the_canonical_csv_once_per_dataset(self, synth_small, monkeypatch):
        fresh = synth_small.subset(np.arange(len(synth_small)))
        first = dataset_fingerprint(fresh)
        assert first == self._csv_digest(fresh)
        # the digest is kept: a second call writes no CSV
        monkeypatch.setattr("placescan.classifiers.write_dataset", None)
        assert dataset_fingerprint(fresh) == first

    @pytest.mark.parametrize("heights", ["all", "none", "some"])
    def test_streamed_digest_is_the_csv_digest(self, synth_small, heights):
        kept = {"all": synth_small.heights, "none": None,
                "some": np.where(synth_small.y == 1, np.nan, synth_small.heights)}[heights]
        data = Dataset(X=synth_small.X, y=synth_small.y, heights=kept)
        assert dataset_fingerprint(data) == self._csv_digest(data)

    def test_subset_gets_its_own_digest(self, synth_small):
        base = dataset_fingerprint(synth_small)
        part = synth_small.subset(np.arange(0, len(synth_small), 2))
        assert dataset_fingerprint(part) == self._csv_digest(part) != base
        assert dataset_fingerprint(synth_small) == base
