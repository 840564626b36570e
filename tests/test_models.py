import gc
import hashlib
import inspect
import io
import json
import math
import re
import sys
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from placescan import classifiers
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
from placescan.classifiers import svm
from placescan.classifiers.nets import build_mlp, train_network
from placescan.classifiers.trees import fit_tree
from placescan.core import NUM_BEAMS, NUM_CLASSES, ClassLabel, Dataset, validate_scan
from placescan.dataset_io import write_dataset
from placescan.errors import DegenerateTrainingError, DimensionError, UnknownLabelError
from placescan.features import FeatureTransformer
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


# every trainer that takes a training set: the six variants', the network
# loop the neural variants share, and the tree fit the forest and boosting share
_REFUSERS = [*VARIANTS, "train_network", "fit_tree"]


def _refuser(variant: str, X, y):
    """The name of the trainer `variant` names, and a call of it on the
    training set X, y at budgets small enough that a missing check fails fast."""
    if variant == "train_network":
        net = build_mlp(np.random.default_rng(0), widths=(4,))
        return "train_network", lambda: train_network(net, X, y, epochs=2)
    if variant == "fit_tree":
        return "fit_tree", lambda: fit_tree(X, y)
    fit = _trainer(variant)
    return fit.__name__, lambda: fit(X, y, **FAST_PARAMS[variant])


@pytest.fixture(scope="module")
def shared_fit_models(synth_small):
    """Every variant trained on one fresh Dataset at FAST_PARAMS budgets: the
    Dataset, the model files, and the Box-Cox fits and further transforms made."""
    data = synth_small.subset(np.arange(len(synth_small)))
    fits, transforms = [], []
    fit, transform = classifiers.fit_and_transform, FeatureTransformer.transform_matrix

    def spy_fit(X):
        fits.append(X.shape)
        return fit(X)

    def spy_transform(self, X):
        transforms.append(X.shape)
        return transform(self, X)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classifiers, "fit_and_transform", spy_fit)
        patch.setattr(FeatureTransformer, "transform_matrix", spy_transform)
        files = {v: model_to_json(train(ModelSpec(variant=v, seed=3, params=FAST_PARAMS[v]), data))
                 for v in VARIANTS}
    return data, files, fits, transforms


class TestTrain:
    def test_single_class_data_raises(self, synth_small):
        corridors = synth_small.subset(synth_small.y == ClassLabel.corridor)
        with pytest.raises(DegenerateTrainingError):
            train(ModelSpec(variant="logreg"), corridors)

    @pytest.mark.parametrize("variant", _REFUSERS)
    def test_trainer_refuses_zero_rows(self, variant):
        name, fit = _refuser(variant, np.empty((0, NUM_BEAMS)), np.empty(0, dtype=np.int64))
        with pytest.raises(ValueError, match=rf"^{name} needs at least one training row"):
            fit()

    @pytest.mark.parametrize("labels", [(24,), (20, 1)])
    @pytest.mark.parametrize("variant", _REFUSERS)
    def test_trainer_refuses_labels_that_are_not_one_per_row(self, variant, labels):
        X = np.random.default_rng(0).normal(size=(20, NUM_BEAMS))
        y = np.arange(math.prod(labels)).reshape(labels) % NUM_CLASSES
        name, fit = _refuser(variant, X, y)
        with pytest.raises(ValueError, match=rf"^{name} needs one label per row"):
            fit()

    @pytest.mark.parametrize(
        "features, error, message",
        [
            (lambda X: np.where(X > 1, np.nan, X), ValueError, "finite features"),
            (lambda X: np.where(X > 1, np.inf, X), ValueError, "finite features"),
            (lambda X: X + 1j, ValueError, "real-valued features"),
            (lambda X: X > 0, ValueError, "real-valued features"),
            (lambda X: X[:, 0], DimensionError, "a 2-D training matrix"),
            (lambda X: X[:, None, :], DimensionError, "a 2-D training matrix"),
            (lambda X: X[:, :0], DimensionError, "at least one feature column"),
        ],
        ids=["nan", "inf", "complex", "bool", "1-D", "3-D", "no-columns"],
    )
    @pytest.mark.parametrize("variant", _REFUSERS)
    def test_trainer_refuses_features_that_are_not_a_finite_real_matrix(
        self, variant, features, error, message, monkeypatch
    ):
        monkeypatch.setattr(svm, "MAX_ITER", 100)  # a missing check fails fast
        X = np.random.default_rng(0).normal(size=(20, NUM_BEAMS))
        name, fit = _refuser(variant, features(X), np.arange(20) % NUM_CLASSES)
        with pytest.raises(error, match=rf"^{name} needs {message}"):
            fit()

    @pytest.mark.parametrize(
        "labels",
        [[0, 1, 2, 7], [0, 1, 2, -1], [0.0, 1.0, 2.0, 0.5], ["0", "1", "2", "3"],
         [True, False, True, False]],
        ids=["seven", "negative", "half", "digit-strings", "bools"],
    )
    @pytest.mark.parametrize("variant", _REFUSERS)
    def test_trainer_refuses_labels_that_are_not_class_indices(self, variant, labels, monkeypatch):
        monkeypatch.setattr(svm, "MAX_ITER", 100)  # a missing check fails fast
        X = np.random.default_rng(0).normal(size=(20, NUM_BEAMS))
        _, fit = _refuser(variant, X, np.array(labels * 5))
        with pytest.raises(UnknownLabelError, match="class indices"):
            fit()

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_each_variant_beats_chance_on_train(self, synth_small, variant):
        model = train(
            ModelSpec(variant=variant, seed=3, params=FAST_PARAMS[variant]),
            synth_small,
        )
        assert _accuracy(model, synth_small) > 0.25
        assert model.metadata["train_fingerprint"] == dataset_fingerprint(synth_small)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_variants_on_one_dataset_share_one_box_cox_fit(self, shared_fit_models, variant):
        data, files, fits, transforms = shared_fit_models
        # the fit's own Box-Cox matrix is standardised: no second transform
        assert fits == [(len(data), NUM_BEAMS)] and transforms == []
        # the model is the one a Dataset of its own gives
        alone = data.subset(np.arange(len(data)))
        spec = ModelSpec(variant=variant, seed=3, params=FAST_PARAMS[variant])
        assert model_to_json(train(spec, alone)) == files[variant]

    def test_concurrent_callers_share_one_fit(self, synth_small, monkeypatch):
        data = synth_small.subset(np.arange(len(synth_small)))
        fits = []
        fit = classifiers.fit_and_transform

        def slow_fit(X):
            fits.append(X.shape)
            time.sleep(0.05)  # long enough for every other thread to ask
            return fit(X)

        monkeypatch.setattr(classifiers, "fit_and_transform", slow_fit)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                futures = [pool.submit(classifiers._memo, data, classifiers._fit)
                           for _ in range(16)]
                results = [future.result(timeout=30) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert len(fits) == 1
        assert all(result is results[0] for result in results)

    def test_box_cox_memo_is_read_only_and_goes_with_its_dataset(self, synth_small):
        data = synth_small.subset(np.arange(len(synth_small)))
        model = train(ModelSpec(variant="logreg", params={"max_iter": 5}), data)
        transformer, Xt = classifiers._MEMO[data][classifiers._fit]
        assert transformer is model.transformer
        assert np.array_equal(Xt, transformer.transform_matrix(data.X))
        with pytest.raises(ValueError, match="read-only"):
            Xt[0, 0] = 0.0
        entries = len(classifiers._MEMO)
        data_ref, xt_ref = weakref.ref(data), weakref.ref(Xt)
        del data, transformer, Xt
        gc.collect()
        assert data_ref() is None and xt_ref() is None
        assert len(classifiers._MEMO) <= entries - 1

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

    @pytest.mark.parametrize(
        "rows, error",
        [
            (np.ones((1, 100)), DimensionError),
            (np.ones(NUM_BEAMS - 1), DimensionError),
            (np.full((2, NUM_BEAMS), 5.0 + 0.5j), ValueError),
            (np.full((2, NUM_BEAMS), "5.0"), ValueError),
            ([["5.0"] * NUM_BEAMS], ValueError),
        ],
    )
    def test_rows_that_are_not_real_271_beam_rows_raise(self, fast_models, rows, error):
        for model in fast_models.values():
            with pytest.raises(error):
                model.predict_proba_matrix(rows)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_more_than_two_dimensions_raise(self, fast_models, variant):
        with pytest.raises(DimensionError, match=r"got shape \(2, 271, 271\)"):
            fast_models[variant].predict_proba_matrix(np.ones((2, NUM_BEAMS, NUM_BEAMS)))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_batch_imputes_like_validate_scan(self, synth_small, variant):
        model = train(
            ModelSpec(variant=variant, seed=4, params=FAST_PARAMS[variant]),
            synth_small,
        )
        raw = synth_small.feature_matrix()[:5].copy()
        for row, value in enumerate([np.nan, np.inf, -np.inf, -1.0, 45.0]):
            raw[row, [0, 100, 270]] = value
        scans = [validate_scan(row) for row in raw]
        batch = model.predict_proba_matrix(raw)
        assert np.all(np.isfinite(batch))
        assert np.array_equal(batch, model.predict_proba_matrix(np.stack(scans)))
        single = np.stack([predict_proba(model, s) for s in scans])
        assert np.allclose(batch, single, rtol=1e-9, atol=1e-12)

    def test_single_scan_wrapper_agrees_with_matrix(self, synth_small):
        model = train(ModelSpec(variant="rf", seed=6, params={"trees": 5}),
                      synth_small)
        scan = validate_scan(synth_small.X[3])
        direct = model.predict_proba_matrix(scan[None, :])[0]
        assert np.array_equal(predict_proba(model, scan), direct)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_raw_row_predicts_as_its_validated_scan(self, fast_models, synth_small, variant):
        model = fast_models[variant]
        raw = synth_small.feature_matrix()[7]
        raw[[0, 1, 2, 135, 270]] = np.nan, np.inf, -1.0, np.nan, -1.0
        expected = predict_proba(model, validate_scan(raw))
        assert predict_proba(model, raw).tobytes() == expected.tobytes()
        assert predict_proba(model, raw.tolist()).tobytes() == expected.tobytes()
        assert predict_label(model, raw) == ClassLabel(int(np.argmax(expected)))
        assert np.isnan(raw[0]) and raw.flags.writeable  # left as the caller's

    @pytest.mark.parametrize("shape", [(1, NUM_BEAMS), (2, NUM_BEAMS), (NUM_BEAMS - 1,)])
    def test_single_scan_takes_exactly_one_row(self, fast_models, shape):
        with pytest.raises(DimensionError, match=r"^expected 1-D rows of 271 beams, got shape "
                                                 + re.escape(str(shape))):
            predict_proba(fast_models["rf"], np.full(shape, 5.0))


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


_NODE_KEYS = {"roots", "feature", "threshold", "left", "right", "value"}
_NETWORK_KEYS = {"builder", "args", "theta"}
# each variant's payload keys, with the keys of its nested sections
_PAYLOAD_KEYS = {
    "rf": {"trees": _NODE_KEYS},
    "adaboost": {"stumps": _NODE_KEYS, "alphas": None},
    "svm": dict.fromkeys(
        ("support_vectors", "coefficients", "biases", "converged", "gamma", "coef0", "degree")),
    "logreg": dict.fromkeys(("W", "b", "converged")),
    "mlp": {**dict.fromkeys(_NETWORK_KEYS),
            "args": {"n_in", "widths", "dropout_after", "dropout_rate"}},
    "cnn": {**dict.fromkeys(_NETWORK_KEYS),
            "args": {"length", "filters", "kernel", "pool", "dense_widths", "dropout_rate"}},
}


def _reversed_keys(node):
    """`node` with the keys of every JSON object in it in reverse order."""
    if isinstance(node, dict):
        return {key: _reversed_keys(node[key]) for key in reversed(node)}
    return node


class TestSerialization:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_section_keys_are_pinned(self, fast_models, variant):
        document = json.loads(model_to_json(fast_models[variant]))
        assert set(document) == {"format_version", "spec", "transformer", "payload", "metadata"}
        assert set(document["spec"]) == {"variant", "seed", "params"}
        assert set(document["transformer"]) == {"lambdas", "means", "stds"}
        assert set(document["metadata"]) == {"seed", "converged", "params", "train_fingerprint"}
        payload = document["payload"]
        assert set(payload) == set(_PAYLOAD_KEYS[variant])
        for key, nested in _PAYLOAD_KEYS[variant].items():
            if nested is not None:
                assert set(payload[key]) == nested, key

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_key_order_does_not_matter(self, fast_models, synth_small, variant):
        model = fast_models[variant]
        document = json.loads(model_to_json(model))
        back = model_from_json(json.dumps(_reversed_keys(document)))
        X = synth_small.feature_matrix()
        assert np.array_equal(back.predict_proba_matrix(X), model.predict_proba_matrix(X))
        assert json.loads(model_to_json(back)) == document

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
