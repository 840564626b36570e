"""Uniform train/predict contract over the six classifier variants.

Every variant is one `_VARIANTS` row: a trainer and a payload class. The
trainer is called as `fit(Xt, y, **params)` on Box-Cox standardised rows;
its keyword-only arguments are the variant's hyperparameters and their
defaults, plus `seed` if it draws random numbers. The payload it returns
provides `predict_proba(Xt)`, `to_dict()` and the `from_dict(payload)`
classmethod used by the model-file codec.
"""
from __future__ import annotations

import hashlib
import inspect
import io
import json
from dataclasses import dataclass, field

import numpy as np

from ..core import NUM_BEAMS, ClassLabel, Dataset, Scan, impute_ranges
from ..dataset_io import write_dataset
from ..errors import DegenerateTrainingError, DimensionError
from ..features import FeatureTransformer, fit_feature_transformer
from . import boosting, linear, nets, svm, trees

MODEL_FORMAT_VERSION = 1

# variant -> (trainer module, trainer name, payload class). The trainer is
# looked up on its module at call time, so a wrapper installed on the module
# attribute (a profiler or a test double) sees every call.
_VARIANTS = {
    "rf": (trees, "train_random_forest", trees.RandomForest),
    "adaboost": (boosting, "train_adaboost", boosting.AdaBoostModel),
    "svm": (svm, "train_svm", svm.SvmModel),
    "logreg": (linear, "train_logreg", linear.LogRegModel),
    "mlp": (nets, "train_mlp", nets.Network),
    "cnn": (nets, "train_cnn", nets.Network),
}

VARIANTS = tuple(_VARIANTS)


def _trainer(variant: str):
    module, name, _ = _VARIANTS[variant]
    return getattr(module, name)


def default_params(variant: str) -> dict:
    """The trainer's keyword-only arguments other than `seed`, with defaults."""
    return {
        p.name: p.default
        for p in inspect.signature(_trainer(variant)).parameters.values()
        if p.kind is p.KEYWORD_ONLY and p.name != "seed"
    }


@dataclass(frozen=True)
class ModelSpec:
    """Variant name, hyperparameters and the training seed."""

    variant: str
    seed: int = 42
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(
                f"unknown variant {self.variant!r}; choose one of {', '.join(VARIANTS)}"
            )
        unknown = set(self.params) - set(default_params(self.variant))
        if unknown:
            raise ValueError(
                f"unknown hyperparameters for {self.variant}: {sorted(unknown)}"
            )

    def resolved_params(self) -> dict:
        merged = default_params(self.variant)
        merged.update(self.params)
        return merged


@dataclass
class TrainedModel:
    """Immutable predictor: fitted transformer plus the variant payload."""

    spec: ModelSpec
    transformer: FeatureTransformer
    payload: object
    metadata: dict = field(default_factory=dict)

    def predict_proba_matrix(self, X_raw: np.ndarray) -> np.ndarray:
        """Class probabilities for raw (untransformed) feature rows.

        Beams are imputed by the same rule as `validate_scan` first.
        """
        X_raw = np.atleast_2d(np.asarray(X_raw, dtype=np.float64))
        if X_raw.shape[1] != NUM_BEAMS:
            raise DimensionError(f"expected {NUM_BEAMS} features, got {X_raw.shape[1]}")
        Xt = self.transformer.transform_matrix(impute_ranges(X_raw))
        return self.payload.predict_proba(Xt)


def train(spec: ModelSpec, data: Dataset) -> TrainedModel:
    """Fit the transformer and the variant trainer on the whole dataset.

    Deterministic given (spec, data): every stochastic component draws from
    substreams of spec.seed.
    """
    X_raw, y = data.X, data.y
    if np.unique(y).shape[0] < 2:
        raise DegenerateTrainingError(
            "training data must contain at least two classes"
        )
    transformer = fit_feature_transformer(X_raw)
    Xt = transformer.transform_matrix(X_raw)
    params = spec.resolved_params()
    fit = _trainer(spec.variant)
    seeded = {"seed": spec.seed} if "seed" in inspect.signature(fit).parameters else {}
    payload = fit(Xt, y, **params, **seeded)
    metadata = {
        "seed": spec.seed,
        "converged": bool(np.all(getattr(payload, "converged", True))),
        "params": params,
        "train_fingerprint": dataset_fingerprint(data),
    }
    return TrainedModel(
        spec=spec, transformer=transformer, payload=payload, metadata=metadata
    )


def predict_proba(model: TrainedModel, scan: Scan) -> np.ndarray:
    """4-vector of class probabilities for one scan (canonical class order)."""
    return model.predict_proba_matrix(np.array(scan.ranges)[None, :])[0]


def predict_label(model: TrainedModel, scan: Scan) -> ClassLabel:
    """Argmax of predict_proba; exact ties go to the lowest class index."""
    return ClassLabel(int(np.argmax(predict_proba(model, scan))))


def dataset_fingerprint(data: Dataset) -> str:
    buf = io.StringIO()
    write_dataset(data, buf)
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


# --- model files -------------------------------------------------------------


def model_to_json(model: TrainedModel) -> str:
    document = {
        "format_version": MODEL_FORMAT_VERSION,
        "spec": {
            "variant": model.spec.variant,
            "seed": model.spec.seed,
            "params": model.spec.params,
        },
        "transformer": model.transformer.to_dict(),
        "payload": model.payload.to_dict(),
        "metadata": model.metadata,
    }
    return json.dumps(document)


def _decode(document: dict, key: str, decode):
    """decode(document[key]); a malformed section raises ValueError naming it."""
    section = document.get(key)
    if not isinstance(section, dict):
        raise ValueError(f"model file field {key!r} is missing or not an object")
    try:
        return decode(section)
    except KeyError as exc:
        raise ValueError(f"model file field {key!r} lacks {exc.args[0]!r}") from exc
    except (TypeError, IndexError) as exc:
        raise ValueError(f"model file field {key!r} is malformed: {exc}") from exc


def _spec_from_dict(section: dict) -> ModelSpec:
    return ModelSpec(
        variant=section["variant"],
        seed=int(section["seed"]),
        params=dict(section["params"]),
    )


def model_from_json(text: str) -> TrainedModel:
    """Decode a model file; a missing or mistyped section or field raises
    ValueError naming it."""
    document = json.loads(text)
    if not isinstance(document, dict):
        raise ValueError("a model file must hold a JSON object")
    version = document.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    spec = _decode(document, "spec", _spec_from_dict)
    _, _, payload_class = _VARIANTS[spec.variant]
    return TrainedModel(
        spec=spec,
        transformer=_decode(document, "transformer", FeatureTransformer.from_dict),
        payload=_decode(document, "payload", payload_class.from_dict),
        metadata=_decode(document, "metadata", dict),
    )


def save_model(model: TrainedModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_json(model))


def load_model(path) -> TrainedModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json(fh.read())
