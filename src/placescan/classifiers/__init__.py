"""Uniform train/predict contract over the six classifier variants.

Every variant is one `_VARIANTS` row: a trainer and a payload class. The
trainer is called as `fit(Xt, y, **params)` on read-only Box-Cox
standardised rows; its keyword-only arguments are the variant's
hyperparameters and their defaults, plus `seed` if it draws random
numbers. Each argument declares its domain in the signature (see
`hyperparams`), and both `ModelSpec` and a direct trainer call check values
against it. The payload the trainer returns provides `predict_proba(Xt)`.
A model file stores it, the spec and the transformer as their constructor
arguments (`core.stored`); `core.restore` rebuilds each, reading the
arguments annotated `Float64s` or `Int64s` through `core.unpack`, and the
constructor checks them. A payload must then take rows of 271 features.
"""
from __future__ import annotations

import functools
import hashlib
import inspect
import io
import json
import threading
import weakref
from dataclasses import dataclass, field

import numpy as np

from .. import blas
from ..core import NUM_BEAMS, ClassLabel, Dataset, beam_rows, pack, restore, stored
from ..dataset_io import write_dataset
from ..errors import DegenerateTrainingError, DimensionError
from ..features import FeatureTransformer, fit_and_transform
from . import boosting, linear, nets, svm, trees
from ..hyperparams import SEED, check_params

MODEL_FORMAT_VERSION = 6

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
        if not isinstance(self.params, dict):
            raise ValueError(f"{self.variant} params must be a dict, got {self.params!r}")
        unknown = set(self.params) - set(default_params(self.variant))
        if unknown:
            raise ValueError(
                f"unknown hyperparameters for {self.variant}: {sorted(unknown)}"
            )
        SEED.check(f"{self.variant} seed", self.seed)
        check_params(self.variant, _trainer(self.variant), self.params)

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

    def predict_proba_matrix(self, X_raw) -> np.ndarray:
        """(n, 4) class probabilities for one raw scan or a matrix of raw
        scans, imputed as `FeatureTransformer.transform_matrix` does."""
        return self.payload.predict_proba(self.transformer.transform_matrix(X_raw))


@blas.one_thread()
def train(spec: ModelSpec, data: Dataset) -> TrainedModel:
    """Fit the transformer and the variant trainer on the whole dataset.

    The transformer is fitted, and `data.X` transformed, once per `Dataset`
    object (`_memo`), so variants trained on the same object share them.

    Deterministic given (spec, data): every stochastic component draws from
    substreams of spec.seed, and OpenBLAS runs on one thread (`blas`), so
    the model's bits do not depend on the machine's core count.
    """
    y = data.y
    if np.unique(y).shape[0] < 2:
        raise DegenerateTrainingError(
            "training data must contain at least two classes"
        )
    transformer, Xt = _memo(data, _fit)
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


def predict_proba(model: TrainedModel, scan) -> np.ndarray:
    """4-vector of class probabilities for one raw 271-beam row (canonical
    class order), imputed and checked by `core.beam_rows`."""
    return model.predict_proba_matrix(beam_rows(scan, 1))[0]


def predict_label(model: TrainedModel, scan) -> ClassLabel:
    """Argmax of predict_proba; exact ties go to the lowest class index."""
    return ClassLabel(int(np.argmax(predict_proba(model, scan))))


_MEMO: weakref.WeakKeyDictionary[Dataset, dict] = weakref.WeakKeyDictionary()
_MEMO_LOCK = threading.Lock()


def _memo(data: Dataset, compute):
    """compute(data), worked out once per Dataset object (its columns are
    read-only) and kept while `data` lives: so `_fit`'s entry keeps an
    X-sized matrix alive with it. A second thread waits for the first's
    result instead of redoing it."""
    with _MEMO_LOCK:
        entry = _MEMO.setdefault(data, {})
        if compute not in entry:
            entry[compute] = compute(data)
        return entry[compute]


def _fit(data: Dataset) -> tuple[FeatureTransformer, np.ndarray]:
    """The Box-Cox transformer fitted on `data.X`, and `data.X` through it,
    read-only since every variant trained on `data` shares it."""
    transformer, Xt = fit_and_transform(data.X)
    Xt.setflags(write=False)
    return transformer, Xt


class _Sha256Stream(io.TextIOBase):
    """A write-only text stream that hashes the UTF-8 of what it is given, so
    a digest never holds the whole text."""

    def __init__(self):
        self.sha256 = hashlib.sha256()
        self.written = 0

    def write(self, text: str) -> int:
        self.sha256.update(text.encode("utf-8"))
        self.written += len(text)
        return len(text)

    def tell(self) -> int:
        return self.written


def dataset_fingerprint(data: Dataset) -> str:
    """sha256 hex digest of the dataset's canonical CSV (`write_dataset`)."""
    return _memo(data, _digest)


def _digest(data: Dataset) -> str:
    stream = _Sha256Stream()
    write_dataset(data, stream)
    return stream.sha256.hexdigest()


# --- model files -------------------------------------------------------------


def model_to_json(model: TrainedModel) -> str:
    document = {
        "format_version": MODEL_FORMAT_VERSION,
        "spec": stored(model.spec),
        "transformer": stored(model.transformer),
        "payload": stored(model.payload),
        "metadata": model.metadata,
    }
    return json.dumps(document, default=pack)


def _decode(document: dict, key: str, decode):
    """decode(document[key]); a malformed section raises ValueError naming it."""
    section = document.get(key)
    if not isinstance(section, dict):
        raise ValueError(f"model file field {key!r} is missing or not an object")
    try:
        return decode(section)
    except KeyError as exc:
        raise ValueError(f"model file field {key!r} lacks {exc.args[0]!r}") from exc
    except (TypeError, IndexError, OverflowError) as exc:
        raise ValueError(f"model file field {key!r} is malformed: {exc}") from exc


def model_from_json(text: str) -> TrainedModel:
    """Decode a model file; a missing or mistyped section or field raises
    ValueError naming it."""
    document = json.loads(text)
    if not isinstance(document, dict):
        raise ValueError("a model file must hold a JSON object")
    version = document.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(
            f"unsupported model format version {version!r}; this placescan reads "
            f"version {MODEL_FORMAT_VERSION}, so retrain the model"
        )
    spec = _decode(document, "spec", functools.partial(restore, ModelSpec))
    _, _, payload_class = _VARIANTS[spec.variant]
    transformer = _decode(document, "transformer", functools.partial(restore, FeatureTransformer))
    payload = _decode(document, "payload", functools.partial(restore, payload_class))
    # mlp and cnn share the Network payload, which names its own builder
    if isinstance(payload, nets.Network) and payload.builder != spec.variant:
        raise ValueError(f"model file payload builder {payload.builder!r} "
                         f"does not match spec variant {spec.variant!r}")
    try:  # a payload fitted to rows of another width fails here, not at predict
        payload.predict_proba(np.empty((0, NUM_BEAMS)))
    except (ValueError, DimensionError) as exc:
        raise ValueError(f"model file payload does not take {NUM_BEAMS} features: {exc}") from exc
    return TrainedModel(
        spec=spec, transformer=transformer, payload=payload,
        metadata=_decode(document, "metadata", dict),
    )


def save_model(model: TrainedModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_json(model))


def load_model(path) -> TrainedModel:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return model_from_json(fh.read())
