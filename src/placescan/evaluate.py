"""Stratified cross-validation, accuracy reduction, PR curves and AP.

With k=5 each test fold is a 20% split. Cross-validation is fold-major:
every variant of a fold trains on one training `Dataset`, so `train` fits
the fold's Box-Cox transform once, on its training rows only, and shares
it and the transformed rows among the variants. Curves and the confusion
matrix pool out-of-fold predictions, so every row is scored exactly once by
a model that never saw it. Curve area is step-wise AP = sum (R_n - R_{n-1}) P_n.

A fold's variants train on two lanes, with OpenBLAS pinned to one thread
(`blas`): the calling thread and the one worker of a `ThreadPoolExecutor`
kept for the whole run. Every model is the one a serial loop trains, so the
results do not depend on which lane trained what.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import blas
from .classifiers import ModelSpec, dataset_fingerprint, train
from .core import NUM_CLASSES, ClassLabel, Dataset, class_indices
from .errors import StratificationError, UndefinedCurveError
from .hyperparams import SEED


@dataclass(frozen=True)
class FoldAssignment:
    """Test fold of each row as `stratified_folds` deals it: read-only int64, no fold empty."""

    fold_of_row: np.ndarray
    k: int

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of_row == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of_row != fold)


def stratified_folds(labels, k: int, seed: int) -> FoldAssignment:
    """Per class: seeded shuffle, then deal round-robin into k folds.

    Guarantees per-fold class counts within one row of perfect
    proportionality. Labels must be class indices 0..3 (UnknownLabelError),
    and a class with fewer than k rows is an error.
    """
    labels = class_indices(labels)
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 2:
        raise ValueError(f"k must be an integer of at least 2, got {k!r}")
    SEED.check("seed", seed)
    rng = np.random.default_rng([seed, 101])
    fold_of_row = np.full(labels.shape[0], -1, dtype=np.int64)
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        if idx.shape[0] < k:
            raise StratificationError(
                f"class {ClassLabel(c).name} has {idx.shape[0]} rows, fewer than k={k}"
            )
        fold_of_row[rng.permutation(idx)] = np.arange(idx.shape[0]) % k
    fold_of_row.setflags(write=False)
    return FoldAssignment(fold_of_row=fold_of_row, k=int(k))


def accuracy(predicted, truth) -> float:
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape or predicted.size == 0:
        raise ValueError("prediction and truth vectors must have equal, positive length")
    return float(np.mean(predicted == truth))


def pr_curve(scores, truths) -> list[tuple[float, float]]:
    """(recall, precision) at each distinct score threshold, descending.

    A (0, 1) anchor is prepended. Scores and truths must be 1-D of equal
    length, and the scores free of NaN (ValueError); at least one truth
    must be positive.
    """
    scores = np.asarray(scores, dtype=np.float64)
    truths = np.asarray(truths, dtype=bool)
    if scores.ndim != 1 or truths.shape != scores.shape:
        raise ValueError(f"scores and truths must be 1-D of equal length, "
                         f"got shapes {scores.shape} and {truths.shape}")
    if np.isnan(scores).any():
        raise ValueError("scores must not be NaN")
    positives = int(truths.sum())
    if positives == 0:
        raise UndefinedCurveError("no positive rows; the curve is undefined")
    order = np.argsort(-scores, kind="stable")
    sorted_truths = truths[order]
    sorted_scores = scores[order]
    tp = np.cumsum(sorted_truths)
    fp = np.cumsum(~sorted_truths)
    # last index of each block of equal scores = one threshold
    last_in_block = np.flatnonzero(np.append(sorted_scores[1:] != sorted_scores[:-1], True))
    points = [(0.0, 1.0)]
    for i in last_in_block:
        recall = tp[i] / positives
        precision = tp[i] / (tp[i] + fp[i])
        points.append((float(recall), float(precision)))
    return points


def average_precision(scores, truths) -> float:
    """Step-wise AP over descending thresholds (no interpolation)."""
    return _area(pr_curve(scores, truths))


def _area(points: list[tuple[float, float]]) -> float:
    """The step-wise area under a `pr_curve`."""
    ap = 0.0
    prev_recall = 0.0
    for recall, precision in points[1:]:
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return float(ap)


def summarize_folds(fold_accuracies) -> tuple[float, float]:
    """Mean and sample (n-1) standard deviation of the fold accuracies."""
    accs = np.asarray(fold_accuracies, dtype=np.float64)
    mean = float(accs.mean())
    std = float(accs.std(ddof=1)) if accs.size > 1 else 0.0
    return mean, std


@dataclass
class ClassCurve:
    label: ClassLabel
    ap: float
    curve: list[tuple[float, float]]


@dataclass
class VariantResult:
    name: str
    fold_accuracies: list[float]
    mean: float
    std: float
    per_class: list[ClassCurve]
    confusion: np.ndarray  # rows true, columns predicted, pooled out-of-fold
    converged: list[bool]  # per fold, the model's metadata["converged"]


@dataclass
class Report:
    dataset_fingerprint: str
    seed: int
    k: int
    variants: list[VariantResult] = field(default_factory=list)
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "dataset_fingerprint": self.dataset_fingerprint,
            "seed": self.seed,
            "k": self.k,
            "config": self.config,
            "variants": [
                {
                    "name": v.name,
                    "folds": v.fold_accuracies,
                    "converged": v.converged,
                    "mean": v.mean,
                    "std": v.std,
                    "per_class": [
                        {
                            "label": c.label.name,
                            "ap": c.ap,
                            "curve": [[r, p] for r, p in c.curve],
                        }
                        for c in v.per_class
                    ],
                    "confusion": v.confusion.tolist(),
                }
                for v in self.variants
            ],
        }


# Variants that train on the calling thread only. At float32, moving mlp to
# the worker lowered the 400-row experiment's max RSS from 110 to 103-104 MB,
# but made the crossval benchmark's `wall_s` 6-9% slower in 3 of 3 pairs, so
# mlp stays here.
_CALLER_LANE = frozenset({"mlp", "cnn"})


def _cross_validate(specs: list[ModelSpec], dataset: Dataset,
                    folds: FoldAssignment) -> list[VariantResult]:
    """Fold-major loop: per fold, one training subset, and so one transformer,
    shared by every spec; out-of-fold probabilities are pooled per spec.

    The calling thread owns the caller-lane specs and the last spec of the
    lane order; the worker gets the others, front to back. The caller trains
    its specs from the back, then each spec the worker has not started, and
    raises a failure of the worker before each model it trains. Models are
    scored on the calling thread in spec order and released before the next
    fold trains."""
    X_raw, y = dataset.X, dataset.y
    tests = [folds.test_indices(fold) for fold in range(folds.k)]
    oof = np.zeros((len(specs), len(dataset), NUM_CLASSES))
    converged = [[] for _ in specs]
    # lane order: caller-lane specs last, and the calling thread owns the tail
    order = sorted(range(len(specs)), key=lambda i: specs[i].variant in _CALLER_LANE)
    owned = max(1, sum(spec.variant in _CALLER_LANE for spec in specs))
    with blas.one_thread(), ThreadPoolExecutor(1, thread_name_prefix="placescan-lane") as lane:
        for fold, test_idx in enumerate(tests):
            train_data = dataset.subset(folds.train_indices(fold))
            futures = {i: lane.submit(train, specs[i], train_data)
                       for i in order[:-owned]}
            models = {}
            try:
                for i in reversed(order):
                    if i in futures and not futures[i].cancel():
                        continue
                    futures.pop(i, None)
                    for future in futures.values():
                        if future.done() and future.exception() is not None:
                            raise future.exception()
                    models[i] = train(specs[i], train_data)
                models.update((i, future.result()) for i, future in futures.items())
            finally:
                for future in futures.values():
                    future.cancel()
            for i in range(len(specs)):
                oof[i, test_idx] = models[i].predict_proba_matrix(X_raw[test_idx])
                converged[i].append(models[i].metadata["converged"])
            del models, futures
    results = []
    for spec, scores, flags in zip(specs, oof, converged):
        predicted = scores.argmax(axis=1)
        accuracies = [accuracy(predicted[test_idx], y[test_idx]) for test_idx in tests]
        # every row is in exactly one test fold, so one count over the pooled
        # argmax is the sum of the per-fold confusion matrices
        confusion = np.bincount(y * NUM_CLASSES + predicted, minlength=NUM_CLASSES**2)
        curves = [pr_curve(scores[:, label], y == label) for label in ClassLabel]
        per_class = [ClassCurve(label, _area(curve), curve)
                     for label, curve in zip(ClassLabel, curves)]
        results.append(VariantResult(
            spec.variant, accuracies, *summarize_folds(accuracies), per_class,
            confusion.reshape(NUM_CLASSES, NUM_CLASSES), flags,
        ))
    return results


def run_experiment(variants, dataset: Dataset, k: int = 5, seed: int = 42,
                   variant_params: dict | None = None) -> Report:
    """Cross-validate distinct variants against one shared fold assignment."""
    if isinstance(variants, str):
        raise ValueError(f"variants must be a list of variant names, not the string {variants!r}")
    variants = list(variants)
    if not variants or len(set(variants)) != len(variants):
        raise ValueError(f"variants must be non-empty and distinct, got {variants}")
    if not isinstance(variant_params, (dict, type(None))):
        raise ValueError(f"variant_params must be a dict, got {variant_params!r}")
    params = variant_params or {}
    stray = sorted(set(params) - set(variants))
    if stray:
        raise ValueError(f"variant_params for variants not run: {stray}")
    folds = stratified_folds(dataset.y, k, seed)
    specs = [ModelSpec(variant=v, seed=seed, params=params.get(v, {})) for v in variants]
    return Report(
        dataset_fingerprint=dataset_fingerprint(dataset), seed=seed, k=folds.k,
        variants=_cross_validate(specs, dataset, folds),
        config={"variants": variants, "k": folds.k, "seed": seed},
    )
