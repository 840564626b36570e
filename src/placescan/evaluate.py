"""Stratified cross-validation, accuracy reduction, PR curves and AP.

With k=5 each test fold is a 20% split. Per-class precision-recall curves
are computed from predictions pooled out-of-fold, so every row is scored
exactly once by a model that never saw it. The area under each curve is
step-wise average precision: AP = sum (R_n - R_{n-1}) P_n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .classifiers import ModelSpec, TrainedModel, dataset_fingerprint, train
from .core import NUM_CLASSES, ClassLabel, Dataset
from .errors import StratificationError, UndefinedCurveError


@dataclass(frozen=True)
class FoldAssignment:
    fold_of_row: np.ndarray
    k: int

    def __post_init__(self):
        self.fold_of_row.setflags(write=False)

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of_row == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of_row != fold)


def stratified_folds(labels, k: int, seed: int) -> FoldAssignment:
    """Per class: seeded shuffle, then deal round-robin into k folds.

    Guarantees per-fold class counts within one row of perfect
    proportionality. A class with fewer than k rows is an error.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if k < 2:
        raise ValueError("k must be at least 2")
    rng = np.random.default_rng([seed, 101])
    fold_of_row = np.full(labels.shape[0], -1, dtype=np.int64)
    for c in sorted(np.unique(labels)):
        idx = np.flatnonzero(labels == c)
        if idx.shape[0] < k:
            name = ClassLabel(int(c)).name if 0 <= c < NUM_CLASSES else str(c)
            raise StratificationError(
                f"class {name} has {idx.shape[0]} rows, fewer than k={k}"
            )
        perm = rng.permutation(idx)
        for position, row in enumerate(perm):
            fold_of_row[row] = position % k
    return FoldAssignment(fold_of_row=fold_of_row, k=k)


def accuracy(predicted, truth) -> float:
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape or predicted.size == 0:
        raise ValueError("prediction and truth vectors must have equal, positive length")
    return float(np.mean(predicted == truth))


def pr_curve(scores, truths) -> list[tuple[float, float]]:
    """(recall, precision) at each distinct score threshold, descending.

    A (0, 1) anchor is prepended. Requires at least one positive row.
    """
    scores = np.asarray(scores, dtype=np.float64)
    truths = np.asarray(truths, dtype=bool)
    positives = int(truths.sum())
    if positives == 0:
        raise UndefinedCurveError("no positive rows; the curve is undefined")
    order = np.argsort(-scores, kind="stable")
    sorted_truths = truths[order]
    sorted_scores = scores[order]
    tp = np.cumsum(sorted_truths)
    fp = np.cumsum(~sorted_truths)
    # last index of each distinct-score block = one threshold
    last_in_block = np.flatnonzero(np.diff(sorted_scores, append=-np.inf) != 0)
    points = [(0.0, 1.0)]
    for i in last_in_block:
        recall = tp[i] / positives
        precision = tp[i] / (tp[i] + fp[i])
        points.append((float(recall), float(precision)))
    return points


def average_precision(scores, truths) -> float:
    """Step-wise AP over descending thresholds (no interpolation)."""
    points = pr_curve(scores, truths)
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


def cross_validate(
    spec: ModelSpec,
    dataset: Dataset,
    k: int = 5,
    seed: int = 42,
    folds: FoldAssignment | None = None,
) -> VariantResult:
    """Train/score the variant across stratified folds; pool out-of-fold
    probabilities for the per-class curves and the confusion matrix."""
    X_raw, y = dataset.X, dataset.y
    if folds is None:
        folds = stratified_folds(y, k, seed)
    n = len(dataset)
    oof = np.zeros((n, NUM_CLASSES))
    fold_accuracies = []
    confusion = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    for fold in range(folds.k):
        train_idx = folds.train_indices(fold)
        test_idx = folds.test_indices(fold)
        model = train(spec, dataset.subset(train_idx))
        proba = model.predict_proba_matrix(X_raw[test_idx])
        oof[test_idx] = proba
        predicted = proba.argmax(axis=1)
        fold_accuracies.append(accuracy(predicted, y[test_idx]))
        for t, p in zip(y[test_idx], predicted):
            confusion[t, p] += 1
    mean, std = summarize_folds(fold_accuracies)
    per_class = []
    for label in ClassLabel:
        truths = y == int(label)
        per_class.append(
            ClassCurve(
                label=label,
                ap=average_precision(oof[:, int(label)], truths),
                curve=pr_curve(oof[:, int(label)], truths),
            )
        )
    return VariantResult(
        name=spec.variant,
        fold_accuracies=fold_accuracies,
        mean=mean,
        std=std,
        per_class=per_class,
        confusion=confusion,
    )


def run_experiment(
    variants,
    dataset: Dataset,
    k: int = 5,
    seed: int = 42,
    variant_params: dict | None = None,
) -> Report:
    """Cross-validate several variants against one shared fold assignment."""
    folds = stratified_folds(dataset.y, k, seed)
    report = Report(
        dataset_fingerprint=dataset_fingerprint(dataset),
        seed=seed,
        k=k,
        config={"variants": list(variants), "k": k, "seed": seed},
    )
    for variant in variants:
        params = (variant_params or {}).get(variant, {})
        spec = ModelSpec(variant=variant, seed=seed, params=params)
        report.variants.append(
            cross_validate(spec, dataset, k=k, seed=seed, folds=folds)
        )
    return report
