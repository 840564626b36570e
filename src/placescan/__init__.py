"""Indoor place categorization from single 2D range scans.

Pipeline: scan ingestion -> per-feature Box-Cox standardization -> one of
six classifiers -> stratified cross-validated evaluation. A seeded scene
simulator provides reproducible synthetic datasets and a geometric oracle.
"""

from .core import (
    ClassLabel,
    Dataset,
    Scan,
    label_codec,
    validate_scan,
)
from .classifiers import ModelSpec, TrainedModel, predict_label, predict_proba, train
from .dataset_io import parse_dataset, summarize, write_dataset
from .evaluate import run_experiment, stratified_folds
from .features import FeatureTransformer, fit_feature_transformer
from .simulate import SimConfig, generate_dataset, generate_scene, simulate_scan

__version__ = "0.1.0"

__all__ = [
    "ClassLabel",
    "Dataset",
    "FeatureTransformer",
    "ModelSpec",
    "Scan",
    "SimConfig",
    "TrainedModel",
    "fit_feature_transformer",
    "generate_dataset",
    "generate_scene",
    "label_codec",
    "parse_dataset",
    "predict_label",
    "predict_proba",
    "run_experiment",
    "simulate_scan",
    "stratified_folds",
    "summarize",
    "train",
    "validate_scan",
    "write_dataset",
]
