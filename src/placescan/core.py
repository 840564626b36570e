"""Domain types for labeled 2D range slices.

A scan is a single horizontal slice of an indoor space: 271 beam distances
covering 270 degrees at 1 degree pitch (beam k points at -135 + k degrees
relative to the sensor heading). Distances are meters, clipped to the
sensor envelope [0.001, 30.0].
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionError, EmptyDatasetError, UnknownLabelError

NUM_BEAMS = 271
MIN_RANGE_M = 0.001
MAX_RANGE_M = 30.0
BEAM_ANGLES_DEG = tuple(-135.0 + k for k in range(NUM_BEAMS))


class ClassLabel(IntEnum):
    """The four place categories, in canonical index order."""

    corridor = 0
    staircase = 1
    restroom = 2
    shared_space = 3


LABEL_NAMES = tuple(label.name for label in ClassLabel)
NUM_CLASSES = len(LABEL_NAMES)


def label_codec(value) -> ClassLabel:
    """Decode a class label from its canonical string or index.

    Strings are matched case-insensitively; hyphens and spaces are treated
    as underscores. Raises UnknownLabelError for anything else.
    """
    if isinstance(value, ClassLabel):
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if 0 <= int(value) < NUM_CLASSES:
            return ClassLabel(int(value))
        raise UnknownLabelError(
            f"label index {value!r} out of range; valid indices are 0..{NUM_CLASSES - 1}"
        )
    if isinstance(value, str):
        normalized = value.strip().lower().replace("-", "_").replace(" ", "_")
        if normalized in LABEL_NAMES:
            return ClassLabel[normalized]
    raise UnknownLabelError(
        f"unknown label {value!r}; valid labels are {', '.join(LABEL_NAMES)}"
    )


@dataclass(frozen=True, eq=False)
class Scan:
    """One 271-beam range slice. `height_m` is capture-height metadata only."""

    ranges: np.ndarray
    height_m: Optional[float] = None

    def __post_init__(self):
        self.ranges.setflags(write=False)

    def __eq__(self, other):
        if not isinstance(other, Scan):
            return NotImplemented
        return (
            np.array_equal(self.ranges, other.ranges)
            and self.height_m == other.height_m
        )


def impute_ranges(ranges: np.ndarray) -> np.ndarray:
    """Map beam distances into the sensor envelope, elementwise.

    Non-finite readings become 30.0 (no-return); everything else is clipped
    to [0.001, 30.0].
    """
    ranges = np.where(np.isfinite(ranges), ranges, MAX_RANGE_M)
    return np.clip(ranges, MIN_RANGE_M, MAX_RANGE_M, out=ranges)


def validate_scan(raw: Sequence[float], height_m: Optional[float] = None) -> Scan:
    """Build a valid Scan from raw beam distances.

    Out-of-range and non-finite readings are imputed rather than dropped so
    the feature dimension stays fixed: values above 30 m or non-finite
    become 30.0 (no-return), values at or below the lower clip become
    0.001 m. A wrong beam count raises DimensionError.
    """
    ranges = np.asarray(raw, dtype=np.float64)
    if ranges.ndim != 1 or ranges.shape[0] != NUM_BEAMS:
        raise DimensionError(
            f"expected {NUM_BEAMS} beam distances, got {ranges.size}"
        )
    ranges = impute_ranges(ranges)
    if height_m is not None:
        height_m = float(height_m)
        if height_m < 0 or not math.isfinite(height_m):
            raise ValueError(f"height_m must be finite and non-negative, got {height_m}")
    return Scan(ranges=ranges, height_m=height_m)


@dataclass(frozen=True, eq=False)
class Dataset:
    """An ordered, non-empty table of labeled scans, one row per scan.

    Read-only columns: `X` (n, 271) beam distances, imputed like
    validate_scan does; `y` class indices; `heights` in meters, NaN for none.
    """

    X: np.ndarray
    y: np.ndarray
    heights: Optional[np.ndarray] = None
    provenance: str = ""

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        if X.shape[:1] == (0,):
            raise EmptyDatasetError("a dataset must contain at least one row")
        if X.ndim != 2 or X.shape[1] != NUM_BEAMS:
            raise DimensionError(f"expected an (n, {NUM_BEAMS}) distance matrix, got {X.shape}")
        n = X.shape[0]
        y = np.asarray(self.y)
        heights = np.array(
            np.full(n, np.nan) if self.heights is None else self.heights, dtype=np.float64
        )
        if y.shape != (n,) or heights.shape != (n,):
            raise DimensionError(f"labels and heights must have shape ({n},)")
        if y.dtype.kind not in "iu" or np.any((y < 0) | (y >= NUM_CLASSES)):
            raise UnknownLabelError(f"labels must be class indices 0..{NUM_CLASSES - 1}")
        if np.any((heights < 0) | np.isinf(heights)):
            raise ValueError("heights must be finite and non-negative, or NaN for none")
        X, y = impute_ranges(X), y.astype(np.int64)
        for name, value in (("X", X), ("y", y), ("heights", heights)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return self.X.shape[0]

    def feature_matrix(self) -> np.ndarray:
        """A writable copy of X."""
        return self.X.copy()

    def label_vector(self) -> np.ndarray:
        """A writable copy of y."""
        return self.y.copy()

    def subset(self, indices, provenance: str = "") -> "Dataset":
        return Dataset(
            X=self.X[indices],
            y=self.y[indices],
            heights=self.heights[indices],
            provenance=provenance or self.provenance,
        )
