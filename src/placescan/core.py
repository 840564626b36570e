"""Domain types for labeled 2D range slices.

A scan is a single horizontal slice of an indoor space: 271 beam distances
covering 270 degrees at 1 degree pitch (beam k points at -135 + k degrees
relative to the sensor heading). Distances are meters, clipped to the
sensor envelope [0.001, 30.0].
"""
from __future__ import annotations

import base64
import dataclasses
import functools
import inspect
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Annotated, Optional, Sequence, Union, get_args, get_origin

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
    """One 271-beam range slice, imputed and checked by `beam_rows`.
    `height_m` is capture-height metadata only: None, or finite and >= 0."""

    ranges: np.ndarray
    height_m: Optional[float] = None

    def __post_init__(self):
        # a copy, so the caller's array is neither imputed nor frozen
        ranges = beam_rows(self.ranges, 1)
        ranges.setflags(write=False)
        object.__setattr__(self, "ranges", ranges)
        height_m = None if self.height_m is None else float(self.height_m)
        if height_m is not None and not 0 <= height_m < math.inf:
            raise ValueError(f"height_m must be finite and non-negative, got {height_m}")
        object.__setattr__(self, "height_m", height_m)

    def __eq__(self, other):
        if not isinstance(other, Scan):
            return NotImplemented
        return (
            np.array_equal(self.ranges, other.ranges)
            and self.height_m == other.height_m
        )


def beam_rows(raw, ndim: int, copy: bool = True) -> np.ndarray:
    """Raw beam distances as an `ndim`-D (1: one scan, 2: rows of scans)
    float64 array of 271-beam rows, imputed into the sensor envelope:
    non-finite readings and those above 30 m become 30.0 (no-return), those
    below 0.001 m become 0.001. A new array, or a float64 `raw` imputed in
    place if not `copy`. A dtype other than integer or float raises
    ValueError, any other shape DimensionError."""
    X = np.asarray(raw)
    if X.dtype.kind not in "iuf":
        raise ValueError(f"beam distances must be real numbers, not dtype {X.dtype}")
    if X.ndim != ndim or X.shape[-1] != NUM_BEAMS:
        raise DimensionError(f"expected {ndim}-D rows of {NUM_BEAMS} beams, got shape {X.shape}")
    X = X.astype(np.float64, copy=copy)
    np.copyto(X, MAX_RANGE_M, where=~np.isfinite(X))
    return np.clip(X, MIN_RANGE_M, MAX_RANGE_M, out=X)


def class_indices(labels) -> np.ndarray:
    """`labels` as a new int64 array of class indices; UnknownLabelError
    unless they are integers in 0..3."""
    y = np.asarray(labels)
    if y.dtype.kind not in "iu" or np.any((y < 0) | (y >= NUM_CLASSES)):
        raise UnknownLabelError(f"labels must be class indices 0..{NUM_CLASSES - 1}")
    return y.astype(np.int64)


def training_rows(owner: str, X, y) -> tuple[np.ndarray, np.ndarray]:
    """X as float64 (not copied if it is) and y as `class_indices`. Raises,
    naming `owner`, DimensionError if X is not 2-D or has no columns, and
    ValueError if X has no rows or a value that is not a finite real, or y
    is not one per row."""
    X, y = np.asarray(X), np.asarray(y)
    if X.dtype.kind not in "iuf":
        raise ValueError(f"{owner} needs real-valued features, not dtype {X.dtype}")
    if X.ndim != 2:
        raise DimensionError(f"{owner} needs a 2-D training matrix, got shape {X.shape}")
    if X.shape[1] == 0:
        raise DimensionError(f"{owner} needs at least one feature column")
    if X.shape[0] == 0:
        raise ValueError(f"{owner} needs at least one training row")
    if y.shape != X.shape[:1]:
        raise ValueError(f"{owner} needs one label per row: y {y.shape}, {X.shape[0]} rows")
    X = X.astype(np.float64, copy=False)
    if not np.isfinite(X).all():
        raise ValueError(f"{owner} needs finite features")
    return X, class_indices(y)


def validate_scan(raw: Sequence[float], height_m: Optional[float] = None) -> Scan:
    """Build a valid Scan from one row of raw beam distances (`beam_rows`)."""
    return Scan(raw, height_m)


@dataclass(frozen=True, eq=False)
class Dataset:
    """An ordered, non-empty table of labeled scans, one row per scan.

    Read-only columns: `X` (n, 271) beam distances, imputed like
    validate_scan does; `y` class indices; `heights` in meters, NaN for none.
    """

    X: np.ndarray
    y: np.ndarray
    heights: Optional[np.ndarray] = None

    def __post_init__(self):
        # a copy, so the caller's array is neither imputed nor frozen
        self._take(beam_rows(self.X, 2))

    @classmethod
    def _adopt(cls, X: np.ndarray, y, heights) -> "Dataset":
        """Dataset(X, y, heights) without the copy of X: for a caller that
        built the float64 matrix X itself and keeps no other reference to
        it, since X is imputed in place and made read-only."""
        dataset = cls.__new__(cls)
        object.__setattr__(dataset, "y", y)
        object.__setattr__(dataset, "heights", heights)
        dataset._take(beam_rows(X, 2, copy=False))
        return dataset

    def _take(self, X: np.ndarray) -> None:
        """Check the other columns against the imputed beam matrix X, then
        freeze every column."""
        n = X.shape[0]
        if n == 0:
            raise EmptyDatasetError("a dataset must contain at least one row")
        y = np.asarray(self.y)
        heights = np.array(
            np.full(n, np.nan) if self.heights is None else self.heights, dtype=np.float64
        )
        if y.shape != (n,) or heights.shape != (n,):
            raise DimensionError(f"labels and heights must have shape ({n},)")
        y = class_indices(y)
        if np.any((heights < 0) | np.isinf(heights)):
            raise ValueError("heights must be finite and non-negative, or NaN for none")
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

    def subset(self, indices) -> "Dataset":
        """The rows at `indices` (positions, a slice or a boolean mask)."""
        rows = np.arange(len(self))[indices]
        return Dataset._adopt(self.X[rows], self.y[rows], self.heights[rows])


# --- model files: an object is stored as its constructor arguments ----------

Float64s = Annotated[np.ndarray, np.float64]
Int64s = Annotated[np.ndarray, np.int64]


@functools.cache
def declared(cls) -> dict:
    """`cls`'s constructor argument names, in order, each mapped to the dtype
    its `Float64s` or `Int64s` annotation declares, to its class if that is a
    dataclass, or else to None."""
    kinds = {}
    for p in inspect.signature(cls, eval_str=True).parameters.values():
        hint = p.annotation
        if get_origin(hint) is Union:  # Optional[X] declares what X does
            hint = get_args(hint)[0]
        if hint in (Float64s, Int64s):
            kinds[p.name] = np.dtype(hint.__metadata__[0])
        else:
            kinds[p.name] = hint if dataclasses.is_dataclass(hint) else None
    return kinds


def stored(obj) -> dict:
    """The constructor arguments of `obj`, from its attributes of the same names."""
    return {name: getattr(obj, name) for name in declared(type(obj))}


def restore(cls, section: dict):
    """`cls` rebuilt from the `stored` section of a model file.

    Every constructor argument must be present: arrays are read through
    `unpack` at their declared dtype, dataclasses are restored in turn, and
    the rest are passed as stored, for the constructor to check.
    """
    arguments = {}
    for name, kind in declared(cls).items():
        if isinstance(kind, np.dtype):
            arguments[name] = unpack(section, name, kind)
        else:
            arguments[name] = section[name] if kind is None else restore(kind, section[name])
    return cls(**arguments)


def pack(value) -> dict:
    """A float64 or int64 array as `{"dtype", "shape", "data"}`, `data` being
    the base64 of its little-endian C-order bytes (NumPy's .npy layout,
    NEP 1); a dataclass as its `stored` section.

    The `default=` hook of the model-file `json.dumps`.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return stored(value)
    if not (isinstance(value, np.ndarray) and value.dtype.kind in "fi" and value.itemsize == 8):
        raise TypeError(f"cannot pack a {type(value).__name__} into a model file")
    dtype = value.dtype.newbyteorder("<")
    data = base64.b64encode(value.astype(dtype, copy=False).tobytes()).decode("ascii")
    return {"dtype": dtype.str, "shape": list(value.shape), "data": data}


def unpack(section: dict, key: str, dtype) -> np.ndarray:
    """The read-only `dtype` (float64 or int64) array that `pack` stored at
    `section[key]`.

    Anything else, an array of the other dtype included, and any NaN or
    infinity, raises ValueError naming `key`.
    """
    expected = np.dtype(dtype).newbyteorder("<").str
    packed = section[key]
    if not isinstance(packed, dict) or set(packed) != {"dtype", "shape", "data"}:
        raise ValueError(f"model file array {key!r} is not a packed array")
    shape, data = packed["shape"], packed["data"]
    if packed["dtype"] != expected:
        raise ValueError(
            f"model file array {key!r} has dtype {packed['dtype']!r}, not {expected!r}"
        )
    if not (isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)):
        raise ValueError(f"model file array {key!r} has shape {shape!r}, not a list of sizes")
    try:
        raw = base64.b64decode(data, validate=True)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"model file array {key!r} is not valid base64") from exc
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(f"model file array {key!r} holds {len(raw)} bytes, "
                         f"not the {8 * math.prod(shape)} of shape {shape}")
    arr = np.frombuffer(raw, dtype=expected).reshape(shape)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"model file array {key!r} must be finite")
    return arr
