"""Canonical CSV codec for scan datasets plus class-distribution summaries.

Schema: header `label,height_m,d000,...,d270` (the height_m column is
optional and detected from the header), one labeled scan per data row.
Distances are rendered with 4 decimal places, '.' decimal separator and
'\\n' line endings, so a written file is byte-stable across platforms.
"""
from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass
from typing import IO

import numpy as np

from .core import LABEL_NAMES, NUM_BEAMS, NUM_CLASSES, ClassLabel, Dataset, label_codec
from .errors import RowError, SchemaError

DISTANCE_COLUMNS = tuple(f"d{k:03d}" for k in range(NUM_BEAMS))
HEADER_WITH_HEIGHT = "label,height_m," + ",".join(DISTANCE_COLUMNS)
HEADER_NO_HEIGHT = "label," + ",".join(DISTANCE_COLUMNS)
_ROW_FORMAT = ",".join(["%.4f"] * NUM_BEAMS)


@dataclass
class DatasetSummary:
    counts: dict[ClassLabel, int]
    total: int
    feature_min: np.ndarray
    feature_max: np.ndarray
    feature_mean: np.ndarray

    def to_json(self) -> str:
        payload = {
            "total": self.total,
            "counts": {label.name: self.counts[label] for label in ClassLabel},
            "features": {
                "min": self.feature_min.tolist(),
                "max": self.feature_max.tolist(),
                "mean": self.feature_mean.tolist(),
            },
        }
        return json.dumps(payload, indent=2)


def parse_dataset(stream: IO[str]) -> Dataset:
    """Parse the canonical CSV into a Dataset; row order is preserved.

    Out-of-range or non-finite distances are imputed per the clipping rule.
    Errors carry 1-based line numbers.
    """
    header_line = stream.readline().rstrip("\r\n")
    has_height = _check_header(header_line)
    offset = 2 if has_height else 1
    expected_fields = offset + NUM_BEAMS

    distances = array("d")  # packed doubles, not a list of Python floats
    labels: list[int] = []
    heights: list[float] = []
    for line_number, line in enumerate(stream, start=2):
        line = line.rstrip("\r\n")
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != expected_fields:
            raise RowError(
                line_number,
                f"expected {expected_fields} fields, got {len(fields)}",
            )
        try:
            labels.append(label_codec(fields[0]))
        except Exception as exc:
            raise RowError(line_number, str(exc)) from exc
        height = math.nan
        if has_height and fields[1] != "":
            try:
                height = float(fields[1])
            except ValueError:
                pass  # left NaN, so reported below with the out-of-range values
            if not 0.0 <= height < math.inf:
                raise RowError(
                    line_number, f"height_m {fields[1]!r} is not a finite non-negative number"
                )
        heights.append(height)
        try:
            distances.extend([float(v) for v in fields[offset:]])
        except ValueError as exc:
            raise RowError(line_number, f"unparseable distance: {exc}") from exc

    # the Dataset imputes the packed buffer in place rather than copying it
    return Dataset._adopt(
        np.frombuffer(distances).reshape(-1, NUM_BEAMS),
        np.array(labels, dtype=np.int64),
        heights=np.array(heights),
    )


def write_dataset(dataset: Dataset, stream: IO[str]) -> None:
    """Serialize a Dataset to the canonical CSV form.

    The height_m column is emitted when any row carries a height; rows
    without one get an empty field. parse(write(d)) = d for datasets whose
    distances sit on the 4-decimal grid.
    """
    has_height = not np.all(np.isnan(dataset.heights))
    stream.write((HEADER_WITH_HEIGHT if has_height else HEADER_NO_HEIGHT) + "\n")
    for label, height, ranges in zip(
        dataset.y.tolist(), dataset.heights.tolist(), dataset.X
    ):
        prefix = LABEL_NAMES[label] + ","
        if has_height:
            prefix += ("" if math.isnan(height) else "%.4f" % height) + ","
        stream.write(prefix + _ROW_FORMAT % tuple(ranges.tolist()) + "\n")


def summarize(dataset: Dataset) -> DatasetSummary:
    """Exact per-class counts and per-feature min/max/mean."""
    counts = np.bincount(dataset.y, minlength=NUM_CLASSES)
    return DatasetSummary(
        counts={label: int(counts[label]) for label in ClassLabel},
        total=len(dataset),
        feature_min=dataset.X.min(axis=0),
        feature_max=dataset.X.max(axis=0),
        feature_mean=dataset.X.mean(axis=0),
    )


def _check_header(header_line: str) -> bool:
    columns = header_line.split(",")
    if columns and columns[0].startswith("﻿"):
        columns[0] = columns[0].lstrip("﻿")
    for candidate, has_height in ((HEADER_WITH_HEIGHT, True), (HEADER_NO_HEIGHT, False)):
        if columns == candidate.split(","):
            return has_height
    expected = set(HEADER_WITH_HEIGHT.split(","))
    missing = sorted(expected - set(columns) - {"height_m"})
    raise SchemaError(
        "malformed header; expected `label[,height_m],d000,...,d270`"
        + (f" (missing columns: {', '.join(missing[:5])}...)" if missing else "")
    )
