"""Canonical CSV codec for scan datasets plus class-distribution summaries.

Schema: header `label,height_m,d000,...,d270` (the height_m column is
optional and detected from the header), one labeled scan per data row.
Distances are rendered with 4 decimal places, '.' decimal separator and
'\\n' line endings, so a written file is byte-stable across platforms.

The writer formats the distances of a block of rows at a time in numpy,
into exactly the bytes of `"%.4f"`. A Dataset keeps X in [0.001, 30], so
q = x * 1e4 is below 2**19 and off the exact x * 10**4 by at most 2**-35
(half an ulp): rint(q) is the correctly rounded count of 1e-4 m unless q
lies that close to a half. Each field is the template "dd.dddd," with the
tens digit dropped below 10 m, and a row's last comma becomes its newline.
A row holding a value within 1e-9 of a half, or outside the envelope, is
formatted field by field with `"%.4f"` instead. Label and height prefixes
are formatted in Python; a height keeps `"%.4f"`, having no upper bound.
"""
from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass
from typing import IO

import numpy as np

from .core import (
    LABEL_NAMES,
    MAX_RANGE_M,
    MIN_RANGE_M,
    NUM_BEAMS,
    NUM_CLASSES,
    ClassLabel,
    Dataset,
    label_codec,
)
from .errors import RowError, SchemaError

DISTANCE_COLUMNS = tuple(f"d{k:03d}" for k in range(NUM_BEAMS))
HEADER_WITH_HEIGHT = "label,height_m," + ",".join(DISTANCE_COLUMNS)
HEADER_NO_HEIGHT = "label," + ",".join(DISTANCE_COLUMNS)
_ROW_FORMAT = ",".join(["%.4f"] * NUM_BEAMS)

# Rows formatted per numpy pass. The stream still gets one write per row:
# writing 4 or 32 rows at a time to an io.StringIO raised the peak RSS of
# the ingest benchmark (2,000 rows written, parsed back and fingerprinted)
# by 0.3-0.5 and 1.2-1.7 MB, as glibc's heap grew further.
_BLOCK_ROWS = 16
# Lines whose distances are read per numpy call. A 2,000-row parse took
# about 48 ms at 16, 64, 256 and 2,048 lines (best of 15, 2-core x86-64
# VM), against 107 ms for float() per field. From 256 lines on, a block's
# text and numpy's working copies of it lift a 1,000-row parse's
# tracemalloc peak from 1.21 to 1.54-3.08 times X.
_PARSE_ROWS = 64
# characters that numpy's float reader strips as whitespace and float() refuses
_SEPARATORS = "\x1c\x1d\x1e\x1f"
# a row with a value this close to a rounding half goes to _ROW_FORMAT; the
# margin is far above the 2**-35 error of x * 1e4
_HALF_MARGIN = 1e-9


def _pair_images(layout: bytes) -> np.ndarray:
    """`layout % d` for d = 0..99, spaces made NULs, as little-endian uint64s."""
    return np.frombuffer(b"".join(layout % d for d in range(100)).replace(b" ", b"\0"), "<u8")


# A field "dd.dddd," is the OR of three 8-byte images: the whole meters with
# the point and the comma (a NUL, dropped later, for the tens digit below
# 10 m), the first two decimals and the last two.
_METER_BYTES = _pair_images(b"%2d.\0\0\0\0,")
_CENTIMETER_BYTES = _pair_images(b"\0\0\0%02d\0\0\0")
_TENTH_MM_BYTES = _pair_images(b"\0\0\0\0\0%02d\0")


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
    Errors carry 1-based line numbers; a file with several faults reports
    its first line.

    The distances of `_PARSE_ROWS` lines at a time go through one
    `np.loadtxt` call. Its arguments (`delimiter`, `comments`, `ndmin`) all
    exist in numpy 1.23, which brought the C reader, so the `numpy>=1.24`
    floor holds. That reader rounds as `float()` does and reads a subset of
    what `float()` reads, but for the ASCII separators \\x1c-\\x1f, which
    it strips as whitespace. A block holding one of them, one that numpy
    refuses and one it reads into another shape are converted field by
    field with `float()`.
    """
    header_line = stream.readline().rstrip("\r\n")
    has_height = _check_header(header_line)

    distances = array("d")  # packed doubles, not a list of Python floats
    labels: list[int] = []
    heights: list[float] = []
    line_numbers: list[int] = []
    texts: list[str] = []
    for line_number, line in enumerate(stream, start=2):
        line = line.rstrip("\r\n")
        if not line:
            continue
        try:
            label, height, text = _split_row(line_number, line, has_height)
        except RowError:
            _extend_distances(distances, line_numbers, texts)  # may hold an earlier fault
            raise
        labels.append(label)
        heights.append(height)
        line_numbers.append(line_number)
        texts.append(text)
        if len(texts) == _PARSE_ROWS:
            _extend_distances(distances, line_numbers, texts)
            line_numbers.clear()
            texts.clear()
    _extend_distances(distances, line_numbers, texts)

    # the Dataset imputes the packed buffer in place rather than copying it
    return Dataset._adopt(
        np.frombuffer(distances).reshape(-1, NUM_BEAMS),
        np.array(labels, dtype=np.int64),
        heights=np.array(heights),
    )


def _split_row(line_number: int, line: str, has_height: bool) -> tuple[int, float, str]:
    """The label, the height (NaN for none) and the distance text of a data
    line, whose fields are counted but not converted."""
    offset = 2 if has_height else 1
    fields = line.count(",") + 1
    if fields != offset + NUM_BEAMS:
        raise RowError(line_number, f"expected {offset + NUM_BEAMS} fields, got {fields}")
    head = line.split(",", offset)
    try:
        label = label_codec(head[0])
    except Exception as exc:
        raise RowError(line_number, str(exc)) from exc
    height = math.nan
    if has_height and head[1] != "":
        try:
            height = float(head[1])
        except ValueError:
            pass  # left NaN, so reported below with the out-of-range values
        if not 0.0 <= height < math.inf:
            raise RowError(
                line_number, f"height_m {head[1]!r} is not a finite non-negative number"
            )
    return label, height, head[-1]


def _extend_distances(distances: array, line_numbers: list[int], texts: list[str]) -> None:
    """Append the distances of a block of lines to `distances`, in one numpy
    read or else with `float()` per field, which names the first bad line."""
    if not texts:
        return  # loadtxt warns on empty input
    if not any(c in text for text in texts for c in _SEPARATORS):
        try:
            block = np.loadtxt(texts, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if block.shape == (len(texts), NUM_BEAMS):
                distances.frombytes(memoryview(block).cast("B"))
                return
    for line_number, text in zip(line_numbers, texts):
        try:
            distances.extend([float(v) for v in text.split(",")])
        except ValueError as exc:
            raise RowError(line_number, f"unparseable distance: {exc}") from exc


def write_dataset(dataset: Dataset, stream: IO[str]) -> None:
    """Serialize a Dataset to the canonical CSV form.

    The height_m column is emitted when any row carries a height; rows
    without one get an empty field. parse(write(d)) = d for datasets whose
    distances sit on the 4-decimal grid. The header and each row are one
    write to the stream.
    """
    has_height = not np.all(np.isnan(dataset.heights))
    stream.write((HEADER_WITH_HEIGHT if has_height else HEADER_NO_HEIGHT) + "\n")
    labels, heights = dataset.y.tolist(), dataset.heights.tolist()
    for start in range(0, len(labels), _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        prefixes = [LABEL_NAMES[label] + "," for label in labels[block]]
        if has_height:
            prefixes = [
                prefix + ("" if math.isnan(height) else "%.4f" % height) + ","
                for prefix, height in zip(prefixes, heights[block])
            ]
        for prefix, line in zip(prefixes, _block_lines(dataset.X[block])):
            stream.write(prefix + line)


def _block_lines(X: np.ndarray) -> list[str]:
    """The distance fields of each row of X as CSV text, newline included."""
    fields, exact = _field_bytes(X)
    # deleting the NULs drops the tens digits below 10 m
    lines = fields.tobytes().translate(None, b"\0").decode("ascii").splitlines(keepends=True)
    for i in np.flatnonzero(~exact).tolist():
        lines[i] = _ROW_FORMAT % tuple(X[i].tolist()) + "\n"
    return lines


def _field_bytes(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bytes of each row's fields, (rows, 8 * NUM_BEAMS) uint8 with a NUL
    for each dropped tens digit, and whether the row's bytes are exact."""
    q = X * 1e4
    k = np.rint(q)
    q -= k
    exact = (
        (np.abs(q, out=q).max(axis=1) < 0.5 - _HALF_MARGIN)
        & (X.min(axis=1) >= MIN_RANGE_M)
        & (X.max(axis=1) <= MAX_RANGE_M)
    )
    k[~exact] = 0.0  # any count in range: these rows are formatted otherwise
    meters, rest = np.divmod(k.astype(np.intp), 10_000)
    centimeters, tenths_mm = np.divmod(rest, 100)
    fields = _METER_BYTES[meters]
    fields |= _CENTIMETER_BYTES[centimeters]
    fields |= _TENTH_MM_BYTES[tenths_mm]
    fields = fields.view(np.uint8)
    fields[:, -1] = ord("\n")
    return fields, exact


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
