"""Report emission: report.json, a Table-style accuracy CSV, and one SVG of
per-class precision-recall curves per classifier variant.

Each SVG is 800x600 with both axes spanning [0, 1] and exactly four path
elements, one per class, labeled with its average precision.
"""
from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from .core import ClassLabel
from .evaluate import Report, VariantResult

SVG_WIDTH = 800
SVG_HEIGHT = 600
_MARGIN = 70
_CLASS_COLORS = {
    ClassLabel.corridor: "#1f77b4",
    ClassLabel.staircase: "#d62728",
    ClassLabel.restroom: "#2ca02c",
    ClassLabel.shared_space: "#9467bd",
}


def atomic_write_text(path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    partial file. An `OSError` names `path`, not the temp file."""
    path = Path(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise type(exc)(exc.errno, exc.strerror, str(path)) from exc
        raise


def accuracy_csv(report: Report) -> str:
    header = "classifier," + ",".join(f"fold{i + 1}" for i in range(report.k))
    lines = [header + ",mean,std"]
    for v in report.variants:
        folds = ",".join(repr(a) for a in v.fold_accuracies)
        lines.append(f"{v.name},{folds},{v.mean!r},{v.std!r}")
    return "\n".join(lines) + "\n"


def _to_px(recall: float, precision: float) -> tuple[float, float]:
    x = _MARGIN + recall * (SVG_WIDTH - 2 * _MARGIN)
    y = SVG_HEIGHT - _MARGIN - precision * (SVG_HEIGHT - 2 * _MARGIN)
    return x, y


def pr_curves_svg(result: VariantResult) -> str:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" '
        f'height="{SVG_HEIGHT}" viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect x="0" y="0" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
    ]
    x0, y0 = _to_px(0.0, 0.0)
    x1, y1 = _to_px(1.0, 1.0)
    parts.append(
        f'<rect x="{x1 - (x1 - x0)}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
        'fill="none" stroke="black"/>'
    )
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        tx, _ = _to_px(tick, 0.0)
        _, ty = _to_px(0.0, tick)
        parts.append(
            f'<text x="{tx:.1f}" y="{y0 + 20:.1f}" font-size="12" '
            f'text-anchor="middle">{tick:g}</text>'
        )
        parts.append(
            f'<text x="{x0 - 10:.1f}" y="{ty + 4:.1f}" font-size="12" '
            f'text-anchor="end">{tick:g}</text>'
        )
    parts.append(
        f'<text x="{(x0 + x1) / 2:.1f}" y="{SVG_HEIGHT - 20}" font-size="14" '
        'text-anchor="middle">recall</text>'
    )
    parts.append(
        f'<text x="20" y="{(y0 + y1) / 2:.1f}" font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 20 {(y0 + y1) / 2:.1f})">precision</text>'
    )
    parts.append(
        f'<text x="{(x0 + x1) / 2:.1f}" y="30" font-size="16" '
        f'text-anchor="middle">{result.name}: per-class precision-recall</text>'
    )
    for i, cc in enumerate(result.per_class):
        color = _CLASS_COLORS[cc.label]
        coords = [_to_px(r, p) for r, p in cc.curve]
        d = "M " + " L ".join(f"{x:.2f} {y:.2f}" for x, y in coords)
        parts.append(f'<path d="{d}" fill="none" stroke="{color}" stroke-width="2"/>')
        ly = 55 + 18 * i
        parts.append(
            f'<rect x="{SVG_WIDTH - 250}" y="{ly - 10}" width="12" height="12" '
            f'fill="{color}"/>'
        )
        parts.append(
            f'<text x="{SVG_WIDTH - 232}" y="{ly}" font-size="12">'
            f"{cc.label.name} (AP = {cc.ap:.3f})</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_report(report: Report, out_dir) -> list[Path]:
    """Write report.json, accuracy.csv and one pr_<variant>.svg per variant.

    Returns the list of written paths.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    json_path = out_dir / "report.json"
    atomic_write_text(json_path, json.dumps(report.to_dict(), indent=2) + "\n")
    written.append(json_path)
    csv_path = out_dir / "accuracy.csv"
    atomic_write_text(csv_path, accuracy_csv(report))
    written.append(csv_path)
    for v in report.variants:
        svg_path = out_dir / f"pr_{v.name}.svg"
        atomic_write_text(svg_path, pr_curves_svg(v))
        written.append(svg_path)
    return written
