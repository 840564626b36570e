"""Command-line entry point: simulate / summarize / train / predict / crossval.

Exit codes: 0 success, 1 usage error, 2 data or validation error, or a
file the command cannot read or write, 3 runtime failure. Diagnostics go
to stderr; machine-readable output goes to files or stdout only.
"""
from __future__ import annotations

import argparse
import errno
import io
import json
import math
import os
import sys
from pathlib import Path

from . import classifiers
from .classifiers import ModelSpec, VARIANTS, load_model, model_to_json, predict_proba
from .core import ClassLabel, validate_scan
from .dataset_io import parse_dataset, summarize, write_dataset
from .errors import PlaceScanError
from .evaluate import run_experiment
from .reporting import atomic_write_text, render_report
from .simulate import SimConfig, generate_dataset

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="placescan", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic dataset CSV")
    p_sim.add_argument("--per-class", type=int, required=True, metavar="N",
                       help="rows per class (4 classes total)")
    p_sim.add_argument("--seed", type=int, default=42, help="RNG seed (default 42)")
    noise = p_sim.add_mutually_exclusive_group()
    noise.add_argument("--noise-sigma", type=float, default=0.01, metavar="F",
                       help="range noise standard deviation, meters (default 0.01)")
    noise.add_argument("--no-noise", action="store_true", help="disable range noise")
    p_sim.add_argument("--out", required=True, metavar="PATH", help="output CSV path")

    p_sum = sub.add_parser("summarize", help="print dataset summary JSON to stdout")
    p_sum.add_argument("--data", required=True, metavar="PATH", help="dataset CSV")

    p_train = sub.add_parser("train", help="train one classifier and save the model")
    p_train.add_argument("--model", required=True, choices=VARIANTS,
                         help="classifier variant")
    p_train.add_argument("--data", required=True, metavar="PATH", help="dataset CSV")
    p_train.add_argument("--seed", type=int, default=42, help="training seed (default 42)")
    p_train.add_argument("--out", required=True, metavar="MODEL",
                         help="output model JSON path")

    p_pred = sub.add_parser("predict", help="classify one scan with a saved model")
    p_pred.add_argument("--model", required=True, metavar="MODEL", help="model JSON path")
    p_pred.add_argument("--scan", required=True, metavar="PATH",
                        help="scan file: dataset CSV (first row) or one line of "
                        "271 comma-separated distances in meters")

    p_cv = sub.add_parser("crossval", help="stratified cross-validation and reports")
    p_cv.add_argument("--model", required=True, choices=(*VARIANTS, "all"),
                      help="classifier variant or 'all'")
    p_cv.add_argument("--data", required=True, metavar="PATH", help="dataset CSV")
    p_cv.add_argument("--folds", type=int, default=5, metavar="K",
                      help="number of folds (default 5)")
    p_cv.add_argument("--seed", type=int, default=42, help="fold/training seed (default 42)")
    p_cv.add_argument("--out", required=True, metavar="DIR", help="report directory")
    return parser


def _load_dataset(path: str):
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_dataset(fh)


def _refuse_directory(path: str) -> None:
    """Refuse an output file path that is a directory before any work."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def _cmd_simulate(args) -> int:
    _refuse_directory(args.out)
    config = SimConfig.uniform(
        args.per_class,
        seed=args.seed,
        noise_sigma=0.0 if args.no_noise else args.noise_sigma,
    )
    dataset = generate_dataset(config)
    buf = io.StringIO()
    write_dataset(dataset, buf)
    atomic_write_text(args.out, buf.getvalue())
    print(f"wrote {len(dataset)} rows to {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_summarize(args) -> int:
    dataset = _load_dataset(args.data)
    print(summarize(dataset).to_json())
    return EXIT_OK


def _cmd_train(args) -> int:
    _refuse_directory(args.out)
    dataset = _load_dataset(args.data)
    spec = ModelSpec(variant=args.model, seed=args.seed)
    model = classifiers.train(spec, dataset)
    atomic_write_text(args.out, model_to_json(model))
    print(f"trained {args.model} on {len(dataset)} rows -> {args.out}", file=sys.stderr)
    if not model.metadata["converged"]:
        print(f"note: {args.model} stopped at its iteration cap without converging",
              file=sys.stderr)
    return EXIT_OK


def _read_scan(path: str):
    with open(path, "r", encoding="utf-8-sig") as fh:
        first = fh.readline()
        if first.split(",")[0].strip() == "label":
            # only the header and the first data row are read; blank lines
            # before it are kept so that errors name the right line
            head = first
            for line in fh:
                head += line
                if line.rstrip("\r\n"):
                    break
            return validate_scan(parse_dataset(io.StringIO(head)).X[0])
    fields = first.strip().split(",")
    if len(fields) > 1 and fields[-1] == "":
        fields.pop()  # a trailing comma
    if "" in fields:
        raise ValueError(f"scan field {fields.index('') + 1} is empty")
    return validate_scan([float(v) for v in fields])


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    scan = _read_scan(args.scan)
    proba = predict_proba(model, scan)
    if not all(map(math.isfinite, proba)):
        raise ValueError(f"the {model.spec.variant} model gives non-finite probabilities "
                         f"{proba.tolist()}; its model file is unusable")
    label = ClassLabel(int(proba.argmax()))
    print(
        json.dumps(
            {
                "label": label.name,
                "probabilities": {
                    lab.name: float(proba[int(lab)]) for lab in ClassLabel
                },
            }
        )
    )
    return EXIT_OK


def _cmd_crossval(args) -> int:
    dataset = _load_dataset(args.data)
    variants = list(VARIANTS) if args.model == "all" else [args.model]
    Path(args.out).mkdir(parents=True, exist_ok=True)  # fails before any training
    report = run_experiment(variants, dataset, k=args.folds, seed=args.seed)
    written = render_report(report, args.out)
    for v in report.variants:
        print(f"{v.name}: mean accuracy {v.mean:.4f} +/- {v.std:.4f}", file=sys.stderr)
    print(f"wrote {len(written)} files to {args.out}", file=sys.stderr)
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "summarize": _cmd_summarize,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "crossval": _cmd_crossval,
}


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(parser.format_usage(), file=sys.stderr, end="")
        return EXIT_USAGE
    except SystemExit as exc:  # --help exits with 0
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (PlaceScanError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
