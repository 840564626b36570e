"""The three benchmark workloads, driven through placescan's public library API.

Each workload builds its inputs from the seed in ``setup``, does one pass of
its timed work in ``run_pass`` and checks that pass's outputs in ``check``.
``start`` and ``stop`` bracket the timed passes, and ``summary`` gives the
figures that only this workload has.
Calls go through module attributes (``classifiers.train``, not a name
imported from it) so that the span wrappers of a traced run see them.

- ``crossval``: one ``run_experiment`` over all six variants with k=5, then
  ``render_report``. Training does almost all the work.
- ``predict``: a closed loop with one client. Each pass saves and loads every
  model through JSON, streams single held-out scans through ``predict_proba``
  in a seeded variant order, then scores the raw held-out batch through each
  model's ``predict_proba_matrix``. Inference does the work; nothing trains.
- ``ingest``: simulate a dataset, write and parse its CSV, summarize it,
  fingerprint it and fit the Box-Cox transform. No classifier runs.
"""
from __future__ import annotations

import io
import json
import statistics
import time
from pathlib import Path

import numpy as np

from placescan import classifiers, core, dataset_io, evaluate, features, reporting, simulate

VARIANTS = ("rf", "adaboost", "svm", "logreg", "mlp", "cnn")
NUM_CLASSES = 4
SIMPLEX_TOL = 1e-9

# crossval: 30 rows per class (96 training rows per fold). The iteration
# budgets are cut so one pass takes seconds, not minutes; model shapes
# (network architectures, tree depth, kernel, features per split) keep their
# defaults. SVM has no iteration budget and runs to convergence.
CROSSVAL_PER_CLASS = 30
CROSSVAL_FOLDS = 5
CROSSVAL_BUDGETS = {
    "rf": {"trees": 20},
    "adaboost": {"rounds": 20},
    "logreg": {"max_iter": 200},
    "mlp": {"epochs": 2},
    "cnn": {"epochs": 1},
}

# predict: only budgets that leave the cost of a prediction unchanged are
# cut. Forest size and boosting rounds set how many trees and stumps a
# prediction walks, so they keep their defaults.
PREDICT_TRAIN_PER_CLASS = 30
PREDICT_HELD_OUT_PER_CLASS = 100
PREDICT_BUDGETS = {"logreg": {"max_iter": 100}, "mlp": {"epochs": 1}, "cnn": {"epochs": 1}}
# Share of held-out beams replaced by a lidar no-return: NaN, +inf or a
# negative distance, one third each.
DROPOUT_SHARE = 0.001
# Single scans between two speed samples inside a pass.
PREDICT_SAMPLE_EVERY = 600
HELD_OUT_SEED_OFFSET = 1_000_003

# ingest: a couple of thousand rows, and a tiny dataset for the warm-up in
# set-up (at least 3 rows, as the Box-Cox fit needs).
INGEST_PER_CLASS = 500
INGEST_WARMUP_PER_CLASS = 2


class Tally:
    """Output checks: each check is one attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}

    def add(self, ok, reason: str, attempted: int = 1) -> None:
        """Count `attempted` operations; `ok` is a bool or a count of successes."""
        passed = attempted if ok is True else (0 if ok is False else int(ok))
        self.attempted += attempted
        if passed < attempted:
            self.failed += attempted - passed
            self.reasons[reason] = self.reasons.get(reason, 0) + attempted - passed

    @property
    def correct(self) -> bool:
        return self.failed == 0


def simplex_rows(P) -> np.ndarray:
    """Boolean per row: finite, non-negative, summing to one."""
    P = np.asarray(P, dtype=np.float64)
    finite = np.all(np.isfinite(P), axis=1)
    with np.errstate(invalid="ignore"):
        nonneg = np.all(P >= 0.0, axis=1)
        sums = np.abs(P.sum(axis=1) - 1.0) <= SIMPLEX_TOL
    return finite & nonneg & sums


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


class Crossval:
    name = "crossval"

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        # The runner sets this to a callable that samples the machine's speed;
        # it is called between folds, as one pass lasts many seconds.
        self.sample = None
        self.out_dir = out_dir / "crossval-report"
        self.first_report = None
        self.accuracy = None
        self._recorded: list[np.ndarray] = []
        self._original_matrix = None

    def setup(self) -> None:
        config = simulate.SimConfig.uniform(CROSSVAL_PER_CLASS, seed=self.seed)
        self.dataset = simulate.generate_dataset(config)

    def start(self) -> None:
        """Record every out-of-fold probability matrix for the checks."""
        original = classifiers.TrainedModel.predict_proba_matrix
        recorded = self._recorded
        workload = self

        def recording(model, X_raw):
            if workload.sample is not None:
                workload.sample()
            P = original(model, X_raw)
            recorded.append(P)
            return P

        self._original_matrix = original
        classifiers.TrainedModel.predict_proba_matrix = recording

    def stop(self) -> None:
        classifiers.TrainedModel.predict_proba_matrix = self._original_matrix

    def run_pass(self):
        self._recorded.clear()
        report = evaluate.run_experiment(
            list(VARIANTS),
            self.dataset,
            k=CROSSVAL_FOLDS,
            seed=self.seed,
            variant_params=CROSSVAL_BUDGETS,
        )
        paths = reporting.render_report(report, self.out_dir)
        return report, paths, list(self._recorded)

    def check(self, output, tally: Tally) -> None:
        report, paths, recorded = output
        n = len(self.dataset)
        rows = 0
        for P in recorded:
            tally.add(int(simplex_rows(P).sum()), "oof row off the simplex", P.shape[0])
            rows += P.shape[0]
        tally.add(rows == n * len(VARIANTS), "oof rows not scored once per variant")

        y = self.dataset.label_vector()
        folds = evaluate.stratified_folds(y, CROSSVAL_FOLDS, self.seed)
        for fold in range(CROSSVAL_FOLDS):
            test = y[folds.test_indices(fold)]
            ok = all(
                abs(np.sum(test == c) - np.sum(y == c) / CROSSVAL_FOLDS) < 1.0
                for c in range(NUM_CLASSES)
            )
            tally.add(ok, "fold class counts not proportional")

        document = report.to_dict()
        written = json.loads((self.out_dir / "report.json").read_text(encoding="utf-8"))
        tally.add(
            written == json.loads(json.dumps(document))
            and len(paths) == 2 + len(VARIANTS)
            and [v["name"] for v in document["variants"]] == list(VARIANTS),
            "report files incomplete",
        )
        if self.first_report is None:
            self.first_report = document
            self.accuracy = float(np.mean([v.mean for v in report.variants]))
        else:
            tally.add(document == self.first_report, "report differs between passes")

    def summary(self, passes: list[float]) -> dict:
        return {"cv_accuracy_mean": self.accuracy}


class Predict:
    name = "predict"

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        # As in Crossval: the runner's speed sampler, called inside a pass.
        self.sample = None
        self.latencies: list[np.ndarray] = []
        self.batch_rates: list[float] = []
        self.reference = None
        # Dropout rows of the batch, per pass: how many were compared with
        # the single-scan path, and how many differed (the known gap).
        self.gap_rows = 0
        self.gap_differs = 0

    def setup(self) -> None:
        train_data = simulate.generate_dataset(
            simulate.SimConfig.uniform(PREDICT_TRAIN_PER_CLASS, seed=self.seed)
        )
        held_out = simulate.generate_dataset(
            simulate.SimConfig.uniform(
                PREDICT_HELD_OUT_PER_CLASS, seed=self.seed + HELD_OUT_SEED_OFFSET
            )
        )
        self.models = {
            v: classifiers.train(
                classifiers.ModelSpec(v, seed=self.seed, params=PREDICT_BUDGETS.get(v, {})),
                train_data,
            )
            for v in VARIANTS
        }
        rng = np.random.default_rng([self.seed, 7])
        raw = held_out.feature_matrix()
        drop = rng.random(raw.shape) < DROPOUT_SHARE
        kind = rng.integers(0, 3, size=raw.shape)
        raw[drop & (kind == 0)] = np.nan
        raw[drop & (kind == 1)] = np.inf
        raw[drop & (kind == 2)] = -1.0
        self.raw = raw
        self.dropout_rows = drop.any(axis=1)
        self.raw_rows = [raw[i].copy() for i in range(raw.shape[0])]
        # closed loop over every (variant, row) pair in a seeded order
        pairs = np.array(
            [(v, i) for v in range(len(VARIANTS)) for i in range(raw.shape[0])]
        )
        self.order = [tuple(map(int, p)) for p in pairs[rng.permutation(len(pairs))]]

    def start(self) -> None:
        """Single-scan answers of the freshly trained models, for the checks."""
        self.reference = {
            v: np.array(
                [
                    classifiers.predict_proba(self.models[v], core.validate_scan(row))
                    for row in self.raw_rows
                ]
            )
            for v in VARIANTS
        }

    def stop(self) -> None:
        pass

    def run_pass(self):
        loaded = {}
        json_bytes = {}
        for v in VARIANTS:
            text = classifiers.model_to_json(self.models[v])
            loaded[v] = classifiers.model_from_json(text)
            json_bytes[v] = len(text)
        models = [loaded[v] for v in VARIANTS]
        sample = self.sample or (lambda: None)
        sample()
        rows = self.raw_rows
        single = np.empty((len(VARIANTS), len(rows), NUM_CLASSES))
        latency = np.empty(len(self.order))
        clock = time.perf_counter
        predict_proba = classifiers.predict_proba
        validate_scan = core.validate_scan
        for k, (v, i) in enumerate(self.order):
            if k and k % PREDICT_SAMPLE_EVERY == 0:
                sample()
            t0 = clock()
            single[v, i] = predict_proba(models[v], validate_scan(rows[i]))
            latency[k] = clock() - t0
        t0 = clock()
        batch = np.stack([model.predict_proba_matrix(self.raw) for model in models])
        batch_s = clock() - t0
        return loaded, json_bytes, single, latency, batch, batch_s

    def check(self, output, tally: Tally) -> None:
        loaded, json_bytes, single, latency, batch, batch_s = output
        gap_rows = gap_differs = 0
        self.latencies.append(latency * 1e3)
        self.batch_rates.append(batch.shape[0] * batch.shape[1] / batch_s)
        for v in VARIANTS:
            tally.add(
                json_bytes[v] > 0 and loaded[v].spec == self.models[v].spec,
                "model did not survive save and load",
            )
        for index, v in enumerate(VARIANTS):
            ok = simplex_rows(single[index]) & np.all(
                np.abs(single[index] - self.reference[v]) <= 1e-12, axis=1
            )
            tally.add(int(ok.sum()), "single-scan answer changed", len(ok))
            with np.errstate(invalid="ignore"):
                same = np.all(
                    np.isclose(batch[index], single[index], rtol=1e-9, atol=1e-12), axis=1
                )
            ok = simplex_rows(batch[index]) & same
            clean = ~self.dropout_rows
            tally.add(int(ok[clean].sum()), "batch row differs from single scan", int(clean.sum()))
            # Known gap: predict_proba_matrix does not impute non-finite
            # beams the way validate_scan does. Rows with a dropout are
            # reported on the summary line, not as failed operations, so a
            # run fails only when the program gets worse.
            gap_rows += int((~clean).sum())
            gap_differs += int((~ok[~clean]).sum())
        self.gap_rows, self.gap_differs = gap_rows, gap_differs

    def summary(self, passes: list[float]) -> dict:
        latencies = np.concatenate(self.latencies)
        return {
            "predict_p50_ms": percentile(latencies, 50),
            "predict_p99_ms": percentile(latencies, 99),
            "predict_samples": int(latencies.size),
            "batch_rows_per_s": statistics.median(self.batch_rates),
            "dropout_rows_per_pass": self.gap_rows,
            "dropout_rows_differing_per_pass": self.gap_differs,
        }


class Ingest:
    name = "ingest"

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        # As in Crossval: the runner's speed sampler, called between stages.
        self.sample = None
        self.fingerprint = None

    def setup(self) -> None:
        self.config = simulate.SimConfig.uniform(INGEST_PER_CLASS, seed=self.seed)
        warmup = simulate.SimConfig.uniform(INGEST_WARMUP_PER_CLASS, seed=self.seed)
        self._pass(warmup)

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def _pass(self, config):
        sample = self.sample or (lambda: None)
        data = simulate.generate_dataset(config)
        sample()
        buffer = io.StringIO()
        dataset_io.write_dataset(data, buffer)
        text = buffer.getvalue()
        sample()
        parsed = dataset_io.parse_dataset(io.StringIO(text))
        summary = dataset_io.summarize(parsed)
        sample()
        fingerprint = classifiers.dataset_fingerprint(parsed)
        sample()
        transformer = features.fit_feature_transformer(parsed.feature_matrix())
        return text, parsed, summary, fingerprint, transformer

    def run_pass(self):
        return self._pass(self.config)

    def check(self, output, tally: Tally) -> None:
        text, parsed, summary, fingerprint, transformer = output
        buffer = io.StringIO()
        dataset_io.write_dataset(parsed, buffer)
        rewritten = buffer.getvalue().split("\n")
        original = text.split("\n")
        if len(rewritten) == len(original):
            same = sum(a == b for a, b in zip(original, rewritten))
            tally.add(same, "CSV line not rewritten byte for byte", len(original))
        else:
            tally.add(False, "CSV line count changed", len(original))
        for label in core.ClassLabel:
            tally.add(
                summary.counts.get(label) == self.config.per_class[label],
                "summarize count differs from configuration",
            )
        tally.add(summary.total == sum(self.config.per_class.values()), "summarize total")
        if self.fingerprint is None:
            self.fingerprint = fingerprint
        tally.add(
            fingerprint == self.fingerprint and len(fingerprint) == 64,
            "fingerprint not stable",
        )
        params = transformer.to_dict()
        tally.add(
            all(np.all(np.isfinite(params[key])) for key in ("lambdas", "means", "stds"))
            and np.all(np.asarray(params["stds"]) > 0.0),
            "Box-Cox parameters not finite",
        )

    def summary(self, passes: list[float]) -> dict:
        rows = sum(self.config.per_class.values())
        return {"ingest_rows": rows, "rows_per_s": rows / statistics.median(passes)}


WORKLOADS = {cls.name: cls for cls in (Crossval, Predict, Ingest)}
