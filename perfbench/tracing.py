"""Spans around placescan's public functions, recorded from outside the program.

A Tracer replaces each target below with a wrapper that records one span per
call: name, start, end and the index of the enclosing span. Spans stay in
memory and are written out once, when the benchmark ends. A target that a
later version of placescan has moved or renamed is listed as absent and its
metrics read 0; the run goes on.

Per-layer metrics are computed per traced pass of the timed phase:
``<span>.s`` is inclusive time, ``<span>.self_s`` is inclusive time minus the
time covered by child spans, ``<span>.calls`` counts calls, and the named
counts (``dataset_io.csv_bytes``, ``classifiers.model_bytes``,
``classifiers.svm.unconverged``, ``classifiers.linear.unconverged``) are summed
from the calls' arguments and results.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

PACKAGE = "placescan"
PASS_SPAN = "perfbench.pass"
VARIANTS = ("rf", "adaboost", "svm", "logreg", "mlp", "cnn")


def _variant_of_spec(tracer, args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    return spec.variant


def _variant_of_model(tracer, args, kwargs):
    return args[0].spec.variant


def _enclosing_variant(tracer, args, kwargs):
    prefix = "classifiers.train."
    for index in reversed(tracer.stack):
        name = tracer.spans[index][0]
        if name.startswith(prefix):
            return name[len(prefix):]
    return "other"


def _csv_start(args, kwargs):
    stream = args[1] if len(args) > 1 else kwargs["stream"]
    return stream, stream.tell()


def _csv_bytes(tracer, token, result):
    stream, start = token
    tracer.count("dataset_io.csv_bytes", stream.tell() - start)


def _model_bytes(tracer, token, result):
    tracer.count("classifiers.model_bytes", len(result.encode("utf-8")))


def _svm_unconverged(tracer, token, result):
    _alpha, _bias, converged = result
    tracer.count("classifiers.svm.unconverged", int(not converged))


def _logreg_unconverged(tracer, token, result):
    tracer.count("classifiers.linear.unconverged", int(not result.converged))


# Wrapped callables as (module under placescan, attribute path). A span is
# named "<module>.<path>" unless SPAN_NAMES says otherwise.
TARGETS = [
    ("simulate", "generate_dataset"),
    ("simulate", "cast_rays"),
    ("dataset_io", "write_dataset"),
    ("dataset_io", "parse_dataset"),
    ("dataset_io", "summarize"),
    ("core", "validate_scan"),
    ("core", "Dataset.feature_matrix"),
    ("core", "Dataset.subset"),
    ("features", "fit_feature_transformer"),
    ("features", "FeatureTransformer.transform_matrix"),
    ("classifiers", "train"),
    ("classifiers", "TrainedModel.predict_proba_matrix"),
    ("classifiers", "predict_proba"),
    ("classifiers", "dataset_fingerprint"),
    ("classifiers", "model_to_json"),
    ("classifiers", "model_from_json"),
    ("classifiers.trees", "train_random_forest"),
    ("classifiers.trees", "fit_tree"),
    ("classifiers.boosting", "train_adaboost"),
    ("classifiers.svm", "train_svm"),
    ("classifiers.svm", "smo_solve"),
    ("classifiers.svm", "poly_kernel"),
    ("classifiers.linear", "train_logreg"),
    ("classifiers.nets", "train_network"),
    ("classifiers.nets", "Conv1D.forward"),
    ("classifiers.nets", "Conv1D.backward"),
    ("classifiers.nets", "MaxPool1D.forward"),
    ("classifiers.nets", "MaxPool1D.backward"),
    ("classifiers.nets", "Dense.forward"),
    ("classifiers.nets", "Dense.backward"),
    ("classifiers.nets", "Adam.step"),
    ("evaluate", "run_experiment"),
    ("evaluate", "cross_validate"),
    ("evaluate", "pr_curve"),
    ("reporting", "render_report"),
]
SPAN_NAMES = {"classifiers.TrainedModel.predict_proba_matrix": "classifiers.predict_proba_matrix"}
# Spans split by variant: the namer's result is appended to the span name.
VARIANT_NAMERS = {
    "classifiers.train": _variant_of_spec,
    "classifiers.TrainedModel.predict_proba_matrix": _variant_of_model,
    "classifiers.nets.train_network": _enclosing_variant,
}
# Hooks that feed the named counts: (before the call, after the call).
COUNT_HOOKS = {
    "dataset_io.write_dataset": (_csv_start, _csv_bytes),
    "classifiers.model_to_json": (None, _model_bytes),
    "classifiers.svm.smo_solve": (None, _svm_unconverged),
    "classifiers.linear.train_logreg": (None, _logreg_unconverged),
}

# The per-layer metrics printed by a traced run, in BENCHMARK.json order.
# Each entry is (metric name, unit). Names ending in .s, .self_s and .calls
# are span statistics; the rest are named counts or trace bookkeeping.
LAYER_METRICS = [
    ("simulate.generate_dataset.s", "s"),
    ("simulate.cast_rays.calls", "count"),
    ("dataset_io.write_dataset.s", "s"),
    ("dataset_io.parse_dataset.s", "s"),
    ("dataset_io.summarize.s", "s"),
    ("dataset_io.csv_bytes", "bytes"),
    ("core.validate_scan.s", "s"),
    ("core.Dataset.feature_matrix.s", "s"),
    ("core.Dataset.feature_matrix.calls", "count"),
    ("core.Dataset.subset.s", "s"),
    ("core.Dataset.subset.calls", "count"),
    ("features.fit_feature_transformer.s", "s"),
    ("features.fit_feature_transformer.calls", "count"),
    ("features.FeatureTransformer.transform_matrix.s", "s"),
    ("features.FeatureTransformer.transform_matrix.calls", "count"),
    *[(f"classifiers.train.{v}.s", "s") for v in VARIANTS],
    *[(f"classifiers.train.{v}.self_s", "s") for v in VARIANTS],
    *[(f"classifiers.predict_proba_matrix.{v}.s", "s") for v in VARIANTS],
    ("classifiers.predict_proba.s", "s"),
    ("classifiers.predict_proba.calls", "count"),
    ("classifiers.dataset_fingerprint.s", "s"),
    ("classifiers.dataset_fingerprint.calls", "count"),
    ("classifiers.model_to_json.s", "s"),
    ("classifiers.model_from_json.s", "s"),
    ("classifiers.model_bytes", "bytes"),
    ("classifiers.trees.train_random_forest.s", "s"),
    ("classifiers.trees.fit_tree.s", "s"),
    ("classifiers.trees.fit_tree.calls", "count"),
    ("classifiers.boosting.train_adaboost.s", "s"),
    ("classifiers.svm.train_svm.s", "s"),
    ("classifiers.svm.smo_solve.s", "s"),
    ("classifiers.svm.smo_solve.calls", "count"),
    ("classifiers.svm.poly_kernel.s", "s"),
    ("classifiers.svm.unconverged", "count"),
    ("classifiers.linear.train_logreg.s", "s"),
    ("classifiers.linear.unconverged", "count"),
    ("classifiers.nets.train_network.mlp.s", "s"),
    ("classifiers.nets.train_network.cnn.s", "s"),
    *[
        (f"classifiers.nets.{layer}.{step}.s", "s")
        for layer in ("Conv1D", "MaxPool1D", "Dense")
        for step in ("forward", "backward")
    ],
    ("classifiers.nets.Adam.step.s", "s"),
    ("evaluate.run_experiment.s", "s"),
    ("evaluate.cross_validate.s", "s"),
    ("evaluate.cross_validate.self_s", "s"),
    ("evaluate.pr_curve.s", "s"),
    ("reporting.render_report.s", "s"),
    (f"{PASS_SPAN}.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.self_s_sum", "s"),
    ("trace.spans", "count"),
    ("trace.absent", "count"),
]

# Counts that must repeat exactly from pass to pass and from run to run.
EXACT_COUNTS = (
    "features.fit_feature_transformer.calls",
    "classifiers.dataset_fingerprint.calls",
    "core.Dataset.feature_matrix.calls",
    "classifiers.svm.smo_solve.calls",
    "classifiers.trees.fit_tree.calls",
    "classifiers.svm.unconverged",
    "classifiers.linear.unconverged",
    "dataset_io.csv_bytes",
    "classifiers.model_bytes",
)


class Tracer:
    """Installs span wrappers, records spans per pass, and restores the originals."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.pass_bounds: list[tuple[int, int]] = []
        self.pass_counts: list[Counter] = []
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def count(self, name: str, amount: int) -> None:
        if self.pass_counts:
            self.pass_counts[-1][name] += amount

    def run_pass(self, fn):
        """Call fn inside one root span; returns fn's result."""
        first = len(self.spans)
        self.pass_counts.append(Counter())
        index = self._open(PASS_SPAN)
        try:
            return fn()
        finally:
            self._close(index)
            self.pass_bounds.append((first, len(self.spans)))

    def _wrap(self, fn, name, namer, before, after):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name
            if namer is not None:
                span_name = f"{name}.{tracer._hook(name, namer, tracer, args, kwargs)}"
            token = tracer._hook(name, before, args, kwargs) if before else None
            index = tracer._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if after is not None:
                tracer._hook(name, after, tracer, token, result)
            return result

        return traced

    def _hook(self, name, hook, *args):
        """Run a naming or counting hook; one that no longer fits the
        program's signatures marks its span's extras absent instead of failing."""
        try:
            return hook(*args)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            self._note_absent(f"{name} {hook.__name__} ({exc.__class__.__name__})")
            return None

    def _note_absent(self, what: str) -> None:
        if what not in self.absent:
            self.absent.append(what)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for module_name, path in TARGETS:
            target = f"{module_name}.{path}"
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
                owner = module
                *owners, attr = path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if owners else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self._note_absent(target)
                continue
            if not callable(original):
                self._note_absent(target)
                continue
            before, after = COUNT_HOOKS.get(target, (None, None))
            wrapper = self._wrap(
                original,
                SPAN_NAMES.get(target, target),
                VARIANT_NAMERS.get(target),
                before,
                after,
            )
            if owners:
                self._patch(owner, attr, wrapper)
            else:
                # Functions are also bound by `from x import f` elsewhere in
                # the package, so replace every binding of the same object.
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (
                        mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")
                    ):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- statistics ----------------------------------------------------------

    def pass_stats(self, number: int) -> dict[str, float]:
        """Span statistics and named counts of one traced pass."""
        first, end = self.pass_bounds[number]
        total: Counter = Counter()
        self_time: Counter = Counter()
        calls: Counter = Counter()
        child_time = [0.0] * (end - first)
        for offset in range(end - first - 1, -1, -1):
            name, start, stop, parent = self.spans[first + offset]
            duration = stop - start
            total[name] += duration
            calls[name] += 1
            self_time[name] += duration - child_time[offset]
            if parent >= first:
                child_time[parent - first] += duration
        stats: dict[str, float] = {}
        for name in calls:
            stats[f"{name}.s"] = total[name]
            stats[f"{name}.self_s"] = self_time[name]
            stats[f"{name}.calls"] = calls[name]
        stats["trace.self_s_sum"] = sum(
            value for key, value in self_time.items() if key != PASS_SPAN
        )
        stats["trace.spans"] = end - first
        stats.update(self.pass_counts[number])
        return stats

    def write(self, path, header: dict) -> None:
        """Write the header and then one JSON array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
