import csv
import functools
import io
import json
import threading
import time
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from placescan import blas, classifiers, evaluate
from placescan.classifiers import VARIANTS, nets, trees
from placescan.core import ClassLabel
from placescan.dataset_io import write_dataset
from placescan.errors import StratificationError, UndefinedCurveError, UnknownLabelError
from placescan.evaluate import (
    accuracy,
    average_precision,
    pr_curve,
    run_experiment,
    stratified_folds,
    summarize_folds,
)
from placescan.features import fit_and_transform
from placescan.reporting import accuracy_csv, atomic_write_text, pr_curves_svg, render_report


@st.composite
def _label_vectors(draw):
    """Shuffled 4-class labels with at least k rows per class, a seed, and a
    class to cut below k rows."""
    k = draw(st.integers(2, 8))
    counts = draw(st.lists(st.integers(k, 5 * k), min_size=4, max_size=4))
    labels = np.repeat(np.arange(4), counts)
    order = draw(st.permutations(range(labels.shape[0])))
    seed = draw(st.integers(0, 2**32 - 1))
    short_class = draw(st.integers(0, 3))
    short_count = draw(st.integers(1, k - 1))
    return labels[np.array(order)], k, seed, short_class, short_count


class TestStratifiedFolds:
    def test_exact_split_when_counts_divide(self):
        labels = np.repeat([0, 1, 2, 3], 10)
        folds = stratified_folds(labels, k=5, seed=0)
        for fold in range(5):
            test = folds.test_indices(fold)
            assert test.shape[0] == 8
            counts = np.bincount(labels[test], minlength=4)
            assert np.array_equal(counts, [2, 2, 2, 2])

    @settings(max_examples=80, deadline=None)
    @given(_label_vectors())
    def test_within_one_of_proportionality_random_multisets(self, case):
        labels, k, seed, short_class, short_count = case
        folds = stratified_folds(labels, k=k, seed=seed)
        times_tested = np.zeros(labels.shape[0], dtype=np.int64)
        counts = np.bincount(labels, minlength=4)
        for fold in range(k):
            test = folds.test_indices(fold)
            times_tested[test] += 1
            per_class = np.bincount(labels[test], minlength=4)
            assert np.all(np.abs(per_class - counts / k) < 1.0)
        assert np.all(times_tested == 1)
        again = stratified_folds(labels, k=k, seed=seed)
        assert np.array_equal(again.fold_of_row, folds.fold_of_row)

        kept = np.flatnonzero(labels == short_class)[:short_count]
        short = np.concatenate([labels[labels != short_class], labels[kept]])
        with pytest.raises(StratificationError, match=ClassLabel(short_class).name):
            stratified_folds(short, k=k, seed=seed)

    def test_deterministic_for_fixed_seed(self):
        labels = np.random.default_rng(2).integers(0, 4, size=60)
        a = stratified_folds(labels, k=5, seed=9)
        b = stratified_folds(labels, k=5, seed=9)
        assert np.array_equal(a.fold_of_row, b.fold_of_row)

    def test_error_names_the_small_class(self):
        labels = np.array([0] * 10 + [1] * 10 + [2] * 2 + [3] * 10)
        with pytest.raises(StratificationError, match="restroom"):
            stratified_folds(labels, k=5, seed=0)
        with pytest.raises(ValueError, match="at least 2"):
            stratified_folds(labels, k=1, seed=0)

    @pytest.mark.parametrize(
        "labels",
        [
            np.repeat([0.5, 1.5, 2.5, 3.5], 5),
            np.repeat([0, 1, 2, 7], 5),
            np.repeat([-1, 0, 1, 2], 5),
            np.repeat([True, False], 10),
        ],
    )
    def test_labels_must_be_class_indices(self, labels):
        with pytest.raises(UnknownLabelError, match=r"class indices 0\.\.3"):
            stratified_folds(labels, k=5, seed=0)

    @pytest.mark.parametrize("k", [2.5, 3.0, True, "3"])
    def test_k_must_be_an_integer(self, k):
        labels = np.repeat([0, 1, 2, 3], 5)
        with pytest.raises(ValueError, match="integer"):
            stratified_folds(labels, k=k, seed=0)
        assert stratified_folds(labels, k=np.int64(3), seed=0).k == 3

    @pytest.mark.parametrize("seed", [True, -1, 1.5])
    def test_seed_must_be_an_integer_of_at_least_0(self, seed):
        labels = np.repeat([0, 1, 2, 3], 5)
        with pytest.raises(ValueError, match=rf"^seed must be an integer >= 0, got {seed!r}$"):
            stratified_folds(labels, k=2, seed=seed)

    def test_train_and_test_partition_rows(self):
        labels = np.random.default_rng(3).integers(0, 4, size=57)
        labels[:20] = np.repeat([0, 1, 2, 3], 5)  # each class has >= k rows
        folds = stratified_folds(labels, k=4, seed=3)
        for fold in range(4):
            test = set(folds.test_indices(fold).tolist())
            train = set(folds.train_indices(fold).tolist())
            assert test | train == set(range(57))
            assert not (test & train)


class TestFoldAssignment:
    def test_holds_a_read_only_int64_copy(self):
        labels = np.array([0, 1, 0, 1], dtype=np.int32)
        folds = stratified_folds(labels, k=2, seed=0)
        assert not np.shares_memory(folds.fold_of_row, labels)
        assert folds.fold_of_row.dtype == np.int64
        assert sorted(folds.fold_of_row.tolist()) == [0, 0, 1, 1]
        with pytest.raises(ValueError, match="read-only"):
            folds.fold_of_row[0] = 1


class TestAccuracy:
    def test_trivial_cases(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0
        assert accuracy([1, 1, 1], [0, 2, 3]) == 0.0
        assert accuracy([0, 1, 0, 1], [0, 1, 1, 0]) == 0.5

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            accuracy([1, 2], [1, 2, 3])


class TestPrCurve:
    def test_worked_example(self):
        # descending scores: truths T, F, T at distinct thresholds
        scores = [0.9, 0.7, 0.4]
        truths = [True, False, True]
        points = pr_curve(scores, truths)
        assert points == [(0.0, 1.0), (0.5, 1.0), (0.5, 0.5), (1.0, 2 / 3)]
        assert average_precision(scores, truths) == pytest.approx(
            0.5 * 1.0 + 0.5 * (2 / 3)
        )

    @pytest.mark.parametrize(
        "scores, truths, points, ap",
        [
            ([0.5] * 4, [True, False] * 2, [(1.0, 0.5)], 0.5),
            ([np.inf] * 4, [True, False] * 2, [(1.0, 0.5)], 0.5),
            ([np.inf, np.inf, 0.1], [True, False, True], [(0.5, 0.5), (1.0, 2 / 3)], 7 / 12),
            ([0.2, -np.inf, -np.inf], [False, True, True], [(0.0, 0.0), (1.0, 2 / 3)], 2 / 3),
        ],
    )
    def test_tied_scores_collapse_to_one_threshold(self, scores, truths, points, ap):
        # equal infinite scores are one threshold too, and warn of nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pr_curve(scores, truths) == [(0.0, 1.0), *points]
            assert average_precision(scores, truths) == pytest.approx(ap)

    def test_perfect_ranking_has_ap_one(self):
        scores = [0.9, 0.8, 0.2, 0.1]
        truths = [True, True, False, False]
        assert average_precision(scores, truths) == 1.0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(size=50)
        truths = rng.random(50) < 0.4
        truths[0] = True
        base = average_precision(scores, truths)
        assert average_precision(3 * scores + 2, truths) == pytest.approx(base)
        assert average_precision(np.tanh(scores), truths) == pytest.approx(base)

    def test_random_scores_ap_near_prevalence(self):
        rng = np.random.default_rng(5)
        n = 10_000
        truths = rng.random(n) < 0.3
        scores = rng.random(n)
        assert average_precision(scores, truths) == pytest.approx(0.3, abs=0.03)

    def test_no_positives_is_undefined(self):
        with pytest.raises(UndefinedCurveError):
            pr_curve([0.3, 0.2], [False, False])

    @pytest.mark.parametrize(
        "scores, truths, message",
        [
            ([0.9, np.nan, 0.1], [True, False, True], "NaN"),
            ([0.9, 0.5], [True, False, True], "equal length"),
            ([0.9, 0.5, 0.1], [True, False], "equal length"),
            ([[0.9, 0.5], [0.1, 0.2]], [[True, False], [True, False]], "1-D"),
            (0.9, True, "1-D"),
        ],
    )
    def test_malformed_scores_raise(self, scores, truths, message):
        for curve in (pr_curve, average_precision):
            with pytest.raises(ValueError, match=message):
                curve(scores, truths)


class TestSummarizeFolds:
    def test_reported_fold_vector(self):
        mean, std = summarize_folds([0.907, 0.88, 0.94, 0.96, 0.94])
        assert abs(mean - 0.925) <= 0.005
        assert abs(std - 0.032) <= 0.005

    def test_single_fold_std_zero(self):
        assert summarize_folds([0.8]) == (0.8, 0.0)


class TestCrossValidate:
    def test_result_shape_and_determinism(self, synth_small):
        a, b = (run_experiment(["logreg"], synth_small, k=3, seed=13,
                               variant_params={"logreg": {"max_iter": 200}}).variants[0]
                for _ in range(2))
        assert a.fold_accuracies == b.fold_accuracies
        assert len(a.fold_accuracies) == 3
        assert len(a.per_class) == 4
        assert int(a.confusion.sum()) == len(synth_small)
        mean, std = summarize_folds(a.fold_accuracies)
        assert (a.mean, a.std) == (mean, std)

    def test_run_experiment_shares_folds(self, synth_small):
        report = run_experiment(
            ["logreg", "rf"],
            synth_small,
            k=3,
            seed=13,
            variant_params={"logreg": {"max_iter": 200}, "rf": {"trees": 5}},
        )
        assert [v.name for v in report.variants] == ["logreg", "rf"]
        payload = report.to_dict()
        json.dumps(payload)  # must be JSON-serializable as-is
        assert payload["k"] == 3

    def test_a_numpy_integer_k_renders(self, synth_small, tmp_path):
        # stratified_folds takes an np.integer k, and the report holds it as int
        report = run_experiment(["logreg"], synth_small, k=np.int64(3), seed=13,
                                variant_params={"logreg": {"max_iter": 20}})
        render_report(report, tmp_path)
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["k"] == 3 and payload["config"]["k"] == 3

    @pytest.mark.parametrize("variant_params, stray", [
        ({"svn": {"C": 2.0}}, "svn"),  # a typo of a variant that is run
        ({"logreg": {"max_iter": 200}, "rf": {"trees": 5}}, "rf"),  # not run
    ])
    def test_run_experiment_rejects_stray_variant_params(
        self, synth_small, no_training, variant_params, stray
    ):
        with pytest.raises(ValueError, match=rf"variants not run: \['{stray}'\]"):
            run_experiment(["logreg"], synth_small, k=3, variant_params=variant_params)

    @pytest.mark.parametrize("variants", [[], ["logreg", "logreg"], ["rf", "svm", "rf"]])
    def test_run_experiment_rejects_empty_or_repeated_variants(
        self, synth_small, no_training, variants
    ):
        with pytest.raises(ValueError, match="variants must be non-empty and distinct"):
            run_experiment(variants, synth_small, k=3)

    def test_run_experiment_rejects_a_string_of_variants(self, synth_small, no_training):
        # a string is iterable, but "rf" is one variant, not 'r' and 'f'
        with pytest.raises(ValueError, match="variants must be a list of variant names, "
                                             "not the string 'rf'"):
            run_experiment("rf", synth_small, k=3)

    @pytest.mark.parametrize("variant_params", [[{"trees": 5}], ["rf"], "rf", ()])
    def test_run_experiment_rejects_variant_params_that_are_not_a_dict(
        self, synth_small, no_training, variant_params
    ):
        with pytest.raises(ValueError, match=r"^variant_params must be a dict, got "):
            run_experiment(["rf"], synth_small, k=3, variant_params=variant_params)

    def test_report_lists_whether_each_fold_converged(self, synth_small, tmp_path):
        report = run_experiment(["logreg", "rf"], synth_small, k=3, seed=13,
                                variant_params={"logreg": {"max_iter": 5}, "rf": {"trees": 5}})
        render_report(report, tmp_path)
        written = json.loads((tmp_path / "report.json").read_text())
        converged = {v["name"]: v["converged"] for v in written["variants"]}
        assert converged == {"logreg": [False] * 3, "rf": [True] * 3}


@pytest.fixture
def no_training(monkeypatch):
    """Fail any test that trains a fold or opens its lane."""
    def no_training(*args, **kwargs):
        raise AssertionError("a fold was trained")

    monkeypatch.setattr(evaluate, "train", no_training)
    monkeypatch.setattr(evaluate, "ThreadPoolExecutor", no_training)


class _Boom(RuntimeError):
    pass


_DELAY = 0.3  # seconds: ample for the other lane to reach its next model


def _spy_trainers(monkeypatch, record=None, fail=None, slow=None):
    """Wrap every variant's trainer: `record[variant]` collects the threads it
    ran on, the `fail` variant raises a `_Boom` instead of training, and the
    `slow` variant sleeps `_DELAY` seconds first."""
    boom = _Boom("trainer failed")
    for variant, (module, name, _) in classifiers._VARIANTS.items():
        original = getattr(module, name)

        def fit(*args, _variant=variant, _original=original, **kwargs):
            if record is not None:
                record.setdefault(_variant, set()).add(threading.current_thread())
            if _variant == slow:
                time.sleep(_DELAY)
            if _variant == fail:
                raise boom
            return _original(*args, **kwargs)

        functools.update_wrapper(fit, original)
        monkeypatch.setattr(module, name, fit)
    return boom


def _blas_threads():
    functions = blas._library()
    return None if functions is None else functions[0]()


class TestFoldMajor:
    # cut budgets: every variant trains, in well under a second per fold
    PARAMS = {
        "rf": {"trees": 5}, "adaboost": {"rounds": 5}, "logreg": {"max_iter": 200},
        "mlp": {"epochs": 1}, "cnn": {"epochs": 1},
    }

    def run(self, variants, dataset):
        params = {v: self.PARAMS[v] for v in variants if v in self.PARAMS}
        return run_experiment(variants, dataset, k=3, seed=13, variant_params=params)

    def test_one_transformer_per_fold_same_results(self, synth_small, monkeypatch):
        fitted = []

        def spy(X):
            fitted.append(X.shape[0])
            return fit_and_transform(X)

        monkeypatch.setattr(classifiers, "fit_and_transform", spy)
        report = self.run(list(VARIANTS), synth_small)
        assert fitted == [40, 40, 40]
        monkeypatch.undo()

        # a single-spec run trains every fold on the calling thread
        folds = stratified_folds(synth_small.y, 3, 13)
        assert [result.name for result in report.variants] == list(VARIANTS)
        for result in report.variants:
            alone = self.run([result.name], synth_small).variants[0]
            assert result.fold_accuracies == alone.fold_accuracies
            assert (result.mean, result.std) == (alone.mean, alone.std)
            assert np.array_equal(result.confusion, alone.confusion)
            # rows are the true classes; the diagonal holds the correct rows
            true_counts = np.bincount(synth_small.y, minlength=4)
            assert np.array_equal(result.confusion.sum(axis=1), true_counts)
            correct = sum(
                acc * folds.test_indices(f).shape[0]
                for f, acc in enumerate(result.fold_accuracies)
            )
            assert np.trace(result.confusion) == round(correct)
            assert [(c.label, c.ap, c.curve) for c in result.per_class] == [
                (c.label, c.ap, c.curve) for c in alone.per_class
            ]

    @pytest.mark.parametrize("variants", [
        list(VARIANTS),
        ["cnn", "rf", "mlp", "svm"],  # networks first in the spec list
        ["mlp", "cnn"],  # no spec for the worker
    ])
    def test_networks_train_on_the_calling_thread(self, synth_small, monkeypatch, variants):
        lanes = {}
        _spy_trainers(monkeypatch, record=lanes)
        threads = threading.active_count()
        report = self.run(variants, synth_small)
        assert threading.active_count() == threads
        assert [v.name for v in report.variants] == variants
        assert lanes["mlp"] == lanes["cnn"] == {threading.current_thread()}
        if "rf" in variants:  # the front of the lane order, given to the worker
            assert threading.current_thread() not in lanes["rf"]

    @pytest.mark.parametrize("variants, on_worker", [
        (["rf", "svm", "logreg"], {"rf"}),  # logreg is the caller's, svm is stolen
        (["rf"], set()),  # a lone spec is the caller's: no thread starts
    ])
    def test_the_caller_trains_its_own_specs_and_the_unstarted_ones(
        self, synth_small, monkeypatch, variants, on_worker
    ):
        lanes, started = {}, []
        start = threading.Thread.start

        def spy_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", spy_start)
        _spy_trainers(monkeypatch, record=lanes, slow="rf")
        self.run(variants, synth_small)
        caller = threading.current_thread()
        own = set(variants) - on_worker
        assert {v for v, threads in lanes.items() if threads == {caller}} == own
        assert {v for v, threads in lanes.items() if caller not in threads} == on_worker
        assert bool(started) == bool(on_worker)

    def test_folds_train_and_score_on_one_blas_thread(self, synth_small, monkeypatch):
        seen = []
        targets = [(trees, "train_random_forest"), (nets, "train_mlp"),
                   (classifiers.TrainedModel, "predict_proba_matrix")]
        for owner, name in targets:
            original = getattr(owner, name)

            def spy(*args, _original=original, **kwargs):
                seen.append(_blas_threads())
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, functools.update_wrapper(spy, original))
        before = _blas_threads()
        self.run(["rf", "mlp"], synth_small)
        assert _blas_threads() == before
        assert seen == [None if before is None else 1] * 12

    def test_each_fold_is_fingerprinted_once(self, synth_small, monkeypatch):
        written = []

        def slow_write(data, stream):
            # long enough for the other lane to ask for the same digest
            written.append(len(data))
            time.sleep(0.05)
            write_dataset(data, stream)

        monkeypatch.setattr(classifiers, "write_dataset", slow_write)
        fresh = synth_small.subset(np.arange(len(synth_small)))
        self.run(["rf", "logreg", "mlp"], fresh)
        assert sorted(written) == [40, 40, 40, 60]

    # fail -> (the other lane's model in flight, the models it must not start)
    STOPPED = {"rf": ("cnn", {"mlp"}), "cnn": ("rf", {"adaboost", "svm", "logreg"})}

    @pytest.mark.parametrize("fail", ["rf", "cnn"])  # worker lane, calling lane
    def test_a_failing_trainer_leaves_no_thread_and_no_pin(self, synth_small, monkeypatch, fail):
        # a failure stops the other lane after its current model
        slow, never = self.STOPPED[fail]
        lanes = {}
        boom = _spy_trainers(monkeypatch, record=lanes, fail=fail, slow=slow)
        threads, before = threading.active_count(), _blas_threads()
        with pytest.raises(_Boom) as raised:
            self.run(list(VARIANTS), synth_small)
        assert raised.value is boom
        assert not never & set(lanes)
        assert threading.active_count() == threads
        assert _blas_threads() == before

    def test_same_report_without_a_blas_library(self, synth_small, monkeypatch):
        pinned = self.run(["rf", "svm", "mlp"], synth_small).to_dict()
        monkeypatch.setattr(blas, "_library", lambda: None)
        assert self.run(["rf", "svm", "mlp"], synth_small).to_dict() == pinned


@pytest.fixture(scope="module")
def small_report(synth_small):
    return run_experiment(
        ["logreg"], synth_small, k=3, seed=13,
        variant_params={"logreg": {"max_iter": 200}},
    )


class TestReporting:
    def test_render_report_writes_expected_files(self, small_report, tmp_path):
        paths = render_report(small_report, tmp_path)
        names = sorted(p.name for p in paths)
        assert names == ["accuracy.csv", "pr_logreg.svg", "report.json"]
        loaded = json.loads((tmp_path / "report.json").read_text())
        assert loaded == small_report.to_dict()

    @pytest.mark.parametrize("target", ["a_directory", "missing/file.txt"])
    def test_failed_write_names_the_path_and_leaves_no_temp_file(self, tmp_path, target):
        (tmp_path / "a_directory").mkdir()
        path = tmp_path / target
        with pytest.raises(OSError) as raised:
            atomic_write_text(path, "text\n")
        assert raised.value.filename == str(path) and ".tmp" not in str(raised.value)
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_accuracy_csv_round_trips_floats(self, small_report):
        text = accuracy_csv(small_report)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["classifier", "fold1", "fold2", "fold3", "mean", "std"]
        result = small_report.variants[0]
        assert rows[1][0] == "logreg"
        assert [float(v) for v in rows[1][1:4]] == result.fold_accuracies
        assert float(rows[1][4]) == result.mean
        assert float(rows[1][5]) == result.std

    def test_svg_is_valid_xml_with_four_paths(self, small_report):
        svg = pr_curves_svg(small_report.variants[0])
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert root.get("width") == "800"
        assert root.get("height") == "600"
        paths = [e for e in root.iter() if e.tag.endswith("path")]
        assert len(paths) == 4
        labels = " ".join(e.text or "" for e in root.iter() if e.tag.endswith("text"))
        for label in ClassLabel:
            assert label.name in labels
