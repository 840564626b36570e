import functools
import json
import signal

import numpy as np
import pytest

from placescan.classifiers import VARIANTS, ModelSpec, model_to_json, nets, train
from placescan.cli import run
from placescan.core import LABEL_NAMES, pack, unpack
from placescan.dataset_io import parse_dataset


@pytest.fixture(scope="module")
def tiny_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "tiny.csv"
    code = run(["simulate", "--per-class", "8", "--seed", "21",
                "--out", str(path)])
    assert code == 0
    return path


def stored(packed) -> np.ndarray:
    """The array that a packed field of a sound model file holds."""
    return unpack({"field": packed}, "field", packed["dtype"])


def packed_array(values, dtype=np.float64):
    return pack(np.asarray(values, dtype=dtype))


def with_payload(model, **fields):
    return {**model, "payload": {**model["payload"], **fields}}


class TestSimulate:
    def test_writes_deterministic_csv(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["simulate", "--per-class", "2", "--seed", "5", "--out", str(a)]) == 0
        assert run(["simulate", "--per-class", "2", "--seed", "5", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().startswith("label,height_m,d000,")

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["simulate", "--per-class", "2", "--seed", "5", "--out", str(a)])
        run(["simulate", "--per-class", "2", "--seed", "6", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    @pytest.mark.parametrize("sigma", ["nan", "inf", "-0.5"])
    def test_bad_noise_sigma_is_data_error(self, tmp_path, capsys, sigma):
        out = tmp_path / "x.csv"
        code = run(["simulate", "--per-class", "1", "--noise-sigma", sigma, "--out", str(out)])
        assert code == 2 and not out.exists()
        assert "noise_sigma" in capsys.readouterr().err

    def test_no_noise_is_zero_sigma(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["simulate", "--per-class", "2", "--no-noise", "--out", str(a)]) == 0
        assert run(["simulate", "--per-class", "2", "--noise-sigma", "0", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_no_noise_with_a_noise_sigma_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = run(["simulate", "--per-class", "2", "--no-noise", "--noise-sigma", "0.5",
                    "--out", str(out)])
        assert code == 1 and not out.exists()
        assert "not allowed with argument" in capsys.readouterr().err

    def test_bad_per_class_is_data_error(self, tmp_path):
        code = run(["simulate", "--per-class", "0", "--seed", "5",
                    "--out", str(tmp_path / "x.csv")])
        assert code == 2


class TestSummarize:
    def test_prints_summary_json(self, tiny_csv, capsys):
        assert run(["summarize", "--data", str(tiny_csv)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] == 32
        assert set(payload["counts"]) == set(LABEL_NAMES)
        assert all(v == 8 for v in payload["counts"].values())

    def test_missing_file_is_data_error(self, tmp_path):
        assert run(["summarize", "--data", str(tmp_path / "nope.csv")]) == 2


class TestTrainPredict:
    def test_train_then_predict_round_trip(self, tiny_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        code = run(["train", "--model", "logreg", "--data", str(tiny_csv),
                    "--seed", "21", "--out", str(model_path)])
        assert code == 0
        assert model_path.is_file()
        capsys.readouterr()
        assert run(["predict", "--model", str(model_path),
                    "--scan", str(tiny_csv)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["label"] in LABEL_NAMES
        proba = payload["probabilities"]
        assert set(proba) == set(LABEL_NAMES)
        assert abs(sum(proba.values()) - 1.0) < 1e-9

    def test_predict_accepts_bare_scan_line(self, tiny_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        run(["train", "--model", "logreg", "--data", str(tiny_csv),
             "--seed", "21", "--out", str(model_path)])
        line = tiny_csv.read_text().splitlines()[1]
        scan_path = tmp_path / "scan.csv"
        scan_path.write_text(",".join(line.split(",")[2:]) + "\n")
        capsys.readouterr()
        assert run(["predict", "--model", str(model_path),
                    "--scan", str(scan_path)]) == 0
        json.loads(capsys.readouterr().out)

    def test_bare_scan_line_with_an_empty_field_is_data_error(self, tiny_csv, tmp_path,
                                                               capsys):
        # 272 fields with the 4th empty: dropping it would shift beams 4-271
        model_path = tmp_path / "model.json"
        run(["train", "--model", "logreg", "--data", str(tiny_csv),
             "--seed", "21", "--out", str(model_path)])
        distances = tiny_csv.read_text().splitlines()[1].split(",")[2:]
        scan_path = tmp_path / "scan.csv"
        cases = [(distances + [""], 0, ""),  # a trailing comma
                 (distances[:3] + [""] + distances[3:], 2, "scan field 4 is empty"),
                 (distances + ["", ""], 2, "scan field 272 is empty")]
        for fields, code, message in cases:
            scan_path.write_text(",".join(fields) + "\n")
            capsys.readouterr()
            assert run(["predict", "--model", str(model_path),
                        "--scan", str(scan_path)]) == code
            assert message in capsys.readouterr().err

    def test_predict_reads_only_the_first_row(self, tiny_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        run(["train", "--model", "logreg", "--data", str(tiny_csv),
             "--seed", "21", "--out", str(model_path)])
        header, first = tiny_csv.read_text().splitlines()[:2]
        head_path, broken_path = tmp_path / "head.csv", tmp_path / "broken.csv"
        head_path.write_text(f"{header}\n{first}\n")
        broken_path.write_text(f"{header}\n\n{first}\nnot,a,scan\n")
        outputs = []
        for path in (head_path, broken_path):
            capsys.readouterr()
            assert run(["predict", "--model", str(model_path),
                        "--scan", str(path)]) == 0
            outputs.append(json.loads(capsys.readouterr().out))
        assert outputs[0] == outputs[1]
        broken_path.write_text(f"{header}\n\nnot,a,scan\n{first}\n")
        assert run(["predict", "--model", str(model_path),
                    "--scan", str(broken_path)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_non_finite_probabilities_are_data_error(self, tiny_csv, tmp_path, capsys):
        # a finite but huge gamma overflows the svm kernel to inf, and the
        # decision values to NaN
        with open(tiny_csv) as fh:
            svm = json.loads(model_to_json(train(ModelSpec("svm"), parse_dataset(fh))))
        path = tmp_path / "svm.json"
        path.write_text(json.dumps(with_payload(svm, gamma=1e308)))
        capsys.readouterr()
        assert run(["predict", "--model", str(path), "--scan", str(tiny_csv)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "svm model gives non-finite probabilities" in err

    def test_corrupt_model_file_is_data_error(self, tiny_csv, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["predict", "--model", str(bad), "--scan", str(tiny_csv)]) == 2

        good = tmp_path / "model.json"
        assert run(["train", "--model", "logreg", "--data", str(tiny_csv),
                    "--seed", "21", "--out", str(good)]) == 0
        document = json.loads(good.read_text())
        without_w = dict(document["payload"])
        del without_w["W"]
        b = document["payload"]["b"]
        corruptions = [  # (text expected in the message, corrupted file)
            ("'payload'", {k: v for k, v in document.items() if k != "payload"}),
            ("'spec'", {k: v for k, v in document.items() if k != "spec"}),
            ("payload", {**document, "payload": list(document["payload"])}),
            ("'W'", {**document, "payload": without_w}),
            ("retrain", {**document, "format_version": 3}),
            # version 5 transformers held an `epsilon` that is no longer applied
            ("retrain", {**document, "format_version": 5}),
            # the spec holds its seed and hyperparameters to the trainer's domains
            *(("logreg seed must be an integer >= 0",
               {**document, "spec": {**document["spec"], "seed": bad_seed}})
              for bad_seed in (42.9, True, -5)),
            ("logreg max_iter must be an integer >= 1",
             {**document, "spec": {**document["spec"], "params": {"max_iter": 0}}}),
            *(("logreg params must be a dict",
               {**document, "spec": {**document["spec"], "params": bad_params}})
              for bad_params in ([["max_iter", 5]], "l2")),
            # scalars are held to their domains, not coerced
            ("logreg model converged must be a bool", with_payload(document, converged="false")),
            # the array codec itself
            ("'W' is not a packed array", with_payload(document, W=[[0.0] * 4] * 271)),
            ("'b' has dtype", with_payload(document, b={**b, "dtype": "<f4"})),
            ("'b' has dtype", with_payload(document, b={**b, "dtype": "|O"})),
            ("'b' has shape", with_payload(document, b={**b, "shape": [-4]})),
            ("'b' has shape", with_payload(document, b={**b, "shape": [4.0]})),
            ("'b' holds 32 bytes", with_payload(document, b={**b, "shape": [5]})),
            ("'b' is not valid base64", with_payload(document, b={**b, "data": "!!"})),
        ]
        with open(tiny_csv) as fh:
            data = parse_dataset(fh)
        forest, boost, svm = (
            json.loads(model_to_json(train(ModelSpec(variant, params=params), data)))
            for variant, params in (
                ("rf", {"trees": 3}), ("adaboost", {"rounds": 4}), ("svm", {}),
            )
        )

        def with_nodes(model, key="trees", **fields):
            packed = {  # node indices are int64, thresholds and values float64
                name: packed_array(value, np.float64 if name in ("threshold", "value")
                                   else np.int64)
                for name, value in fields.items()
            }
            payload = {**model["payload"], key: {**model["payload"][key], **packed}}
            return {**model, "payload": payload}

        nodes = {k: stored(v) for k, v in forest["payload"]["trees"].items()}
        n = nodes["feature"].size
        no_roots = {k: v for k, v in forest["payload"]["trees"].items() if k != "roots"}
        stump_nodes = stored(boost["payload"]["stumps"]["left"]).size
        alphas = stored(boost["payload"]["alphas"])
        # hand-made cycles: node 0 -> node 0, and node 0 -> node 1 -> node 0
        loop = {"roots": [0], "feature": [0], "threshold": [0.0], "left": [0],
                "right": [0], "value": [[1.0, 0.0, 0.0, 0.0]]}
        two_cycle = {"roots": [0], "feature": [0, 0], "threshold": [0.0, 0.0],
                     "left": [1, 0], "right": [1, 0], "value": [[1.0, 0, 0, 0]] * 2}

        support_vectors = stored(svm["payload"]["support_vectors"])
        coefficients = stored(svm["payload"]["coefficients"])
        biases = stored(svm["payload"]["biases"])

        def with_svm_arrays(**fields):
            return with_payload(svm, **{k: packed_array(v) for k, v in fields.items()})

        corruptions += [
            ("(m, 4) coefficients", with_svm_arrays(coefficients=coefficients[:-1])),
            ("(m, 4) coefficients", with_svm_arrays(coefficients=coefficients[:, :3])),
            ("(m, d) support-vector", with_svm_arrays(support_vectors=support_vectors[0])),
            ("4 biases", with_svm_arrays(biases=biases[:3])),
            ("4 biases and converged flags", with_payload(svm, converged=[True] * 3)),
            ("'support_vectors' must be finite", with_svm_arrays(
                support_vectors=[[np.nan, *support_vectors[0, 1:]], *support_vectors[1:]])),
            ("'coefficients' must be finite", with_svm_arrays(
                coefficients=[[np.inf, 0.0, 0.0, 0.0], *coefficients[1:]])),
            ("'biases' must be finite", with_svm_arrays(biases=[*biases[:3], np.nan])),
            ("'biases' is not a packed array", with_payload(svm, biases=biases.tolist())),
            ("'biases' is not a packed array", with_payload(svm, biases=1e3)),
            ("finite", with_payload(svm, gamma=float("nan"))),
            ("svm model gamma", with_payload(svm, gamma=-1.0)),
            ("svm model gamma", with_payload(svm, gamma=True)),
            # None is train_svm's "pick a default", never a fitted gamma
            ("svm model gamma", with_payload(svm, gamma=None)),
            ("svm model coef0", with_payload(svm, coef0=float("inf"))),
            ("svm model coef0", with_payload(svm, coef0="0.5")),
            ("svm model converged", with_payload(svm, converged=["no", 0, "", 1])),
            *(("degree", with_payload(svm, degree=bad_degree))
              for bad_degree in (0, -3, 2.5, True)),
            # a number past float range
            ("svm model gamma", with_payload(svm, gamma=10**400)),
            ("weight matrix", with_payload(document, W=packed_array([[0.0]] * 271))),
            ("weight matrix", with_payload(document, b=packed_array([0.0]))),
            # a payload fitted to 270-wide rows is refused when the file loads
            ("payload does not take 271 features",
             with_svm_arrays(support_vectors=support_vectors[:, 1:])),
            ("payload does not take 271 features",
             with_payload(document, W=packed_array(stored(document["payload"]["W"])[1:]))),
        ]
        transformer = document["transformer"]
        lambdas, stds = stored(transformer["lambdas"]), stored(transformer["stds"])

        def with_transformer(**fields):
            packed = {k: packed_array(v) for k, v in fields.items()}
            return {**document, "transformer": {**transformer, **packed}}

        corruptions += [
            ("'stds' must be finite", with_transformer(stds=[float("nan")] * stds.size)),
            ("'lambdas' must be finite", with_transformer(
                lambdas=[float("inf"), *lambdas[1:]])),
            ("stds", with_transformer(stds=[0.0, *stds[1:]])),
        ]
        corruptions += [
            ("equal length", with_nodes(forest, threshold=nodes["threshold"][:-1])),
            ("equal length", with_nodes(forest, right=[*nodes["right"], 0])),
            ("point forward", with_nodes(forest, **loop)),
            ("point forward", with_nodes(forest, **two_cycle)),
            ("point forward", with_nodes(forest, right=[n] * n)),
            ("point forward", with_nodes(boost, "stumps", right=[0] * stump_nodes)),
            ("[0, 271)", with_nodes(forest, feature=[271] * n)),
            ("[0, 271)", with_nodes(forest, feature=[-2] * n)),
            ("(nodes, 4)", with_nodes(forest, value=nodes["value"][:, :3])),
            ("(nodes, 4)", with_nodes(forest, value=nodes["value"][:-1])),
            ("roots", with_nodes(forest, roots=[n])),
            ("'roots'", {**forest, "payload": {"trees": no_roots}}),
            ("'threshold' must be finite", with_nodes(
                forest, threshold=[float("nan"), *nodes["threshold"][1:]])),
            # an index array packed as float64, a float array packed as int64
            ("'left' has dtype '<f8', not '<i8'", with_payload(forest, trees={
                **forest["payload"]["trees"], "left": packed_array(nodes["left"] + 0.75)})),
            ("'threshold' has dtype '<i8', not '<f8'", with_payload(forest, trees={
                **forest["payload"]["trees"],
                "threshold": packed_array(np.round(nodes["threshold"]), np.int64)})),
            ("'value' must be finite", with_nodes(
                forest, value=[[float("nan")] * 4, *nodes["value"][1:]])),
            ("one alpha per stump", with_payload(boost, alphas=packed_array(alphas[:-1]))),
            ("'alphas' must be finite", with_payload(
                boost, alphas=packed_array([float("nan"), *alphas[1:]]))),
            ("'alphas' must be finite", with_payload(
                boost, alphas=packed_array([*alphas[:-1], float("inf")]))),
        ]
        mlp, cnn = (
            json.loads(model_to_json(train(ModelSpec(variant, params={"epochs": 1}), data)))
            for variant in ("mlp", "cnn")
        )

        def with_args(model, **fields):
            return with_payload(model, args={**model["payload"]["args"], **fields})

        for net, huge in ((mlp, "widths"), (cnn, "dense_widths")):
            theta = stored(net["payload"]["theta"])
            args = net["payload"]["args"]

            def with_theta(values):
                return with_payload(net, theta=packed_array(values))

            corruptions += [
                ("finite", with_theta([float("nan"), *theta[1:]])),
                ("finite", with_theta([*theta[:-1], float("inf")])),
                ("parameters", with_theta(theta[:-1])),
                ("parameters", with_theta([*theta, 0.0])),
                ("builder", with_payload(net, builder="rnn")),
                ("args", with_args(net, depth=3)),
                ("args", with_payload(net, args={
                    k: v for k, v in args.items() if k != "dropout_rate"})),
                ("dropout_rate", with_args(net, dropout_rate=7)),
                # ~1e16 parameters: counted, never allocated
                ("parameters", with_args(net, **{huge: [10**8, 10**8, 4]})),
                ("retrain", {**net, "format_version": 2}),
                ("retrain", {**net, "format_version": 3}),
            ]
        corruptions += [
            # mlp and cnn payloads are both networks: the builder must match
            ("builder 'cnn' does not match spec variant 'mlp'",
             {**mlp, "payload": cnn["payload"]}),
            ("builder 'mlp' does not match spec variant 'cnn'",
             {**cnn, "payload": mlp["payload"]}),
            ("kernel", with_args(cnn, kernel=0)),
            ("pool", with_args(cnn, pool=0)),
            ("parameters", with_args(cnn, filters=[10**8, 10**8])),
        ]
        # networks built for narrower rows, with a theta to match; a cnn
        # of length 270 pools to the dense width of 271, so its first conv
        # layer is what refuses 271-beam rows
        for net, (key, width) in ((mlp, ("n_in", 270)), (cnn, ("length", 269)),
                                  (cnn, ("length", 270))):
            args = {**net["payload"]["args"], key: width}
            size = nets.Network(net["spec"]["variant"], args).theta.size
            corruptions.append(("payload does not take 271 features", with_payload(
                net, args=args, theta=packed_array(np.zeros(size)))))

        def hung(signum, frame):
            raise TimeoutError("predict did not finish on a corrupt model file")

        # a cycle that slipped through would loop forever instead of failing
        previous = signal.signal(signal.SIGALRM, hung)
        try:
            for expected, corrupted in corruptions:
                bad.write_text(json.dumps(corrupted))
                capsys.readouterr()
                signal.alarm(20)
                assert run(["predict", "--model", str(bad),
                            "--scan", str(tiny_csv)]) == 2, expected
                signal.alarm(0)
                assert expected in capsys.readouterr().err
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


# Each leaf and each packed array of a sound model file is set to each of
# these in turn, and `predict` must then exit 0 or 2, never 3.
ODD_VALUES = [None, "odd", 1e308, -1e308, True, [], {}, 10**30]
# cut budgets, so that every variant trains on the tiny set in well under a second
CUT_BUDGETS = {"rf": {"trees": 3}, "adaboost": {"rounds": 4}, "svm": {},
               "logreg": {"max_iter": 50}, "mlp": {"epochs": 1}, "cnn": {"epochs": 1}}


def model_fields(node, path=()):
    """The path of every leaf and every packed array in a model file."""
    if isinstance(node, (dict, list)) and node and not (
        isinstance(node, dict) and set(node) == {"dtype", "shape", "data"}
    ):
        keys = node if isinstance(node, dict) else range(len(node))
        for key in keys:
            yield from model_fields(node[key], (*path, key))
    else:
        yield path


def replaced(node, path, value):
    """A copy of `node` with the field at `path` set to `value`."""
    if not path:
        return value
    copy = node.copy()
    copy[path[0]] = replaced(node[path[0]], path[1:], value)
    return copy


class TestModelFileFuzz:
    def test_odd_values_exit_0_or_2(self, tiny_csv, tmp_path, capsys, monkeypatch):
        # narrow networks: their files have the fields of full-width ones,
        # but each predict reads kilobytes instead of megabytes
        monkeypatch.setattr(nets, "build_mlp", functools.partial(
            nets.build_mlp, widths=(8, 8, 8, 8, 8, 4)))
        monkeypatch.setattr(nets, "build_cnn", functools.partial(
            nets.build_cnn, filters=(2, 2), dense_widths=(4, 4, 4)))
        with open(tiny_csv) as fh:
            data = parse_dataset(fh)
        path = tmp_path / "model.json"
        failures = []
        for variant in VARIANTS:
            model = train(ModelSpec(variant, params=CUT_BUDGETS[variant]), data)
            document = json.loads(model_to_json(model))
            for field in model_fields(document):
                for value in ODD_VALUES:
                    path.write_text(json.dumps(replaced(document, field, value)))
                    code = run(["predict", "--model", str(path), "--scan", str(tiny_csv)])
                    err = capsys.readouterr().err
                    if code not in (0, 2):
                        failures.append((variant, field, value, code, err))
        assert not failures


class TestCrossval:
    def test_writes_reports(self, tiny_csv, tmp_path):
        out = tmp_path / "reports"
        code = run(["crossval", "--model", "logreg", "--data", str(tiny_csv),
                    "--folds", "2", "--seed", "21", "--out", str(out)])
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "accuracy.csv", "pr_logreg.svg", "report.json",
        ]
        report = json.loads((out / "report.json").read_text())
        assert report["k"] == 2
        assert len(report["variants"][0]["folds"]) == 2

    def test_unknown_model_name_is_usage_error(self, tiny_csv, tmp_path):
        code = run(["crossval", "--model", "xgboost", "--data", str(tiny_csv),
                    "--folds", "2", "--out", str(tmp_path / "r")])
        assert code == 1

    def test_unknown_model_name_lists_the_choices(self, tiny_csv, tmp_path, capsys):
        code = run(["crossval", "--model", "xgboost", "--data", str(tiny_csv),
                    "--folds", "2", "--out", str(tmp_path / "r")])
        assert code == 1
        err = capsys.readouterr().err
        assert "invalid choice: 'xgboost'" in err
        assert all(f"'{name}'" in err for name in (*VARIANTS, "all"))


class TestPaths:
    """A path the command cannot read or write is a data error, and the
    OS message that names it goes to stderr."""

    @pytest.mark.parametrize("command", ["simulate", "train"])
    def test_out_is_a_directory(self, tiny_csv, tmp_path, capsys, command):
        out = tmp_path / "out"
        out.mkdir()
        args = {"simulate": ["--per-class", "1"],
                "train": ["--model", "logreg", "--data", str(tiny_csv)]}[command]
        assert run([command, *args, "--out", str(out)]) == 2
        assert "error: [Errno 21] Is a directory" in capsys.readouterr().err
        assert list(tmp_path.glob("*.tmp")) == [] and list(out.iterdir()) == []

    def test_crossval_out_is_a_file(self, tiny_csv, tmp_path, capsys):
        out = tmp_path / "report"
        out.write_text("kept\n")
        assert run(["crossval", "--model", "logreg", "--data", str(tiny_csv),
                    "--folds", "2", "--out", str(out)]) == 2
        assert "error: [Errno 17] File exists" in capsys.readouterr().err
        assert out.read_text() == "kept\n"

    @pytest.mark.parametrize("command", ["simulate", "train", "crossval"])
    def test_out_is_refused_before_any_work(self, tiny_csv, tmp_path, capsys, monkeypatch,
                                            command):
        def work(*args, **kwargs):
            pytest.fail(f"{command} did work before refusing its --out")

        monkeypatch.setattr("placescan.cli.generate_dataset", work)
        monkeypatch.setattr("placescan.classifiers.train", work)
        monkeypatch.setattr("placescan.cli.run_experiment", work)
        out = tmp_path / "out"
        if command == "crossval":
            out.write_text("kept\n")
        else:
            out.mkdir()
        args = {"simulate": ["--per-class", "1"],
                "train": ["--model", "cnn", "--data", str(tiny_csv)],
                "crossval": ["--model", "all", "--data", str(tiny_csv)]}[command]
        assert run([command, *args, "--out", str(out)]) == 2
        assert repr(str(out)) in capsys.readouterr().err

    def test_failed_write_names_the_given_path(self, tmp_path, capsys):
        out = tmp_path / "nodir" / "x.csv"
        assert run(["simulate", "--per-class", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 2] ") and repr(str(out)) in err
        assert ".tmp" not in err and list(tmp_path.rglob("*.tmp")) == []

    def test_unreadable_inputs(self, tiny_csv, tmp_path, capsys):
        model = tmp_path / "model.json"
        assert run(["train", "--model", "logreg", "--data", str(tiny_csv),
                    "--out", str(model)]) == 0
        missing = tmp_path / "missing.json"
        for argv, path in (
            (["summarize", "--data", str(tmp_path)], tmp_path),
            (["predict", "--model", str(model), "--scan", str(tmp_path)], tmp_path),
            (["predict", "--model", str(missing), "--scan", str(tiny_csv)], missing),
        ):
            capsys.readouterr()
            assert run(argv) == 2, argv
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and repr(str(path)) in err


class TestExitCodes:
    def test_no_command_is_usage_error(self):
        assert run([]) == 1

    def test_unknown_flag_is_usage_error(self):
        assert run(["summarize", "--dataset", "x.csv"]) == 1

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "simulate" in capsys.readouterr().out

    def test_malformed_csv_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("label,d000\ncorridor,nope\n")
        assert run(["summarize", "--data", str(bad)]) == 2
        assert "error" in capsys.readouterr().err
