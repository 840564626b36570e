import json

import pytest

from placescan.cli import run
from placescan.core import LABEL_NAMES


@pytest.fixture(scope="module")
def tiny_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "tiny.csv"
    code = run(["simulate", "--per-class", "8", "--seed", "21",
                "--out", str(path)])
    assert code == 0
    return path


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
        corruptions = {  # expected field name in the message -> corrupted file
            "'payload'": {k: v for k, v in document.items() if k != "payload"},
            "'spec'": {k: v for k, v in document.items() if k != "spec"},
            "payload": {**document, "payload": list(document["payload"])},
            "'W'": {**document, "payload": without_w},
        }
        for field_name, corrupted in corruptions.items():
            bad.write_text(json.dumps(corrupted))
            capsys.readouterr()
            assert run(["predict", "--model", str(bad),
                        "--scan", str(tiny_csv)]) == 2, field_name
            assert field_name in capsys.readouterr().err


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
