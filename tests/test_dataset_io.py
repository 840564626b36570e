import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from placescan import dataset_io
from placescan.classifiers import dataset_fingerprint
from placescan.core import LABEL_NAMES, NUM_BEAMS, NUM_CLASSES, ClassLabel, Dataset
from placescan.dataset_io import parse_dataset, summarize, write_dataset
from placescan.errors import EmptyDatasetError, RowError, SchemaError
from placescan.simulate import SimConfig, generate_dataset

HEADER = "label,height_m," + ",".join(f"d{k:03d}" for k in range(NUM_BEAMS))


def _row(label="corridor", value="5.0", height="1.0"):
    return f"{label},{height}," + ",".join([value] * NUM_BEAMS)


def _random_dataset(seed, n_rows):
    """Rows with distances already on the 4-decimal grid."""
    rng = np.random.default_rng(seed)
    heights = rng.integers(0, 4, n_rows).astype(np.float64)
    heights[rng.random(n_rows) >= 0.8] = np.nan
    return Dataset(
        X=np.round(rng.uniform(0.001, 30.0, (n_rows, NUM_BEAMS)), 4),
        y=rng.integers(0, NUM_CLASSES, n_rows),
        heights=heights,
    )


# Distances on the 4-decimal grid survive the CSV exactly; readings outside
# the sensor envelope are imputed onto it when the Dataset is built.
_distances = st.one_of(
    st.integers(10, 300_000).map(lambda k: k / 10_000),
    st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0, 45.0]),
)
_heights = st.integers(0, 100_000).map(lambda k: k / 10_000)


@st.composite
def _datasets(draw):
    n = draw(st.integers(1, 6))
    X = draw(hnp.arrays(np.float64, (n, NUM_BEAMS), elements=_distances))
    y = draw(hnp.arrays(np.int64, n, elements=st.integers(0, NUM_CLASSES - 1)))
    present = draw(st.sampled_from(["every", "no", "some"]))
    heights = [
        draw(_heights)
        if present == "every" or (present == "some" and draw(st.booleans()))
        else math.nan
        for _ in range(n)
    ]
    return Dataset(X=X, y=y, heights=heights)


def _csv(dataset):
    buf = io.StringIO()
    write_dataset(dataset, buf)
    return buf.getvalue()


class TestParse:
    def test_parse_holds_one_matrix_not_two(self):
        # the Dataset imputes the parsed buffer in place instead of copying it
        text = io.StringIO()
        write_dataset(_random_dataset(4, 1000), text)
        source = io.StringIO(text.getvalue())
        tracemalloc.start()
        try:
            ds = parse_dataset(source)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * ds.X.nbytes

    def test_single_row(self):
        ds = parse_dataset(io.StringIO(HEADER + "\n" + _row() + "\n"))
        assert len(ds) == 1
        assert ds.y[0] == ClassLabel.corridor
        assert ds.heights[0] == 1.0
        assert np.all(ds.X[0] == 5.0)

    def test_inf_distance_imputed(self):
        fields = ["corridor", "1.0"] + ["5.0"] * NUM_BEAMS
        fields[2] = "inf"
        text = HEADER + "\n" + ",".join(fields) + "\n"
        ds = parse_dataset(io.StringIO(text))
        assert ds.X[0, 0] == 30.0

    def test_header_without_height(self):
        header = "label," + ",".join(f"d{k:03d}" for k in range(NUM_BEAMS))
        text = header + "\n" + "restroom," + ",".join(["2.5"] * NUM_BEAMS) + "\n"
        ds = parse_dataset(io.StringIO(text))
        assert np.isnan(ds.heights[0])

    def test_malformed_header(self):
        with pytest.raises(SchemaError, match="header"):
            parse_dataset(io.StringIO("foo,bar\n1,2\n"))

    def test_unparseable_number_reports_line(self):
        text = HEADER + "\n" + _row() + "\n" + _row(value="oops") + "\n"
        with pytest.raises(RowError, match="line 3"):
            parse_dataset(io.StringIO(text))

    def test_unknown_label_reports_line(self):
        with pytest.raises(RowError, match="line 2"):
            parse_dataset(io.StringIO(HEADER + "\n" + _row(label="lobby") + "\n"))

    @pytest.mark.parametrize("height", ["-1.0", "nan", "inf"])
    def test_bad_height_reports_line(self, height):
        text = HEADER + "\n" + _row() + "\n" + _row(height=height) + "\n"
        with pytest.raises(RowError, match="line 3.*height_m"):
            parse_dataset(io.StringIO(text))

    def test_wrong_field_count(self):
        text = HEADER + "\n" + "corridor,1.0,5.0\n"
        with pytest.raises(RowError, match="fields"):
            parse_dataset(io.StringIO(text))


class TestWrite:
    def test_one_row_two_lines(self):
        ds = parse_dataset(io.StringIO(HEADER + "\n" + _row() + "\n"))
        buf = io.StringIO()
        write_dataset(ds, buf)
        assert len(buf.getvalue().splitlines()) == 2

    @settings(max_examples=40, deadline=None)
    @given(_datasets())
    def test_parse_write_identity(self, ds):
        text = _csv(ds)
        reparsed = parse_dataset(io.StringIO(text))
        assert _csv(reparsed) == text
        assert np.array_equal(reparsed.X, ds.X)
        assert np.array_equal(reparsed.y, ds.y)
        assert np.array_equal(reparsed.heights, ds.heights, equal_nan=True)

    def test_write_parse_write_canonicalizes(self):
        # a second write after a parse is byte-identical: one pass suffices
        ds = _random_dataset(9, 20)
        first = _csv(ds)
        assert _csv(parse_dataset(io.StringIO(first))) == first

    def test_empty_dataset_cannot_exist(self):
        with pytest.raises(EmptyDatasetError):
            Dataset(X=np.empty((0, NUM_BEAMS)), y=np.empty(0, dtype=np.int64))
        with pytest.raises(EmptyDatasetError):
            parse_dataset(io.StringIO(HEADER + "\n"))


def _reference_csv(dataset):
    """The canonical CSV, one `"%.4f"` per field."""
    has_height = not np.all(np.isnan(dataset.heights))
    lines = ["label," + ("height_m," if has_height else "")
             + ",".join(f"d{k:03d}" for k in range(NUM_BEAMS))]
    for label, height, row in zip(dataset.y, dataset.heights, dataset.X.tolist()):
        prefix = LABEL_NAMES[label] + ","
        if has_height:
            prefix += ("" if math.isnan(height) else "%.4f" % height) + ","
        lines.append(prefix + ",".join("%.4f" % v for v in row))
    return "\n".join(lines) + "\n"


# Distances inside the sensor envelope. The hard ones for `%.4f` are the
# 4-decimal halves (k + 0.5)/1e4, the exact binary ties (2j + 1)/32, and one
# ulp either side of a half; a row holds a few of them among plain ones.
_halves = st.integers(10, 299_999).map(lambda k: (k + 0.5) / 10_000)
_hard_distances = st.one_of(
    _halves,
    st.integers(0, 479).map(lambda j: (2 * j + 1) / 32),
    st.tuples(_halves, st.sampled_from([0.0, 31.0])).map(lambda pair: math.nextafter(*pair)),
)
_plain_distances = st.one_of(
    st.floats(0.001, 30.0),
    st.integers(10, 300_000).map(lambda k: k / 10_000),
    st.sampled_from([0.001, 30.0]),
)


@st.composite
def _envelope_datasets(draw):
    n = draw(st.integers(1, 9))
    X = np.empty((n, NUM_BEAMS))
    for row in X:
        row[:] = np.resize(draw(st.lists(_plain_distances, min_size=1, max_size=8)), NUM_BEAMS)
        for beam, value in draw(
            st.lists(st.tuples(st.integers(0, NUM_BEAMS - 1), _hard_distances), max_size=2)
        ):
            row[beam] = value
    y = draw(hnp.arrays(np.int64, n, elements=st.integers(0, NUM_CLASSES - 1)))
    present = draw(st.sampled_from(["every", "no", "some"]))
    heights = [
        draw(st.floats(0.0, 1e30))
        if present == "every" or (present == "some" and draw(st.booleans()))
        else math.nan
        for _ in range(n)
    ]
    return Dataset(X=X, y=y, heights=heights)


class _CountingStream:
    def __init__(self):
        self.writes = 0
        self.text = io.StringIO()

    def write(self, text):
        self.writes += 1
        return self.text.write(text)


@pytest.fixture(scope="module")
def simulated_2000():
    return generate_dataset(SimConfig.uniform(500, seed=1))


@pytest.fixture
def row_formats(monkeypatch):
    """The values of every row that write_dataset formats field by field."""
    calls = []

    class CountingFormat(str):
        def __mod__(self, values):
            calls.append(values)
            return str.__mod__(self, values)

    monkeypatch.setattr(dataset_io, "_ROW_FORMAT", CountingFormat(dataset_io._ROW_FORMAT))
    return calls


class TestWriterOracle:
    @settings(max_examples=200, deadline=None)
    @given(_envelope_datasets())
    def test_matches_per_field_format(self, ds):
        assert _csv(ds) == _reference_csv(ds)

    def test_block_path_on_every_grid_value_and_next_to_every_half(self, row_formats):
        # every count of 1e-4 m in the envelope, and 3e-13 m either side of
        # each half: far from the 1e-9 margin in q = x * 1e4, so no fallback
        k = np.arange(10, 300_001)
        values = np.concatenate([k / 10_000, (k[:-1] + 0.5) / 10_000 - 3e-13,
                                 (k[:-1] + 0.5) / 10_000 + 3e-13])
        rows = len(values) // NUM_BEAMS
        ds = Dataset(X=values[: rows * NUM_BEAMS].reshape(rows, NUM_BEAMS),
                     y=np.arange(rows) % NUM_CLASSES)
        assert _csv(ds) == _reference_csv(ds)
        assert row_formats == []

    def test_simulated_rows_take_the_block_path(self, simulated_2000, row_formats):
        # no row is formatted field by field, and the stream gets one write
        # for the header and one per row
        stream = _CountingStream()
        write_dataset(simulated_2000, stream)
        assert row_formats == []
        assert stream.writes == 1 + len(simulated_2000)
        assert stream.text.getvalue() == _reference_csv(simulated_2000)

    def test_fingerprint_never_holds_the_text(self, simulated_2000):
        # a fresh Dataset, so its digest is not a cached one
        fresh = simulated_2000.subset(np.arange(len(simulated_2000)))
        csv_bytes = len(_csv(fresh))
        tracemalloc.start()
        try:
            dataset_fingerprint(fresh)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < csv_bytes / 8


class TestSummarize:
    def test_one_row_per_class(self):
        summary = summarize(Dataset(X=np.full((4, NUM_BEAMS), 5.0), y=np.arange(4)))
        assert summary.total == 4
        assert all(summary.counts[label] == 1 for label in ClassLabel)

    def test_constant_features(self):
        ds = Dataset(X=np.full((3, NUM_BEAMS), 5.0), y=np.zeros(3, dtype=np.int64))
        summary = summarize(ds)
        assert np.all(summary.feature_min == 5.0)
        assert np.all(summary.feature_max == 5.0)
        assert np.all(summary.feature_mean == 5.0)

    def test_total_matches_row_count(self):
        for seed in (4, 5):
            ds = _random_dataset(seed, 31)
            assert summarize(ds).total == len(ds)

    def test_json_shape(self):
        ds = _random_dataset(6, 10)
        payload = json.loads(summarize(ds).to_json())
        assert payload["total"] == 10
        assert set(payload["counts"]) == {l.name for l in ClassLabel}
        assert len(payload["features"]["mean"]) == NUM_BEAMS
        assert sum(payload["counts"].values()) == payload["total"]
