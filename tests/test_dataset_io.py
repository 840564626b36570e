import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from placescan.core import NUM_BEAMS, NUM_CLASSES, ClassLabel, Dataset
from placescan.dataset_io import parse_dataset, summarize, write_dataset
from placescan.errors import EmptyDatasetError, RowError, SchemaError

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
