import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from placescan.core import (
    MAX_RANGE_M,
    MIN_RANGE_M,
    NUM_BEAMS,
    ClassLabel,
    Dataset,
    Scan,
    label_codec,
    pack,
    unpack,
    validate_scan,
)
from placescan.errors import DimensionError, EmptyDatasetError, UnknownLabelError


class TestValidateScan:
    def test_identity_case(self):
        scan = validate_scan([5.0] * NUM_BEAMS)
        assert np.all(scan.ranges == 5.0)

    def test_infinite_beam_clipped_to_max_range(self):
        raw = [5.0] * NUM_BEAMS
        raw[17] = math.inf
        scan = validate_scan(raw)
        assert scan.ranges[17] == MAX_RANGE_M

    def test_nan_beam_clipped_to_max_range(self):
        raw = [5.0] * NUM_BEAMS
        raw[0] = math.nan
        assert validate_scan(raw).ranges[0] == MAX_RANGE_M

    def test_low_and_negative_values_clipped_up(self):
        raw = [5.0] * NUM_BEAMS
        raw[3] = 0.0
        raw[4] = -2.0
        scan = validate_scan(raw)
        assert scan.ranges[3] == MIN_RANGE_M
        assert scan.ranges[4] == MIN_RANGE_M

    def test_wrong_length_raises(self):
        with pytest.raises(DimensionError, match="271"):
            validate_scan([5.0] * 270)
        with pytest.raises(DimensionError, match=r"got shape \(1, 271\)"):
            validate_scan([[5.0] * NUM_BEAMS])

    @pytest.mark.parametrize(
        "raw",
        [
            np.full(NUM_BEAMS, 5.0 + 1.0j),
            ["5.0"] * NUM_BEAMS,
            [None] * NUM_BEAMS,
            [True] * NUM_BEAMS,
        ],
    )
    def test_values_that_are_not_real_numbers_raise(self, raw):
        with pytest.raises(ValueError, match="beam distances must be real numbers"):
            validate_scan(raw)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        raw = rng.uniform(-1.0, 40.0, NUM_BEAMS)
        once = validate_scan(raw)
        twice = validate_scan(once.ranges)
        assert np.array_equal(once.ranges, twice.ranges)

    def test_height_metadata(self):
        scan = validate_scan([5.0] * NUM_BEAMS, height_m=2.0)
        assert scan.height_m == 2.0
        with pytest.raises(ValueError):
            validate_scan([5.0] * NUM_BEAMS, height_m=-1.0)

    def test_leaves_the_callers_array_writable_and_unchanged(self):
        raw = np.full(NUM_BEAMS, 5.0)
        raw[[0, 1]] = math.nan, -2.0
        scan = validate_scan(raw)
        assert raw.flags.writeable and math.isnan(raw[0]) and raw[1] == -2.0
        assert not np.shares_memory(scan.ranges, raw) and not scan.ranges.flags.writeable
        assert scan.ranges[0] == MAX_RANGE_M and scan.ranges[1] == MIN_RANGE_M

    def test_ranges_immutable(self):
        scan = validate_scan([5.0] * NUM_BEAMS)
        with pytest.raises(ValueError):
            scan.ranges[0] = 1.0

    def test_scan_freezes_a_copy_and_takes_a_list(self):
        raw = np.linspace(1.0, 2.0, NUM_BEAMS)
        scan = Scan(raw)
        assert raw.flags.writeable
        raw[0] = 5.0
        assert scan.ranges[0] == 1.0 and not scan.ranges.flags.writeable
        listed = Scan([1] * NUM_BEAMS, height_m=0.5)
        assert listed.ranges.dtype == np.float64 and not listed.ranges.flags.writeable
        assert listed == Scan(np.ones(NUM_BEAMS), height_m=0.5)


class TestScan:
    def test_five_beams_raise(self):
        with pytest.raises(DimensionError, match="271"):
            Scan([1.0] * 5)

    @pytest.mark.parametrize("height_m", [-3.0, math.nan, math.inf])
    def test_height_that_is_not_finite_and_non_negative_raises(self, height_m):
        with pytest.raises(ValueError, match="height_m must be finite and non-negative"):
            Scan([1.0] * NUM_BEAMS, height_m=height_m)

    def test_nan_beam_imputed_to_max_range(self):
        raw = [5.0] * NUM_BEAMS
        raw[7] = math.nan
        scan = Scan(raw, height_m=2)
        assert scan.ranges[7] == MAX_RANGE_M and scan == validate_scan(raw, 2.0)
        assert type(scan.height_m) is float

    def test_complex_row_raises(self):
        with pytest.raises(ValueError, match="beam distances must be real numbers"):
            Scan(np.full(NUM_BEAMS, 5.0 + 0.0j))

    def test_leaves_the_callers_array_writable_and_unchanged(self):
        raw = np.full(NUM_BEAMS, 5.0)
        raw[[0, 1]] = math.nan, -2.0
        scan = Scan(raw)
        assert raw.flags.writeable and math.isnan(raw[0]) and raw[1] == -2.0
        assert not np.shares_memory(scan.ranges, raw) and not scan.ranges.flags.writeable
        assert scan.ranges[0] == MAX_RANGE_M and scan.ranges[1] == MIN_RANGE_M


class TestLabelCodec:
    def test_string_decoding(self):
        assert label_codec("corridor") is ClassLabel.corridor
        assert int(label_codec("corridor")) == 0

    def test_index_decoding(self):
        assert label_codec(3) is ClassLabel.shared_space

    def test_unknown_string(self):
        with pytest.raises(UnknownLabelError, match="corridor"):
            label_codec("lobby")

    def test_unknown_index(self):
        with pytest.raises(UnknownLabelError):
            label_codec(4)

    def test_normalization(self):
        assert label_codec("Shared-Space") is ClassLabel.shared_space
        assert label_codec("  RESTROOM ") is ClassLabel.restroom

    def test_round_trip_both_encodings(self):
        for label in ClassLabel:
            assert label_codec(label.name) is label
            assert label_codec(int(label)) is label

    def test_exactly_four_variants(self):
        assert len(ClassLabel) == 4
        assert [l.name for l in ClassLabel] == [
            "corridor",
            "staircase",
            "restroom",
            "shared_space",
        ]


class TestDataset:
    def test_empty_forbidden(self):
        with pytest.raises(EmptyDatasetError):
            Dataset(X=np.empty((0, NUM_BEAMS)), y=np.empty(0, dtype=np.int64))

    def test_counts_and_matrix(self):
        X = np.repeat(np.arange(1.0, 5.0)[:, None], NUM_BEAMS, axis=1)
        ds = Dataset(X=X, y=np.arange(4))
        assert len(ds) == 4
        assert ds.feature_matrix().shape == (4, NUM_BEAMS)
        assert np.bincount(ds.y).tolist() == [1, 1, 1, 1]
        assert np.all(np.isnan(ds.heights))

    def test_imputes_like_validate_scan(self):
        X = np.full((4, NUM_BEAMS), 5.0)
        for row, value in enumerate([np.nan, np.inf, -np.inf, -1.0]):
            X[row, [0, 100, 270]] = value
        ds = Dataset(X=X, y=np.zeros(4, dtype=np.int64))
        expected = np.stack([validate_scan(row).ranges for row in X])
        assert np.array_equal(ds.X, expected)

    def test_columns_read_only_and_matrices_copied(self):
        X = np.full((2, NUM_BEAMS), 5.0)
        ds = Dataset(X=X, y=[0, 1], heights=[1.0, np.nan])
        X[0, 0] = 7.0
        assert ds.X[0, 0] == 5.0
        for column in (ds.X, ds.y, ds.heights):
            with pytest.raises(ValueError):
                column[0] = 0
        copy = ds.feature_matrix()
        copy[0, 0] = 9.0
        labels = ds.label_vector()
        labels[0] = 3
        assert ds.X[0, 0] == 5.0 and ds.y[0] == 0

    def test_constructor_leaves_the_callers_matrix_alone(self):
        X = np.full((2, NUM_BEAMS), 5.0)
        X[0, 0], X[1, 1] = np.nan, 99.0
        ds = Dataset(X=X, y=[0, 1])
        assert not np.shares_memory(ds.X, X)
        assert np.isnan(X[0, 0]) and X[1, 1] == 99.0 and X.flags.writeable
        assert ds.X[0, 0] == ds.X[1, 1] == MAX_RANGE_M

    def test_adopt_imputes_in_place_without_a_copy(self):
        X = np.full((2, NUM_BEAMS), 5.0)
        X[0, 0], X[1, 1], X[1, 2] = np.nan, 99.0, -1.0
        expected = Dataset(X=X, y=[0, 1], heights=[2.0, np.nan])
        ds = Dataset._adopt(X, np.array([0, 1]), heights=np.array([2.0, np.nan]))
        assert np.shares_memory(ds.X, X) and not X.flags.writeable
        assert ds.X.tobytes() == expected.X.tobytes()
        assert ds.y.tobytes() == expected.y.tobytes()
        assert ds.heights.tobytes() == expected.heights.tobytes()
        assert len(ds) == 2
        with pytest.raises(DimensionError):
            Dataset._adopt(np.ones((2, NUM_BEAMS)), np.array([0]), None)

    @pytest.mark.parametrize(
        "X, y, heights, error",
        [
            (np.ones((2, NUM_BEAMS - 1)), [0, 1], None, DimensionError),
            (np.ones(NUM_BEAMS), [0], None, DimensionError),
            (np.ones((2, NUM_BEAMS)), [0], None, DimensionError),
            (np.ones((2, NUM_BEAMS)), [0, 1], [1.0], DimensionError),
            (np.ones((2, NUM_BEAMS)), [0, 4], None, UnknownLabelError),
            (np.ones((2, NUM_BEAMS)), [-1, 0], None, UnknownLabelError),
            (np.ones((2, NUM_BEAMS)), [0.0, 1.0], None, UnknownLabelError),
            (np.ones((2, NUM_BEAMS)), [0, 1], [1.0, -1.0], ValueError),
            (np.ones((2, NUM_BEAMS)), [0, 1], [np.inf, 1.0], ValueError),
            (np.full((2, NUM_BEAMS), 1.0 + 1.0j), [0, 1], None, ValueError),
            (np.full((2, NUM_BEAMS), "1.0"), [0, 1], None, ValueError),
        ],
    )
    def test_invalid_columns_rejected(self, X, y, heights, error):
        with pytest.raises(error):
            Dataset(X=X, y=y, heights=heights)

    def test_subset_is_fancy_indexing(self):
        X = np.repeat(np.arange(1.0, 5.0)[:, None], NUM_BEAMS, axis=1)
        ds = Dataset(X=X, y=np.arange(4), heights=[0.0, 1.0, np.nan, 3.0])
        part = ds.subset([2, 0])
        assert part.y.tolist() == [2, 0]
        assert np.array_equal(part.X, X[[2, 0]])
        assert np.array_equal(part.heights, [np.nan, 0.0], equal_nan=True)
        # a slice and a boolean mask pick the same rows as their positions
        assert ds.subset(slice(1, 3)).y.tolist() == [1, 2]
        assert ds.subset(ds.y % 2 == 1).y.tolist() == [1, 3]
        assert ds.subset([True, False, True, False]).y.tolist() == [0, 2]
        with pytest.raises(EmptyDatasetError):
            ds.subset([])

    def test_subset_copies_its_rows_once(self):
        ds = Dataset(X=np.random.default_rng(0).uniform(1.0, 9.0, (2000, NUM_BEAMS)),
                     y=np.arange(2000) % 4)
        tracemalloc.start()
        try:
            part = ds.subset(np.arange(400, 2000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(part) == 1600
        assert peak <= 1.25 * part.X.nbytes


_INT64 = np.iinfo(np.int64)
_FLOAT_EDGES = [0.0, -0.0, 5e-324, -2.2250738585072014e-308 / 3, np.finfo(np.float64).max]
_SHAPES = array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)
_PACKABLE = st.one_of(
    arrays(np.float64, _SHAPES, elements=st.one_of(
        st.sampled_from(_FLOAT_EDGES), st.floats(allow_nan=False, allow_infinity=False))),
    arrays(np.int64, _SHAPES, elements=st.one_of(
        st.sampled_from([int(_INT64.min), int(_INT64.max), 0]),
        st.integers(int(_INT64.min), int(_INT64.max)))),
)


def _through_file(arr, key="a"):
    return json.loads(json.dumps({key: arr}, default=pack))


class TestPackedArrays:
    @settings(max_examples=200, deadline=None)
    @given(_PACKABLE)
    def test_round_trip_is_byte_identical(self, arr):
        back = unpack(_through_file(arr), "a", arr.dtype)
        assert (back.dtype, back.shape) == (arr.dtype, arr.shape)
        assert back.tobytes() == arr.tobytes()
        assert not back.flags.writeable

    @settings(max_examples=100, deadline=None)
    @given(
        arrays(np.float64, array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=4),
               elements=st.floats(allow_nan=False, allow_infinity=False)),
        st.data(),
    )
    def test_non_finite_values_are_refused_by_name(self, arr, data):
        arr = arr.copy()
        index = data.draw(st.integers(0, arr.size - 1))
        arr.flat[index] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        key = data.draw(st.from_regex(r"[a-z_]{1,8}", fullmatch=True))
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            unpack(_through_file(arr, key), key, np.float64)

    @settings(max_examples=50, deadline=None)
    @given(_PACKABLE)
    def test_the_other_dtype_is_refused_by_name(self, arr):
        other = np.int64 if arr.dtype == np.float64 else np.float64
        with pytest.raises(ValueError, match=f"'a' has dtype '{arr.dtype.str}'"):
            unpack(_through_file(arr), "a", other)

    def test_only_float64_and_int64_arrays_pack(self):
        for value in (np.zeros(3, np.float32), np.zeros(3, bool), [1.0], np.int64(1)):
            with pytest.raises(TypeError):
                pack(value)
