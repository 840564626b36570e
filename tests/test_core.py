import math

import numpy as np
import pytest

from placescan.core import (
    MAX_RANGE_M,
    MIN_RANGE_M,
    NUM_BEAMS,
    ClassLabel,
    Dataset,
    label_codec,
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

    def test_ranges_immutable(self):
        scan = validate_scan([5.0] * NUM_BEAMS)
        with pytest.raises(ValueError):
            scan.ranges[0] = 1.0


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
        ],
    )
    def test_invalid_columns_rejected(self, X, y, heights, error):
        with pytest.raises(error):
            Dataset(X=X, y=y, heights=heights)

    def test_subset_is_fancy_indexing(self):
        X = np.repeat(np.arange(1.0, 5.0)[:, None], NUM_BEAMS, axis=1)
        ds = Dataset(X=X, y=np.arange(4), heights=[0.0, 1.0, np.nan, 3.0], provenance="p")
        part = ds.subset([2, 0])
        assert part.y.tolist() == [2, 0]
        assert np.array_equal(part.X, X[[2, 0]])
        assert np.array_equal(part.heights, [np.nan, 0.0], equal_nan=True)
        assert part.provenance == "p"
        with pytest.raises(EmptyDatasetError):
            ds.subset([])
