import hashlib
import io
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from placescan import simulate
from placescan.classifiers import dataset_fingerprint
from placescan.core import ClassLabel, NUM_BEAMS
from placescan.dataset_io import summarize, write_dataset
from placescan.errors import DimensionError, InvalidPoseError
from placescan.simulate import (
    CAST_BLOCK_ELEMENTS,
    Scene,
    SensorPose,
    SimConfig,
    cast_ray,
    cast_rays,
    generate_dataset,
    generate_scene,
    sample_pose,
    simulate_scan,
)


def _square_room(side=10.0):
    half = side / 2.0
    segs = np.array(
        [
            [-half, -half, half, -half],
            [half, -half, half, half],
            [half, half, -half, half],
            [-half, half, -half, -half],
        ]
    )
    return Scene(
        segments=segs,
        label=ClassLabel.shared_space,
        extent=(-half, -half, half, half),
        spawn_region=(-1.0, -1.0, 1.0, 1.0),
    )


def brute_force_cast(segments, origin, direction):
    """Independent oracle: test every segment separately, keep the nearest
    positive hit."""
    best = math.inf
    ox, oy = origin
    dx, dy = direction
    for x1, y1, x2, y2 in segments:
        ex, ey = x2 - x1, y2 - y1
        denom = dx * ey - dy * ex
        if abs(denom) <= 1e-12:
            continue
        rx, ry = x1 - ox, y1 - oy
        t = (rx * ey - ry * ex) / denom
        u = (rx * dy - ry * dx) / denom
        if t > 1e-9 and 0.0 <= u <= 1.0 and t < best:
            best = t
    if not math.isfinite(best):
        return 30.0
    return min(max(best, 0.001), 30.0)


class TestCastRay:
    def test_square_room_axis_beam(self):
        scene = _square_room(10.0)
        assert cast_ray(scene, (0.0, 0.0), (1.0, 0.0)) == pytest.approx(5.0, abs=1e-9)

    def test_square_room_diagonal_beam(self):
        scene = _square_room(10.0)
        d = (math.sqrt(0.5), math.sqrt(0.5))
        assert cast_ray(scene, (0.0, 0.0), d) == pytest.approx(
            5.0 * math.sqrt(2.0), abs=1e-9
        )

    def test_miss_clips_to_max_range(self):
        # one short segment behind the origin; the beam points away from it
        segs = np.array([[-2.0, -1.0, -2.0, 1.0]])
        scene = Scene(
            segments=segs,
            label=ClassLabel.corridor,
            extent=(-2.0, -1.0, -2.0, 1.0),
        )
        assert cast_rays(segs, np.array([0.0, 0.0]), np.array([[1.0, 0.0]]))[0] == 30.0

    def test_non_unit_direction_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            cast_ray(_square_room(), (0.0, 0.0), (2.0, 0.0))

    def test_brute_force_oracle_agreement(self):
        rng = np.random.default_rng(123)
        for trial in range(1000):
            label = ClassLabel(int(rng.integers(0, 4)))
            scene = generate_scene(label, np.random.default_rng([9, trial]))
            x0, y0, x1, y1 = scene.spawn_region
            origin = np.array(
                [rng.uniform(x0, x1), rng.uniform(y0, y1)]
            )
            theta = rng.uniform(-math.pi, math.pi)
            direction = np.array([math.cos(theta), math.sin(theta)])
            fast = cast_rays(scene.segments, origin, direction[None, :])[0]
            slow = brute_force_cast(scene.segments, origin, direction)
            assert fast == pytest.approx(slow, abs=1e-6)


# whole numbers make parallel, collinear and endpoint-grazing cases common
_COORDINATES = st.one_of(
    st.integers(-6, 6).map(float),
    st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False),
)
_ANGLES = st.one_of(
    st.integers(-4, 4).map(lambda k: k * math.pi / 4.0),
    st.floats(-math.pi, math.pi, allow_nan=False),
)


@st.composite
def _ray_batches(draw):
    """Scenes of 0-6 segments, one origin each and the same number of beams
    per scene: (list of (S, 4) arrays, (B, 2) origins, (B, R, 2) directions)."""
    rows = draw(st.integers(1, 4))
    beams = draw(st.integers(1, 5))
    scenes = [
        np.array(
            draw(st.lists(st.tuples(*[_COORDINATES] * 4), max_size=6)), dtype=np.float64
        ).reshape(-1, 4)
        for _ in range(rows)
    ]
    origins = np.array(draw(st.lists(st.tuples(_COORDINATES, _COORDINATES),
                                     min_size=rows, max_size=rows)))
    angles = np.array(draw(st.lists(st.lists(_ANGLES, min_size=beams, max_size=beams),
                                    min_size=rows, max_size=rows)))
    return scenes, origins, np.stack([np.cos(angles), np.sin(angles)], axis=-1)


def nan_padded(scenes):
    """(B, max S, 4): each scene's segments, then rows of NaN."""
    padded = np.full((len(scenes), max(len(s) for s in scenes), 4), np.nan)
    for j, segments in enumerate(scenes):
        padded[j, : len(segments)] = segments
    return padded


class TestBatchedCast:
    @settings(max_examples=300, deadline=None)
    @given(_ray_batches())
    def test_batch_equals_each_row_and_the_oracle(self, batch):
        scenes, origins, directions = batch
        batched = cast_rays(nan_padded(scenes), origins, directions)
        assert batched.shape == directions.shape[:2]
        for j, segments in enumerate(scenes):
            alone = cast_rays(segments, origins[j], directions[j])
            assert batched[j].tobytes() == alone.tobytes()
            for k, direction in enumerate(directions[j]):
                assert batched[j, k] == brute_force_cast(segments, origins[j], direction)

    def test_empty_scene_in_a_batch_and_alone(self):
        room = _square_room(10.0).segments
        origins = np.zeros((2, 2))
        directions = np.tile([[1.0, 0.0], [0.0, -1.0]], (2, 1, 1))
        batched = cast_rays(nan_padded([room, np.empty((0, 4))]), origins, directions)
        assert batched.tolist() == [[5.0, 5.0], [30.0, 30.0]]
        assert cast_rays(np.empty((2, 0, 4)), origins, directions).tolist() == [[30.0] * 2] * 2
        assert cast_rays(np.empty((0, 4)), origins[0], directions[0]).tolist() == [30.0] * 2


_WHOLE = st.integers(-6, 6).map(float)
_TINY = st.sampled_from([0.0, 1e-9, -1e-9, 1e-12, -1e-15])


@st.composite
def _fan_scenes(draw):
    """A whole-number origin, a whole-degree heading and 0-8 segments of
    these kinds: whole-number (beams at multiples of 45 degrees graze their
    endpoints, and their arcs cross pi and the fan's blind sector), collinear
    with the origin, passing within 1e-9 of it or ending within 1e-9 of it,
    zero-length, or NaN."""
    origin = np.array(draw(st.tuples(_WHOLE, _WHOLE)))
    heading = math.radians(draw(st.integers(-180, 179)))
    segments = []
    for kind in draw(st.lists(st.sampled_from(["whole", "collinear", "through", "ends_at",
                                               "point", "nan"]), max_size=8)):
        a = np.array(draw(st.tuples(_WHOLE, _WHOLE)))
        b = np.array(draw(st.tuples(_WHOLE, _WHOLE)))
        nudge = np.array(draw(st.tuples(_TINY, _TINY)))
        if kind == "collinear":
            b = origin + draw(st.integers(-3, 3)) * (a - origin)
        elif kind == "through":
            a, b = a + nudge, origin - (a - origin) / 2 + nudge
        elif kind == "ends_at":
            a = origin + nudge
        elif kind == "point":
            b = a
        elif kind == "nan":
            a = b = np.full(2, np.nan)
        segments.append(np.concatenate([a, b]))
    return np.array(segments).reshape(-1, 4), origin, heading


class TestAngularCull:
    @settings(max_examples=300, deadline=None)
    @given(_fan_scenes())
    def test_fan_equals_the_oracle_exactly(self, scene):
        segments, origin, heading = scene
        directions = simulate._beam_directions(heading)
        ranges = cast_rays(segments, origin, directions)
        assert ranges.tolist() == [brute_force_cast(segments, origin, d) for d in directions]

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(*[st.floats(-8.0, 8.0)] * 4), st.sampled_from([0.0, 0.5, 1.0, 1.5, -0.5]),
           st.sampled_from([1e-15, -1e-13, 1e-11, -1e-9]), st.booleans(),
           st.lists(st.floats(-13.0, -5.0), min_size=1, max_size=16))
    def test_near_parallel_beams_from_near_the_line(self, ends, along, off, back, tilts):
        # such a beam can cross the segment a hair ahead of the origin, so
        # a segment this flat with the origin must take every beam
        segments = np.array([ends])
        p, e = segments[0, :2], segments[0, 2:] - segments[0, :2]
        length = math.hypot(*e)
        assume(length > 0.1)
        origin = p + along * e + off * np.array([-e[1], e[0]]) / length
        tilts = 10.0 ** np.array(tilts) * np.resize([1.0, -1.0], len(tilts))
        angles = math.atan2(e[1], e[0]) + back * math.pi + tilts
        directions = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        ranges = cast_rays(segments, origin, directions)
        assert ranges.tolist() == [brute_force_cast(segments, origin, d) for d in directions]


class TestGenerateScene:
    def test_corridor_aspect_ratio(self):
        for seed in range(100):
            scene = generate_scene(ClassLabel.corridor, np.random.default_rng(seed))
            x0, y0, x1, y1 = scene.extent
            long_side = max(x1 - x0, y1 - y0)
            short_side = min(x1 - x0, y1 - y0)
            assert long_side / short_side >= 3.0

    def test_restroom_partitions(self):
        for seed in range(50):
            scene = generate_scene(ClassLabel.restroom, np.random.default_rng(seed))
            top = scene.extent[3]
            partitions = [
                s
                for s in scene.segments
                if s[0] == s[2] and max(s[1], s[3]) == top and min(s[1], s[3]) < top
            ]
            assert len(partitions) >= 2

    def test_determinism(self):
        for label in ClassLabel:
            a = generate_scene(label, np.random.default_rng(7))
            b = generate_scene(label, np.random.default_rng(7))
            assert np.array_equal(a.segments, b.segments)

    def test_shell_and_extent_invariants(self):
        for seed in range(25):
            for label in ClassLabel:
                scene = generate_scene(label, np.random.default_rng([seed, 5]))
                assert scene.segments.shape[0] >= 4
                x0, y0, x1, y1 = scene.extent
                assert max(x1 - x0, y1 - y0) <= 60.0
                xs = np.concatenate([scene.segments[:, 0], scene.segments[:, 2]])
                ys = np.concatenate([scene.segments[:, 1], scene.segments[:, 3]])
                assert xs.min() >= x0 and xs.max() <= x1
                assert ys.min() >= y0 and ys.max() <= y1

    def test_scene_freezes_a_float64_copy_and_takes_a_list(self):
        segs = np.array([[0, 0, 1, 0], [1, 0, 1, 1]])
        scene = Scene(segments=segs, label=ClassLabel.corridor, extent=(0.0, 0.0, 1.0, 1.0))
        assert segs.flags.writeable and not np.shares_memory(scene.segments, segs)
        assert scene.segments.dtype == np.float64 and not scene.segments.flags.writeable
        listed = Scene(segments=segs.tolist(), label=ClassLabel.corridor, extent=scene.extent)
        assert np.array_equal(listed.segments, segs) and not listed.segments.flags.writeable

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (1, 2, 4)])
    def test_segments_not_shaped_s_by_4_raise(self, shape):
        with pytest.raises(DimensionError, match=r"\(S, 4\)"):
            Scene(segments=np.zeros(shape), label=ClassLabel.corridor, extent=(0.0, 0.0, 1.0, 1.0))


class TestSimulateScan:
    def test_centered_square_perpendicular_beams(self):
        scene = _square_room(10.0)
        pose = SensorPose(x=0.0, y=0.0, heading=0.0)
        scan = simulate_scan(scene, pose)
        assert scan.shape == (NUM_BEAMS,) and scan.dtype == np.float64 and not scan.flags.writeable
        # beams at -90, 0, +90 relative to heading hit walls perpendicular
        assert scan[45] == pytest.approx(5.0, abs=1e-9)
        assert scan[135] == pytest.approx(5.0, abs=1e-9)
        assert scan[225] == pytest.approx(5.0, abs=1e-9)

    def test_zero_noise_matches_cast_ray(self):
        scene = generate_scene(ClassLabel.restroom, np.random.default_rng(11))
        x0, y0, x1, y1 = scene.spawn_region
        pose = SensorPose(x=(x0 + x1) / 2, y=(y0 + y1) / 2, heading=0.3)
        scan = simulate_scan(scene, pose)
        for k in (0, 70, 135, 200, 270):
            angle = pose.heading + math.radians(-135.0 + k)
            d = (math.cos(angle), math.sin(angle))
            assert scan[k] == pytest.approx(
                cast_ray(scene, (pose.x, pose.y), d), abs=1e-9
            )

    def test_noise_mean_absolute_deviation(self):
        # half-normal mean of |N(0, 0.01)| is 0.01 * sqrt(2/pi) ~ 0.008
        scene = _square_room(8.0)
        pose = SensorPose(x=0.2, y=-0.1, heading=0.7)
        clean = simulate_scan(scene, pose)
        noisy = simulate_scan(
            scene, pose, noise_sigma=0.01, rng=np.random.default_rng(5)
        )
        mad = float(np.mean(np.abs(noisy - clean)))
        assert 0.004 <= mad <= 0.012

    def test_pose_outside_free_space(self):
        scene = _square_room(10.0)
        with pytest.raises(InvalidPoseError):
            simulate_scan(scene, SensorPose(x=25.0, y=0.0, heading=0.0))

    @staticmethod
    def _scan(noise_sigma):
        scene = generate_scene(ClassLabel.shared_space, np.random.default_rng(31))
        x0, y0, x1, y1 = scene.spawn_region
        pose = SensorPose(x=(x0 + x1) / 2, y=(y0 + y1) / 2, heading=0.4)
        return simulate_scan(scene, pose, noise_sigma, np.random.default_rng(9))

    @pytest.mark.parametrize("sigma", [-0.5, math.nan, math.inf])
    def test_noise_sigma_outside_its_domain_raises(self, sigma):
        with pytest.raises(ValueError, match="noise_sigma"):
            self._scan(sigma)

    @pytest.mark.parametrize("sigma, digest", [
        (0.0, "00ebbce5efc2131ce0ea3989549c3a075a6d3cca24c91963908922d7077efb36"),
        (0.01, "7ad0fc00cf6a5effa9cf819a90a7063a4c029b0c424361dbf14e02ae8804a882"),
    ])
    def test_noise_sigma_in_its_domain_keeps_the_scan_bits(self, sigma, digest):
        assert hashlib.sha256(self._scan(sigma).tobytes()).hexdigest() == digest


class TestGenerateDataset:
    def test_one_row_per_class(self):
        ds = generate_dataset(SimConfig.uniform(1, seed=42))
        assert len(ds) == 4
        assert ds.y.tolist() == list(ClassLabel)

    def test_byte_identical_across_runs(self):
        config = SimConfig.uniform(3, seed=42)
        first, second = io.StringIO(), io.StringIO()
        write_dataset(generate_dataset(config), first)
        write_dataset(generate_dataset(config), second)
        assert first.getvalue() == second.getvalue()

    def test_counts(self, synth400):
        summary = summarize(synth400)
        assert all(summary.counts[label] == 100 for label in ClassLabel)

    def test_heights_on_meter_grid(self):
        ds = generate_dataset(SimConfig.uniform(10, seed=3))
        assert np.all(np.isin(ds.heights, (0.0, 1.0, 2.0, 3.0)))

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            generate_dataset(SimConfig.uniform(0, seed=1))

    def test_every_row_pose_checked(self, monkeypatch):
        def outside(scene, rng):
            return SensorPose(x=scene.extent[2] + 1.0, y=0.0, heading=0.0)

        monkeypatch.setattr(simulate, "sample_pose", outside)
        with pytest.raises(InvalidPoseError):
            generate_dataset(SimConfig.uniform(1, seed=2))

    def test_total_counts_only_class_labels(self):
        config = SimConfig(per_class={ClassLabel.restroom: 2, ClassLabel.corridor: 1}, seed=4)
        assert generate_dataset(config).y.tolist() == [0, 2, 2]

    @pytest.mark.parametrize("fields, digest", [
        ({"seed": 42}, "a5ac2c580d901df60b3145997df46308c97ccc6335eb5a85d8bc27152781f82e"),
        ({"seed": 7}, "61e95c82c9815a373251505b3b6aa9d82184fbaf88ee60ee8394d324db260438"),
        ({"seed": 42, "noise_sigma": 0.0},
         "81c88ac58d2369375602bc3d9f8a602fa564d364a5a33730277fbe03db77186c"),
    ], ids=["seed42", "seed7", "seed42-noiseless"])
    def test_golden_fingerprints(self, fields, digest):
        assert dataset_fingerprint(generate_dataset(SimConfig.uniform(100, **fields))) == digest

    def test_pose_after_rejected_draws_is_free(self):
        # row 361 is a shared space whose spawn region is under 1% free at
        # margin 0.2, with an occupied centre
        config = SimConfig.uniform(100, seed=1_000_517)
        assert len(generate_dataset(config)) == 400
        rng = np.random.default_rng([config.seed, 361])
        scene = generate_scene(ClassLabel.shared_space, rng)
        pose = sample_pose(scene, rng)
        x0, y0, x1, y1 = scene.spawn_region
        assert not simulate.pose_in_free_space(scene, (x0 + x1) / 2, (y0 + y1) / 2)
        assert simulate.pose_in_free_space(scene, pose.x, pose.y, margin=0.2)


class TestFallbackSpot:
    @staticmethod
    def _boxed(obstacles, half=0.1):
        return Scene(segments=_square_room(10.0).segments, label=ClassLabel.restroom,
                     extent=(-5.0, -5.0, 5.0, 5.0), obstacles=obstacles,
                     spawn_region=(-half, -half, half, half))

    def test_free_centre_is_kept(self):
        # every spot is within 0.2 of a box, but the centre is 0.12 from both
        scene = self._boxed(((-5.0, -5.0, -0.12, 5.0), (0.12, -5.0, 5.0, 5.0)))
        pose = sample_pose(scene, np.random.default_rng(0))
        assert (pose.x, pose.y) == (0.0, 0.0)

    def test_grid_spot_nearest_the_occupied_centre(self):
        # free at margin 0.2 above y = 0.2; the 64 x 64 grid's step is 2/63
        scene = self._boxed(((-5.0, -5.0, 5.0, 0.0),), half=1.0)
        x, y = simulate._fallback_spot(scene)
        assert simulate.pose_in_free_space(scene, x, y, margin=0.2)
        assert (x, y) == pytest.approx((-1 / 63, -1 + 38 * 2 / 63))

    def test_no_free_spot_raises(self):
        scene = self._boxed(((-5.0, -5.0, 5.0, 0.0),))
        with pytest.raises(InvalidPoseError, match="restroom scene's spawn region .* no free spot"):
            sample_pose(scene, np.random.default_rng(0))


def scalar_shared_space(rng):
    """The shared-space grammar as four scalar uniform draws per cluster."""
    def rect(x0, y0, x1, y1):
        return [[x0, y0, x1, y0], [x1, y0, x1, y1], [x1, y1, x0, y1], [x0, y1, x0, y0]]

    sx = rng.uniform(10.0, 20.0)
    sy = rng.uniform(10.0, 20.0)
    segs = rect(0.0, 0.0, sx, sy)
    obstacles = []
    for _ in range(rng.integers(5, 16)):
        w = rng.uniform(0.5, 2.0)
        h = rng.uniform(0.5, 2.0)
        x0 = rng.uniform(0.5, sx - w - 0.5)
        y0 = rng.uniform(0.5, sy - h - 0.5)
        segs.extend(rect(x0, y0, x0 + w, y0 + h))
        obstacles.append((x0, y0, x0 + w, y0 + h))
    return np.array(segs), tuple(obstacles), (sx * 0.35, sy * 0.35, sx * 0.65, sy * 0.65)


class TestDrawsKept:
    def test_shared_space_equals_the_scalar_draws(self):
        for k in range(500):
            rng, oracle = np.random.default_rng([77, k]), np.random.default_rng([77, k])
            scene = generate_scene(ClassLabel.shared_space, rng)
            segments, obstacles, spawn = scalar_shared_space(oracle)
            assert scene.segments.tobytes() == segments.tobytes()
            assert (scene.obstacles, scene.spawn_region) == (obstacles, spawn)
            assert rng.random() == oracle.random()

    def test_height_equals_a_choice_of_the_steps(self):
        scene = _square_room()  # its whole spawn region is free: one draw of x and y
        x0, y0, x1, y1 = scene.spawn_region
        heights = []
        for k in range(300):
            rng, oracle = np.random.default_rng([78, k]), np.random.default_rng([78, k])
            pose = sample_pose(scene, rng)
            x, y = oracle.uniform(x0, x1), oracle.uniform(y0, y1)
            heading = oracle.integers(0, 4) * (math.pi / 2.0) + oracle.uniform(
                -math.pi / 90.0, math.pi / 90.0)
            expected = SensorPose(x, y, heading, float(oracle.choice(simulate.HEIGHT_STEPS_M)))
            assert pose == expected and rng.random() == oracle.random()
            heights.append(pose.height_m)
        assert set(heights) == set(simulate.HEIGHT_STEPS_M)


def scalar_dataset(config):
    """The per-row composition generate_dataset must reproduce: substream
    (seed, i), then generate_scene, sample_pose and simulate_scan."""
    scans, labels, heights = [], [], []
    for label in ClassLabel:
        for _ in range(config.per_class.get(label, 0)):
            rng = np.random.default_rng([config.seed, len(scans)])
            scene = generate_scene(label, rng)
            pose = sample_pose(scene, rng)
            scans.append(simulate_scan(scene, pose, config.noise_sigma, rng))
            labels.append(label)
            heights.append(pose.height_m)
    return np.stack(scans), np.array(labels, dtype=np.int64), np.array(heights)


def assert_same_bytes(dataset, expected):
    X, y, heights = expected
    assert dataset.X.tobytes() == X.tobytes()
    assert dataset.y.tobytes() == y.tobytes()
    assert dataset.heights.tobytes() == heights.tobytes()


class TestBlockCasting:
    @pytest.mark.parametrize("per_class", [1, 7, 100])
    @pytest.mark.parametrize("noise", [True, False])
    def test_equals_row_by_row_simulation(self, per_class, noise):
        config = SimConfig.uniform(per_class, seed=per_class + 30,
                                   noise_sigma=0.01 if noise else 0.0)
        assert_same_bytes(generate_dataset(config), scalar_dataset(config))

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**40 + 5, 2**64 + 3])
    def test_seeds_of_several_words_key_the_same_substreams(self, seed):
        # a seed of 2**32 or more is more than one 32-bit word of entropy
        config = SimConfig.uniform(3, seed=seed)
        assert_same_bytes(generate_dataset(config), scalar_dataset(config))

    @pytest.mark.parametrize("budget", [1, NUM_BEAMS * 60, CAST_BLOCK_ELEMENTS, 2**20])
    def test_blocks_are_bounded_and_do_not_change_bits(self, budget, monkeypatch):
        # CAST_BLOCK_ELEMENTS bounds the (row, beam) elements of each block
        # generate_dataset casts and the (beam, segment) pairs of each chunk
        # cast_rays tests
        config = SimConfig.uniform(7, seed=8)
        expected = scalar_dataset(config)
        blocks, chunks = [], []

        def spy_cast(segments, origin, directions):
            blocks.append(len(origin))
            return cast_rays(segments, origin, directions)

        def spy_chunk(nearest, beam, *pairs):
            chunks.append(len(beam))
            return lower_to_hits(nearest, beam, *pairs)

        lower_to_hits = simulate._lower_to_hits
        monkeypatch.setattr(simulate, "cast_rays", spy_cast)
        monkeypatch.setattr(simulate, "_lower_to_hits", spy_chunk)
        monkeypatch.setattr(simulate, "CAST_BLOCK_ELEMENTS", budget)
        assert_same_bytes(generate_dataset(config), expected)
        assert sum(blocks) == 28
        assert all(rows == 1 or rows * NUM_BEAMS <= budget for rows in blocks)
        assert max(chunks) <= budget
        if budget == 1:
            assert len(blocks) == 28 and set(chunks) == {1}
        if budget == 2**20:
            assert len(blocks) == 1


class TestSimConfig:
    @pytest.mark.parametrize(
        "fields, named",
        [
            ({"per_class": {"corridor": 3}}, "per_class keys"),
            ({"per_class": {0: 3}}, "per_class keys"),
            ({"per_class": [3, 3, 3, 3]}, "per_class"),
            ({"per_class": {ClassLabel.corridor: 2.0}}, r"per_class\[corridor\]"),
            ({"per_class": {ClassLabel.staircase: True}}, r"per_class\[staircase\]"),
            ({"per_class": {ClassLabel.restroom: -1}}, r"per_class\[restroom\]"),
            ({"seed": -1}, "seed"),
            ({"seed": 1.0}, "seed"),
            ({"seed": True}, "seed"),
            ({"noise_sigma": math.nan}, "noise_sigma"),
            ({"noise_sigma": math.inf}, "noise_sigma"),
            ({"noise_sigma": -0.01}, "noise_sigma"),
            ({"noise_sigma": "0.01"}, "noise_sigma"),
        ],
    )
    def test_bad_field_rejected_by_name(self, fields, named):
        with pytest.raises(ValueError, match=named):
            SimConfig(**{"per_class": {ClassLabel.corridor: 1}, **fields})

    def test_valid_fields_accepted(self):
        config = SimConfig({ClassLabel.corridor: 0, ClassLabel.restroom: 2}, seed=0,
                           noise_sigma=0)
        assert config.per_class[ClassLabel.restroom] == 2
