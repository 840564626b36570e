import io
import math

import numpy as np
import pytest

from placescan.core import ClassLabel, NUM_BEAMS
from placescan.dataset_io import summarize, write_dataset
from placescan.errors import InvalidPoseError
from placescan.simulate import (
    Scene,
    SensorPose,
    SimConfig,
    cast_ray,
    cast_rays,
    generate_dataset,
    generate_scene,
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


class TestSimulateScan:
    def test_centered_square_perpendicular_beams(self):
        scene = _square_room(10.0)
        pose = SensorPose(x=0.0, y=0.0, heading=0.0)
        scan = simulate_scan(scene, pose)
        # beams at -90, 0, +90 relative to heading hit walls perpendicular
        assert scan.ranges[45] == pytest.approx(5.0, abs=1e-9)
        assert scan.ranges[135] == pytest.approx(5.0, abs=1e-9)
        assert scan.ranges[225] == pytest.approx(5.0, abs=1e-9)

    def test_zero_noise_matches_cast_ray(self):
        scene = generate_scene(ClassLabel.restroom, np.random.default_rng(11))
        x0, y0, x1, y1 = scene.spawn_region
        pose = SensorPose(x=(x0 + x1) / 2, y=(y0 + y1) / 2, heading=0.3)
        scan = simulate_scan(scene, pose)
        for k in (0, 70, 135, 200, 270):
            angle = pose.heading + math.radians(-135.0 + k)
            d = (math.cos(angle), math.sin(angle))
            assert scan.ranges[k] == pytest.approx(
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
        mad = float(np.mean(np.abs(noisy.ranges - clean.ranges)))
        assert 0.004 <= mad <= 0.012

    def test_pose_outside_free_space(self):
        scene = _square_room(10.0)
        with pytest.raises(InvalidPoseError):
            simulate_scan(scene, SensorPose(x=25.0, y=0.0, heading=0.0))


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
