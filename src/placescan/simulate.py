"""Seeded synthetic scene generator and exact 2D ray-casting sensor model.

Each place category gets a parametric scene grammar: a closed rectangular
shell plus class-specific clutter segments. Scenes are immutable segment
soups; scans are produced by intersecting 271 beams with every segment and
keeping the nearest hit, clipped to the sensor envelope.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    BEAM_ANGLES_DEG,
    MAX_RANGE_M,
    MIN_RANGE_M,
    NUM_BEAMS,
    ClassLabel,
    Dataset,
    Scan,
    validate_scan,
)
from .errors import InvalidPoseError

HEIGHT_STEPS_M = (0.0, 1.0, 2.0, 3.0)


@dataclass(frozen=True)
class Scene:
    """2D segment soup with a class label.

    `segments` is an (S, 4) array of x1,y1,x2,y2 endpoints in meters.
    `obstacles` are axis-aligned clutter footprints (x0,y0,x1,y1) used only
    to keep sensor poses out of occupied space; `spawn_region` is the rect
    poses are drawn from.
    """

    segments: np.ndarray
    label: ClassLabel
    extent: tuple[float, float, float, float]
    obstacles: tuple[tuple[float, float, float, float], ...] = ()
    spawn_region: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)

    def __post_init__(self):
        self.segments.setflags(write=False)


@dataclass(frozen=True)
class SensorPose:
    x: float
    y: float
    heading: float
    height_m: float = 0.0


@dataclass(frozen=True)
class SimConfig:
    """Per-class row counts and noise settings for dataset synthesis."""

    per_class: dict[ClassLabel, int]
    seed: int = 42
    noise_sigma: float = 0.01
    noise: bool = True

    def __post_init__(self):
        if any(count < 0 for count in self.per_class.values()):
            raise ValueError("per-class counts must be non-negative")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")

    @classmethod
    def uniform(cls, count: int, **kwargs) -> "SimConfig":
        return cls(per_class={label: count for label in ClassLabel}, **kwargs)


def _rect(x0: float, y0: float, x1: float, y1: float) -> list[list[float]]:
    return [
        [x0, y0, x1, y0],
        [x1, y0, x1, y1],
        [x1, y1, x0, y1],
        [x0, y1, x0, y0],
    ]


def _wall_with_recesses(x0, x1, y, recesses, depth):
    """Horizontal wall from (x0,y) to (x1,y) with rectangular door recesses.

    `recesses` is a list of (start, width) along x; `depth` is signed (the
    recess pocket opens away from the room interior).
    """
    segs = []
    cursor = x0
    for start, width in sorted(recesses):
        start = max(start, cursor)
        end = min(start + width, x1)
        if end <= start:
            continue
        segs.append([cursor, y, start, y])
        segs.append([start, y, start, y + depth])
        segs.append([start, y + depth, end, y + depth])
        segs.append([end, y + depth, end, y])
        cursor = end
    segs.append([cursor, y, x1, y])
    return segs


def _corridor(rng: np.random.Generator):
    width = rng.uniform(1.5, 3.0)
    length = rng.uniform(10.0, 40.0)
    depth = 0.15
    segs = [
        [0.0, 0.0, 0.0, width],
        [length, 0.0, length, width],
    ]
    for y, sign in ((0.0, -1.0), (width, 1.0)):
        n_doors = rng.integers(1, 4)
        recesses = [
            (rng.uniform(0.5, length - 1.5), 0.9) for _ in range(n_doors)
        ]
        segs.extend(_wall_with_recesses(0.0, length, y, recesses, sign * depth))
    spawn = (length * 0.3, width * 0.35, length * 0.7, width * 0.65)
    return segs, (), spawn


def _staircase(rng: np.random.Generator):
    width = rng.uniform(1.4, 2.4)
    length = rng.uniform(6.0, 12.0)
    landing = rng.uniform(1.8, 3.2)
    tread = 0.3
    run = min(rng.uniform(2.0, 4.0), length - landing - 0.3)
    segs = _rect(0.0, 0.0, width, length)
    # step edges span alternating halves of the width, so beams slip past
    # each edge and the scan sees the regular 0.3 m depth pattern
    y = landing
    step = 0
    while y <= landing + run:
        if step % 2 == 0:
            segs.append([0.0, y, width * 0.55, y])
        else:
            segs.append([width * 0.45, y, width, y])
        y += tread
        step += 1
    # handrail posts flanking the step run
    for x in (0.12, width - 0.12):
        py = landing
        while py <= landing + run:
            segs.append([x - 0.02, py, x + 0.02, py])
            py += 0.6
    obstacles = ((0.0, landing - 0.1, width, length),)
    spawn = (0.25, 0.4, width - 0.25, landing - 0.35)
    return segs, obstacles, spawn


def _restroom(rng: np.random.Generator):
    sx = rng.uniform(3.0, 6.0)
    sy = rng.uniform(3.0, 6.0)
    stall_depth = min(1.5, sy * 0.4)
    segs = _rect(0.0, 0.0, sx, sy)
    # stall partitions hang from the top wall at ~1.2 m pitch
    x = rng.uniform(0.2, 0.5)
    while x < sx - 0.4:
        segs.append([x, sy, x, sy - stall_depth])
        x += 1.2
    # wall-mounted sink boxes along the bottom wall
    n_sinks = rng.integers(1, 4)
    sink_x = rng.uniform(0.3, max(0.4, sx - 1.2))
    for _ in range(n_sinks):
        if sink_x + 0.6 > sx - 0.2:
            break
        segs.extend(
            [
                [sink_x, 0.0, sink_x, 0.45],
                [sink_x, 0.45, sink_x + 0.6, 0.45],
                [sink_x + 0.6, 0.45, sink_x + 0.6, 0.0],
            ]
        )
        sink_x += rng.uniform(0.8, 1.4)
    obstacles = ((0.0, sy - stall_depth - 0.1, sx, sy), (0.0, 0.0, sx, 0.55))
    spawn = (sx * 0.35, max(0.8, (sy - stall_depth) * 0.35), sx * 0.65, (sy - stall_depth) * 0.65)
    return segs, obstacles, spawn


def _shared_space(rng: np.random.Generator):
    sx = rng.uniform(10.0, 20.0)
    sy = rng.uniform(10.0, 20.0)
    segs = _rect(0.0, 0.0, sx, sy)
    obstacles = []
    n_clusters = rng.integers(5, 16)
    for _ in range(n_clusters):
        w = rng.uniform(0.5, 2.0)
        h = rng.uniform(0.5, 2.0)
        x0 = rng.uniform(0.5, sx - w - 0.5)
        y0 = rng.uniform(0.5, sy - h - 0.5)
        segs.extend(_rect(x0, y0, x0 + w, y0 + h))
        obstacles.append((x0, y0, x0 + w, y0 + h))
    spawn = (sx * 0.35, sy * 0.35, sx * 0.65, sy * 0.65)
    return segs, tuple(obstacles), spawn


_GRAMMARS = {
    ClassLabel.corridor: _corridor,
    ClassLabel.staircase: _staircase,
    ClassLabel.restroom: _restroom,
    ClassLabel.shared_space: _shared_space,
}


def generate_scene(label: ClassLabel, rng: np.random.Generator) -> Scene:
    """Draw one scene from the class grammar; all randomness comes from rng."""
    segs, obstacles, spawn = _GRAMMARS[label](rng)
    segments = np.asarray(segs, dtype=np.float64)
    xs = np.concatenate([segments[:, 0], segments[:, 2]])
    ys = np.concatenate([segments[:, 1], segments[:, 3]])
    extent = (float(xs.min()), float(ys.min()), float(xs.max()), float(ys.max()))
    return Scene(
        segments=segments,
        label=label,
        extent=extent,
        obstacles=obstacles,
        spawn_region=spawn,
    )


def cast_rays(
    segments: np.ndarray, origin: np.ndarray, directions: np.ndarray
) -> np.ndarray:
    """Nearest ray-segment hit distance per direction, clipped to the sensor
    envelope; 30.0 where nothing is hit."""
    if segments.shape[0] == 0:
        return np.full(directions.shape[0], MAX_RANGE_M)
    p = segments[:, 0:2]
    e = segments[:, 2:4] - p
    rel = p - origin[None, :]
    # cross products; beams on axis 0, segments on axis 1
    denom = directions[:, 0:1] * e[None, :, 1] - directions[:, 1:2] * e[None, :, 0]
    num_t = rel[None, :, 0] * e[None, :, 1] - rel[None, :, 1] * e[None, :, 0]
    num_u = (
        rel[None, :, 0] * directions[:, 1:2]
        - rel[None, :, 1] * directions[:, 0:1]
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        t = num_t / denom
        u = num_u / denom
    hit = (np.abs(denom) > 1e-12) & (t > 1e-9) & (u >= 0.0) & (u <= 1.0)
    t = np.where(hit, t, np.inf)
    nearest = t.min(axis=1)
    nearest = np.where(np.isfinite(nearest), nearest, MAX_RANGE_M)
    return np.clip(nearest, MIN_RANGE_M, MAX_RANGE_M)


def cast_ray(scene: Scene, origin, direction) -> float:
    """Single-beam convenience wrapper around cast_rays."""
    direction = np.asarray(direction, dtype=np.float64)
    norm = float(np.hypot(direction[0], direction[1]))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"direction must be unit length, |d| = {norm}")
    return float(
        cast_rays(
            scene.segments,
            np.asarray(origin, dtype=np.float64),
            direction[None, :],
        )[0]
    )


def pose_in_free_space(scene: Scene, x: float, y: float, margin: float = 0.05) -> bool:
    x0, y0, x1, y1 = scene.extent
    if not (x0 + margin < x < x1 - margin and y0 + margin < y < y1 - margin):
        return False
    for ox0, oy0, ox1, oy1 in scene.obstacles:
        if ox0 - margin < x < ox1 + margin and oy0 - margin < y < oy1 + margin:
            return False
    return True


def simulate_scan(
    scene: Scene,
    pose: SensorPose,
    noise_sigma: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> Scan:
    """Cast all 271 beams from the pose; optional additive Gaussian range
    noise, re-clipped to the sensor envelope."""
    if not pose_in_free_space(scene, pose.x, pose.y):
        raise InvalidPoseError(
            f"pose ({pose.x:.3f}, {pose.y:.3f}) lies outside the scene's free space"
        )
    angles = pose.heading + np.radians(np.asarray(BEAM_ANGLES_DEG))
    directions = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    ranges = cast_rays(
        scene.segments, np.array([pose.x, pose.y]), directions
    )
    if noise_sigma > 0.0:
        if rng is None:
            raise ValueError("noise_sigma > 0 requires an rng")
        ranges = ranges + rng.normal(0.0, noise_sigma, size=NUM_BEAMS)
    return validate_scan(ranges, height_m=pose.height_m)


def sample_pose(scene: Scene, rng: np.random.Generator) -> SensorPose:
    """Uniform pose over the spawn region, rejecting occupied spots."""
    x0, y0, x1, y1 = scene.spawn_region
    x, y = (x0 + x1) / 2.0, (y0 + y1) / 2.0
    for _ in range(200):
        cx = rng.uniform(x0, x1)
        cy = rng.uniform(y0, y1)
        if pose_in_free_space(scene, cx, cy, margin=0.2):
            x, y = cx, cy
            break
    # surveying convention: the sensor faces one of the room's cardinal
    # directions, with a small aiming jitter
    heading = rng.integers(0, 4) * (math.pi / 2.0) + rng.uniform(
        -math.pi / 90.0, math.pi / 90.0
    )
    height = float(rng.choice(HEIGHT_STEPS_M))
    return SensorPose(x=x, y=y, heading=heading, height_m=height)


def generate_dataset(config: SimConfig) -> Dataset:
    """Synthesize a dataset: fresh scene, pose and height per row.

    Every row draws from an independent substream keyed by (seed, row
    index), so the output is reproducible regardless of generation order.
    """
    total = sum(config.per_class.values())
    if total < 1:
        raise ValueError("total row count must be at least 1")
    sigma = config.noise_sigma if config.noise else 0.0
    scans: list[Scan] = []
    labels: list[ClassLabel] = []
    for label in ClassLabel:
        for _ in range(config.per_class.get(label, 0)):
            rng = np.random.default_rng([config.seed, len(scans)])
            scene = generate_scene(label, rng)
            pose = sample_pose(scene, rng)
            scans.append(simulate_scan(scene, pose, noise_sigma=sigma, rng=rng))
            labels.append(label)
    return Dataset(
        X=np.stack([scan.ranges for scan in scans]),
        y=np.array(labels, dtype=np.int64),
        heights=np.array([scan.height_m for scan in scans]),
        provenance=f"synthetic seed={config.seed}",
    )
