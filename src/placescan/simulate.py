"""Seeded synthetic scene generator and exact 2D ray-casting sensor model.

Each place category gets a parametric scene grammar: a closed rectangular
shell plus class-specific clutter segments. Scenes are immutable segment
soups; scans are produced by intersecting 271 beams with the segments and
keeping the nearest hit, clipped to the sensor envelope.

`cast_rays` takes segments (..., S, 4), origins (..., 2) and directions
(..., R, 2) and returns ranges (..., R), over any shared leading batch axes;
a plain scene is the case with none. A segment row of NaN hits nothing, so
scenes with fewer segments are NaN-padded to share a block.
`cast_rays` culls conservatively: it tests a segment only against the beams
inside the arc the segment spans seen from the origin, widened by
`CULL_MARGIN_RAD` at each end; a segment nearly in line with the origin, or
of zero length, is tested against every beam. Every culled pair is a miss
of the exact test, so the ranges keep the bits of testing every pair.
`generate_dataset` casts its rows in blocks of consecutive rows, and each
row gets the same bits as `simulate_scan` would give it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    BEAM_ANGLES_DEG,
    MAX_RANGE_M,
    MIN_RANGE_M,
    NUM_BEAMS,
    NUM_CLASSES,
    ClassLabel,
    Dataset,
    validate_scan,
)
from .errors import DimensionError, InvalidPoseError
from .hyperparams import NATURAL, NON_NEGATIVE, SEED

HEIGHT_STEPS_M = (0.0, 1.0, 2.0, 3.0)
_BEAM_ANGLES_RAD = np.radians(np.asarray(BEAM_ANGLES_DEG))
# cast_rays tests at most this many (beam, segment) pairs at once, and
# generate_dataset casts blocks of at most this many (row, beam) elements,
# so each of their temporaries stays at 256 KiB whatever the dataset's size
CAST_BLOCK_ELEMENTS = 2**15
# Where a segment's triangle with the origin is not flat (see _arcs), the
# rounding of arctan2 and of the exact test's u moves the end of an arc by
# at most about 5 eps / FLAT_TRIANGLE, 1e-10 rad: a thousandth of the margin
CULL_MARGIN_RAD = 1e-7
FLAT_TRIANGLE = 1e-5


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
        segments = np.array(self.segments, dtype=np.float64)  # the caller's stays writable
        if segments.shape[1:] != (4,):
            raise DimensionError(f"scene segments must be shaped (S, 4), got {segments.shape}")
        segments.setflags(write=False)
        object.__setattr__(self, "segments", segments)


@dataclass(frozen=True)
class SensorPose:
    x: float
    y: float
    heading: float
    height_m: float = 0.0


@dataclass(frozen=True)
class SimConfig:
    """Per-class row counts, seed and range-noise sigma (0: none) for dataset synthesis."""

    per_class: dict[ClassLabel, int]
    seed: int = 42
    noise_sigma: float = 0.01

    def __post_init__(self):
        if not isinstance(self.per_class, dict):
            raise ValueError(f"per_class must be a dict, got {self.per_class!r}")
        for label, count in self.per_class.items():
            if not isinstance(label, ClassLabel):
                raise ValueError(f"per_class keys must be ClassLabel members, got {label!r}")
            NATURAL.check(f"per_class[{label.name}]", count)
        SEED.check("seed", self.seed)
        NON_NEGATIVE.check("noise_sigma", self.noise_sigma)

    @classmethod
    def uniform(cls, count: int, **kwargs) -> "SimConfig":
        return cls(per_class={label: count for label in ClassLabel}, **kwargs)


def _rect(x0: float, y0: float, x1: float, y1: float) -> list[float]:
    """A box's four edges, counter-clockwise from (x0, y0)."""
    return [x0, y0, x1, y0, x1, y0, x1, y1, x1, y1, x0, y1, x0, y1, x0, y0]


def _wall_with_recesses(x0, x1, y, starts, width, depth):
    """Horizontal wall from (x0,y) to (x1,y) with rectangular door recesses.

    `starts` are the recesses' ascending starts along x, each `width` wide;
    `depth` is signed (the recess pocket opens away from the room interior).
    """
    segs = []
    cursor = x0
    for start in starts:
        start = max(start, cursor)
        end = min(start + width, x1)
        if end <= start:
            continue
        segs += (cursor, y, start, y, start, y, start, y + depth)
        segs += (start, y + depth, end, y + depth, end, y + depth, end, y)
        cursor = end
    segs += (cursor, y, x1, y)
    return segs


# Each grammar returns its segments as flat x1,y1,x2,y2 coordinates, then
# its obstacles and its spawn region.
def _corridor(rng: np.random.Generator):
    width = rng.uniform(1.5, 3.0)
    length = rng.uniform(10.0, 40.0)
    depth = 0.15
    segs = [0.0, 0.0, 0.0, width, length, 0.0, length, width]
    for y, sign in ((0.0, -1.0), (width, 1.0)):
        # n uniform draws in one call: the doubles of n scalar calls
        starts = rng.uniform(0.5, length - 1.5, rng.integers(1, 4)).tolist()
        segs += _wall_with_recesses(0.0, length, y, sorted(starts), 0.9, sign * depth)
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
            segs += (0.0, y, width * 0.55, y)
        else:
            segs += (width * 0.45, y, width, y)
        y += tread
        step += 1
    # handrail posts flanking the step run
    for x in (0.12, width - 0.12):
        py = landing
        while py <= landing + run:
            segs += (x - 0.02, py, x + 0.02, py)
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
        segs += (x, sy, x, sy - stall_depth)
        x += 1.2
    # wall-mounted sink boxes along the bottom wall
    n_sinks = rng.integers(1, 4)
    sink_x = rng.uniform(0.3, max(0.4, sx - 1.2))
    for _ in range(n_sinks):
        if sink_x + 0.6 > sx - 0.2:
            break
        segs += (sink_x, 0.0, sink_x, 0.45, sink_x, 0.45, sink_x + 0.6, 0.45)
        segs += (sink_x + 0.6, 0.45, sink_x + 0.6, 0.0)
        sink_x += rng.uniform(0.8, 1.4)
    obstacles = ((0.0, sy - stall_depth - 0.1, sx, sy), (0.0, 0.0, sx, 0.55))
    spawn = (sx * 0.35, max(0.8, (sy - stall_depth) * 0.35), sx * 0.65, (sy - stall_depth) * 0.65)
    return segs, obstacles, spawn


def _shared_space(rng: np.random.Generator):
    sx = rng.uniform(10.0, 20.0)
    sy = rng.uniform(10.0, 20.0)
    segs = _rect(0.0, 0.0, sx, sy)
    obstacles = []
    # each cluster's w, h, x0 and y0 in turn, from one array of draws, as
    # numpy's uniform(a, b) draws them: a + (b - a) * random()
    for uw, uh, ux, uy in rng.random((rng.integers(5, 16), 4)).tolist():
        w = 0.5 + 1.5 * uw
        h = 0.5 + 1.5 * uh
        x0 = 0.5 + ((sx - w - 0.5) - 0.5) * ux
        y0 = 0.5 + ((sy - h - 0.5) - 0.5) * uy
        segs += _rect(x0, y0, x0 + w, y0 + h)
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
    segments = np.asarray(segs, dtype=np.float64).reshape(-1, 4)
    lo, hi = segments.min(axis=0).tolist(), segments.max(axis=0).tolist()
    extent = (min(lo[0], lo[2]), min(lo[1], lo[3]), max(hi[0], hi[2]), max(hi[1], hi[3]))
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
    envelope; 30.0 where nothing is hit.

    Shapes (..., S, 4), (..., 2) and (..., R, 2) give (..., R); a NaN
    segment row is a miss for every beam.

    A beam can only hit a segment inside the arc of angles the segment spans
    seen from the origin, so only the beams in that arc, widened by
    `CULL_MARGIN_RAD` at each end, are tested against it: see `_arcs`. The
    test itself is the exact one for every pair, at most
    `CAST_BLOCK_ELEMENTS` pairs at a time, and the nearest hit is a `min`,
    so the result has the bits a test of every pair would give.
    """
    batch = np.broadcast_shapes(segments.shape[:-2], origin.shape[:-1], directions.shape[:-2])
    rows, n_segments, n_beams = math.prod(batch), segments.shape[-2], directions.shape[-2]
    segments = np.broadcast_to(segments, batch + (n_segments, 4)).reshape(rows, n_segments, 4)
    origin = np.broadcast_to(origin, batch + (2,)).reshape(rows, 2)
    directions = np.broadcast_to(directions, batch + (n_beams, 2)).reshape(rows, n_beams, 2)
    p = segments[..., 0:2]
    e = segments[..., 2:4] - p
    rel = p - origin[:, None, :]
    rx, ry, ex, ey = rel[..., 0], rel[..., 1], e[..., 0], e[..., 1]
    num_t = rx * ey - ry * ex  # depends on the segment only
    beam, segment = _candidates(*_arcs(rel, e, num_t), directions)
    dx, dy = directions[..., 0].ravel(), directions[..., 1].ravel()
    rx, ry, ex, ey, num_t = (a.ravel() for a in (rx, ry, ex, ey, num_t))
    nearest = np.full(rows * n_beams, np.inf)
    for start in range(0, len(beam), CAST_BLOCK_ELEMENTS):
        b = beam[start : start + CAST_BLOCK_ELEMENTS]
        s = segment[start : start + CAST_BLOCK_ELEMENTS]
        _lower_to_hits(nearest, b, dx[b], dy[b], rx[s], ry[s], ex[s], ey[s], num_t[s])
    nearest = np.where(np.isfinite(nearest), nearest, MAX_RANGE_M)
    return np.clip(nearest, MIN_RANGE_M, MAX_RANGE_M).reshape(batch + (n_beams,))


def _arcs(rel: np.ndarray, e: np.ndarray, num_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each segment's arc [lo, hi] of the beam angles that can hit it,
    (rows, S) each: lo <= pi and hi <= lo + 2 pi, an arc past pi going on
    from -pi, and none at all where hi < lo.

    The arc runs between the angles of the segment's two endpoints seen from
    the origin, the smaller way round, widened by `CULL_MARGIN_RAD` at each
    end. A segment whose triangle with the origin is flat (|num_t|, twice
    its area, at most `FLAT_TRIANGLE` times its longest side squared: the
    origin on or near the segment's line, which also takes in an arc within
    a hair of pi, or a zero-length segment) gets the whole circle. A segment
    with a NaN num_t gets no arc: every one of its t is NaN.
    """
    far = rel + e
    longest = np.maximum(np.maximum((rel**2).sum(-1), (e**2).sum(-1)), (far**2).sum(-1))
    flat = ~(np.abs(num_t) > FLAT_TRIANGLE * longest)
    start = np.arctan2(rel[..., 1], rel[..., 0])
    turn = np.arctan2(far[..., 1], far[..., 0]) - start
    turn = np.remainder(turn + math.pi, 2 * math.pi) - math.pi  # the smaller way round
    lo = start + np.minimum(turn, 0.0) - CULL_MARGIN_RAD
    lo = np.where(lo <= -math.pi, lo + 2 * math.pi, lo)
    hi = lo + (np.abs(turn) + 2 * CULL_MARGIN_RAD)
    lo[flat], hi[flat] = -math.pi, math.pi
    empty = np.isnan(num_t)
    lo[empty], hi[empty] = 4.0, -4.0
    return lo, hi


def _candidates(
    lo: np.ndarray, hi: np.ndarray, directions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flat (beam, segment) indices of every beam whose angle lies in the
    segment's arc, over (rows, S) arcs and (rows, R, 2) directions."""
    rows, n_segments = lo.shape
    # beam angles in [-pi, pi]; a NaN beam hits nothing and is parked at 4,
    # past every arc; row j's keys lie in 8j + [-pi, 4], so one sort orders
    # every row, and rounding the sums keeps each arc's beams inside it
    angle = np.arctan2(directions[..., 1], directions[..., 0])
    angle[np.isnan(angle)] = 4.0
    offset = 8.0 * np.arange(rows)[:, None]
    key = (angle + offset).ravel()
    order = np.argsort(key, kind="stable")
    key = key[order]
    # an arc is the run [lo, min(hi, pi)], plus [-pi, hi - 2 pi] once it
    # wraps past pi; that second run is empty otherwise
    starts = np.searchsorted(key, (np.stack([lo, np.full_like(lo, -math.pi)]) + offset).ravel())
    stops = np.searchsorted(
        key, (np.stack([np.minimum(hi, math.pi), hi - 2 * math.pi]) + offset).ravel(), "right"
    )
    counts = np.maximum(stops - starts, 0)
    ends = np.cumsum(counts)
    beam = order[np.repeat(starts - (ends - counts), counts) + np.arange(counts.sum())]
    segment = np.repeat(np.tile(np.arange(rows * n_segments), 2), counts)
    return beam, segment


def _lower_to_hits(nearest, beam, dx, dy, rx, ry, ex, ey, num_t) -> None:
    """Lower `nearest[beam]` to the hit distance of each pair that hits."""
    denom = dx * ey - dy * ex
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        u = (rx * dy - ry * dx) / denom
        t = num_t / denom
        hit = (np.abs(denom) > 1e-12) & (t > 1e-9) & (u >= 0.0) & (u <= 1.0)
    np.minimum.at(nearest, beam[hit], t[hit])


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
) -> np.ndarray:
    """The pose's 271 beam ranges as `validate_scan` returns them: cast from
    the pose, plus optional additive Gaussian range noise, re-clipped to the
    sensor envelope."""
    NON_NEGATIVE.check("noise_sigma", noise_sigma)
    _check_pose(scene, pose)
    ranges = cast_rays(
        scene.segments, np.array([pose.x, pose.y]), _beam_directions(pose.heading)
    )
    if noise_sigma > 0.0:
        if rng is None:
            raise ValueError("noise_sigma > 0 requires an rng")
        ranges = ranges + rng.normal(0.0, noise_sigma, size=NUM_BEAMS)
    return validate_scan(ranges)


def _check_pose(scene: Scene, pose: SensorPose) -> None:
    if not pose_in_free_space(scene, pose.x, pose.y):
        raise InvalidPoseError(
            f"pose ({pose.x:.3f}, {pose.y:.3f}) lies outside the scene's free space"
        )


def _beam_directions(heading: float | np.ndarray) -> np.ndarray:
    """Unit vectors of the beams of a heading (271, 2), or of an array of
    headings (..., 271, 2): cos and sin act element by element, so a row's
    bits do not depend on the array it is cast with."""
    angles = np.asarray(heading)[..., None] + _BEAM_ANGLES_RAD
    return np.stack([np.cos(angles), np.sin(angles)], axis=-1)


def sample_pose(scene: Scene, rng: np.random.Generator) -> SensorPose:
    """Uniform pose over the spawn region, rejecting occupied spots; after
    200 rejected draws, `_fallback_spot`."""
    x0, y0, x1, y1 = scene.spawn_region
    for _ in range(200):
        x = rng.uniform(x0, x1)
        y = rng.uniform(y0, y1)
        if pose_in_free_space(scene, x, y, margin=0.2):
            break
    else:
        x, y = _fallback_spot(scene)
    # surveying convention: the sensor faces one of the room's cardinal
    # directions, with a small aiming jitter
    heading = rng.integers(0, 4) * (math.pi / 2.0) + rng.uniform(
        -math.pi / 90.0, math.pi / 90.0
    )
    height = HEIGHT_STEPS_M[rng.integers(0, 4)]
    return SensorPose(x=x, y=y, heading=heading, height_m=height)


def _fallback_spot(scene: Scene) -> tuple[float, float]:
    """The spawn region's centre if it is free, else the point of a 64 x 64
    grid over the region nearest the centre that is free at sample_pose's
    margin; InvalidPoseError if no grid point is."""
    x0, y0, x1, y1 = scene.spawn_region
    x, y = (x0 + x1) / 2.0, (y0 + y1) / 2.0
    if pose_in_free_space(scene, x, y):
        return x, y
    xs, ys = np.meshgrid(np.linspace(x0, x1, 64), np.linspace(y0, y1, 64))
    nearest_first = np.argsort(np.hypot(xs - x, ys - y), axis=None, kind="stable")
    for gx, gy in zip(xs.ravel()[nearest_first].tolist(), ys.ravel()[nearest_first].tolist()):
        if pose_in_free_space(scene, gx, gy, margin=0.2):
            return gx, gy
    raise InvalidPoseError(
        f"the {scene.label.name} scene's spawn region {scene.spawn_region} has no free spot"
    )


def generate_dataset(config: SimConfig) -> Dataset:
    """Synthesize a dataset: fresh scene, pose and height per row.

    Every row draws from an independent substream keyed by (seed, row
    index), so the output is reproducible regardless of generation order.
    Row i equals `simulate_scan` of that substream's scene and pose, bit
    for bit; the rays are cast in blocks of consecutive rows, each scene
    NaN-padded to the block's largest.
    """
    counts = [config.per_class.get(label, 0) for label in ClassLabel]
    total = sum(counts)
    if total < 1:
        raise ValueError("total row count must be at least 1")
    y = np.repeat(np.arange(NUM_CLASSES), counts)
    X = np.zeros((total, NUM_BEAMS))  # each row's noise, later plus its hits
    heights = np.empty(total)
    segments_of: list[np.ndarray] = []
    poses = np.empty((total, 3))  # x, y, heading
    # the entropy SeedSequence makes of [seed, i]: the seed's little-endian
    # 32-bit words, then i; each generator mixes it in when it is made, so
    # one buffer serves every row
    words = range(0, max(config.seed.bit_length(), 1), 32)
    entropy = np.array([(config.seed >> b) & 0xFFFFFFFF for b in words] + [0], dtype=np.uint32)
    for i, label in enumerate(y.tolist()):
        entropy[-1] = i
        rng = np.random.default_rng(entropy)
        scene = generate_scene(ClassLabel(label), rng)
        pose = sample_pose(scene, rng)
        _check_pose(scene, pose)
        if config.noise_sigma > 0.0:
            X[i] = rng.normal(0.0, config.noise_sigma, size=NUM_BEAMS)
        segments_of.append(scene.segments)
        poses[i] = pose.x, pose.y, pose.heading
        heights[i] = pose.height_m

    block = max(1, CAST_BLOCK_ELEMENTS // NUM_BEAMS)
    for start in range(0, total, block):
        rows = slice(start, start + block)
        scenes = segments_of[rows]
        segments = np.full((len(scenes), max(map(len, scenes)), 4), np.nan)
        for j, scene_segments in enumerate(scenes):
            segments[j, : len(scene_segments)] = scene_segments
        hits = cast_rays(segments, poses[rows, :2], _beam_directions(poses[rows, 2]))
        X[rows] += hits  # noise + hits == hits + noise
    return Dataset._adopt(X, y, heights)
