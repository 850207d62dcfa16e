"""Synthetic ground-truth scenes and GT-derived BEV feature rendering.

A scene holds lane centerlines (201 ordered 3D points each, inside the
x [-50, 50] / y [-25, 25] m working area), real/virtual flags, the lane
adjacency matrix, and road-level SD map polylines. Scenes are generated
deterministically from a seed and round-trip losslessly through JSON.

BEV features are rendered from the ground truth itself (occupancy, local
tangent, a per-lane ordinal hash, optional Gaussian noise), standing in for
a camera-based encoder so the rest of the pipeline stays testable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bev import BevGrid, GridSpec
from .config import N_SEMANTIC_TYPES, X_MAX, X_MIN, Y_MAX, Y_MIN, PipelineConfig
from .geometry import Polyline, resample_polyline
from .sdmap import SdMapInstance, trace_cells

GT_POINTS = 201
ADJACENCY_GAP = 0.5  # max end-to-start distance for a generated edge, meters
# radius range of an arc road, meters; below 60 m an arc leaves the working area
ARC_RADIUS_RANGE = (150.0, 600.0)
SD_POINTS = 15  # points per SD map polyline
SCENE_SCHEMA_VERSION = 1
_NOISE_STREAM = 0xBEF


@dataclass
class Scene:
    """Ground-truth container for one synthetic frame."""

    centerlines: list[Polyline]
    is_real: list[bool]
    adjacency: np.ndarray
    sd_instances: list[SdMapInstance]
    seed: int

    def __post_init__(self):
        n = len(self.centerlines)
        self.adjacency = np.asarray(self.adjacency, dtype=np.int64).reshape(n, n)
        if len(self.is_real) != n:
            raise ValueError("need one is_real flag per centerline")

    @property
    def n_lanes(self) -> int:
        return len(self.centerlines)


@dataclass
class SceneParams:
    """Knobs for the scene generator; ``ARC_RADIUS_RANGE`` and ``SD_POINTS`` are fixed."""

    n_lanes: int = 3
    lane_spacing: float = 3.5
    intersections: int = 1

    def __post_init__(self):
        if self.n_lanes < 1:
            raise ValueError("need at least one lane")
        if self.intersections not in (0, 1):
            raise ValueError("intersections must be 0 or 1")
        if not self.lane_spacing > 0:
            raise ValueError("lane spacing must be positive")
        if self.n_lanes * self.lane_spacing > 18.0:
            raise ValueError("lane stack too wide for the working area")


def validate_scene(scene: Scene) -> None:
    """Raise if any structural scene invariant is broken."""
    n = scene.n_lanes
    if scene.adjacency.shape != (n, n):
        raise ValueError("adjacency shape mismatch")
    if not np.isin(scene.adjacency, (0, 1)).all():
        raise ValueError("adjacency entries must be 0 or 1")
    for idx, lane in enumerate(scene.centerlines):
        if len(lane) != GT_POINTS:
            raise ValueError(f"lane {idx} has {len(lane)} points, expected {GT_POINTS}")
        x, y = lane.pts[:, 0], lane.pts[:, 1]
        if x.min() < X_MIN or x.max() > X_MAX or y.min() < Y_MIN or y.max() > Y_MAX:
            raise ValueError(f"lane {idx} leaves the working area")
    src, dst = np.nonzero(scene.adjacency)
    for i, j in zip(src, dst):
        gap = np.linalg.norm(scene.centerlines[i].pts[-1] - scene.centerlines[j].pts[0])
        if gap >= ADJACENCY_GAP:
            raise ValueError(f"edge {i}->{j} endpoints are {gap:.3f} m apart")


def _max_offset(params: SceneParams) -> float:
    return (params.n_lanes - 1) / 2.0 * params.lane_spacing


def _base_curve(rng: np.random.Generator, x_lo, x_hi, params: SceneParams):
    """Reference path y(x) plus its derivative, bounded inside the area."""
    style = rng.choice(["straight", "arc", "clothoid"])
    y_room = 15.5 - _max_offset(params)
    y0 = float(rng.uniform(-y_room, y_room))
    xm = 0.5 * (x_lo + x_hi)
    if style == "straight":
        slope = float(rng.uniform(-0.08, 0.08))
        return style, lambda x: y0 + slope * (x - xm), lambda x: np.full_like(x, slope)
    if style == "arc":
        radius = float(rng.uniform(*ARC_RADIUS_RANGE))
        sign = float(rng.choice([-1.0, 1.0]))

        def f(x):
            return y0 + sign * (radius - np.sqrt(radius**2 - (x - xm) ** 2))

        def df(x):
            return sign * (x - xm) / np.sqrt(radius**2 - (x - xm) ** 2)

        return style, f, df
    a = float(rng.uniform(-0.003, 0.003))
    b = float(rng.uniform(-6e-5, 6e-5))

    def f(x):
        return y0 + 0.5 * a * (x - xm) ** 2 + (b / 6.0) * (x - xm) ** 3

    def df(x):
        return a * (x - xm) + 0.5 * b * (x - xm) ** 2

    return style, f, df


def _lane_points(f, df, x_lo, x_hi, offset, grade, n_dense=400) -> np.ndarray:
    """Offset the reference path along its normal and attach a z grade."""
    x = np.linspace(x_lo, x_hi, n_dense)
    y = f(x)
    d = df(x)
    norm = np.sqrt(1.0 + d**2)
    px = x + offset * (-d / norm)
    py = y + offset * (1.0 / norm)
    pz = grade * (x - x_lo)
    return np.stack([px, py, pz], axis=-1)


def _hermite(p0, t0, p1, t1, n=80) -> np.ndarray:
    """Cubic Hermite curve from p0 (tangent t0) to p1 (tangent t1)."""
    s = np.linspace(0.0, 1.0, n)[:, None]
    h00 = 2 * s**3 - 3 * s**2 + 1
    h10 = s**3 - 2 * s**2 + s
    h01 = -2 * s**3 + 3 * s**2
    h11 = s**3 - s**2
    return h00 * p0 + h10 * t0 + h01 * p1 + h11 * t1


def _group_lanes(rng, x_lo, x_hi, params: SceneParams):
    _, f, df = _base_curve(rng, x_lo, x_hi, params)
    grade = float(rng.uniform(-0.004, 0.004))
    offsets = (np.arange(params.n_lanes) - (params.n_lanes - 1) / 2.0) * params.lane_spacing
    lanes = [
        resample_polyline(Polyline(_lane_points(f, df, x_lo, x_hi, off, grade)), GT_POINTS)
        for off in offsets
    ]
    sd_x = np.linspace(x_lo, x_hi, SD_POINTS)
    sd_pts = np.stack([sd_x, f(sd_x), np.zeros_like(sd_x)], axis=-1)
    return lanes, Polyline(sd_pts)


def synth_scene(seed: int, params: SceneParams | None = None) -> Scene:
    """Deterministic synthetic scene for the given seed.

    Zero intersections gives one group of parallel lanes and no virtual
    centerlines; one intersection gives two groups bridged by virtual
    connectors, with adjacency edges following endpoint continuity.
    """
    params = params or SceneParams()
    rng = np.random.default_rng(seed)
    # normal offsets also displace x on curved roads; widen the margin with the stack
    margin = 2.0 + 0.35 * _max_offset(params)
    if params.intersections == 0:
        lanes, sd = _group_lanes(rng, X_MIN + margin, X_MAX - margin, params)
        n = len(lanes)
        scene = Scene(
            centerlines=lanes,
            is_real=[True] * n,
            adjacency=np.zeros((n, n), dtype=np.int64),
            sd_instances=[SdMapInstance(sd, int(rng.integers(1, N_SEMANTIC_TYPES + 1)))],
            seed=seed,
        )
        validate_scene(scene)
        return scene

    half_gap = 8.0
    left, sd_left = _group_lanes(rng, X_MIN + margin, -half_gap, params)
    right, sd_right = _group_lanes(rng, half_gap, X_MAX - margin, params)
    n_side = params.n_lanes
    pairs = [(i, i) for i in range(n_side)]
    if n_side > 1 and rng.random() < 0.5:
        i = int(rng.integers(0, n_side - 1))
        pairs.append((i, i + 1) if rng.random() < 0.5 else (i + 1, i))

    connectors = []
    edges = []
    n_real = 2 * n_side
    for li, rj in pairs:
        p0 = left[li].pts[-1]
        p1 = right[rj].pts[0]
        t0 = left[li].pts[-1] - left[li].pts[-2]
        t1 = right[rj].pts[1] - right[rj].pts[0]
        span = float(np.linalg.norm(p1 - p0))
        t0 = t0 / np.linalg.norm(t0) * span
        t1 = t1 / np.linalg.norm(t1) * span
        # resampling anchors endpoints, so junction continuity stays exact
        conn = resample_polyline(Polyline(_hermite(p0, t0, p1, t1)), GT_POINTS)
        k = n_real + len(connectors)
        connectors.append(conn)
        edges.append((li, k))
        edges.append((k, n_side + rj))

    lanes = left + right + connectors
    n = len(lanes)
    adjacency = np.zeros((n, n), dtype=np.int64)
    for i, j in edges:
        adjacency[i, j] = 1
    junction = Polyline(
        np.stack(
            [
                sd_left.pts[-1],
                0.5 * (sd_left.pts[-1] + sd_right.pts[0]),
                sd_right.pts[0],
            ]
        )
    )
    sd_instances = [
        SdMapInstance(sd_left, int(rng.integers(1, N_SEMANTIC_TYPES + 1))),
        SdMapInstance(sd_right, int(rng.integers(1, N_SEMANTIC_TYPES + 1))),
        SdMapInstance(junction, int(rng.integers(1, N_SEMANTIC_TYPES + 1))),
    ]
    scene = Scene(
        centerlines=lanes,
        is_real=[True] * n_real + [False] * len(connectors),
        adjacency=adjacency,
        sd_instances=sd_instances,
        seed=seed,
    )
    validate_scene(scene)
    return scene


# --- GT rasterization -------------------------------------------------------


_NEIGHBORS = np.array([(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)])


def _lane_trace(lane: Polyline, spec: GridSpec):
    """Segment index, row and column of every cell of the lane's supercover
    trace with one-cell 8-neighborhood dilation, clipped to the grid after
    dilating, in segment order (cells repeat)."""
    seg, row, col = trace_cells(lane, spec)
    rr = (row[:, None] + _NEIGHBORS[:, 0]).ravel()
    cc = (col[:, None] + _NEIGHBORS[:, 1]).ravel()
    inside = (rr >= 0) & (rr < spec.h) & (cc >= 0) & (cc < spec.w)
    return np.repeat(seg, len(_NEIGHBORS))[inside], rr[inside], cc[inside]


def lane_cells(lane: Polyline, spec: GridSpec) -> set[tuple[int, int]]:
    """Supercover cells of a lane with one-cell dilation."""
    _, row, col = _lane_trace(lane, spec)
    return set(zip(row.tolist(), col.tolist()))


def render_gt_masks(scene: Scene, spec: GridSpec) -> np.ndarray:
    """Binary instance masks (n_lanes, h, w) from dilated supercover tracing."""
    masks = np.zeros((scene.n_lanes, spec.h, spec.w), dtype=np.float64)
    for i, lane in enumerate(scene.centerlines):
        _, row, col = _lane_trace(lane, spec)
        masks[i, row, col] = 1.0
    return masks


def render_bev_features(scene: Scene, cfg: PipelineConfig) -> BevGrid:
    """GT-derived BEV features: occupancy, tangent sin/cos, lane ordinal hash.

    Real lanes write all four bands over their dilated supercover cells; a
    cell takes the tangent of the first lane, and within it the first
    segment of nonzero length, that reaches it. Virtual lanes only add a weak
    0.2 occupancy where no real lane claims the cell. Remaining channels stay
    zero. i.i.d. Gaussian noise with std ``cfg.noise_sigma`` is added to every
    channel, seeded deterministically from the scene seed.
    """
    spec = cfg.grid
    c = cfg.channels
    if c < 4:
        raise ValueError("feature rendering needs at least 4 channels")
    data = np.zeros((spec.h, spec.w, c), dtype=np.float64)
    claimed = np.zeros((spec.h, spec.w), dtype=bool)
    virtual = np.zeros((spec.h, spec.w), dtype=bool)
    ordinal = 0
    for lane, real in zip(scene.centerlines, scene.is_real):
        seg, row, col = _lane_trace(lane, spec)
        if not real:
            virtual[row, col] = True
            continue
        step = np.diff(lane.pts[:, :2], axis=0)
        # rounds as the 1-D np.linalg.norm of each step does; norm(axis=1) does not
        norm = np.sqrt(np.vecdot(step, step))
        moves = np.flatnonzero(norm[seg] != 0.0)
        # seg ascends, so the first occurrence of a cell is its lowest segment
        _, first = np.unique(row[moves] * spec.w + col[moves], return_index=True)
        first = moves[first]
        first = first[~claimed[row[first], col[first]]]
        seg, row, col = seg[first], row[first], col[first]
        claimed[row, col] = True
        data[row, col, 0] = 1.0
        data[row, col, 1:3] = step[seg] / norm[seg, None]
        data[row, col, 3] = (ordinal * 0.6180339887498949) % 1.0
        ordinal += 1
    data[virtual & ~claimed, 0] = 0.2
    if cfg.noise_sigma > 0.0:
        rng = np.random.default_rng(np.random.SeedSequence([scene.seed, _NOISE_STREAM]))
        data = data + rng.normal(0.0, cfg.noise_sigma, size=data.shape)
    return BevGrid(data, spec)


# --- JSON schema -------------------------------------------------------------


def scene_to_dict(scene: Scene) -> dict:
    return {
        "schema_version": SCENE_SCHEMA_VERSION,
        "kind": "lanetopo-scene",
        "units": "meters",
        "seed": scene.seed,
        "bounds": {"x_min": X_MIN, "x_max": X_MAX, "y_min": Y_MIN, "y_max": Y_MAX},
        "centerlines": [
            {"is_real": bool(r), "points": lane.pts.tolist()}
            for lane, r in zip(scene.centerlines, scene.is_real)
        ],
        "adjacency": scene.adjacency.tolist(),
        "sd_instances": [
            {"semantic_type": inst.semantic_type, "points": inst.polyline.pts.tolist()}
            for inst in scene.sd_instances
        ],
    }


def _integral(value, field: str) -> int:
    """A whole JSON number as an int, or a ValueError naming ``field``."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return int(value)


def _sd_type(value, field: str) -> int:
    """An SD semantic type id in 1..N_SEMANTIC_TYPES, or a ValueError naming ``field``."""
    t = _integral(value, field)
    if not 1 <= t <= N_SEMANTIC_TYPES:
        raise ValueError(f"{field} must be in 1..{N_SEMANTIC_TYPES}, got {t}")
    return t


def _flag(value, field: str) -> bool:
    """A JSON boolean, or a ValueError naming ``field``."""
    if not isinstance(value, bool):
        raise ValueError(f"{field} must be true or false")
    return value


def _adjacency_from_doc(raw) -> np.ndarray:
    """The adjacency as int64, checked to hold only 0 and 1 before the cast."""
    adjacency = np.asarray(raw)
    if adjacency.dtype.kind not in "biuf":
        raise ValueError("adjacency must hold numbers")
    if not np.isin(adjacency, (0, 1)).all():
        raise ValueError("adjacency entries must be 0 or 1")
    return adjacency.astype(np.int64)


def _objects(d: dict, key: str) -> list[dict]:
    """``d[key]``, checked to be a list of objects."""
    entries = d[key]
    if not isinstance(entries, list):
        raise ValueError(f"{key} must be a list, got {type(entries).__name__}")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"{key}[{i}] must be an object, got {type(entry).__name__}")
    return entries


def _polyline(raw, field: str) -> Polyline:
    """A document's point list as a Polyline, or a ValueError naming ``field``."""
    try:
        return Polyline(np.array(raw))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{field}.points: {exc}") from None


def scene_from_dict(d: dict) -> Scene:
    """A scene from its document. Raw values are checked before any cast, and
    a malformed document or a missing key raises one ValueError."""
    if (
        not isinstance(d, dict)
        or d.get("schema_version") != SCENE_SCHEMA_VERSION
        or d.get("kind") != "lanetopo-scene"
    ):
        raise ValueError("not a recognized scene document")
    try:
        lanes, sd = _objects(d, "centerlines"), _objects(d, "sd_instances")
        scene = Scene(
            centerlines=[_polyline(c["points"], f"centerlines[{i}]") for i, c in enumerate(lanes)],
            is_real=[_flag(c["is_real"], f"centerlines[{i}].is_real") for i, c in enumerate(lanes)],
            adjacency=_adjacency_from_doc(d["adjacency"]),
            sd_instances=[
                SdMapInstance(
                    _polyline(s["points"], f"sd_instances[{i}]"),
                    _sd_type(s["semantic_type"], f"sd_instances[{i}].semantic_type"),
                )
                for i, s in enumerate(sd)
            ],
            seed=_integral(d["seed"], "seed"),
        )
    except KeyError as exc:
        raise ValueError(f"scene document lacks key {exc.args[0]!r}") from None
    validate_scene(scene)
    return scene


def dump_scene_json(scene: Scene) -> str:
    return json.dumps(scene_to_dict(scene), indent=1, sort_keys=True) + "\n"


def save_scene(scene: Scene, path: str | Path) -> None:
    Path(path).write_text(dump_scene_json(scene))


def load_scene(path: str | Path) -> Scene:
    return scene_from_dict(json.loads(Path(path).read_text()))


# --- BEV feature binary container --------------------------------------------

_BEV_HEADER_BYTES = 12  # h, w, c as little-endian int32


def save_bev(grid: BevGrid, path: str | Path) -> None:
    """Binary container: header h, w, c (little-endian int32), then row-major
    little-endian float64 payload."""
    with open(path, "wb") as fh:
        fh.write(np.array([grid.h, grid.w, grid.c], dtype="<i4").tobytes())
        fh.write(np.ascontiguousarray(grid.data, dtype="<f8").tobytes())


def load_bev(path: str | Path, spec: GridSpec) -> BevGrid:
    """Read a :func:`save_bev` container; a short header, non-positive dims or a
    payload of the wrong length raise one ValueError."""
    raw = Path(path).read_bytes()
    if len(raw) < _BEV_HEADER_BYTES:
        raise ValueError(
            f"BEV file has {len(raw)} bytes, fewer than the {_BEV_HEADER_BYTES}-byte header"
        )
    h, w, c = (int(v) for v in np.frombuffer(raw[:_BEV_HEADER_BYTES], dtype="<i4"))
    if min(h, w, c) < 1:
        raise ValueError(f"BEV header dims must be positive, got {h}x{w}x{c}")
    expected = h * w * c * 8
    actual = len(raw) - _BEV_HEADER_BYTES
    if actual != expected:
        raise ValueError(
            f"BEV payload for {h}x{w}x{c} must be {expected} bytes, got {actual} bytes"
        )
    data = np.frombuffer(raw[_BEV_HEADER_BYTES:], dtype="<f8").reshape(h, w, c).astype(np.float64)
    if (h, w) != (spec.h, spec.w):
        raise ValueError(f"BEV file is {h}x{w}, grid spec expects {spec.h}x{spec.w}")
    return BevGrid(data, spec)
