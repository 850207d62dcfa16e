"""The array grid tracer against the scalar per-segment code it replaced.

The references below are the earlier per-segment, per-crossing and per-cell
Python loops for the supercover trace, the one-cell dilation, the BEV
feature render, the SD raster, the mask-point targets and the mask IoU. The
array versions must reproduce them bit for bit (``np.array_equal``).
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lanetopo.bev import GridSpec, sigmoid
from lanetopo.config import N_SEMANTIC_TYPES, PipelineConfig
from lanetopo.geometry import Polyline, integer_crossings
from lanetopo.losses import mask_point_targets
from lanetopo.metrics import mask_iou, mask_iou_matrix
from lanetopo.points_mask import AXIS_COLUMNS, AXIS_ROWS
from lanetopo.scene import (
    _NOISE_STREAM,
    Scene,
    SceneParams,
    lane_cells,
    render_bev_features,
    render_gt_masks,
    synth_scene,
)
from lanetopo.sdmap import SdMapInstance, rasterize_sdmap, supercover_cells

# --- scalar references ---------------------------------------------------------


def ref_segment_cells(u0: float, v0: float, u1: float, v1: float) -> list[tuple[int, int]]:
    """All (row, col) cells a segment passes through: cut at every integer u
    and v crossing, each piece to the cell holding its midpoint."""
    ts = [0.0, 1.0]
    du, dv = u1 - u0, v1 - v0
    if du != 0.0:
        lo, hi = sorted((u0, u1))
        for kk in range(int(np.ceil(lo)), int(np.floor(hi)) + 1):
            t = (kk - u0) / du
            if 0.0 < t < 1.0:
                ts.append(t)
    if dv != 0.0:
        lo, hi = sorted((v0, v1))
        for kk in range(int(np.ceil(lo)), int(np.floor(hi)) + 1):
            t = (kk - v0) / dv
            if 0.0 < t < 1.0:
                ts.append(t)
    ts = sorted(set(ts))
    cells = []
    for a, bnd in zip(ts[:-1], ts[1:]):
        tm = 0.5 * (a + bnd)
        cells.append((int(np.floor(v0 + tm * dv)), int(np.floor(u0 + tm * du))))
    return cells


def ref_uv(poly: Polyline, spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    u = (poly.pts[:, 0] - spec.x_min) / spec.resolution
    v = (poly.pts[:, 1] - spec.y_min) / spec.resolution
    return u, v


def ref_supercover(poly: Polyline, spec: GridSpec) -> np.ndarray:
    u, v = ref_uv(poly, spec)
    seen: set[tuple[int, int]] = set()
    out: list[tuple[int, int]] = []
    for i in range(len(poly) - 1):
        for r, c in ref_segment_cells(u[i], v[i], u[i + 1], v[i + 1]):
            if 0 <= r < spec.h and 0 <= c < spec.w and (r, c) not in seen:
                seen.add((r, c))
                out.append((r, c))
    return np.array(out, dtype=np.int64).reshape(-1, 2)


def ref_dilate(cells: set[tuple[int, int]], h: int, w: int) -> set[tuple[int, int]]:
    out = set()
    for r, c in cells:
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                rr, cc = r + dr, c + dc
                if 0 <= rr < h and 0 <= cc < w:
                    out.add((rr, cc))
    return out


def ref_lane_cells(lane: Polyline, spec: GridSpec) -> set[tuple[int, int]]:
    return ref_dilate({tuple(rc) for rc in ref_supercover(lane, spec)}, spec.h, spec.w)


def ref_gt_masks(scene: Scene, spec: GridSpec) -> np.ndarray:
    masks = np.zeros((scene.n_lanes, spec.h, spec.w), dtype=np.float64)
    for i, lane in enumerate(scene.centerlines):
        for r, c in ref_lane_cells(lane, spec):
            masks[i, r, c] = 1.0
    return masks


def ref_bev_features(scene: Scene, cfg: PipelineConfig) -> np.ndarray:
    """Per-segment first-claim render: real lanes in order, each segment of
    nonzero length claiming its dilated cells; then weak virtual occupancy."""
    spec = cfg.grid
    data = np.zeros((spec.h, spec.w, cfg.channels), dtype=np.float64)
    claimed = np.zeros((spec.h, spec.w), dtype=bool)
    real_indices = [i for i, r in enumerate(scene.is_real) if r]
    for ordinal, i in enumerate(real_indices):
        lane = scene.centerlines[i]
        u, v = ref_uv(lane, spec)
        hash_val = (ordinal * 0.6180339887498949) % 1.0
        for s in range(len(lane) - 1):
            seg = lane.pts[s + 1, :2] - lane.pts[s, :2]
            norm = np.linalg.norm(seg)
            if norm == 0.0:
                continue
            tx, ty = seg / norm
            cells = {
                (r, cc)
                for r, cc in ref_segment_cells(u[s], v[s], u[s + 1], v[s + 1])
                if 0 <= r < spec.h and 0 <= cc < spec.w
            }
            for r, cc in ref_dilate(cells, spec.h, spec.w):
                if not claimed[r, cc]:
                    claimed[r, cc] = True
                    data[r, cc, :4] = (1.0, tx, ty, hash_val)
    for i, real in enumerate(scene.is_real):
        if real:
            continue
        for r, cc in ref_lane_cells(scene.centerlines[i], spec):
            if not claimed[r, cc] and data[r, cc, 0] == 0.0:
                data[r, cc, 0] = 0.2
    if cfg.noise_sigma > 0.0:
        rng = np.random.default_rng(np.random.SeedSequence([scene.seed, _NOISE_STREAM]))
        data = data + rng.normal(0.0, cfg.noise_sigma, size=data.shape)
    return data


def ref_rasterize(instances: list[SdMapInstance], spec: GridSpec, table: np.ndarray) -> np.ndarray:
    claim = np.zeros((spec.h, spec.w), dtype=np.int64)
    for inst in instances:
        for r, c in ref_supercover(inst.polyline, spec):
            if claim[r, c] == 0:
                claim[r, c] = inst.semantic_type
    return table[claim]


def ref_mask_point_targets(gt: Polyline, spec: GridSpec, axis: str):
    rc = spec.metric_to_cell(gt.pts[:, :2])
    if axis == AXIS_COLUMNS:
        main, cross = rc[:, 1], rc[:, 0]
        n_idx, cross_max = spec.w, spec.h - 1
    else:
        main, cross = rc[:, 0], rc[:, 1]
        n_idx, cross_max = spec.h, spec.w - 1
    sums = np.zeros(n_idx)
    counts = np.zeros(n_idx)
    for s in range(len(main) - 1):
        a, b = main[s], main[s + 1]
        if a == b:
            continue
        lo, hi = (a, b) if a < b else (b, a)
        j0 = max(0, int(np.ceil(lo)))
        j1 = min(n_idx - 1, int(np.floor(hi)))
        for j in range(j0, j1 + 1):
            t = (j - a) / (b - a)
            sums[j] += cross[s] + t * (cross[s + 1] - cross[s])
            counts[j] += 1
    exist = (counts > 0).astype(np.float64)
    coords = np.zeros(n_idx)
    hit = counts > 0
    coords[hit] = np.clip(sums[hit] / counts[hit], 0.0, cross_max)
    direction = 1.0 if main[0] < main[-1] else 0.0
    return coords, exist, direction


# --- comparisons -----------------------------------------------------------------


def assert_lane_equal(lane: Polyline, spec: GridSpec) -> None:
    assert np.array_equal(supercover_cells(lane, spec), ref_supercover(lane, spec))
    assert lane_cells(lane, spec) == ref_lane_cells(lane, spec)
    for axis in (AXIS_COLUMNS, AXIS_ROWS):
        got, want = mask_point_targets(lane, spec, axis), ref_mask_point_targets(lane, spec, axis)
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), axis


def assert_scene_equal(scene: Scene, cfg: PipelineConfig) -> None:
    spec = cfg.grid
    masks = render_gt_masks(scene, spec)
    assert np.array_equal(masks, ref_gt_masks(scene, spec))
    for sigma in (0.0, cfg.noise_sigma):
        run = replace(cfg, noise_sigma=sigma)
        got = render_bev_features(scene, run).data
        assert np.array_equal(got, ref_bev_features(scene, run)), sigma
    table = np.random.default_rng(0).normal(size=(N_SEMANTIC_TYPES + 1, cfg.channels))
    assert np.array_equal(
        rasterize_sdmap(scene.sd_instances, spec, table).data,
        ref_rasterize(scene.sd_instances, spec, table),
    )
    for inst in scene.sd_instances:
        assert np.array_equal(
            supercover_cells(inst.polyline, spec), ref_supercover(inst.polyline, spec)
        )


SHAPES = {
    "1-lane": SceneParams(n_lanes=1, intersections=0),
    "2-lanes-intersection": SceneParams(n_lanes=2, intersections=1),
    "5-lanes-intersection": SceneParams(n_lanes=5, intersections=1),
}
GRIDS = {"desk": PipelineConfig.desk(), "default": PipelineConfig(channels=16, heads=8)}


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("shape", SHAPES)
def test_scene_sweep_matches_references(shape, grid):
    cfg = GRIDS[grid]
    for seed in range(4):
        scene = synth_scene(seed, SHAPES[shape])
        assert_scene_equal(scene, cfg)
        for lane in scene.centerlines:
            assert_lane_equal(lane, cfg.grid)


def test_mask_iou_matrix_matches_pairwise():
    rng = np.random.default_rng(3)
    scene = synth_scene(3, SHAPES["5-lanes-intersection"])
    gt = list(render_gt_masks(scene, PipelineConfig.desk().grid))
    logits = [rng.normal(size=gt[0].shape) for _ in range(6)]
    preds = logits + [g * 30.0 - 15.0 for g in gt] + [np.full(gt[0].shape, -15.0)]
    gt = gt + [np.zeros_like(gt[0])]
    want = np.array([[mask_iou(sigmoid(p) >= 0.5, g) for g in gt] for p in preds])
    assert np.array_equal(mask_iou_matrix(preds, gt), want)


# --- edge geometry -----------------------------------------------------------------

# the working area in 4 x 8 cells of 12.5 m, whose four edges the polylines cross
EDGE_CFG = PipelineConfig.desk(resolution=12.5, channels=4)
SMALL = EDGE_CFG.grid
# whole and half cells from two cells before the grid to two cells past it,
# so vertices land on grid lines and on cell centers
HALF = SMALL.resolution / 2
ON_LINES_X = [SMALL.x_min + HALF * k for k in range(-4, 2 * SMALL.w + 5)]
ON_LINES_Y = [SMALL.y_min + HALF * k for k in range(-4, 2 * SMALL.h + 5)]


@st.composite
def edge_polylines(draw) -> Polyline:
    """Polylines whose steps stay put, move along one axis or move freely,
    with coordinates on grid lines or anywhere, inside or outside the grid."""
    coord_x = st.one_of(st.sampled_from(ON_LINES_X), st.floats(ON_LINES_X[0], ON_LINES_X[-1]))
    coord_y = st.one_of(st.sampled_from(ON_LINES_Y), st.floats(ON_LINES_Y[0], ON_LINES_Y[-1]))
    pts = [(draw(coord_x), draw(coord_y))]
    for step in draw(st.lists(st.sampled_from(["stay", "x", "y", "xy"]), min_size=1, max_size=8)):
        x, y = pts[-1]
        pts.append(
            (
                draw(coord_x) if step in ("x", "xy") else x,
                draw(coord_y) if step in ("y", "xy") else y,
            )
        )
    return Polyline(np.array([(x, y, 0.0) for x, y in pts]))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(edge_polylines())
def test_edge_polylines_match_references(lane):
    assert_lane_equal(lane, SMALL)
    for real in (True, False):
        scene = Scene(
            centerlines=[lane, lane.reversed()], is_real=[real, True],
            adjacency=np.zeros((2, 2)), sd_instances=[SdMapInstance(lane, 1)], seed=0,
        )
        assert_scene_equal(scene, EDGE_CFG)


def test_integer_crossings_enumerates_each_segment_in_bounds():
    x = np.array([-2.5, 3.0, 3.0, 0.5, 9.0])
    seg, k, t = integer_crossings(x, 0, 4)
    assert seg.tolist() == [0, 0, 0, 0, 2, 2, 2, 3, 3, 3, 3]
    assert k.tolist() == [0, 1, 2, 3, 1, 2, 3, 1, 2, 3, 4]
    assert np.array_equal(t, (k - x[seg]) / (x[seg + 1] - x[seg]))
    assert t[3] == 1.0 and t[6] == 0.0


def test_far_sd_polyline_is_bounded_by_the_grid():
    spec = PipelineConfig().grid
    far = Polyline(np.array([[-1e9, 3.2, 0.0], [1e9, 3.7, 0.0]]))
    start = time.perf_counter()
    cells = supercover_cells(far, spec)
    assert time.perf_counter() - start < 0.1
    assert len(cells) >= spec.w
    near = Polyline(np.array([[-1e4, 3.2, 0.0], [1e4, 3.7, 0.0]]))
    assert np.array_equal(supercover_cells(near, spec), ref_supercover(near, spec))
