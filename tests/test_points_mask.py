"""Mask queries, mask generation, soft-argmax readouts, and points fusion."""

import numpy as np
import pytest

from lanetopo import bev
from lanetopo.bev import BevGrid, GridSpec, MlpWeights, mlp_forward, sigmoid
from lanetopo.config import PipelineConfig
from lanetopo.geometry import Polyline
from lanetopo.points_mask import (
    AXIS_COLUMNS,
    AXIS_ROWS,
    MaskPointReadout,
    encode_mask_query,
    fuse_points,
    generate_mask,
    predict_direction,
    predict_existence,
    readout_to_metric_points,
    sample_mask_points,
    select_point_set,
)
from lanetopo.weights import MaskHeadWeights


def mask_head(rng, c=4, k=3, h=4, w=5, zero_positional=False) -> MaskHeadWeights:
    def lin(n_out, n_in, zero=False):
        if zero:
            return MlpWeights([(np.zeros((n_out, n_in)), np.zeros(n_out), "none")])
        return MlpWeights([(rng.normal(size=(n_out, n_in)), rng.normal(size=n_out), "none")])

    return MaskHeadWeights(
        point_mlp=lin(c, 3, zero_positional),
        concat_mlp=lin(c, k * c, zero_positional),
        query_mlp=lin(c, c),
        exist_col=lin(w, h * w),
        exist_row=lin(h, h * w),
        dir_col=lin(1, c),
        dir_row=lin(1, c),
    )


class TestEncodeMaskQuery:
    def test_zero_positional_branch_leaves_query_encoding(self):
        rng = np.random.default_rng(0)
        w = mask_head(rng, zero_positional=True)
        q = rng.normal(size=4)
        pts = rng.normal(size=(3, 3))
        out = encode_mask_query(q, pts, w)
        expected = w.query_mlp.layers[0][0] @ q + w.query_mlp.layers[0][1]
        assert np.array_equal(out, expected)

    def test_positional_sensitivity(self):
        rng = np.random.default_rng(1)
        w = mask_head(rng)
        q = rng.normal(size=4)
        a = encode_mask_query(q, rng.normal(size=(3, 3)), w)
        b = encode_mask_query(q, rng.normal(size=(3, 3)), w)
        assert not np.allclose(a, b)

    def test_tiny_dims_oracle(self):
        rng = np.random.default_rng(2)
        c, k = 4, 3
        w = mask_head(rng, c=c, k=k)
        q = rng.normal(size=c)
        pts = rng.normal(size=(k, 3))
        out = encode_mask_query(q, pts, w)
        wp, bp, _ = w.point_mlp.layers[0]
        wc, bc, _ = w.concat_mlp.layers[0]
        wq, bq, _ = w.query_mlp.layers[0]
        per_point = np.concatenate([wp @ p + bp for p in pts])
        expected = (wc @ per_point + bc) + (wq @ q + bq)
        assert np.max(np.abs(out - expected)) < 1e-12


class TestGenerateMask:
    def _grid(self, rng, h=2, w=2, c=4):
        spec = GridSpec(h=h, w=w, x_min=0.0, y_min=0.0, resolution=1.0)
        return BevGrid(rng.normal(size=(h, w, c)), spec)

    def test_zero_query_zero_logits(self):
        g = self._grid(np.random.default_rng(3))
        assert np.array_equal(generate_mask(g, np.zeros(4)), np.zeros((2, 2)))

    def test_one_hot_channel_broadcast(self):
        g = self._grid(np.random.default_rng(4))
        q = np.zeros(4)
        q[2] = 1.0
        assert np.array_equal(generate_mask(g, q), g.data[:, :, 2])

    def test_matches_per_cell_dot_oracle(self):
        rng = np.random.default_rng(5)
        g = self._grid(rng)
        q = rng.normal(size=4)
        m = generate_mask(g, q)
        for r in range(2):
            for c in range(2):
                assert abs(m[r, c] - float(g.data[r, c] @ q)) < 1e-12


class TestSampleMaskPoints:
    def test_uniform_column_center(self):
        m = np.zeros((8, 3))
        coords = sample_mask_points(m, AXIS_COLUMNS)
        assert np.array_equal(coords, np.full(3, 3.5))

    def test_spike_column_matches_direct_oracle(self):
        logits = np.array([0.0, 0.0, 0.0, 10.0, 0.0, 0.0, 0.0, 0.0])
        m = logits[:, None]
        coord = sample_mask_points(np.tile(m, (1, 2)), AXIS_COLUMNS)[0]
        p = np.exp(logits - logits.max())
        p /= p.sum()
        expected = float(np.arange(8) @ p)
        assert abs(coord - expected) < 1e-12
        assert abs(coord - 3.0) < 1e-2

    def test_monotone_logits_bias_downward(self):
        m = np.linspace(0, 5, 8)[:, None] * np.ones((1, 4))
        coords = sample_mask_points(m, AXIS_COLUMNS)
        assert np.all(coords > 3.5)

    def test_rows_axis_symmetric(self):
        rng = np.random.default_rng(6)
        m = rng.normal(size=(5, 7))
        rows = sample_mask_points(m, AXIS_ROWS)
        cols_of_t = sample_mask_points(m.T, AXIS_COLUMNS)
        assert np.allclose(rows, cols_of_t, atol=1e-12)

    def test_shift_invariance_per_column(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(6, 4))
        shifted = m + rng.normal(size=(1, 4))  # constant per column
        assert np.allclose(
            sample_mask_points(m, AXIS_COLUMNS),
            sample_mask_points(shifted, AXIS_COLUMNS),
            atol=1e-9,
        )

    def test_coordinates_in_range(self):
        rng = np.random.default_rng(8)
        m = rng.normal(0, 5, size=(9, 11))
        coords = sample_mask_points(m, AXIS_COLUMNS)
        assert np.all(coords >= 0.0) and np.all(coords <= 8.0)


class TestExistenceDirection:
    def test_zero_weights_give_half(self):
        rng = np.random.default_rng(9)
        h, w_, c = 4, 5, 4
        m = rng.normal(size=(h, w_))
        phi1 = MlpWeights([(np.zeros((w_, h * w_)), np.zeros(w_), "none")])
        assert np.allclose(predict_existence(m, phi1, AXIS_COLUMNS), 0.5)
        phi2 = MlpWeights([(np.zeros((1, c)), np.zeros(1), "none")])
        assert predict_direction(rng.normal(size=c), phi2) == 0.5

    def test_random_case_matches_mlp_sigmoid_oracle(self):
        rng = np.random.default_rng(10)
        h, w_ = 3, 4
        m = rng.normal(size=(h, w_))
        wmat, b = rng.normal(size=(w_, h * w_)), rng.normal(size=w_)
        phi1 = MlpWeights([(wmat, b, "none")])
        out = predict_existence(m, phi1, AXIS_COLUMNS)
        expected = sigmoid(wmat @ m.reshape(-1) + b)
        assert np.max(np.abs(out - expected)) < 1e-12
        assert np.all((out > 0) & (out < 1))

    def test_a_deeper_head_splits_its_first_layer_and_runs_the_rest(self, monkeypatch):
        # every call splits: the first layer's 7 outputs as 4 and 3 columns
        monkeypatch.setattr(bev, "ROW_SPLIT", 1)
        rng = np.random.default_rng(12)
        n, h, w_ = 3, 4, 5
        m = rng.normal(size=(n, h, w_))
        phi1 = MlpWeights([(rng.normal(size=(7, h * w_)), rng.normal(size=7), "relu"),
                           (rng.normal(size=(w_, 7)), rng.normal(size=w_), "none")])
        expected = sigmoid(mlp_forward(phi1, m.reshape(n, -1)))
        out = predict_existence(m, phi1, AXIS_COLUMNS)
        assert np.allclose(out, expected, rtol=0, atol=1e-12)

    def test_dimension_validation(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(3, 4))
        bad = MlpWeights([(rng.normal(size=(3, 12)), np.zeros(3), "none")])
        with pytest.raises(ValueError):
            predict_existence(m, bad, AXIS_COLUMNS)


class TestSelectPointSet:
    def _readout(self, axis, existence):
        n = len(existence)
        return MaskPointReadout(
            axis=axis, coords=np.zeros(n), existence=np.array(existence), direction=1.0
        )

    def test_larger_count_wins(self):
        col = self._readout(AXIS_COLUMNS, [0.9] * 8 + [0.1] * 2)
        row = self._readout(AXIS_ROWS, [0.9] * 3 + [0.1] * 7)
        assert select_point_set(col, row) is col
        row2 = self._readout(AXIS_ROWS, [0.9] * 9 + [0.1])
        assert select_point_set(col, row2) is row2

    def test_tie_prefers_columns(self):
        col = self._readout(AXIS_COLUMNS, [0.9, 0.1])
        row = self._readout(AXIS_ROWS, [0.9, 0.1])
        assert select_point_set(col, row) is col

    def test_matches_count_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            col = self._readout(AXIS_COLUMNS, rng.random(10))
            row = self._readout(AXIS_ROWS, rng.random(6))
            nc = int(np.sum(col.existence > 0.5))
            nr = int(np.sum(row.existence > 0.5))
            picked = select_point_set(col, row)
            assert picked is (row if nr > nc else col)


class TestFusePoints:
    def _grid(self):
        return PipelineConfig().grid

    # span aligned to column centers so readout points coincide with detected x
    X0, X1 = 0.25, 9.75

    def _straight_readout(self, grid, y, x0=X0, x1=X1, direction=1.0):
        # columns readout with the lane at constant metric y over [x0, x1]
        rc = grid.metric_to_cell(np.array([[x0, y], [x1, y]]))
        row = rc[0, 0]
        cols = np.arange(grid.w, dtype=np.float64)
        coords = np.full(grid.w, row)
        exist = ((cols >= rc[0, 1] - 1e-9) & (cols <= rc[1, 1] + 1e-9)).astype(np.float64)
        exist = np.where(exist > 0, 0.99, 0.01)
        return MaskPointReadout(
            axis=AXIS_COLUMNS, coords=coords, existence=exist, direction=direction
        )

    def _detected(self, y, k=11, x0=X0, x1=X1):
        x = np.linspace(x0, x1, k)
        return Polyline(np.stack([x, np.full(k, y), np.linspace(0.3, 0.5, k)], axis=-1))

    def test_identical_mask_is_fixed_point(self):
        grid = self._grid()
        detected = self._detected(5.0)
        readout = self._straight_readout(grid, 5.0)
        refined = fuse_points(detected, readout, grid, 11)
        assert np.max(np.abs(refined.pts - detected.pts)) < 1e-9

    def test_no_valid_points_falls_back(self):
        grid = self._grid()
        detected = self._detected(5.0)
        readout = self._straight_readout(grid, 5.0)
        readout.existence[:] = 0.01
        refined = fuse_points(detected, readout, grid, 11)
        assert refined is detected

    def test_no_points_left_after_the_outlier_rule_falls_back(self):
        grid = self._grid()
        detected = self._detected(5.0)
        readout = self._straight_readout(grid, 5.0)
        # two valid columns 5 m apart: each is the other's only neighbor
        readout.existence[:] = 0.01
        readout.existence[[110, 120]] = 0.99
        metric = readout_to_metric_points(readout, grid)[[110, 120]]
        assert np.linalg.norm(metric[1] - metric[0]) == 5.0
        refined = fuse_points(detected, readout, grid, 11)
        assert refined is detected

    def test_offset_halves(self):
        grid = self._grid()
        detected = self._detected(6.0)  # one meter above of the mask lane
        readout = self._straight_readout(grid, 5.0)
        refined = fuse_points(detected, readout, grid, 11)
        assert np.allclose(refined.pts[:, 1], 5.5, atol=1e-9)
        assert np.allclose(refined.pts[:, 0], detected.pts[:, 0], atol=1e-9)
        # z always comes from the detected polyline
        assert np.array_equal(refined.pts[:, 2], detected.pts[:, 2])

    def test_reversal_consistency(self):
        grid = self._grid()
        rng = np.random.default_rng(13)
        coords = 50.0 + np.cumsum(rng.uniform(-0.5, 0.5, size=grid.w))
        exist = np.where(np.arange(grid.w) % 3 == 0, 0.9, 0.2)
        fwd = MaskPointReadout(AXIS_COLUMNS, coords, exist, direction=0.9)
        rev = MaskPointReadout(AXIS_COLUMNS, coords, exist, direction=0.1)
        valid = exist > 0.5
        pts_fwd = readout_to_metric_points(fwd, grid)[valid]
        pts_rev = readout_to_metric_points(rev, grid)[valid][::-1]
        assert np.array_equal(pts_fwd, pts_rev[::-1])

    def test_outlier_in_readout_is_ignored(self):
        grid = self._grid()
        detected = self._detected(5.0)
        readout = self._straight_readout(grid, 5.0)
        # corrupt one interior column far away; the 1.5 m rule must drop it
        rc = grid.metric_to_cell(np.array([[5.0, 15.0]]))
        readout.coords[100] = rc[0, 0]
        refined = fuse_points(detected, readout, grid, 11)
        assert np.max(np.abs(refined.pts[:, 1] - 5.0)) < 0.2

    def test_wrong_k_rejected(self):
        grid = self._grid()
        with pytest.raises(ValueError):
            fuse_points(self._detected(5.0, k=7), self._straight_readout(grid, 5.0), grid, 11)

    def test_curved_arc_recovery(self):
        # oracle mask rendered from a ground-truth arc; biased detected points
        grid = self._grid()
        k = 11
        radius, half_chord = 30.0, 14.0
        xs_cols = grid.x_min + (np.arange(grid.w) + 0.5) * grid.resolution

        def arc_y(x):
            return -2.0 - radius + np.sqrt(radius**2 - x**2)

        logits = np.zeros((grid.h, grid.w))
        exist = np.full(grid.w, 0.01)
        rows = np.arange(grid.h, dtype=np.float64)
        for j, x in enumerate(xs_cols):
            if abs(x) <= half_chord:
                row_gt = grid.metric_to_cell(np.array([[x, arc_y(x)]]))[0, 0]
                logits[:, j] = -3.0 * (rows - row_gt) ** 2
                exist[j] = 0.99
        coords = sample_mask_points(logits, AXIS_COLUMNS)
        readout = MaskPointReadout(AXIS_COLUMNS, coords, exist, direction=1.0)

        x_gt = np.linspace(-half_chord, half_chord, 201)
        gt = Polyline(np.stack([x_gt, arc_y(x_gt), np.zeros_like(x_gt)], axis=-1))
        from lanetopo.geometry import resample_polyline

        gt_k = resample_polyline(gt, k)
        bias = 0.8 * np.sin(np.pi * np.linspace(0, 1, k))
        detected = Polyline(gt_k.pts + np.stack([np.zeros(k), bias, np.zeros(k)], axis=-1))

        refined = fuse_points(detected, readout, grid, k)
        err_detected = np.mean(np.linalg.norm(detected.pts[:, :2] - gt_k.pts[:, :2], axis=1))
        err_refined = np.mean(np.linalg.norm(refined.pts[:, :2] - gt_k.pts[:, :2], axis=1))
        assert err_refined < err_detected
        assert err_refined < 0.5
        # fused points stay inside the metric working area
        assert np.all(refined.pts[:, 0] >= grid.x_min) and np.all(refined.pts[:, 0] <= grid.x_max)
        assert np.all(refined.pts[:, 1] >= grid.y_min) and np.all(refined.pts[:, 1] <= grid.y_max)
