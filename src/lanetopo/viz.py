"""Deterministic top-down SVG rendering of scenes and predictions."""

from __future__ import annotations

import numpy as np

from .config import X_MAX, X_MIN, Y_MAX, Y_MIN
from .geometry import Polyline
from .scene import Scene

_SCALE = 8.0  # px per meter
_PAD = 10.0


def _to_px(xy: np.ndarray) -> np.ndarray:
    x = (xy[:, 0] - X_MIN) * _SCALE + _PAD
    y = (Y_MAX - xy[:, 1]) * _SCALE + _PAD
    return np.stack([x, y], axis=-1)


def _path(xy: np.ndarray, style: str) -> str:
    px = _to_px(xy)
    d = "M " + " L ".join(f"{p[0]:.2f} {p[1]:.2f}" for p in px)
    return f'<path d="{d}" fill="none" {style}/>'


def _arrow(p_from: np.ndarray, p_to: np.ndarray, style: str) -> str:
    a, b = _to_px(np.stack([p_from, p_to]))
    v = b - a
    norm = float(np.hypot(*v))
    if norm == 0.0:
        v = np.array([1.0, 0.0])
        norm = 1.0
    u = v / norm
    left = b - 6.0 * u + 3.0 * np.array([-u[1], u[0]])
    right = b - 6.0 * u - 3.0 * np.array([-u[1], u[0]])
    d = (
        f"M {a[0]:.2f} {a[1]:.2f} L {b[0]:.2f} {b[1]:.2f} "
        f"M {left[0]:.2f} {left[1]:.2f} L {b[0]:.2f} {b[1]:.2f} L {right[0]:.2f} {right[1]:.2f}"
    )
    return f'<path d="{d}" fill="none" {style}/>'


def render_svg(scene: Scene, predictions: list[tuple[Polyline, bool]] | None = None) -> str:
    """BEV vector drawing: SD strokes, ground truth (solid; virtual in its own
    stroke), predictions as (line, is_real) pairs (dashed), and adjacency as
    end-to-start arrows.

    Every drawable is a single <path>; the bounds frame is the only <rect>.
    Output is byte-deterministic for identical inputs.
    """
    width = (X_MAX - X_MIN) * _SCALE + 2 * _PAD
    height = (Y_MAX - Y_MIN) * _SCALE + 2 * _PAD
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect x="{_PAD:.0f}" y="{_PAD:.0f}" width="{(X_MAX - X_MIN) * _SCALE:.0f}" '
        f'height="{(Y_MAX - Y_MIN) * _SCALE:.0f}" fill="#fcfcfc" stroke="#333" stroke-width="1"/>',
    ]
    for inst in scene.sd_instances:
        parts.append(
            _path(inst.polyline.xy, 'stroke="#d9d4c8" stroke-width="10" stroke-linecap="round"')
        )
    for lane, real in zip(scene.centerlines, scene.is_real):
        style = (
            'stroke="#1f77b4" stroke-width="2"'
            if real
            else 'stroke="#ff7f0e" stroke-width="2"'
        )
        parts.append(_path(lane.xy, style))
    src, dst = np.nonzero(scene.adjacency)
    for i, j in zip(src, dst):
        parts.append(
            _arrow(
                scene.centerlines[i].pts[-1, :2],
                scene.centerlines[j].pts[0, :2],
                'stroke="#555" stroke-width="1.2"',
            )
        )
    for line, real in predictions or []:
        style = (
            'stroke="#2ca02c" stroke-width="1.6" stroke-dasharray="6 3"'
            if real
            else 'stroke="#9467bd" stroke-width="1.6" stroke-dasharray="6 3"'
        )
        parts.append(_path(line.xy, style))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
