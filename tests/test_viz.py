"""SVG rendering: determinism, structure, element counts."""

import numpy as np

from lanetopo.geometry import Polyline
from lanetopo.scene import Scene, SceneParams, synth_scene
from lanetopo.viz import render_svg


def empty_scene() -> Scene:
    return Scene(
        centerlines=[],
        is_real=[],
        adjacency=np.zeros((0, 0), dtype=np.int64),
        sd_instances=[],
        seed=0,
    )


def test_empty_scene_gives_frame_only():
    svg = render_svg(empty_scene())
    assert svg.startswith("<svg")
    assert svg.count("<rect") == 1
    assert svg.count("<path") == 0
    assert svg.rstrip().endswith("</svg>")


def test_byte_identical_for_identical_inputs():
    scene = synth_scene(40)
    assert render_svg(scene) == render_svg(scene)


def test_element_count_oracle():
    scene = synth_scene(41, SceneParams(intersections=1))
    preds = [
        (Polyline(lane.pts[:: len(lane) // 10][:11]), bool(real))
        for lane, real in zip(scene.centerlines[:4], scene.is_real[:4])
    ]
    svg = render_svg(scene, preds)
    n_edges = int(scene.adjacency.sum())
    expected_paths = scene.n_lanes + len(preds) + n_edges + len(scene.sd_instances)
    assert svg.count("<path") == expected_paths
    assert svg.count("<rect") == 1
    assert svg.count("stroke-dasharray") == len(preds)
