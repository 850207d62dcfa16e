"""Property tests for the file loaders: a valid document with one mutation
either loads or raises one ValueError, never another exception type.

Each test starts from a document the program itself wrote for a tiny
configuration, applies one mutation at a random place (drop a key or list
entry, put in a value of another type, wrap a value in a list, or repeat a
list's last entry) and loads the result.
"""

import copy
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lanetopo.config import PipelineConfig
from lanetopo.pipeline import load_predictions, run_pipeline, save_predictions
from lanetopo.scene import (
    SceneParams,
    load_bev,
    load_scene,
    render_bev_features,
    save_bev,
    save_scene,
    synth_scene,
)
from lanetopo.weights import (
    check_weights,
    init_model_weights,
    load_model_weights,
    save_model_weights,
)

TINY = PipelineConfig.desk(
    n_real=2, n_virtual=1, k=3, channels=8, heads=2, sd_heads=2, ffn_dim=8, layers=1,
    resolution=12.5,
)
ODD_VALUES = [None, True, False, 0, -1, 7, 2.5, math.nan, math.inf, "x", "", [], [1, 2], {}]
FUZZ = settings(derandomize=True, deadline=None, max_examples=120)


@st.composite
def mutated(draw, doc):
    """``doc`` with one mutation at a node reached by a random descent."""
    doc = copy.deepcopy(doc)
    parent, key, node = None, None, doc
    while True:
        if isinstance(node, dict):
            keys = list(node)
        elif isinstance(node, list):
            keys = list(range(len(node)))
        else:
            keys = []
        if not keys or (parent is not None and draw(st.booleans())):
            break
        parent, key = node, draw(st.sampled_from(keys))
        node = parent[key]
    how = draw(st.sampled_from(["drop", "replace", "wrap", "repeat"]))
    if how == "drop":
        del parent[key]
    elif how == "replace":
        parent[key] = draw(st.sampled_from(ODD_VALUES))
    elif how == "wrap":
        parent[key] = [node]
    elif isinstance(node, list) and node:
        node.append(copy.deepcopy(node[-1]))
    else:
        parent[key] = [node, node]
    return doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _document(path, write) -> dict:
    write(path)
    return json.loads(path.read_text())


def _loads_or_value_error(load, path, text: str):
    path.write_text(text)
    try:
        return load(path)
    except ValueError:
        return None


def test_mutation_reaches_nested_nodes():
    """The strategy mutates below the top level and leaves its input alone."""
    doc = {"a": {"b": [1, 2, 3]}, "c": 4}
    seen = set()

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(mutated(doc))
    def collect(m):
        seen.add(json.dumps(m, sort_keys=True))

    collect()
    assert doc == {"a": {"b": [1, 2, 3]}, "c": 4}
    assert any('"b": [1, 2, 3]' not in s and '"b"' in s for s in seen)


@pytest.fixture(scope="module")
def weights_doc(workdir):
    return _document(
        workdir / "weights-valid.json",
        lambda p: save_model_weights(init_model_weights(TINY), p),
    )


@FUZZ
@given(data=st.data())
def test_weights_loader_returns_or_raises_value_error(workdir, weights_doc, data):
    doc = data.draw(mutated(weights_doc))
    w = _loads_or_value_error(load_model_weights, workdir / "weights.json", json.dumps(doc))
    if w is not None:
        try:
            check_weights(TINY, w)
        except ValueError:
            pass


@pytest.fixture(scope="module")
def config_doc():
    return json.loads(json.dumps(TINY.to_dict()))


@FUZZ
@given(data=st.data())
def test_config_loader_returns_or_raises_value_error(workdir, config_doc, data):
    doc = data.draw(mutated(config_doc))
    _loads_or_value_error(PipelineConfig.load, workdir / "config.json", json.dumps(doc))


@pytest.fixture(scope="module")
def scene_doc(workdir):
    scene = synth_scene(3, SceneParams(n_lanes=1))  # 3 lanes, 2 edges, 3 SD instances
    return _document(workdir / "scene-valid.json", lambda p: save_scene(scene, p))


@FUZZ
@given(data=st.data())
def test_scene_loader_returns_or_raises_value_error(workdir, scene_doc, data):
    doc = data.draw(mutated(scene_doc))
    _loads_or_value_error(load_scene, workdir / "scene.json", json.dumps(doc))


@pytest.fixture(scope="module")
def predictions_doc(workdir):
    result = run_pipeline(synth_scene(3), TINY, init_model_weights(TINY))
    return _document(
        workdir / "pred-valid.json", lambda p: save_predictions(result.outputs, p)
    )


@FUZZ
@given(data=st.data())
def test_predictions_loader_returns_or_raises_value_error(workdir, predictions_doc, data):
    doc = data.draw(mutated(predictions_doc))
    _loads_or_value_error(
        lambda p: load_predictions(p, TINY.grid), workdir / "pred.json", json.dumps(doc)
    )


@pytest.fixture(scope="module")
def bev_bytes(workdir):
    path = workdir / "bev-valid.bin"
    save_bev(render_bev_features(synth_scene(3), replace(TINY, noise_sigma=0.0)), path)
    return path.read_bytes()


@st.composite
def mutated_bytes(draw, raw: bytes) -> bytes:
    """``raw`` cut short, extended, or with one header word or payload
    value overwritten."""
    how = draw(st.sampled_from(["cut", "extend", "header", "payload"]))
    if how == "cut":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    if how == "extend":
        return raw + bytes(draw(st.integers(1, 16)))
    if how == "header":
        at = 4 * draw(st.integers(0, 2))
        word = np.array([draw(st.integers(-(2**31), 2**31 - 1))], dtype="<i4").tobytes()
        return raw[:at] + word + raw[at + 4:]
    at = 12 + 8 * draw(st.integers(0, (len(raw) - 12) // 8 - 1))
    value = np.array([draw(st.sampled_from([math.nan, math.inf, -0.0, 1e308]))], dtype="<f8")
    return raw[:at] + value.tobytes() + raw[at + 8:]


@FUZZ
@given(data=st.data())
def test_bev_loader_returns_or_raises_value_error(workdir, bev_bytes, data):
    path = workdir / "bev.bin"
    path.write_bytes(data.draw(mutated_bytes(bev_bytes)))
    try:
        load_bev(path, TINY.grid)
    except ValueError:
        pass
