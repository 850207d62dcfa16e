"""Model parameter containers, deterministic initialization, and file I/O.

Weights are stored as a tree of small dataclasses and serialized to a flat
named-tensor JSON container (base64 little-endian float64 payloads) so that
fixtures stay portable and diffable.
"""

from __future__ import annotations

import base64
import dataclasses
import functools
import json
import math
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bev import LayerNormWeights, MlpWeights
from .config import N_SEMANTIC_TYPES, SAMPLE_POINTS, PipelineConfig

WEIGHTS_FORMAT = "lanetopo-weights-v1"


@dataclass
class DeformableWeights:
    """Per-head offset/attention predictors plus the output projection.

    Shapes: w_offset (heads, 2p, c), b_offset (heads, 2p), w_attn (heads, p, c),
    b_attn (heads, p), w_out (c, c), b_out (c,).
    """

    w_offset: np.ndarray
    b_offset: np.ndarray
    w_attn: np.ndarray
    b_attn: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray

    @property
    def heads(self) -> int:
        return self.w_offset.shape[0]

    @property
    def points(self) -> int:
        return self.w_attn.shape[1]


@dataclass
class DecoderLayerWeights:
    masked_ln: LayerNormWeights
    deform: DeformableWeights
    deform_ln: LayerNormWeights
    self_ln: LayerNormWeights
    ffn: MlpWeights
    ffn_ln: LayerNormWeights


@dataclass
class DecoderWeights:
    real_queries: np.ndarray
    virtual_queries: np.ndarray
    init_ref_logits: np.ndarray
    layers: list[DecoderLayerWeights]
    points_head: MlpWeights
    score_head: MlpWeights


@dataclass
class MaskHeadWeights:
    """Mask-query encoders, the per-axis existence heads, and direction heads."""

    point_mlp: MlpWeights
    concat_mlp: MlpWeights
    query_mlp: MlpWeights
    exist_col: MlpWeights
    exist_row: MlpWeights
    dir_col: MlpWeights
    dir_row: MlpWeights


@dataclass
class TopologyWeights:
    query_mlp: MlpWeights
    points_mlp: MlpWeights
    classifier: MlpWeights


@dataclass
class SdLayerWeights:
    self_ln: LayerNormWeights
    self_deform: DeformableWeights
    cross_ln: LayerNormWeights
    cross_deform: DeformableWeights
    ffn_ln: LayerNormWeights
    ffn: MlpWeights


@dataclass
class SdInteractWeights:
    layers: list[SdLayerWeights]


@dataclass
class ModelWeights:
    decoder: DecoderWeights
    mask_head: MaskHeadWeights
    topology: TopologyWeights
    sd: SdInteractWeights
    semantic_table: np.ndarray


def _layout(cfg: PipelineConfig) -> list[tuple]:
    """Every weight ``cfg`` asks for, named by its field path in
    :class:`ModelWeights` (which is also its name in the weights file), in the
    order :func:`init_model_weights` draws it.

    An entry is ``("tensor", name, shape, fill)``, where ``fill`` is
    ``normal`` (N(0, 1)), ``fan_in`` (normal with standard deviation
    1/sqrt(shape[-1])), ``ones`` or ``zeros``; or ``("mlp", name, dims,
    activations)``, whose layer ``i`` maps ``dims[i]`` to ``dims[i + 1]``
    with weight ``name.i.w`` (``fan_in``) and bias ``name.i.b`` (``zeros``).
    """
    c, k, hw = cfg.channels, cfg.k, cfg.grid_h * cfg.grid_w
    ffn = ((c, cfg.ffn_dim, c), ("relu", "none"))

    def layer_norm(name: str) -> list[tuple]:
        return [
            ("tensor", f"{name}.scale", (c,), "ones"),
            ("tensor", f"{name}.shift", (c,), "zeros"),
        ]

    def deformable(name: str, heads: int) -> list[tuple]:
        return [
            ("tensor", f"{name}.w_offset", (heads, 2 * SAMPLE_POINTS, c), "fan_in"),
            ("tensor", f"{name}.b_offset", (heads, 2 * SAMPLE_POINTS), "zeros"),
            ("tensor", f"{name}.w_attn", (heads, SAMPLE_POINTS, c), "fan_in"),
            ("tensor", f"{name}.b_attn", (heads, SAMPLE_POINTS), "zeros"),
            ("tensor", f"{name}.w_out", (c, c), "fan_in"),
            ("tensor", f"{name}.b_out", (c,), "zeros"),
        ]

    layout = []
    for i in range(cfg.layers):
        p = f"decoder.layers.{i}"
        layout += layer_norm(f"{p}.masked_ln")
        layout += deformable(f"{p}.deform", cfg.heads)
        layout += layer_norm(f"{p}.deform_ln") + layer_norm(f"{p}.self_ln")
        layout.append(("mlp", f"{p}.ffn", *ffn))
        layout += layer_norm(f"{p}.ffn_ln")
    layout += [
        ("tensor", "decoder.real_queries", (cfg.n_real, c), "normal"),
        ("tensor", "decoder.virtual_queries", (cfg.n_virtual, c), "normal"),
        ("tensor", "decoder.init_ref_logits", (cfg.n_queries, 2), "normal"),
        ("mlp", "decoder.points_head", (c, c, 3 * k), ("relu", "none")),
        ("mlp", "decoder.score_head", (c, c, 1), ("relu", "none")),
        ("mlp", "mask_head.point_mlp", (3, c), ("relu",)),
        ("mlp", "mask_head.concat_mlp", (k * c, c), ("none",)),
        ("mlp", "mask_head.query_mlp", (c, c), ("none",)),
        ("mlp", "mask_head.exist_col", (hw, cfg.grid_w), ("none",)),
        ("mlp", "mask_head.exist_row", (hw, cfg.grid_h), ("none",)),
        ("mlp", "mask_head.dir_col", (c, 1), ("none",)),
        ("mlp", "mask_head.dir_row", (c, 1), ("none",)),
        ("mlp", "topology.query_mlp", (c, c), ("none",)),
        ("mlp", "topology.points_mlp", (3 * k, c), ("none",)),
        ("mlp", "topology.classifier", (2 * c, c, 1), ("relu", "none")),
    ]
    for i in range(cfg.sd_layers):
        p = f"sd.layers.{i}"
        layout += layer_norm(f"{p}.self_ln")
        layout += deformable(f"{p}.self_deform", cfg.sd_heads)
        layout += layer_norm(f"{p}.cross_ln")
        layout += deformable(f"{p}.cross_deform", cfg.sd_heads)
        layout += layer_norm(f"{p}.ffn_ln")
        layout.append(("mlp", f"{p}.ffn", *ffn))
    layout.append(("tensor", "semantic_table", (N_SEMANTIC_TYPES + 1, c), "normal"))
    return layout


def init_model_weights(cfg: PipelineConfig, seed: int | None = None) -> ModelWeights:
    """Deterministic random initialization for every learnable tensor, drawn
    in :func:`_layout` order."""
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    tensors: dict[str, np.ndarray] = {}
    acts: dict[str, list[str]] = {}

    def fill(name: str, shape: tuple[int, ...], rule: str) -> None:
        if rule == "normal":
            tensors[name] = rng.normal(0.0, 1.0, size=shape)
        elif rule == "fan_in":
            tensors[name] = rng.normal(0.0, 1.0 / np.sqrt(shape[-1]), size=shape)
        else:
            tensors[name] = np.ones(shape) if rule == "ones" else np.zeros(shape)

    for kind, name, shape, rule in _layout(cfg):
        if kind == "tensor":
            fill(name, shape, rule)
            continue
        acts[name] = list(rule)
        for i in range(len(rule)):
            fill(f"{name}.{i}.w", (shape[i + 1], shape[i]), "fan_in")
            fill(f"{name}.{i}.b", (shape[i + 1],), "zeros")
    meta = {"decoder_layers": cfg.layers, "sd_layers": cfg.sd_layers, "mlp_activations": acts}
    return model_weights_from_tensors(tensors, meta)


# --- what the configuration fixes of the weights ------------------------------


def weight_shapes(cfg: PipelineConfig) -> dict[str, tuple[int, ...]]:
    """What ``cfg`` fixes of each weight, keyed by its name in the weights
    file: a tensor's shape, and an MLP's ``(in_dim, out_dim)``. An MLP's
    depth and hidden widths are the weights' own."""
    return {
        name: shape if kind == "tensor" else (shape[0], shape[-1])
        for kind, name, shape, _ in _layout(cfg)
    }


def _weight_dims(w: ModelWeights) -> tuple[dict[str, tuple[int, ...]], set[str]]:
    """The :func:`weight_shapes` view of ``w``, and the names that are MLPs."""
    tensors, meta = model_weights_to_tensors(w)
    mlps = meta["mlp_activations"]
    # An MLP layer's tensors are named ``<mlp>.<i>.w`` and ``<mlp>.<i>.b``.
    dims = {name: t.shape for name, t in tensors.items() if name.rsplit(".", 2)[0] not in mlps}
    for p, acts in mlps.items():
        dims[p] = (tensors[f"{p}.0.w"].shape[1], tensors[f"{p}.{len(acts) - 1}.w"].shape[0])
    return dims, set(mlps)


def check_weights(cfg: PipelineConfig, w: ModelWeights) -> None:
    """Raise one ValueError naming the first weight (by file name) that does
    not fit ``cfg``: a tensor shape or MLP in/out dims that differ from
    :func:`weight_shapes`, or a weight that one side lacks."""
    found, mlps = _weight_dims(w)
    expected = weight_shapes(cfg)
    for name in sorted(found.keys() | expected.keys()):
        what = "in/out dims" if name in mlps else "shape"
        if name not in found:
            raise ValueError(f"weights lack {name}, config expects {what} {expected[name]}")
        if name not in expected:
            raise ValueError(f"weights {name} has {what} {found[name]}, config expects none")
        if found[name] != expected[name]:
            raise ValueError(
                f"weights {name} has {what} {found[name]}, config expects {expected[name]}"
            )


# --- flat named-tensor serialization ---------------------------------------


def _join(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


def model_weights_to_tensors(w: ModelWeights) -> tuple[dict[str, np.ndarray], dict]:
    """``w`` as flat tensors named by field path (an MLP's layer ``i`` as
    ``path.i.w`` and ``path.i.b``), and the meta that rebuilds the tree: each
    layer list's length (``decoder.layers`` as ``decoder_layers``) and each
    MLP's activations."""
    tensors: dict[str, np.ndarray] = {}
    meta: dict = {"mlp_activations": {}}

    def put(path: str, value) -> None:
        if isinstance(value, np.ndarray):
            tensors[path] = value
        elif isinstance(value, MlpWeights):
            meta["mlp_activations"][path] = [act for _, _, act in value.layers]
            for i, (weight, bias, _) in enumerate(value.layers):
                tensors[f"{path}.{i}.w"], tensors[f"{path}.{i}.b"] = weight, bias
        elif isinstance(value, list):
            meta[path.replace(".", "_")] = len(value)
            for i, item in enumerate(value):
                put(f"{path}.{i}", item)
        else:
            for f in dataclasses.fields(value):
                put(_join(path, f.name), getattr(value, f.name))

    put("", w)
    return tensors, meta


@functools.cache
def _field_types(kind: type) -> dict[str, type]:
    # get_type_hints evaluates the string annotations anew on every call.
    return typing.get_type_hints(kind)


def model_weights_from_tensors(tensors: dict[str, np.ndarray], meta: dict) -> ModelWeights:
    """The tree :func:`model_weights_to_tensors` flattened, rebuilt from the
    field types. A missing tensor or meta entry raises KeyError, a malformed
    meta entry or MLP ValueError."""
    acts = meta["mlp_activations"]
    if not isinstance(acts, dict):
        raise ValueError(f"meta.mlp_activations must be an object, got {type(acts).__name__}")

    def get(path: str, kind):
        if kind is np.ndarray:
            return tensors[path]
        if kind is MlpWeights:
            layer_acts = acts[path]
            if not isinstance(layer_acts, list):
                raise ValueError(f"meta.mlp_activations.{path} must be a list, got {layer_acts!r}")
            layers = [(tensors[f"{path}.{i}.w"], tensors[f"{path}.{i}.b"], act)
                      for i, act in enumerate(layer_acts)]
            try:
                return MlpWeights(layers)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
        if typing.get_origin(kind) is list:
            key = path.replace(".", "_")
            n = meta[key]
            if type(n) is not int or n < 0:
                raise ValueError(f"meta.{key} must be a non-negative integer, got {n!r}")
            (item,) = typing.get_args(kind)
            return [get(f"{path}.{i}", item) for i in range(n)]
        types = _field_types(kind)
        return kind(**{name: get(_join(path, name), types[name]) for name in types})

    return get("", ModelWeights)


def save_model_weights(w: ModelWeights, path: str | Path) -> None:
    tensors, meta = model_weights_to_tensors(w)
    blob = {
        "format": WEIGHTS_FORMAT,
        "meta": meta,
        "tensors": {
            name: {
                "shape": list(t.shape),
                "dtype": "float64",
                "data": base64.b64encode(
                    np.ascontiguousarray(t, dtype="<f8").tobytes()
                ).decode("ascii"),
            }
            for name, t in sorted(tensors.items())
        },
    }
    Path(path).write_text(json.dumps(blob, indent=1, sort_keys=True) + "\n")


def _decode_tensor(name: str, entry) -> np.ndarray:
    """One ``tensors`` entry of a weights document as a finite float64 array."""
    if not isinstance(entry, dict):
        raise ValueError(f"tensors.{name} must be an object, got {type(entry).__name__}")
    data, shape = entry["data"], entry["shape"]
    if not isinstance(data, str):
        raise ValueError(f"tensors.{name}.data must be a base64 string, got {type(data).__name__}")
    if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
        raise ValueError(f"tensors.{name}.shape must list non-negative integers, got {shape!r}")
    try:
        raw = base64.b64decode(data)
    except ValueError as exc:
        raise ValueError(f"tensors.{name}.data is not base64: {exc}") from None
    nbytes = 8 * math.prod(shape)
    if len(raw) != nbytes:
        raise ValueError(f"tensors.{name}.data has {len(raw)} bytes, shape {shape} needs {nbytes}")
    tensor = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
    if not np.all(np.isfinite(tensor)):
        raise ValueError(f"tensors.{name} must be finite")
    return tensor


def load_model_weights(path: str | Path) -> ModelWeights:
    """Read a :func:`save_model_weights` file; an unreadable path raises
    OSError, a malformed document one ValueError."""
    blob = json.loads(Path(path).read_text())
    fmt = blob.get("format") if isinstance(blob, dict) else None
    if fmt != WEIGHTS_FORMAT:
        raise ValueError(f"unsupported weights format: {fmt!r}")
    try:
        if not isinstance(blob["tensors"], dict) or not isinstance(blob["meta"], dict):
            raise ValueError("weights document tensors and meta must be objects")
        tensors = {name: _decode_tensor(name, entry) for name, entry in blob["tensors"].items()}
        return model_weights_from_tensors(tensors, blob["meta"])
    except KeyError as exc:
        raise ValueError(f"weights document lacks key {exc.args[0]!r}") from None
