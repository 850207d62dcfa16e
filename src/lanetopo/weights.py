"""Model parameter containers, deterministic initialization, and file I/O.

Weights are stored as a tree of small dataclasses and serialized to a flat
named-tensor JSON container (base64 little-endian float64 payloads) so that
fixtures stay portable and diffable.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bev import LayerNormWeights, MlpWeights
from .config import PipelineConfig

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


def _linear(rng: np.random.Generator, n_out: int, n_in: int) -> tuple[np.ndarray, np.ndarray]:
    w = rng.normal(0.0, 1.0 / np.sqrt(n_in), size=(n_out, n_in))
    return w, np.zeros(n_out)


def _mlp(rng: np.random.Generator, dims: list[int], acts: list[str]) -> MlpWeights:
    layers = []
    for i, act in enumerate(acts):
        w, b = _linear(rng, dims[i + 1], dims[i])
        layers.append((w, b, act))
    return MlpWeights(layers)


def _deformable(rng: np.random.Generator, c: int, heads: int, points: int) -> DeformableWeights:
    w_off = rng.normal(0.0, 1.0 / np.sqrt(c), size=(heads, 2 * points, c))
    w_att = rng.normal(0.0, 1.0 / np.sqrt(c), size=(heads, points, c))
    w_out, b_out = _linear(rng, c, c)
    return DeformableWeights(
        w_offset=w_off,
        b_offset=np.zeros((heads, 2 * points)),
        w_attn=w_att,
        b_attn=np.zeros((heads, points)),
        w_out=w_out,
        b_out=b_out,
    )


def init_model_weights(cfg: PipelineConfig, seed: int | None = None) -> ModelWeights:
    """Deterministic random initialization for every learnable tensor."""
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    c, k = cfg.channels, cfg.k
    hw = cfg.grid_h * cfg.grid_w

    dec_layers = []
    for _ in range(cfg.layers):
        dec_layers.append(
            DecoderLayerWeights(
                masked_ln=LayerNormWeights.identity(c),
                deform=_deformable(rng, c, cfg.heads, cfg.sample_points),
                deform_ln=LayerNormWeights.identity(c),
                self_ln=LayerNormWeights.identity(c),
                ffn=_mlp(rng, [c, cfg.ffn_dim, c], ["relu", "none"]),
                ffn_ln=LayerNormWeights.identity(c),
            )
        )
    decoder = DecoderWeights(
        real_queries=rng.normal(0.0, 1.0, size=(cfg.n_real, c)),
        virtual_queries=rng.normal(0.0, 1.0, size=(cfg.n_virtual, c)),
        init_ref_logits=rng.normal(0.0, 1.0, size=(cfg.n_queries, 2)),
        layers=dec_layers,
        points_head=_mlp(rng, [c, c, 3 * k], ["relu", "none"]),
        score_head=_mlp(rng, [c, c, 1], ["relu", "none"]),
    )
    mask_head = MaskHeadWeights(
        point_mlp=_mlp(rng, [3, c], ["relu"]),
        concat_mlp=_mlp(rng, [k * c, c], ["none"]),
        query_mlp=_mlp(rng, [c, c], ["none"]),
        exist_col=_mlp(rng, [hw, cfg.grid_w], ["none"]),
        exist_row=_mlp(rng, [hw, cfg.grid_h], ["none"]),
        dir_col=_mlp(rng, [c, 1], ["none"]),
        dir_row=_mlp(rng, [c, 1], ["none"]),
    )
    topology = TopologyWeights(
        query_mlp=_mlp(rng, [c, c], ["none"]),
        points_mlp=_mlp(rng, [3 * k, c], ["none"]),
        classifier=_mlp(rng, [2 * c, c, 1], ["relu", "none"]),
    )
    sd_layers = []
    for _ in range(cfg.sd_layers):
        sd_layers.append(
            SdLayerWeights(
                self_ln=LayerNormWeights.identity(c),
                self_deform=_deformable(rng, c, cfg.sd_heads, cfg.sd_sample_points),
                cross_ln=LayerNormWeights.identity(c),
                cross_deform=_deformable(rng, c, cfg.sd_heads, cfg.sd_sample_points),
                ffn_ln=LayerNormWeights.identity(c),
                ffn=_mlp(rng, [c, cfg.ffn_dim, c], ["relu", "none"]),
            )
        )
    semantic_table = rng.normal(0.0, 1.0, size=(cfg.n_semantic_types + 1, c))
    return ModelWeights(
        decoder=decoder,
        mask_head=mask_head,
        topology=topology,
        sd=SdInteractWeights(layers=sd_layers),
        semantic_table=semantic_table,
    )


# --- what the configuration fixes of the weights ------------------------------


def _ln_shapes(prefix: str, c: int) -> dict[str, tuple[int, ...]]:
    return {f"{prefix}.scale": (c,), f"{prefix}.shift": (c,)}


def _deform_shapes(prefix: str, c: int, heads: int, points: int) -> dict[str, tuple[int, ...]]:
    return {
        f"{prefix}.w_offset": (heads, 2 * points, c),
        f"{prefix}.b_offset": (heads, 2 * points),
        f"{prefix}.w_attn": (heads, points, c),
        f"{prefix}.b_attn": (heads, points),
        f"{prefix}.w_out": (c, c),
        f"{prefix}.b_out": (c,),
    }


def weight_shapes(cfg: PipelineConfig) -> dict[str, tuple[int, ...]]:
    """What ``cfg`` fixes of each weight, keyed by its name in the weights
    file: a tensor's shape, and an MLP's ``(in_dim, out_dim)``. An MLP's
    depth and hidden widths are the weights' own."""
    c, k, hw = cfg.channels, cfg.k, cfg.grid_h * cfg.grid_w
    shapes = {
        "decoder.real_queries": (cfg.n_real, c),
        "decoder.virtual_queries": (cfg.n_virtual, c),
        "decoder.init_ref_logits": (cfg.n_queries, 2),
        "decoder.points_head": (c, 3 * k),
        "decoder.score_head": (c, 1),
        "mask_head.point_mlp": (3, c),
        "mask_head.concat_mlp": (k * c, c),
        "mask_head.query_mlp": (c, c),
        "mask_head.exist_col": (hw, cfg.grid_w),
        "mask_head.exist_row": (hw, cfg.grid_h),
        "mask_head.dir_col": (c, 1),
        "mask_head.dir_row": (c, 1),
        "topology.query_mlp": (c, c),
        "topology.points_mlp": (3 * k, c),
        "topology.classifier": (2 * c, 1),
        "semantic_table": (cfg.n_semantic_types + 1, c),
    }
    for i in range(cfg.layers):
        p = f"decoder.layers.{i}"
        for ln in ("masked_ln", "deform_ln", "self_ln", "ffn_ln"):
            shapes.update(_ln_shapes(f"{p}.{ln}", c))
        shapes.update(_deform_shapes(f"{p}.deform", c, cfg.heads, cfg.sample_points))
        shapes[f"{p}.ffn"] = (c, c)
    for i in range(cfg.sd_layers):
        p = f"sd.layers.{i}"
        for ln in ("self_ln", "cross_ln", "ffn_ln"):
            shapes.update(_ln_shapes(f"{p}.{ln}", c))
        for deform in ("self_deform", "cross_deform"):
            shapes.update(
                _deform_shapes(f"{p}.{deform}", c, cfg.sd_heads, cfg.sd_sample_points)
            )
        shapes[f"{p}.ffn"] = (c, c)
    return shapes


def _weight_dims(w: ModelWeights) -> tuple[dict[str, tuple[int, ...]], set[str]]:
    """The :func:`weight_shapes` view of ``w``, and the names that are MLPs."""
    tensors, meta = model_weights_to_tensors(w)
    mlps = meta["mlp_activations"]
    dims = {}
    for prefix, acts in mlps.items():
        first, last = tensors[f"{prefix}.0.w"], tensors[f"{prefix}.{len(acts) - 1}.w"]
        dims[prefix] = (first.shape[1], last.shape[0])
        for i in range(len(acts)):
            del tensors[f"{prefix}.{i}.w"], tensors[f"{prefix}.{i}.b"]
    dims.update((name, tuple(np.shape(t))) for name, t in tensors.items())
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


def _put_mlp(tensors: dict, acts: dict, prefix: str, mlp: MlpWeights) -> None:
    acts[prefix] = [a for _, _, a in mlp.layers]
    for i, (w, b, _) in enumerate(mlp.layers):
        tensors[f"{prefix}.{i}.w"] = w
        tensors[f"{prefix}.{i}.b"] = b


def _put_ln(tensors: dict, prefix: str, ln: LayerNormWeights) -> None:
    tensors[f"{prefix}.scale"] = ln.scale
    tensors[f"{prefix}.shift"] = ln.shift


def _put_deform(tensors: dict, prefix: str, d: DeformableWeights) -> None:
    for name in ("w_offset", "b_offset", "w_attn", "b_attn", "w_out", "b_out"):
        tensors[f"{prefix}.{name}"] = getattr(d, name)


def model_weights_to_tensors(w: ModelWeights) -> tuple[dict[str, np.ndarray], dict]:
    tensors: dict[str, np.ndarray] = {}
    acts: dict[str, list[str]] = {}
    tensors["decoder.real_queries"] = w.decoder.real_queries
    tensors["decoder.virtual_queries"] = w.decoder.virtual_queries
    tensors["decoder.init_ref_logits"] = w.decoder.init_ref_logits
    for i, layer in enumerate(w.decoder.layers):
        p = f"decoder.layers.{i}"
        _put_ln(tensors, f"{p}.masked_ln", layer.masked_ln)
        _put_deform(tensors, f"{p}.deform", layer.deform)
        _put_ln(tensors, f"{p}.deform_ln", layer.deform_ln)
        _put_ln(tensors, f"{p}.self_ln", layer.self_ln)
        _put_mlp(tensors, acts, f"{p}.ffn", layer.ffn)
        _put_ln(tensors, f"{p}.ffn_ln", layer.ffn_ln)
    _put_mlp(tensors, acts, "decoder.points_head", w.decoder.points_head)
    _put_mlp(tensors, acts, "decoder.score_head", w.decoder.score_head)
    for name in (
        "point_mlp",
        "concat_mlp",
        "query_mlp",
        "exist_col",
        "exist_row",
        "dir_col",
        "dir_row",
    ):
        _put_mlp(tensors, acts, f"mask_head.{name}", getattr(w.mask_head, name))
    for name in ("query_mlp", "points_mlp", "classifier"):
        _put_mlp(tensors, acts, f"topology.{name}", getattr(w.topology, name))
    for i, layer in enumerate(w.sd.layers):
        p = f"sd.layers.{i}"
        _put_ln(tensors, f"{p}.self_ln", layer.self_ln)
        _put_deform(tensors, f"{p}.self_deform", layer.self_deform)
        _put_ln(tensors, f"{p}.cross_ln", layer.cross_ln)
        _put_deform(tensors, f"{p}.cross_deform", layer.cross_deform)
        _put_ln(tensors, f"{p}.ffn_ln", layer.ffn_ln)
        _put_mlp(tensors, acts, f"{p}.ffn", layer.ffn)
    tensors["semantic_table"] = w.semantic_table
    meta = {
        "decoder_layers": len(w.decoder.layers),
        "sd_layers": len(w.sd.layers),
        "mlp_activations": acts,
    }
    return tensors, meta


def _get_mlp(tensors: dict, acts: dict, prefix: str) -> MlpWeights:
    layer_acts = acts[prefix]
    layers = []
    for i, act in enumerate(layer_acts):
        layers.append((tensors[f"{prefix}.{i}.w"], tensors[f"{prefix}.{i}.b"], act))
    return MlpWeights(layers)


def _get_ln(tensors: dict, prefix: str) -> LayerNormWeights:
    return LayerNormWeights(tensors[f"{prefix}.scale"], tensors[f"{prefix}.shift"])


def _get_deform(tensors: dict, prefix: str) -> DeformableWeights:
    return DeformableWeights(
        **{
            name: tensors[f"{prefix}.{name}"]
            for name in ("w_offset", "b_offset", "w_attn", "b_attn", "w_out", "b_out")
        }
    )


def model_weights_from_tensors(tensors: dict[str, np.ndarray], meta: dict) -> ModelWeights:
    acts = meta["mlp_activations"]
    dec_layers = []
    for i in range(meta["decoder_layers"]):
        p = f"decoder.layers.{i}"
        dec_layers.append(
            DecoderLayerWeights(
                masked_ln=_get_ln(tensors, f"{p}.masked_ln"),
                deform=_get_deform(tensors, f"{p}.deform"),
                deform_ln=_get_ln(tensors, f"{p}.deform_ln"),
                self_ln=_get_ln(tensors, f"{p}.self_ln"),
                ffn=_get_mlp(tensors, acts, f"{p}.ffn"),
                ffn_ln=_get_ln(tensors, f"{p}.ffn_ln"),
            )
        )
    decoder = DecoderWeights(
        real_queries=tensors["decoder.real_queries"],
        virtual_queries=tensors["decoder.virtual_queries"],
        init_ref_logits=tensors["decoder.init_ref_logits"],
        layers=dec_layers,
        points_head=_get_mlp(tensors, acts, "decoder.points_head"),
        score_head=_get_mlp(tensors, acts, "decoder.score_head"),
    )
    mask_head = MaskHeadWeights(
        **{
            name: _get_mlp(tensors, acts, f"mask_head.{name}")
            for name in (
                "point_mlp",
                "concat_mlp",
                "query_mlp",
                "exist_col",
                "exist_row",
                "dir_col",
                "dir_row",
            )
        }
    )
    topology = TopologyWeights(
        **{
            name: _get_mlp(tensors, acts, f"topology.{name}")
            for name in ("query_mlp", "points_mlp", "classifier")
        }
    )
    sd_layers = []
    for i in range(meta["sd_layers"]):
        p = f"sd.layers.{i}"
        sd_layers.append(
            SdLayerWeights(
                self_ln=_get_ln(tensors, f"{p}.self_ln"),
                self_deform=_get_deform(tensors, f"{p}.self_deform"),
                cross_ln=_get_ln(tensors, f"{p}.cross_ln"),
                cross_deform=_get_deform(tensors, f"{p}.cross_deform"),
                ffn_ln=_get_ln(tensors, f"{p}.ffn_ln"),
                ffn=_get_mlp(tensors, acts, f"{p}.ffn"),
            )
        )
    return ModelWeights(
        decoder=decoder,
        mask_head=mask_head,
        topology=topology,
        sd=SdInteractWeights(layers=sd_layers),
        semantic_table=tensors["semantic_table"],
    )


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
        tensors = {}
        for name, entry in blob["tensors"].items():
            raw = np.frombuffer(base64.b64decode(entry["data"]), dtype="<f8")
            tensors[name] = raw.reshape(entry["shape"]).astype(np.float64)
        return model_weights_from_tensors(tensors, blob["meta"])
    except KeyError as exc:
        raise ValueError(f"weights document lacks key {exc.args[0]!r}") from None
