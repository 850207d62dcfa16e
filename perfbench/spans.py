"""In-memory span recorder for the traced benchmark run.

The recorder wraps public functions of the ``lanetopo`` modules at every
module attribute that holds them, so a call is traced whichever module its
caller looks the name up in. Nothing is wrapped unless :meth:`Tracer.install`
is called, and only the traced process calls it. A traced function that no
longer exists is skipped: its metrics are absent from the report.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

# <module>.<function> for every span the traced run reports
SPANS = (
    "scene.render_bev_features",
    "scene.render_gt_masks",
    "sdmap.rasterize_sdmap",
    "sdmap.sd_interact",
    "bev.bilinear_sample_batch",
    "decoder.decoder_forward",
    "decoder.masked_cross_attention",
    "decoder.deformable_cross_attention",
    "decoder.rvs_self_attention",
    "decoder.instance_mask_logits",
    "decoder.attention_mask_from_instance_masks",
    "points_mask.encode_mask_query",
    "points_mask.generate_mask",
    "points_mask.sample_mask_points",
    "points_mask.predict_existence",
    "points_mask.select_point_set",
    "points_mask.fuse_points",
    "topology.enhance_queries",
    "topology.predict_topology",
    "metrics.det_l",
    "metrics.top_ll",
    "metrics.mask_ap",
    "geometry.discrete_frechet",
    "pipeline.run_pipeline",
    "pipeline.evaluate_outputs",
    "pipeline.dump_predictions_json",
    "pipeline.evaluate_prediction_file",
    "pipeline.ablation_grid",
    "weights.init_model_weights",
)

# spans that run at set-up, not inside a timed op; reported per set-up
SETUP_SPANS = ("weights.init_model_weights",)

SETUP_OP = "setup"


# --- counters: each takes the bound call arguments and the result ------------


def count_bilinear_out(args: dict, result) -> dict[str, float]:
    """MB of samples returned, from the result's array size."""
    return {"bev.bilinear_sample_batch.out_mb": np.asarray(result).nbytes / 1e6}


def count_mask_fallbacks(args: dict, result) -> dict[str, float]:
    """Rows with no cell at or above the threshold, and rows seen.

    The row maximum decides the row because the sigmoid is monotone.
    """
    from lanetopo.bev import sigmoid

    logits = np.asarray(args["mask_logits"], dtype=np.float64)
    rows = logits.reshape(logits.shape[0], -1)
    threshold = args.get("threshold", 0.5)
    if rows.shape[1] == 0:
        fallback = rows.shape[0]
    else:
        fallback = int(np.sum(sigmoid(rows.max(axis=1)) < threshold))
    return {"decoder.mask_fallback_rows": fallback, "decoder.mask_rows": rows.shape[0]}


def count_fuse_fallback(args: dict, result) -> dict[str, float]:
    """1 when fusion returned the detected polyline unchanged."""
    detected = args["detected"]
    same = result is detected or np.array_equal(result.pts, detected.pts)
    return {"points_mask.fuse_fallbacks": int(same)}


def count_row_pick(args: dict, result) -> dict[str, float]:
    """1 when the rows readout was selected."""
    from lanetopo.points_mask import AXIS_ROWS

    return {"points_mask.row_picks": int(result.axis == AXIS_ROWS)}


def count_det_pairs(args: dict, result) -> dict[str, float]:
    return {"metrics.frechet_pairs": len(args["preds"]) * len(args["gts"])}


def count_top_pairs(args: dict, result) -> dict[str, float]:
    return {"metrics.frechet_pairs": len(args["pred_lines"]) * len(args["gt_lines"])}


def count_pred_bytes(args: dict, result) -> dict[str, float]:
    return {"pipeline.pred_bytes": len(result.encode("utf-8"))}


# span -> (counter, the keys it adds to)
COUNTERS = {
    "bev.bilinear_sample_batch": (count_bilinear_out, ("bev.bilinear_sample_batch.out_mb",)),
    "decoder.attention_mask_from_instance_masks": (
        count_mask_fallbacks, ("decoder.mask_fallback_rows", "decoder.mask_rows"),
    ),
    "points_mask.fuse_points": (count_fuse_fallback, ("points_mask.fuse_fallbacks",)),
    "points_mask.select_point_set": (count_row_pick, ("points_mask.row_picks",)),
    "metrics.det_l": (count_det_pairs, ("metrics.frechet_pairs",)),
    "metrics.top_ll": (count_top_pairs, ("metrics.frechet_pairs",)),
    "pipeline.dump_predictions_json": (count_pred_bytes, ("pipeline.pred_bytes",)),
}

# counter name -> the metric that is its base
COUNTER_BASES = {
    "bev.bilinear_sample_batch.out_mb": "bev.bilinear_sample_batch.calls",
    "decoder.mask_fallback_rows": "decoder.mask_rows",
    "decoder.mask_rows": "decoder.attention_mask_from_instance_masks.calls",
    "points_mask.fuse_fallbacks": "points_mask.fuse_points.calls",
    "points_mask.row_picks": "points_mask.select_point_set.calls",
    "metrics.frechet_pairs": "metrics.det_l.calls + metrics.top_ll.calls",
    "pipeline.pred_bytes": "pipeline.dump_predictions_json.calls",
}

COUNTER_UNITS = {
    "bev.bilinear_sample_batch.out_mb": "MB/op",
    "decoder.mask_fallback_rows": "rows/op",
    "decoder.mask_rows": "rows/op",
    "points_mask.fuse_fallbacks": "calls/op",
    "points_mask.row_picks": "calls/op",
    "metrics.frechet_pairs": "pairs/op",
    "pipeline.pred_bytes": "B/op",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: object

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children of a span never overlap and
    their durations add up to the part of the parent they cover.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


class Tracer:
    """Records spans (name, start, end, parent, op id) and counters in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[object, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.counter_errors: dict[str, str] = {}
        self.op: object = None
        self.enabled = True
        self.installed: list[str] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def install(self, package: str = "lanetopo") -> None:
        """Wrap every name in :data:`SPANS` at each module attribute holding it."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))
        ]
        for full in SPANS:
            mod_name, fn_name = full.split(".")
            home = sys.modules.get(f"{package}.{mod_name}")
            original = getattr(home, fn_name, None) if home is not None else None
            if not callable(original):
                self.missing.append(full)
                continue
            counter = COUNTERS.get(full, (None, ()))[0]
            wrapper = self._wrap(full, original, counter)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
            self.installed.append(full)

    def _wrap(self, name: str, fn, counter):
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            signature = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, 0.0, 0.0, parent, self.op)
            self.spans.append(span)
            self._stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None and name not in self.counter_errors:
                self._count(name, counter, signature, args, kwargs, result)
            return result

        return wrapper

    def _count(self, name, counter, signature, args, kwargs, result) -> None:
        # a renamed parameter or changed result type must not stop the run:
        # the counter is dropped and the reason reported
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            values = counter(dict(bound.arguments), result)
        except Exception as exc:  # noqa: BLE001 - reported, counter dropped
            self.counter_errors[name] = f"{type(exc).__name__}: {exc}"
            return
        bucket = self.counters[self.op]
        for key, value in values.items():
            bucket[key] += value

    def dump(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op": s.op}
            for s in self.spans
        ]


def summarize(tracer: Tracer, op_walls: dict[object, float]) -> dict[str, dict]:
    """Per-layer metrics averaged per timed op.

    ``op_walls`` maps each timed op id to its wall time. Span metrics are
    ``<span>.s`` (time), ``<span>.self_s`` (time minus child spans) and
    ``<span>.calls``, per timed op; set-up spans are per set-up instead.
    Counters are per timed op too. ``trace.self_cover`` is the median over
    ops of the summed self times divided by the op's wall time.
    """
    n_ops = len(op_walls)
    selfs = self_times(tracer.spans)
    total = defaultdict(float)
    self_total = defaultdict(float)
    calls = defaultdict(int)
    per_op_self = defaultdict(float)
    n_setups = 0
    for span, self_s in zip(tracer.spans, selfs):
        if span.op == SETUP_OP:
            if span.name not in SETUP_SPANS:
                continue
            n_setups += span.parent is None
        elif span.op not in op_walls:
            continue
        else:
            per_op_self[span.op] += self_s
        total[span.name] += span.duration
        self_total[span.name] += self_s
        calls[span.name] += 1

    out: dict[str, dict] = {}
    for name in tracer.installed:
        if name in SETUP_SPANS:
            base, per = max(n_setups, 1), "/setup"
        else:
            base, per = max(n_ops, 1), "/op"
        out[f"{name}.s"] = {"value": total[name] / base, "unit": "s" + per}
        out[f"{name}.self_s"] = {"value": self_total[name] / base, "unit": "s" + per}
        out[f"{name}.calls"] = {"value": calls[name] / base, "unit": "calls" + per}

    counter_total = defaultdict(float)
    for op, bucket in tracer.counters.items():
        if op in op_walls:
            for key, value in bucket.items():
                counter_total[key] += value
    for span_name, (_, keys) in COUNTERS.items():
        if span_name not in tracer.installed or span_name in tracer.counter_errors:
            continue
        for key in keys:
            out[key] = {"value": counter_total[key] / max(n_ops, 1), "unit": COUNTER_UNITS[key]}

    if op_walls:
        covers = [per_op_self[op] / wall for op, wall in op_walls.items() if wall > 0]
        out["trace.self_cover"] = {"value": float(np.median(covers)), "unit": "share"}
    out["trace.ops"] = {"value": n_ops, "unit": "count"}
    return out

