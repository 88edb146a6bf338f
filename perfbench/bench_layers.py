"""Which public functions the traced run wraps, and the per-layer metrics.

Each function is wrapped at the attribute its caller looks it up through,
so a call made by the program goes through the wrapper: ``run_fast_acv_pipeline``
finds ``build_compact_concat`` in ``stereo_costvol.pipeline``, ``build_mapm_volume``
finds ``mapm_level`` in ``stereo_costvol.acv``, and ``cmd_match`` finds
``read_gray_image`` as an attribute of ``stereo_costvol.io_formats``.  Spans are
named after the module that defines the function.  A layer's private helpers
(``_upsample_fast_volume``, ``_decode_gray_png``, ...) count as its self time.
"""

from __future__ import annotations

from statistics import median
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from stereo_costvol import acv, cli, fast_acv, io_formats, metrics, pipeline

from bench_trace import Span, Tracer, per_pair, self_times

MIB = float(1 << 20)

# (module the caller looks it up in, attribute, defining module)
CALL_SITES = [
    (pipeline, "run_pipeline", "pipeline"),
    (cli, "run_pipeline", "pipeline"),
    (pipeline, "build_feature_pyramid", "pipeline"),
    (pipeline, "compress_concat_volume", "pipeline"),
    (pipeline, "group_correlation", "volume_core"),
    (pipeline, "build_concat_volume", "volume_core"),
    (pipeline, "softmax_over_disparity", "volume_core"),
    (fast_acv, "softmax_over_disparity", "volume_core"),
    (pipeline, "soft_argmin", "volume_core"),
    (fast_acv, "soft_argmin", "volume_core"),
    (pipeline, "unfold_cross", "volume_core"),
    (pipeline, "build_mapm_volume", "acv"),
    (acv, "mapm_level", "acv"),
    (pipeline, "generate_attention_weights", "acv"),
    (pipeline, "attention_filter", "acv"),
    (pipeline, "build_compact_concat", "fast_acv"),
    (pipeline, "matching_score", "fast_acv"),
    (pipeline, "cross_propagate", "fast_acv"),
    (pipeline, "f2i_topk", "fast_acv"),
    (pipeline, "fast_attention_filter", "fast_acv"),
    (pipeline, "predict_from_hypotheses", "fast_acv"),
    (pipeline, "regress_initial_disparity", "fast_acv"),
    (pipeline, "estimate_uncertainty", "fast_acv"),
    (pipeline, "propagation_weights", "fast_acv"),
    (io_formats, "read_gray_image", "io_formats"),
    (io_formats, "read_kitti_disp_png", "io_formats"),
    (io_formats, "write_kitti_disp_png", "io_formats"),
    (metrics, "epe", "metrics"),
    (metrics, "d1", "metrics"),
    (metrics, "bad_x", "metrics"),
    (cli, "main", "cli"),
]

SELF_MS = [
    "pipeline.build_feature_pyramid", "pipeline.compress_concat_volume", "pipeline.run_pipeline",
    "volume_core.group_correlation", "volume_core.build_concat_volume",
    "volume_core.softmax_over_disparity", "volume_core.soft_argmin", "volume_core.unfold_cross",
    "acv.build_mapm_volume", "acv.mapm_level", "acv.generate_attention_weights",
    "acv.attention_filter",
    "fast_acv.build_compact_concat", "fast_acv.matching_score", "fast_acv.cross_propagate",
    "fast_acv.f2i_topk", "fast_acv.fast_attention_filter", "fast_acv.predict_from_hypotheses",
    "fast_acv.regress_initial_disparity", "fast_acv.estimate_uncertainty",
    "fast_acv.propagation_weights",
    "io_formats.read_gray_image", "io_formats.read_kitti_disp_png",
    "io_formats.write_kitti_disp_png",
    "cli.main",
]
# cmd_eval calls epe, d1 and bad_x (three times); together they are the metrics layer.
METRICS_EVAL = ["metrics.epe", "metrics.d1", "metrics.bad_x"]
MOVED_GB = ["volume_core.build_concat_volume", "acv.attention_filter",
            "fast_acv.build_compact_concat"]
MOVED_GBPS = ["volume_core.build_concat_volume", "fast_acv.build_compact_concat"]
DECODERS = ["io_formats.read_gray_image", "io_formats.read_kitti_disp_png"]
STAGES = ["feature_extraction", "volume_construction", "aggregation", "prediction"]

# name -> unit, in the order the output lists them
PER_LAYER_UNITS: Dict[str, str] = {}
for _n in SELF_MS:
    PER_LAYER_UNITS[f"{_n}.self_ms"] = "ms"
PER_LAYER_UNITS["metrics.eval.self_ms"] = "ms"
PER_LAYER_UNITS["pipeline.alloc_peak_mb"] = "MiB"
PER_LAYER_UNITS["pipeline.peak_volume_elements"] = "count"
for _s in STAGES:
    PER_LAYER_UNITS[f"stage.{_s}_ms"] = "ms"
for _n in MOVED_GB:
    PER_LAYER_UNITS[f"{_n}.gb"] = "GB"
for _n in MOVED_GBPS:
    PER_LAYER_UNITS[f"{_n}.gbps"] = "GB/s"
PER_LAYER_UNITS["acv.mapm_level.cpu_per_wall"] = "ratio"
PER_LAYER_UNITS["fast_acv.topk_recall"] = "ratio"
PER_LAYER_UNITS["io_formats.decode_mb_per_s"] = "MB/s"
PER_LAYER_UNITS["trace.overhead_pct"] = "%"


def _nbytes(x) -> int:
    data = getattr(x, "data", x)
    return data.nbytes if isinstance(data, np.ndarray) else 0


def moved_bytes(args, kwargs, result) -> Dict[str, float]:
    """Computed bytes moved: every array argument read plus the result written."""
    return {"bytes": float(sum(_nbytes(a) for a in (*args, *kwargs.values())) + _nbytes(result))}


def decoded_bytes(args, kwargs, result) -> Dict[str, float]:
    """Sample bytes a decoder produced: 1 per 8-bit pixel, 2 per 16-bit pixel."""
    if isinstance(result, tuple):  # read_kitti_disp_png: 16-bit disparities
        return {"bytes": 2.0 * result[0].data.size}
    return {"bytes": float(result.intensities.size)}


def instrument(tracer: Tracer, topk_recall: Callable[[object], float]):
    """Wrap every call site; ``topk_recall(hypotheses)`` scores each f2i_topk result."""
    hooks = {n: moved_bytes for n in MOVED_GB}
    hooks.update({n: decoded_bytes for n in DECODERS})
    hooks["fast_acv.f2i_topk"] = lambda a, k, r: {"recall": topk_recall(r)}
    for module, attr, owner in CALL_SITES:
        name = f"{owner}.{attr}"
        tracer.instrument(module, attr, name, hooks.get(name),
                          alloc=name == "pipeline.run_pipeline")


def _ratio_per_pair(num: List[float], den: List[float], scale: float) -> float:
    return median([n / d * scale if d > 0 else 0.0 for n, d in zip(num, den)])


def per_layer_metrics(spans: Sequence[Span], pairs: Sequence[int],
                      stage_ms: List[Dict[str, float]], peak_volume_elements: int,
                      traced_ms: float, untraced_ms: float) -> Dict[str, float]:
    """Every per-layer metric as the median over traced pairs.

    ``stage_ms`` and ``peak_volume_elements`` come from the program's own
    RunReport in the untraced phase; ``traced_ms``/``untraced_ms`` are the
    median operation latencies of the two phases.
    """
    own = self_times(spans)
    wall = [s.duration for s in spans]

    def attr(key):
        return [s.attrs.get(key, 0.0) for s in spans]

    def total(values, names):
        return per_pair(spans, values, names, pairs)

    out: Dict[str, float] = {}
    for n in SELF_MS:
        out[f"{n}.self_ms"] = median(total(own, [n])) * 1000.0
    out["metrics.eval.self_ms"] = median(total(own, METRICS_EVAL)) * 1000.0
    out["pipeline.alloc_peak_mb"] = median(
        total(attr("alloc_peak_bytes"), ["pipeline.run_pipeline"])) / MIB
    out["pipeline.peak_volume_elements"] = peak_volume_elements
    for st in STAGES:
        out[f"stage.{st}_ms"] = median(r.get(st, 0.0) for r in stage_ms)
    for n in MOVED_GB:
        out[f"{n}.gb"] = median(total(attr("bytes"), [n])) / 1e9
    for n in MOVED_GBPS:
        out[f"{n}.gbps"] = _ratio_per_pair(total(attr("bytes"), [n]), total(own, [n]), 1e-9)
    cpu = [s.cpu for s in spans]
    out["acv.mapm_level.cpu_per_wall"] = _ratio_per_pair(
        total(cpu, ["acv.mapm_level"]), total(wall, ["acv.mapm_level"]), 1.0)
    out["fast_acv.topk_recall"] = median(total(attr("recall"), ["fast_acv.f2i_topk"]))
    out["io_formats.decode_mb_per_s"] = _ratio_per_pair(
        total(attr("bytes"), DECODERS), total(own, DECODERS), 1e-6)
    out["trace.overhead_pct"] = (traced_ms / untraced_ms - 1.0) * 100.0
    return {k: out[k] for k in PER_LAYER_UNITS}


def topk_recall(d_hyp: np.ndarray, true_bins: np.ndarray, valid: np.ndarray) -> float:
    """Share of valid quarter-resolution pixels whose true bin is among the hypotheses."""
    hit = (np.asarray(d_hyp) == true_bins[None]).any(axis=0)
    return float(hit[valid].mean()) if valid.any() else 0.0


def layer_shares(metrics_: Dict[str, float], latency_ms: float) -> Optional[Dict[str, float]]:
    """Each layer's summed self time as a share of one traced operation (for the report)."""
    if latency_ms <= 0:
        return None
    shares: Dict[str, float] = {}
    for n in SELF_MS + ["metrics.eval"]:
        layer = n.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + metrics_[f"{n}.self_ms"]
    return {k: v / latency_ms for k, v in shares.items()}
