"""Command-line front end: match, eval, bench and selftest subcommands.

Exit codes: 0 success, 1 test or metric failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from statistics import median

from . import io_formats, metrics, selftest
from .pipeline import (
    MODES,
    PipelineConfig,
    RunReport,
    expected_volume_elements,
    run_pipeline,
)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _load_disparity(path: str):
    """Read a PFM or KITTI PNG disparity file to (map, mask)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:2] in (b"Pf", b"PF"):
        disp = io_formats.read_pfm(blob)
        return disp, metrics.EvalMask.full(disp.height, disp.width)
    return io_formats.read_kitti_disp_png(blob)


# ---------------------------------------------------------------------------
# match

def cmd_match(args) -> int:
    try:
        with open(args.left, "rb") as fh:
            left = io_formats.read_gray_image(fh.read())
        with open(args.right, "rb") as fh:
            right = io_formats.read_gray_image(fh.read())
    except (OSError, io_formats.FormatError) as exc:
        return _fail(str(exc))
    k = args.k if args.k is not None else min(24, max(1, args.dmax // 4))
    try:
        cfg = PipelineConfig(mode=args.mode, d_max=args.dmax, k=k, threads=args.threads)
        report = RunReport()
        disp = run_pipeline(left, right, cfg, report)
    except ValueError as exc:
        return _fail(str(exc))

    out_path = args.output or ("disparity.pfm" if args.format == "pfm" else "disparity.png")
    try:
        if args.format == "pfm":
            blob = io_formats.write_pfm(disp)
        else:
            blob = io_formats.write_kitti_disp_png(
                disp, metrics.EvalMask.full(disp.height, disp.width))
        with open(out_path, "wb") as fh:
            fh.write(blob)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))

    if args.json:
        print(json.dumps({"output": out_path, "format": args.format,
                          "report": report.to_dict()}, indent=2))
    else:
        print(f"wrote {out_path}")
        for line in report.lines():
            print(line)
    return 0


# ---------------------------------------------------------------------------
# eval

def cmd_eval(args) -> int:
    try:
        pred, _ = _load_disparity(args.pred)
        gt, gt_mask = _load_disparity(args.gt)
    except (OSError, io_formats.FormatError) as exc:
        return _fail(str(exc))
    if pred.data.shape != gt.data.shape:
        return _fail("prediction/ground-truth size mismatch")
    mask = gt_mask
    if args.mask:
        try:
            with open(args.mask, "rb") as fh:
                extra = io_formats.read_gray_image(fh.read())
        except (OSError, io_formats.FormatError) as exc:
            return _fail(str(exc))
        if extra.intensities.shape != gt.data.shape:
            return _fail("mask size mismatch")
        mask = mask.intersect(metrics.EvalMask(extra.intensities > 0))
    if mask.count == 0:
        return _fail("no valid pixels to evaluate")

    results = {
        "epe": metrics.epe(pred, gt, mask),
        "d1": metrics.d1(pred, gt, mask),
        "bad_1": metrics.bad_x(pred, gt, mask, 1.0),
        "bad_2": metrics.bad_x(pred, gt, mask, 2.0),
        "bad_3": metrics.bad_x(pred, gt, mask, 3.0),
    }
    if args.json:
        print(json.dumps({k: round(v, 2) for k, v in results.items()}, indent=2))
    else:
        print(f"EPE:   {results['epe']:.2f}")
        print(f"D1:    {results['d1']:.2f}")
        print(f"bad-1: {results['bad_1']:.2f}")
        print(f"bad-2: {results['bad_2']:.2f}")
        print(f"bad-3: {results['bad_3']:.2f}")
    return 0


# ---------------------------------------------------------------------------
# bench

def _parse_sizes(raw):
    sizes = []
    for token in raw.split(","):
        w, _, h = token.strip().partition("x")
        sizes.append((int(h), int(w)))
    return sizes


def _bench_case(cfg, height, width, runs, seed):
    disparity = min(8, max(1, width // 4 - 1))
    spec = io_formats.StereogramSpec(height, width, disparity, 0.5, seed)
    left, right, _, _ = io_formats.generate_stereogram(spec)
    reports = []
    for _ in range(runs + 1):  # first run is warmup
        rep = RunReport()
        run_pipeline(left, right, cfg, rep)
        reports.append(rep)
    timed = reports[1:]
    stage_ms = {stage: median(r.stage_ms[stage] for r in timed)
                for stage in timed[0].stage_ms}
    counts = timed[0].volume_elements
    for rep in timed:
        if rep.volume_elements != counts:
            raise AssertionError("volume element counts varied between runs")
    analytic = expected_volume_elements(cfg, height, width)
    return {
        "mode": cfg.mode, "height": height, "width": width, "d_max": cfg.d_max,
        "k": cfg.k if cfg.mode == "fast_acv" else None, "threads": cfg.threads,
        "stage_ms": stage_ms,
        "construction_plus_aggregation_ms":
            stage_ms["volume_construction"] + stage_ms["aggregation"],
        "volume_elements": counts,
        "analytic_elements": analytic,
        "counts_match_analytic": counts == analytic,
        "peak_volume_elements": timed[0].peak_volume_elements,
    }


def cmd_bench(args) -> int:
    if args.runs < 1:
        return _fail(f"--runs must be >= 1, got {args.runs}")
    if args.seed < 0:
        return _fail(f"--seed must be >= 0, got {args.seed}")
    k_tokens = [t.strip() for t in args.k_sweep.split(",")]
    for token in k_tokens:
        if not token.isdigit():
            return _fail(f"bad K value {token!r}")
    ks = [int(t) for t in k_tokens]
    modes = [m.strip() for m in args.modes.split(",")]
    try:
        sizes = _parse_sizes(args.sizes)
    except ValueError as exc:
        return _fail(f"bad sweep specification: {exc}")
    # A repeated token would run the same case twice and print its rows,
    # ratios and trends twice.
    for what, values in (("mode", modes), ("size", [f"{w}x{h}" for h, w in sizes]),
                         ("K", ks)):
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            return _fail(f"duplicate {what} {repeated[0]} in the sweep")

    # Only fast_acv reads K, so acv runs once per size.
    try:
        cases = [(PipelineConfig(mode=mode, d_max=args.dmax, k=k, threads=args.threads),
                  height, width)
                 for height, width in sizes for mode in modes
                 for k in (ks if mode == "fast_acv" else ks[:1])]
    except ValueError as exc:
        return _fail(str(exc))
    try:
        rows = [_bench_case(cfg, height, width, args.runs, args.seed)
                for cfg, height, width in cases]
    except (ValueError, AssertionError) as exc:
        return _fail(str(exc))

    acv_rows = {(r["height"], r["width"]): r for r in rows if r["mode"] == "acv"}
    ratios = []
    trends = []
    for row in rows:
        size = (row["height"], row["width"])
        if row["mode"] != "fast_acv" or size not in acv_rows:
            continue
        acv_row = acv_rows[size]
        corr_analytic = (row["analytic_elements"]["correlation"]
                         / acv_row["analytic_elements"]["correlation"])
        corr_measured = (row["volume_elements"]["correlation"]
                         / acv_row["volume_elements"]["correlation"])
        compact_analytic = (row["analytic_elements"]["compact_concat"]
                            / acv_row["analytic_elements"]["concat"])
        compact_measured = (row["volume_elements"]["compact_concat"]
                            / acv_row["volume_elements"]["concat"])
        ratios.append({
            "height": row["height"], "width": row["width"], "d_max": row["d_max"],
            "k": row["k"],
            "correlation_ratio_analytic": corr_analytic,
            "correlation_ratio_measured": corr_measured,
            "correlation_ratio_match": corr_analytic == corr_measured,
            "compact_ratio_analytic": compact_analytic,
            "compact_ratio_measured": compact_measured,
            "compact_ratio_match": compact_analytic == compact_measured,
        })
        trends.append({
            "height": row["height"], "width": row["width"], "k": row["k"],
            "threads": row["threads"],
            "fast_ms": row["construction_plus_aggregation_ms"],
            "acv_ms": acv_row["construction_plus_aggregation_ms"],
            "fast_below_acv":
                row["construction_plus_aggregation_ms"]
                < acv_row["construction_plus_aggregation_ms"],
        })

    if args.json:
        print(json.dumps({"rows": rows, "ratios": ratios, "trends": trends}, indent=2))
        return 0

    header = (f"{'mode':9s} {'size':9s} {'D':>4s} {'K':>4s} {'thr':>3s} "
              f"{'feat_ms':>9s} {'constr_ms':>10s} {'agg_ms':>8s} {'pred_ms':>8s} "
              f"{'corr_elems':>12s} {'peak_elems':>12s}")
    print(header)
    for r in rows:
        print(f"{r['mode']:9s} {r['width']}x{r['height']:<4d} {r['d_max']:4d} "
              f"{str(r['k'] or '-'):>4s} {r['threads']:3d} "
              f"{r['stage_ms']['feature_extraction']:9.1f} "
              f"{r['stage_ms']['volume_construction']:10.1f} "
              f"{r['stage_ms']['aggregation']:8.1f} "
              f"{r['stage_ms']['prediction']:8.1f} "
              f"{r['volume_elements']['correlation']:12d} "
              f"{r['peak_volume_elements']:12d}")
        if not r["counts_match_analytic"]:
            print("  WARNING: measured element counts deviate from analytic formulas")
    for rt in ratios:
        print(f"ratio {rt['width']}x{rt['height']} D={rt['d_max']} K={rt['k']}: "
              f"correlation analytic={rt['correlation_ratio_analytic']:.6f} "
              f"measured={rt['correlation_ratio_measured']:.6f} "
              f"match={'yes' if rt['correlation_ratio_match'] else 'NO'}; "
              f"compact analytic={rt['compact_ratio_analytic']:.6f} "
              f"measured={rt['compact_ratio_measured']:.6f} "
              f"match={'yes' if rt['compact_ratio_match'] else 'NO'}")
    for tr in trends:
        print(f"trend {tr['width']}x{tr['height']} K={tr['k']} threads={tr['threads']}: "
              f"fast constr+agg {tr['fast_ms']:.1f} ms vs acv {tr['acv_ms']:.1f} ms -> "
              f"{'fast wins' if tr['fast_below_acv'] else 'ACV WINS (unexpected)'}")
    return 0


# ---------------------------------------------------------------------------
# selftest

def cmd_selftest(args) -> int:
    if args.cases < 1:
        return _fail(f"--cases must be >= 1, got {args.cases}")
    if args.seed < 0:
        return _fail(f"--seed must be >= 0, got {args.seed}")
    return selftest.run_selftest(cases=args.cases, seed=args.seed)


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stereo-costvol",
        description="Attention-filtered cost volume stereo matcher and benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_match = sub.add_parser("match", help="compute a disparity map for a stereo pair")
    p_match.add_argument("left")
    p_match.add_argument("right")
    p_match.add_argument("--mode", choices=MODES, default="fast_acv")
    p_match.add_argument("--dmax", type=int, default=64)
    p_match.add_argument("--k", type=int, help="default: min(24, max(1, dmax // 4))")
    p_match.add_argument("--threads", type=int, default=1)
    p_match.add_argument("--format", choices=("pfm", "kitti"), default="pfm")
    p_match.add_argument("-o", "--output")
    p_match.add_argument("--json", action="store_true")
    p_match.set_defaults(func=cmd_match)

    p_eval = sub.add_parser("eval", help="score a disparity map against ground truth")
    p_eval.add_argument("pred")
    p_eval.add_argument("gt")
    p_eval.add_argument("--mask", help="extra validity mask image (nonzero = valid)")
    p_eval.add_argument("--json", action="store_true")
    p_eval.set_defaults(func=cmd_eval)

    p_bench = sub.add_parser("bench", help="time volume construction across configurations")
    p_bench.add_argument("--modes", default=",".join(MODES))
    p_bench.add_argument("--sizes", default="320x192",
                         help="comma-separated WxH image sizes")
    p_bench.add_argument("--dmax", type=int, default=192)
    p_bench.add_argument("--k-sweep", default="16,24,32,48", dest="k_sweep")
    p_bench.add_argument("--runs", type=int, default=5,
                         help="timed runs per case (after one warmup)")
    p_bench.add_argument("--threads", type=int, default=1)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--json", action="store_true")
    p_bench.set_defaults(func=cmd_bench)

    p_self = sub.add_parser("selftest", help="run the embedded oracle suite")
    p_self.add_argument("--cases", type=int, default=6)
    p_self.add_argument("--seed", type=int, default=0)
    p_self.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
