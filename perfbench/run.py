"""The repository's benchmark: one workload per run, one JSON result line last.

    python3 perfbench/run.py --workload fast_hd --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run it from the repository root.  ``--trace 0`` measures the end-to-end
metrics listed in BENCHMARK.json; ``--trace 1`` runs an untraced phase and
then a traced phase and reports the per-layer metrics.  ``--workload all``
runs every workload, each in a fresh process.  The workload seed is the
only source of the inputs; the program receives only the generated images.
The exit code is 0 when a result was printed and 2 when the benchmark
could not run at all (for example, without the sources under ``src/``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from statistics import median, quantiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("fast_hd", "acv_hd_2t", "cli_qvga")
CHILD_TIMEOUT_S = 175

END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "pairs_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "epe_px": "px",
    "d1_pct": "%",
    "setup_s": "s",
}


def import_program():
    """Import the program from this checkout's ``src``; never an installed copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "stereo_costvol")):
        raise ImportError(f"no stereo_costvol package under {src}")
    sys.path.insert(0, src)
    import stereo_costvol
    if not os.path.abspath(stereo_costvol.__file__).startswith(src + os.sep):
        raise ImportError(f"stereo_costvol imported from {stereo_costvol.__file__}, not {src}")


def machine_info(seed: int, threads: int) -> dict:
    import numpy as np
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(os.path.join(base, entry, "level"), encoding="utf-8") as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "type"), encoding="utf-8") as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size"), encoding="utf-8") as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name', '')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "l2": caches.get("L2", ""),
        "l3": caches.get("L3", ""),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "pipeline_threads": threads,
        "seed": seed,
    }


def percentile(values, q):
    """Inclusive-method quantile q in (0, 1) of at least one value."""
    if len(values) == 1:
        return values[0]
    cuts = quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def run_workload(args) -> int:
    t_import = time.perf_counter()
    import_program()
    import numpy as np
    import bench_layers
    import bench_scenes
    from bench_trace import Tracer
    from bench_workloads import WORKLOADS, run_phase, setup
    import_s = time.perf_counter() - t_import

    wl = WORKLOADS[args.workload]
    threads = min(wl.threads, os.cpu_count() or 1)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        runner, setup_times, first, problems = setup(wl, args.seed, threads, workdir)
        accuracy = {}
        phase_s = args.seconds / 2.0 if args.trace else float(args.seconds)
        lat, stages, peak_elems, attempted, failures = run_phase(
            wl, runner, phase_s, first, accuracy)
        result = {"workload": wl.name,
                  "scene_set": bench_scenes.scene_set_summary(runner.scenes),
                  "machine": machine_info(args.seed, threads)}
        result.update(runner.describe())
        samples = lat or [float("nan")]
        untraced_ms = median(samples) * 1000.0
        if not args.trace:
            eps = [accuracy[k][0] for k in sorted(accuracy)]
            d1s = [accuracy[k][1] for k in sorted(accuracy)]
            values = {
                "latency_p50_ms": untraced_ms,
                "latency_p90_ms": percentile(samples, 0.9) * 1000.0,
                "pairs_per_s": len(lat) / max(sum(lat), 1e-12) if lat else 0.0,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "epe_px": float(np.mean(eps)) if eps else float("nan"),
                "d1_pct": float(np.mean(d1s)) if d1s else float("nan"),
                "setup_s": import_s + median(setup_times),
            }
            units = END_TO_END_UNITS
            result["setup_reps_s"] = setup_times
            result["import_s"] = import_s
            result["latency_samples"] = len(lat)
            result["fail_ratio"] = len(failures) / attempted
        else:
            scenes = runner.scenes
            truth = [bench_scenes.quarter_bins(s) for s in scenes]
            tracer = Tracer()

            def recall(hyp):
                bins, valid = truth[runner.current]
                return bench_layers.topk_recall(hyp.d_hyp, bins, valid)

            bench_layers.instrument(tracer, recall)
            try:
                t_lat, _, _, t_attempted, t_failures = run_phase(
                    wl, runner, phase_s, first, accuracy, tracer, pair_base=attempted)
            finally:
                tracer.restore()
            tracer.write(os.path.join(OUT_DIR, f"trace-{wl.name}-seed{args.seed}.json"))
            pairs = range(attempted, attempted + t_attempted)
            traced_ms = median(t_lat or [float("nan")]) * 1000.0
            values = bench_layers.per_layer_metrics(
                tracer.spans, pairs, stages, peak_elems, traced_ms, untraced_ms)
            units = bench_layers.PER_LAYER_UNITS
            result["traced_latency_p50_ms"] = traced_ms
            result["layer_share_of_traced_op"] = bench_layers.layer_shares(values, traced_ms)
            attempted += t_attempted
            failures += t_failures
        failures = problems + failures
        result["failures"] = failures[:20]
        print(json.dumps(result))
        for name, unit in units.items():
            print(f"{wl.name:10s} {name:45s} {values[name]:14.4f} {unit}")
        if not args.trace:
            print(f"{wl.name:10s} {'fail_ratio':45s} {result['fail_ratio']:14.4f} ratio")
        print(json.dumps({
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in a fresh process; prints their lines and a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, v in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # Thread hygiene: BLAS adds no threads of its own, so a workload's thread
    # count is exactly its ``threads``.  Set before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args)
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
