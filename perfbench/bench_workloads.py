"""The benchmark's workloads: what one operation is and how its output is checked.

Every workload is a closed loop with one client: the next pair is sent only
after the previous one returns.  A run cycles through a fixed scene set
drawn from the workload seed, so accuracy repeats exactly for a seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from stereo_costvol import cli, io_formats, metrics, pipeline
from stereo_costvol.volume_core import DisparityMap

import bench_png
import bench_scenes


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    width: int
    height: int
    d_max: int
    k: int
    threads: int
    scenes: int
    via_cli: bool = False


WORKLOADS = {w.name: w for w in (
    # The paper's headline path at the 960x512 reference config, single
    # threaded: the compact build and VAP do the work; the full-ACV, PNG and
    # CLI layers are idle.
    Workload("fast_hd", "fast_acv", 960, 512, 192, 24, 1, 8),
    # The full attention-concatenation path: the only one that uses the
    # disparity thread pool heavily, with a working set (~0.8 GB) far beyond
    # L3.  The fast_acv, PNG and CLI layers are idle.
    Workload("acv_hd_2t", "acv", 960, 512, 192, 24, 2, 8),
    # CLI match + eval on PNG files written with per-row filters, as dataset
    # files are: PNG decoding and the CLI are busy, and the pipeline runs in
    # cache with the pool on its smallest slices, so a threading or chunking
    # change that costs small images shows here.  Decode time depends on
    # which filters the rows chose, so a larger scene set keeps the
    # per-seed mix, and the latency, steady.
    Workload("cli_qvga", "fast_acv", 320, 192, 192, 24, 2, 48, via_cli=True),
)}
# Scene generation, file writing and the warm-up pair are timed this many
# times per run; setup_s reports the median.
SETUP_REPS = 5


@dataclass
class Outcome:
    """What one operation produced, as the checks and metrics need it."""

    disparity: Optional[np.ndarray] = None
    digest: str = ""
    stage_ms: Dict[str, float] = field(default_factory=dict)
    peak_volume_elements: int = 0
    error: Optional[str] = None


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class PipelineRunner:
    """One operation is ``run_pipeline`` on a generated pair, in process."""

    def __init__(self, wl: Workload, seed: int, threads: int):
        self.wl = wl
        self.scenes = bench_scenes.make_scene_set(seed, wl.scenes, wl.height, wl.width, wl.d_max)
        self.cfg = pipeline.PipelineConfig(mode=wl.mode, d_max=wl.d_max, k=wl.k,
                                           threads=threads)

    def inputs_digest(self) -> str:
        return digest(*[a for s in self.scenes
                        for a in (s.left.intensities, s.right.intensities, s.gt.data,
                                  s.mask.valid)])

    def verify_files(self) -> Optional[str]:
        return None

    def describe(self) -> dict:
        return {}

    def run(self, i: int):
        self.current = i
        s = self.scenes[i]
        report = pipeline.RunReport()
        return pipeline.run_pipeline(s.left, s.right, self.cfg, report), report

    def inspect(self, i: int, raw) -> Outcome:
        disp, report = raw
        data = np.asarray(disp.data)
        return Outcome(data, digest(data), dict(report.stage_ms), report.peak_volume_elements)


class CliRunner:
    """One operation is ``cli.main(["match", ...])`` then ``cli.main(["eval", ...])``.

    Inputs and ground truth are written once, as PNG files with a filter
    chosen per row, into ``workdir``.
    """

    def __init__(self, wl: Workload, seed: int, threads: int, workdir: str):
        self.wl = wl
        self.threads = threads
        self.scenes = bench_scenes.make_scene_set(seed, wl.scenes, wl.height, wl.width, wl.d_max)
        self.files: List[Dict[str, str]] = []
        self.filter_counts = np.zeros(bench_png.N_FILTERS, dtype=np.int64)
        self.written = hashlib.sha256()
        for i, s in enumerate(self.scenes):
            names = {}
            sources = {
                "left": bench_png.image_to_png(s.left.intensities),
                "right": bench_png.image_to_png(s.right.intensities),
                "gt": bench_png.encode_gray(bench_png.kitti_raw(s.gt.data, s.mask.valid), 16),
            }
            for role, (blob, types) in sources.items():
                path = os.path.join(workdir, f"scene{i:02d}_{role}.png")
                with open(path, "wb") as fh:
                    fh.write(blob)
                self.written.update(blob)
                self.filter_counts += np.bincount(types, minlength=bench_png.N_FILTERS)
                names[role] = path
            names["pred"] = os.path.join(workdir, f"scene{i:02d}_pred.png")
            self.files.append(names)

    def inputs_digest(self) -> str:
        return self.written.hexdigest()

    def verify_files(self) -> Optional[str]:
        """Decode every written file with the repository's reader; it must equal its source."""
        for s, names in zip(self.scenes, self.files):
            for role in ("left", "right"):
                src = np.clip(np.round(getattr(s, role).intensities * 255.0), 0, 255)
                with open(names[role], "rb") as fh:
                    back = io_formats.read_gray_image(fh.read())
                if not np.array_equal(back.intensities, src.astype(np.float32) / 255.0):
                    return f"{names[role]} does not decode to its source image"
            raw = bench_png.kitti_raw(s.gt.data, s.mask.valid)
            with open(names["gt"], "rb") as fh:
                disp, mask = io_formats.read_kitti_disp_png(fh.read())
            if not (np.array_equal(disp.data * 256.0, raw) and np.array_equal(mask.valid, raw > 0)):
                return f"{names['gt']} does not decode to its source disparities"
        return None

    def describe(self) -> dict:
        """Rows per PNG filter type over every written file."""
        names = ("none", "sub", "up", "average", "paeth")
        return {"png_filter_rows": dict(zip(names, self.filter_counts.tolist()))}

    def run(self, i: int):
        self.current = i
        f = self.files[i]
        match_out, eval_out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(match_out):
            rc_match = cli.main(["match", f["left"], f["right"], "--dmax", str(self.wl.d_max),
                                 "--k", str(self.wl.k), "--threads", str(self.threads),
                                 "--format", "kitti", "-o", f["pred"], "--json"])
        with contextlib.redirect_stdout(eval_out):
            rc_eval = cli.main(["eval", f["pred"], f["gt"], "--json"])
        return rc_match, rc_eval, match_out.getvalue(), eval_out.getvalue()

    def inspect(self, i: int, raw) -> Outcome:
        rc_match, rc_eval, match_text, eval_text = raw
        if rc_match != 0 or rc_eval != 0:
            return Outcome(error=f"cli exit codes match={rc_match} eval={rc_eval}")
        with open(self.files[i]["pred"], "rb") as fh:
            blob = fh.read()
        disp, _ = io_formats.read_kitti_disp_png(blob)
        report = json.loads(match_text)["report"]
        out = Outcome(disp.data, hashlib.sha256(blob).hexdigest(), report["stage_ms"],
                      report["peak_volume_elements"])
        # eval prints EPE rounded to 2 decimals; it must agree with the
        # benchmark's own EPE on the generator's mask.
        s = self.scenes[i]
        cli_epe = json.loads(eval_text)["epe"]
        own = metrics.epe(disp, s.gt, s.mask)
        if abs(cli_epe - own) > 0.005 + 1e-9:
            out.error = f"eval reports EPE {cli_epe}, expected {own:.4f}"
        return out


def make_runner(wl: Workload, seed: int, threads: int, workdir: str):
    if wl.via_cli:
        return CliRunner(wl, seed, threads, workdir)
    return PipelineRunner(wl, seed, threads)


def check_outcome(wl: Workload, out: Outcome, first: Dict[int, str], i: int) -> Optional[str]:
    """Why an operation's output is wrong, or None.

    Wrong means: the shape is not the frame's, a value is not finite or
    falls outside [0, D], or the output differs bitwise from the first
    output this run produced for the same input.
    """
    if out.error:
        return out.error
    d = out.disparity
    if d is None or d.shape != (wl.height, wl.width):
        return f"disparity shape {None if d is None else d.shape}"
    if not np.all(np.isfinite(d)):
        return "non-finite disparity"
    if d.min() < 0.0 or d.max() > wl.d_max:
        return f"disparity outside [0, {wl.d_max}]: [{d.min()}, {d.max()}]"
    if first.setdefault(i, out.digest) != out.digest:
        return "output differs from the first output for the same input"
    return None


def run_phase(wl, runner, seconds, first, accuracy, tracer=None, pair_base=0):
    """Closed loop over the scene set for ``seconds`` and at least one full cycle.

    Returns (latencies_s of passing operations, stage_ms per passing
    operation, peak volume elements, attempted, failures).
    """
    latencies, stages, failures = [], [], []
    peak_elems = 0
    n = len(runner.scenes)
    i = 0
    start = time.perf_counter()
    while i < n or time.perf_counter() - start < seconds:
        scene = i % n
        if tracer is not None:
            tracer.pair = pair_base + i
        t0 = time.perf_counter()
        try:
            raw = runner.run(scene)
            error = None
        except Exception as exc:  # an operation that raises is a failure, not a crash
            raw, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.pair = None
        if error is None:
            try:
                out = runner.inspect(scene, raw)
                error = check_outcome(wl, out, first, scene)
            except Exception as exc:
                error = f"unreadable output: {type(exc).__name__}: {exc}"
        if error is None:
            latencies.append(elapsed)
            stages.append(out.stage_ms)
            peak_elems = out.peak_volume_elements
            if scene not in accuracy:
                s = runner.scenes[scene]
                pred = DisparityMap(np.asarray(out.disparity, dtype=np.float64))
                accuracy[scene] = (metrics.epe(pred, s.gt, s.mask), metrics.d1(pred, s.gt, s.mask))
        else:
            failures.append(f"scene {scene}: {error}")
        i += 1
    return latencies, stages, peak_elems, i, failures


def setup(wl, seed, threads, workdir):
    """Scene generation, file writing and one warm-up pair, SETUP_REPS times.

    Every repetition must rebuild bitwise-identical inputs.  Returns the
    last runner, the per-repetition times, the first outputs and problems.
    """
    times, problems, first, digests = [], [], {}, set()
    for _ in range(SETUP_REPS):
        runner = None  # free the previous repetition's scenes before building new ones
        t0 = time.perf_counter()
        runner = make_runner(wl, seed, threads, workdir)
        try:
            raw = runner.run(0)
            times.append(time.perf_counter() - t0)
            error = check_outcome(wl, runner.inspect(0, raw), first, 0)
        except Exception as exc:
            times.append(time.perf_counter() - t0)
            error = f"{type(exc).__name__}: {exc}"
        if error:
            problems.append(f"warm-up: {error}")
        digests.add(runner.inputs_digest())
    if len(digests) != 1:
        problems.append("the same seed produced different inputs")
    bad = runner.verify_files()
    if bad:
        problems.append(bad)
    return runner, times, first, problems
