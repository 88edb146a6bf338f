import json
import struct
import zlib

import numpy as np
import pytest

from stereo_costvol import cli, selftest
from stereo_costvol.io_formats import (
    StereogramSpec,
    generate_stereogram,
    read_pfm,
    write_kitti_disp_png,
    write_pfm,
    write_pgm,
)
from stereo_costvol.metrics import EvalMask
from stereo_costvol.volume_core import DisparityMap


@pytest.fixture
def pair(tmp_path):
    left, right, gt, mask = generate_stereogram(StereogramSpec(64, 128, 8, 0.5, 3))
    paths = {}
    for name, img in (("left", left), ("right", right)):
        p = tmp_path / f"{name}.pgm"
        p.write_bytes(write_pgm(img))
        paths[name] = str(p)
    gt_path = tmp_path / "gt.pfm"
    gt_path.write_bytes(write_pfm(gt))
    paths["gt"] = str(gt_path)
    return paths


# ---------------------------------------------------------------------------
# match

def test_match_smoke(pair, tmp_path, capsys):
    out = tmp_path / "out.pfm"
    code = cli.main(["match", pair["left"], pair["right"],
                     "--mode", "fast_acv", "--dmax", "32", "--k", "8",
                     "-o", str(out)])
    assert code == 0
    disp = read_pfm(out.read_bytes())
    assert disp.data.shape == (64, 128)
    assert "volume correlation" in capsys.readouterr().out


def test_match_acv_on_eight_row_frames(tmp_path):
    left, right, _, _ = generate_stereogram(StereogramSpec(8, 16, 2, 0.5, 4))
    paths = []
    for name, img in (("left", left), ("right", right)):
        paths.append(tmp_path / f"{name}.pgm")
        paths[-1].write_bytes(write_pgm(img))
    out = tmp_path / "out.pfm"
    code = cli.main(["match", str(paths[0]), str(paths[1]), "--mode", "acv",
                     "--dmax", "16", "-o", str(out)])
    assert code == 0
    assert read_pfm(out.read_bytes()).data.shape == (8, 16)


def test_match_kitti_output(pair, tmp_path):
    out = tmp_path / "out.png"
    code = cli.main(["match", pair["left"], pair["right"],
                     "--dmax", "32", "--k", "8", "--format", "kitti",
                     "-o", str(out)])
    assert code == 0
    assert out.read_bytes()[:8] == b"\x89PNG\r\n\x1a\n"


def test_match_size_mismatch_exits_two(pair, tmp_path, capsys):
    small = tmp_path / "small.pgm"
    left, _, _, _ = generate_stereogram(StereogramSpec(32, 64, 4, 0.5, 0))
    small.write_bytes(write_pgm(left))
    code = cli.main(["match", pair["left"], str(small), "-o", str(tmp_path / "x.pfm")])
    assert code == 2
    assert "image size mismatch" in capsys.readouterr().err


def test_match_rejects_indivisible_dmax(pair, tmp_path, capsys):
    code = cli.main(["match", pair["left"], pair["right"],
                     "--mode", "acv", "--dmax", "63", "-o", str(tmp_path / "x.pfm")])
    assert code == 2
    assert "multiple of 4" in capsys.readouterr().err


def test_match_missing_file_exits_two(pair, tmp_path):
    code = cli.main(["match", pair["left"], str(tmp_path / "nope.pgm"),
                     "-o", str(tmp_path / "x.pfm")])
    assert code == 2


def test_match_json_report(pair, tmp_path, capsys):
    out = tmp_path / "out.pfm"
    code = cli.main(["match", pair["left"], pair["right"], "--dmax", "32",
                     "--k", "8", "--json", "-o", str(out)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["mode"] == "fast_acv"
    assert payload["report"]["volume_elements"]["correlation"] > 0


@pytest.mark.parametrize("flag,value", [("--temperature", "48"),
                                        ("--regularizer", "box3d"),
                                        ("--box-radius", "1"),
                                        ("--config", "run.cfg")])
def test_match_rejects_temperature_flag(pair, tmp_path, flag, value):
    out = tmp_path / "x.pfm"
    with pytest.raises(SystemExit) as exc:
        cli.main(["match", pair["left"], pair["right"], flag, value, "-o", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("argv, d_max, k", [([], 64, 16),
                                             (["--dmax", "32"], 32, 8),
                                             (["--dmax", "192"], 192, 24)])
def test_match_defaults(pair, tmp_path, capsys, argv, d_max, k):
    out = tmp_path / "out"
    code = cli.main(["match", pair["left"], pair["right"], *argv, "--json", "-o", str(out)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["format"] == "pfm"
    config = payload["report"]["config"]
    assert (config["mode"], config["d_max"], config["k"], config["threads"]) == \
        ("fast_acv", d_max, k, 1)
    assert read_pfm(out.read_bytes()).data.shape == (64, 128)


def test_thread_environment_variable_is_not_read(pair, tmp_path, capsys, monkeypatch):
    # --threads, defaulting to 1, is the only source of the thread count.
    monkeypatch.setenv("STEREO_COSTVOL_THREADS", "0")
    code = cli.main(["match", pair["left"], pair["right"], "--dmax", "32", "--json",
                     "-o", str(tmp_path / "o.pfm")])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["report"]["config"]["threads"] == 1
    code = cli.main(["bench", "--modes", "fast_acv", "--sizes", "64x64", "--dmax", "16",
                     "--k-sweep", "4", "--runs", "1", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["rows"][0]["threads"] == 1


def test_match_malformed_pgm_exits_two(pair, tmp_path, capsys):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P5\n2 1\n200\n" + bytes([10, 255]))
    code = cli.main(["match", str(bad), pair["right"], "-o", str(tmp_path / "x.pfm")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def _gray_png(w, h, ihdr_len=13, flip_iend_crc=False, rows=None):
    """8-bit grayscale PNG of zero pixels; IHDR cut or zero-padded to ihdr_len bytes.

    rows replaces the filtered scanlines that IDAT compresses.
    """
    ihdr = (struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0) + b"\x00")[:ihdr_len]
    if rows is None:
        rows = b"\x00" * (h * (w + 1))
    chunks = [(b"IHDR", ihdr), (b"IDAT", zlib.compress(rows)),
              (b"IEND", b"")]
    blob = b"\x89PNG\r\n\x1a\n"
    for tag, body in chunks:
        crc = zlib.crc32(tag + body) ^ (1 if flip_iend_crc and tag == b"IEND" else 0)
        blob += struct.pack(">I", len(body)) + tag + body + struct.pack(">I", crc)
    return blob


@pytest.mark.parametrize("blob,message", [
    (_gray_png(128, 64, ihdr_len=5), "13 bytes"),
    (_gray_png(128, 64, ihdr_len=14), "13 bytes"),
    (_gray_png(0, 64), "empty"),
    (_gray_png(128, 0), "empty"),
    (_gray_png(128, 64, flip_iend_crc=True), "CRC"),
    (_gray_png(8, 8, rows=bytes(16 << 20)), "size mismatch"),
], ids=["ihdr-5-bytes", "ihdr-14-bytes", "zero-width", "zero-height", "bad-iend-crc",
        "inflates-past-size"])
def test_match_malformed_png_exits_two(pair, tmp_path, capsys, blob, message):
    bad = tmp_path / "bad.png"
    bad.write_bytes(blob)
    code = cli.main(["match", str(bad), pair["right"], "-o", str(tmp_path / "x.pfm")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and message in err


# ---------------------------------------------------------------------------
# eval

def test_eval_perfect_prediction(pair, tmp_path, capsys):
    code = cli.main(["eval", pair["gt"], pair["gt"]])
    assert code == 0
    out = capsys.readouterr().out
    assert "EPE:   0.00" in out
    assert "D1:    0.00" in out
    assert "bad-3: 0.00" in out


def test_eval_four_pixel_fixture(tmp_path, capsys):
    gt = DisparityMap(np.array([[100.0, 10.0], [5.0, 5.0]]))
    pred = DisparityMap(np.array([[104.0, 14.0], [5.0, 6.5]]))
    gt_p, pred_p = tmp_path / "gt.pfm", tmp_path / "pred.pfm"
    gt_p.write_bytes(write_pfm(gt))
    pred_p.write_bytes(write_pfm(pred))
    code = cli.main(["eval", str(pred_p), str(gt_p)])
    assert code == 0
    out = capsys.readouterr().out
    assert "EPE:   2.38" in out     # mean of |4, 4, 0, 1.5|
    assert "D1:    25.00" in out    # only gt=10 pixel exceeds max(3, 0.05 gt)
    assert "bad-1: 75.00" in out
    assert "bad-2: 50.00" in out
    assert "bad-3: 50.00" in out


def test_eval_kitti_ground_truth_mask(tmp_path, capsys):
    raw = np.array([[256, 0], [512, 1024]], dtype=np.uint16)
    gt = DisparityMap(raw.astype(np.float64) / 256.0)
    gt_p = tmp_path / "gt.png"
    gt_p.write_bytes(write_kitti_disp_png(gt, EvalMask(raw > 0)))
    pred = DisparityMap(np.array([[1.0, 500.0], [2.0, 4.0]]))  # invalid pixel wild
    pred_p = tmp_path / "pred.pfm"
    pred_p.write_bytes(write_pfm(pred))
    code = cli.main(["eval", str(pred_p), str(gt_p), "--json"])
    assert code == 0
    scores = json.loads(capsys.readouterr().out)
    assert scores["epe"] == 0.0     # the wild pixel is masked out


def test_eval_non_finite_pfm_scale_exits_two(tmp_path, capsys):
    gt = tmp_path / "gt.pfm"
    gt.write_bytes(write_pfm(DisparityMap(np.zeros((1, 2)))))
    bad = tmp_path / "bad.pfm"
    bad.write_bytes(b"Pf\n2 1\nnan\n" + b"\x00" * 8)
    assert cli.main(["eval", str(bad), str(gt)]) == 2
    assert "malformed PFM header" in capsys.readouterr().err


def test_eval_shape_mismatch(tmp_path, capsys):
    a = tmp_path / "a.pfm"
    b = tmp_path / "b.pfm"
    a.write_bytes(write_pfm(DisparityMap(np.zeros((2, 2)))))
    b.write_bytes(write_pfm(DisparityMap(np.zeros((3, 3)))))
    assert cli.main(["eval", str(a), str(b)]) == 2


# ---------------------------------------------------------------------------
# bench

def test_bench_counts_are_linear_in_k(capsys):
    code = cli.main(["bench", "--modes", "fast_acv", "--sizes", "128x64",
                     "--dmax", "32", "--k-sweep", "2,4,8", "--runs", "1", "--json"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    counts = {r["k"]: r["volume_elements"]["compact_concat"] for r in rows}
    assert counts[4] == 2 * counts[2]
    assert counts[8] == 4 * counts[2]


def test_bench_ratio_and_trend(capsys):
    # size chosen large enough that the construction-time gap dwarfs timer noise
    code = cli.main(["bench", "--sizes", "256x128", "--dmax", "32",
                     "--k-sweep", "4", "--runs", "3", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    ratio = payload["ratios"][0]
    assert ratio["correlation_ratio_match"] and ratio["compact_ratio_match"]
    assert ratio["compact_ratio_analytic"] == 4 / 8
    assert payload["trends"][0]["fast_below_acv"] is True


def test_bench_run_count_changes_only_timings(capsys):
    outs = []
    for runs in ("1", "3"):
        code = cli.main(["bench", "--modes", "fast_acv", "--sizes", "64x64",
                         "--dmax", "16", "--k-sweep", "4", "--runs", runs, "--json"])
        assert code == 0
        outs.append(json.loads(capsys.readouterr().out)["rows"][0])
    assert outs[0]["volume_elements"] == outs[1]["volume_elements"]
    assert outs[0]["peak_volume_elements"] == outs[1]["peak_volume_elements"]


@pytest.mark.parametrize("runs", ["0", "-1"])
def test_bench_rejects_runs_below_one(capsys, runs):
    code = cli.main(["bench", "--modes", "fast_acv", "--sizes", "64x64",
                     "--dmax", "16", "--k-sweep", "4", "--runs", runs])
    assert code == 2
    assert f"--runs must be >= 1, got {runs}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["bench", "--modes", "fast_acv", "--sizes", "64x64", "--dmax", "16",
     "--k-sweep", "4", "--runs", "1"],
    ["selftest", "--cases", "1"],
])
def test_negative_seed_is_a_usage_error(capsys, argv):
    # numpy rejects a negative seed, but its message does not name the flag.
    assert cli.main(argv + ["--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert "--seed must be >= 0, got -1" in captured.err
    assert captured.out == ""


def test_bench_rejects_bad_k(capsys):
    assert cli.main(["bench", "--dmax", "32", "--k-sweep", "64"]) == 2
    assert "got 64" in capsys.readouterr().err


def test_bench_rejects_unknown_mode(capsys):
    assert cli.main(["bench", "--modes", "foo", "--sizes", "64x64", "--dmax", "16",
                     "--k-sweep", "4", "--runs", "1"]) == 2
    captured = capsys.readouterr()
    assert "'foo'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flag, value, message", [
    ("--modes", "fast_acv,fast_acv", "duplicate mode fast_acv"),
    ("--sizes", "64x64,128x64, 64x64", "duplicate size 64x64"),
    ("--k-sweep", "4,2,04", "duplicate K 4"),
])
def test_bench_rejects_duplicate_tokens(capsys, flag, value, message):
    args = {"--modes": "fast_acv", "--sizes": "64x64", "--k-sweep": "4"}
    args[flag] = value
    argv = ["bench", "--dmax", "16", "--runs", "1"]
    for key, val in args.items():
        argv += [key, val]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_bench_ignores_k_sweep_without_fast_acv(capsys):
    # acv reads no K, so the default sweep (up to 48) does not limit its dmax.
    code = cli.main(["bench", "--modes", "acv", "--sizes", "64x64", "--dmax", "32",
                     "--runs", "1", "--json"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [(r["mode"], r["k"]) for r in rows] == [("acv", None)]


# ---------------------------------------------------------------------------
# selftest

def test_selftest_passes(capsys):
    assert cli.main(["selftest", "--cases", "2"]) == 0
    out = capsys.readouterr().out
    ok_lines = [l for l in out.splitlines() if l.startswith("ok ")]
    assert len(ok_lines) >= 25


@pytest.mark.parametrize("cases", ["0", "-1"])
def test_selftest_rejects_cases_below_one(capsys, cases):
    # No randomized instance would run, so the suite could not fail.
    assert cli.main(["selftest", "--cases", cases]) == 2
    captured = capsys.readouterr()
    assert f"--cases must be >= 1, got {cases}" in captured.err
    assert "operations passed" not in captured.out


def test_selftest_names_corrupted_operation(monkeypatch):
    # inject a wrong smooth-L1 breakpoint and expect the suite to name it
    def broken(pred, gt, mask):
        import numpy as _np
        from stereo_costvol.metrics import _masked_errors
        p, g = _masked_errors(pred, gt, mask)
        e = _np.abs(p - g)
        rho = _np.where(e < 2.0, 0.5 * e * e, e - 0.5)  # breakpoint should be 1.0
        return float(rho.mean())

    monkeypatch.setattr("stereo_costvol.metrics.smooth_l1", broken)
    lines = []
    code = selftest.run_selftest(cases=3, emit=lines.append)
    assert code == 1
    assert any(l.startswith("FAIL smooth_l1") for l in lines)
    assert "selftest failed at smooth_l1" in lines[-1]
