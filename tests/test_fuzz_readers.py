"""Seeded mutation fuzzing of the file readers and the CLI commands that use them.

Each blob is a valid file with one mutation: a truncation, a few flipped
bits or a few inserted bytes.  A reader may decode it or raise FormatError;
any other exception escapes as a crash.  The CLI must turn every rejected
file into exit code 2.
"""

import os
import sys

import numpy as np
import pytest

from stereo_costvol import cli
from stereo_costvol.io_formats import (
    FormatError,
    GrayImage,
    read_gray_image,
    read_kitti_disp_png,
    read_pfm,
    write_gray_png,
    write_kitti_disp_png,
    write_pfm,
    write_pgm,
)
from stereo_costvol.metrics import EvalMask
from stereo_costvol.volume_core import DisparityMap

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

import bench_png  # noqa: E402

BLOBS_PER_READER = 2000
CLI_BLOBS = 6


def _mutate(rng, blob):
    out = bytearray(blob)
    kind = int(rng.integers(3))
    if kind == 0:
        del out[int(rng.integers(len(out))):]
    elif kind == 1:
        for _ in range(int(rng.integers(1, 5))):
            out[int(rng.integers(len(out)))] ^= 1 << int(rng.integers(8))
    else:
        pos = int(rng.integers(len(out) + 1))
        out[pos:pos] = rng.integers(0, 256, size=int(rng.integers(1, 9))).astype(np.uint8).tobytes()
    return bytes(out)


def _valid_files(rng):
    h, w = 6, 9
    img = GrayImage(rng.random((h, w)).astype(np.float32))
    disp = DisparityMap(np.round(rng.random((h, w)) * 50 * 256) / 256)
    mask = EvalMask(rng.random((h, w)) < 0.8)
    return {
        "gray_png": (write_gray_png(img), read_gray_image),
        "kitti_png": (write_kitti_disp_png(disp, mask), read_kitti_disp_png),
        "pfm": (write_pfm(disp), read_pfm),
        # The repository's writer emits only filter None; these files carry
        # a filter chosen per row, as dataset files do.
        "gray_png_filtered": (bench_png.image_to_png(img.intensities)[0], read_gray_image),
        "kitti_png_filtered": (bench_png.encode_gray(
            bench_png.kitti_raw(disp.data, mask.valid), 16)[0], read_kitti_disp_png),
    }


def _rejected(kind, seed, count):
    """Mutated blobs of one file kind that its reader rejects, in seed order."""
    rng = np.random.default_rng(seed)
    blob, reader = _valid_files(rng)[kind]
    out = []
    for _ in range(count):
        bad = _mutate(rng, blob)
        try:
            reader(bad)
        except FormatError:
            out.append(bad)
    return out


@pytest.mark.parametrize("kind", ["gray_png", "kitti_png", "pfm",
                                  "gray_png_filtered", "kitti_png_filtered"])
def test_mutated_files_raise_only_format_error(kind):
    # Any exception other than FormatError fails the test with its traceback.
    rejected = _rejected(kind, 11, BLOBS_PER_READER)
    assert len(rejected) > BLOBS_PER_READER // 4


@pytest.mark.parametrize("kind", ["gray_png", "kitti_png", "pfm",
                                  "gray_png_filtered", "kitti_png_filtered"])
def test_cli_exits_two_on_rejected_files(kind, tmp_path, capsys):
    rng = np.random.default_rng(5)
    files = _valid_files(rng)
    good = {name: tmp_path / f"good_{name}" for name in files}
    for name, path in good.items():
        path.write_bytes(files[name][0])
    right = tmp_path / "right.pgm"
    right.write_bytes(write_pgm(GrayImage(rng.random((6, 9)).astype(np.float32))))
    bad = tmp_path / "bad"
    blobs = _rejected(kind, 12, 60)[:CLI_BLOBS]
    assert len(blobs) == CLI_BLOBS
    for blob in blobs:
        bad.write_bytes(blob)
        if files[kind][1] is read_gray_image:
            argv = ["match", str(bad), str(right), "-o", str(tmp_path / "out.pfm")]
        else:
            argv = ["eval", str(bad), str(good[kind])]
        assert cli.main(argv) == 2
        assert "error:" in capsys.readouterr().err
