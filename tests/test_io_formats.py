import os
import struct
import sys
import tracemalloc
import zlib

import numpy as np
import pytest

from stereo_costvol import io_formats, selftest
from stereo_costvol.io_formats import (
    FormatError,
    GrayImage,
    PfmError,
    PngError,
    StereogramSpec,
    generate_stereogram,
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

from oracle_sweep import randomized_oracles

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

import bench_png  # noqa: E402


# ---------------------------------------------------------------------------
# PFM

def test_pfm_round_trip_small():
    m = DisparityMap(np.array([[1.0, 2.0], [3.0, 4.0]]))
    back = read_pfm(write_pfm(m))
    assert np.array_equal(back.data, m.data)


def test_pfm_color_rejected():
    with pytest.raises(PfmError, match="color PFM unsupported"):
        read_pfm(b"PF\n1 1\n-1.0\n" + b"\x00" * 12)


def test_pfm_bad_magic():
    with pytest.raises(PfmError):
        read_pfm(b"Qf\n1 1\n-1.0\n" + b"\x00" * 4)


def test_pfm_truncated_payload():
    with pytest.raises(PfmError, match="truncated"):
        read_pfm(b"Pf\n2 2\n-1.0\n" + b"\x00" * 8)


def test_pfm_positive_scale_is_big_endian():
    payload = struct.pack(">4f", 3.0, 4.0, 1.0, 2.0)  # bottom row first
    parsed = read_pfm(b"Pf\n2 2\n1.0\n" + payload)
    assert np.array_equal(parsed.data, np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_pfm_writer_emits_negative_scale():
    blob = write_pfm(DisparityMap(np.zeros((1, 1))))
    header = blob.split(b"\n")[:3]
    assert header[0] == b"Pf"
    assert float(header[2]) < 0


def test_pfm_rejects_non_finite_payload():
    blob = b"Pf\n2 1\n-1.0\n" + struct.pack("<2f", float("nan"), 1.0)
    with pytest.raises(PfmError, match="non-finite"):
        read_pfm(blob)


@pytest.mark.parametrize("scale", [b"nan", b"inf", b"-inf"])
def test_pfm_rejects_non_finite_scale(scale):
    with pytest.raises(PfmError, match="malformed PFM header"):
        read_pfm(b"Pf\n2 1\n" + scale + b"\n" + b"\x00" * 8)


def test_pfm_round_trip_randomized():
    selftest.check_pfm_round_trip(np.random.default_rng(0), 30)


# ---------------------------------------------------------------------------
# KITTI PNG

def test_kitti_png_scale_convention():
    raw = np.array([[256, 0], [12800, 1]], dtype=np.uint16)
    m = DisparityMap(raw.astype(np.float64) / 256.0)
    blob = write_kitti_disp_png(m, EvalMask(raw > 0))
    disp, mask = read_kitti_disp_png(blob)
    assert disp.data[0, 0] == 1.0 and mask.valid[0, 0]
    assert disp.data[0, 1] == 0.0 and not mask.valid[0, 1]
    assert disp.data[1, 0] == 50.0 and mask.valid[1, 0]


def test_kitti_png_rejects_8bit():
    img = GrayImage(np.zeros((3, 3), dtype=np.float32))
    with pytest.raises(PngError):
        read_kitti_disp_png(write_gray_png(img))


def test_kitti_png_rejects_garbage():
    with pytest.raises(PngError):
        read_kitti_disp_png(b"definitely not a png")


def test_kitti_png_rejects_corrupt_stream():
    raw = np.full((3, 4), 512, dtype=np.uint16)
    blob = bytearray(write_kitti_disp_png(DisparityMap(raw / 256.0),
                                          EvalMask(raw > 0)))
    blob[50] ^= 0xFF  # flip bits inside the compressed payload
    with pytest.raises(PngError):
        read_kitti_disp_png(bytes(blob))


def _png(ihdr, rows=b"\x00\x07", crc_flip=None, iend_crc=True, idat_size=None):
    """Hand-built PNG; crc_flip names a chunk whose CRC gets one bit flipped.

    idat_size splits the compressed data into IDAT chunks of that many bytes.
    """
    data = zlib.compress(rows)
    step = idat_size or len(data)
    idats = [(b"IDAT", data[i:i + step]) for i in range(0, len(data), step)]
    blob = b"\x89PNG\r\n\x1a\n"
    for tag, body in ((b"IHDR", ihdr), *idats, (b"IEND", b"")):
        crc = zlib.crc32(tag + body) ^ (1 if tag == crc_flip else 0)
        blob += struct.pack(">I", len(body)) + tag + body
        if tag != b"IEND" or iend_crc:
            blob += struct.pack(">I", crc)
    return blob


def _ihdr(w, h):
    return struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0)


def test_hand_built_png_decodes():
    img = read_gray_image(_png(_ihdr(1, 1)))
    assert img.intensities.shape == (1, 1)
    assert img.intensities[0, 0] == np.float32(7 / 255.0)


@pytest.mark.parametrize("blob,message", [
    (_png(_ihdr(1, 1)[:5]), "13 bytes"),
    (_png(_ihdr(1, 1) + b"\x00"), "13 bytes"),
    (_png(_ihdr(0, 1), rows=b"\x00"), "empty"),
    (_png(_ihdr(1, 0), rows=b""), "empty"),
    (_png(_ihdr(0, 0), rows=b""), "empty"),
], ids=["ihdr-5-bytes", "ihdr-14-bytes", "zero-width", "zero-height", "zero-both"])
def test_malformed_png_header_raises_png_error(blob, message):
    with pytest.raises(PngError, match=message):
        read_gray_image(blob)


@pytest.mark.parametrize("tag", [b"IHDR", b"IDAT", b"IEND"])
def test_png_chunk_crc_mismatch_raises_png_error(tag):
    with pytest.raises(PngError, match="CRC"):
        read_gray_image(_png(_ihdr(1, 1), crc_flip=tag))


def test_written_png_with_flipped_iend_crc_raises_png_error():
    raw = np.full((2, 3), 300, dtype=np.uint16)
    blob = bytearray(write_kitti_disp_png(DisparityMap(raw / 256.0)))
    blob[-1] ^= 0x01  # the file ends with IEND's CRC
    with pytest.raises(PngError, match="IEND"):
        read_kitti_disp_png(bytes(blob))


def test_png_missing_final_crc_raises_png_error():
    with pytest.raises(PngError, match="truncated"):
        read_gray_image(_png(_ihdr(1, 1), iend_crc=False))


def test_png_inflating_past_its_size_raises_in_bounded_memory():
    # An 8x8 image whose IDAT inflates to 16 MiB: the decoder stops one byte
    # past the 72 bytes the header admits instead of holding it all.
    blob = _png(_ihdr(8, 8), rows=bytes(16 << 20))
    tracemalloc.start()
    try:
        with pytest.raises(PngError, match="size mismatch"):
            read_gray_image(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_png_size_beyond_inflate_limit_raises_png_error():
    with pytest.raises(PngError, match="too large"):
        read_gray_image(_png(_ihdr(2 ** 32 - 1, 2 ** 32 - 1)))


def test_png_split_into_one_byte_idat_chunks_decodes_equal():
    rng = np.random.default_rng(8)
    lines = rng.integers(0, 256, size=(6, 10), dtype=np.uint8)
    lines[:, 0] = np.arange(6) % 5  # every filter type, as rows of a 9x6 image
    whole = _png(_ihdr(9, 6), rows=lines.tobytes())
    split = _png(_ihdr(9, 6), rows=lines.tobytes(), idat_size=1)
    assert split.count(b"IDAT") == len(zlib.compress(lines.tobytes()))
    assert np.array_equal(read_gray_image(split).intensities,
                          read_gray_image(whole).intensities)


def test_png_filter_type_above_four_in_a_later_row_raises_png_error():
    rows = b"\x00\x07" + b"\x02\x01" + b"\x05\x03"  # rows filtered None, Up, 5
    with pytest.raises(PngError, match="unsupported PNG filter type 5"):
        read_gray_image(_png(_ihdr(1, 3), rows=rows))


def _filtered_sources(bit_depth):
    """Seeded noise images, width 1 included; the encoder picks a filter per row."""
    rng = np.random.default_rng(bit_depth)
    dtype = np.uint8 if bit_depth == 8 else np.uint16
    for h, w in ((12, 10), (5, 1), (1, 7), (9, 33)):
        yield rng.integers(0, 1 << bit_depth, size=(h, w)).astype(dtype)


@pytest.mark.parametrize("bit_depth", [8, 16])
def test_adaptively_filtered_png_decodes_bitwise_to_its_source(bit_depth):
    seen = set()
    for src in _filtered_sources(bit_depth):
        blob, types = bench_png.encode_gray(src, bit_depth)
        seen.update(types.tolist())
        if bit_depth == 8:
            back = read_gray_image(blob)
            assert np.array_equal(back.intensities, src.astype(np.float32) / 255.0)
        else:
            disp, mask = read_kitti_disp_png(blob)
            assert np.array_equal(disp.data * 256.0, src)
            assert np.array_equal(mask.valid, src > 0)
    assert {1, 2, 3, 4} <= seen


def test_kitti_png_round_trip_randomized():
    selftest.check_kitti_png_round_trip(np.random.default_rng(1), 30)


# ---------------------------------------------------------------------------
# grayscale image formats

def test_pgm_round_trip():
    rng = np.random.default_rng(2)
    img = GrayImage((rng.integers(0, 256, size=(5, 7)) / 255.0).astype(np.float32))
    back = read_gray_image(write_pgm(img))
    assert np.array_equal(back.intensities, img.intensities)


def test_gray_png_round_trip():
    rng = np.random.default_rng(3)
    img = GrayImage((rng.integers(0, 256, size=(6, 4)) / 255.0).astype(np.float32))
    back = read_gray_image(write_gray_png(img))
    assert np.array_equal(back.intensities, img.intensities)


def test_ascii_pgm_parses():
    blob = b"P2\n# comment\n3 2\n255\n0 128 255\n64 32 16\n"
    img = read_gray_image(blob)
    assert img.intensities.shape == (2, 3)
    assert img.intensities[0, 1] == np.float32(128 / 255.0)


@pytest.mark.parametrize("blob", [
    b"P5\n2 1\n200\n" + bytes([10, 255]),   # binary sample above maxval
    b"P2\n2 1\n255\n1 abc\n",               # non-integer ASCII sample
    b"P2\n2 1\n255\n1 -5\n",                # negative ASCII sample
    b"P2\n2 1\n255\n70000 1\n",             # ASCII sample beyond 16 bits
    b"P2\n2 1\n100\n1 101\n",               # ASCII sample above maxval
    b"P5\n-2 1\n255\n\x00\x00",            # negative width
    b"P5\n2 0\n255\n",                     # zero height
], ids=["p5-above-maxval", "p2-non-integer", "p2-negative", "p2-overflow",
        "p2-above-maxval", "negative-width", "zero-height"])
def test_malformed_pgm_raises_format_error(blob):
    with pytest.raises(FormatError):
        read_gray_image(blob)


def test_read_gray_image_rejects_unknown():
    with pytest.raises(FormatError):
        read_gray_image(b"BM000000")


def test_gray_image_range_validation():
    with pytest.raises(ValueError):
        GrayImage(np.array([[1.5]], dtype=np.float32))


def test_gray_image_shares_the_container_rule():
    img = GrayImage(np.full((2, 3), 0.5))
    assert img.intensities is img.data and img.data.dtype == np.float32
    assert (img.height, img.width) == (2, 3)
    for bad_rank in (np.zeros(4), np.zeros((2, 3, 1)), np.float32(0.5)):
        with pytest.raises(ValueError, match=r"GrayImage data must be \(height, width\)"):
            GrayImage(bad_rank)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="GrayImage: data contains non-finite values"):
            GrayImage(np.array([[0.5, bad]]))
    for out_of_range in (-0.01, 1.01):
        with pytest.raises(ValueError, match=r"GrayImage: intensities must lie in \[0, 1\]"):
            GrayImage(np.array([[0.5, out_of_range]]))
    assert GrayImage(np.zeros((0, 3))).width == 3


# ---------------------------------------------------------------------------
# stereogram generator

def test_stereogram_zero_disparity_is_identical_pair():
    left, right, gt, mask = generate_stereogram(StereogramSpec(8, 24, 0, 0.5, 0))
    assert np.array_equal(left.intensities, right.intensities)
    assert np.all(mask.valid)
    assert np.all(gt.data == 0.0)


def test_stereogram_constant_shift_consistency():
    left, right, gt, mask = generate_stereogram(StereogramSpec(10, 40, 8, 0.5, 1))
    assert np.all(gt.data == 8.0)
    assert not mask.valid[:, :8].any()
    assert mask.valid[:, 8:].all()
    ys, xs = np.nonzero(mask.valid)
    assert np.array_equal(left.intensities[ys, xs], right.intensities[ys, xs - 8])


def test_stereogram_two_region_occlusion_band():
    h, w, boundary = 12, 64, 32
    disp = np.full((h, w), 4, dtype=np.int64)
    disp[:, boundary:] = 12
    left, right, gt, mask = generate_stereogram(StereogramSpec(h, w, disp, 0.5, 2))
    expect = np.ones((h, w), dtype=bool)
    expect[:, :4] = False
    expect[:, boundary - 8:boundary] = False  # occlusion band, width = 12 - 4
    assert np.array_equal(mask.valid, expect)


def test_stereogram_seeded_reproducibility():
    spec = StereogramSpec(9, 33, 3, 0.4, 77)
    a = generate_stereogram(spec)
    b = generate_stereogram(spec)
    assert np.array_equal(a[0].intensities, b[0].intensities)
    assert np.array_equal(a[1].intensities, b[1].intensities)
    assert np.array_equal(a[3].valid, b[3].valid)
    c = generate_stereogram(StereogramSpec(9, 33, 3, 0.4, 78))
    assert not np.array_equal(a[0].intensities, c[0].intensities)


def test_stereogram_rejects_excessive_disparity():
    with pytest.raises(ValueError):
        StereogramSpec(8, 32, 8, 0.5, 0)  # 8 == width / 4


def test_stereogram_rejects_bad_density():
    with pytest.raises(ValueError):
        StereogramSpec(8, 32, 2, 0.0, 0)


def test_stereogram_randomized_consistency():
    selftest.check_generate_stereogram(np.random.default_rng(4), 8)


test_randomized_oracles = randomized_oracles(io_formats)
