"""Grayscale PNG writer that picks a scanline filter per row, as real encoders do.

The repository's own writer emits filter 0 (None) on every row, which its
decoder undoes for free.  Dataset files (KITTI, Middlebury) come from
encoders that choose among all five filters per row, and undoing Sub, Up,
Average and Paeth is where the decoder spends its time.  This writer uses
the usual rule: filter the row every way, read each filtered byte as a
signed value, and keep the filter with the smallest sum of absolute values
(ties go to the lower filter type).
"""

from __future__ import annotations

import struct
import zlib
from typing import Tuple

import numpy as np

SIGNATURE = b"\x89PNG\r\n\x1a\n"
N_FILTERS = 5


def _chunk(tag: bytes, body: bytes) -> bytes:
    return (struct.pack(">I", len(body)) + tag + body
            + struct.pack(">I", zlib.crc32(tag + body) & 0xFFFFFFFF))


def _paeth_predict(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    a, b, c = (x.astype(np.int16) for x in (a, b, c))
    p = a + b - c
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    return np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c)).astype(np.uint8)


def filter_rows(raw: np.ndarray, bpp: int) -> np.ndarray:
    """All five filtered versions of every row: (5, height, stride) uint8.

    ``raw`` is the (height, stride) byte matrix; ``bpp`` is bytes per pixel.
    Arithmetic wraps modulo 256 as the PNG specification requires.
    """
    up = np.zeros_like(raw)
    up[1:] = raw[:-1]
    left = np.zeros_like(raw)
    left[:, bpp:] = raw[:, :-bpp]
    up_left = np.zeros_like(raw)
    up_left[:, bpp:] = up[:, :-bpp]
    avg = ((left.astype(np.uint16) + up) >> 1).astype(np.uint8)
    return np.stack([raw, raw - left, raw - up, raw - avg,
                     raw - _paeth_predict(left, up, up_left)])


def choose_filters(filtered: np.ndarray) -> np.ndarray:
    """Per-row filter type with the minimum sum of absolute signed bytes."""
    cost = np.abs(filtered.view(np.int8).astype(np.int32)).sum(axis=2)
    return np.argmin(cost, axis=0)


def encode_gray(arr: np.ndarray, bit_depth: int) -> Tuple[bytes, np.ndarray]:
    """Encode a 2D uint8 (8-bit) or uint16 (16-bit) array as a grayscale PNG.

    Returns the file bytes and the filter type chosen for each row.
    """
    if bit_depth not in (8, 16):
        raise ValueError("bit_depth must be 8 or 16")
    arr = np.asarray(arr)
    if arr.ndim != 2:
        raise ValueError("expected a 2D array")
    h, w = arr.shape
    bpp = bit_depth // 8
    raw = np.ascontiguousarray(arr.astype(">u2" if bit_depth == 16 else np.uint8))
    raw = raw.view(np.uint8).reshape(h, w * bpp)
    filtered = filter_rows(raw, bpp)
    types = choose_filters(filtered)
    rows = filtered[types, np.arange(h)]
    scanlines = np.concatenate([types.astype(np.uint8)[:, None], rows], axis=1)
    ihdr = struct.pack(">IIBBBBB", w, h, bit_depth, 0, 0, 0, 0)
    blob = (SIGNATURE + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", zlib.compress(scanlines.tobytes(), 6))
            + _chunk(b"IEND", b""))
    return blob, types


def image_to_png(intensities: np.ndarray) -> Tuple[bytes, np.ndarray]:
    """8-bit PNG of [0, 1] intensities, quantized as the repository's writer does."""
    return encode_gray(np.clip(np.round(intensities * 255.0), 0, 255).astype(np.uint8), 8)


def kitti_raw(disparity: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """KITTI 16-bit disparity values: round(256 * d), 0 where invalid."""
    raw = np.round(np.asarray(disparity, dtype=np.float64) * 256.0)
    if np.any((raw < 0) | (raw > 65535)):
        raise ValueError("disparity out of range for 16-bit KITTI encoding")
    return np.where(valid, raw, 0).astype(np.uint16)
