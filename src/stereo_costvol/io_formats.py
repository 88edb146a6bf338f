"""Bit-exact disparity/image codecs and a synthetic stereo-pair generator.

Supports PFM float maps (bottom-to-top rows, scale sign encodes
endianness), 16-bit grayscale PNG disparity maps in the value/256
convention with zero marking invalid pixels, and 8-bit PGM/PNG grayscale
images.  The PNG codec is hand rolled on zlib so round trips stay
byte-deterministic.
"""

from __future__ import annotations

import struct
import sys
import zlib
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .metrics import EvalMask
from .volume_core import DisparityMap, _Checked


class FormatError(ValueError):
    """Raised when an input file does not match its declared format."""


class PfmError(FormatError):
    pass


class PngError(FormatError):
    pass


class GrayImage(_Checked):
    """Grayscale image, float32 (height, width), with intensities in [0, 1]."""

    AXES = ("height", "width")

    def _check_values(self):
        if self.data.size and (self.data.min() < 0.0 or self.data.max() > 1.0):
            raise ValueError("GrayImage: intensities must lie in [0, 1]")

    @property
    def intensities(self) -> np.ndarray:
        return self.data


# ---------------------------------------------------------------------------
# PFM

def write_pfm(disp: DisparityMap) -> bytes:
    """Serialize a disparity map as single-channel little-endian PFM."""
    h, w = disp.data.shape
    header = f"Pf\n{w} {h}\n-1.0\n".encode("ascii")
    payload = disp.data.astype("<f4")[::-1].tobytes()
    return header + payload


def _read_pfm_token(data: bytes, pos: int) -> Tuple[bytes, int]:
    while pos < len(data) and data[pos:pos + 1].isspace():
        pos += 1
    start = pos
    while pos < len(data) and not data[pos:pos + 1].isspace():
        pos += 1
    if start == pos:
        raise PfmError("truncated PFM header")
    return data[start:pos], pos


def read_pfm(data: bytes) -> DisparityMap:
    """Parse a single-channel PFM byte string into a disparity map."""
    magic, pos = _read_pfm_token(data, 0)
    if magic == b"PF":
        raise PfmError("color PFM unsupported")
    if magic != b"Pf":
        raise PfmError("not a PFM file (bad magic)")
    w_tok, pos = _read_pfm_token(data, pos)
    h_tok, pos = _read_pfm_token(data, pos)
    scale_tok, pos = _read_pfm_token(data, pos)
    try:
        w, h = int(w_tok), int(h_tok)
        scale = float(scale_tok)
    except ValueError as exc:
        raise PfmError("malformed PFM header") from exc
    if w < 1 or h < 1 or scale == 0.0 or not np.isfinite(scale):
        raise PfmError("malformed PFM header")
    pos += 1  # single whitespace byte terminates the header
    expected = w * h * 4
    payload = data[pos:pos + expected]
    if len(payload) < expected:
        raise PfmError("truncated PFM payload")
    dtype = "<f4" if scale < 0 else ">f4"
    with np.errstate(invalid="ignore"):
        rows = np.frombuffer(payload, dtype=dtype).reshape(h, w).astype(np.float64)
    if not np.all(np.isfinite(rows)):
        raise PfmError("PFM payload contains non-finite values")
    return DisparityMap(rows[::-1])


# ---------------------------------------------------------------------------
# PNG (grayscale, 8 or 16 bit)

_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


def _png_chunk(tag: bytes, body: bytes) -> bytes:
    return (struct.pack(">I", len(body)) + tag + body
            + struct.pack(">I", zlib.crc32(tag + body) & 0xFFFFFFFF))


def _encode_gray_png(arr: np.ndarray, bit_depth: int) -> bytes:
    h, w = arr.shape
    ihdr = struct.pack(">IIBBBBB", w, h, bit_depth, 0, 0, 0, 0)
    if bit_depth == 16:
        rows = arr.astype(">u2").tobytes()
        stride = 2 * w
    else:
        rows = arr.astype(np.uint8).tobytes()
        stride = w
    raw = b"".join(b"\x00" + rows[y * stride:(y + 1) * stride] for y in range(h))
    return (_PNG_SIGNATURE
            + _png_chunk(b"IHDR", ihdr)
            + _png_chunk(b"IDAT", zlib.compress(raw, 9))
            + _png_chunk(b"IEND", b""))


def _average_lane(xs, bs):
    """Undo Average along one byte lane: x + floor((left + up) / 2)."""
    out, a = [], 0
    for x, b in zip(xs, bs):
        a = (x + ((a + b) >> 1)) & 0xFF
        out.append(a)
    return out


def _paeth_lane(xs, bs, cs, pas, bcs):
    """Undo Paeth along one byte lane, given up ``b``, up-left ``c``, |b - c| and b - c.

    With p = a + b - c the predictor's distances are |p - a| = |b - c|,
    |p - b| = |a - c| and |p - c| = |(a - c) + (b - c)|.
    """
    out, a = [], 0
    for x, b, c, pa, bc in zip(xs, bs, cs, pas, bcs):
        ac = a - c
        pb, pc = abs(ac), abs(ac + bc)
        a = (x + (a if pa <= pb and pa <= pc else b if pb <= pc else c)) & 0xFF
        out.append(a)
    return out


def _unfilter_scanlines(raw: bytes, h: int, stride: int, bpp: int) -> np.ndarray:
    """Undo the per-row PNG filters (W3C PNG 2nd ed., section 9): (h, stride) uint8.

    None, Sub and Up are whole-row numpy operations; uint8 arithmetic wraps
    mod 256 as the specification requires.  Average and Paeth depend on the
    byte just decoded, so each of the ``bpp`` byte lanes runs as one loop.
    """
    lines = np.frombuffer(raw, dtype=np.uint8).reshape(h, stride + 1)
    types = lines[:, 0]
    bad = np.flatnonzero(types > 4)
    if bad.size:
        raise PngError(f"unsupported PNG filter type {types[bad[0]]}")
    out = np.empty((h, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    for y, ftype in enumerate(types.tolist()):
        line, row = lines[y, 1:], out[y]
        if ftype == 0:  # None
            row[:] = line
        elif ftype == 1:  # Sub
            np.cumsum(line.reshape(-1, bpp), axis=0, dtype=np.uint8,
                      out=row.reshape(-1, bpp))
        elif ftype == 2:  # Up
            np.add(line, prev, out=row)
        elif ftype == 3:  # Average
            for k in range(bpp):
                row[k::bpp] = _average_lane(line[k::bpp].tolist(), prev[k::bpp].tolist())
        else:  # Paeth
            up = prev.astype(np.int16)
            upleft = np.zeros_like(up)
            upleft[bpp:] = up[:-bpp]
            diff = up - upleft
            for k in range(bpp):
                row[k::bpp] = _paeth_lane(line[k::bpp].tolist(), up[k::bpp].tolist(),
                                          upleft[k::bpp].tolist(),
                                          np.abs(diff[k::bpp]).tolist(), diff[k::bpp].tolist())
        prev = row
    return out


def _decode_gray_png(data: bytes) -> Tuple[np.ndarray, int]:
    """Decode a grayscale PNG to (array, bit_depth)."""
    if data[:8] != _PNG_SIGNATURE:
        raise PngError("not a PNG file")
    pos = 8
    ihdr = None
    idat_parts = []
    while pos + 8 <= len(data):
        length, tag = struct.unpack(">I4s", data[pos:pos + 8])
        body = data[pos + 8:pos + 8 + length]
        crc = data[pos + 8 + length:pos + 12 + length]
        if len(body) < length or len(crc) < 4:
            raise PngError("truncated PNG chunk")
        if zlib.crc32(body, zlib.crc32(tag)) != struct.unpack(">I", crc)[0]:
            raise PngError(f"PNG chunk {tag!r} fails its CRC check")
        pos += 12 + length
        if tag == b"IHDR":
            ihdr = body
        elif tag == b"IDAT":
            idat_parts.append(body)
        elif tag == b"IEND":
            break
    idat = b"".join(idat_parts)
    if ihdr is None or not idat:
        raise PngError("missing PNG chunks")
    if len(ihdr) != 13:
        raise PngError(f"PNG IHDR chunk must be 13 bytes, got {len(ihdr)}")
    w, h, bit_depth, color_type, _, _, interlace = struct.unpack(">IIBBBBB", ihdr)
    if w == 0 or h == 0:
        raise PngError(f"PNG image size {w}x{h} is empty")
    if color_type != 0:
        raise PngError("multi-channel PNG unsupported (need grayscale)")
    if bit_depth not in (8, 16):
        raise PngError(f"unsupported PNG bit depth {bit_depth}")
    if interlace != 0:
        raise PngError("interlaced PNG unsupported")
    bpp = bit_depth // 8
    stride = w * bpp
    size = h * (stride + 1)
    if size >= sys.maxsize:
        raise PngError(f"PNG image size {w}x{h} is too large")
    # Inflate one byte past the expected size at most, so a stream that
    # inflates far beyond it fails without being held in memory.
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(idat, size + 1)
    except zlib.error as exc:
        raise PngError(f"corrupt PNG data: {exc}") from exc
    if len(raw) != size:
        raise PngError("PNG payload size mismatch")
    if not inflater.eof:
        raise PngError("corrupt PNG data: incomplete or truncated stream")
    rows = _unfilter_scanlines(raw, h, stride, bpp)
    if bit_depth == 16:
        rows = rows.view(">u2")
    return rows.astype(np.uint16), bit_depth


def write_kitti_disp_png(disp: DisparityMap, mask: Union[EvalMask, None] = None) -> bytes:
    """Encode disparities as 16-bit PNG with value = round(256 * d), 0 invalid."""
    raw = np.round(disp.data * 256.0)
    if np.any((raw < 0) | (raw > 65535)):
        raise ValueError("disparity out of range for 16-bit KITTI encoding")
    raw = raw.astype(np.uint16)
    if mask is not None:
        if mask.valid.shape != disp.data.shape:
            raise ValueError("mask shape mismatch")
        raw = np.where(mask.valid, raw, 0).astype(np.uint16)
    return _encode_gray_png(raw, 16)


def read_kitti_disp_png(data: bytes) -> Tuple[DisparityMap, EvalMask]:
    """Decode a 16-bit disparity PNG; raw zero marks invalid pixels."""
    arr, bit_depth = _decode_gray_png(data)
    if bit_depth != 16:
        raise PngError("8-bit PNG is not a valid disparity map (need 16-bit)")
    disp = arr.astype(np.float64) / 256.0
    return DisparityMap(disp), EvalMask(arr > 0)


# ---------------------------------------------------------------------------
# Grayscale images (PGM / PNG)

def write_pgm(img: GrayImage) -> bytes:
    """Serialize as binary 8-bit PGM."""
    arr = np.clip(np.round(img.intensities * 255.0), 0, 255).astype(np.uint8)
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + arr.tobytes()


def write_gray_png(img: GrayImage) -> bytes:
    """Serialize as 8-bit grayscale PNG."""
    arr = np.clip(np.round(img.intensities * 255.0), 0, 255).astype(np.uint8)
    return _encode_gray_png(arr, 8)


def read_gray_image(data: bytes) -> GrayImage:
    """Load an 8-bit grayscale image from PGM (P2/P5) or PNG bytes."""
    if data[:8] == _PNG_SIGNATURE:
        arr, bit_depth = _decode_gray_png(data)
        if bit_depth != 8:
            raise PngError("expected an 8-bit grayscale image")
        return GrayImage(arr.astype(np.float32) / 255.0)
    if data[:2] in (b"P5", b"P2"):
        return _read_pgm(data)
    raise FormatError("unrecognized image format (expected 8-bit PGM or PNG)")


def _read_pgm(data: bytes) -> GrayImage:
    binary = data[:2] == b"P5"
    pos = 2
    tokens = []
    while len(tokens) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError("truncated PGM header")
        tokens.append(data[start:pos])
    try:
        w, h, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise FormatError("malformed PGM header") from exc
    if w < 1 or h < 1:
        raise FormatError("PGM width and height must be >= 1")
    if maxval < 1 or maxval > 255:
        raise FormatError("only 8-bit PGM supported")
    if binary:
        pos += 1
        payload = data[pos:pos + w * h]
        if len(payload) < w * h:
            raise FormatError("truncated PGM payload")
        arr = np.frombuffer(payload, dtype=np.uint8).reshape(h, w)
    else:
        values = data[pos:].split()
        if len(values) < w * h:
            raise FormatError("truncated PGM payload")
        try:
            arr = np.array([int(v) for v in values[:w * h]], dtype=np.int64).reshape(h, w)
        except (ValueError, OverflowError) as exc:
            raise FormatError("malformed PGM sample") from exc
    if arr.min() < 0 or arr.max() > maxval:
        raise FormatError(f"PGM sample outside [0, {maxval}]")
    return GrayImage(arr.astype(np.float32) / float(maxval))


# ---------------------------------------------------------------------------
# Synthetic stereo pairs

@dataclass
class StereogramSpec:
    """Random-dot stereo pair description with exact ground truth.

    disparity is either a constant or a per-pixel integer map; the right
    image is the left one warped so that left(x, y) = right(x - d, y) holds
    exactly on every valid pixel.
    """

    height: int
    width: int
    disparity: Union[int, np.ndarray] = 0
    dot_density: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise ValueError("stereogram dimensions must be positive")
        if not 0.0 < self.dot_density <= 1.0:
            raise ValueError("dot_density must lie in (0, 1]")
        disp = self.disparity
        if isinstance(disp, (int, np.integer)):
            disp = np.full((self.height, self.width), int(disp), dtype=np.int64)
        else:
            disp = np.asarray(disp)
            if disp.shape != (self.height, self.width):
                raise ValueError("disparity map shape mismatch")
            if not np.issubdtype(disp.dtype, np.integer):
                raise ValueError("disparity map must be integer valued")
            disp = disp.astype(np.int64)
        if np.any(disp < 0):
            raise ValueError("disparities must be non-negative")
        if disp.max(initial=0) >= self.width / 4:
            raise ValueError("max disparity must stay below width / 4")
        self.disparity = disp


def generate_stereogram(spec: StereogramSpec) -> Tuple[GrayImage, GrayImage, DisparityMap, EvalMask]:
    """Build a seeded random-dot pair with exact ground truth and occlusion mask.

    A left pixel is valid when its match location is inside the right image
    and is not overwritten by a nearer (larger disparity) surface; right
    pixels nobody maps to are filled with fresh random dots.  Uses a
    counter-based generator, so equal seeds reproduce bitwise.
    """
    h, w = spec.height, spec.width
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    left = (rng.random((h, w)) < spec.dot_density).astype(np.float32)
    filler = (rng.random((h, w)) < spec.dot_density).astype(np.float32)

    d = spec.disparity
    xs = np.arange(w)[None, :].repeat(h, axis=0)
    target = xs - d
    reachable = target >= 0
    claim = np.full((h, w), -1, dtype=np.int64)
    rows = np.arange(h)[:, None].repeat(w, axis=1)
    np.maximum.at(claim, (rows[reachable], target[reachable]), d[reachable])

    right = filler.copy()
    claimed = claim >= 0
    src_x = np.clip(xs + claim, 0, w - 1)
    right[claimed] = left[rows[claimed], src_x[claimed]]

    valid = reachable & (claim[rows, np.clip(target, 0, w - 1)] == d)
    gt = DisparityMap(d.astype(np.float64))
    return GrayImage(left), GrayImage(right), gt, EvalMask(valid)
