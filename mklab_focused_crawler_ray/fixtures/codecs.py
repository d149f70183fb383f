"""Pure-python image codecs + perceptual hashing for the synthetic corpus.

This container has no PIL/OpenCV, so the fixture images use three codecs
implemented here from their public specs:

- ``png``  — real RFC-2083 PNG (8-bit RGB, zlib-compressed scanlines). A
  standards-compliant decoder (filters 0-4) so any external PNG of that
  subset also decodes. Lossless → the per-row invariant is EXACT equality.
- ``bmp``  — Windows BITMAPINFOHEADER 24-bit BGR bottom-up. Lossless.
- ``q6``   — a deliberately lossy stand-in for JPEG (no JPEG lib available):
  per-channel quantization to 6 bits + zlib. Max error 2/255 →
  PSNR ≈ 46 dB > the 40 dB invariant, i.e. a REAL lossy round-trip that the
  PSNR gate actually exercises. Clearly marked non-standard.

Perceptual hash: canonical 64-bit DCT pHash (32×32 grayscale → 2-D DCT-II →
top-left 8×8 sans DC → median threshold), matching the published pHash
algorithm so planted near-duplicates land within small Hamming distance.

Reference parity notes: the reference decodes with ImageIO and embeds with
SURF/VLAD/PCA (bolts/media/VisualIndexerBolt.java:60-83,148-164); here decode
is these codecs and the deterministic embedding lives in stages/embed.py.
"""

from __future__ import annotations

import functools
import struct
import zlib

import numpy as np

# --------------------------------------------------------------------------
# PNG
# --------------------------------------------------------------------------
_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def png_encode(rgb: np.ndarray, level: int = 6) -> bytes:
    """Encode HxWx3 uint8 → PNG bytes (color type 2, bit depth 8, filter 0)."""
    h, w, c = rgb.shape
    assert c == 3 and rgb.dtype == np.uint8
    raw = np.empty((h, w * 3 + 1), dtype=np.uint8)
    raw[:, 0] = 0  # filter type 0 per scanline
    raw[:, 1:] = rgb.reshape(h, w * 3)
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    return (
        _PNG_SIG
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", zlib.compress(raw.tobytes(), level))
        + _chunk(b"IEND", b"")
    )


def png_decode(data: bytes) -> np.ndarray:
    """Decode 8-bit RGB/RGBA PNG (all 5 filter types) → HxWx3 uint8."""
    assert data[:8] == _PNG_SIG, "not a PNG"
    pos = 8
    w = h = None
    bit_depth = color_type = None
    idat = []
    while pos < len(data):
        (length,) = struct.unpack_from(">I", data, pos)
        tag = data[pos + 4 : pos + 8]
        payload = data[pos + 8 : pos + 8 + length]
        pos += 12 + length
        if tag == b"IHDR":
            w, h, bit_depth, color_type, comp, filt, interlace = struct.unpack(
                ">IIBBBBB", payload
            )
            assert bit_depth == 8 and color_type in (2, 6), "unsupported PNG subset"
            assert interlace == 0, "interlaced PNG unsupported"
        elif tag == b"IDAT":
            idat.append(payload)
        elif tag == b"IEND":
            break
    nch = 3 if color_type == 2 else 4
    raw = np.frombuffer(zlib.decompress(b"".join(idat)), dtype=np.uint8)
    stride = w * nch
    raw = raw.reshape(h, stride + 1)
    filters = raw[:, 0]
    img = np.zeros((h, stride), dtype=np.uint8)
    bpp = nch
    for y in range(h):
        line = raw[y, 1:].astype(np.int32)
        ftype = filters[y]
        prev = img[y - 1].astype(np.int32) if y > 0 else np.zeros(stride, np.int32)
        if ftype == 0:
            out = line
        elif ftype == 1:  # Sub
            out = line.copy()
            for x in range(bpp, stride):
                out[x] = (out[x] + out[x - bpp]) & 0xFF
        elif ftype == 2:  # Up
            out = (line + prev) & 0xFF
        elif ftype == 3:  # Average
            out = line.copy()
            for x in range(stride):
                left = out[x - bpp] if x >= bpp else 0
                out[x] = (out[x] + ((left + prev[x]) >> 1)) & 0xFF
        elif ftype == 4:  # Paeth
            out = line.copy()
            for x in range(stride):
                a = out[x - bpp] if x >= bpp else 0
                b = prev[x]
                cc = prev[x - bpp] if x >= bpp else 0
                p = a + b - cc
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - cc)
                pred = a if (pa <= pb and pa <= pc) else (b if pb <= pc else cc)
                out[x] = (out[x] + pred) & 0xFF
        else:
            raise ValueError(f"bad PNG filter {ftype}")
        img[y] = out.astype(np.uint8)
    arr = img.reshape(h, w, nch)
    return arr[:, :, :3].copy() if nch == 4 else arr


# --------------------------------------------------------------------------
# BMP (24-bit, uncompressed)
# --------------------------------------------------------------------------


def bmp_encode(rgb: np.ndarray) -> bytes:
    h, w, _ = rgb.shape
    row_size = (w * 3 + 3) & ~3
    img_size = row_size * h
    header = struct.pack("<2sIHHI", b"BM", 54 + img_size, 0, 0, 54)
    info = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, img_size, 2835, 2835, 0, 0)
    rows = np.zeros((h, row_size), dtype=np.uint8)
    bgr = rgb[::-1, :, ::-1]  # bottom-up, BGR
    rows[:, : w * 3] = bgr.reshape(h, w * 3)
    return header + info + rows.tobytes()


def bmp_decode(data: bytes) -> np.ndarray:
    assert data[:2] == b"BM"
    (offset,) = struct.unpack_from("<I", data, 10)
    hdr_size, w, h, planes, bppx = struct.unpack_from("<IiiHH", data, 14)
    assert bppx == 24, "only 24-bit BMP supported"
    row_size = (w * 3 + 3) & ~3
    rows = np.frombuffer(data, dtype=np.uint8, count=row_size * abs(h), offset=offset)
    rows = rows.reshape(abs(h), row_size)[:, : w * 3].reshape(abs(h), w, 3)
    rgb = rows[:, :, ::-1]
    if h > 0:
        rgb = rgb[::-1]
    return np.ascontiguousarray(rgb)


# --------------------------------------------------------------------------
# Q6 — custom lossy codec (6-bit quantization + zlib). NON-STANDARD: exists
# only because no JPEG/WebP encoder ships in this sandbox; gives a real
# lossy round-trip for the PSNR≥40 dB invariant (this codec ≈46.4 dB).
# --------------------------------------------------------------------------
_Q6_MAGIC = b"Q6IM"


def q6_encode(rgb: np.ndarray, level: int = 6) -> bytes:
    h, w, _ = rgb.shape
    q = (rgb >> 2).astype(np.uint8)  # 6-bit
    return _Q6_MAGIC + struct.pack("<II", w, h) + zlib.compress(q.tobytes(), level)


def q6_decode(data: bytes) -> np.ndarray:
    assert data[:4] == _Q6_MAGIC
    w, h = struct.unpack_from("<II", data, 4)
    q = np.frombuffer(zlib.decompress(data[12:]), dtype=np.uint8).reshape(h, w, 3)
    return ((q.astype(np.uint16) << 2) + 2).clip(0, 255).astype(np.uint8)


# --------------------------------------------------------------------------
# dispatch
# --------------------------------------------------------------------------
LOSSLESS_FMTS = frozenset({"png", "bmp"})
LOSSY_FMTS = frozenset({"q6"})
ALL_FMTS = ("png", "bmp", "q6")


def encode(rgb: np.ndarray, fmt: str) -> bytes:
    if fmt == "png":
        return png_encode(rgb)
    if fmt == "bmp":
        return bmp_encode(rgb)
    if fmt == "q6":
        return q6_encode(rgb)
    raise ValueError(f"unknown fmt {fmt!r}")


def decode(data: bytes, fmt: str | None = None) -> np.ndarray:
    """Decode by fmt, or sniff from magic bytes when fmt is None."""
    if fmt is None:
        if data[:8] == _PNG_SIG:
            fmt = "png"
        elif data[:2] == b"BM":
            fmt = "bmp"
        elif data[:4] == _Q6_MAGIC:
            fmt = "q6"
        else:
            raise ValueError("unrecognized image magic")
    if fmt == "png":
        return png_decode(data)
    if fmt == "bmp":
        return bmp_decode(data)
    if fmt == "q6":
        return q6_decode(data)
    raise ValueError(f"unknown fmt {fmt!r}")


# --------------------------------------------------------------------------
# pixel math: grayscale, area resize, PSNR, pHash
# --------------------------------------------------------------------------


def to_gray(rgb: np.ndarray) -> np.ndarray:
    """ITU-R BT.601 luma, float64 HxW."""
    return rgb @ np.array([0.299, 0.587, 0.114])


def resize_area(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Box/area-average resize (float64). Works for gray (HxW) or RGB."""
    h, w = img.shape[:2]
    ys = (np.arange(out_h + 1) * h / out_h).round().astype(int)
    xs = (np.arange(out_w + 1) * w / out_w).round().astype(int)
    ys[-1], xs[-1] = h, w
    out_shape = (out_h, out_w) + img.shape[2:]
    out = np.empty(out_shape, dtype=np.float64)
    # cumulative-sum integral image → O(out_h*out_w) box means
    ii = np.zeros((h + 1, w + 1) + img.shape[2:], dtype=np.float64)
    ii[1:, 1:] = np.cumsum(np.cumsum(img.astype(np.float64), axis=0), axis=1)
    y0, y1 = ys[:-1], ys[1:]
    x0, x1 = xs[:-1], xs[1:]
    area = (y1 - y0)[:, None] * (x1 - x0)[None, :]
    area = np.maximum(area, 1)
    s = ii[np.ix_(y1, x1)] - ii[np.ix_(y0, x1)] - ii[np.ix_(y1, x0)] + ii[np.ix_(y0, x0)]
    if img.ndim == 3:
        out = s / area[:, :, None]
    else:
        out = s / area
    return out


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak-SNR in dB between two uint8 images; inf when identical."""
    diff = a.astype(np.float64) - b.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(255.0 * 255.0 / mse)


@functools.lru_cache(maxsize=None)
def _dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix, built once per size per process and
    returned read-only (every caller shares the one cached array)."""
    k = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    m = np.cos(np.pi * (2 * i + 1) * k / (2 * n))
    m[0] *= 1 / np.sqrt(2)
    m = m * np.sqrt(2.0 / n)
    m.setflags(write=False)
    return m


def phash64(rgb: np.ndarray) -> int:
    """Canonical 64-bit DCT perceptual hash → signed int64 (for Arrow int64).

    gray → area-resize 32×32 → 2-D DCT-II → top-left 8×8 minus DC → bits =
    coefficient > median.
    """
    d32 = _dct_matrix(32)
    g = resize_area(to_gray(rgb), 32, 32)
    d = d32 @ g @ d32.T
    block = d[:8, :8].flatten()[1:]  # drop DC
    med = np.median(block)
    bits = block > med
    val = 0
    for b in bits:
        val = (val << 1) | int(b)
    # 63 bits used; cast to signed int64 domain
    return int(np.int64(val))


def phash_distance(a: int, b: int) -> int:
    return int(bin((int(a) ^ int(b)) & 0xFFFFFFFFFFFFFFFF).count("1"))
