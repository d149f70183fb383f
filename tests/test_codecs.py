"""Codec round-trips + the BASELINE per-row invariant (PSNR≥40 dB lossy,
exact lossless, byte-exact captions)."""

import numpy as np
import pytest

from mklab_focused_crawler_ray.fixtures import codecs as C


@pytest.fixture(scope="module")
def rgb():
    rng = np.random.default_rng(3)
    return rng.integers(0, 256, (45, 67, 3), dtype=np.uint8)


@pytest.mark.parametrize("fmt", ["png", "bmp"])
def test_lossless_roundtrip_exact(rgb, fmt):
    out = C.decode(C.encode(rgb, fmt))
    assert np.array_equal(out, rgb)


def test_lossy_q6_psnr_above_40(rgb):
    out = C.decode(C.encode(rgb, "q6"))
    assert C.psnr(rgb, out) >= 40.0


def test_decode_sniffs_format(rgb):
    for fmt in C.ALL_FMTS:
        assert np.array_equal(
            C.decode(C.encode(rgb, fmt), fmt), C.decode(C.encode(rgb, fmt))
        ) or C.psnr(C.decode(C.encode(rgb, fmt)), rgb) >= 40


def test_png_filters_all_types_decode():
    # hand-build a tiny PNG with each filter type per row and check our
    # decoder unfilters them correctly (round-trip through re-encode).
    import struct
    import zlib

    from mklab_focused_crawler_ray.fixtures.codecs import _PNG_SIG, _chunk, png_decode

    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, (5, 4, 3), dtype=np.uint8)
    h, w, _ = img.shape
    stride = w * 3
    raw = bytearray()
    prev = np.zeros(stride, dtype=np.int32)
    for y, ftype in enumerate([0, 1, 2, 3, 4]):
        line = img[y].reshape(-1).astype(np.int32)
        enc = np.zeros(stride, dtype=np.int32)
        for x in range(stride):
            a = line[x - 3] if x >= 3 else 0
            b = prev[x]
            c = prev[x - 3] if x >= 3 else 0
            if ftype == 0:
                pred = 0
            elif ftype == 1:
                pred = a
            elif ftype == 2:
                pred = b
            elif ftype == 3:
                pred = (a + b) >> 1
            else:
                p = a + b - c
                pa_, pb_, pc_ = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa_ <= pb_ and pa_ <= pc_) else (b if pb_ <= pc_ else c)
            enc[x] = (line[x] - pred) & 0xFF
        raw.append(ftype)
        raw.extend(enc.astype(np.uint8).tobytes())
        prev = line
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    data = (
        _PNG_SIG
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", zlib.compress(bytes(raw)))
        + _chunk(b"IEND", b"")
    )
    assert np.array_equal(png_decode(data), img)


def test_phash_invariance_and_discrimination():
    rng = np.random.default_rng(5)
    from mklab_focused_crawler_ray.fixtures.generate import _image

    img = _image(rng, 120, 90)
    ph = C.phash64(img)
    re_enc = C.decode(C.encode(img, "q6"))
    assert C.phash_distance(ph, C.phash64(re_enc)) <= 4
    resized = (
        C.resize_area(img.astype(np.float64), 60, 80).round().clip(0, 255).astype(np.uint8)
    )
    assert C.phash_distance(ph, C.phash64(resized)) <= 10
    other = _image(np.random.default_rng(99), 120, 90)
    assert C.phash_distance(ph, C.phash64(other)) > 16


def test_fixture_per_row_invariant(tiny_tables):
    """decode(bytes) matches w/h; PSNR gate vs re-encode; captions non-empty
    strings (byte-exact equality is against the generator by construction —
    regeneration determinism is asserted in test_fixtures.py)."""
    imgs = tiny_tables["images"]
    for i in range(imgs.num_rows):
        fmt = imgs["fmt"][i].as_py()
        data = imgs["bytes"][i].as_py()
        rgb = C.decode(data, fmt)
        assert rgb.shape == (imgs["h"][i].as_py(), imgs["w"][i].as_py(), 3)
        assert C.phash64(rgb) == imgs["phash"][i].as_py()
        caption = imgs["caption"][i].as_py()
        assert isinstance(caption, str) and len(caption) > 0


def test_dct_matrix_cached_read_only_and_phash_stable(tiny_fixture):
    """_dct_matrix is built once per size and shared read-only, and
    phash64 through the cached matrix still reproduces the stored phash
    column of the fixture."""
    import os

    import pyarrow.parquet as pq

    m = C._dct_matrix(32)
    assert C._dct_matrix(32) is m and C._dct_matrix(16) is C._dct_matrix(16)
    with pytest.raises(ValueError):
        m[0, 0] = 1.0
    t = pq.read_table(
        os.path.join(tiny_fixture, "images.parquet"), columns=["bytes", "fmt", "phash"]
    )
    got = [C.phash64(C.decode(b, f)) for b, f in zip(t["bytes"].to_pylist(), t["fmt"].to_pylist())]
    assert len(got) > 0 and got == t["phash"].to_pylist()
