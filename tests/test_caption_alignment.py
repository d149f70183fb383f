"""Caption–image alignment gate (VERDICT r3 missing #4 → 'Next round' #5)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from mklab_focused_crawler_ray.pipelines.queries_media import (
    ALIGN_DIM,
    ALIGN_SHIFT,
    CAPTION_ALIGN_PPM,
    _caption_hist64,
    _img_mic_from_f32,
)


def test_caption_hist_counts_codepoints():
    h = _caption_hist64(["aa b", ""])
    assert h.shape == (2, ALIGN_DIM)
    assert h[0].sum() == 4  # 'a','a',' ','b'
    assert h[0][ord("a") % ALIGN_DIM] == 2
    assert h[0][ord(" ") % ALIGN_DIM] == 1
    assert h[1].sum() == 0  # empty caption → zero vector


def test_img_mic_shift_nonnegative():
    # exactly-representable float32 values: the shift maps [-1, 1] to
    # [0, 2e6], keeping every dot non-negative (numpy // floors, DuckDB //
    # truncates — they agree only on non-negatives)
    e = np.array([0.0, -1.0, 1.0, 0.25], np.float32)
    mic = _img_mic_from_f32(e)
    assert (mic >= 0).all()
    assert mic.tolist() == [
        ALIGN_SHIFT,
        0,
        2 * ALIGN_SHIFT,
        ALIGN_SHIFT + 250_000,
    ]


def test_align_score_matches_hand_computation(ray_session, tmp_path):
    """Drive align_batch on two synthetic 1-px images: score must equal
    the hand-computed dot // total, and the empty caption scores 0."""
    from mklab_focused_crawler_ray.fixtures.codecs import encode
    from mklab_focused_crawler_ray.pipelines.queries_media import align_batch
    from mklab_focused_crawler_ray.stages.image import decode, pseudo_embed_rgb

    rng = np.random.default_rng(11)
    rgb = rng.integers(0, 256, size=(8, 8, 3)).astype(np.uint8)
    b = encode(rgb, "png")
    batch = pa.table(
        {
            "image_id": pa.array(["img00000001", "img00000002"], pa.string()),
            "bytes": pa.array([b, b], pa.binary()),
            "fmt": pa.array(["png", "png"], pa.string()),
            "caption": pa.array(["ab", ""], pa.string()),
        }
    )
    out = align_batch(batch).to_pandas().set_index("image_id")

    mic = _img_mic_from_f32(pseudo_embed_rgb(decode(b, "png")).astype(np.float32))
    hist = _caption_hist64(["ab"])[0]
    exp = int((mic * hist).sum()) // int(hist.sum())
    assert int(out.loc["img00000001", "align_ppm"]) == exp
    assert int(out.loc["img00000001", "aligned"]) == int(exp >= CAPTION_ALIGN_PPM)
    assert int(out.loc["img00000002", "align_ppm"]) == 0
    assert int(out.loc["img00000002", "aligned"]) == 0


def test_crossmodal_recall_brute_force(ray_session, tmp_path):
    """crossmodal_recall_over on a planted 8-image table must equal an
    independent numpy brute force: exact tie-aware ranks, both
    directions, all k — with N=8 < 10 the @10 row is all-hits (exercises
    the hit path) while @1 exercises misses."""
    import pyarrow.parquet as pq

    from mklab_focused_crawler_ray.fixtures.codecs import encode
    from mklab_focused_crawler_ray.pipelines.queries_media import (
        XRECALL_KS,
        _caption_hist64,
        _img_mic_from_f32,
        crossmodal_recall_over,
    )
    from mklab_focused_crawler_ray.stages.image import decode, pseudo_embed_rgb

    rng = np.random.default_rng(23)
    n = 8
    ids, blobs, caps = [], [], []
    for i in range(n):
        rgb = rng.integers(0, 256, size=(8, 8, 3)).astype(np.uint8)
        ids.append(f"img{i:08d}")
        blobs.append(encode(rgb, "png"))
        caps.append(
            "".join(chr(97 + int(c)) for c in rng.integers(0, 26, 12))
            if i != 3
            else ""  # one empty caption exercises the zero-hist path
        )
    path = str(tmp_path / "images.parquet")
    pq.write_table(
        pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "bytes": pa.array(blobs, pa.binary()),
                "w": pa.array([8] * n, pa.int32()),
                "h": pa.array([8] * n, pa.int32()),
                "fmt": pa.array(["png"] * n, pa.string()),
                "caption": pa.array(caps, pa.string()),
                "phash": pa.array(list(range(n)), pa.int64()),
            }
        ),
        path,
    )

    got = (
        crossmodal_recall_over(path)
        .to_pandas()
        .sort_values(["direction", "k"])
        .reset_index(drop=True)
    )

    mics = np.stack(
        [
            _img_mic_from_f32(
                pseudo_embed_rgb(decode(b, "png")).astype(np.float32)
            )
            for b in blobs
        ]
    )
    hists = _caption_hist64(caps)
    gt = np.einsum("ij,ij->i", mics, hists)
    exp_rows = []
    for direction, dots in (
        ("cap2img", mics @ hists.T),  # (db_img, q) for query caption q
        ("img2cap", hists @ mics.T),  # (db_cap, q) for query image q
    ):
        ranks = []
        for qi in range(n):
            d = dots[:, qi]
            better = int(
                (
                    (d > gt[qi])
                    | ((d == gt[qi]) & (np.arange(n) < qi))
                ).sum()
            )
            ranks.append(1 + better)
        r = np.array(ranks)
        for k in XRECALL_KS:
            hits = int((r <= k).sum())
            exp_rows.append((direction, k, n, hits, hits * 1_000_000 // n))
    import pandas as pd

    exp = (
        pd.DataFrame(
            exp_rows,
            columns=["direction", "k", "n_queries", "n_hits", "recall_micro"],
        )
        .sort_values(["direction", "k"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    # sanity: @10 ≥ N ⇒ every query hits; the metric is not identically 0
    assert (got.loc[got["k"] == 10, "n_hits"] == n).all()
