"""Image-stage semantics: per-row invariant (PSNR/caption/phash), near-dup
recall vs planted ground truth, deterministic clustering, embed properties,
and the gated multimodal stubs."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from mklab_focused_crawler_ray.fixtures.codecs import phash_distance
from mklab_focused_crawler_ray.stages.image import (
    PseudoEmbed,
    cluster_images,
    decode_validate,
    decode_validate_batch,
    phash_band_pairs,
    union_find_labels,
)


@pytest.fixture(scope="module")
def images_parquet(tiny_fixture):
    return os.path.join(tiny_fixture, "images.parquet")


@pytest.fixture(scope="module")
def dupmap(tiny_fixture):
    t = pq.read_table(os.path.join(tiny_fixture, "images_dupmap.parquet"))
    return list(zip(t["image_id"].to_pylist(), t["dup_of"].to_pylist()))


def test_decode_validate_invariants(ray_session, images_parquet):
    df = decode_validate(images_parquet).to_pandas()
    assert df["decode_ok"].all()
    assert df["w_ok"].all() and df["h_ok"].all()
    # stored phash must be reproducible from bytes alone
    assert df["phash_ok"].all()
    # PSNR ≥ 40 dB for lossy, exact (sentinel) for lossless
    lossy = df[df["fmt"] == "q6"]
    assert (lossy["psnr_db_x100"] >= 40 * 100).all()
    lossless = df[df["fmt"] != "q6"]
    assert (lossless["psnr_db_x100"] == 2**31 - 1).all()


def test_captions_roundtrip_byte_exact(images_parquet):
    """Caption bytes travel untouched through read → batch → write."""
    import ray.data as rd

    src = pq.read_table(images_parquet, columns=["image_id", "caption"])
    expected = dict(zip(src["image_id"].to_pylist(), src["caption"].to_pylist()))
    out = (
        rd.read_parquet(images_parquet, columns=["image_id", "caption"])
        .map_batches(lambda b: b, batch_format="pyarrow")
        .to_pandas()
    )
    got = dict(zip(out["image_id"], out["caption"]))
    assert got == expected


def test_phash_pairs_recall_vs_planted_dups(ray_session, images_parquet, dupmap):
    pairs = phash_band_pairs(images_parquet, max_hamming=8).to_pandas()
    got = {tuple(sorted(p)) for p in zip(pairs["id_a"], pairs["id_b"])}
    # every planted near-dup whose true Hamming distance ≤ 8 must be found
    # (band blocking with 4×16-bit bands is exact for Hamming ≤ 3 by
    # pigeonhole; planted re-encodes are usually distance 0-4)
    ph = dict(
        zip(
            pq.read_table(images_parquet, columns=["image_id", "phash"])["image_id"].to_pylist(),
            pq.read_table(images_parquet, columns=["image_id", "phash"])["phash"].to_pylist(),
        )
    )
    expected = {
        tuple(sorted((a, b)))
        for a, b in dupmap
        if phash_distance(ph[a], ph[b]) <= 3
    }
    assert expected <= got
    # verify step: every reported pair is genuinely ≤ 8
    for a, b, d in zip(pairs["id_a"], pairs["id_b"], pairs["hamming"]):
        assert phash_distance(ph[a], ph[b]) == d <= 8


def test_union_find_min_id_labels():
    labels = union_find_labels([("c", "b"), ("b", "a"), ("x", "y")])
    assert labels["a"] == labels["b"] == labels["c"] == "a"
    assert labels["x"] == labels["y"] == "x"


def test_cluster_images_deterministic(ray_session, images_parquet, dupmap):
    df1 = cluster_images(images_parquet).to_pandas().sort_values("image_id")
    df2 = cluster_images(images_parquet).to_pandas().sort_values("image_id")
    assert df1["cluster_id"].tolist() == df2["cluster_id"].tolist()
    lab = dict(zip(df1["image_id"], df1["cluster_id"]))
    ph = dict(
        zip(
            pq.read_table(images_parquet, columns=["image_id", "phash"])["image_id"].to_pylist(),
            pq.read_table(images_parquet, columns=["image_id", "phash"])["phash"].to_pylist(),
        )
    )
    for a, b in dupmap:
        if phash_distance(ph[a], ph[b]) <= 3:
            assert lab[a] == lab[b]
    # labels are min-member ids: label ≤ every member id
    for img, cl in lab.items():
        assert cl <= img


def test_pseudo_embed_unit_norm_and_determinism(images_parquet):
    t = pq.read_table(images_parquet).slice(0, 8)
    stage = PseudoEmbed()
    out1 = stage(t)
    out2 = PseudoEmbed()(t)
    assert out1.equals(out2)
    for e in out1["embedding"].to_pylist():
        assert len(e) == 64
        assert abs(np.linalg.norm(np.asarray(e)) - 1.0) < 1e-5


def test_decode_validate_flags_corrupt_bytes():
    bad = pa.table(
        {
            "image_id": ["x"],
            "bytes": [b"not an image"],
            "w": pa.array([10], pa.int32()),
            "h": pa.array([10], pa.int32()),
            "fmt": ["png"],
            "caption": ["c"],
            "phash": pa.array([0], pa.int64()),
        }
    )
    out = decode_validate_batch(bad)
    assert not out["decode_ok"][0].as_py()


def test_image_embedding_dup_pairs_match_brute_force(ray_session):
    """Hyperplane-LSH embedding near-dup over the fixture pseudo-embeddings
    equals the O(n²) cosine check at the same threshold (planted re-encode /
    downscale dups give genuine cosine≈1 positives)."""
    import pandas as pd

    from mklab_focused_crawler_ray.pipelines.queries_media import (
        fixture_embeddings_parquet,
        q_image_embed_dup_pairs,
    )

    p = fixture_embeddings_parquet("/root/testdata/sf0.001")
    t = pq.read_table(p)
    m = np.stack([np.asarray(e, np.float64) for e in t["embedding"].to_pylist()])
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    ids = t["vec_id"].to_numpy()
    cos = m @ m.T
    ii, jj = np.triu_indices(len(ids), k=1)
    keep = cos[ii, jj] >= 0.995
    expected = {
        tuple(sorted((int(ids[a]), int(ids[b]))))
        for a, b in zip(ii[keep], jj[keep])
    }
    assert expected, "fixture must plant at least one embedding near-dup"
    res = q_image_embed_dup_pairs("/root/testdata/sf0.001")  # pandas DataFrame
    got = {tuple(sorted((int(a), int(b)))) for a, b in zip(res["doc_a"], res["doc_b"])}
    # LSH with 2 independent plane sets: every brute-force pair at this
    # threshold is near-identical → bucket collision is near-certain
    assert got == expected


# audio/video stages moved to stages/av.py (real fixture codecs) —
# covered by tests/test_av_stages.py


def test_image_dedup_eval_brute_force(ray_session):
    """Pair-counting precision/recall vs an independent brute-force
    clustering + contingency fold at the tiny tier; planted dups must
    give a nonzero recall (the fixture's near-dups really do collide)."""
    import os
    from collections import Counter

    import numpy as np
    import pyarrow.parquet as pq

    from mklab_focused_crawler_ray.pipelines.queries_media import (
        fixture_dir_for,
        q_image_dedup_eval,
    )

    got = q_image_dedup_eval("/root/testdata/sf0.001").to_pandas().iloc[0]

    fdir = fixture_dir_for("/root/testdata/sf0.001")
    im = pq.read_table(
        os.path.join(fdir, "images.parquet"), columns=["image_id", "phash"]
    )
    ids = im["image_id"].to_pylist()
    ph = np.array(im["phash"].to_pylist(), np.uint64)
    # brute-force band-blocked hamming<=8 edges (the engine's contract)
    parent = {i: i for i in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    n = len(ids)
    for i in range(n):
        for j in range(i + 1, n):
            share_band = any(
                ((int(ph[i]) >> (16 * b)) & 0xFFFF)
                == ((int(ph[j]) >> (16 * b)) & 0xFFFF)
                for b in range(4)
            )
            if share_band and bin(int(ph[i]) ^ int(ph[j])).count("1") <= 8:
                ri, rj = find(ids[i]), find(ids[j])
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    pred = {i: find(i) for i in ids}
    dm = pq.read_table(os.path.join(fdir, "images_dupmap.parquet"))
    tmap = dict(zip(dm["image_id"].to_pylist(), dm["dup_of"].to_pylist()))
    truth = {i: tmap.get(i, i) for i in ids}

    def pairs(labels):
        c = Counter(labels.values())
        return sum(v * (v - 1) // 2 for v in c.values())

    both = Counter((pred[i], truth[i]) for i in ids)
    p_pred, p_truth = pairs(pred), pairs(truth)
    p_both = sum(v * (v - 1) // 2 for v in both.values())
    assert int(got["n_pairs_pred"]) == p_pred
    assert int(got["n_pairs_truth"]) == p_truth
    assert int(got["n_pairs_both"]) == p_both
    assert int(got["precision_micro"]) == (p_both * 1_000_000) // p_pred
    assert int(got["recall_micro"]) == (p_both * 1_000_000) // p_truth
    assert p_truth > 0 and int(got["recall_micro"]) > 0


def test_image_curation_funnel_monotone(ray_session):
    """Cumulative funnel: every stage is a subset of the previous one,
    and each planted gate actually drops something at the tiny tier."""
    from mklab_focused_crawler_ray.pipelines.queries_media import (
        q_image_curation_funnel,
    )

    r = q_image_curation_funnel("/root/testdata/sf0.001").to_pandas().iloc[0]
    stages = [
        r["n_images"],
        r["n_decode_ok"],
        r["n_pass_junk"],
        r["n_pass_color"],
        r["n_dedup_rep"],
        r["n_aligned"],
    ]
    assert all(a >= b for a, b in zip(stages, stages[1:]))
    assert r["n_images"] == 100 and r["n_decode_ok"] == 100
    assert r["n_aligned"] < r["n_images"]  # the chain is not vacuous
