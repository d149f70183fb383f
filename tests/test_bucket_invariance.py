"""Bucket-count invariance of the bucketed co-group (scale.cogroup).

Every bucketed co-group derives its shuffle cardinality from input size
via scale.derive_buckets (floored at each site's measured value,
overridable with MKFC_SHUFFLE_BUCKETS) and routes every side through
scale.bucket_of. The kernels must be bucket-count-INVARIANT: the query
output never depends on how many buckets the shuffle used. These tests
pin that property by running representative bucketed queries at two
adversarial cardinalities (1 and a prime) and comparing to the default,
and pin the routing hash itself.

The full-registry version of this check is the oracle sweep run under
MKFC_SHUFFLE_BUCKETS overrides (scripts/oracle_sweep.py; recorded in
BASELINE.md) — these tests keep a fast in-suite witness.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from mklab_focused_crawler_ray import scale

SF = "/root/testdata/sf0.001"

# one query per bucketed-kernel family: sessionization, shuffle-hash join,
# per-user mode, basket pair mining, bucketed co-group share, chunk dedup,
# the composed frontier schedule (string host keys), star-contraction
# connected components, and a two-sided string-keyed media join; then the
# remaining scale.cogroup callers of the crawl/curation modules: the as-of
# join, per-host politeness rounds, the keep-one-per-phash curation gate,
# the exact internal-edge check under PageRank's graph layout, the
# distributed event finisher (stages/nlp) and the embedding near-dup
# blocking join (stages/dedup)
CASES = [
    ("queries", "q_user_sessions"),
    ("queries_ml", "q_orders_join_nation"),
    ("queries_ml2", "q_user_top_event"),
    ("queries_ml3", "q_part_pair_support"),
    ("queries_ml3", "q_nation_region_share"),
    ("queries_ml3", "q_chunk_dedup_groups"),
    ("queries_crawl", "q_frontier_schedule"),
    ("queries_ml9", "q_host_components"),
    ("queries_media", "q_page_image_join_stats"),
    ("queries", "q_events_asof_click"),
    ("queries_crawl", "q_politeness_rounds"),
    ("queries_media", "q_multimodal_filter_kept"),
    ("queries_media", "q_pagerank_top20"),
    ("queries_media", "q_event_candidates"),
    ("queries_media", "q_image_embed_dup_pairs"),
]


def _run(mod_name: str, fn_name: str) -> pd.DataFrame:
    import importlib

    mod = importlib.import_module(
        f"mklab_focused_crawler_ray.pipelines.{mod_name}"
    )
    res = getattr(mod, fn_name)(SF)
    df = res.to_pandas() if hasattr(res, "to_pandas") else res
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


@pytest.mark.parametrize("mod_name,fn_name", CASES)
def test_output_invariant_across_bucket_counts(ray_session, mod_name, fn_name):
    old = os.environ.pop("MKFC_SHUFFLE_BUCKETS", None)
    try:
        base = _run(mod_name, fn_name)
        for nb in ("1", "13"):
            os.environ["MKFC_SHUFFLE_BUCKETS"] = nb
            got = _run(mod_name, fn_name)
            pd.testing.assert_frame_equal(got, base)
    finally:
        os.environ.pop("MKFC_SHUFFLE_BUCKETS", None)
        if old is not None:
            os.environ["MKFC_SHUFFLE_BUCKETS"] = old


def test_derive_buckets_floor_and_derivation(tmp_path):
    p = tmp_path / "lineitem.parquet"
    # missing input → floor; no input at all → floor
    assert scale.derive_buckets(str(p), floor=64) == 64
    assert scale.derive_buckets(floor=64) == 64
    # synthetic big file → derived count
    p.write_bytes(b"\0" * (5 * scale.TARGET_PARQUET_BYTES_PER_BUCKET))
    assert scale.derive_buckets(str(p), floor=2) == 5
    # floor wins when derived is smaller
    assert scale.derive_buckets(str(p), floor=64) == 64
    # cap bounds runaway derivation
    assert (
        scale.derive_buckets(str(p), floor=2, bytes_per_bucket=1)
        == scale.BUCKET_CAP
    )


def test_derive_buckets_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("MKFC_SHUFFLE_BUCKETS", "97")
    p = tmp_path / "lineitem.parquet"
    p.write_bytes(b"\0" * (5 * scale.TARGET_PARQUET_BYTES_PER_BUCKET))
    assert scale.derive_buckets(str(p), floor=64) == 97
    assert scale.derive_buckets(str(tmp_path), floor=2) == 97
    assert scale.derive_buckets(floor=64) == 97


def test_derive_buckets_for_paths_sums_dir_and_file(tmp_path):
    # a directory counts its *.parquet files, a file its own size
    d = tmp_path / "shard.parquet"
    d.mkdir()
    (d / "part0.parquet").write_bytes(b"\0" * scale.TARGET_PARQUET_BYTES_PER_BUCKET)
    (d / "_DONE").write_bytes(b"\0" * scale.TARGET_PARQUET_BYTES_PER_BUCKET)
    f = tmp_path / "solo.parquet"
    f.write_bytes(b"\0" * (2 * scale.TARGET_PARQUET_BYTES_PER_BUCKET))
    assert scale.derive_buckets(str(d), str(f), floor=1) == 3


def test_bucket_of_string_inputs_agree_with_fnv_formula():
    from mklab_focused_crawler_ray.functions.urls import url_hash64_vec

    keys = ["", "a", "https://x.example/é?q=1", "host.example.com", "zz" * 40]
    for nb in (1, 7, 64, 97):
        # the formula every string-keyed site used before the primitive;
        # persisted bucket layouts depend on it staying bit-identical
        want = (url_hash64_vec(keys) % np.uint64(nb)).astype(np.int64)
        for form in (
            pa.array(keys, pa.string()),
            pa.array(keys, pa.large_string()),
            pa.chunked_array([keys[:2], keys[2:]], pa.string()),
            np.array(keys, dtype=object),
            np.array(keys),
            keys,
        ):
            got = scale.bucket_of(form, nb)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)


def test_bucket_of_integer_inputs_and_empty():
    ints = [0, 5, -3, 2**40 + 1]
    want = np.array(ints, np.int64) % 7
    for form in (
        pa.array(ints, pa.int64()),
        pa.chunked_array([ints[:1], ints[1:]], pa.int64()),
        np.array(ints, np.int64),
        ints,
    ):
        np.testing.assert_array_equal(scale.bucket_of(form, 7), want)
    assert (scale.bucket_of(np.array(ints, np.int64), 7) >= 0).all()
    u = np.array([2**63 + 5], np.uint64)
    assert scale.bucket_of(u, 4).tolist() == [(2**63 + 5) % 4]
    assert scale.bucket_of([], 4).dtype == np.int64
    assert len(scale.bucket_of(pa.array([], pa.string()), 4)) == 0
