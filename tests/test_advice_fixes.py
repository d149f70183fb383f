"""Regression tests for the round-1 ADVICE findings:

1. ann._batch_embeddings must be Arrow-slice-offset-aware (Ray Data hands
   zero-copy sliced tables whenever a block exceeds batch_size).
2. ann._topk_rows must keep every candidate tied with the k-th score so the
   (cos desc, vec_id asc) tie-break is exact.
3. visual_index cross-shard tie-break: on exact similarity ties the
   SMALLEST id (earliest inserted) must win, matching sequential_oracle.
4. politeness robots rules honor RFC 9309 '*' and '$' wildcards.
5. sink upsert resolution is deterministic under version ties.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from mklab_focused_crawler_ray.stages.ann import _batch_embeddings, _topk_rows
from mklab_focused_crawler_ray.state.politeness import (
    RobotsRules,
    parse_robots_txt,
)


def test_batch_embeddings_on_sliced_table():
    d = 4
    rows = [[float(i), float(i) + 0.5, float(i) + 0.25, float(i) + 0.75] for i in range(8)]
    t = pa.table({"embedding": pa.array(rows)})
    s = t.slice(4, 4)  # zero-copy slice, offsets start at 16
    got = _batch_embeddings(s)
    assert got.shape == (4, d)
    assert np.allclose(got, np.asarray(rows[4:]))


def test_batch_embeddings_empty_slice():
    t = pa.table({"embedding": pa.array([[1.0, 2.0]])})
    assert _batch_embeddings(t.slice(1, 0)).shape[0] == 0


def test_topk_rows_keeps_kth_score_ties():
    # 6 vectors tie at the top score; k=2 must pick the 2 smallest vec_ids
    qids = np.array([100], np.int64)
    vids = np.array([9, 7, 5, 3, 1, 2], np.int64)
    cos = np.array([[0.9], [0.9], [0.9], [0.9], [0.9], [0.1]])
    out = _topk_rows(qids, vids, cos, k=2)
    assert out["vec_id"].to_pylist() == [1, 3]


def test_visual_shard_tie_break_matches_oracle(ray_session):
    """Exact-duplicate vectors landing in different shards: the sharded
    replay must report the same (earliest-inserted) neighbor as the pure
    sequential oracle."""
    from mklab_focused_crawler_ray.state.visual_index import (
        index_and_cluster,
        make_index_shards,
        sequential_oracle,
    )

    rng = np.random.default_rng(7)
    base = rng.standard_normal((6, 8))
    # ids chosen so duplicates hash to different owner shards
    ids = [f"img{i:03d}" for i in range(18)]
    vecs = [list(base[i % 6] + (0.0 if i < 12 else 0.001 * rng.standard_normal(8))) for i in range(18)]
    shards = make_index_shards(3)
    got_n, got_c = index_and_cluster(ids, vecs, shards, chunk=4)
    exp_n, exp_c = sequential_oracle(ids, vecs)
    assert {k: v[0] for k, v in got_n.items()} == {k: v[0] for k, v in exp_n.items()}
    assert got_c == exp_c


def test_robots_wildcard_and_anchor():
    r = RobotsRules([], ["/*?session", "/tmp/*", "/exact$"], None)
    assert not r.allowed("/page?session=1")
    assert not r.allowed("/a/b?sessionid=2")
    assert r.allowed("/page")
    assert not r.allowed("/tmp/x/y")
    assert not r.allowed("/exact")
    assert r.allowed("/exact/sub")  # '$' anchors at end

    txt = "User-agent: *\nDisallow: /*.pdf$\nAllow: /public/\n"
    rr = parse_robots_txt(txt)
    assert not rr.allowed("/docs/file.pdf")
    assert rr.allowed("/docs/file.pdfx")
    assert rr.allowed("/public/file.html")


def test_robots_longest_match_with_wildcards():
    # Allow rule longer than the wildcard disallow wins for its subtree
    r = RobotsRules(["/private/ok/"], ["/private/*"], None)
    assert not r.allowed("/private/a")
    assert r.allowed("/private/ok/x")


def test_sink_version_tie_deterministic(ray_session, tmp_path):
    import ray.data as rd

    from mklab_focused_crawler_ray.stages.sink import (
        keyed_merge_write,
        read_upserted,
    )

    # two rows per key with IDENTICAL version — survivor must be stable
    rows = {
        "k": ["a", "a", "b", "b"],
        "version": [1, 1, 2, 2],
        "payload": ["x", "y", "q", "p"],
    }
    survivors = []
    for rep in range(2):
        out = str(tmp_path / f"gen{rep}")
        keyed_merge_write(
            rd.from_arrow(pa.table(rows)).repartition(4),
            key="k",
            out_dir=out,
            version_col="version",
        )
        df = (
            read_upserted([out], key="k", version_col="version")
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        survivors.append(list(df["payload"]))
    assert survivors[0] == survivors[1]


def test_budget_cut_shard_still_commits(
    ray_session, tiny_fixture, tiny_tables, tmp_path
):
    """ADVICE r2 (high, crawl.py run_round): with round_budget=1 at most ONE
    shard receives a selection per round; every other shard that proposed
    must still get an (empty) commit so its parked candidates return to the
    queues. Pre-fix this crashed round 2 with 'propose() called twice
    without commit()' and silently lost the parked URLs."""
    from mklab_focused_crawler_ray.pipelines.config import CrawlConfig
    from mklab_focused_crawler_ray.pipelines.crawl import RayCrawler
    from mklab_focused_crawler_ray.pipelines.oracle import CrawlOracle

    cfg = CrawlConfig(
        n_shards=3, per_host_budget=4, round_budget=1, max_rounds=5
    )
    oracle = CrawlOracle(tiny_tables, cfg).run()
    assert len(oracle["trace"]) == 5
    eng = RayCrawler(tiny_fixture, cfg, out_dir=str(tmp_path / "out"))
    try:
        res = eng.run(checkpoint_every=0)
    finally:
        eng.shutdown()
    assert res["trace"] == oracle["trace"]


def test_mismatched_end_tag_inside_script_keeps_later_text():
    """ADVICE r2 (low): '</div>' encountered while inside an unclosed
    <script> pops past the script node; text after it must NOT stay
    suppressed (skip state derives from the open-ancestor chain)."""
    from mklab_focused_crawler_ray.stages.html_extract import (
        TreeBuilder,
        node_text,
    )

    # drive the TreeBuilder contract directly: html.parser's CDATA mode
    # cannot emit this sequence for <script>, but any tolerant tokenizer
    # (or <style>-adjacent recovery path) can
    tb = TreeBuilder()
    tb.handle_starttag("div", [])
    tb.handle_starttag("script", [])
    tb.handle_data("var x = 1;")
    tb.handle_endtag("div")  # mismatched: pops past the open <script>
    tb.handle_starttag("p", [])
    tb.handle_data("visible text")
    text = node_text(tb.root)
    assert "visible text" in text
    assert "var x" not in text


def test_embed_cache_keyed_by_dim_and_store():
    """ADVICE r2 (low): the worker-local embed memo must not serve a vector
    cached under a different embed_dim or image store."""
    from mklab_focused_crawler_ray.stages import visual

    visual._EMBED_CACHE.clear()
    visual._EMBED_CACHE[("img1", 64, "storeA")] = (123, [0.0] * 64)
    assert visual._EMBED_CACHE.get(("img1", 32, "storeA")) is None
    assert visual._EMBED_CACHE.get(("img1", 64, "storeB")) is None


def test_token_postings_cache_invalidates_on_rewrite(tmp_path):
    """ADVICE r2 (medium): the inverted-index cache dir must change when the
    source documents file is rewritten (same path, new content/mtime)."""
    import time

    import pyarrow as pa
    import pyarrow.parquet as pq

    from mklab_focused_crawler_ray import cache

    sf = tmp_path / "sf0.01"
    sf.mkdir()
    p = sf / "documents.parquet"
    pq.write_table(
        pa.table({"doc_id": [1], "text": ["alpha beta"]}), str(p)
    )
    d1 = cache.key("text_index", str(p))
    time.sleep(0.01)
    pq.write_table(
        pa.table({"doc_id": [1], "text": ["gamma delta"]}), str(p)
    )
    d2 = cache.key("text_index", str(p))
    assert d1 != d2
