"""Round-4 (cont.) training-data operators: exact substring-duplication
spans, crawl-graph hop distance, HITS, a BPE merge step, and vision-token
cost planning.

The headline operator here is ``substring_dup_spans`` — the exact
duplicated-substring pass of Lee et al., "Deduplicating Training Data
Makes Language Models Better" (ACL 2022): find every maximal character
span whose ``DUPSPAN_L``-grams occur more than once anywhere in the
corpus (across documents OR self-repetition inside one document), the
step that precedes span REMOVAL in that pipeline. The reference crawler
(mklab-focused-crawler, DeDuplicator/StatusCheck family — see
SURVEY.md §2.5) only dedups whole items by id/hash; span-level dedup is
the corpus-scale generalisation a training pipeline needs.

House oracle discipline throughout: character-exact grams (ASCII fast
path = byte fast path), integer positions, and interval-merge arithmetic
that DuckDB replays bit-for-bit with window functions.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from .. import cache
from .queries_ml2 import _p

# --------------------------------------------------------------------------
# exact substring-duplication spans (Lee et al. 2022, the marking pass)
# --------------------------------------------------------------------------

DUPSPAN_L = 24  # gram width in characters. Part of the output contract
# (span boundaries are defined by it), NOT a shuffle knob — fixed, like
# ORD_BUCKETS. 24 chars ~ the 50-token threshold of the paper scaled to
# the fixture's short documents.
DUPSPAN_MIN_OCC = 2  # a gram is "duplicated" once it occurs this often


def _doc_grams_u(text: str) -> np.ndarray:
    """All DUPSPAN_L-char grams of ``text`` as a fixed-width ``U`` array.

    ASCII fast path: one frombuffer + sliding_window_view + S→U cast
    (zero per-position Python). Non-ASCII falls back to per-position
    slicing so char semantics stay identical to DuckDB ``substr``."""
    n = len(text)
    if n < DUPSPAN_L:
        return np.empty(0, dtype=f"U{DUPSPAN_L}")
    if text.isascii():
        b = np.frombuffer(text.encode(), np.uint8)
        w = np.lib.stride_tricks.sliding_window_view(b, DUPSPAN_L)
        return w.view(f"S{DUPSPAN_L}")[:, 0].astype(f"U{DUPSPAN_L}")
    return np.array(
        [text[i : i + DUPSPAN_L] for i in range(n - DUPSPAN_L + 1)],
        dtype=f"U{DUPSPAN_L}",
    )


def q_substring_dup_spans(sf_dir: str):
    """EXACT SUBSTRING DEDUP (marking pass): per document, the merged
    character spans every position of which lies inside some
    ``DUPSPAN_L``-gram that occurs ≥ ``DUPSPAN_MIN_OCC`` times corpus-wide
    (other docs or a repeat within the same doc). Output one row per
    maximal span: (doc_id, span_start, span_len), 0-based, spans that
    touch are merged. The removal stage is then a trivial per-doc splice.

    Scale shape: pass 1 ships (gram, partial_count) — per-batch
    ``np.unique`` combiner, so the shuffle carries each distinct gram
    once per batch, never positions — through one bucketed co-group;
    the surviving duplicated-gram set is threshold-bounded and
    broadcasts (``ray.put`` once) exactly like the decontam/boilerplate
    family; pass 2 re-scans documents map-side (sliding-window +
    searchsorted, no shuffle) and emits merged spans per doc. Two
    streaming document scans + one combined gram shuffle. At 100 TB the
    gram shuffle is the documented cost of EXACT span dedup (the paper
    pays it with a suffix array); when the duplicated-gram set outgrows
    the broadcast budget the pass-2 gate becomes the same bucketed
    co-group used by ``boilerplate_gram_docs``."""
    import ray
    import ray.data as rd

    from ..scale import cogroup, derive_buckets

    nb = derive_buckets(_p(sf_dir, "documents"), floor=64)

    def gram_partials(batch: pa.Table) -> pa.Table:
        per_doc = [_doc_grams_u(t) for t in batch["text"].to_pylist()]
        per_doc = [g for g in per_doc if len(g)]
        if not per_doc:
            return pa.table(
                {
                    "gram": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                }
            )
        grams, counts = np.unique(np.concatenate(per_doc), return_counts=True)
        return pa.table(
            {
                "gram": pa.array(grams),
                "n": pa.array(counts.astype(np.int64)),
            }
        )

    def dup_grams(g) -> pa.Table:
        agg = g.groupby("gram", sort=False)["n"].sum()
        keep = agg[agg >= DUPSPAN_MIN_OCC]
        return pa.table({"gram": pa.array(keep.index.to_numpy().astype(str))})

    docs = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    dup = cogroup(
        docs.map_batches(gram_partials, batch_format="pyarrow"), "gram", dup_grams, nb
    ).to_pandas()  # threshold-bounded: only corpus-repeated grams
    dset = np.sort(np.asarray(dup["gram"].to_numpy(), dtype=f"U{DUPSPAN_L}"))
    dref = ray.put(dset)

    def spans(batch: pa.Table) -> pa.Table:
        ds = ray.get(dref)
        out_d, out_s, out_l = [], [], []
        for d, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            g = _doc_grams_u(t)
            if not len(g) or not len(ds):
                continue
            pos = np.searchsorted(ds, g)
            hit = (pos < len(ds)) & (ds[np.clip(pos, 0, len(ds) - 1)] == g)
            if not hit.any():
                continue
            p = np.flatnonzero(hit)  # sorted gram start positions
            # merge spans of width L that overlap or touch: a new island
            # starts where the gap to the previous gram exceeds L
            starts = np.flatnonzero(np.diff(p) > DUPSPAN_L)
            lo = np.concatenate(([0], starts + 1))
            hi = np.concatenate((starts, [len(p) - 1]))
            for a, b in zip(p[lo], p[hi]):
                out_d.append(int(d))
                out_s.append(int(a))
                out_l.append(int(b) + DUPSPAN_L - int(a))
        return pa.table(
            {
                "doc_id": pa.array(out_d, pa.int64()),
                "span_start": pa.array(out_s, pa.int64()),
                "span_len": pa.array(out_l, pa.int64()),
            }
        )

    return docs.map_batches(spans, batch_format="pyarrow")


def _dupspan_sql() -> str:
    ll = DUPSPAN_L
    return (
        "WITH g0 AS (SELECT doc_id, unnest(list_transform("
        f"range(0, greatest(length(text)-{ll}+1, 0)), "
        f"i -> {{'pos': i, 'gram': substr(text, (i+1)::INT, {ll})}})) AS u "
        "FROM documents), "
        "g AS (SELECT doc_id, u.pos AS pos, u.gram AS gram FROM g0), "
        f"c AS (SELECT gram FROM g GROUP BY gram HAVING count(*) >= {DUPSPAN_MIN_OCC}), "
        "h AS (SELECT g.doc_id, g.pos FROM g JOIN c USING (gram)), "
        f"m AS (SELECT doc_id, pos, CASE WHEN pos > coalesce(max(pos + {ll}) "
        "OVER (PARTITION BY doc_id ORDER BY pos "
        "ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), -1) "
        "THEN 1 ELSE 0 END AS st FROM h), "
        "i AS (SELECT doc_id, pos, sum(st) OVER (PARTITION BY doc_id ORDER BY pos) "
        "AS isl FROM m) "
        "SELECT doc_id, min(pos) AS span_start, "
        f"max(pos) + {ll} - min(pos) AS span_len FROM i GROUP BY doc_id, isl"
    )


# --------------------------------------------------------------------------
# shared link-graph plumbing (BFS, HITS): bloom-prefiltered edge explode
# --------------------------------------------------------------------------


def _page_bloom_ref(node_ds):
    """Distributed splitmix64 bloom over page urls (per-block partial
    bitmaps OR-folded on the driver — O(m) driver memory, never the node
    array; same construction as pagerank_top20's gate)."""
    import ray

    from ..functions.bloom import bloom_add, bloom_m_bits
    from ..functions.urls import url_hash64_vec

    m_bits = bloom_m_bits(node_ds.count())  # metadata count, no collect

    def bloom_partial(batch: pa.Table) -> pa.Table:
        w = np.zeros(m_bits // 64, np.uint64)
        bloom_add(w, m_bits, url_hash64_vec(batch["url"].to_pylist()))
        return pa.table({"words": pa.array([w.view(np.int64).tolist()])})

    words = np.zeros(m_bits // 64, np.uint64)
    for b in node_ds.map_batches(
        bloom_partial, batch_format="pyarrow"
    ).iter_batches(batch_format="pyarrow"):
        for row in b["words"].to_pylist():
            words |= np.asarray(row, np.int64).view(np.uint64)
    return ray.put((words, m_bits))


def _link_explode_fn(bloom_ref):
    """out_links explode → (src, dst, side=1) rows, bloom-prefiltered so
    links pointing outside the page set mostly never enter the shuffle
    (no false negatives; survivors still need an exact check)."""
    import ray
    import pyarrow.compute as pc

    from ..functions.bloom import bloom_contains
    from ..functions.urls import url_hash64_vec

    def explode(batch: pa.Table) -> pa.Table:
        bw, bm = ray.get(bloom_ref)
        links = batch["out_links"]
        if isinstance(links, pa.ChunkedArray):
            links = links.combine_chunks()
        flat = pc.list_flatten(links)
        parent = pc.list_parent_indices(links)
        src = pc.take(batch["url"], parent).to_numpy(zero_copy_only=False)
        dst = flat.to_numpy(zero_copy_only=False)
        if len(dst):
            maybe = bloom_contains(bw, bm, url_hash64_vec(dst.tolist()))
            src, dst = src[maybe], dst[maybe]
        return pa.table(
            {
                "src": pa.array(src.tolist(), pa.string()),
                "dst": pa.array(dst.tolist(), pa.string()),
                "side": pa.array(np.ones(len(dst), np.int64), pa.int64()),
            }
        )

    return explode


def _internal_edges_exact(pages: str, nb: int):
    """Exact internal edge list (src, dst): exploded out-links bloom-
    prefiltered, then bucketed co-group with the node table by hash(dst)
    kills the bloom's false positives on string equality. Multi-edges
    (a url listed twice in one page's out_links) are KEPT — mass-flow
    operators count them, exactly like unnest does SQL-side."""
    import ray.data as rd

    from ..scale import cogroup

    node_ds = rd.read_parquet(pages, columns=["url"]).materialize()
    raw = rd.read_parquet(pages, columns=["url", "out_links"]).map_batches(
        _link_explode_fn(_page_bloom_ref(node_ds)), batch_format="pyarrow"
    )
    node_side = node_ds.map_batches(
        lambda b: pa.table(
            {
                "src": pa.array([""] * len(b), pa.string()),
                "dst": b["url"],
                "side": pa.array(np.zeros(len(b), np.int64), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    def verify(g) -> pa.Table:
        nodeset = g[g["side"] == 0]["dst"].to_numpy(object)
        ee = g[g["side"] == 1]
        keep = np.isin(ee["dst"].to_numpy(object), nodeset)
        return pa.table(
            {
                "src": pa.array(ee["src"].to_numpy(object)[keep].tolist(), pa.string()),
                "dst": pa.array(ee["dst"].to_numpy(object)[keep].tolist(), pa.string()),
            }
        )

    return (
        cogroup(raw.union(node_side).repartition(nb), "dst", verify, nb).materialize(),
        node_ds,
    )


# --------------------------------------------------------------------------
# crawl-depth analysis: BFS hop distance from the seed frontier
# --------------------------------------------------------------------------

HOP_MAX = 8  # BFS depth cap — part of the output contract (reference
# crawls bound their depth the same way; SURVEY §1.1 frontier rounds)


def _graph_layout(sf_dir: str) -> tuple[str, int]:
    """Stationary per-shard graph layout for the iterative ops (BFS,
    HITS): exact internal edges hive-partitioned by src AND dst bucket
    plus nodes by url bucket, materialized ONCE per pages-table content
    fingerprint + bucket count in the corpus cache and shared by every
    iterative query (stages/pregel.py; VERDICT r4 'Next round' #7 — the
    loop-invariant edge table stops re-shuffling through every
    iteration)."""
    from ..scale import derive_buckets
    from ..stages.pregel import build_graph_layout
    from .queries_media import _pages_path

    pages = _pages_path(sf_dir)
    nb = derive_buckets(pages, floor=32)
    out = cache.materialize(
        cache.key(f"graph_layout-nb{nb}", pages),
        lambda d: build_graph_layout(*_internal_edges_exact(pages, nb), d, nb),
    )
    return out, nb


def q_seed_hop_distance(sf_dir: str):
    """CRAWL-DEPTH ANALYSIS: minimum link-hop distance from the seed
    frontier to every reachable page, depth-capped at ``HOP_MAX`` —
    (url, hop) with hop 0 for seed pages. The reference crawler's
    frontier expands in exactly these rounds (URLExpansion → Ranker,
    SURVEY §1.1); this is the batch replay of that reachability, and the
    standard "crawl depth" audit a corpus pipeline reports.

    Scale shape: synchronous distributed BFS over STATIONARY edge shards
    (stages/pregel.py): the exact internal edge list materializes once
    into the shared hive-partitioned layout, each shard actor loads only
    its own partitions, and a level is ONE actor round — settle (dedupe −
    visited, node-verified at hop 0; later candidates come from the
    pre-verified edges) + expand, exchanging only locally-combined
    frontier messages keyed by url hash. Replaces the former two bucketed
    co-groups per level that re-shuffled the loop-invariant edge table
    (r4 'Next round' #7); result rows are identical (same hash routing,
    same set algebra — the unchanged recursive-CTE oracle pins it)."""
    import pyarrow.parquet as pq_

    from ..stages.pregel import bfs_hops
    from .queries_media import fixture_dir_for

    seeds_path = os.path.join(fixture_dir_for(sf_dir), "frontier_seed.parquet")
    layout, nb = _graph_layout(sf_dir)
    seeds = pq_.read_table(seeds_path, columns=["url"])["url"].to_pylist()
    return bfs_hops(layout, nb, np.array(seeds, object), HOP_MAX)


# --------------------------------------------------------------------------
# HITS hubs & authorities (integer-exact, L1-normalized per half-step)
# --------------------------------------------------------------------------

HITS_ITERS = 3  # synchronous iterations (each = authority then hub update)
HITS_TOP = 20
HITS_SCALE = 1_000_000  # micro units; every half-step renormalizes the
# L1 mass to ~HITS_SCALE so products stay far inside int64


def q_hits_top20(sf_dir: str):
    """HITS over the fixture link graph: ``HITS_ITERS`` synchronous
    iterations of authority←Σ-in-hub / hub←Σ-out-authority, each
    half-step L1-renormalized in integer micro units
    (``score * SCALE // total``), then the top-``HITS_TOP`` pages by
    (authority desc, url asc) with both scores. PageRank's companion on
    the same graph — the reference ranks its frontier by a quality score
    (RankerBolt, SURVEY §1.1); hubs/authorities is the classic link-
    analysis alternative a crawl corpus ships.

    All arithmetic is int64 (sums of micro scores; integer floor-div by
    the global total) so the fixed point is summation-order-free and the
    unrolled-CTE DuckDB oracle replays it bit-for-bit. Scale shape:
    STATIONARY edge shards (stages/pregel.py, shared layout with
    seed_hop_distance): the exact internal edge list materializes once
    in both orientations; a half-step is one emit (locally-combined
    per-endpoint partial sums) + one exchange of node-shaped score
    messages + a scalar global total — the loop-invariant edges never
    re-shuffle (r4 'Next round' #7). Urls that receive no flow row drop
    out of that half-step\'s score table, exactly like the former
    inner-merge co-group; the final top-k merges per-shard local top-k
    (selection is merge-safe)."""
    from ..stages.pregel import hits_scores

    layout, nb = _graph_layout(sf_dir)
    return hits_scores(layout, nb, HITS_ITERS, HITS_TOP)


# --------------------------------------------------------------------------
# BPE merge step (tokenizer training over the corpus)
# --------------------------------------------------------------------------

BPE_TOP = 16  # pairs reported after the merge is applied
BPE_MERGE_MARK = "\x01"  # single-codepoint stand-in for the merged symbol
# (outside [a-z0-9], so it can never collide with corpus characters; both
# numpy and DuckDB rewrite with plain left-to-right non-overlapping replace)


def _pair_counts_u16(words_blob: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Adjacent-symbol pair counts over a space-joined word blob (uint8
    array). Pairs never cross the space separators. Returns (codes,
    counts) with code = left_byte*256 + right_byte — one bincount, no
    Python loop."""
    if len(words_blob) < 2:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    a, b = words_blob[:-1], words_blob[1:]
    ok = (a != 32) & (b != 32)
    codes = a[ok].astype(np.int64) * 256 + b[ok]
    cnt = np.bincount(codes, minlength=65536)
    nz = np.flatnonzero(cnt)
    return nz, cnt[nz].astype(np.int64)


def q_bpe_merge_step(sf_dir: str):
    """ONE BPE TRAINING STEP over the document corpus: count adjacent
    symbol pairs inside ``[a-z0-9]+`` words (weighted by occurrence),
    take the most frequent pair (ties → lexicographically smallest),
    apply that merge corpus-wide (left-to-right non-overlapping, the
    merged pair becomes the single symbol ``BPE_MERGE_MARK``), and
    report the top-``BPE_TOP`` pairs of the REWRITTEN corpus — i.e. the
    candidate set for merge #2. This is byte-pair-encoding vocabulary
    learning's inner loop (Sennrich et al. 2016) as a distributed batch
    op; a full tokenizer train iterates it.

    Scale shape: two streaming corpus scans. Each batch joins its words
    into one byte blob and counts pairs with a single ``bincount`` over
    the 2-byte code space — the shuffle ships at most 65536 (pair,
    partial-count) rows per batch and the global aggregate is
    alphabet²-bounded, so there is no corpus-sized shuffle at any
    scale. The winning pair is a scalar broadcast into scan 2."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .queries import TOKEN_RE

    def scan(merge_pair: str | None):
        def pairs(batch: pa.Table) -> pa.Table:
            texts = batch["text"].to_pylist()
            words: list[str] = []
            for t in texts:
                words.extend(TOKEN_RE.findall(t.lower()))
            if merge_pair is not None:
                blob = " ".join(words).replace(merge_pair, BPE_MERGE_MARK)
            else:
                blob = " ".join(words)
            codes, cnt = _pair_counts_u16(np.frombuffer(blob.encode(), np.uint8))
            return pa.table(
                {
                    "pair": pa.array(
                        [chr(c >> 8) + chr(c & 255) for c in codes.tolist()],
                        pa.string(),
                    ),
                    "n": pa.array(cnt, pa.int64()),
                }
            )

        return (
            rd.read_parquet(_p(sf_dir, "documents"), columns=["text"])
            .map_batches(pairs, batch_format="pyarrow")
            .groupby("pair")
            .aggregate(Sum("n", alias_name="n"))
        )

    c1 = scan(None).to_pandas()  # alphabet²-bounded
    top = c1.sort_values(["n", "pair"], ascending=[False, True]).iloc[0]["pair"]

    c2 = scan(str(top)).to_pandas()
    c2 = c2.sort_values(["n", "pair"], ascending=[False, True]).head(BPE_TOP)
    return pa.table(
        {
            "pair": pa.array(c2["pair"].tolist(), pa.string()),
            "n": pa.array(c2["n"].to_numpy(np.int64), pa.int64()),
        }
    )


def _bpe_sql() -> str:
    mark = "chr(1)"
    return (
        "WITH w AS (SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) "
        "AS word FROM documents), "
        "p1 AS (SELECT unnest(list_transform(range(1, length(word)), "
        "i -> substr(word, i::INT, 2))) AS pair FROM w), "
        "c1 AS (SELECT pair, count(*) AS n FROM p1 GROUP BY pair), "
        "top1 AS (SELECT pair FROM c1 ORDER BY n DESC, pair ASC LIMIT 1), "
        f"w2 AS (SELECT replace(word, (SELECT pair FROM top1), {mark}) AS word "
        "FROM w), "
        "p2 AS (SELECT unnest(list_transform(range(1, length(word)), "
        "i -> substr(word, i::INT, 2))) AS pair FROM w2), "
        "c2 AS (SELECT pair, CAST(count(*) AS BIGINT) AS n FROM p2 GROUP BY pair) "
        f"SELECT pair, n FROM c2 ORDER BY n DESC, pair ASC LIMIT {BPE_TOP}"
    )


# --------------------------------------------------------------------------
# vision-token cost planning (ViT patch accounting per AR bucket)
# --------------------------------------------------------------------------

VIT_PATCH = 16  # ViT patch edge; targets below are all patch-divisible
# target train resolution per AR bucket (SDXL-style ~512² pixel budget);
# index-aligned with queries_media.AR_BUCKETS
AR_TARGET_DIMS = [(512, 512), (576, 432), (432, 576), (672, 384), (384, 672)]


def q_image_token_cost(sf_dir: str):
    """VISION-TOKEN BUDGET PLANNING: assign every image to its aspect-
    ratio bucket (same argmin contract as ``image_ar_buckets``), map the
    bucket to its fixed patch-divisible train resolution, and roll up
    per bucket the total multimodal sequence cost a training run will
    pay: (bucket_w, bucket_h, n_images, vision_tokens, caption_tokens)
    where vision tokens = (tw/16)·(th/16)+1 per image (patch grid + CLS)
    and caption tokens = ``[a-z0-9]+`` word count. The table a batch
    planner sizes its token budget / packing from.

    Scale shape: metadata-only map (bytes never read) with per-batch
    bincount partials over the 5-bucket key — the shuffle carries ≤5
    rows per batch at any corpus size."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .queries import TOKEN_RE
    from .queries_media import AR_BUCKETS, _images

    bppm = np.array([w * 1_000_000 // h for w, h in AR_BUCKETS], np.int64)
    vis_per = np.array(
        [(tw // VIT_PATCH) * (th // VIT_PATCH) + 1 for tw, th in AR_TARGET_DIMS],
        np.int64,
    )
    nbk = len(AR_BUCKETS)

    def partial(batch: pa.Table) -> pa.Table:
        w = batch["w"].to_numpy().astype(np.int64)
        h = batch["h"].to_numpy().astype(np.int64)
        ar = w * 1_000_000 // h
        pick = np.argmin(np.abs(ar[:, None] - bppm[None, :]), axis=1)
        cap = np.array(
            [len(TOKEN_RE.findall(c.lower())) for c in batch["caption"].to_pylist()],
            np.int64,
        )
        n = np.bincount(pick, minlength=nbk)
        vis = n * vis_per
        capt = np.bincount(pick, weights=cap, minlength=nbk).astype(np.int64)
        keep = np.flatnonzero(n)
        return pa.table(
            {
                "bi": pa.array(keep, pa.int64()),
                "n_images": pa.array(n[keep], pa.int64()),
                "vision_tokens": pa.array(vis[keep], pa.int64()),
                "caption_tokens": pa.array(capt[keep], pa.int64()),
            }
        )

    agg = (
        rd.read_parquet(_images(sf_dir), columns=["image_id", "w", "h", "caption"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("bi")
        .aggregate(
            Sum("n_images", alias_name="n_images"),
            Sum("vision_tokens", alias_name="vision_tokens"),
            Sum("caption_tokens", alias_name="caption_tokens"),
        )
    )
    bw = np.array([b[0] for b in AR_BUCKETS], np.int64)
    bh = np.array([b[1] for b in AR_BUCKETS], np.int64)

    def attach(batch: pa.Table) -> pa.Table:
        bi = batch["bi"].to_numpy().astype(np.int64)
        return pa.table(
            {
                "bucket_w": pa.array(bw[bi], pa.int64()),
                "bucket_h": pa.array(bh[bi], pa.int64()),
                "n_images": batch["n_images"],
                "vision_tokens": batch["vision_tokens"],
                "caption_tokens": batch["caption_tokens"],
            }
        )

    return agg.map_batches(attach, batch_format="pyarrow")


# --------------------------------------------------------------------------
# curriculum ordering: global training order without a global sort
# --------------------------------------------------------------------------


def q_curriculum_order(sf_dir: str):
    """LANGUAGE-INTERLEAVED QUALITY CURRICULUM: a total training order
    over all documents — best documents first, languages round-robin
    interleaved — without ever running a global sort. Per document:
    (doc_id, lang, lang_rank, global_ord) where lang_rank ranks within
    the language by (quality_micro desc, doc_id asc) and global_ord is
    the position in the merged order sorted by (lang_rank, lang).

    Scale shape: the global ordinal is pure arithmetic over broadcast
    per-language COUNTS — ord(r, l) = Σ_l' min(count_l', r−1) +
    |{l' < l : count_l' ≥ r}| + 1 — so no stage ever sees the corpus in
    one place. Within-language ranks come from a two-level split:
    quality_micro takes a BOUNDED set of values (the score is a product
    of discrete gate factors), so per-(lang, score) counts are a tiny
    driver-side table giving each tie-class its rank offset, and only
    the tie-class itself (grouped by (lang, score)) needs an in-group
    argsort over doc_id. At 100 TB an oversized tie class range-
    partitions by doc_id with the same offset trick, one level deeper."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..functions.text import lang_quality_batch
    from .queries import _micro

    def score(batch: pa.Table) -> pa.Table:
        qm = _micro(lang_quality_batch(batch["text"].to_pylist())["quality"])
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "lang": batch["lang"],
                "quality_micro": pa.array(qm, pa.int64()),
                "ls": pa.array(
                    [
                        f"{lg}:{q:012d}"
                        for lg, q in zip(batch["lang"].to_pylist(), qm.tolist())
                    ],
                    pa.string(),
                ),
            }
        )

    scored = rd.read_parquet(
        _p(sf_dir, "documents"), columns=["doc_id", "text", "lang"]
    ).map_batches(score, batch_format="pyarrow")

    # tiny (lang, score) histogram → per-class rank offsets + lang totals
    import pandas as pd

    hist = (
        scored.map_batches(
            lambda b: pa.table(
                {
                    "ls": b["ls"],
                    "lang": b["lang"],
                    "quality_micro": b["quality_micro"],
                    "n": pa.array(np.ones(len(b), np.int64), pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        .groupby("ls")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    meta = hist["ls"].str.rsplit(":", n=1, expand=True)
    hist["lang"], hist["q"] = meta[0], meta[1].astype(np.int64)
    hist = hist.sort_values(["lang", "q"], ascending=[True, False])
    hist["offset"] = hist.groupby("lang")["n"].cumsum() - hist["n"]
    offsets = dict(zip(hist["ls"], hist["offset"].astype(int)))
    langs = sorted(hist["lang"].unique().tolist())
    counts = np.array(
        [int(hist.loc[hist["lang"] == lg, "n"].sum()) for lg in langs], np.int64
    )
    lang_idx = {lg: i for i, lg in enumerate(langs)}
    bref = ray.put((offsets, langs, counts, lang_idx))

    def rank_class(g) -> pa.Table:
        off, lgs, cnts, lidx = ray.get(bref)
        ids = g["doc_id"].to_numpy(np.int64)
        order = np.argsort(ids, kind="stable")
        r_in = np.empty(len(ids), np.int64)
        r_in[order] = np.arange(1, len(ids) + 1)
        ls = g["ls"].iloc[0]
        r = off[ls] + r_in
        li = lidx[g["lang"].iloc[0]]
        # ord(r, l) = Σ_l' min(count_l', r−1) + |{l' < l : count_l' ≥ r}| + 1
        below = np.minimum(cnts[None, :], (r - 1)[:, None]).sum(axis=1)
        same = (cnts[None, :li] >= r[:, None]).sum(axis=1)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "lang": pa.array(g["lang"].tolist(), pa.string()),
                "lang_rank": pa.array(r, pa.int64()),
                "global_ord": pa.array(below + same + 1, pa.int64()),
            }
        )

    return scored.groupby("ls").map_groups(rank_class, batch_format="pandas")


# --------------------------------------------------------------------------
# balanced output sharding (greedy LPT over per-source weights)
# --------------------------------------------------------------------------

LPT_SHARDS = 4  # output shard count — part of the contract (the unrolled
# recursive oracle tracks one load column per shard, so keep it small at
# fixture scale; a production run raises it with the identical kernel)


def _lpt_assign(weights: np.ndarray, n_shards: int) -> np.ndarray:
    """Greedy longest-processing-time placement: items in the given
    (already sorted) order each go to the currently-lightest shard,
    ties → lowest shard index. Returns the shard per item."""
    loads = np.zeros(n_shards, np.int64)
    out = np.empty(len(weights), np.int64)
    for i, w in enumerate(weights):
        s = int(np.argmin(loads))  # first minimum → lowest index on ties
        out[i] = s
        loads[s] += int(w)
    return out


def q_shard_assign_sources(sf_dir: str):
    """BALANCED OUTPUT SHARDING: assign every document source to one of
    ``LPT_SHARDS`` output shards so shard byte loads balance — greedy
    LPT (sources by weight desc, each to the lightest shard so far, ties
    → smaller source name then lower shard id). Output (source, shard,
    w_chars). This is the partition-planning step before a resumable
    partitioned-parquet write: one directory per shard, sized evenly so
    no straggler shard dominates the write wall-time.

    Scale shape: the per-source weights come from a metadata-only
    distributed aggregate (SUM(n_chars), never the text column); the
    greedy itself runs on the driver over the AGGREGATED table — a
    bounded planning step (sources are registered domains: thousands,
    not corpus-sized), the same discipline as ``bpe_merge_step``'s
    top-1 selection and the pack kernel's per-partition serial step."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    w = (
        rd.read_parquet(_p(sf_dir, "documents"), columns=["source", "n_chars"])
        .groupby("source")
        .aggregate(Sum("n_chars", alias_name="w_chars"))
        .to_pandas()  # bounded: one row per source
        .sort_values(["w_chars", "source"], ascending=[False, True])
        .reset_index(drop=True)
    )
    shard = _lpt_assign(w["w_chars"].to_numpy(np.int64), LPT_SHARDS)
    return pa.table(
        {
            "source": pa.array(w["source"].tolist(), pa.string()),
            "shard": pa.array(shard, pa.int64()),
            "w_chars": pa.array(w["w_chars"].to_numpy(np.int64), pa.int64()),
        }
    )


def _lpt_sql() -> str:
    k = LPT_SHARDS
    loads = ", ".join(f"l{i}" for i in range(k))
    # pick = index of the minimal load, lowest index on ties
    def pick_case() -> str:
        conds = []
        for i in range(k):
            c = " AND ".join(f"st.l{i} <= st.l{j}" for j in range(i + 1, k))
            conds.append(f"WHEN {c} THEN {i}" if c else f"ELSE {i} END")
        return "CASE " + " ".join(conds[:-1]) + " " + conds[-1]

    pick = pick_case()
    load_updates = ", ".join(
        f"st.l{i} + CASE WHEN ({pick}) = {i} THEN o.w ELSE 0 END" for i in range(k)
    )
    zeros = ", ".join(f"CAST(0 AS BIGINT) AS l{i}" for i in range(k))
    return (
        "WITH RECURSIVE "
        "s AS (SELECT source, CAST(SUM(n_chars) AS BIGINT) AS w "
        "FROM documents GROUP BY source), "
        "o AS (SELECT source, w, ROW_NUMBER() OVER "
        "(ORDER BY w DESC, source) AS rn FROM s), "
        f"st(rn, src, shard, w, {loads}) AS ("
        f"SELECT 0, CAST(NULL AS VARCHAR), 0, CAST(0 AS BIGINT), {zeros} "
        "UNION ALL "
        f"SELECT o.rn, o.source, ({pick}), o.w, {load_updates} "
        "FROM st JOIN o ON o.rn = st.rn + 1) "
        "SELECT src AS source, CAST(shard AS BIGINT) AS shard, "
        "w AS w_chars FROM st WHERE rn > 0"
    )


# --------------------------------------------------------------------------
# sequential SimHash reference signatures (flips simhash_docs to [sql])
# --------------------------------------------------------------------------


def simhash_reference_parquet(sf_dir: str) -> str:
    """Expected (doc_id, simhash) from a SEQUENTIAL, independently-coded
    SimHash: one plain Python loop per document with integer bit votes —
    no numpy broadcast kernel, no Ray, no batching — so equality against
    the distributed ``simhash_docs`` pipeline is a real end-to-end check
    (the ``image_thumbnails`` signature-table discipline; blake2b itself
    stays non-SQL-expressible). Cached in the corpus cache, keyed by the
    documents table's content fingerprint."""
    import pyarrow.parquet as pq

    from ..functions.hashing import stable_hash64
    from .queries import TOKEN_RE

    src = _p(sf_dir, "documents")

    def write(tmp: str) -> None:
        tbl = pq.read_table(src, columns=["doc_id", "text"])
        sigs = []
        for t in tbl["text"].to_pylist():
            votes = [0] * 64
            for tok in TOKEN_RE.findall(t.lower()):
                hv = int(stable_hash64(tok))
                for b in range(64):
                    votes[b] += 1 if (hv >> b) & 1 else -1
            sig = 0
            for b in range(64):
                if votes[b] > 0:
                    sig |= 1 << b
            sigs.append(sig - (1 << 64) if sig >= (1 << 63) else sig)
        pq.write_table(
            pa.table({"doc_id": tbl["doc_id"], "simhash": pa.array(sigs, pa.int64())}),
            tmp,
        )

    return cache.materialize(cache.key("simhash_ref.parquet", src), write)


# --------------------------------------------------------------------------
# per-source budget sampling (cumulative prefix gate)
# --------------------------------------------------------------------------

SRC_BUDGET_CHARS = 4000  # per-source character budget (fixture-scaled:
# sources carry ~7.5k chars each, so the gate keeps roughly half; a real
# run raises it per the mixture allocator's output)
_KNUTH_H = 2654435761  # same multiplicative hash as lang_sample_topk


def q_source_budget_docs(sf_dir: str):
    """PER-SOURCE BUDGET SAMPLING — the sampler the mixture allocator
    (``lang_token_budget``) feeds: within each source, documents in
    deterministic hash order (``(doc_id · 2654435761) mod 2³²`` asc,
    doc_id asc) are kept while the source's cumulative character count
    BEFORE the document is still under ``SRC_BUDGET_CHARS`` (so the
    budget may be overshot once, by the crossing document — first-fit).
    Output kept rows: (doc_id, source, h, cum_before). Domain caps /
    per-host quotas in crawl curation are this exact kernel.

    Scale shape: metadata-only (doc_id, source, n_chars — text never
    read); sources hash-bucket into ``nb`` groups and each group runs
    one vectorized lexsort + segmented cumsum — the per-source prefix
    recurrence is the irreducible serial unit, sources are the
    parallelism, same discipline as ``doc_pack_sequences``."""
    import ray.data as rd

    from ..scale import cogroup, derive_buckets

    nb = derive_buckets(_p(sf_dir, "documents"), floor=16)

    def gate(g) -> pa.Table:
        ids = g["doc_id"].to_numpy(np.int64)
        src = g["source"].to_numpy(object).astype(str)
        nch = g["n_chars"].to_numpy(np.int64)
        h = ((ids.astype(np.uint64) * np.uint64(_KNUTH_H)) % np.uint64(1 << 32)).astype(
            np.int64
        )
        order = np.lexsort((ids, h, src))  # (source, h, doc_id) ascending
        src_o, h_o, ids_o, nch_o = src[order], h[order], ids[order], nch[order]
        # segmented cumulative-before: global cumsum minus each source
        # segment's starting offset (src_o is sorted → segments contiguous)
        starts = np.flatnonzero(np.concatenate(([True], src_o[1:] != src_o[:-1])))
        cum = np.cumsum(nch_o)
        seg_of = np.searchsorted(starts, np.arange(len(src_o)), side="right") - 1
        seg_base = (cum - nch_o)[starts]  # cumulative before each segment
        cum_before = (cum - nch_o) - seg_base[seg_of]
        keep = cum_before < SRC_BUDGET_CHARS
        return pa.table(
            {
                "doc_id": pa.array(ids_o[keep], pa.int64()),
                "source": pa.array(src_o[keep].tolist(), pa.string()),
                "h": pa.array(h_o[keep], pa.int64()),
                "cum_before": pa.array(cum_before[keep], pa.int64()),
            }
        )

    return cogroup(
        rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "source", "n_chars"]),
        "source",
        gate,
        nb,
    )


def _src_budget_sql() -> str:
    return (
        "WITH d AS (SELECT doc_id, source, n_chars, "
        f"CAST((doc_id * {_KNUTH_H}) % 4294967296 AS BIGINT) AS h "
        "FROM documents), "
        "c AS (SELECT doc_id, source, h, "
        "CAST(COALESCE(SUM(n_chars) OVER (PARTITION BY source ORDER BY h, doc_id "
        "ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT) "
        "AS cum_before FROM d) "
        "SELECT doc_id, source, h, cum_before FROM c "
        f"WHERE cum_before < {SRC_BUDGET_CHARS}"
    )


# --------------------------------------------------------------------------
# substring-dup audit rollup (per-doc coverage of duplicated spans)
# --------------------------------------------------------------------------


def q_substring_dup_stats(sf_dir: str):
    """Audit rollup of ``substring_dup_spans``: one row per DOCUMENT —
    (doc_id, n_spans, covered_chars, clean_chars) where clean_chars is
    what a span-removal stage would keep. Docs with no duplicated span
    appear with zeros (the removal stage's no-op set; auditors want the
    full census, not just the affected docs).

    Scale shape: the span stream partial-aggregates per batch, then one
    bucketed co-group joins it against the metadata-only document census
    (doc_id, n_chars) — text is never re-read."""
    import ray.data as rd

    from ..scale import cogroup, derive_buckets

    nb = derive_buckets(_p(sf_dir, "documents"), floor=16)

    spans_side = q_substring_dup_spans(sf_dir).map_batches(
        lambda b: pa.table(
            {
                "doc_id": b["doc_id"],
                "n_chars": pa.array(np.zeros(len(b), np.int64), pa.int64()),
                "span_len": b["span_len"],
                "side": pa.array(np.ones(len(b), np.int64), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    doc_side = rd.read_parquet(
        _p(sf_dir, "documents"), columns=["doc_id", "n_chars"]
    ).map_batches(
        lambda b: pa.table(
            {
                "doc_id": b["doc_id"],
                "n_chars": b["n_chars"],
                "span_len": pa.array(np.zeros(len(b), np.int64), pa.int64()),
                "side": pa.array(np.zeros(len(b), np.int64), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )

    def rollup(g) -> pa.Table:
        import pandas as pd

        docs = g[g["side"] == 0][["doc_id", "n_chars"]]
        sp = g[g["side"] == 1]
        agg = sp.groupby("doc_id", sort=False)["span_len"].agg(["count", "sum"])
        m = docs.merge(agg, on="doc_id", how="left").fillna(0)
        return pa.table(
            {
                "doc_id": pa.array(m["doc_id"].to_numpy(np.int64), pa.int64()),
                "n_spans": pa.array(m["count"].to_numpy(np.int64), pa.int64()),
                "covered_chars": pa.array(m["sum"].to_numpy(np.int64), pa.int64()),
                "clean_chars": pa.array(
                    (m["n_chars"] - m["sum"]).to_numpy(np.int64), pa.int64()
                ),
            }
        )

    return cogroup(doc_side.union(spans_side).repartition(nb), "doc_id", rollup, nb)


def _dupstats_sql() -> str:
    return (
        f"WITH sp AS ({_dupspan_sql()}), "
        "a AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_spans, "
        "CAST(SUM(span_len) AS BIGINT) AS covered_chars FROM sp GROUP BY 1) "
        "SELECT d.doc_id, COALESCE(a.n_spans, 0) AS n_spans, "
        "COALESCE(a.covered_chars, 0) AS covered_chars, "
        "d.n_chars - COALESCE(a.covered_chars, 0) AS clean_chars "
        "FROM documents d LEFT JOIN a ON a.doc_id = d.doc_id"
    )


# --------------------------------------------------------------------------
# PQ asymmetric-distance (ADC) top-k search
# --------------------------------------------------------------------------

PQ_ADC_NQ = 5  # query vectors: vec_id 0..4 (the ann N_QUERIES convention)
PQ_ADC_K = 10


def q_ann_pq_adc_topk(sf_dir: str):
    """IVF-PQ's SEARCH half: asymmetric-distance (ADC) top-k over the
    product-quantized corpus — per query, a (subspace × centroid) lookup
    table of exact integer squared-L2 sub-distances, then every vector's
    approximate distance is 4 table lookups summed; smallest
    ``PQ_ADC_K`` per query (ties → vec_id asc), self excluded. Completes
    the PQ story ``embedding_pq_codes`` started: codes are the memory
    layer, ADC is how a 100-TB index actually answers queries without
    touching raw vectors.

    Scale shape: the LUT is (5 × 4 × 8) ints broadcast once; per batch
    the scan is pure fancy-indexing over the code columns (raw
    embeddings never leave the read stage after encoding) and each
    batch pre-reduces to its own bottom-k per query — the shuffle moves
    k × NQ × n_blocks candidate rows, never the corpus. (adist, vec_id)
    is a total order, so per-batch bottom-k is exact."""
    import pyarrow.parquet as pq_mod
    import ray
    import ray.data as rd

    from .queries_ml3 import (
        PQ_NCENTROIDS,
        PQ_QUANT,
        PQ_SUBDIM,
        PQ_SUBSPACES,
        q_embedding_pq_codes,
    )

    head = pq_mod.read_table(
        _p(sf_dir, "embeddings"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", max(PQ_NCENTROIDS, PQ_ADC_NQ))],
    )
    order = np.argsort(head["vec_id"].to_numpy())
    vecs = np.floor(
        np.stack([np.asarray(v, np.float64) for v in head["embedding"].to_pylist()])[
            order
        ]
        * PQ_QUANT
        + 0.5
    ).astype(np.int64)
    cb = vecs[:PQ_NCENTROIDS].reshape(PQ_NCENTROIDS, PQ_SUBSPACES, PQ_SUBDIM)
    qs = vecs[:PQ_ADC_NQ].reshape(PQ_ADC_NQ, PQ_SUBSPACES, PQ_SUBDIM)
    # lut[q, s, c] = ‖query_qs − centroid_cs‖² (integer exact)
    diff = qs[:, :, None, :] - cb.transpose(1, 0, 2)[None, :, :, :]
    lut = (diff * diff).sum(axis=3)  # (NQ, S, C)
    lut_ref = ray.put(lut)

    def partial_topk(batch: pa.Table) -> pa.Table:
        lt = ray.get(lut_ref)
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        codes = np.stack(
            [
                batch[f"code{s}"].to_numpy(zero_copy_only=False).astype(np.int64)
                for s in range(PQ_SUBSPACES)
            ],
            axis=1,
        )  # (n, S)
        out_q, out_v, out_d = [], [], []
        for qi in range(PQ_ADC_NQ):
            ad = lt[qi][np.arange(PQ_SUBSPACES)[None, :], codes].sum(axis=1)
            mask = ids != qi  # self excluded
            vi, di = ids[mask], ad[mask]
            k = min(PQ_ADC_K, len(vi))
            if k == 0:
                continue
            pick = np.lexsort((vi, di))[:k]  # (adist, vec_id) total order
            out_q.extend([qi] * k)
            out_v.extend(vi[pick].tolist())
            out_d.extend(di[pick].tolist())
        return pa.table(
            {
                "qid": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "adist": pa.array(out_d, pa.int64()),
            }
        )

    def finish(g) -> pa.Table:
        g = g.sort_values(["adist", "vec_id"], kind="stable").head(PQ_ADC_K)
        return pa.table(
            {
                "qid": pa.array(g["qid"].to_numpy(np.int64), pa.int64()),
                "vec_id": pa.array(g["vec_id"].to_numpy(np.int64), pa.int64()),
                "adist": pa.array(g["adist"].to_numpy(np.int64), pa.int64()),
            }
        )

    return (
        q_embedding_pq_codes(sf_dir)
        .map_batches(partial_topk, batch_format="pyarrow")
        .groupby("qid")
        .map_groups(finish, batch_format="pandas")
    )


def _adc_sql() -> str:
    from .queries_ml3 import ML3_ORACLE_SQL, PQ_NCENTROIDS, PQ_QUANT, PQ_SUBDIM, PQ_SUBSPACES

    joins = " ".join(
        f"JOIN lut l{s} ON l{s}.qid = qq.qid AND l{s}.s = {s} "
        f"AND l{s}.cid = c.code{s}"
        for s in range(PQ_SUBSPACES)
    )
    dsum = " + ".join(f"l{s}.d" for s in range(PQ_SUBSPACES))
    return (
        f"WITH codes AS ({ML3_ORACLE_SQL['embedding_pq_codes']}), "
        "q AS (SELECT CAST(vec_id AS BIGINT) AS vec_id, "
        "list_transform(embedding, "
        f"x -> CAST(FLOOR(CAST(x AS DOUBLE)*{PQ_QUANT} + 0.5) AS BIGINT)) AS e "
        "FROM embeddings), "
        f"cb AS (SELECT vec_id AS cid, e AS ce FROM q WHERE vec_id < {PQ_NCENTROIDS}), "
        f"qq AS (SELECT vec_id AS qid, e FROM q WHERE vec_id < {PQ_ADC_NQ}), "
        f"sub AS (SELECT UNNEST(range({PQ_SUBSPACES})) AS s), "
        "lut AS (SELECT qq.qid, sub.s, cb.cid, "
        "(SELECT CAST(SUM((z.a - z.b) * (z.a - z.b)) AS BIGINT) FROM "
        f"(SELECT UNNEST(qq.e[sub.s*{PQ_SUBDIM}+1 : sub.s*{PQ_SUBDIM}+{PQ_SUBDIM}]) AS a, "
        f"UNNEST(cb.ce[sub.s*{PQ_SUBDIM}+1 : sub.s*{PQ_SUBDIM}+{PQ_SUBDIM}]) AS b) z) "
        "AS d FROM qq CROSS JOIN sub CROSS JOIN cb), "
        f"ad AS (SELECT qq.qid, c.vec_id, CAST({dsum} AS BIGINT) AS adist "
        f"FROM qq CROSS JOIN codes c {joins} WHERE c.vec_id <> qq.qid) "
        "SELECT qid, vec_id, adist FROM ad "
        f"QUALIFY ROW_NUMBER() OVER (PARTITION BY qid ORDER BY adist, vec_id) <= {PQ_ADC_K}"
    )


# --------------------------------------------------------------------------
# positional winnowing fingerprints (Schleimer et al., MOSS)
# --------------------------------------------------------------------------

WINNOW_K = 16  # k-gram width (chars) — shared with doc_fingerprints
WINNOW_W = 8  # winnowing window: any match of ≥ W+K-1 chars is guaranteed
# to share at least one selected fingerprint (the paper's guarantee)


def _rk_hash_array(text: str, k: int) -> np.ndarray:
    """Per-position Rabin-Karp hashes of all k-char windows (mod 2^61−1,
    base 257 — the functions/text.rabin_karp_fingerprints arithmetic,
    kept positional instead of sorted/truncated). Python-int loop: the
    modulus exceeds float53 so numpy can't carry the product."""
    from ..functions.text import _RK_BASE, _RK_MOD

    data = text.encode("utf-8")
    n = len(data)
    if n < k:
        return np.empty(0, np.int64)
    pow_k = pow(_RK_BASE, k - 1, _RK_MOD)
    out = np.empty(n - k + 1, np.int64)
    h = 0
    for i in range(n):
        h = (h * _RK_BASE + data[i]) % _RK_MOD
        if i >= k - 1:
            out[i - k + 1] = h
            h = (h - data[i - k + 1] * pow_k) % _RK_MOD
    return out


def q_doc_winnow_fingerprints(sf_dir: str):
    """POSITIONAL WINNOWING (Schleimer/Wilkerson/Aiken, the MOSS
    algorithm): per document, slide a ``WINNOW_W``-wide window over the
    ``WINNOW_K``-gram Rabin-Karp hash sequence and select each window's
    minimum (rightmost position on ties); the deduped (doc_id, pos, fp)
    set is the document's local fingerprint — any shared substring of
    ≥ W+K−1 chars between two documents is GUARANTEED to surface as a
    shared fp, which is what makes this the standard containment /
    plagiarism primitive (``doc_fingerprints`` keeps a global bottom-k
    sketch; this keeps positional evidence).

    Scale shape: pure map-side — one vectorized sliding-window argmin
    per document, no shuffle anywhere; a containment join then
    hash-buckets on fp exactly like the gram-family operators."""
    import ray.data as rd

    def winnow(batch: pa.Table) -> pa.Table:
        out_d, out_p, out_f = [], [], []
        for d, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            hv = _rk_hash_array(t, WINNOW_K)
            if not len(hv):
                continue
            if len(hv) <= WINNOW_W:
                # single window: rightmost min
                rev = hv[::-1]
                p = len(hv) - 1 - int(np.argmin(rev))
                sel = np.array([p], np.int64)
            else:
                win = np.lib.stride_tricks.sliding_window_view(hv, WINNOW_W)
                # rightmost tie: argmin over the reversed window
                picks = (WINNOW_W - 1) - np.argmin(win[:, ::-1], axis=1)
                sel = np.unique(np.arange(len(win)) + picks)
            out_d.extend([int(d)] * len(sel))
            out_p.extend(sel.tolist())
            out_f.extend(hv[sel].tolist())
        return pa.table(
            {
                "doc_id": pa.array(out_d, pa.int64()),
                "pos": pa.array(out_p, pa.int64()),
                "fp": pa.array(out_f, pa.int64()),
            }
        )

    return rd.read_parquet(
        _p(sf_dir, "documents"), columns=["doc_id", "text"]
    ).map_batches(winnow, batch_format="pyarrow")


def _winnow_sql() -> str:
    from ..functions.text import _RK_MOD

    k, w = WINNOW_K, WINNOW_W
    fold = (
        "CAST(list_reduce(list_transform(range(1, length(win) + 1), "
        "j -> CAST(ascii(substring(win, CAST(j AS INT), 1)) AS HUGEINT)), "
        f"(acc, x) -> (acc * 257 + x) % {_RK_MOD}) AS BIGINT)"
    )
    return (
        "WITH g AS (SELECT doc_id, unnest(list_transform("
        f"range(0, greatest(length(text) - {k} + 1, 0)), "
        f"i -> {{'pos': i, 'win': substr(text, (i+1)::INT, {k})}})) AS u "
        "FROM documents), "
        f"h AS (SELECT doc_id, u.pos AS pos, {fold.replace('win', 'u.win')} AS fp "
        "FROM g), "
        "n AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS nh FROM h GROUP BY 1), "
        # windows: start s in [0, max(nh - W, 0)]; tiny docs get one window
        "s AS (SELECT doc_id, unnest(range(0, greatest(nh - "
        f"{w} + 1, 1))) AS ws FROM n), "
        "x AS (SELECT s.doc_id, s.ws, h.pos, h.fp FROM s JOIN h "
        f"ON h.doc_id = s.doc_id AND h.pos >= s.ws AND h.pos < s.ws + {w}), "
        "pick AS (SELECT doc_id, pos, fp FROM x "
        "QUALIFY ROW_NUMBER() OVER (PARTITION BY doc_id, ws "
        "ORDER BY fp ASC, pos DESC) = 1) "
        "SELECT DISTINCT doc_id, pos, fp FROM pick"
    )


# --------------------------------------------------------------------------
# IVF-PQ composed search (coarse probe gate + ADC scoring)
# --------------------------------------------------------------------------

IVFPQ_NLIST = 16  # coarse centroids: kilo-quantized vectors 0..15
IVFPQ_NPROBE = 4


def q_ann_ivfpq_topk(sf_dir: str):
    """THE 100-TB ANN INDEX, end to end: IVF coarse routing composed
    with PQ asymmetric-distance scoring. Every vector belongs to the
    coarse cell whose centroid is nearest by integer squared-L2 (ties →
    lower centroid id); a query probes its ``IVFPQ_NPROBE`` nearest
    cells and ranks ONLY vectors in probed cells by the same integer
    ADC distance ``ann_pq_adc_topk`` uses — top-``PQ_ADC_K`` per query,
    self excluded, ties → vec_id asc. ``embedding_pq_codes`` is the
    memory layer, ``ann_ivf_partitioned_top10`` the storage layout;
    this is the index actually answering queries while scanning only
    nprobe/nlist of the corpus.

    Scale shape: coarse centroids + probe table + ADC LUT are tiny
    broadcasts; the scan is one vectorized pass (two matmul-free
    integer distance evaluations per row) with per-batch exact bottom-k
    — in the partitioned layout the probe gate becomes a READ filter
    (only probed cell files are opened), which is the documented path
    past single-table scans."""
    import pyarrow.parquet as pq_mod
    import ray
    import ray.data as rd

    from .queries_ml3 import PQ_NCENTROIDS, PQ_QUANT, PQ_SUBDIM, PQ_SUBSPACES

    head = pq_mod.read_table(
        _p(sf_dir, "embeddings"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", max(IVFPQ_NLIST, PQ_NCENTROIDS, PQ_ADC_NQ))],
    )
    order = np.argsort(head["vec_id"].to_numpy())
    vecs = np.floor(
        np.stack([np.asarray(v, np.float64) for v in head["embedding"].to_pylist()])[
            order
        ]
        * PQ_QUANT
        + 0.5
    ).astype(np.int64)
    coarse = vecs[:IVFPQ_NLIST]  # (nlist, 64)
    cb = vecs[:PQ_NCENTROIDS].reshape(PQ_NCENTROIDS, PQ_SUBSPACES, PQ_SUBDIM)
    qs = vecs[:PQ_ADC_NQ]
    qs_sub = qs.reshape(PQ_ADC_NQ, PQ_SUBSPACES, PQ_SUBDIM)
    lut = ((qs_sub[:, :, None, :] - cb.transpose(1, 0, 2)[None, :, :, :]) ** 2).sum(
        axis=3
    )  # (NQ, S, C)
    # probe table: per query the NPROBE nearest coarse cells (integer L2,
    # ties → lower centroid id via stable argsort)
    qd = ((qs[:, None, :] - coarse[None, :, :]) ** 2).sum(axis=2)  # (NQ, nlist)
    probe_mask = np.zeros((IVFPQ_NLIST, PQ_ADC_NQ), bool)
    for qi in range(PQ_ADC_NQ):
        probe_mask[np.argsort(qd[qi], kind="stable")[:IVFPQ_NPROBE], qi] = True
    side = ray.put((lut, coarse, probe_mask))

    # the PQ-codes dataset does not retain raw embeddings, so the coarse
    # assignment re-derives from the quantized source column — one extra
    # read-stage column, dropped immediately after the integer argmin
    def partial_topk(batch: pa.Table) -> pa.Table:
        lt, co, pm = ray.get(side)
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        emb = np.floor(
            np.stack(
                [np.asarray(v, np.float64) for v in batch["embedding"].to_pylist()]
            )
            * PQ_QUANT
            + 0.5
        ).astype(np.int64)
        cd = ((emb[:, None, :] - co[None, :, :]) ** 2).sum(axis=2)  # (n, nlist)
        assign = cd.argmin(axis=1)  # ties → lowest id
        sub = emb.reshape(len(emb), PQ_SUBSPACES, PQ_SUBDIM)
        dviac = ((sub[:, None, :, :] - cb[None, :, :, :]) ** 2).sum(axis=3)
        codes = dviac.argmin(axis=1)  # (n, S) — same PQ assignment rule
        out_q, out_v, out_d = [], [], []
        for qi in range(PQ_ADC_NQ):
            allowed = pm[assign, qi] & (ids != qi)
            if not allowed.any():
                continue
            ad = lt[qi][np.arange(PQ_SUBSPACES)[None, :], codes[allowed]].sum(axis=1)
            vi = ids[allowed]
            k = min(PQ_ADC_K, len(vi))
            pick = np.lexsort((vi, ad))[:k]
            out_q.extend([qi] * k)
            out_v.extend(vi[pick].tolist())
            out_d.extend(ad[pick].tolist())
        return pa.table(
            {
                "qid": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "adist": pa.array(out_d, pa.int64()),
            }
        )

    def finish(g) -> pa.Table:
        g = g.sort_values(["adist", "vec_id"], kind="stable").head(PQ_ADC_K)
        return pa.table(
            {
                "qid": pa.array(g["qid"].to_numpy(np.int64), pa.int64()),
                "vec_id": pa.array(g["vec_id"].to_numpy(np.int64), pa.int64()),
                "adist": pa.array(g["adist"].to_numpy(np.int64), pa.int64()),
            }
        )

    return (
        rd.read_parquet(_p(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
        .map_batches(partial_topk, batch_format="pyarrow")
        .groupby("qid")
        .map_groups(finish, batch_format="pandas")
    )


def _ivfpq_sql() -> str:
    from .queries_ml3 import PQ_NCENTROIDS, PQ_QUANT, PQ_SUBDIM, PQ_SUBSPACES

    l2 = (
        "(SELECT CAST(SUM((z.a - z.b) * (z.a - z.b)) AS BIGINT) FROM "
        "(SELECT UNNEST({x}) AS a, UNNEST({y}) AS b) z)"
    )
    joins = " ".join(
        f"JOIN lut l{s} ON l{s}.qid = qq.qid AND l{s}.s = {s} "
        f"AND l{s}.cid = cd.code{s}"
        for s in range(PQ_SUBSPACES)
    )
    dsum = " + ".join(f"l{s}.d" for s in range(PQ_SUBSPACES))
    return (
        "WITH q AS (SELECT CAST(vec_id AS BIGINT) AS vec_id, "
        "list_transform(embedding, "
        f"x -> CAST(FLOOR(CAST(x AS DOUBLE)*{PQ_QUANT} + 0.5) AS BIGINT)) AS e "
        "FROM embeddings), "
        f"cb AS (SELECT vec_id AS cid, e AS ce FROM q WHERE vec_id < {PQ_NCENTROIDS}), "
        f"co AS (SELECT vec_id AS ccid, e AS ge FROM q WHERE vec_id < {IVFPQ_NLIST}), "
        f"qq AS (SELECT vec_id AS qid, e FROM q WHERE vec_id < {PQ_ADC_NQ}), "
        f"sub AS (SELECT UNNEST(range({PQ_SUBSPACES})) AS s), "
        # PQ code per vector (subspace argmin, ties → lowest centroid)
        "pd AS (SELECT q.vec_id, sub.s, cb.cid, "
        + l2.format(
            x=f"q.e[sub.s*{PQ_SUBDIM}+1 : sub.s*{PQ_SUBDIM}+{PQ_SUBDIM}]",
            y=f"cb.ce[sub.s*{PQ_SUBDIM}+1 : sub.s*{PQ_SUBDIM}+{PQ_SUBDIM}]",
        )
        + " AS dist FROM q CROSS JOIN sub CROSS JOIN cb), "
        "best AS (SELECT vec_id, s, cid FROM pd "
        "QUALIFY ROW_NUMBER() OVER (PARTITION BY vec_id, s "
        "ORDER BY dist ASC, cid ASC) = 1), "
        "cd AS (SELECT vec_id, "
        + ", ".join(
            f"CAST(MAX(CASE WHEN s = {s} THEN cid END) AS BIGINT) AS code{s}"
            for s in range(PQ_SUBSPACES)
        )
        + " FROM best GROUP BY 1), "
        # coarse cell per vector (full-dim integer L2 argmin)
        "gd AS (SELECT q.vec_id, co.ccid, "
        + l2.format(x="q.e", y="co.ge")
        + " AS dist FROM q CROSS JOIN co), "
        "cell AS (SELECT vec_id, ccid FROM gd "
        "QUALIFY ROW_NUMBER() OVER (PARTITION BY vec_id "
        "ORDER BY dist ASC, ccid ASC) = 1), "
        # per-query probe set
        "qd AS (SELECT qq.qid, co.ccid, "
        + l2.format(x="qq.e", y="co.ge")
        + " AS dist FROM qq CROSS JOIN co), "
        "probes AS (SELECT qid, ccid FROM qd "
        "QUALIFY ROW_NUMBER() OVER (PARTITION BY qid "
        f"ORDER BY dist ASC, ccid ASC) <= {IVFPQ_NPROBE}), "
        # ADC lut per (query, subspace, centroid)
        "lut AS (SELECT qq.qid, sub.s, cb.cid, "
        + l2.format(
            x=f"qq.e[sub.s*{PQ_SUBDIM}+1 : sub.s*{PQ_SUBDIM}+{PQ_SUBDIM}]",
            y=f"cb.ce[sub.s*{PQ_SUBDIM}+1 : sub.s*{PQ_SUBDIM}+{PQ_SUBDIM}]",
        )
        + " AS d FROM qq CROSS JOIN sub CROSS JOIN cb), "
        f"ad AS (SELECT qq.qid, cd.vec_id, CAST({dsum} AS BIGINT) AS adist "
        f"FROM qq CROSS JOIN cd {joins} "
        "JOIN cell ON cell.vec_id = cd.vec_id "
        "JOIN probes p ON p.qid = qq.qid AND p.ccid = cell.ccid "
        "WHERE cd.vec_id <> qq.qid) "
        "SELECT qid, vec_id, adist FROM ad "
        f"QUALIFY ROW_NUMBER() OVER (PARTITION BY qid ORDER BY adist, vec_id) <= {PQ_ADC_K}"
    )


# --------------------------------------------------------------------------
# multimodal sequence packing (images + captions into context windows)
# --------------------------------------------------------------------------

MM_CONTEXT_LEN = 4096  # multimodal training context (vision + text tokens)
MM_PACK_SHARDS = 8  # id-hash sub-shards per AR bucket: the SEMANTIC
# partition grain (like PACK_PARTS) — placement is defined per
# (bucket, shard), shards are the parallel unit, and the oracle's
# recursion depth stays bounded by the shard size


def q_image_pack_batches(sf_dir: str):
    """MULTIMODAL BATCH BUILDING: pack images into fixed training
    context windows within their (aspect-ratio bucket × id-hash shard)
    partition — per image the cost is its bucket's patch-grid vision
    tokens (+CLS) plus its caption word count; images in image_id order
    NEXT-FIT into ``MM_CONTEXT_LEN``-token windows per partition.
    Output one row per image: (image_id, bucket_w, bucket_h, shard,
    n_tokens, seq_id, off_tokens) — the placement table an SDXL-style
    bucketed dataloader consumes (``image_ar_buckets`` chose the
    bucket, ``image_token_cost`` priced it, this packs it).

    Scale shape: metadata-only scan → (5 × MM_PACK_SHARDS)-way
    co-group; each partition's next-fit recurrence is the irreducible
    serial unit (``doc_pack_sequences`` discipline — partitions are the
    parallelism; a production run raises MM_PACK_SHARDS as a corpus
    constant)."""
    import ray.data as rd

    from .queries import TOKEN_RE
    from .queries_media import AR_BUCKETS, _images
    from .queries_ml4 import PACK_MULT

    bppm = np.array([w * 1_000_000 // h for w, h in AR_BUCKETS], np.int64)
    vis_per = np.array(
        [(tw // VIT_PATCH) * (th // VIT_PATCH) + 1 for tw, th in AR_TARGET_DIMS],
        np.int64,
    )
    bw = np.array([b[0] for b in AR_BUCKETS], np.int64)
    bh = np.array([b[1] for b in AR_BUCKETS], np.int64)

    def price(batch: pa.Table) -> pa.Table:
        w = batch["w"].to_numpy().astype(np.int64)
        h = batch["h"].to_numpy().astype(np.int64)
        ar = w * 1_000_000 // h
        pick = np.argmin(np.abs(ar[:, None] - bppm[None, :]), axis=1)
        ids = batch["image_id"].to_pylist()
        # fixture ids are f"img{i:08d}" — the numeric suffix is the hash key
        num = np.array([int(s[3:]) for s in ids], np.int64)
        shard = (
            (num.astype(np.uint64) * np.uint64(PACK_MULT)) % np.uint64(1 << 32)
        ).astype(np.int64) % MM_PACK_SHARDS
        cap = np.array(
            [len(TOKEN_RE.findall(c.lower())) for c in batch["caption"].to_pylist()],
            np.int64,
        )
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "bs": pa.array(
                    pick.astype(np.int64) * MM_PACK_SHARDS + shard, pa.int64()
                ),
                "n_tokens": pa.array(vis_per[pick] + cap, pa.int64()),
            }
        )

    def pack(g) -> pa.Table:
        g = g.sort_values("image_id", kind="stable")
        seq, off = _pack_next_fit_tokens(
            g["n_tokens"].to_numpy(np.int64), MM_CONTEXT_LEN
        )
        bs = int(g["bs"].iloc[0])
        bi, shard = bs // MM_PACK_SHARDS, bs % MM_PACK_SHARDS
        n = len(g)
        return pa.table(
            {
                "image_id": pa.array(g["image_id"].tolist(), pa.string()),
                "bucket_w": pa.array(np.full(n, bw[bi]), pa.int64()),
                "bucket_h": pa.array(np.full(n, bh[bi]), pa.int64()),
                "shard": pa.array(np.full(n, shard, np.int64), pa.int64()),
                "n_tokens": pa.array(g["n_tokens"].to_numpy(np.int64), pa.int64()),
                "seq_id": pa.array(seq, pa.int64()),
                "off_tokens": pa.array(off, pa.int64()),
            }
        )

    return (
        rd.read_parquet(_images(sf_dir), columns=["image_id", "w", "h", "caption"])
        .map_batches(price, batch_format="pyarrow")
        .groupby("bs")
        .map_groups(pack, batch_format="pandas")
    )


def _pack_next_fit_tokens(n_tokens: np.ndarray, context_len: int):
    """Same greedy next-fit recurrence as queries_ml4._pack_next_fit
    (re-exported here so the multimodal packer and its tests don't
    import the text module's private kernel)."""
    from .queries_ml4 import _pack_next_fit

    return _pack_next_fit(n_tokens, context_len)


ML5_QUERIES = {
    "substring_dup_spans": q_substring_dup_spans,
    "substring_dup_stats": q_substring_dup_stats,
    "seed_hop_distance": q_seed_hop_distance,
    "hits_top20": q_hits_top20,
    "bpe_merge_step": q_bpe_merge_step,
    "image_token_cost": q_image_token_cost,
    "curriculum_order": q_curriculum_order,
    "shard_assign_sources": q_shard_assign_sources,
    "source_budget_docs": q_source_budget_docs,
    "ann_pq_adc_topk": q_ann_pq_adc_topk,
    "ann_ivfpq_topk": q_ann_ivfpq_topk,
    "image_pack_batches": q_image_pack_batches,
    "doc_winnow_fingerprints": q_doc_winnow_fingerprints,
}


def build_ml5_oracles() -> dict[str, str]:
    # seed_hop_distance is fixture-backed; its SQL is built with absolute
    # fixture paths in oracles_ext.build_extended_oracles
    return {
        "substring_dup_spans": _dupspan_sql(),
        "bpe_merge_step": _bpe_sql(),
        "shard_assign_sources": _lpt_sql(),
        "source_budget_docs": _src_budget_sql(),
        "substring_dup_stats": _dupstats_sql(),
        "ann_pq_adc_topk": _adc_sql(),
        "ann_ivfpq_topk": _ivfpq_sql(),
        "doc_winnow_fingerprints": _winnow_sql(),
    }
