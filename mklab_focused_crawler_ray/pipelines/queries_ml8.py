"""Iterative training-loop operators (round 5, continuation wave 8):
multi-step BPE vocabulary training, two full Lloyd k-means iterations,
and deterministic T5-style span-corruption planning.

These extend the single-step primitives the engine already oracles
(``bpe_merge_step`` = one merge, ``kmeans_assign`` = one E-step,
``kmeans_mstep_stats`` = one M-step) into the composed iterative loops a
training-data pipeline actually runs: a tokenizer train is merge steps
chained corpus-wide, clustering is assign→update→assign to a fixpoint,
and span corruption is the masking plan T5/UL2 pretraining derives per
document before packing. Every iteration is a bounded-shuffle Dataset
pass — pair counts are alphabet²-bounded, k-means partials are
(K·(D+2))-bounded per batch, the span plan is shuffle-free map-side —
so iteration count multiplies scans, never shuffle width.

House oracle discipline (same as ml6/ml7): micro integer units; floats
only inside the shared ``floor(f(x)·10⁶ + 0.5)`` envelope both engines
replay; negative floor divisions sign-split (DuckDB ``//`` truncates
toward zero, Python floors); hash arithmetic pre-reduced mod 2³² so the
uint64 engine path and the HUGEINT oracle path see identical values.

Reference: MKLab-ITI/mklab-focused-crawler has no tokenizer-training,
clustering-iteration, or masking operators (its ML surface is the
pluggable NER/POS bolts, EntityExtractionBolt.java:34-88); all three
are build-brief training-data additions.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .queries_ml2 import _p
from .registry import query

# --------------------------------------------------------------------------
# multi-step BPE vocabulary training (4 chained merges)
# --------------------------------------------------------------------------

BPE_TRAIN_STEPS = 4  # merge marks chr(1)..chr(4) — outside [a-z0-9 ]


def _bpe_train4_sql() -> str:
    parts = [
        "WITH w0 AS (SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) "
        "AS word FROM documents)"
    ]
    for s in range(1, BPE_TRAIN_STEPS + 1):
        parts.append(
            f", c{s} AS (SELECT pair, CAST(count(*) AS BIGINT) AS n FROM "
            f"(SELECT unnest(list_transform(range(1, length(word)), "
            f"i -> substr(word, i::INT, 2))) AS pair FROM w{s - 1}) GROUP BY pair)"
        )
        parts.append(
            f", t{s} AS (SELECT pair, n FROM c{s} ORDER BY n DESC, pair ASC LIMIT 1)"
        )
        if s < BPE_TRAIN_STEPS:
            parts.append(
                f", w{s} AS (SELECT replace(word, (SELECT pair FROM t{s}), "
                f"chr({s})) AS word FROM w{s - 1})"
            )
    sel = " UNION ALL ".join(
        f"SELECT CAST({s} AS BIGINT) AS step, pair, n FROM t{s}"
        for s in range(1, BPE_TRAIN_STEPS + 1)
    )
    return "".join(parts) + " " + sel


@query("bpe_train4", _bpe_train4_sql)
def q_bpe_train4(sf_dir: str):
    """FOUR CHAINED BPE TRAINING STEPS (Sennrich et al. 2016) over the
    document corpus: at each step, count adjacent symbol pairs inside
    ``[a-z0-9]+`` words with all previous merges applied (merge *i*
    rewrites its pair to the single symbol ``chr(i)``), pick the most
    frequent pair (ties → lexicographically smallest), and append it to
    the merge list. Returns the learned merge table ``(step, pair, n)``
    — ``pair`` is the two-symbol string chosen at that step (later
    steps may contain earlier merge marks), ``n`` its corpus count at
    selection time. This is ``bpe_merge_step``'s inner loop iterated:
    a full tokenizer train is exactly this to |vocab| steps.

    Scale shape: one streaming corpus scan per step (4 total). Each
    batch joins its words into one byte blob, applies the ≤4 broadcast
    merges with left-to-right non-overlapping ``str.replace`` (the same
    semantics DuckDB's ``replace`` replays), and counts pairs with a
    single bincount over the 2-byte code space — the shuffle ships at
    most 65,536 (pair, partial) rows per batch and the global aggregate
    is alphabet²-bounded at every step, so iteration count multiplies
    scans, never shuffle width. The argmax pick is a bounded driver
    reduction, exactly the scalar-broadcast discipline of the one-step
    operator (queries_ml5.q_bpe_merge_step)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .queries import TOKEN_RE
    from .queries_ml5 import _pair_counts_u16

    def scan(merges: tuple[str, ...]):
        def pairs(batch: pa.Table) -> pa.Table:
            words: list[str] = []
            for t in batch["text"].to_pylist():
                words.extend(TOKEN_RE.findall(t.lower()))
            blob = " ".join(words)
            for i, mp in enumerate(merges):
                blob = blob.replace(mp, chr(1 + i))
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

    merges: list[str] = []
    out_n: list[int] = []
    for _step in range(BPE_TRAIN_STEPS):
        c = scan(tuple(merges)).to_pandas()  # alphabet²-bounded
        if len(c) == 0:
            break  # pair space exhausted — SQL's tN CTEs go empty the same way
        c = c.sort_values(["n", "pair"], ascending=[False, True])
        merges.append(str(c.iloc[0]["pair"]))
        out_n.append(int(c.iloc[0]["n"]))
    return pa.table(
        {
            "step": pa.array(
                np.arange(1, len(merges) + 1, dtype=np.int64), pa.int64()
            ),
            "pair": pa.array(merges, pa.string()),
            "n": pa.array(np.asarray(out_n, np.int64), pa.int64()),
        }
    )


# --------------------------------------------------------------------------
# two full Lloyd k-means iterations (assign → update → assign), integer-exact
# --------------------------------------------------------------------------

LLOYD_K = 8  # centroids init = embeddings with vec_id < K (kmeans_assign's rule)
LLOYD_SSE_DIV = 1000  # per-point squared distance reported in milli units


def _quant_micro(mat: np.ndarray) -> np.ndarray:
    """floor(x·10⁶ + 0.5) over float64 — the shared last-ulp-safe envelope
    every embedding oracle replays (embedding_norm_stats discipline)."""
    return np.floor(mat.astype(np.float64) * 1_000_000.0 + 0.5).astype(np.int64)


def _kmeans_lloyd2_sql() -> str:
    # sign-split floor division: DuckDB // truncates toward zero, numpy floors
    fdiv = (
        "CASE WHEN s1.s >= 0 THEN CAST(s1.s // n1.n AS BIGINT) "
        "ELSE CAST(-((-s1.s + n1.n - 1) // n1.n) AS BIGINT) END"
    )
    return (
        "WITH e AS (SELECT vec_id, generate_subscripts(embedding, 1) AS dim, "
        "CAST(FLOOR(CAST(unnest(embedding) AS DOUBLE)*1000000 + 0.5) AS BIGINT) AS m "
        "FROM embeddings), "
        f"c0 AS (SELECT vec_id AS cid, dim, m FROM e WHERE vec_id < {LLOYD_K}), "
        "d1 AS (SELECT e.vec_id, c.cid, SUM((e.m - c.m)*(e.m - c.m)) AS d2 "
        "FROM e JOIN c0 c USING (dim) GROUP BY 1, 2), "
        "a1 AS (SELECT vec_id, cid FROM d1 "
        "QUALIFY ROW_NUMBER() OVER (PARTITION BY vec_id ORDER BY d2, cid) = 1), "
        "n1 AS (SELECT cid, CAST(COUNT(*) AS BIGINT) AS n FROM a1 GROUP BY 1), "
        "s1 AS (SELECT a1.cid, e.dim, SUM(e.m) AS s FROM a1 "
        "JOIN e USING (vec_id) GROUP BY 1, 2), "
        "c1 AS (SELECT c0.cid, c0.dim, "
        f"CASE WHEN n1.n IS NULL THEN c0.m ELSE {fdiv} END AS m "
        "FROM c0 LEFT JOIN n1 USING (cid) "
        "LEFT JOIN s1 ON s1.cid = c0.cid AND s1.dim = c0.dim), "
        "d2_ AS (SELECT e.vec_id, c.cid, SUM((e.m - c.m)*(e.m - c.m)) AS d2 "
        "FROM e JOIN c1 c USING (dim) GROUP BY 1, 2), "
        "a2 AS (SELECT vec_id, cid, d2 FROM d2_ "
        "QUALIFY ROW_NUMBER() OVER (PARTITION BY vec_id ORDER BY d2, cid) = 1), "
        "f2 AS (SELECT cid, CAST(COUNT(*) AS BIGINT) AS n, "
        f"CAST(SUM(d2 // {LLOYD_SSE_DIV}) AS BIGINT) AS sse FROM a2 GROUP BY 1) "
        "SELECT k.cid AS centroid_id, COALESCE(n1.n, 0) AS n1, "
        "COALESCE(f2.n, 0) AS n2, COALESCE(f2.sse, 0) AS sse_milli "
        "FROM (SELECT DISTINCT cid FROM c0) k "
        "LEFT JOIN n1 USING (cid) LEFT JOIN f2 USING (cid)"
    )


@query("kmeans_lloyd2", _kmeans_lloyd2_sql)
def q_kmeans_lloyd2(sf_dir: str):
    """TWO FULL LLOYD K-MEANS ITERATIONS over the embedding table,
    integer-exact end to end: quantize components to micro ints, assign
    each vector to its squared-Euclidean-nearest of ``LLOYD_K``
    centroids (ties → smallest centroid id; init = vectors with
    ``vec_id < K``, the ``kmeans_assign`` rule), update each centroid
    to the floor-divided per-dimension mean of its members (empty
    cluster keeps its previous centroid), then reassign against the
    updated centroids. Returns per centroid ``(centroid_id, n1, n2,
    sse_milli)`` — membership after each iteration and the final
    inertia (Σ per-point sqdist // 1000). The composed loop whose
    E-step (``kmeans_assign``) and M-step sufficient statistics
    (``kmeans_mstep_centroids``) the registry already checks
    individually.

    Scale shape: two streaming passes; each batch computes distances
    via one int64 matmul against the K×D broadcast centroid matrix
    (``ray.put`` once per iteration) and emits K·(D+2) partial rows
    (per-centroid per-dim sums, counts, sse) — the shuffle is
    K·(D+2)-bounded per batch at any corpus size, and the centroid
    update is a K×D driver reduction. int64 headroom: component sums
    are safe to ~10¹³ members per centroid at |x|≤1 (micro ≤ 10⁶);
    beyond that, fold the bounded partials in Python ints (the
    source_token_entropy discipline)."""
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..stages.ann import _batch_embeddings

    cent_tbl = pq.read_table(
        _p(sf_dir, "embeddings"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", LLOYD_K)],
    )
    order = np.argsort(cent_tbl["vec_id"].to_numpy(), kind="stable")
    c0 = _quant_micro(
        np.asarray(cent_tbl["embedding"].to_pylist(), dtype=np.float64)[order]
    )
    ndim = c0.shape[1]

    def sweep(cmat: np.ndarray):
        """One assignment pass → (counts, per-dim sums, sse_milli) per centroid."""
        cref = ray.put(cmat)

        def partial(batch: pa.Table) -> pa.Table:
            c = ray.get(cref)  # K x D int64
            e = _quant_micro(_batch_embeddings(batch))  # B x D int64
            e2 = np.einsum("ij,ij->i", e, e)
            c2 = np.einsum("ij,ij->i", c, c)
            d2 = e2[:, None] + c2[None, :] - 2 * (e @ c.T)  # B x K int64
            best = np.argmin(d2, axis=1)  # first min = smallest centroid id
            cnt = np.bincount(best, minlength=LLOYD_K).astype(np.int64)
            sums = np.zeros((LLOYD_K, ndim), np.int64)
            np.add.at(sums, best, e)
            sse = np.bincount(
                best,
                weights=(d2[np.arange(len(best)), best] // LLOYD_SSE_DIV).astype(
                    np.float64
                ),
                minlength=LLOYD_K,
            ).astype(np.int64)
            cid = np.repeat(np.arange(LLOYD_K, dtype=np.int64), ndim + 2)
            dim = np.tile(np.arange(ndim + 2, dtype=np.int64), LLOYD_K)
            val = np.concatenate(
                [np.concatenate([sums[k], [cnt[k], sse[k]]]) for k in range(LLOYD_K)]
            )
            return pa.table(
                {
                    "cid": pa.array(cid, pa.int64()),
                    "dim": pa.array(dim, pa.int64()),
                    "v": pa.array(val, pa.int64()),
                }
            )

        agg = (
            rd.read_parquet(_p(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
            .map_batches(partial, batch_format="pyarrow")
            .groupby(["cid", "dim"])
            .aggregate(Sum("v", alias_name="v"))
            .to_pandas()  # K·(D+2) rows
        )
        sums = np.zeros((LLOYD_K, ndim), np.int64)
        cnt = np.zeros(LLOYD_K, np.int64)
        sse = np.zeros(LLOYD_K, np.int64)
        for cid, dim, v in zip(agg["cid"], agg["dim"], agg["v"]):
            if dim < ndim:
                sums[cid, dim] = v
            elif dim == ndim:
                cnt[cid] = v
            else:
                sse[cid] = v
        return cnt, sums, sse

    n1, sums1, _sse1 = sweep(c0)
    c1 = np.where(
        (n1 > 0)[:, None], np.floor_divide(sums1, np.maximum(n1, 1)[:, None]), c0
    )
    n2, _sums2, sse2 = sweep(c1)
    return pa.table(
        {
            "centroid_id": pa.array(np.arange(LLOYD_K, dtype=np.int64), pa.int64()),
            "n1": pa.array(n1, pa.int64()),
            "n2": pa.array(n2, pa.int64()),
            "sse_milli": pa.array(sse2, pa.int64()),
        }
    )


# --------------------------------------------------------------------------
# deterministic T5-style span-corruption planning
# --------------------------------------------------------------------------

SPAN_GROUP = 3  # mean-span-3 tokens: mask whole token triples
SPAN_THR = 644_245_094  # floor(0.15 · 2³²) — 15% corruption rate
_K32 = 2_654_435_761  # Knuth multiplicative constant (lang_sample_topk's)
_M32 = 1 << 32


def _span_mask_sql() -> str:
    return (
        "WITH t AS (SELECT doc_id, "
        "len(regexp_extract_all(lower(text), '[a-z0-9]+')) AS n FROM documents), "
        f"g AS (SELECT doc_id, n, unnest(range(0, (n + {SPAN_GROUP - 1}) "
        f"// {SPAN_GROUP})) AS grp FROM t), "
        "h0 AS (SELECT doc_id, n, grp, "
        f"(((CAST(doc_id AS HUGEINT) % 4294967296) * {_K32}) % 4294967296 + grp) "
        "% 4294967296 AS hs FROM g), "
        "h AS (SELECT doc_id, n, grp, "
        f"(hs * hs % 4294967296) * {_K32} % 4294967296 AS hv FROM h0), "
        f"m AS (SELECT doc_id, n, grp, hv < {SPAN_THR} AS masked, "
        f"CASE WHEN grp = (n + {SPAN_GROUP - 1}) // {SPAN_GROUP} - 1 "
        f"THEN n - grp*{SPAN_GROUP} ELSE {SPAN_GROUP} END AS gsz FROM h), "
        "m2 AS (SELECT *, masked AND NOT COALESCE("
        "LAG(masked) OVER (PARTITION BY doc_id ORDER BY grp), FALSE) "
        "AS span_start FROM m), "
        "s AS (SELECT doc_id, "
        "CAST(COALESCE(SUM(CASE WHEN masked THEN gsz END), 0) AS BIGINT) AS n_masked, "
        "CAST(COALESCE(SUM(CASE WHEN span_start THEN 1 END), 0) AS BIGINT) AS n_spans "
        "FROM m2 GROUP BY doc_id) "
        "SELECT t.doc_id, CAST(t.n AS BIGINT) AS n_tokens, "
        "COALESCE(s.n_masked, 0) AS n_masked, COALESCE(s.n_spans, 0) AS n_spans "
        "FROM t LEFT JOIN s USING (doc_id)"
    )


@query("span_mask_plan", _span_mask_sql)
def q_span_mask_plan(sf_dir: str):
    """T5/UL2-STYLE SPAN-CORRUPTION PLAN, deterministic and seedless:
    tokens (``[a-z0-9]+`` over lower(text)) are grouped into consecutive
    triples (mean noise-span length 3); triple *g* of document *d* is
    masked iff ``hash(d, g) < 0.15·2³²`` with the SQUARED multiplicative
    hash ``h = ((((d mod 2³²)·k mod 2³²) + g) mod 2³²)² mod 2³² · k mod
    2³²`` (k = Knuth's 2654435761, the lang_sample_topk sampling hash;
    every reduction pre-applied mod 2³² so uint64 never overflows — the
    square term is ≤ (2³²−1)² < 2⁶⁴). The square is load-bearing: an
    affine-in-*g* hash steps by a constant 0.618·2³² between adjacent
    groups, so two neighbours could NEVER both land under a 15%
    threshold and spans would never merge. Adjacent masked triples merge
    into one sentinel span. Returns per document ``(doc_id, n_tokens,
    n_masked, n_spans)`` — the masking budget and sentinel count a
    T5-style pretraining packer needs before packing.

    Scale shape: shuffle-free pure map-side pass — token counts are one
    Arrow ``count_substring_regex`` kernel, the group/hash/span-run
    arithmetic is flat numpy over the batch's concatenated group table
    (no per-doc Python loop), and each batch emits exactly its own doc
    rows."""
    import pyarrow.compute as pc
    import ray.data as rd

    def plan(batch: pa.Table) -> pa.Table:
        docs = batch["doc_id"].to_numpy()
        n = (
            pc.count_substring_regex(
                pc.utf8_lower(batch["text"]), pattern="[a-z0-9]+"
            )
            .to_numpy()
            .astype(np.int64)
        )
        g_per = (n + SPAN_GROUP - 1) // SPAN_GROUP
        total = int(g_per.sum())
        didx = np.repeat(np.arange(len(n)), g_per)
        off = np.concatenate([[0], np.cumsum(g_per)])
        grp = np.arange(total, dtype=np.int64) - np.repeat(off[:-1], g_per)
        d = docs[didx].astype(np.uint64)
        k = np.uint64(_K32)
        m = np.uint64(_M32)
        h1 = (d % m) * k % m
        hs = (h1 + grp.astype(np.uint64)) % m
        h = (hs * hs % m) * k % m
        masked = h < np.uint64(SPAN_THR)
        last = grp == (g_per[didx] - 1)
        gsz = np.where(last, n[didx] - grp * SPAN_GROUP, SPAN_GROUP)
        n_masked = np.bincount(
            didx, weights=np.where(masked, gsz, 0).astype(np.float64), minlength=len(n)
        ).astype(np.int64)
        prev = np.zeros(total, bool)
        if total:
            prev[1:] = masked[:-1]
        start = masked & ((grp == 0) | ~prev)
        n_spans = np.bincount(
            didx, weights=start.astype(np.float64), minlength=len(n)
        ).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(docs.astype(np.int64), pa.int64()),
                "n_tokens": pa.array(n, pa.int64()),
                "n_masked": pa.array(n_masked, pa.int64()),
                "n_spans": pa.array(n_spans, pa.int64()),
            }
        )

    return rd.read_parquet(
        _p(sf_dir, "documents"), columns=["doc_id", "text"]
    ).map_batches(plan, batch_format="pyarrow")
