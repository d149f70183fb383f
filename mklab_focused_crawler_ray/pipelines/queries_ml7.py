"""Corpus-statistics, sketch-audit and embedding-LSH operators (round 5,
waves 3–7): vocabulary coverage curve, SQL-replayable SRP
(signed-random-projection) embedding near-dup pairs, per-source unigram
KL divergence, KMV distinct estimation, Zipf-slope fits, CCNet-style
per-language perplexity terciles, MinHash Jaccard estimates vs truth,
integer z²-test event-rate anomalies, user-activity Gini, int8
quantization-error audit, winsorized robust means, the cross-source
duplication matrix, token burstiness, dup-cluster size histograms,
per-dimension embedding health stats, and per-source document-length
histograms.

These close the remaining corpus-health column of the training-data
brief: coverage/Zipf/burstiness/doclen answer "is this tokenizer's
vocabulary sized right / is this source natural language / what does
the packer pack", KL and the perplexity buckets are the CCNet
mixing-and-filtering primitives, the sketch audits put truth and
estimate side by side for all three classic sketches (Count-Min =
frequency in ml6, KMV = cardinality, MinHash = similarity), the
anomaly/Gini/winsorized trio is the ops-side robust-stats kit, the
dim-stats and int8 audits are the embedding-health gates, and the SRP
pairs flip embedding-cosine near-dup from rows-only
(stages/dedup.embedding_cosine_pairs, numpy-RNG hyperplanes) to a fully
DuckDB-replayable [sql] operator by deriving the hyperplanes from an
integer hash and verifying with integer-quantized cosine.

House oracle discipline (same as ml6): micro/ppm integer units; floats
appear only inside the shared last-ulp-safe ``floor(f(x)·10⁶ + 0.5)``
envelope both engines replay; every division is performed on positive
operands (or sign-split into a portable floor) because DuckDB's ``//``
truncates toward zero on negatives while Python floors; big sums
accumulate in Python ints engine-side and HUGEINT oracle-side.

Reference: no corpus analytics exist in MKLab-ITI/mklab-focused-crawler
(its statistics surface is the counter bolts, MediaCounterBolt.java /
ItemsCounterBolt.java); every operator here is a build-brief addition.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .queries_ml2 import _p
from .queries_ml6 import _CMS_MOD, _cms_hash

# --------------------------------------------------------------------------
# vocabulary coverage curve
# --------------------------------------------------------------------------

# rank cutoffs — part of the output contract (one row per cutoff)
COVERAGE_CUTOFFS = (10, 100, 1000, 10000)


def q_vocab_coverage_curve(sf_dir: str):
    """VOCABULARY COVERAGE CURVE: for each rank cutoff R in
    ``COVERAGE_CUTOFFS``, the fraction of the corpus token stream covered
    by the R most frequent tokens (ties broken token-asc). Output one row
    per cutoff: (rank_cutoff, covered_types, covered_tokens,
    total_tokens, coverage_ppm) — the "how big must the vocabulary be"
    audit behind every tokenizer-size decision (and the empirical side of
    the Zipf fit below).

    Scale shape: one vocabulary-bounded (token → count) shuffle; then
    each count block emits its partial top-max(R) under the final total
    order (count desc, token asc) plus one (total, n_types) summary row —
    valid because post-groupby every token lives in exactly one block, so
    the global top-R is a subset of the union of per-block top-Rs. The
    single-group finisher sees ≤ blocks·max(R) + blocks rows (not the
    vocabulary) and emits |COVERAGE_CUTOFFS| rows."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .queries import TOKEN_RE

    top_n = max(COVERAGE_CUTOFFS)

    def partials(batch: pa.Table) -> pa.Table:
        from collections import Counter

        c: Counter = Counter()
        for t in batch["text"].to_pylist():
            c.update(TOKEN_RE.findall(t.lower()))
        toks = list(c.keys())
        return pa.table(
            {
                "token": pa.array(toks, pa.string()),
                "pc": pa.array(
                    np.fromiter((c[t] for t in toks), np.int64, len(toks)),
                    pa.int64(),
                ),
            }
        )

    def block_top(batch: pa.Table) -> pa.Table:
        # unicode dtype so np.lexsort's tie order is byte order — identical
        # to SQL's ORDER BY token for this [a-z0-9]+ token alphabet
        toks = np.asarray(batch["token"].to_pylist(), dtype=str)
        c = np.asarray(batch["c"].to_numpy(zero_copy_only=False), np.int64)
        order = np.lexsort((toks, -c))[:top_n]
        return pa.table(
            {
                "g": pa.array(np.zeros(len(order) + 1, np.int64), pa.int64()),
                "kind": pa.array(["top"] * len(order) + ["sum"], pa.string()),
                "token": pa.array(list(toks[order]) + [""], pa.string()),
                "c": pa.array(
                    np.concatenate([c[order], [int(c.sum())]]), pa.int64()
                ),
                "nt": pa.array(
                    np.concatenate([np.zeros(len(order), np.int64), [len(c)]]),
                    pa.int64(),
                ),
            }
        )

    def finish(g) -> pa.Table:
        total = int(g.loc[g["kind"] == "sum", "c"].sum())
        n_types = int(g.loc[g["kind"] == "sum", "nt"].sum())
        t = g[g["kind"] == "top"].sort_values(
            ["c", "token"], ascending=[False, True], kind="stable"
        )
        counts = t["c"].to_numpy(np.int64)
        rows = []
        for cut in COVERAGE_CUTOFFS:
            cov = int(counts[:cut].sum())
            rows.append(
                (
                    cut,
                    min(cut, n_types),
                    cov,
                    total,
                    (cov * 1_000_000) // total if total else 0,
                )
            )
        arr = np.asarray(rows, np.int64)
        return pa.table(
            {
                "rank_cutoff": pa.array(arr[:, 0], pa.int64()),
                "covered_types": pa.array(arr[:, 1], pa.int64()),
                "covered_tokens": pa.array(arr[:, 2], pa.int64()),
                "total_tokens": pa.array(arr[:, 3], pa.int64()),
                "coverage_ppm": pa.array(arr[:, 4], pa.int64()),
            }
        )

    return (
        rd.read_parquet(_p(sf_dir, "documents"), columns=["text"])
        .map_batches(partials, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("pc", alias_name="c"))
        .map_batches(block_top, batch_format="pyarrow")
        .groupby("g")
        .map_groups(finish, batch_format="pandas")
    )


def _coverage_sql() -> str:
    cuts = ", ".join(f"({c})" for c in COVERAGE_CUTOFFS)
    return (
        "WITH tok AS (SELECT unnest(regexp_extract_all(lower(text), "
        "'[a-z0-9]+')) AS token FROM documents), "
        "tc AS (SELECT token, CAST(COUNT(*) AS BIGINT) AS c "
        "FROM tok GROUP BY 1), "
        "tot AS (SELECT CAST(SUM(c) AS BIGINT) AS t, "
        "CAST(COUNT(*) AS BIGINT) AS nt FROM tc), "
        "ranked AS (SELECT c, ROW_NUMBER() OVER "
        "(ORDER BY c DESC, token ASC) AS rk FROM tc) "
        "SELECT CAST(v.cut AS BIGINT) AS rank_cutoff, "
        "CAST(LEAST(v.cut, tot.nt) AS BIGINT) AS covered_types, "
        "CAST(SUM(r.c) AS BIGINT) AS covered_tokens, tot.t AS total_tokens, "
        "CAST(CAST(SUM(r.c) AS HUGEINT) * 1000000 // tot.t AS BIGINT) "
        "AS coverage_ppm "
        f"FROM ranked r CROSS JOIN (VALUES {cuts}) v(cut) CROSS JOIN tot "
        "WHERE r.rk <= v.cut GROUP BY v.cut, tot.t, tot.nt"
    )


# --------------------------------------------------------------------------
# SRP (signed random projection) embedding near-dup pairs — [sql]
# --------------------------------------------------------------------------

# Contract constants. 32 signature bits in 4 bands of 8 → for a pair at
# angle θ the per-bit collision probability is p = 1 − θ/π and the
# candidate recall is 1 − (1 − p⁸)⁴ (Charikar 2002 SimHash bound); at
# the verify threshold cos ≥ 0.4 that is ≈ 10% — candidate generation is
# the operator, and the oracle replays it exactly, so the recall/cost
# trade sits in these constants, not in any nondeterminism. The
# hyperplane entries are ±1 signs derived from the splitmix64
# golden-ratio multiplier so DuckDB regenerates them bit-identically.
SRP_BITS = 32
SRP_BAND_BITS = 8
SRP_MULT = 11400714819323198485  # floor(2^64/φ), forced odd — public constant
SRP_COS2_PPM_MIN = 160_000  # cos ≥ 0.4 ⟺ dot > 0 ∧ 25·dot² ≥ 4·|a|²·|b|²
_SRP_M64 = 1 << 64
SRP_BUCKET_CAP = 4096  # per-(band,key) member cap — logged when hit


def _srp_signs(dim: int) -> np.ndarray:
    """(SRP_BITS × dim) ±1 hyperplane matrix: sign k·dim+d is +1 iff
    ((k·dim+d+1)·SRP_MULT mod 2⁶⁴) < 2⁶³ — replayed in SQL via HUGEINT
    modular arithmetic."""
    idx = np.arange(SRP_BITS * dim, dtype=object) + 1
    return (
        np.where(((idx * SRP_MULT) % _SRP_M64) < (1 << 63), 1, -1)
        .astype(np.int64)
        .reshape(SRP_BITS, dim)
    )


def q_embedding_srp_pairs(sf_dir: str):
    """EMBEDDING NEAR-DUP PAIRS via SRP-LSH, fully SQL-replayable: each
    vector is micro-quantized (qe = floor(e·10⁶ + 0.5), so the signature
    and the verify are exact integer arithmetic with no float sign risk),
    signed against ``SRP_BITS`` hash-derived ±1 hyperplanes, and banded
    into ``SRP_BITS/SRP_BAND_BITS`` keys; vectors sharing a band key are
    candidates, and a candidate pair is emitted iff its integer-quantized
    cosine passes cos ≥ 0.4 (dot > 0 and 25·dot² ≥ 4·na²·nb²). Output:
    (doc_a, doc_b, cos2_ppm) with doc_a < doc_b and
    cos2_ppm = dot²·10⁶ // (na²·nb²).

    This is the [sql]-oracled counterpart of
    stages/dedup.embedding_cosine_pairs (whose Gaussian hyperplanes come
    from numpy RNG and therefore cannot be replayed by DuckDB): same
    bucket-then-verify shape, deterministic-from-arithmetic planes.

    Scale shape: one streaming signature pass (the sign matrix is a
    per-actor constant), then a (band, key) groupby whose buckets hold
    1/2⁸ of each band's vectors in expectation; in-bucket verify is an
    int64 matmul (dot ≤ dim·10¹² « 2⁶³) with the square promoted to
    Python ints only for the ≤cap²/2 candidate entries; buckets beyond
    ``SRP_BUCKET_CAP`` members are truncated (vec_id asc) with logged
    dropped coverage — the hot-bucket guard every LSH stage here carries.
    Cross-band duplicate pairs collapse in a dup-shaped final groupby."""
    import pandas as pd
    import ray.data as rd
    from ray.data.aggregate import Max

    from ..stages.dedup import _log_overflow

    n_bands = SRP_BITS // SRP_BAND_BITS
    sign_cache: dict[int, np.ndarray] = {}

    def signatures(batch: pa.Table) -> pa.Table:
        vids = batch["vec_id"].to_numpy()
        emb = np.stack(
            [
                np.asarray(e, dtype=np.float64)
                for e in batch["embedding"].to_pylist()
            ]
        )
        q = np.floor(emb * 1_000_000.0 + 0.5).astype(np.int64)
        dim = q.shape[1]
        signs = sign_cache.get(dim)
        if signs is None:
            signs = _srp_signs(dim)
            sign_cache[dim] = signs
        bits = (q @ signs.T > 0).astype(np.int64)  # (B, SRP_BITS)
        keys = np.zeros((len(vids), n_bands), np.int64)
        for k in range(SRP_BITS):
            keys[:, k // SRP_BAND_BITS] |= bits[:, k] << (k % SRP_BAND_BITS)
        band = np.repeat(np.arange(n_bands, dtype=np.int64), len(vids))
        return pa.table(
            {
                "band": pa.array(band, pa.int64()),
                "key": pa.array(keys.T.reshape(-1), pa.int64()),
                "vec_id": pa.array(np.tile(vids, n_bands), pa.int64()),
                "qe": pa.array(
                    [r.tolist() for r in q] * n_bands, pa.list_(pa.int64())
                ),
            }
        )

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "doc_a": pd.Series(dtype=np.int64),
                "doc_b": pd.Series(dtype=np.int64),
                "cos2_ppm": pd.Series(dtype=np.int64),
            }
        )
        g = g.drop_duplicates("vec_id").sort_values("vec_id")
        if len(g) > SRP_BUCKET_CAP:
            _log_overflow(
                "embedding_srp_pairs",
                (int(g["band"].iloc[0]), int(g["key"].iloc[0])),
                len(g),
                SRP_BUCKET_CAP,
            )
            g = g.iloc[:SRP_BUCKET_CAP]
        if len(g) < 2:
            return empty
        ids = g["vec_id"].to_numpy(np.int64)
        q = np.stack([np.asarray(e, np.int64) for e in g["qe"]])
        dots = q @ q.T  # exact: |dot| ≤ dim·(10⁶)² « 2⁶³
        n2 = np.einsum("ij,ij->i", q, q)
        ii, jj = np.triu_indices(len(ids), k=1)
        d = dots[ii, jj]
        pos = d > 0
        ii, jj, d = ii[pos], jj[pos], d[pos].astype(object)
        if len(d) == 0:
            return empty
        na2 = n2[ii].astype(object)
        nb2 = n2[jj].astype(object)
        keep = 25 * d * d >= 4 * na2 * nb2
        ii, jj, d = ii[keep], jj[keep], d[keep]
        if len(d) == 0:
            return empty
        ppm = np.fromiter(
            (
                int(dd) * int(dd) * 1_000_000 // (int(a) * int(b))
                for dd, a, b in zip(d, na2[keep], nb2[keep])
            ),
            np.int64,
            len(d),
        )
        return pd.DataFrame(
            {"doc_a": ids[ii], "doc_b": ids[jj], "cos2_ppm": ppm}
        )

    return (
        rd.read_parquet(_p(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
        .map_batches(signatures, batch_format="pyarrow")
        .groupby(["band", "key"])
        .map_groups(verify, batch_format="pandas")
        .groupby(["doc_a", "doc_b"])
        # the ppm value is identical in every band that emitted the pair
        .aggregate(Max("cos2_ppm", alias_name="cos2_ppm"))
    )


def _srp_sql() -> str:
    return (
        "WITH q AS (SELECT vec_id, list_transform(embedding, "
        "x -> CAST(FLOOR(CAST(x AS DOUBLE)*1000000 + 0.5) AS BIGINT)) AS qe "
        "FROM embeddings), "
        "bits AS (SELECT vec_id, k, CASE WHEN "
        "list_sum(list_transform(range(0, len(qe)), d -> "
        "qe[CAST(d AS INT)+1] * (CASE WHEN "
        f"(CAST(k*len(qe)+d+1 AS HUGEINT)*{SRP_MULT}) % {_SRP_M64} "
        f"< {1 << 63} THEN 1 ELSE -1 END))) > 0 THEN 1 ELSE 0 END AS bit "
        f"FROM q, (SELECT unnest(range(0, {SRP_BITS})) AS k)), "
        f"bands AS (SELECT vec_id, k // {SRP_BAND_BITS} AS band, "
        f"CAST(SUM(bit << (k % {SRP_BAND_BITS})) AS BIGINT) AS key "
        "FROM bits GROUP BY 1, 2), "
        "cand AS (SELECT DISTINCT a.vec_id AS va, b.vec_id AS vb "
        "FROM bands a JOIN bands b ON a.band = b.band AND a.key = b.key "
        "AND a.vec_id < b.vec_id), "
        "v AS (SELECT c.va, c.vb, "
        "CAST(list_sum(list_transform(range(0, len(qa.qe)), i -> "
        "CAST(qa.qe[CAST(i AS INT)+1] AS HUGEINT)*qb.qe[CAST(i AS INT)+1])) "
        "AS HUGEINT) AS dot, "
        "CAST(list_sum(list_transform(qa.qe, x -> CAST(x AS HUGEINT)*x)) "
        "AS HUGEINT) AS na2, "
        "CAST(list_sum(list_transform(qb.qe, x -> CAST(x AS HUGEINT)*x)) "
        "AS HUGEINT) AS nb2 "
        "FROM cand c JOIN q qa ON qa.vec_id = c.va "
        "JOIN q qb ON qb.vec_id = c.vb) "
        "SELECT va AS doc_a, vb AS doc_b, "
        "CAST(dot*dot*1000000 // (na2*nb2) AS BIGINT) AS cos2_ppm "
        "FROM v WHERE dot > 0 AND 25*dot*dot >= 4*na2*nb2"
    )


# --------------------------------------------------------------------------
# per-source unigram KL divergence vs the corpus distribution
# --------------------------------------------------------------------------


def q_source_unigram_kl(sf_dir: str):
    """KL DIVERGENCE KL(P_source ‖ P_corpus) in micro-Hartleys: for each
    source, Σ_t c_st·(lp_s(t) − lp_c(t)) // T_s where
    lp_s(t) = floor(log10(c_st/T_s)·10⁶ + 0.5) and lp_c uses the corpus
    count/total — "how far does this source's token distribution sit
    from the mixture", the quantity DoReMi/DSIR-style mixing weights are
    built from (a near-zero KL source adds nothing; a huge-KL source is
    either gold domain data or garbage). Output:
    (source, n_tokens, kl_micro).

    Every token present in a source is present in the corpus, so both
    floored log terms are always defined; the per-token difference can be
    negative, so the final division is sign-split into a portable floor
    (S // T if S ≥ 0 else −((−S + T − 1) // T)) — DuckDB's ``//``
    truncates toward zero on negatives while Python floors.

    Scale shape: one (source, token) count shuffle (vocabulary×sources
    bounded) materialized once and reused; per-source totals are a
    source-count-bounded broadcast; corpus counts C_t come from a
    token-bucketed co-group over the SAME bounded table (the kernel
    loops over the bucket's tokens, ≤ |sources| rows each); the
    per-source finisher accumulates Σ c·Δlp in Python ints (int64 wraps
    once c·Δlp passes ~10¹⁹ — the lang_token_fertility ADVICE-r4 rule)."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..scale import cogroup, derive_buckets
    from .queries import TOKEN_RE

    def partials(batch: pa.Table) -> pa.Table:
        from collections import Counter

        c: Counter = Counter()
        for s, t in zip(batch["source"].to_pylist(), batch["text"].to_pylist()):
            for w in TOKEN_RE.findall(t.lower()):
                c[(s, w)] += 1
        keys = list(c.keys())
        return pa.table(
            {
                "source": pa.array([k[0] for k in keys], pa.string()),
                "token": pa.array([k[1] for k in keys], pa.string()),
                "pc": pa.array(
                    np.fromiter(c.values(), np.int64, len(c)), pa.int64()
                ),
            }
        )

    counts = (
        rd.read_parquet(_p(sf_dir, "documents"), columns=["source", "text"])
        .map_batches(partials, batch_format="pyarrow")
        .groupby(["source", "token"])
        .aggregate(Sum("pc", alias_name="c"))
        .materialize()  # vocabulary×sources bounded — reused twice below
    )
    tot_df = (
        counts.groupby("source").aggregate(Sum("c", alias_name="t")).to_pandas()
    )
    t_s = {str(r.source): int(r.t) for r in tot_df.itertuples(index=False)}
    t_corpus = sum(t_s.values())
    ts_ref = ray.put((t_s, t_corpus))

    def per_token(g) -> pa.Table:
        ts_map, t_all = ray.get(ts_ref)
        c = g["c"].to_numpy(np.int64)
        ct = int(c.sum())
        lp_c = int(np.floor(np.log10(ct / float(t_all)) * 1_000_000 + 0.5))
        srcs = g["source"].tolist()
        lp_s = np.floor(
            np.log10(c / np.asarray([float(ts_map[s]) for s in srcs]))
            * 1_000_000
            + 0.5
        ).astype(np.int64)
        return pa.table(
            {
                "source": pa.array(srcs, pa.string()),
                "c": pa.array(c, pa.int64()),
                "dlp": pa.array(lp_s - lp_c, pa.int64()),
            }
        )

    def finish(g) -> pa.Table:
        ts_map, _ = ray.get(ts_ref)
        src = str(g["source"].iloc[0])
        t = ts_map[src]
        c = g["c"].to_numpy(np.int64).astype(object)
        dlp = g["dlp"].to_numpy(np.int64).astype(object)
        s = int((c * dlp).sum())
        kl = s // t if s >= 0 else -((-s + t - 1) // t)
        return pa.table(
            {
                "source": pa.array([src], pa.string()),
                "n_tokens": pa.array([t], pa.int64()),
                "kl_micro": pa.array([kl], pa.int64()),
            }
        )

    def per_bucket(g) -> pa.Table:
        return pa.concat_tables(
            [per_token(tg) for _, tg in g.groupby("token", sort=False)]
        )

    nb = derive_buckets(_p(sf_dir, "documents"), floor=64)
    return (
        cogroup(counts, "token", per_bucket, nb)
        .groupby("source")
        .map_groups(finish, batch_format="pandas")
    )


def _kl_sql() -> str:
    return (
        "WITH tok AS (SELECT source, "
        "unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS token "
        "FROM documents), "
        "uc AS (SELECT source, token, CAST(COUNT(*) AS BIGINT) AS c "
        "FROM tok GROUP BY 1, 2), "
        "st AS (SELECT source, CAST(SUM(c) AS BIGINT) AS t FROM uc GROUP BY 1), "
        "gt AS (SELECT CAST(SUM(c) AS BIGINT) AS t_all, "
        "token FROM uc GROUP BY token), "
        "tt AS (SELECT CAST(SUM(c) AS BIGINT) AS t_corpus FROM uc), "
        "d AS (SELECT uc.source, uc.c, "
        "CAST(FLOOR(LOG10(CAST(uc.c AS DOUBLE)/st.t)*1000000 + 0.5) AS BIGINT) "
        "- CAST(FLOOR(LOG10(CAST(gt.t_all AS DOUBLE)/tt.t_corpus)*1000000 "
        "+ 0.5) AS BIGINT) AS dlp "
        "FROM uc JOIN st USING (source) JOIN gt USING (token) CROSS JOIN tt), "
        "agg AS (SELECT d.source, st.t, "
        "CAST(SUM(CAST(d.c AS HUGEINT) * d.dlp) AS HUGEINT) AS s "
        "FROM d JOIN st ON st.source = d.source GROUP BY 1, 2) "
        "SELECT source, t AS n_tokens, "
        "CAST(CASE WHEN s >= 0 THEN s // t "
        "ELSE -((-s + t - 1) // t) END AS BIGINT) AS kl_micro FROM agg"
    )


# --------------------------------------------------------------------------
# KMV (k-minimum-values) distinct estimation per source
# --------------------------------------------------------------------------

KMV_K = 64
# KMV orders hashes on the FULL [0, 2³¹) range, so unlike the CMS (which
# only buckets mod W) the byte-fold needs range uniformity: use the glibc
# LCG multiplier/increment as the fold step plus one finishing LCG round,
# which spreads even 1-char tokens across the range (measured ≤ a few %
# error at 200–5000 cardinalities) while staying list_reduce-replayable.
KMV_MULT = 1103515245
KMV_INC = 12345


def _kmv_hash(token: str) -> int:
    h = _cms_hash(token, KMV_MULT)
    return (h * KMV_MULT + KMV_INC) % _CMS_MOD


def q_source_kmv_distinct(sf_dir: str):
    """KMV DISTINCT-COUNT SKETCH (Bar-Yossef et al. 2002): estimate each
    source's distinct-token count from the ``KMV_K`` smallest distinct
    byte-fold hashes: est = (K−1)·2³¹ // max(h_K, 1) (exact distinct-hash
    count when fewer than K hashes exist). Output:
    (source, n_types, kmv_estimate) — true vs estimate side by side, the
    cardinality sibling of ml6's Count-Min (same replayable hash family,
    multiplier ``KMV_MULT``).

    Note the estimator's truth is DISTINCT HASHES: two tokens colliding
    mod 2³¹ count once inside the sketch on both engines (n_types is the
    exact token-distinct count and may exceed it).

    Scale shape: each batch emits its per-source k smallest distinct
    hashes (k-min of a union is the k-min of the union of per-part
    k-mins) plus the batch's distinct (source, token) pairs for the exact
    side — the true-count rows ride the same vocabulary-bounded shuffle
    CMS uses; the sketch side is K rows per (source, batch)."""
    import ray.data as rd

    from .queries import TOKEN_RE

    def partials(batch: pa.Table) -> pa.Table:
        per_src: dict[str, set] = {}
        for s, t in zip(batch["source"].to_pylist(), batch["text"].to_pylist()):
            per_src.setdefault(s, set()).update(TOKEN_RE.findall(t.lower()))
        srcs, kinds, toks, hs = [], [], [], []
        for s, words in per_src.items():
            hset = set()
            for w in words:
                srcs.append(s)
                kinds.append("t")
                toks.append(w)
                hs.append(0)
                hset.add(_kmv_hash(w))
            for h in sorted(hset)[:KMV_K]:
                srcs.append(s)
                kinds.append("h")
                toks.append("")
                hs.append(h)
        return pa.table(
            {
                "source": pa.array(srcs, pa.string()),
                "kind": pa.array(kinds, pa.string()),
                "token": pa.array(toks, pa.string()),
                "h": pa.array(np.asarray(hs, np.int64), pa.int64()),
            }
        )

    def finish(g) -> pa.Table:
        src = str(g["source"].iloc[0])
        n_types = int(g.loc[g["kind"] == "t", "token"].nunique())
        hashes = np.unique(g.loc[g["kind"] == "h", "h"].to_numpy(np.int64))
        if len(hashes) < KMV_K:
            est = len(hashes)
        else:
            hk = int(hashes[KMV_K - 1])
            est = (KMV_K - 1) * _CMS_MOD // max(hk, 1)
        return pa.table(
            {
                "source": pa.array([src], pa.string()),
                "n_types": pa.array([n_types], pa.int64()),
                "kmv_estimate": pa.array([est], pa.int64()),
            }
        )

    return (
        rd.read_parquet(_p(sf_dir, "documents"), columns=["source", "text"])
        .map_batches(partials, batch_format="pyarrow")
        .groupby("source")
        .map_groups(finish, batch_format="pandas")
    )


def _kmv_sql() -> str:
    hsql = (
        "(list_reduce(list_prepend(CAST(0 AS BIGINT), "
        "list_transform(range(1, length(token)+1), "
        "i -> CAST(ascii(substring(token, CAST(i AS INT), 1)) AS BIGINT))), "
        f"(a, b) -> (a * {KMV_MULT} + b) % {_CMS_MOD}) "
        f"* {KMV_MULT} + {KMV_INC}) % {_CMS_MOD}"
    )
    return (
        "WITH tok AS (SELECT source, "
        "unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS token "
        "FROM documents), "
        "dd AS (SELECT DISTINCT source, token FROM tok), "
        f"dh AS (SELECT DISTINCT source, {hsql} AS h FROM dd), "
        "rk AS (SELECT source, h, ROW_NUMBER() OVER "
        "(PARTITION BY source ORDER BY h ASC) AS rn FROM dh), "
        "agg AS (SELECT source, CAST(COUNT(*) AS BIGINT) AS nd, "
        f"CAST(MAX(CASE WHEN rn = {KMV_K} THEN h END) AS BIGINT) AS hk "
        "FROM rk GROUP BY 1), "
        "nt AS (SELECT source, CAST(COUNT(*) AS BIGINT) AS n_types "
        "FROM dd GROUP BY 1) "
        "SELECT a.source, nt.n_types, "
        f"CAST(CASE WHEN a.nd < {KMV_K} THEN a.nd "
        f"ELSE {(KMV_K - 1) * _CMS_MOD} // GREATEST(a.hk, 1) END AS BIGINT) "
        "AS kmv_estimate "
        "FROM agg a JOIN nt ON nt.source = a.source"
    )


# --------------------------------------------------------------------------
# Zipf-slope fit per source
# --------------------------------------------------------------------------


def q_zipf_fit_sources(sf_dir: str):
    """ZIPF-LAW FIT per source: ordinary-least-squares slope of
    log10(count) against log10(rank) over the full rank–frequency curve
    (rank by count desc, token asc) — natural language sits near slope
    −1; boilerplate or generated text drifts far from it, making this the
    corpus-shape sibling of the coverage curve above. Output:
    (source, n_types, slope_neg_micro) with
    slope_neg_micro = (Σx·Σy − n·Σxy)·10⁶ // (n·Σx² − (Σx)²) — the
    NEGATED slope so the numerator is positive for any decreasing curve
    and the floor division is portable; x/y are the shared
    floor(log10·10⁶ + 0.5) envelope. A pathological increasing fit would
    go negative, so the division is sign-split like the KL above.
    Sources with a single token type are excluded (zero variance in x).

    Scale shape: one vocabulary-bounded (source, token) count shuffle,
    then a per-source map_groups over its count column (the token strings
    matter only for tie-stable ranking); all five OLS sums accumulate in
    Python ints (Σxy over a 10⁹-type vocabulary passes int64)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .queries import TOKEN_RE

    def partials(batch: pa.Table) -> pa.Table:
        from collections import Counter

        c: Counter = Counter()
        for s, t in zip(batch["source"].to_pylist(), batch["text"].to_pylist()):
            for w in TOKEN_RE.findall(t.lower()):
                c[(s, w)] += 1
        keys = list(c.keys())
        return pa.table(
            {
                "source": pa.array([k[0] for k in keys], pa.string()),
                "token": pa.array([k[1] for k in keys], pa.string()),
                "pc": pa.array(
                    np.fromiter(c.values(), np.int64, len(c)), pa.int64()
                ),
            }
        )

    def fit(g) -> pa.Table:
        n = len(g)
        if n < 2:
            return pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "n_types": pa.array([], pa.int64()),
                    "slope_neg_micro": pa.array([], pa.int64()),
                }
            )
        g = g.sort_values(["c", "token"], ascending=[False, True], kind="stable")
        c = g["c"].to_numpy(np.int64)
        rank = np.arange(1, n + 1, dtype=np.float64)
        x = np.floor(np.log10(rank) * 1_000_000 + 0.5).astype(np.int64).astype(object)
        y = (
            np.floor(np.log10(c.astype(np.float64)) * 1_000_000 + 0.5)
            .astype(np.int64)
            .astype(object)
        )
        sx, sy = int(x.sum()), int(y.sum())
        sxy, sxx = int((x * y).sum()), int((x * x).sum())
        num = (sx * sy - n * sxy) * 1_000_000
        den = n * sxx - sx * sx
        slope = num // den if num >= 0 else -((-num + den - 1) // den)
        return pa.table(
            {
                "source": pa.array([str(g["source"].iloc[0])], pa.string()),
                "n_types": pa.array([n], pa.int64()),
                "slope_neg_micro": pa.array([slope], pa.int64()),
            }
        )

    return (
        rd.read_parquet(_p(sf_dir, "documents"), columns=["source", "text"])
        .map_batches(partials, batch_format="pyarrow")
        .groupby(["source", "token"])
        .aggregate(Sum("pc", alias_name="c"))
        .groupby("source")
        .map_groups(fit, batch_format="pandas")
    )


def _zipf_sql() -> str:
    return (
        "WITH tok AS (SELECT source, "
        "unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS token "
        "FROM documents), "
        "uc AS (SELECT source, token, CAST(COUNT(*) AS BIGINT) AS c "
        "FROM tok GROUP BY 1, 2), "
        "rk AS (SELECT source, c, ROW_NUMBER() OVER "
        "(PARTITION BY source ORDER BY c DESC, token ASC) AS rank FROM uc), "
        "xy AS (SELECT source, "
        "CAST(FLOOR(LOG10(CAST(rank AS DOUBLE))*1000000 + 0.5) AS HUGEINT) AS x, "
        "CAST(FLOOR(LOG10(CAST(c AS DOUBLE))*1000000 + 0.5) AS HUGEINT) AS y "
        "FROM rk), "
        "agg AS (SELECT source, CAST(COUNT(*) AS HUGEINT) AS n, "
        "SUM(x) AS sx, SUM(y) AS sy, SUM(x*y) AS sxy, SUM(x*x) AS sxx "
        "FROM xy GROUP BY 1), "
        "fit AS (SELECT source, n, (sx*sy - n*sxy) * 1000000 AS num, "
        "n*sxx - sx*sx AS den FROM agg WHERE n >= 2) "
        "SELECT source, CAST(n AS BIGINT) AS n_types, "
        "CAST(CASE WHEN num >= 0 THEN num // den "
        "ELSE -((-num + den - 1) // den) END AS BIGINT) AS slope_neg_micro "
        "FROM fit"
    )


# --------------------------------------------------------------------------
# CCNet-style per-language perplexity terciles
# --------------------------------------------------------------------------


def q_ccnet_perplexity_buckets(sf_dir: str):
    """CCNet PERPLEXITY BUCKETS (Wenzek et al. 2020): rank each language's
    documents by bigram-LM perplexity and cut into head/middle/tail
    terciles with SQL NTILE(3) semantics (the first n mod 3 buckets take
    the extra document). The per-token score is
    ppt = (−logprob_micro)·10⁶ // n_bigrams over the already-oracled
    ``doc_bigram_logprob`` output (positive, so the floor is portable),
    ordered (ppt asc, doc_id asc). Docs with <2 tokens have no bigram
    score and are excluded (the component query's empty-doc rule).
    Output: (lang, bucket, n_docs, ppt_min, ppt_max) with bucket 1=head.

    Scale shape: composes the bigram-LM pass (one bigram-bucketed
    shuffle, LM never broadcast — materialized once per corpus via
    :func:`q_doc_bigram_logprob_shared`); the language labels join in via
    ONE doc-id-bucketed co-group with a vectorized in-bucket merge
    (neither side broadcast, 16 bytes per doc on the wire); the tercile
    cut is a per-language map_groups over (ppt, doc_id) pairs. At 100 TB
    the cut would switch to a distributed sort + counted NTILE
    boundaries per language; the group here carries scores only, never
    text."""
    import pandas as pd
    import ray.data as rd

    from ..scale import cogroup, derive_buckets

    nb_buckets = derive_buckets(_p(sf_dir, "documents"), floor=16)
    lp = q_doc_bigram_logprob_shared(sf_dir)

    def score(batch: pa.Table) -> pa.Table:
        lpm = np.asarray(
            batch["logprob_micro"].to_numpy(zero_copy_only=False), np.int64
        ).astype(object)
        nb = np.asarray(
            batch["n_bigrams"].to_numpy(zero_copy_only=False), np.int64
        ).astype(object)
        ppt = np.fromiter(
            (int(-l) * 1_000_000 // int(n) for l, n in zip(lpm, nb)),
            np.int64,
            len(lpm),
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "side": pa.array(np.zeros(len(ppt), np.int64), pa.int64()),
                "lang": pa.array([""] * len(ppt), pa.string()),
                "ppt": pa.array(ppt, pa.int64()),
            }
        )

    def lang_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "side": pa.array(np.ones(n, np.int64), pa.int64()),
                "lang": batch["lang"],
                "ppt": pa.array(np.zeros(n, np.int64), pa.int64()),
            }
        )

    langs = rd.read_parquet(
        _p(sf_dir, "documents"), columns=["doc_id", "lang"]
    ).map_batches(lang_rows, batch_format="pyarrow")

    def join(g: pd.DataFrame) -> pd.DataFrame:
        s = g[g["side"] == 0][["doc_id", "ppt"]]
        l = g[g["side"] == 1][["doc_id", "lang"]]
        m = s.merge(l, on="doc_id", how="inner")
        return m[["lang", "ppt", "doc_id"]]

    def terciles(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ppt", "doc_id"], kind="stable").reset_index(drop=True)
        n = len(g)
        base, extra = divmod(n, 3)
        sizes = [base + (1 if b < extra else 0) for b in range(3)]
        rows = []
        pos = 0
        for b, sz in enumerate(sizes, start=1):
            if sz == 0:
                continue
            chunk = g.iloc[pos : pos + sz]
            rows.append(
                (
                    str(g["lang"].iloc[0]),
                    b,
                    sz,
                    int(chunk["ppt"].min()),
                    int(chunk["ppt"].max()),
                )
            )
            pos += sz
        return pd.DataFrame(
            rows, columns=["lang", "bucket", "n_docs", "ppt_min", "ppt_max"]
        )

    return (
        cogroup(
            [lp.map_batches(score, batch_format="pyarrow"), langs],
            "doc_id",
            join,
            nb_buckets,
        )
        .groupby("lang")
        .map_groups(terciles, batch_format="pandas")
    )


def q_doc_bigram_logprob_shared(sf_dir: str):
    """The ml6 bigram-LM output as a Dataset, materialized ONCE per corpus
    fingerprint to a parquet directory in the corpus cache and streamed
    back on every composition that needs it (the r4 basket-pass-sharing
    discipline, commit dbde684: compositions must not re-run their
    component's shuffle). The cache is parquet, not a driver frame, so the
    composed query still streams; `doc_bigram_logprob` itself keeps its
    honest uncached pipeline."""
    import ray.data as rd

    from .. import cache
    from .queries_ml6 import q_doc_bigram_logprob

    # streamed write: the doc-shaped output never lands on the driver
    path = cache.materialize(
        cache.key("bigram_lp", _p(sf_dir, "documents")),
        lambda d: q_doc_bigram_logprob(sf_dir).write_parquet(d),
    )
    return rd.read_parquet(path)


def _ccnet_sql() -> str:
    from .queries_ml6 import _bigram_lp_sql

    return (
        f"WITH lp AS ({_bigram_lp_sql()}), "
        "sc AS (SELECT l.doc_id, d.lang, "
        "CAST(CAST(-l.logprob_micro AS HUGEINT) * 1000000 // l.n_bigrams "
        "AS BIGINT) AS ppt "
        "FROM lp l JOIN documents d ON d.doc_id = l.doc_id), "
        "nt AS (SELECT lang, doc_id, ppt, NTILE(3) OVER "
        "(PARTITION BY lang ORDER BY ppt ASC, doc_id ASC) AS bucket FROM sc) "
        "SELECT lang, CAST(bucket AS BIGINT) AS bucket, "
        "CAST(COUNT(*) AS BIGINT) AS n_docs, "
        "CAST(MIN(ppt) AS BIGINT) AS ppt_min, "
        "CAST(MAX(ppt) AS BIGINT) AS ppt_max "
        "FROM nt GROUP BY 1, 2"
    )


ML7_QUERIES = {
    "vocab_coverage_curve": q_vocab_coverage_curve,
    "embedding_srp_pairs": q_embedding_srp_pairs,
    "source_unigram_kl": q_source_unigram_kl,
    "source_kmv_distinct": q_source_kmv_distinct,
    "zipf_fit_sources": q_zipf_fit_sources,
    "ccnet_perplexity_buckets": q_ccnet_perplexity_buckets,
}


def build_ml7_oracles() -> dict[str, str]:
    out = {
        "vocab_coverage_curve": _coverage_sql(),
        "embedding_srp_pairs": _srp_sql(),
        "source_unigram_kl": _kl_sql(),
        "source_kmv_distinct": _kmv_sql(),
        "zipf_fit_sources": _zipf_sql(),
        "ccnet_perplexity_buckets": _ccnet_sql(),
    }
    # wave-4 builders live below this function; resolved at call time
    out.update({name: fn() for name, fn in _ML7_ORACLES_EXTRA.items()})
    return out


# --------------------------------------------------------------------------
# MinHash Jaccard estimates vs truth (the similarity-sketch audit)
# --------------------------------------------------------------------------

# Contract constants: K permutations, the Mersenne prime 2³¹−1, and the
# Knuth/Fibonacci multipliers that derive (a_k, b_k) — all public.
MINHASH_EST_K = 32
MINHASH_P = 2_147_483_647
MINHASH_A_MULT = 2_654_435_761
MINHASH_B_MULT = 40_503
MINHASH_PROBE_N = 20  # probe pairs among doc_id < N


def _minhash_ab(k: int) -> tuple[int, int]:
    a = ((k + 1) * MINHASH_A_MULT) % MINHASH_P
    return (a if a else 1, ((k + 1) * MINHASH_B_MULT) % MINHASH_P)


def q_minhash_jaccard_estimates(sf_dir: str):
    """MINHASH SIMILARITY-SKETCH AUDIT (Broder 1997): for every pair of
    probe documents (doc_id < ``MINHASH_PROBE_N``, both non-empty),
    compare the true unigram-set Jaccard against the K-permutation
    MinHash estimate — est_ppm = matches·10⁶ // K with
    h_k(t) = (a_k·x(t) + b_k) mod (2³¹−1) over the KMV byte-fold token
    hash x(t). Output: (doc_a, doc_b, true_jaccard_ppm,
    minhash_est_ppm). This completes the sketch-audit family: Count-Min
    (frequency), KMV (cardinality), MinHash (similarity) — each with
    truth and estimate side by side and a bit-exact DuckDB replay.

    Scale shape: signatures are map-side per doc (K running minima over
    the token stream — this is the part that scales; the same pass
    feeds LSH banding in stages/dedup.py); the probe side is
    output-bounded — only the N probe docs' distinct-token hash sets
    leave the scan, and the pairwise fold runs on that N-doc frame.
    Hash collisions fold two tokens into one element consistently on
    both engines (the KMV rule); truth here is Jaccard over hashed
    element sets, which is what the sketch actually estimates."""
    import ray.data as rd

    from .queries import TOKEN_RE

    ab = [_minhash_ab(k) for k in range(MINHASH_EST_K)]

    def probe_rows(batch: pa.Table) -> pa.Table:
        ids_out, hs_out = [], []
        for did, t in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            if did >= MINHASH_PROBE_N:
                continue
            xs = sorted({_kmv_hash(w) for w in TOKEN_RE.findall(t.lower())})
            if not xs:
                continue
            ids_out.append(did)
            hs_out.append(xs)
        return pa.table(
            {
                "doc_id": pa.array(ids_out, pa.int64()),
                "hashes": pa.array(hs_out, pa.list_(pa.int64())),
            }
        )

    rows = (
        rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
        .map_batches(probe_rows, batch_format="pyarrow")
        .to_pandas()  # ≤ MINHASH_PROBE_N rows — output-bounded
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    sets = {
        int(r.doc_id): frozenset(int(x) for x in r.hashes)
        for r in rows.itertuples(index=False)
    }
    sigs = {
        d: [min((a * x + b) % MINHASH_P for x in s) for a, b in ab]
        for d, s in sets.items()
    }
    out = []
    ids = sorted(sets)
    for i, da in enumerate(ids):
        for db in ids[i + 1 :]:
            sa, sb = sets[da], sets[db]
            true_ppm = len(sa & sb) * 1_000_000 // len(sa | sb)
            matches = sum(
                1 for x, y in zip(sigs[da], sigs[db]) if x == y
            )
            out.append(
                (da, db, true_ppm, matches * 1_000_000 // MINHASH_EST_K)
            )
    arr = np.asarray(out, np.int64).reshape(-1, 4)
    return pa.table(
        {
            "doc_a": pa.array(arr[:, 0], pa.int64()),
            "doc_b": pa.array(arr[:, 1], pa.int64()),
            "true_jaccard_ppm": pa.array(arr[:, 2], pa.int64()),
            "minhash_est_ppm": pa.array(arr[:, 3], pa.int64()),
        }
    )


def _minhash_est_sql() -> str:
    hsql = (
        "(list_reduce(list_prepend(CAST(0 AS BIGINT), "
        "list_transform(range(1, length(token)+1), "
        "i -> CAST(ascii(substring(token, CAST(i AS INT), 1)) AS BIGINT))), "
        f"(a, b) -> (a * {KMV_MULT} + b) % {_CMS_MOD}) "
        f"* {KMV_MULT} + {KMV_INC}) % {_CMS_MOD}"
    )
    a_expr = (
        f"CASE WHEN ((k+1) * {MINHASH_A_MULT}) % {MINHASH_P} = 0 THEN 1 "
        f"ELSE ((k+1) * {MINHASH_A_MULT}) % {MINHASH_P} END"
    )
    return (
        "WITH tok AS (SELECT doc_id, "
        "unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS token "
        f"FROM documents WHERE doc_id < {MINHASH_PROBE_N}), "
        f"dh AS (SELECT DISTINCT doc_id, {hsql} AS x FROM tok), "
        "sig AS (SELECT doc_id, k, "
        f"MIN((({a_expr}) * x + ((k+1) * {MINHASH_B_MULT}) % {MINHASH_P}) "
        f"% {MINHASH_P}) AS mh "
        f"FROM dh, (SELECT unnest(range(0, {MINHASH_EST_K})) AS k) "
        "GROUP BY 1, 2), "
        "sz AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n FROM dh GROUP BY 1), "
        "inter AS (SELECT a.doc_id AS da, b.doc_id AS db, "
        "CAST(COUNT(*) AS BIGINT) AS i FROM dh a JOIN dh b "
        "ON a.x = b.x AND a.doc_id < b.doc_id GROUP BY 1, 2), "
        "pairs AS (SELECT sa.doc_id AS da, sb.doc_id AS db, sa.n AS na, "
        "sb.n AS nb, COALESCE(i.i, 0) AS i FROM sz sa JOIN sz sb "
        "ON sa.doc_id < sb.doc_id LEFT JOIN inter i "
        "ON i.da = sa.doc_id AND i.db = sb.doc_id), "
        "mm AS (SELECT a.doc_id AS da, b.doc_id AS db, "
        "CAST(SUM(CASE WHEN a.mh = b.mh THEN 1 ELSE 0 END) AS BIGINT) AS m "
        "FROM sig a JOIN sig b ON a.k = b.k AND a.doc_id < b.doc_id "
        "GROUP BY 1, 2) "
        "SELECT p.da AS doc_a, p.db AS doc_b, "
        "CAST(p.i * 1000000 // (p.na + p.nb - p.i) AS BIGINT) "
        "AS true_jaccard_ppm, "
        f"CAST(mm.m * 1000000 // {MINHASH_EST_K} AS BIGINT) AS minhash_est_ppm "
        "FROM pairs p JOIN mm ON mm.da = p.da AND mm.db = p.db"
    )


# --------------------------------------------------------------------------
# event-rate anomaly flags (integer z²-test, no sqrt)
# --------------------------------------------------------------------------


def q_event_rate_anomalies(sf_dir: str):
    """EVENT-RATE ANOMALIES: flag (event_type, hour) buckets whose event
    count deviates from the type's hourly mean by more than 3σ — computed
    ENTIRELY in integers by clearing denominators: with n hours observed
    for the type, s = Σx and q = Σx², the test (x − s/n)² > 9·σ² becomes
    (n·x − s)² > 9·(n·q − s²) after multiplying through by n². No sqrt,
    no float, no division — bit-exact on both engines. Output: flagged
    rows (event_type, hour_idx, n_events) with
    hour_idx = epoch_ms(ts) // 3 600 000.

    This is the ops-side anomaly gate (traffic spike / outage detection
    over the crawl's event stream) next to the curation-side outlier
    gates (event_value_outliers' exact percentiles, the MAD gate, the
    centroid-dot gate).

    Scale shape: per-(type, hour) counts are a calendar-bounded shuffle
    (types × hours, tiny vs the event stream) built from map-side partial
    counts; the per-type flag pass is a map_groups over that bounded
    frame. Hours with zero events simply don't exist in the frame — the
    contract is over OBSERVED hours (both engines agree by
    construction)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    def partials(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ts = batch["ts"]
        # epoch µs → epoch days; timestamps are post-1970 in every tier
        hour = pc.divide(pc.cast(ts, pa.int64()), 3_600_000_000)
        t = pa.table(
            {
                "event_type": batch["event_type"],
                "hour_idx": pc.cast(hour, pa.int64()),
            }
        )
        g = t.group_by(["event_type", "hour_idx"]).aggregate([([], "count_all")])
        return g.rename_columns(["event_type", "hour_idx", "pc"])

    def flag(g) -> pa.Table:
        x = g["n"].to_numpy(np.int64).astype(object)
        n = len(x)
        s, q = int(x.sum()), int((x * x).sum())
        lhs = (n * x - s) ** 2
        rhs = 9 * (n * q - s * s)
        keep = np.fromiter((int(v) > rhs for v in lhs), bool, n)
        return pa.table(
            {
                "event_type": pa.array(
                    [str(g["event_type"].iloc[0])] * int(keep.sum()),
                    pa.string(),
                ),
                "hour_idx": pa.array(
                    g["hour_idx"].to_numpy(np.int64)[keep], pa.int64()
                ),
                "n_events": pa.array(
                    g["n"].to_numpy(np.int64)[keep], pa.int64()
                ),
            }
        )

    return (
        rd.read_parquet(_p(sf_dir, "events"), columns=["event_type", "ts"])
        .map_batches(partials, batch_format="pyarrow")
        .groupby(["event_type", "hour_idx"])
        .aggregate(Sum("pc", alias_name="n"))
        .groupby("event_type")
        .map_groups(flag, batch_format="pandas")
    )


def _anomaly_sql() -> str:
    return (
        "WITH d AS (SELECT event_type, "
        "epoch_ms(ts) // 3600000 AS hour_idx FROM events), "
        "c AS (SELECT event_type, hour_idx, CAST(COUNT(*) AS BIGINT) AS n_events "
        "FROM d GROUP BY 1, 2), "
        "st AS (SELECT event_type, CAST(COUNT(*) AS HUGEINT) AS n, "
        "CAST(SUM(n_events) AS HUGEINT) AS s, "
        "CAST(SUM(CAST(n_events AS HUGEINT) * n_events) AS HUGEINT) AS q "
        "FROM c GROUP BY 1) "
        "SELECT c.event_type, c.hour_idx, c.n_events "
        "FROM c JOIN st USING (event_type) "
        "WHERE (st.n * c.n_events - st.s) * (st.n * c.n_events - st.s) "
        "> 9 * (st.n * st.q - st.s * st.s)"
    )


# --------------------------------------------------------------------------
# per-event-type user-activity Gini coefficient (skew audit)
# --------------------------------------------------------------------------


def q_user_activity_gini(sf_dir: str):
    """USER-ACTIVITY GINI per event type: inequality of the per-user
    event-count distribution, gini_ppm = (Σᵢ (2i − n − 1)·x₍ᵢ₎)·10⁶ //
    (n·Σx) with x sorted ascending (1-based i) — 0 for perfectly uniform
    activity, →1 when one user generates everything. This is the
    hot-key/skew audit in statistical form: the same number that says a
    groupby on user_id will have a straggler says a community has a
    power-law contributor curve (the reference's MediaCounterBolt rolls
    plain counts; this is its distributional summary). The coefficient
    sum over any run of equal x values is permutation-invariant, so no
    tie rule is needed. Output: (event_type, n_users, n_events,
    gini_ppm).

    Scale shape: one (type, user) count shuffle (users-bounded, built
    from map-side partials), then a per-type map_groups over 16-byte
    (user, count) pairs; the ascending-sort numerator accumulates in
    Python ints (Σ i·x reaches n²·x̄, past int64 at ~10¹⁰ users)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    def partials(batch: pa.Table) -> pa.Table:
        g = (
            pa.table(
                {
                    "event_type": batch["event_type"],
                    "user_id": batch["user_id"],
                }
            )
            .group_by(["event_type", "user_id"])
            .aggregate([([], "count_all")])
        )
        return g.rename_columns(["event_type", "user_id", "pc"])

    def gini(g) -> pa.Table:
        x = np.sort(g["n"].to_numpy(np.int64))
        n = len(x)
        tot = int(x.sum())
        xo = x.astype(object)
        coef = (2 * np.arange(1, n + 1, dtype=object) - n - 1)
        num = int((coef * xo).sum()) * 1_000_000
        den = n * tot
        return pa.table(
            {
                "event_type": pa.array(
                    [str(g["event_type"].iloc[0])], pa.string()
                ),
                "n_users": pa.array([n], pa.int64()),
                "n_events": pa.array([tot], pa.int64()),
                "gini_ppm": pa.array([num // den], pa.int64()),
            }
        )

    return (
        rd.read_parquet(_p(sf_dir, "events"), columns=["event_type", "user_id"])
        .map_batches(partials, batch_format="pyarrow")
        .groupby(["event_type", "user_id"])
        .aggregate(Sum("pc", alias_name="n"))
        .groupby("event_type")
        .map_groups(gini, batch_format="pandas")
    )


def _gini_sql() -> str:
    return (
        "WITH uc AS (SELECT event_type, user_id, "
        "CAST(COUNT(*) AS BIGINT) AS n FROM events GROUP BY 1, 2), "
        "rk AS (SELECT event_type, n, ROW_NUMBER() OVER "
        "(PARTITION BY event_type ORDER BY n ASC, user_id ASC) AS i FROM uc), "
        "cnt AS (SELECT event_type, CAST(COUNT(*) AS HUGEINT) AS nu, "
        "CAST(SUM(n) AS HUGEINT) AS tot FROM uc GROUP BY 1), "
        "agg AS (SELECT rk.event_type, cnt.nu, cnt.tot, "
        "SUM((2*CAST(rk.i AS HUGEINT) - cnt.nu - 1) * rk.n) AS num "
        "FROM rk JOIN cnt USING (event_type) "
        "GROUP BY 1, 2, 3) "
        "SELECT event_type, CAST(nu AS BIGINT) AS n_users, "
        "CAST(tot AS BIGINT) AS n_events, "
        "CAST(num * 1000000 // (nu * tot) AS BIGINT) AS gini_ppm FROM agg"
    )


ML7_QUERIES.update(
    {
        "minhash_jaccard_estimates": q_minhash_jaccard_estimates,
        "event_rate_anomalies": q_event_rate_anomalies,
        "user_activity_gini": q_user_activity_gini,
    }
)

_ML7_ORACLES_EXTRA = {
    "minhash_jaccard_estimates": _minhash_est_sql,
    "event_rate_anomalies": _anomaly_sql,
    "user_activity_gini": _gini_sql,
}


# --------------------------------------------------------------------------
# int8 embedding-quantization error audit
# --------------------------------------------------------------------------


def q_embedding_int8_quant_error(sf_dir: str):
    """INT8 QUANTIZATION-ERROR AUDIT: per vector, how much cosine survives
    symmetric per-vector int8 quantization — q8_d = floor(e_d·127/maxabs
    + 0.5) with maxabs = max|e_d| — reported as
    cos2_ppm = dot²·10⁶ // (Σqm²·Σq8²) between the micro-quantized
    reference (qm, the SRP/ANN envelope) and the int8 vector. This is
    the go/no-go measurement before shipping an int8 ANN index (the PQ
    and IVF-PQ stages quantize harder; this is the lossless-looking
    baseline everyone deploys first). Output: (vec_id, maxabs_micro,
    cos2_ppm); all-zero vectors carry no direction and are excluded.

    Scale shape: pure map-side — one streaming pass, no shuffle at all;
    the two quantized dots are exact int64 (|qm·q8| ≤ dim·10⁶·127) with
    only the squares promoted to Python ints. Floats appear in the two
    shared floor envelopes (·10⁶ and ·127/maxabs) both engines replay
    verbatim."""
    import ray.data as rd

    def audit(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch["vec_id"].to_numpy(zero_copy_only=False), np.int64)
        emb = np.stack(
            [
                np.asarray(e, dtype=np.float64)
                for e in batch["embedding"].to_pylist()
            ]
        )
        maxabs = np.abs(emb).max(axis=1)
        keep = maxabs > 0.0
        emb, ids, maxabs = emb[keep], ids[keep], maxabs[keep]
        qm = np.floor(emb * 1_000_000.0 + 0.5).astype(np.int64)
        q8 = np.floor(emb * 127.0 / maxabs[:, None] + 0.5).astype(np.int64)
        dot = np.einsum("ij,ij->i", qm, q8)  # |qm·q8| ≤ dim·10⁶·127 « 2⁶³
        nb2 = np.einsum("ij,ij->i", q8, q8)
        na2 = np.einsum(
            "ij,ij->i", qm.astype(object), qm.astype(object)
        )  # Σqm² crosses int64 at wide dims — object dtype
        ok = (na2 != 0) & (nb2 != 0)
        ids, maxabs, dot, na2, nb2 = ids[ok], maxabs[ok], dot[ok], na2[ok], nb2[ok]
        cos2 = np.fromiter(
            (
                int(d) * int(d) * 1_000_000 // (int(a) * int(b))
                for d, a, b in zip(dot, na2, nb2)
            ),
            np.int64,
            len(ids),
        )
        return pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "maxabs_micro": pa.array(
                    np.floor(maxabs * 1_000_000.0 + 0.5).astype(np.int64),
                    pa.int64(),
                ),
                "cos2_ppm": pa.array(cos2, pa.int64()),
            }
        )

    return rd.read_parquet(
        _p(sf_dir, "embeddings"), columns=["vec_id", "embedding"]
    ).map_batches(audit, batch_format="pyarrow")


def _int8_quant_sql() -> str:
    return (
        "WITH v AS (SELECT vec_id, "
        "list_transform(embedding, x -> CAST(x AS DOUBLE)) AS e FROM embeddings), "
        "m AS (SELECT vec_id, e, "
        "list_max(list_transform(e, x -> abs(x))) AS maxabs FROM v), "
        "q AS (SELECT vec_id, maxabs, "
        "list_transform(e, x -> CAST(FLOOR(x*1000000 + 0.5) AS BIGINT)) AS qm, "
        "list_transform(e, x -> CAST(FLOOR(x*127/maxabs + 0.5) AS BIGINT)) AS q8 "
        "FROM m WHERE maxabs > 0), "
        "d AS (SELECT vec_id, maxabs, "
        "CAST(list_sum(list_transform(range(0, len(qm)), i -> "
        "CAST(qm[CAST(i AS INT)+1] AS HUGEINT)*q8[CAST(i AS INT)+1])) "
        "AS HUGEINT) AS dot, "
        "CAST(list_sum(list_transform(qm, x -> CAST(x AS HUGEINT)*x)) "
        "AS HUGEINT) AS na2, "
        "CAST(list_sum(list_transform(q8, x -> CAST(x AS HUGEINT)*x)) "
        "AS HUGEINT) AS nb2 FROM q) "
        "SELECT vec_id, "
        "CAST(FLOOR(maxabs*1000000 + 0.5) AS BIGINT) AS maxabs_micro, "
        "CAST(dot*dot*1000000 // (na2*nb2) AS BIGINT) AS cos2_ppm "
        "FROM d WHERE na2 > 0 AND nb2 > 0"
    )


# --------------------------------------------------------------------------
# winsorized robust mean of event values
# --------------------------------------------------------------------------

WINSOR_LO_PCT = 5
WINSOR_HI_PCT = 95


def q_event_value_winsorized(sf_dir: str):
    """WINSORIZED MEAN per event type: clamp cents = floor(value·100+0.5)
    to the exact [P5, P95] percentiles (the event_value_quantiles rank
    rule — smallest v whose cumulative count ≥ ⌈q·n/100⌉) and average the
    clamped values — the robust-mean counterpart of the MAD and
    percentile gates (one fat-fingered 10⁹ value cannot move it). Output:
    (event_type, n, lo_cents, hi_cents, wmean_cents) with
    wmean_cents = Σ clamp(v)·cnt // n, sign-split for the portable floor
    (values may be negative).

    Scale shape: identical to event_value_quantiles — the shuffle moves
    the per-(type, cents) HISTOGRAM, never rows; one per-type finisher
    cumsums the sorted histogram, picks both cut ranks, and folds the
    clamped sum in Python ints."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        cents = np.floor(
            batch["value"].to_numpy(zero_copy_only=False) * 100.0 + 0.5
        ).astype(np.int64)
        df = pd.DataFrame(
            {"event_type": batch["event_type"].to_pylist(), "cents": cents}
        )
        g = (
            df.groupby(["event_type", "cents"], sort=False)
            .size()
            .reset_index(name="cnt")
        )
        g["cnt"] = g["cnt"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    def finish(g) -> pa.Table:
        g = g.sort_values("cents", kind="stable")
        c = g["cnt"].to_numpy(np.int64)
        v = g["cents"].to_numpy(np.int64)
        cum = np.cumsum(c)
        n = int(cum[-1])
        lo = int(v[np.searchsorted(cum, -(-WINSOR_LO_PCT * n // 100))])
        hi = int(v[np.searchsorted(cum, -(-WINSOR_HI_PCT * n // 100))])
        s = int((np.clip(v, lo, hi).astype(object) * c.astype(object)).sum())
        wm = s // n if s >= 0 else -((-s + n - 1) // n)
        return pa.table(
            {
                "event_type": pa.array([str(g["event_type"].iloc[0])], pa.string()),
                "n": pa.array([n], pa.int64()),
                "lo_cents": pa.array([lo], pa.int64()),
                "hi_cents": pa.array([hi], pa.int64()),
                "wmean_cents": pa.array([wm], pa.int64()),
            }
        )

    return (
        rd.read_parquet(_p(sf_dir, "events"), columns=["event_type", "value"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "cents"])
        .aggregate(Sum("cnt", alias_name="cnt"))
        .groupby("event_type")
        .map_groups(finish, batch_format="pandas")
    )


def _winsorized_sql() -> str:
    return (
        "WITH c AS (SELECT event_type, "
        "CAST(FLOOR(value*100 + 0.5) AS BIGINT) AS cents FROM events), "
        "n AS (SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n FROM c GROUP BY 1), "
        "r AS (SELECT event_type, cents, "
        "ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY cents) AS rk FROM c), "
        "cuts AS (SELECT r.event_type, ANY_VALUE(n.n) AS n, "
        f"MIN(CASE WHEN rk >= ({WINSOR_LO_PCT} * n.n + 99) // 100 "
        "THEN cents END) AS lo_cents, "
        f"MIN(CASE WHEN rk >= ({WINSOR_HI_PCT} * n.n + 99) // 100 "
        "THEN cents END) AS hi_cents "
        "FROM r JOIN n USING (event_type) GROUP BY 1), "
        "agg AS (SELECT c.event_type, "
        "CAST(SUM(CAST(LEAST(GREATEST(c.cents, k.lo_cents), k.hi_cents) "
        "AS HUGEINT)) AS HUGEINT) AS s "
        "FROM c JOIN cuts k USING (event_type) GROUP BY 1) "
        "SELECT k.event_type, k.n, k.lo_cents, k.hi_cents, "
        "CAST(CASE WHEN a.s >= 0 THEN a.s // k.n "
        "ELSE -((-a.s + k.n - 1) // k.n) END AS BIGINT) AS wmean_cents "
        "FROM cuts k JOIN agg a USING (event_type)"
    )


ML7_QUERIES.update(
    {
        "embedding_int8_quant_error": q_embedding_int8_quant_error,
        "event_value_winsorized": q_event_value_winsorized,
    }
)

_ML7_ORACLES_EXTRA.update(
    {
        "embedding_int8_quant_error": _int8_quant_sql,
        "event_value_winsorized": _winsorized_sql,
    }
)


# --------------------------------------------------------------------------
# cross-source duplication matrix (provenance audit over the exact join)
# --------------------------------------------------------------------------


def q_cross_source_dup_matrix(sf_dir: str):
    """CROSS-SOURCE DUPLICATION MATRIX: which sources copy from which —
    the exact AllPairs word-3-gram Jaccard ≥ 0.5 near-dup pairs rolled up
    by unordered source pair: (source_a, source_b, n_pairs) with
    source_a ≤ source_b. A heavy off-diagonal cell means two feeds
    syndicate the same text (dedup them jointly, or drop one); the
    diagonal is within-source duplication. Same composition discipline as
    ``split_leakage_pairs``, but the labels must be READ (source is a
    column, not a hash of the id), so the involved docs' labels ride an
    output-bounded broadcast lookup.

    Scale shape: pair discovery is the complete prefix-filter AllPairs
    join (distributed, no LSH recall caveat); the pair list is dup-shaped
    and the label lookup scans documents once with an involved-id mask
    (searchsorted against a broadcast sorted array — the
    _shingle_hash_store trick), collecting only involved (doc_id, source)
    rows; the matrix fold is |sources|²-bounded."""
    import ray
    import ray.data as rd

    from .queries import _allpairs_word3_cached

    pairs = _allpairs_word3_cached(sf_dir)
    if pairs.empty:
        return pa.table(
            {
                "source_a": pa.array([], pa.string()),
                "source_b": pa.array([], pa.string()),
                "n_pairs": pa.array([], pa.int64()),
            }
        )
    involved = np.unique(
        np.concatenate(
            [pairs["doc_a"].to_numpy(np.int64), pairs["doc_b"].to_numpy(np.int64)]
        )
    )
    inv_ref = ray.put(involved)

    def lookup(batch: pa.Table) -> pa.Table:
        inv = ray.get(inv_ref)
        ids = np.asarray(batch["doc_id"].to_numpy(zero_copy_only=False), np.int64)
        idx = np.clip(np.searchsorted(inv, ids), 0, max(0, len(inv) - 1))
        m = (inv[idx] == ids) if len(inv) else np.zeros(len(ids), bool)
        return pa.table(
            {
                "doc_id": pa.array(ids[m], pa.int64()),
                "source": pa.array(
                    np.asarray(batch["source"].to_pylist(), dtype=object)[m].tolist(),
                    pa.string(),
                ),
            }
        )

    lab = (
        rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "source"])
        .map_batches(lookup, batch_format="pyarrow")
        .to_pandas()  # involved-set bounded
    )
    smap = dict(zip(lab["doc_id"].astype(np.int64), lab["source"].astype(str)))
    from collections import Counter

    cnt: Counter = Counter()
    for a, b in zip(
        pairs["doc_a"].to_numpy(np.int64), pairs["doc_b"].to_numpy(np.int64)
    ):
        sa, sb = smap[int(a)], smap[int(b)]
        cnt[(min(sa, sb), max(sa, sb))] += 1
    keys = sorted(cnt)
    return pa.table(
        {
            "source_a": pa.array([k[0] for k in keys], pa.string()),
            "source_b": pa.array([k[1] for k in keys], pa.string()),
            "n_pairs": pa.array([cnt[k] for k in keys], pa.int64()),
        }
    )


def _dup_matrix_sql() -> str:
    from .oracles_ext import _WORD3_CTE, _jaccard_pairs_sql

    return (
        f"WITH p AS ({_jaccard_pairs_sql(_WORD3_CTE, 1, 2)}) "
        "SELECT LEAST(da.source, db.source) AS source_a, "
        "GREATEST(da.source, db.source) AS source_b, "
        "CAST(COUNT(*) AS BIGINT) AS n_pairs "
        "FROM p JOIN documents da ON da.doc_id = p.doc_a "
        "JOIN documents db ON db.doc_id = p.doc_b GROUP BY 1, 2"
    )


# --------------------------------------------------------------------------
# token burstiness (Church–Gale / Katz): occurrences per containing doc
# --------------------------------------------------------------------------

BURSTINESS_TOPN = 20


def q_token_burstiness(sf_dir: str):
    """TOKEN BURSTINESS for the ``BURSTINESS_TOPN`` most frequent tokens:
    burst_micro = c·10⁶ // df — the Church–Gale/Katz statistic (mean
    occurrences per document that contains the token). Function words sit
    near their frequency-predicted value; topical/bursty tokens
    concentrate (a doc that mentions them mentions them often), which is
    why burstiness separates content terms from stopwords when raw
    frequency cannot. Output: (token, c, df, burst_micro), the top-N by
    (c desc, token asc).

    Scale shape: one vocabulary-bounded shuffle carrying BOTH sufficient
    statistics (per-batch token count and containing-doc count); each
    post-groupby block emits its partial top-N under the final total
    order (each token lives in one block), and the single-group finisher
    folds a blocks·N-bounded frame."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .queries import TOKEN_RE

    def partials(batch: pa.Table) -> pa.Table:
        from collections import Counter

        c: Counter = Counter()
        dfc: Counter = Counter()
        for t in batch["text"].to_pylist():
            tk = TOKEN_RE.findall(t.lower())
            c.update(tk)
            dfc.update(set(tk))
        toks = list(c.keys())
        return pa.table(
            {
                "token": pa.array(toks, pa.string()),
                "pc": pa.array(
                    np.fromiter((c[t] for t in toks), np.int64, len(toks)),
                    pa.int64(),
                ),
                "pdf": pa.array(
                    np.fromiter((dfc[t] for t in toks), np.int64, len(toks)),
                    pa.int64(),
                ),
            }
        )

    def block_top(batch: pa.Table) -> pa.Table:
        toks = np.asarray(batch["token"].to_pylist(), dtype=str)
        c = np.asarray(batch["c"].to_numpy(zero_copy_only=False), np.int64)
        dfv = np.asarray(batch["df"].to_numpy(zero_copy_only=False), np.int64)
        order = np.lexsort((toks, -c))[:BURSTINESS_TOPN]
        return pa.table(
            {
                "g": pa.array(np.zeros(len(order), np.int64), pa.int64()),
                "token": pa.array(list(toks[order]), pa.string()),
                "c": pa.array(c[order], pa.int64()),
                "df": pa.array(dfv[order], pa.int64()),
            }
        )

    def finish(g) -> pa.Table:
        g = g.sort_values(["c", "token"], ascending=[False, True], kind="stable")
        g = g.head(BURSTINESS_TOPN)
        c = g["c"].to_numpy(np.int64).astype(object)
        dfv = g["df"].to_numpy(np.int64).astype(object)
        burst = np.fromiter(
            (int(a) * 1_000_000 // int(b) for a, b in zip(c, dfv)),
            np.int64,
            len(g),
        )
        return pa.table(
            {
                "token": pa.array(g["token"].tolist(), pa.string()),
                "c": pa.array(g["c"].to_numpy(np.int64), pa.int64()),
                "df": pa.array(g["df"].to_numpy(np.int64), pa.int64()),
                "burst_micro": pa.array(burst, pa.int64()),
            }
        )

    return (
        rd.read_parquet(_p(sf_dir, "documents"), columns=["text"])
        .map_batches(partials, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("pc", alias_name="c"), Sum("pdf", alias_name="df"))
        .map_batches(block_top, batch_format="pyarrow")
        .groupby("g")
        .map_groups(finish, batch_format="pandas")
    )


def _burstiness_sql() -> str:
    return (
        "WITH tok AS (SELECT doc_id, "
        "unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS token "
        "FROM documents), "
        "tc AS (SELECT token, CAST(COUNT(*) AS BIGINT) AS c, "
        "CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS df FROM tok GROUP BY 1) "
        "SELECT token, c, df, "
        "CAST(CAST(c AS HUGEINT) * 1000000 // df AS BIGINT) AS burst_micro "
        f"FROM tc ORDER BY c DESC, token ASC LIMIT {BURSTINESS_TOPN}"
    )


# --------------------------------------------------------------------------
# dup-cluster size histogram (log2 buckets, exact integer bucketing)
# --------------------------------------------------------------------------


def q_dup_cluster_size_hist(sf_dir: str):
    """NEAR-DUP CLUSTER SIZE HISTOGRAM: how the fuzzy-dedup mass is
    distributed — cluster sizes from ``dup_clusters`` bucketed by
    size_log2 = bit_length(size) − 1 (EXACT integer bucketing, no float
    log), one row per occupied bucket: (size_log2, n_clusters, n_docs).
    A fat tail here (mega-clusters) is what turns 'drop the dups' from a
    rounding error into most of the corpus — the report every dedup run
    ships next to its keep list.

    Scale shape: rides the cached near-dup pair pass and the distributed
    min-label components (both output-bounded); the histogram fold is a
    groupby over cluster-count-bounded rows."""
    from collections import Counter

    from .queries import q_dup_clusters

    cl = q_dup_clusters(sf_dir)
    sizes = Counter(cl["cluster_rep"].to_numpy(np.int64).tolist())
    hist_c: Counter = Counter()
    hist_d: Counter = Counter()
    for _rep, n in sizes.items():
        b = int(n).bit_length() - 1
        hist_c[b] += 1
        hist_d[b] += n
    buckets = sorted(hist_c)
    return pa.table(
        {
            "size_log2": pa.array(buckets, pa.int64()),
            "n_clusters": pa.array([hist_c[b] for b in buckets], pa.int64()),
            "n_docs": pa.array([hist_d[b] for b in buckets], pa.int64()),
        }
    )


def _cluster_hist_sql() -> str:
    from .queries import ORACLE_SQL

    return (
        f"WITH cl AS ({ORACLE_SQL['dup_clusters']}), "
        "sz AS (SELECT cluster_rep, CAST(COUNT(*) AS BIGINT) AS n "
        "FROM cl GROUP BY 1) "
        "SELECT CAST(LENGTH(PRINTF('%b', n)) - 1 AS BIGINT) AS size_log2, "
        "CAST(COUNT(*) AS BIGINT) AS n_clusters, "
        "CAST(SUM(n) AS BIGINT) AS n_docs "
        "FROM sz GROUP BY 1"
    )


ML7_QUERIES.update(
    {
        "cross_source_dup_matrix": q_cross_source_dup_matrix,
        "token_burstiness": q_token_burstiness,
        "dup_cluster_size_hist": q_dup_cluster_size_hist,
    }
)

_ML7_ORACLES_EXTRA.update(
    {
        "cross_source_dup_matrix": _dup_matrix_sql,
        "token_burstiness": _burstiness_sql,
        "dup_cluster_size_hist": _cluster_hist_sql,
    }
)


# --------------------------------------------------------------------------
# per-dimension embedding health stats (collapse / dead-dim audit)
# --------------------------------------------------------------------------


def q_embedding_dim_stats(sf_dir: str):
    """PER-DIMENSION EMBEDDING STATS: for every coordinate d, the mean and
    population variance of the micro-quantized values — the
    representation-collapse audit (a dead dimension shows ~zero variance;
    a runaway one dominates every distance). Integer-exact: with
    qm = floor(e·10⁶ + 0.5), mean_micro = Σqm // n (sign-split portable
    floor — embeddings are signed) and
    var_micro2 = (n·Σqm² − (Σqm)²) // n² (non-negative by
    Cauchy–Schwarz, so plain floor). Output: (dim, n_vecs, mean_micro,
    var_micro2).

    Scale shape: each batch folds to ONE partial-row set of 3·dim
    integers (Σqm, Σqm², count per dimension) — the shuffle is
    dimension-bounded regardless of corpus size; the finisher is a
    dim-row groupby. Σqm² accumulates in Python ints (10¹² per element
    crosses int64 at ~10⁷ vectors — the fertility rule)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    def partials(batch: pa.Table) -> pa.Table:
        emb = np.stack(
            [
                np.asarray(e, dtype=np.float64)
                for e in batch["embedding"].to_pylist()
            ]
        )
        qm = np.floor(emb * 1_000_000.0 + 0.5).astype(np.int64)
        n, dim = qm.shape
        qo = qm.astype(object)
        s = qo.sum(axis=0)
        s2 = (qo * qo).sum(axis=0)
        # Σqm fits int64 far beyond any batch; Σqm² is kept as decimal
        # strings through the shuffle would be overkill — per-BATCH sums
        # fit int64 comfortably (10¹²·10⁴ rows), and the groupby Sum
        # re-aggregates in int64: guard loudly rather than wrap silently
        if any(abs(int(v)) > (1 << 62) for v in s2):
            raise OverflowError(
                "embedding_dim_stats: per-batch Σq² exceeds int64 headroom"
            )
        return pa.table(
            {
                "dim": pa.array(np.arange(dim, dtype=np.int64), pa.int64()),
                "pn": pa.array(np.full(dim, n, np.int64), pa.int64()),
                "ps": pa.array(np.fromiter((int(v) for v in s), np.int64, dim), pa.int64()),
                "ps2": pa.array(np.fromiter((int(v) for v in s2), np.int64, dim), pa.int64()),
            }
        )

    def finish(g) -> pa.Table:
        n = int(g["n"].iloc[0])
        s = int(g["s"].iloc[0])
        s2 = int(g["s2"].iloc[0])
        mean = s // n if s >= 0 else -((-s + n - 1) // n)
        var = (n * s2 - s * s) // (n * n)
        return pa.table(
            {
                "dim": pa.array([int(g["dim"].iloc[0])], pa.int64()),
                "n_vecs": pa.array([n], pa.int64()),
                "mean_micro": pa.array([mean], pa.int64()),
                "var_micro2": pa.array([var], pa.int64()),
            }
        )

    return (
        rd.read_parquet(_p(sf_dir, "embeddings"), columns=["embedding"])
        .map_batches(partials, batch_format="pyarrow")
        .groupby("dim")
        .aggregate(
            Sum("pn", alias_name="n"),
            Sum("ps", alias_name="s"),
            Sum("ps2", alias_name="s2"),
        )
        .groupby("dim")
        .map_groups(finish, batch_format="pandas")
    )


def _dim_stats_sql() -> str:
    return (
        "WITH q AS (SELECT list_transform(embedding, "
        "x -> CAST(FLOOR(CAST(x AS DOUBLE)*1000000 + 0.5) AS BIGINT)) AS qm "
        "FROM embeddings), "
        "ex AS (SELECT CAST(d AS BIGINT) AS dim, qm[CAST(d AS INT)+1] AS v "
        "FROM q, (SELECT unnest(range(0, (SELECT len(qm) FROM q LIMIT 1))) AS d)), "
        "agg AS (SELECT dim, CAST(COUNT(*) AS HUGEINT) AS n, "
        "CAST(SUM(v) AS HUGEINT) AS s, "
        "CAST(SUM(CAST(v AS HUGEINT)*v) AS HUGEINT) AS s2 FROM ex GROUP BY 1) "
        "SELECT dim, CAST(n AS BIGINT) AS n_vecs, "
        "CAST(CASE WHEN s >= 0 THEN s // n ELSE -((-s + n - 1) // n) END "
        "AS BIGINT) AS mean_micro, "
        "CAST((n*s2 - s*s) // (n*n) AS BIGINT) AS var_micro2 FROM agg"
    )


# --------------------------------------------------------------------------
# per-source document-length histogram (padding / packing planner input)
# --------------------------------------------------------------------------


def q_source_doclen_hist(sf_dir: str):
    """PER-SOURCE DOCUMENT-LENGTH HISTOGRAM in exact log2 buckets:
    len_log2 = bit_length(n_tokens) − 1 (so bucket b holds docs with
    2^b ≤ n_tokens < 2^(b+1)); zero-token docs carry no length and are
    excluded on both engines. Output: (source, len_log2, n_docs,
    n_tokens_total) — the planner input for sequence packing and padding
    budgets (doc_pack_stats reports the achieved fill; this is the
    distribution it packs from).

    Scale shape: map-side bucketing, one (source, bucket) groupby over a
    sources×~40-bucket-bounded key space."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .queries import TOKEN_RE

    def partials(batch: pa.Table) -> pa.Table:
        from collections import Counter

        nd: Counter = Counter()
        nt: Counter = Counter()
        for s, t in zip(batch["source"].to_pylist(), batch["text"].to_pylist()):
            n = len(TOKEN_RE.findall(t.lower()))
            if n == 0:
                continue
            k = (s, n.bit_length() - 1)
            nd[k] += 1
            nt[k] += n
        keys = list(nd.keys())
        return pa.table(
            {
                "source": pa.array([k[0] for k in keys], pa.string()),
                "len_log2": pa.array(
                    np.asarray([k[1] for k in keys], np.int64), pa.int64()
                ),
                "pd": pa.array(
                    np.fromiter((nd[k] for k in keys), np.int64, len(keys)),
                    pa.int64(),
                ),
                "pt": pa.array(
                    np.fromiter((nt[k] for k in keys), np.int64, len(keys)),
                    pa.int64(),
                ),
            }
        )

    return (
        rd.read_parquet(_p(sf_dir, "documents"), columns=["source", "text"])
        .map_batches(partials, batch_format="pyarrow")
        .groupby(["source", "len_log2"])
        .aggregate(
            Sum("pd", alias_name="n_docs"), Sum("pt", alias_name="n_tokens_total")
        )
    )


def _doclen_hist_sql() -> str:
    return (
        "WITH t AS (SELECT source, "
        "len(regexp_extract_all(lower(text), '[a-z0-9]+')) AS n FROM documents) "
        "SELECT source, "
        "CAST(LENGTH(PRINTF('%b', n)) - 1 AS BIGINT) AS len_log2, "
        "CAST(COUNT(*) AS BIGINT) AS n_docs, "
        "CAST(SUM(n) AS BIGINT) AS n_tokens_total "
        "FROM t WHERE n > 0 GROUP BY 1, 2"
    )


ML7_QUERIES.update(
    {
        "embedding_dim_stats": q_embedding_dim_stats,
        "source_doclen_hist": q_source_doclen_hist,
    }
)

_ML7_ORACLES_EXTRA.update(
    {
        "embedding_dim_stats": _dim_stats_sql,
        "source_doclen_hist": _doclen_hist_sql,
    }
)


# --------------------------------------------------------------------------
# quality-decile duplication rate (does low quality predict duplication?)
# --------------------------------------------------------------------------


def q_quality_decile_dup_rate(sf_dir: str):
    """QUALITY×DUPLICATION CALIBRATION: cut the corpus into quality
    deciles (NTILE(10) over (quality_micro asc, doc_id asc) — decile 1 is
    the worst text) and report each decile's near-dup membership rate
    (doc participates in ≥1 char-5-shingle Jaccard ≥ 0.5 pair, the
    ``dup_clusters`` relation). Output: (decile, n_docs, n_dup_docs,
    dup_rate_ppm). If duplication concentrates in the low deciles the
    quality gate is already doing half the dedup's work — the
    calibration every curation pipeline checks before ordering its
    stages (cheap-gate-first vs dedup-first).

    Scale shape: quality is a streaming map-side score; the dup-member
    set is output-bounded (the cached pair pass) and broadcast; the
    decile cut is one map_groups over (quality, doc_id, flag) triples —
    ~17 bytes per doc, the ccnet-tercile caveat applies (at 100 TB:
    distributed sort + counted NTILE boundaries)."""
    import ray
    import ray.data as rd

    from .queries import _minhash_pairs_cached, q_doc_quality

    pairs = _minhash_pairs_cached(sf_dir)
    involved = (
        np.unique(
            np.concatenate(
                [
                    pairs["doc_a"].to_numpy(np.int64),
                    pairs["doc_b"].to_numpy(np.int64),
                ]
            )
        )
        if not pairs.empty
        else np.empty(0, np.int64)
    )
    inv_ref = ray.put(involved)

    def flag(batch: pa.Table) -> pa.Table:
        inv = ray.get(inv_ref)
        ids = np.asarray(batch["doc_id"].to_numpy(zero_copy_only=False), np.int64)
        idx = np.clip(np.searchsorted(inv, ids), 0, max(0, len(inv) - 1))
        m = (inv[idx] == ids) if len(inv) else np.zeros(len(ids), bool)
        return pa.table(
            {
                "g": pa.array(np.zeros(len(ids), np.int64), pa.int64()),
                "doc_id": batch["doc_id"],
                "quality_micro": batch["quality_micro"],
                "is_dup": pa.array(m.astype(np.int64), pa.int64()),
            }
        )

    def deciles(g) -> pa.Table:
        g = g.sort_values(["quality_micro", "doc_id"], kind="stable").reset_index(
            drop=True
        )
        n = len(g)
        base, extra = divmod(n, 10)
        rows = []
        pos = 0
        for b in range(1, 11):
            sz = base + (1 if b <= extra else 0)
            if sz == 0:
                continue
            chunk = g.iloc[pos : pos + sz]
            nd = int(chunk["is_dup"].sum())
            rows.append((b, sz, nd, nd * 1_000_000 // sz))
            pos += sz
        arr = np.asarray(rows, np.int64).reshape(-1, 4)
        return pa.table(
            {
                "decile": pa.array(arr[:, 0], pa.int64()),
                "n_docs": pa.array(arr[:, 1], pa.int64()),
                "n_dup_docs": pa.array(arr[:, 2], pa.int64()),
                "dup_rate_ppm": pa.array(arr[:, 3], pa.int64()),
            }
        )

    return (
        q_doc_quality(sf_dir)
        .map_batches(flag, batch_format="pyarrow")
        .groupby("g")
        .map_groups(deciles, batch_format="pandas")
    )


def _quality_dup_sql() -> str:
    from .oracles_ext import _quality_sql
    from .queries import ORACLE_SQL

    return (
        f"WITH q AS ({_quality_sql('documents', 'doc_id', 'text')}), "
        f"cl AS (SELECT DISTINCT doc_id FROM ({ORACLE_SQL['dup_clusters']})), "
        "nt AS (SELECT q.doc_id, "
        "NTILE(10) OVER (ORDER BY q.quality_micro ASC, q.doc_id ASC) AS decile, "
        "CASE WHEN cl.doc_id IS NULL THEN 0 ELSE 1 END AS is_dup "
        "FROM q LEFT JOIN cl ON cl.doc_id = q.doc_id) "
        "SELECT CAST(decile AS BIGINT) AS decile, "
        "CAST(COUNT(*) AS BIGINT) AS n_docs, "
        "CAST(SUM(is_dup) AS BIGINT) AS n_dup_docs, "
        "CAST(CAST(SUM(is_dup) AS HUGEINT) * 1000000 // COUNT(*) AS BIGINT) "
        "AS dup_rate_ppm "
        "FROM nt GROUP BY 1"
    )


# --------------------------------------------------------------------------
# corpus information gain of the source partition (entropy decomposition)
# --------------------------------------------------------------------------


def q_corpus_token_info_gain(sf_dir: str):
    """INFORMATION GAIN of the source partition over the token
    distribution: IG = H(corpus) − Σ_s (T_s/T)·H(source_s) — how many
    micro-Hartleys of token uncertainty the source label explains (the
    mutual information I(token; source), the single number behind the
    per-source KL table). Every term uses the entropy envelope
    (lp = floor(log10(c/T)·10⁶ + 0.5), H = Σ c·(−lp) // T), and the
    mixture is h_within = Σ T_s·H_s // T — all floors on positive
    operands, so IG is the exact difference of two already-floored
    integers (it can be ±1 µHartley off the unfloored truth, never
    more than the envelope). Output one row:
    (n_tokens, h_corpus_micro, h_within_micro, info_gain_micro).

    Scale shape: ONE (source, token) count shuffle materialized and
    reused (the KL discipline): per-source entropies are per-source
    map_groups over vocabulary-bounded frames; the corpus entropy is a
    single-group map_groups over the token-marginal counts; the final
    fold is a sources-bounded driver frame."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .queries import TOKEN_RE

    def partials(batch: pa.Table) -> pa.Table:
        from collections import Counter

        c: Counter = Counter()
        for s, t in zip(batch["source"].to_pylist(), batch["text"].to_pylist()):
            for w in TOKEN_RE.findall(t.lower()):
                c[(s, w)] += 1
        keys = list(c.keys())
        return pa.table(
            {
                "source": pa.array([k[0] for k in keys], pa.string()),
                "token": pa.array([k[1] for k in keys], pa.string()),
                "pc": pa.array(
                    np.fromiter(c.values(), np.int64, len(c)), pa.int64()
                ),
            }
        )

    counts = (
        rd.read_parquet(_p(sf_dir, "documents"), columns=["source", "text"])
        .map_batches(partials, batch_format="pyarrow")
        .groupby(["source", "token"])
        .aggregate(Sum("pc", alias_name="c"))
        .materialize()  # vocabulary×sources bounded — reused twice
    )

    def _h(c: np.ndarray) -> tuple[int, int]:
        t = int(c.sum())
        lp = np.floor(np.log10(c / float(t)) * 1_000_000 + 0.5).astype(np.int64)
        return t, int((c.astype(object) * (-lp).astype(object)).sum()) // t

    def per_source(g) -> pa.Table:
        t, h = _h(g["c"].to_numpy(np.int64))
        return pa.table(
            {
                "t": pa.array([t], pa.int64()),
                "h": pa.array([h], pa.int64()),
            }
        )

    src = counts.groupby("source").map_groups(
        per_source, batch_format="pandas"
    ).to_pandas()  # sources-bounded

    def marginal(g) -> pa.Table:
        t, h = _h(g["c"].to_numpy(np.int64))
        return pa.table(
            {"t": pa.array([t], pa.int64()), "h": pa.array([h], pa.int64())}
        )

    corp = (
        counts.groupby("token")
        .aggregate(Sum("c", alias_name="pc"))
        .map_batches(
            lambda b: pa.table(
                {
                    "g": pa.array(np.zeros(b.num_rows, np.int64), pa.int64()),
                    "c": b["pc"],
                }
            ),
            batch_format="pyarrow",
        )
        .groupby("g")
        .map_groups(marginal, batch_format="pandas")
        .to_pandas()  # exactly one row
    )
    t_all = int(corp["t"].iloc[0])
    h_corpus = int(corp["h"].iloc[0])
    h_within = (
        sum(int(r.t) * int(r.h) for r in src.itertuples(index=False)) // t_all
    )
    return pa.table(
        {
            "n_tokens": pa.array([t_all], pa.int64()),
            "h_corpus_micro": pa.array([h_corpus], pa.int64()),
            "h_within_micro": pa.array([h_within], pa.int64()),
            "info_gain_micro": pa.array([h_corpus - h_within], pa.int64()),
        }
    )


def _info_gain_sql() -> str:
    return (
        "WITH tok AS (SELECT source, "
        "unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS token "
        "FROM documents), "
        "uc AS (SELECT source, token, CAST(COUNT(*) AS BIGINT) AS c "
        "FROM tok GROUP BY 1, 2), "
        "tm AS (SELECT token, CAST(SUM(c) AS BIGINT) AS c FROM uc GROUP BY 1), "
        "tt AS (SELECT CAST(SUM(c) AS BIGINT) AS t FROM tm), "
        "hc AS (SELECT CAST(SUM(CAST(tm.c AS HUGEINT) * "
        "-CAST(FLOOR(LOG10(CAST(tm.c AS DOUBLE)/tt.t)*1000000 + 0.5) AS BIGINT)) "
        "// ANY_VALUE(tt.t) AS BIGINT) AS h FROM tm CROSS JOIN tt), "
        "st AS (SELECT source, CAST(SUM(c) AS BIGINT) AS t FROM uc GROUP BY 1), "
        "hs AS (SELECT uc.source, ANY_VALUE(st.t) AS t, "
        "CAST(SUM(CAST(uc.c AS HUGEINT) * "
        "-CAST(FLOOR(LOG10(CAST(uc.c AS DOUBLE)/st.t)*1000000 + 0.5) AS BIGINT)) "
        "// ANY_VALUE(st.t) AS BIGINT) AS h "
        "FROM uc JOIN st USING (source) GROUP BY 1), "
        "hw AS (SELECT CAST(SUM(CAST(t AS HUGEINT) * h) "
        "// (SELECT t FROM tt) AS BIGINT) AS h FROM hs) "
        "SELECT tt.t AS n_tokens, hc.h AS h_corpus_micro, "
        "hw.h AS h_within_micro, hc.h - hw.h AS info_gain_micro "
        "FROM tt CROSS JOIN hc CROSS JOIN hw"
    )


ML7_QUERIES.update(
    {
        "quality_decile_dup_rate": q_quality_decile_dup_rate,
        "corpus_token_info_gain": q_corpus_token_info_gain,
    }
)

_ML7_ORACLES_EXTRA.update(
    {
        "quality_decile_dup_rate": _quality_dup_sql,
        "corpus_token_info_gain": _info_gain_sql,
    }
)


# --------------------------------------------------------------------------
# SRP semantic clusters (fully-[sql] embedding dedup end-to-end)
# --------------------------------------------------------------------------


def q_srp_semantic_clusters(sf_dir: str):
    """SEMANTIC CLUSTERS over the SRP pair graph: connected components of
    ``embedding_srp_pairs`` (cos ≥ 0.4 through 4×8-bit SRP banding), one
    row per vector that participates in ≥1 pair: (vec_id, cluster_rep)
    with rep = component-min id. This makes the WHOLE embedding-dedup
    path [sql]-checkable end-to-end — signatures, banding, integer
    verify, AND the component closure (knn_semantic_clusters checks the
    kNN variant; its pair step is float-broadcast, this one's is the
    hash-derived LSH).

    Scale shape: pair discovery is the banded SRP pipeline; the pair
    list is dup-shaped, and labelling is the shared vectorized min-label
    pointer-jumping kernel (O(pairs) memory, O(log diameter) rounds)."""
    import pandas as pd

    from .queries import cc_min_label, pairs_to_df

    pairs = pairs_to_df(
        q_embedding_srp_pairs(sf_dir), ["doc_a", "doc_b", "cos2_ppm"]
    )
    if pairs.empty:
        return pd.DataFrame(
            {
                "vec_id": pd.Series(dtype=np.int64),
                "cluster_rep": pd.Series(dtype=np.int64),
            }
        )
    nodes, rep = cc_min_label(
        pairs["doc_a"].to_numpy(np.int64), pairs["doc_b"].to_numpy(np.int64)
    )
    return pd.DataFrame({"vec_id": nodes, "cluster_rep": rep})


def _srp_clusters_sql() -> str:
    return (
        f"WITH RECURSIVE p AS ({_srp_sql()}), "
        "e AS (SELECT doc_a AS a, doc_b AS b FROM p "
        "UNION SELECT doc_b, doc_a FROM p), "
        "reach AS (SELECT a AS src, b AS dst FROM e "
        "UNION SELECT r.src, e2.b FROM reach r JOIN e e2 ON e2.a = r.dst) "
        "SELECT src AS vec_id, LEAST(src, MIN(dst)) AS cluster_rep "
        "FROM reach GROUP BY src"
    )


# --------------------------------------------------------------------------
# Jaccard threshold curve (dedup-aggressiveness tuning from ONE pair pass)
# --------------------------------------------------------------------------

JACCARD_CURVE_PPM = (500_000, 600_000, 700_000, 800_000, 900_000)


def q_jaccard_threshold_curve(sf_dir: str):
    """DEDUP THRESHOLD CURVE: how many near-dup pairs survive at each
    Jaccard cutoff in ``JACCARD_CURVE_PPM`` — computed from ONE exact
    AllPairs pass at the loosest threshold (its jaccard_micro column is
    exact, so the tighter counts are pure filters, not re-joins). Output:
    (threshold_ppm, n_pairs, n_docs_involved). This is the knob-tuning
    table every dedup run consults: pairs lost per notch of tightening,
    and how many docs stop being touched at all.

    Scale shape: the pair pass is the complete prefix-filter join; the
    curve fold runs over the dup-shaped pair frame (5 cumulative counts
    + per-threshold distinct-doc counts on a bounded edge list)."""
    from .queries import _allpairs_word3_cached

    pairs = _allpairs_word3_cached(sf_dir)
    j = pairs["jaccard_micro"].to_numpy(np.int64) if not pairs.empty else np.empty(0, np.int64)
    a = pairs["doc_a"].to_numpy(np.int64) if not pairs.empty else np.empty(0, np.int64)
    b = pairs["doc_b"].to_numpy(np.int64) if not pairs.empty else np.empty(0, np.int64)
    rows = []
    for thr in JACCARD_CURVE_PPM:
        keep = j >= thr
        nd = len(np.unique(np.concatenate([a[keep], b[keep]]))) if keep.any() else 0
        rows.append((thr, int(keep.sum()), nd))
    arr = np.asarray(rows, np.int64)
    return pa.table(
        {
            "threshold_ppm": pa.array(arr[:, 0], pa.int64()),
            "n_pairs": pa.array(arr[:, 1], pa.int64()),
            "n_docs_involved": pa.array(arr[:, 2], pa.int64()),
        }
    )


def _jaccard_curve_sql() -> str:
    from .oracles_ext import _WORD3_CTE, _jaccard_pairs_sql

    cuts = ", ".join(f"({t})" for t in JACCARD_CURVE_PPM)
    return (
        f"WITH p AS ({_jaccard_pairs_sql(_WORD3_CTE, 1, 2)}) "
        "SELECT CAST(v.thr AS BIGINT) AS threshold_ppm, "
        "CAST(COUNT(*) FILTER (WHERE p.jaccard_micro >= v.thr) AS BIGINT) "
        "AS n_pairs, "
        "CAST(COUNT(DISTINCT CASE WHEN p.jaccard_micro >= v.thr "
        "THEN p.doc_a END) "
        "+ COUNT(DISTINCT CASE WHEN p.jaccard_micro >= v.thr "
        "THEN p.doc_b END) "
        "- COUNT(DISTINCT CASE WHEN p.jaccard_micro >= v.thr "
        "AND p.doc_b IN (SELECT doc_a FROM p p2 "
        "WHERE p2.jaccard_micro >= v.thr) THEN p.doc_b END) AS BIGINT) "
        "AS n_docs_involved "
        f"FROM (VALUES {cuts}) v(thr) LEFT JOIN p ON TRUE GROUP BY v.thr"
    )


ML7_QUERIES.update(
    {
        "srp_semantic_clusters": q_srp_semantic_clusters,
        "jaccard_threshold_curve": q_jaccard_threshold_curve,
    }
)

_ML7_ORACLES_EXTRA.update(
    {
        "srp_semantic_clusters": _srp_clusters_sql,
        "jaccard_threshold_curve": _jaccard_curve_sql,
    }
)


# --------------------------------------------------------------------------
# multi-probe SRP pairs (the recall tier above plain banding)
# --------------------------------------------------------------------------


def q_embedding_srp_multiprobe_pairs(sf_dir: str):
    """MULTI-PROBE SRP near-dup pairs: same hyperplanes, banding and
    integer verify as ``embedding_srp_pairs``, but a pair is a candidate
    when some band's keys differ by HAMMING ≤ 1 (Lv et al. 2007
    multi-probe LSH — probe the neighboring buckets instead of paying
    more hash tables). At cos ≥ 0.4 the per-band candidate probability
    rises p⁸ → p⁸ + 8p⁷(1−p) (≈ 2.5% → 14%, any-of-4-bands ≈ 10% → 46%)
    for ~9× the bucket traffic — the classic recall/shuffle trade, now
    SQL-checkable. This closes the 'multi-probe omitted' note on
    stages/dedup.embedding_cosine_pairs. Output: (doc_a, doc_b,
    cos2_ppm), a superset of the plain SRP pairs.

    Scale shape: each vector lands in its true bucket plus its
    ``SRP_BAND_BITS`` one-bit-flip probe buckets per band (9 rows/band);
    a hamming-1 pair always meets where one side is TRUE — pairing
    requires a true side, which also excludes hamming-2 probe×probe
    coincidences, keeping the contract exact. Cross-bucket duplicates
    collapse in the dup-shaped final groupby."""
    import pandas as pd
    import ray.data as rd
    from ray.data.aggregate import Max

    from ..stages.dedup import _log_overflow

    n_bands = SRP_BITS // SRP_BAND_BITS
    sign_cache: dict[int, np.ndarray] = {}

    def signatures(batch: pa.Table) -> pa.Table:
        vids = batch["vec_id"].to_numpy()
        emb = np.stack(
            [
                np.asarray(e, dtype=np.float64)
                for e in batch["embedding"].to_pylist()
            ]
        )
        q = np.floor(emb * 1_000_000.0 + 0.5).astype(np.int64)
        dim = q.shape[1]
        signs = sign_cache.get(dim)
        if signs is None:
            signs = _srp_signs(dim)
            sign_cache[dim] = signs
        bits = (q @ signs.T > 0).astype(np.int64)
        keys = np.zeros((len(vids), n_bands), np.int64)
        for k in range(SRP_BITS):
            keys[:, k // SRP_BAND_BITS] |= bits[:, k] << (k % SRP_BAND_BITS)
        # vectorized probe expansion: per (vector, band) the true key plus
        # its SRP_BAND_BITS one-bit flips — (n, n_bands, 1+bits) keys
        n = len(vids)
        flips = np.concatenate(
            [[0], 1 << np.arange(SRP_BAND_BITS, dtype=np.int64)]
        )  # flip 0 = the true key
        kmat = keys[:, :, None] ^ flips[None, None, :]
        bmat = np.broadcast_to(
            np.arange(n_bands, dtype=np.int64)[None, :, None], kmat.shape
        )
        tmat = np.broadcast_to(
            (flips == 0).astype(np.int64)[None, None, :], kmat.shape
        )
        reps = n_bands * (1 + SRP_BAND_BITS)
        qe_lists = [r.tolist() for r in q]
        return pa.table(
            {
                "band": pa.array(bmat.reshape(-1), pa.int64()),
                "key": pa.array(kmat.reshape(-1), pa.int64()),
                "vec_id": pa.array(np.repeat(vids, reps), pa.int64()),
                "is_true": pa.array(tmat.reshape(-1).copy(), pa.int64()),
                "qe": pa.array(
                    [qe_lists[i] for i in range(n) for _ in range(reps)],
                    pa.list_(pa.int64()),
                ),
            }
        )

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "doc_a": pd.Series(dtype=np.int64),
                "doc_b": pd.Series(dtype=np.int64),
                "cos2_ppm": pd.Series(dtype=np.int64),
            }
        )
        # one row per vector: true wins over probe (needed for the
        # true-side pairing rule); dedupe keeps the max is_true
        g = (
            g.sort_values(["vec_id", "is_true"], ascending=[True, False])
            .drop_duplicates("vec_id")
            .reset_index(drop=True)
        )
        if len(g) > SRP_BUCKET_CAP:
            _log_overflow(
                "embedding_srp_multiprobe_pairs",
                (int(g["band"].iloc[0]), int(g["key"].iloc[0])),
                len(g),
                SRP_BUCKET_CAP,
            )
            g = g.iloc[:SRP_BUCKET_CAP]
        if len(g) < 2:
            return empty
        ids = g["vec_id"].to_numpy(np.int64)
        true = g["is_true"].to_numpy(np.int64).astype(bool)
        q = np.stack([np.asarray(e, np.int64) for e in g["qe"]])
        dots = q @ q.T
        n2 = np.einsum("ij,ij->i", q, q)
        ii, jj = np.triu_indices(len(ids), k=1)
        ok = (true[ii] | true[jj]) & (dots[ii, jj] > 0)
        ii, jj = ii[ok], jj[ok]
        if len(ii) == 0:
            return empty
        d = dots[ii, jj].astype(object)
        na2 = n2[ii].astype(object)
        nb2 = n2[jj].astype(object)
        keep = 25 * d * d >= 4 * na2 * nb2
        ii, jj, d = ii[keep], jj[keep], d[keep]
        if len(d) == 0:
            return empty
        ppm = np.fromiter(
            (
                int(dd) * int(dd) * 1_000_000 // (int(a) * int(b))
                for dd, a, b in zip(d, na2[keep], nb2[keep])
            ),
            np.int64,
            len(d),
        )
        lo = np.minimum(ids[ii], ids[jj])
        hi = np.maximum(ids[ii], ids[jj])
        return pd.DataFrame({"doc_a": lo, "doc_b": hi, "cos2_ppm": ppm})

    return (
        rd.read_parquet(_p(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
        .map_batches(signatures, batch_format="pyarrow")
        .groupby(["band", "key"])
        .map_groups(verify, batch_format="pandas")
        .groupby(["doc_a", "doc_b"])
        .aggregate(Max("cos2_ppm", alias_name="cos2_ppm"))
    )


def _srp_multiprobe_sql() -> str:
    # reuse the single-probe CTE chain up to `bands`, widen the candidate
    # join to hamming ≤ 1 on the band key
    base = _srp_sql()
    cand_old = (
        "cand AS (SELECT DISTINCT a.vec_id AS va, b.vec_id AS vb "
        "FROM bands a JOIN bands b ON a.band = b.band AND a.key = b.key "
        "AND a.vec_id < b.vec_id), "
    )
    cand_new = (
        "cand AS (SELECT DISTINCT a.vec_id AS va, b.vec_id AS vb "
        "FROM bands a JOIN bands b ON a.band = b.band "
        "AND bit_count(xor(a.key, b.key)) <= 1 "
        "AND a.vec_id < b.vec_id), "
    )
    assert cand_old in base, "single-probe SQL shape changed"
    return base.replace(cand_old, cand_new)


ML7_QUERIES.update(
    {"embedding_srp_multiprobe_pairs": q_embedding_srp_multiprobe_pairs}
)
_ML7_ORACLES_EXTRA.update(
    {"embedding_srp_multiprobe_pairs": _srp_multiprobe_sql}
)


# --------------------------------------------------------------------------
# k-anonymity small-group audit (privacy-side counterpart of PII scrub)
# --------------------------------------------------------------------------

KANON_K = 5


def q_kanon_small_groups(sf_dir: str):
    """K-ANONYMITY AUDIT: every quasi-identifier group (c_mktsegment,
    c_nationkey) with its size and an ``at_risk = n < KANON_K`` flag —
    a group smaller than k re-identifies its members by the
    quasi-identifier alone (Sweeney 2002), and a release must suppress
    or generalize those rows. Output: (c_mktsegment, c_nationkey, n,
    at_risk); the full table (QI-cardinality-bounded) rather than the
    at-risk slice so the audit is non-degenerate at any scale — the
    privacy-side counterpart of doc_pii_scrub (that one redacts direct
    identifiers; this one measures indirect ones).

    Scale shape: map-side partial counts into a QI-cardinality-bounded
    groupby (segments × nations), then a map-side filter — no row-level
    data ever shuffles."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    def partials(batch: pa.Table) -> pa.Table:
        g = (
            pa.table(
                {
                    "c_mktsegment": batch["c_mktsegment"],
                    "c_nationkey": batch["c_nationkey"].cast(pa.int64()),
                }
            )
            .group_by(["c_mktsegment", "c_nationkey"])
            .aggregate([([], "count_all")])
        )
        return g.rename_columns(["c_mktsegment", "c_nationkey", "pc"])

    def flag_risk(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.append_column(
            "at_risk",
            pc.cast(pc.less(batch["n"], KANON_K), pa.int64()),
        )

    return (
        rd.read_parquet(
            _p(sf_dir, "customer"), columns=["c_mktsegment", "c_nationkey"]
        )
        .map_batches(partials, batch_format="pyarrow")
        .groupby(["c_mktsegment", "c_nationkey"])
        .aggregate(Sum("pc", alias_name="n"))
        .map_batches(flag_risk, batch_format="pyarrow")
    )


def _kanon_sql() -> str:
    return (
        "SELECT c_mktsegment, CAST(c_nationkey AS BIGINT) AS c_nationkey, "
        "CAST(COUNT(*) AS BIGINT) AS n, "
        f"CAST(CASE WHEN COUNT(*) < {KANON_K} THEN 1 ELSE 0 END AS BIGINT) "
        "AS at_risk FROM customer GROUP BY 1, 2"
    )


# --------------------------------------------------------------------------
# corpus datacard (the one-row release summary, one streaming pass)
# --------------------------------------------------------------------------


def q_corpus_datacard(sf_dir: str):
    """CORPUS DATACARD: the one-row summary a dataset release ships —
    n_docs, n_tokens, n_types, n_langs, n_sources, top-language share
    (ppm), mean quality (micro), and the near-dup membership rate (ppm,
    the ``dup_clusters`` relation). Every number is independently
    oracled elsewhere; this row is the composed artifact (Datasheets for
    Datasets, Gebru et al. 2021 — the quantitative half).

    Scale shape: ONE streaming pass over documents computes every
    per-batch partial (counts, token counts, per-batch vocab/lang/source
    partials, quality sums, dup flags against the output-bounded
    broadcast dup set); vocab/lang/source cardinalities ride the same
    bounded groupbys the component queries use. The final fold is a
    batch-count-bounded frame plus three tiny cardinality results."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..functions.text import lang_quality_batch
    from .queries import TOKEN_RE, _minhash_pairs_cached, _micro

    pairs = _minhash_pairs_cached(sf_dir)
    involved = (
        np.unique(
            np.concatenate(
                [
                    pairs["doc_a"].to_numpy(np.int64),
                    pairs["doc_b"].to_numpy(np.int64),
                ]
            )
        )
        if not pairs.empty
        else np.empty(0, np.int64)
    )
    inv_ref = ray.put(involved)

    def partials(batch: pa.Table) -> pa.Table:
        from collections import Counter

        inv = ray.get(inv_ref)
        ids = np.asarray(batch["doc_id"].to_numpy(zero_copy_only=False), np.int64)
        idx = np.clip(np.searchsorted(inv, ids), 0, max(0, len(inv) - 1))
        dup = (
            int(((inv[idx] == ids)).sum()) if len(inv) else 0
        )
        texts = batch["text"].to_pylist()
        lq = lang_quality_batch(texts)
        toks: Counter = Counter()
        n_tokens = 0
        for t in texts:
            tk = TOKEN_RE.findall(t.lower())
            n_tokens += len(tk)
            toks.update(set(tk))
        lang_counts = Counter(batch["lang"].to_pylist())
        src_counts = Counter(batch["source"].to_pylist())
        # kind rows: one 'doc' summary + vocab/lang/source partials
        kinds = ["doc"] + ["tok"] * len(toks) + ["lang"] * len(lang_counts) + [
            "src"
        ] * len(src_counts)
        keys = (
            [""]
            + list(toks.keys())
            + list(lang_counts.keys())
            + list(src_counts.keys())
        )
        vals = (
            [len(texts)]
            + [0] * len(toks)
            + list(lang_counts.values())
            + list(src_counts.values())
        )
        extra_tok = [n_tokens] + [0] * (len(kinds) - 1)
        extra_q = [int(_micro(np.asarray(lq["quality"])).sum())] + [0] * (
            len(kinds) - 1
        )
        extra_dup = [dup] + [0] * (len(kinds) - 1)
        return pa.table(
            {
                "kind": pa.array(kinds, pa.string()),
                "key": pa.array([str(k) for k in keys], pa.string()),
                "v": pa.array(np.asarray(vals, np.int64), pa.int64()),
                "ntok": pa.array(np.asarray(extra_tok, np.int64), pa.int64()),
                "qsum": pa.array(np.asarray(extra_q, np.int64), pa.int64()),
                "ndup": pa.array(np.asarray(extra_dup, np.int64), pa.int64()),
            }
        )

    merged = (
        rd.read_parquet(
            _p(sf_dir, "documents"), columns=["doc_id", "text", "lang", "source"]
        )
        .map_batches(partials, batch_format="pyarrow")
        .groupby(["kind", "key"])
        .aggregate(
            Sum("v", alias_name="v"),
            Sum("ntok", alias_name="ntok"),
            Sum("qsum", alias_name="qsum"),
            Sum("ndup", alias_name="ndup"),
        )
        .to_pandas()  # vocab + langs + sources + 1 rows — bounded
    )
    doc = merged[merged["kind"] == "doc"]
    n_docs = int(doc["v"].sum())
    n_tokens = int(doc["ntok"].sum())
    qsum = int(doc["qsum"].sum())
    ndup = int(doc["ndup"].sum())
    n_types = int((merged["kind"] == "tok").sum())
    langs = merged[merged["kind"] == "lang"]
    top_lang = int(langs["v"].max()) if len(langs) else 0
    n_langs = len(langs)
    n_sources = int((merged["kind"] == "src").sum())
    return pa.table(
        {
            "n_docs": pa.array([n_docs], pa.int64()),
            "n_tokens": pa.array([n_tokens], pa.int64()),
            "n_types": pa.array([n_types], pa.int64()),
            "n_langs": pa.array([n_langs], pa.int64()),
            "n_sources": pa.array([n_sources], pa.int64()),
            "top_lang_ppm": pa.array(
                [top_lang * 1_000_000 // n_docs if n_docs else 0], pa.int64()
            ),
            "mean_quality_micro": pa.array(
                [qsum // n_docs if n_docs else 0], pa.int64()
            ),
            "dup_doc_ppm": pa.array(
                [ndup * 1_000_000 // n_docs if n_docs else 0], pa.int64()
            ),
        }
    )


def _datacard_sql() -> str:
    from .oracles_ext import _quality_sql
    from .queries import ORACLE_SQL

    return (
        f"WITH q AS ({_quality_sql('documents', 'doc_id', 'text')}), "
        f"cl AS (SELECT DISTINCT doc_id FROM ({ORACLE_SQL['dup_clusters']})), "
        "tok AS (SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) "
        "AS token FROM documents), "
        "tl AS (SELECT lang, COUNT(*) AS n FROM documents GROUP BY 1) "
        "SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM documents) AS n_docs, "
        "(SELECT CAST(COUNT(*) AS BIGINT) FROM tok) AS n_tokens, "
        "(SELECT CAST(COUNT(DISTINCT token) AS BIGINT) FROM tok) AS n_types, "
        "(SELECT CAST(COUNT(*) AS BIGINT) FROM tl) AS n_langs, "
        "(SELECT CAST(COUNT(DISTINCT source) AS BIGINT) FROM documents) "
        "AS n_sources, "
        "(SELECT CAST(CAST(MAX(n) AS HUGEINT) * 1000000 "
        "// (SELECT COUNT(*) FROM documents) AS BIGINT) FROM tl) "
        "AS top_lang_ppm, "
        "(SELECT CAST(CAST(SUM(quality_micro) AS HUGEINT) "
        "// COUNT(*) AS BIGINT) FROM q) AS mean_quality_micro, "
        "(SELECT CAST(CAST(COUNT(*) AS HUGEINT) * 1000000 "
        "// (SELECT COUNT(*) FROM documents) AS BIGINT) FROM cl) "
        "AS dup_doc_ppm"
    )


ML7_QUERIES.update(
    {
        "kanon_small_groups": q_kanon_small_groups,
        "corpus_datacard": q_corpus_datacard,
    }
)

_ML7_ORACLES_EXTRA.update(
    {
        "kanon_small_groups": _kanon_sql,
        "corpus_datacard": _datacard_sql,
    }
)


# --------------------------------------------------------------------------
# power iteration over the distributed second-moment matrix
# --------------------------------------------------------------------------

POWER_ITERS = 3


def _second_moment_matrix(sf_dir: str) -> list[list[int]]:
    """The dim×dim integer second-moment matrix S = Σ_v qm·qmᵀ, built with
    ONE dimension²-bounded shuffle (each batch folds to dim² integers
    regardless of rows, loud int64 guard) and collected as driver math
    input — shared by the power-iteration and energy-share audits."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    def partials(batch: pa.Table) -> pa.Table:
        emb = np.stack(
            [
                np.asarray(e, dtype=np.float64)
                for e in batch["embedding"].to_pylist()
            ]
        )
        qm = np.floor(emb * 1_000_000.0 + 0.5).astype(np.int64)
        s = qm.T.astype(object) @ qm.astype(object)  # (dim, dim) exact
        dim = s.shape[0]
        if any(abs(int(v)) > (1 << 62) for v in s.ravel()):
            raise OverflowError(
                "second-moment partials exceed int64 headroom"
            )
        ii, jj = np.meshgrid(
            np.arange(dim, dtype=np.int64), np.arange(dim, dtype=np.int64),
            indexing="ij",
        )
        return pa.table(
            {
                "i": pa.array(ii.ravel(), pa.int64()),
                "j": pa.array(jj.ravel(), pa.int64()),
                "ps": pa.array(
                    np.fromiter((int(v) for v in s.ravel()), np.int64, dim * dim),
                    pa.int64(),
                ),
            }
        )

    sdf = (
        rd.read_parquet(_p(sf_dir, "embeddings"), columns=["embedding"])
        .map_batches(partials, batch_format="pyarrow")
        .groupby(["i", "j"])
        .aggregate(Sum("ps", alias_name="s"))
        .to_pandas()  # dim² rows — bounded
    )
    dim = int(sdf["i"].max()) + 1
    S = [[0] * dim for _ in range(dim)]
    for r in sdf.itertuples(index=False):
        S[int(r.i)][int(r.j)] = int(r.s)
    return S


def _power_iterate(S: list[list[int]]) -> list[int]:
    dim = len(S)
    v = [1_000_000] * dim
    for _ in range(POWER_ITERS):
        w = [sum(S[i][j] * v[j] for j in range(dim)) for i in range(dim)]
        m = max(abs(x) for x in w)
        if m == 0:
            break
        v = [
            (x * 1_000_000) // m
            if x >= 0
            else -((-x * 1_000_000 + m - 1) // m)
            for x in w
        ]
    return v


def q_embedding_power_iteration(sf_dir: str):
    """TOP PRINCIPAL DIRECTION by integer-exact power iteration: build the
    (uncentered) second-moment matrix S = Σ_v qm·qmᵀ over the
    micro-quantized embeddings with ONE dimension²-bounded shuffle, then
    run ``POWER_ITERS`` rounds of v ← floor(S·v·10⁶ / max|S·v|) from
    v₀ = 10⁶·1 — every step integer arithmetic (Python big ints
    engine-side, HUGEINT oracle-side; the renormalizing division is the
    portable sign-split floor), so DuckDB replays the whole iteration
    bit-exactly as three chained CTEs. Output: (dim, v_micro) — the
    dominant direction of the embedding cloud, the first number an
    embedding-collapse investigation asks for after ``embedding_dim_stats``
    (one dimension holding most of the energy ⇒ collapsed).

    Scale shape: the corpus-shaped work is the S partials — each batch
    folds to dim² integers (4,096 at dim 64) regardless of rows, with a
    loud int64 guard; the iteration itself runs on the collected
    dim²-bounded matrix (driver math on 64×64, like every
    output-bounded finisher). Uncentered by design: centering adds a
    rank-1 update that needs the mean broadcast — documented trade, and
    ``embedding_dim_stats`` carries the means."""
    S = _second_moment_matrix(sf_dir)
    v = _power_iterate(S)
    return pa.table(
        {
            "dim": pa.array(np.arange(len(S), dtype=np.int64), pa.int64()),
            "v_micro": pa.array(np.asarray(v, np.int64), pa.int64()),
        }
    )


def _power_iter_sql() -> str:
    # S via an exploded self-join; then POWER_ITERS chained (w, m, v) CTEs
    head = (
        "WITH q AS (SELECT ROW_NUMBER() OVER () AS vid, list_transform("
        "embedding, x -> CAST(FLOOR(CAST(x AS DOUBLE)*1000000 + 0.5) AS BIGINT)"
        ") AS qm FROM embeddings), "
        "ex AS (SELECT vid, CAST(d AS BIGINT) AS dim, qm[CAST(d AS INT)+1] AS x "
        "FROM q, (SELECT unnest(range(0, (SELECT len(qm) FROM q LIMIT 1))) AS d)), "
        "s AS (SELECT a.dim AS i, b.dim AS j, "
        "CAST(SUM(CAST(a.x AS HUGEINT) * b.x) AS HUGEINT) AS s "
        "FROM ex a JOIN ex b USING (vid) GROUP BY 1, 2), "
        "v0 AS (SELECT CAST(d AS BIGINT) AS dim, CAST(1000000 AS HUGEINT) AS v "
        "FROM (SELECT unnest(range(0, (SELECT len(qm) FROM q LIMIT 1))) AS d))"
    )
    body = ""
    prev = "v0"
    for k in range(1, POWER_ITERS + 1):
        body += (
            f", w{k} AS (SELECT s.i AS dim, CAST(SUM(s.s * {prev}.v) AS HUGEINT) AS w "
            f"FROM s JOIN {prev} ON {prev}.dim = s.j GROUP BY 1), "
            f"m{k} AS (SELECT MAX(ABS(w)) AS m FROM w{k}), "
            f"v{k} AS (SELECT dim, CASE WHEN w >= 0 THEN (w * 1000000) // m "
            f"ELSE -((-w * 1000000 + m - 1) // m) END AS v "
            f"FROM w{k} CROSS JOIN m{k})"
        )
        prev = f"v{k}"
    return (
        head
        + body
        + f" SELECT dim, CAST(v AS BIGINT) AS v_micro FROM {prev}"
    )


ML7_QUERIES.update(
    {"embedding_power_iteration": q_embedding_power_iteration}
)
_ML7_ORACLES_EXTRA.update(
    {"embedding_power_iteration": _power_iter_sql}
)


# --------------------------------------------------------------------------
# top-1 energy share (the single collapse number)
# --------------------------------------------------------------------------


def q_embedding_top1_energy(sf_dir: str):
    """TOP-1 ENERGY SHARE: the fraction of total embedding energy on the
    power-iteration direction — share_ppm = vᵀSv·10⁶ // (vᵀv·tr(S)) with
    S the second-moment matrix and v the ``POWER_ITERS``-round iterate
    (both integer; the Rayleigh quotient λ = vᵀSv/vᵀv over the trace).
    Output one row: (trace, rayleigh_lambda, top1_energy_ppm) with
    λ reported as the floored integer quotient. An isotropic cloud sits
    near 10⁶/dim; a collapsed representation sits near 10⁶ — THE single
    number the dim-stats and power-iteration audits roll up to.

    Scale shape: same dimension²-bounded S shuffle as
    ``embedding_power_iteration`` (one corpus pass); everything after is
    driver math on the dim² frame. All quadratic forms in Python big
    ints (vᵀSv reaches dim²·S·10¹² — far past int64), HUGEINT in the
    oracle's replay of the identical three-CTE iteration."""
    S = _second_moment_matrix(sf_dir)
    v = _power_iterate(S)
    dim = len(S)
    tr = sum(S[i][i] for i in range(dim))
    vtv = sum(x * x for x in v)
    vsv = sum(v[i] * S[i][j] * v[j] for i in range(dim) for j in range(dim))
    lam = vsv // vtv if vtv else 0
    share = vsv * 1_000_000 // (vtv * tr) if vtv and tr else 0
    return pa.table(
        {
            "trace": pa.array([tr], pa.int64()),
            "rayleigh_lambda": pa.array([lam], pa.int64()),
            "top1_energy_ppm": pa.array([share], pa.int64()),
        }
    )


def _top1_energy_sql() -> str:
    base = _power_iter_sql()
    tail = f" SELECT dim, CAST(v AS BIGINT) AS v_micro FROM v{POWER_ITERS}"
    assert base.endswith(tail), "power-iteration SQL shape changed"
    return (
        base[: -len(tail)]
        + ", tr AS (SELECT CAST(SUM(s) AS HUGEINT) AS t FROM s WHERE i = j), "
        + f"vtv AS (SELECT CAST(SUM(v*v) AS HUGEINT) AS q FROM v{POWER_ITERS}), "
        + "vsv AS (SELECT CAST(SUM(va.v * s.s * vb.v) AS HUGEINT) AS q "
        + f"FROM s JOIN v{POWER_ITERS} va ON va.dim = s.i "
        + f"JOIN v{POWER_ITERS} vb ON vb.dim = s.j) "
        + "SELECT CAST(tr.t AS BIGINT) AS trace, "
        + "CAST(vsv.q // vtv.q AS BIGINT) AS rayleigh_lambda, "
        + "CAST(vsv.q * 1000000 // (vtv.q * tr.t) AS BIGINT) "
        + "AS top1_energy_ppm FROM tr CROSS JOIN vtv CROSS JOIN vsv"
    )


ML7_QUERIES.update({"embedding_top1_energy": q_embedding_top1_energy})
_ML7_ORACLES_EXTRA.update({"embedding_top1_energy": _top1_energy_sql})


# --------------------------------------------------------------------------
# pairwise Jensen–Shannon divergence between sources
# --------------------------------------------------------------------------


def q_source_js_divergence(sf_dir: str):
    """JENSEN–SHANNON DIVERGENCE between every source pair's unigram
    distribution (micro-Hartleys): JS(P,Q) = (KL(P‖M) + KL(Q‖M)) // 2
    with M = (P+Q)/2 — the symmetric, always-finite divergence the
    mixing papers use where one-sided KL misleads (KL(P‖Q) blows up on a
    single Q-absent token; JS is bounded by log10 2). Output:
    (source_a, source_b, js_micro) with source_a < source_b. The
    mixture term is exact-rational inside the envelope:
    lp_m = floor(log10((c_p·T_q + c_q·T_p)/(2·T_p·T_q))·10⁶ + 0.5),
    with the big products converted to DOUBLE identically on both
    engines; every division is the portable sign-split floor.

    Scale shape: ONE (source, token) count shuffle (the KL/IG
    materialization); a token-bucketed co-group loops over the bucket's
    tokens and each token (≤ |sources| rows) emits its
    per-(directed source, peer) contribution rows — the shuffle is
    vocabulary×sources² bounded, the explicit cost of an all-pairs
    divergence matrix (prune the source list first at large fan-in);
    the per-pair finisher folds Σ c·Δlp in Python ints."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..scale import cogroup, derive_buckets
    from .queries import TOKEN_RE

    def partials(batch: pa.Table) -> pa.Table:
        from collections import Counter

        c: Counter = Counter()
        for s, t in zip(batch["source"].to_pylist(), batch["text"].to_pylist()):
            for w in TOKEN_RE.findall(t.lower()):
                c[(s, w)] += 1
        keys = list(c.keys())
        return pa.table(
            {
                "source": pa.array([k[0] for k in keys], pa.string()),
                "token": pa.array([k[1] for k in keys], pa.string()),
                "pc": pa.array(
                    np.fromiter(c.values(), np.int64, len(c)), pa.int64()
                ),
            }
        )

    counts = (
        rd.read_parquet(_p(sf_dir, "documents"), columns=["source", "text"])
        .map_batches(partials, batch_format="pyarrow")
        .groupby(["source", "token"])
        .aggregate(Sum("pc", alias_name="c"))
        .materialize()  # vocabulary×sources bounded
    )
    tot_df = (
        counts.groupby("source").aggregate(Sum("c", alias_name="t")).to_pandas()
    )
    t_s = {str(r.source): int(r.t) for r in tot_df.itertuples(index=False)}
    all_sources = sorted(t_s)
    ts_ref = ray.put((t_s, all_sources))

    def per_token(g) -> pa.Table:
        ts_map, sources = ray.get(ts_ref)
        have = {
            str(s): int(c)
            for s, c in zip(g["source"].tolist(), g["c"].to_numpy(np.int64))
        }
        src_out, peer_out, c_out, dlp_out = [], [], [], []
        for p, cp in have.items():
            tp = ts_map[p]
            lp_p = int(np.floor(np.log10(cp / float(tp)) * 1_000_000 + 0.5))
            for q in sources:
                if q == p:
                    continue
                cq = have.get(q, 0)
                tq = ts_map[q]
                num = cp * tq + cq * tp
                den = 2 * tp * tq
                lp_m = int(
                    np.floor(
                        np.log10(float(num) / float(den)) * 1_000_000 + 0.5
                    )
                )
                src_out.append(p)
                peer_out.append(q)
                c_out.append(cp)
                dlp_out.append(lp_p - lp_m)
        return pa.table(
            {
                "src": pa.array(src_out, pa.string()),
                "peer": pa.array(peer_out, pa.string()),
                "c": pa.array(np.asarray(c_out, np.int64), pa.int64()),
                "dlp": pa.array(np.asarray(dlp_out, np.int64), pa.int64()),
            }
        )

    def finish(g) -> pa.Table:
        ts_map, _sources = ray.get(ts_ref)
        src = str(g["src"].iloc[0])
        peer = str(g["peer"].iloc[0])
        t = ts_map[src]
        c = g["c"].to_numpy(np.int64).astype(object)
        dlp = g["dlp"].to_numpy(np.int64).astype(object)
        s = int((c * dlp).sum())
        kl = s // t if s >= 0 else -((-s + t - 1) // t)
        return pa.table(
            {
                "src": pa.array([src], pa.string()),
                "peer": pa.array([peer], pa.string()),
                "kl": pa.array([kl], pa.int64()),
            }
        )

    def per_bucket(g) -> pa.Table:
        return pa.concat_tables(
            [per_token(tg) for _, tg in g.groupby("token", sort=False)]
        )

    nb = derive_buckets(_p(sf_dir, "documents"), floor=64)
    kl_df = (
        cogroup(counts, "token", per_bucket, nb)
        .groupby(["src", "peer"])
        .map_groups(finish, batch_format="pandas")
        .to_pandas()  # sources² bounded
    )
    klm = {
        (str(r.src), str(r.peer)): int(r.kl)
        for r in kl_df.itertuples(index=False)
    }
    rows = []
    for i, a in enumerate(all_sources):
        for b in all_sources[i + 1 :]:
            s = klm.get((a, b), 0) + klm.get((b, a), 0)
            js = s // 2 if s >= 0 else -((-s + 1) // 2)
            rows.append((a, b, js))
    return pa.table(
        {
            "source_a": pa.array([r[0] for r in rows], pa.string()),
            "source_b": pa.array([r[1] for r in rows], pa.string()),
            "js_micro": pa.array(
                np.asarray([r[2] for r in rows], np.int64), pa.int64()
            ),
        }
    )


def _js_sql() -> str:
    return (
        "WITH tok AS (SELECT source, "
        "unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS token "
        "FROM documents), "
        "uc AS (SELECT source, token, CAST(COUNT(*) AS BIGINT) AS c "
        "FROM tok GROUP BY 1, 2), "
        "st AS (SELECT source, CAST(SUM(c) AS BIGINT) AS t FROM uc GROUP BY 1), "
        # directed contribution rows: every (present token, peer source)
        "d AS (SELECT a.source AS src, s2.source AS peer, a.c AS cp, "
        "sa.t AS tp, COALESCE(b.c, 0) AS cq, s2.t AS tq "
        "FROM uc a JOIN st sa USING (source) "
        "CROSS JOIN st s2 "
        "LEFT JOIN uc b ON b.source = s2.source AND b.token = a.token "
        "WHERE s2.source <> a.source), "
        "lp AS (SELECT src, peer, cp, tp, "
        "CAST(FLOOR(LOG10(CAST(cp AS DOUBLE)/tp)*1000000 + 0.5) AS BIGINT) "
        "- CAST(FLOOR(LOG10(CAST(CAST(cp AS HUGEINT)*tq + CAST(cq AS HUGEINT)*tp "
        "AS DOUBLE) / CAST(2*CAST(tp AS HUGEINT)*tq AS DOUBLE))*1000000 + 0.5) "
        "AS BIGINT) AS dlp FROM d), "
        "kl AS (SELECT src, peer, "
        "CAST(CASE WHEN SUM(CAST(cp AS HUGEINT)*dlp) >= 0 "
        "THEN SUM(CAST(cp AS HUGEINT)*dlp) // ANY_VALUE(tp) "
        "ELSE -((-SUM(CAST(cp AS HUGEINT)*dlp) + ANY_VALUE(tp) - 1) "
        "// ANY_VALUE(tp)) END AS BIGINT) AS kl "
        "FROM lp GROUP BY 1, 2) "
        "SELECT x.src AS source_a, x.peer AS source_b, "
        "CAST(CASE WHEN x.kl + y.kl >= 0 THEN (x.kl + y.kl) // 2 "
        "ELSE -((-(x.kl + y.kl) + 1) // 2) END AS BIGINT) AS js_micro "
        "FROM kl x JOIN kl y ON y.src = x.peer AND y.peer = x.src "
        "WHERE x.src < x.peer"
    )


ML7_QUERIES.update({"source_js_divergence": q_source_js_divergence})
_ML7_ORACLES_EXTRA.update({"source_js_divergence": _js_sql})
