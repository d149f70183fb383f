"""Corpus-audit, retrieval and LM-scoring operators (rounds 4–5): BM25
top-k, OOV rate, source vocabulary overlap, tokenizer fertility, DSIR
weights, centroid outliers, langid confusion (round 4); bigram-LM
scoring, first-occurrence gram novelty, directed Jaccard containment,
Efraimidis–Spirakis weighted sampling, per-source token entropy, the
cross-split leakage audit, the upsert-sink round-trip, and a
SQL-replayable Count-Min Sketch (round 5).

These are the dataset-audit / retrieval counterparts of the curation
chain: BM25 is the classic bag-of-words ranking function (Robertson &
Spärck Jones probabilistic relevance framework, the Lucene/Elasticsearch
default) over the same token stream the reference's TextIndexerBolt
family indexes (bolts/*/TextIndexerBolt.java — see SURVEY.md §2.9); the
rest are the corpus-health rollups and sampling/scoring primitives a
training-data pipeline runs before mixing.

House oracle discipline: every score is integer micro/ppm units computed
with division-free-until-the-final-floor rational arithmetic (BM25's
k1=1.2, b=0.75 become the exact rationals 6/5 and 3/4, and the idf is
the log-free RSJ weight (N-df+0.5)/(df+0.5) so both sides stay in
integers end-to-end — Python ints engine-side, HUGEINT oracle-side).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..scale import cogroup, derive_buckets
from .queries_ml2 import _p

# --------------------------------------------------------------------------
# BM25 top-k retrieval
# --------------------------------------------------------------------------

# Fixed query — part of the output contract (like DUPSPAN_L), not a knob.
# Terms chosen from the fixture vocabulary so every tier scores non-trivially.
BM25_TERMS = ("table", "scan", "merge", "window", "hash")
BM25_TOPK = 10
_BM25_MICRO = 1_000_000


def _bm25_idf_micro(n_docs: int, df: int) -> int:
    """Log-free RSJ idf in micro units: floor(1e6*(N-df+0.5)/(df+0.5)) =
    floor(1e6*(2(N-df)+1)/(2df+1)) — exact integer arithmetic."""
    return (_BM25_MICRO * (2 * (n_docs - df) + 1)) // (2 * df + 1)


def q_bm25_topk(sf_dir: str):
    """BM25 TOP-K RETRIEVAL: score every document against the fixed query
    ``BM25_TERMS`` with BM25 (k1=6/5, b=3/4, log-free RSJ idf) and return
    the ``BM25_TOPK`` best as (doc_id, score_micro), ordered
    (score desc, doc_id asc), zero-score docs excluded.

    Integer-exact scoring: with T = total corpus tokens, N = docs,
    dl = doc tokens, multiplying the BM25 term through by 10·T gives

      term_micro = floor( idf_micro·tf·22·T / (10·T·tf + 3·T + 9·dl·N) )

    — Python big-int engine-side, HUGEINT oracle-side, so there is no
    float summation anywhere and the DuckDB replay is bit-exact.

    Scale shape: pass 1 streams one partial-stats row per batch
    (N, T, df per query term — the query is a constant handful of terms,
    so the stats frame is batch-count-bounded); pass 2 re-scans documents
    map-side with the five broadcast integers and emits a per-batch
    partial top-k (global top-k ⊆ union of per-batch top-k), finished on
    a k×n_batches-bounded driver frame. Two streaming scans, no shuffle.
    At production scale pass 2's tf comes from the token-bucketed
    inverted index (stages/text_index.py) instead of a rescan."""
    import ray.data as rd

    from .queries import TOKEN_RE

    terms = list(BM25_TERMS)
    tset = frozenset(terms)

    def stats(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        n_tok = 0
        df = dict.fromkeys(terms, 0)
        for t in texts:
            toks = TOKEN_RE.findall(t.lower())
            n_tok += len(toks)
            for w in tset.intersection(toks):
                df[w] += 1
        cols = {"n_docs": [len(texts)], "n_tokens": [n_tok]}
        for i, w in enumerate(terms):
            cols[f"df{i}"] = [df[w]]
        return pa.table({k: pa.array(v, pa.int64()) for k, v in cols.items()})

    docs = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    st = docs.map_batches(stats, batch_format="pyarrow").to_pandas().sum()
    n_docs, total = int(st["n_docs"]), int(st["n_tokens"])
    idf = [_bm25_idf_micro(n_docs, int(st[f"df{i}"])) for i in range(len(terms))]

    def score(batch: pa.Table) -> pa.Table:
        out = []
        for d, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            toks = TOKEN_RE.findall(t.lower())
            dl = len(toks)
            if not dl:
                continue
            tf = dict.fromkeys(terms, 0)
            for w in toks:
                if w in tset:
                    tf[w] += 1
            s = 0
            for i, w in enumerate(terms):
                f = tf[w]
                if f:
                    s += (idf[i] * f * 22 * total) // (
                        10 * total * f + 3 * total + 9 * dl * n_docs
                    )
            if s > 0:
                out.append((s, int(d)))
        out.sort(key=lambda x: (-x[0], x[1]))
        out = out[:BM25_TOPK]
        return pa.table(
            {
                "doc_id": pa.array([d for _, d in out], pa.int64()),
                "score_micro": pa.array([s for s, _ in out], pa.int64()),
            }
        )

    pool = docs.map_batches(score, batch_format="pyarrow").to_pandas()
    top = pool.sort_values(
        ["score_micro", "doc_id"], ascending=[False, True]
    ).head(BM25_TOPK)
    return pa.table(
        {
            "doc_id": pa.array(top["doc_id"].to_numpy(np.int64), pa.int64()),
            "score_micro": pa.array(
                top["score_micro"].to_numpy(np.int64), pa.int64()
            ),
        }
    )


def _bm25_sql() -> str:
    vals = ", ".join(f"('{t}')" for t in BM25_TERMS)
    m = _BM25_MICRO
    return (
        "WITH toks AS (SELECT doc_id, "
        "regexp_extract_all(lower(text), '[a-z0-9]+') AS tk FROM documents), "
        "consts AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n, "
        "CAST(SUM(len(tk)) AS HUGEINT) AS t FROM toks), "
        "dl AS (SELECT doc_id, CAST(len(tk) AS HUGEINT) AS dl FROM toks), "
        f"terms(term) AS (VALUES {vals}), "
        "tok AS (SELECT doc_id, unnest(tk) AS term FROM toks), "
        "tf AS (SELECT doc_id, term, CAST(COUNT(*) AS HUGEINT) AS tf "
        "FROM tok JOIN terms USING (term) GROUP BY 1, 2), "
        "df AS (SELECT term, CAST(COUNT(DISTINCT doc_id) AS HUGEINT) AS df "
        "FROM tf GROUP BY 1), "
        "idf AS (SELECT t.term, "
        f"(CAST({m} AS HUGEINT) * (2*(c.n - COALESCE(d.df, 0)) + 1)) "
        "// (2*COALESCE(d.df, 0) + 1) AS idf_micro "
        "FROM terms t LEFT JOIN df d USING (term) CROSS JOIN consts c), "
        "scored AS (SELECT tf.doc_id, SUM("
        "(i.idf_micro * tf.tf * 22 * c.t) "
        "// (10*c.t*tf.tf + 3*c.t + 9*dl.dl*c.n)) AS s "
        "FROM tf JOIN idf i USING (term) JOIN dl USING (doc_id) "
        "CROSS JOIN consts c GROUP BY 1) "
        "SELECT doc_id, CAST(s AS BIGINT) AS score_micro FROM scored "
        f"WHERE s > 0 ORDER BY s DESC, doc_id LIMIT {BM25_TOPK}"
    )


# --------------------------------------------------------------------------
# out-of-vocabulary rate vs the corpus top-V vocabulary
# --------------------------------------------------------------------------

OOV_VOCAB_V = 16  # top-V tokens by (count desc, token asc); the fixture
# vocabulary is ~31 tokens, so V=16 leaves a non-trivial OOV tail at
# every tier. Part of the output contract.


def q_doc_oov_rate(sf_dir: str):
    """OOV RATE (tokenizer/vocabulary audit): build the corpus top-``V``
    vocabulary by token frequency (ties broken by token asc), then report
    per document (doc_id, n_tokens, n_oov, oov_ppm) where oov_ppm =
    floor(1e6·n_oov/n_tokens) (0 for empty docs). The pre-flight check
    run before committing to a tokenizer vocabulary size.

    Scale shape: pass 1 is the standard vocabulary-bounded count shuffle
    (per-batch np.unique combiner so the shuffle moves each distinct
    token once per batch, never occurrences); the top-V vocabulary is
    V-bounded and broadcasts as one sorted array; pass 2 re-scans
    documents map-side with searchsorted membership. Two streaming scans,
    one vocabulary-bounded shuffle."""
    import ray.data as rd

    from .queries import TOKEN_RE

    def counts(batch: pa.Table) -> pa.Table:
        toks: list[str] = []
        for t in batch["text"].to_pylist():
            toks.extend(TOKEN_RE.findall(t.lower()))
        if not toks:
            return pa.table(
                {"token": pa.array([], pa.string()), "cnt": pa.array([], pa.int64())}
            )
        u, c = np.unique(np.array(toks, object).astype(str), return_counts=True)
        return pa.table(
            {
                "token": pa.array(u.tolist(), pa.string()),
                "cnt": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    docs = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    tot = (
        docs.map_batches(counts, batch_format="pyarrow")
        .groupby("token")
        .sum("cnt")
        .to_pandas()  # vocabulary-bounded
    )
    tot = tot.sort_values(["sum(cnt)", "token"], ascending=[False, True])
    vocab = np.sort(tot["token"].to_numpy(str)[:OOV_VOCAB_V])

    def rate(batch: pa.Table) -> pa.Table:
        ids, ntk, nov, ppm = [], [], [], []
        for d, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            toks = TOKEN_RE.findall(t.lower())
            n = len(toks)
            if n and len(vocab) == 0:
                oov = n  # tokens but no vocabulary: everything is OOV
            elif n:
                ta = np.array(toks, object).astype(str)
                pos = np.searchsorted(vocab, ta)
                inv = (pos < len(vocab)) & (
                    vocab[np.clip(pos, 0, max(len(vocab) - 1, 0))] == ta
                )
                oov = int(n - inv.sum())
            else:
                oov = 0
            ids.append(int(d))
            ntk.append(n)
            nov.append(oov)
            ppm.append((oov * 1_000_000) // n if n else 0)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_tokens": pa.array(ntk, pa.int64()),
                "n_oov": pa.array(nov, pa.int64()),
                "oov_ppm": pa.array(ppm, pa.int64()),
            }
        )

    return docs.map_batches(rate, batch_format="pyarrow")


def _oov_sql() -> str:
    v = OOV_VOCAB_V
    return (
        "WITH toks AS (SELECT doc_id, "
        "regexp_extract_all(lower(text), '[a-z0-9]+') AS tk FROM documents), "
        "tok AS (SELECT doc_id, unnest(tk) AS token FROM toks), "
        "vocab AS (SELECT token FROM ("
        "SELECT token, COUNT(*) AS c FROM tok GROUP BY 1) "
        f"QUALIFY ROW_NUMBER() OVER (ORDER BY c DESC, token) <= {v}), "
        "per AS (SELECT t.doc_id, CAST(COUNT(*) AS BIGINT) AS n_tokens, "
        "CAST(COUNT(*) FILTER (WHERE v.token IS NULL) AS BIGINT) AS n_oov "
        "FROM tok t LEFT JOIN vocab v USING (token) GROUP BY 1) "
        "SELECT d.doc_id, COALESCE(p.n_tokens, 0) AS n_tokens, "
        "COALESCE(p.n_oov, 0) AS n_oov, "
        "CAST(CASE WHEN COALESCE(p.n_tokens, 0) = 0 THEN 0 "
        "ELSE (p.n_oov * 1000000) // p.n_tokens END AS BIGINT) AS oov_ppm "
        "FROM documents d LEFT JOIN per p USING (doc_id)"
    )


# --------------------------------------------------------------------------
# per-source vocabulary overlap (cross-source contamination audit)
# --------------------------------------------------------------------------


def q_source_vocab_overlap(sf_dir: str):
    """SOURCE VOCABULARY OVERLAP: pairwise Jaccard similarity between the
    distinct-token vocabularies of every pair of sources — the
    dataset-mixing audit that flags near-identical feeds before they are
    weighted as independent sources. One row per unordered pair with a
    non-empty intersection: (src_a, src_b, n_inter, n_union, jaccard_ppm),
    src_a < src_b, jaccard_ppm = floor(1e6·|∩|/|∪|).

    Scale shape: per-batch (source, token) dedup, then ONE token-hash
    bucketed shuffle; each bucket owns its tokens exclusively, so bucket-
    local pair counting (self-merge on token) and per-source distinct
    counts are exact partials; the finisher frame is |sources|²-bounded.
    Never an all-pairs join over rows — tokens are the join key and each
    token contributes its source-pair combinations inside one bucket."""
    import ray.data as rd

    from .queries import TOKEN_RE

    nb = derive_buckets(_p(sf_dir, "documents"), floor=64)

    def pairs(batch: pa.Table) -> pa.Table:
        seen = set()
        for s, t in zip(batch["source"].to_pylist(), batch["text"].to_pylist()):
            for w in set(TOKEN_RE.findall(t.lower())):
                seen.add((s, w))
        srcs = [s for s, _ in seen]
        toks = [w for _, w in seen]
        return pa.table(
            {
                "source": pa.array(srcs, pa.string()),
                "token": pa.array(toks, pa.string()),
            }
        )

    def bucket_partials(g) -> pa.Table:
        g = g.drop_duplicates(["source", "token"])
        m = g.merge(g, on="token")
        m = m[m["source_x"] < m["source_y"]]
        inter = (
            m.groupby(["source_x", "source_y"], sort=False).size().reset_index(name="c")
        )
        size = g.groupby("source", sort=False).size().reset_index(name="c")
        return pa.table(
            {
                "src_a": pa.array(
                    inter["source_x"].tolist() + size["source"].tolist(), pa.string()
                ),
                "src_b": pa.array(
                    inter["source_y"].tolist() + size["source"].tolist(), pa.string()
                ),
                "c": pa.array(
                    inter["c"].astype(np.int64).tolist()
                    + size["c"].astype(np.int64).tolist(),
                    pa.int64(),
                ),
            }
        )

    docs = rd.read_parquet(_p(sf_dir, "documents"), columns=["source", "text"])
    agg = (
        cogroup(
            docs.map_batches(pairs, batch_format="pyarrow"), "token", bucket_partials, nb
        )
        .groupby(["src_a", "src_b"])
        .sum("c")
        .to_pandas()  # |sources|²-bounded
    )
    sizes = {
        r["src_a"]: int(r["sum(c)"])
        for _, r in agg[agg["src_a"] == agg["src_b"]].iterrows()
    }
    pa_, pb_, ni, nu, jp = [], [], [], [], []
    cross = agg[agg["src_a"] < agg["src_b"]].sort_values(["src_a", "src_b"])
    for _, r in cross.iterrows():
        inter = int(r["sum(c)"])
        union = sizes[r["src_a"]] + sizes[r["src_b"]] - inter
        pa_.append(r["src_a"])
        pb_.append(r["src_b"])
        ni.append(inter)
        nu.append(union)
        jp.append((inter * 1_000_000) // union)
    return pa.table(
        {
            "src_a": pa.array(pa_, pa.string()),
            "src_b": pa.array(pb_, pa.string()),
            "n_inter": pa.array(ni, pa.int64()),
            "n_union": pa.array(nu, pa.int64()),
            "jaccard_ppm": pa.array(jp, pa.int64()),
        }
    )


def _overlap_sql() -> str:
    return (
        "WITH st AS (SELECT DISTINCT source, token FROM ("
        "SELECT source, unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) "
        "AS token FROM documents)), "
        "sz AS (SELECT source, COUNT(*) AS n FROM st GROUP BY 1), "
        "inter AS (SELECT a.source AS src_a, b.source AS src_b, "
        "CAST(COUNT(*) AS BIGINT) AS n_inter FROM st a "
        "JOIN st b ON a.token = b.token AND a.source < b.source GROUP BY 1, 2) "
        "SELECT i.src_a, i.src_b, i.n_inter, "
        "CAST(za.n + zb.n - i.n_inter AS BIGINT) AS n_union, "
        "CAST((i.n_inter * 1000000) // (za.n + zb.n - i.n_inter) AS BIGINT) "
        "AS jaccard_ppm "
        "FROM inter i JOIN sz za ON za.source = i.src_a "
        "JOIN sz zb ON zb.source = i.src_b"
    )


# --------------------------------------------------------------------------
# per-language tokenizer fertility (bytes per token)
# --------------------------------------------------------------------------


def q_lang_token_fertility(sf_dir: str):
    """TOKENIZER FERTILITY per language: (lang, n_docs, total_bytes,
    total_words, total_ws_tokens, bytes_per_token_ppm) where
    bytes_per_token_ppm = floor(1e6·total_bytes/total_ws_tokens) — the
    bytes-per-token audit that decides per-language token budgets (a
    script the tokenizer fragments shows up as high fertility).

    Scale shape: the hot pass is PURE Arrow kernels (binary_length for
    UTF-8 bytes, count_substring_regex for word and whitespace-token runs
    — the same RE2 class proven char-exact against str.split in
    functions/text.py), grouped per batch to one partial row per
    language; the finisher frame is |langs|×n_batches-bounded. One
    streaming scan, no Python loop anywhere."""
    import pyarrow.compute as pc
    import ray.data as rd

    from ..functions.text import count_tokens_ws_arrow

    def partials(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "lang": batch["lang"],
                "b": pc.cast(pc.binary_length(batch["text"]), pa.int64()),
                "w": pc.cast(
                    pc.count_substring_regex(
                        pc.utf8_lower(batch["text"]), "[a-z0-9]+"
                    ),
                    pa.int64(),
                ),
                "ws": count_tokens_ws_arrow(batch["text"]),
                "one": pa.array(np.ones(len(batch), np.int64)),
            }
        )
        return t.group_by("lang").aggregate(
            [("one", "sum"), ("b", "sum"), ("w", "sum"), ("ws", "sum")]
        )

    docs = rd.read_parquet(_p(sf_dir, "documents"), columns=["lang", "text"])
    df = (
        docs.map_batches(partials, batch_format="pyarrow")
        .to_pandas()  # |langs| × n_batches-bounded
        .groupby("lang", sort=True)
        .sum()
        .reset_index()
    )
    tb = df["b_sum"].to_numpy(np.int64)
    tws = df["ws_sum"].to_numpy(np.int64)
    # ppm numerator in PYTHON ints (object dtype): total_bytes * 1e6 wraps
    # int64 once a language group passes ~9.2 TB of text; the DuckDB oracle
    # sums in HUGEINT, so exact arbitrary-precision division here keeps the
    # engine byte-identical at scale (the quotient itself always fits int64)
    ppm = np.where(
        tws > 0,
        (tb.astype(object) * 1_000_000) // np.maximum(tws, 1).astype(object),
        0,
    ).astype(np.int64)
    return pa.table(
        {
            "lang": pa.array(df["lang"].tolist(), pa.string()),
            "n_docs": pa.array(df["one_sum"].to_numpy(np.int64), pa.int64()),
            "total_bytes": pa.array(tb, pa.int64()),
            "total_words": pa.array(df["w_sum"].to_numpy(np.int64), pa.int64()),
            "total_ws_tokens": pa.array(tws, pa.int64()),
            "bytes_per_token_ppm": pa.array(ppm, pa.int64()),
        }
    )


def _fertility_sql() -> str:
    from ..functions.text import _NONWS_RUN_RE2

    ws = _NONWS_RUN_RE2
    return (
        "SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs, "
        "CAST(SUM(strlen(text)) AS BIGINT) AS total_bytes, "
        "CAST(SUM(len(regexp_extract_all(lower(text), '[a-z0-9]+'))) AS BIGINT) "
        "AS total_words, "
        f"CAST(SUM(len(regexp_extract_all(text, '{ws}'))) AS BIGINT) "
        "AS total_ws_tokens, "
        "CAST(CASE WHEN "
        f"SUM(len(regexp_extract_all(text, '{ws}'))) = 0 THEN 0 "
        "ELSE (SUM(strlen(text)) * 1000000) "
        f"// SUM(len(regexp_extract_all(text, '{ws}'))) END AS BIGINT) "
        "AS bytes_per_token_ppm "
        "FROM documents GROUP BY 1"
    )


# --------------------------------------------------------------------------
# DSIR-style importance weights (hashed-n-gram importance resampling,
# rational-arithmetic variant)
# --------------------------------------------------------------------------

DSIR_TARGET_SOURCE = "src0"  # the exemplar target domain — part of the
# output contract (in production the target is the curated seed corpus)


def q_dsir_importance_docs(sf_dir: str):
    """IMPORTANCE WEIGHTS for domain-targeted data selection (the shape of
    Xie et al. 2023, "Data Selection for Language Models via Importance
    Resampling"): score every document by how target-domain-like its
    token distribution is, with the target domain = documents from
    ``DSIR_TARGET_SOURCE``. Rational-arithmetic variant: instead of the
    paper's log-likelihood ratio, each token contributes the add-one-
    smoothed count ratio

      ratio_micro(tok) = floor(1e6·(cnt_target+1)/(cnt_all+1))

    and imp_micro(doc) = Σ_occurrences ratio_micro(tok) — integer-exact,
    order-free, and monotone in the same direction as the LLR score.
    One row per document: (doc_id, n_tokens, imp_micro).

    Scale shape: pass 1 is one vocabulary-bounded count shuffle carrying
    (token, c_all_partial, c_target_partial) per batch (the target count
    rides the same rows — no second scan, no second shuffle); the ratio
    map is vocabulary-bounded and broadcasts; pass 2 re-scans documents
    map-side with searchsorted. With a hashed feature space (the paper's
    10^5 hash buckets) the "vocabulary" is the bucket space and the same
    two passes apply verbatim."""
    import ray.data as rd

    from .queries import TOKEN_RE

    def counts(batch: pa.Table) -> pa.Table:
        toks: list[str] = []
        tgt: list[str] = []
        for s, t in zip(batch["source"].to_pylist(), batch["text"].to_pylist()):
            tk = TOKEN_RE.findall(t.lower())
            toks.extend(tk)
            if s == DSIR_TARGET_SOURCE:
                tgt.extend(tk)
        if not toks:
            return pa.table(
                {
                    "token": pa.array([], pa.string()),
                    "c_all": pa.array([], pa.int64()),
                    "c_tgt": pa.array([], pa.int64()),
                }
            )
        ua, ca = np.unique(np.array(toks, object).astype(str), return_counts=True)
        ct = np.zeros(len(ua), np.int64)
        if tgt:
            ut, c2 = np.unique(np.array(tgt, object).astype(str), return_counts=True)
            ct[np.searchsorted(ua, ut)] = c2
        return pa.table(
            {
                "token": pa.array(ua.tolist(), pa.string()),
                "c_all": pa.array(ca.astype(np.int64), pa.int64()),
                "c_tgt": pa.array(ct, pa.int64()),
            }
        )

    docs = rd.read_parquet(
        _p(sf_dir, "documents"), columns=["doc_id", "source", "text"]
    )
    from ray.data.aggregate import Sum

    cnt = (
        docs.map_batches(counts, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("c_all", alias_name="c_all"), Sum("c_tgt", alias_name="c_tgt"))
        .to_pandas()  # vocabulary-bounded
        .sort_values("token")
    )
    vocab = cnt["token"].to_numpy(str)
    # ratio intermediate in PYTHON ints (object dtype): (c_tgt+1) * 1e6
    # wraps int64 once a token passes ~9.2e12 occurrences; the quotient is
    # ≤ 1e6 so the RESULT array is safely int64 (oracle divides in HUGEINT)
    ratio = (
        (
            (cnt["c_tgt"].to_numpy(np.int64).astype(object) + 1) * 1_000_000
        )
        // (cnt["c_all"].to_numpy(np.int64).astype(object) + 1)
    ).astype(np.int64)

    def score(batch: pa.Table) -> pa.Table:
        ids, ntk, imp = [], [], []
        for d, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            tk = TOKEN_RE.findall(t.lower())
            if tk:
                ta = np.array(tk, object).astype(str)
                pos = np.searchsorted(vocab, ta)  # every token is in vocab
                s = int(ratio[pos].sum())
            else:
                s = 0
            ids.append(int(d))
            ntk.append(len(tk))
            imp.append(s)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_tokens": pa.array(ntk, pa.int64()),
                "imp_micro": pa.array(imp, pa.int64()),
            }
        )

    return docs.map_batches(score, batch_format="pyarrow")


def _dsir_sql() -> str:
    s = DSIR_TARGET_SOURCE
    return (
        "WITH tok AS (SELECT doc_id, source, "
        "unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS token "
        "FROM documents), "
        "cnt AS (SELECT token, CAST(COUNT(*) AS BIGINT) AS c_all, "
        f"CAST(COUNT(*) FILTER (WHERE source = '{s}') AS BIGINT) AS c_tgt "
        "FROM tok GROUP BY 1), "
        "per AS (SELECT t.doc_id, CAST(COUNT(*) AS BIGINT) AS n_tokens, "
        "CAST(SUM(((c.c_tgt + 1) * 1000000) // (c.c_all + 1)) AS BIGINT) AS imp "
        "FROM tok t JOIN cnt c USING (token) GROUP BY 1) "
        "SELECT d.doc_id, COALESCE(p.n_tokens, 0) AS n_tokens, "
        "COALESCE(p.imp, 0) AS imp_micro "
        "FROM documents d LEFT JOIN per p USING (doc_id)"
    )


# --------------------------------------------------------------------------
# language-ID confusion matrix (gold label × prediction)
# --------------------------------------------------------------------------


def q_langid_confusion(sf_dir: str):
    """LANGUAGE-ID QUALITY AUDIT: the confusion matrix of the stopword-
    profile detector against the fixture's gold ``lang`` labels — one row
    per observed (lang, lang_pred) cell with its document count. The
    audit run before trusting the detector's output as a mixing key
    (``lang_token_budget`` et al. consume lang_pred downstream).

    Scale shape: pure map-side — each batch reduces to at most
    |langs|·(|profiles|+1) partial rows, and the final shuffle moves only
    those cells (matrix-bounded). The oracle splices the SAME langid SQL
    the ``langid_detect`` query is checked against (oracles_ext), so the
    heuristic's argmax/tie-break semantics are pinned in one place."""
    import ray.data as rd

    from ..functions.text import lang_quality_batch

    def cells(batch: pa.Table) -> pa.Table:
        import pandas as pd

        g = (
            pd.DataFrame(
                {
                    "lang": batch["lang"].to_pylist(),
                    "lang_pred": lang_quality_batch(
                        batch["text"].to_pylist()
                    )["lang"],
                }
            )
            .groupby(["lang", "lang_pred"], sort=False)
            .size()
            .reset_index(name="n_docs")
        )
        g["n_docs"] = g["n_docs"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    return (
        rd.read_parquet(_p(sf_dir, "documents"), columns=["lang", "text"])
        .map_batches(cells, batch_format="pyarrow")
        .groupby(["lang", "lang_pred"])
        .sum("n_docs")
        .map_batches(
            lambda b: pa.table(
                {
                    "lang": b["lang"],
                    "lang_pred": b["lang_pred"],
                    "n_docs": b["sum(n_docs)"],
                }
            ),
            batch_format="pyarrow",
        )
    )


# --------------------------------------------------------------------------
# embedding centroid-dot outliers (bottom-1% against the corpus direction)
# --------------------------------------------------------------------------


def q_embedding_centroid_outliers(sf_dir: str):
    """EMBEDDING OUTLIER FILTER: the bottom-1% of vectors by alignment
    with the corpus centroid direction — the cheap first-pass anomaly
    gate (mislabeled/corrupt vectors point away from the bulk). The
    fixture's vectors are unit-normalized, so norm-based outliers are
    degenerate; the centroid dot is the meaningful signal. Score is
    INTEGER-exact and division-free: with mi = micro-quantized
    components (the embedding_norm_stats discipline) and S_d = Σ over
    ALL vectors of mi_d (the UN-normalized integer centroid),

      dot_sum(v) = Σ_d mi_d(v) · S_d

    — order-free integer arithmetic, monotone in cosine-to-centroid for
    unit vectors. Output: the k = ceil(n/100) = (n+99)//100 lowest by
    (dot_sum asc, vec_id asc), as (vec_id, dot_sum).

    Scale shape: pass 1 reduces each batch to ONE per-dim int64 sum row
    (dim-bounded shuffle: one row per batch); S broadcasts as one
    int64[dim]; pass 2 is a per-batch integer matmul emitting a partial
    bottom-k (global bottom-k ⊆ union of per-batch bottom-k), finished
    on a k×n_batches-bounded frame. int64 headroom: |dot_sum| ≤
    dim·max|mi|²·n ≈ 6·10¹⁴ at fixture scale; past ~10⁸ vectors the
    accumulator must widen (the oracle already computes in HUGEINT)."""
    import ray.data as rd

    from ..stages.ann import _batch_embeddings

    def dim_sums(batch: pa.Table) -> pa.Table:
        mi = np.floor(
            _batch_embeddings(batch) * 1_000_000.0 + 0.5
        ).astype(np.int64)
        s = mi.sum(axis=0)
        return pa.table(
            {
                "dim": pa.array(np.arange(len(s), dtype=np.int64)),
                "s": pa.array(s, pa.int64()),
            }
        )

    emb = rd.read_parquet(_p(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    sd = (
        emb.map_batches(dim_sums, batch_format="pyarrow")
        .groupby("dim")
        .sum("s")
        .to_pandas()  # dim-bounded
        .sort_values("dim")
    )
    S = sd["sum(s)"].to_numpy(np.int64)
    n = int(emb.count())
    k = (n + 99) // 100

    def bottomk(batch: pa.Table) -> pa.Table:
        mi = np.floor(
            _batch_embeddings(batch) * 1_000_000.0 + 0.5
        ).astype(np.int64)
        dots = mi @ S
        ids = batch["vec_id"].to_numpy()
        order = np.lexsort((ids, dots))[:k]
        return pa.table(
            {
                "vec_id": pa.array(ids[order].astype(np.int64), pa.int64()),
                "dot_sum": pa.array(dots[order].astype(np.int64), pa.int64()),
            }
        )

    pool = emb.map_batches(bottomk, batch_format="pyarrow").to_pandas()
    out = pool.sort_values(["dot_sum", "vec_id"]).head(k)
    return pa.table(
        {
            "vec_id": pa.array(out["vec_id"].to_numpy(np.int64), pa.int64()),
            "dot_sum": pa.array(out["dot_sum"].to_numpy(np.int64), pa.int64()),
        }
    )


def _centroid_outliers_sql() -> str:
    return (
        "WITH m AS (SELECT vec_id, list_transform(embedding, "
        "x -> CAST(FLOOR(CAST(x AS DOUBLE)*1000000 + 0.5) AS BIGINT)) AS mi "
        "FROM embeddings), "
        "pos AS (SELECT vec_id, i, mi[i] AS v FROM m, "
        "unnest(range(1, len(mi) + 1)) AS t(i)), "
        "s AS (SELECT i, CAST(SUM(v) AS HUGEINT) AS sd FROM pos GROUP BY 1), "
        "sc AS (SELECT p.vec_id, SUM(CAST(p.v AS HUGEINT) * s.sd) AS dot "
        "FROM pos p JOIN s USING (i) GROUP BY 1), "
        "n AS (SELECT COUNT(*) AS n FROM m) "
        "SELECT vec_id, CAST(dot AS BIGINT) AS dot_sum FROM sc, n "
        "QUALIFY ROW_NUMBER() OVER (ORDER BY dot ASC, vec_id ASC) "
        "<= (n.n + 99) // 100"
    )


# --------------------------------------------------------------------------
# bigram language-model document scoring (CCNet-style perplexity proxy)
# --------------------------------------------------------------------------


def q_doc_bigram_logprob(sf_dir: str):
    """Bigram language-model scoring with add-one (Laplace) smoothing: per
    document, the summed log10 P(b|a) over its consecutive token pairs,
    P(b|a) = (c(a,b)+1)/(ctx(a)+V) — the CCNet/KenLM-style perplexity
    proxy one tier above ``doc_unigram_logprob``. Docs with <2 tokens
    emit nothing (no bigrams), mirroring the unigram query's empty-doc
    rule. Output: (doc_id, n_bigrams, logprob_micro).

    Scale shape: context counts ctx(a) and the vocabulary size V are
    token-vocabulary-bounded (one small shuffle + a broadcast, the same
    cost class as the unigram LM); the corpus-shaped work is ONE
    bigram-hash-bucketed shuffle of (doc_id, bigram, n) rows — inside a
    bucket every occurrence of a bigram is co-located, so c(a,b), the
    smoothed lp, and per-doc partial sums all happen in one vectorized
    pass; the final groupby is doc-bounded. The bigram LM itself is never
    broadcast (unlike the unigram lp map) — at web scale the bigram
    vocabulary is corpus-shaped and must stay sharded.

    Reference: no LM scoring exists in the reference (its text scoring is
    the shares/pubtime ranker, RankerBolt.java:78-92); this is the build
    brief's quality-scoring tier."""
    bg_buckets = derive_buckets(_p(sf_dir, "documents"), floor=64)
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .queries import TOKEN_RE

    docs = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])

    # pass 1 (vocabulary-bounded): ctx(a) = occurrences of token a as a
    # bigram head, V = |distinct tokens| (including bigram-less docs')
    def vocab_partial(batch: pa.Table) -> pa.Table:
        from collections import Counter

        ctx: Counter = Counter()
        toks: set = set()
        for t in batch["text"].to_pylist():
            tk = TOKEN_RE.findall(t.lower())
            toks.update(tk)
            ctx.update(tk[:-1])
        keys = sorted(toks)
        return pa.table(
            {
                "token": pa.array(keys, pa.string()),
                "pc": pa.array([ctx.get(k, 0) for k in keys], pa.int64()),
                "one": pa.array(np.ones(len(keys), np.int64), pa.int64()),
            }
        )

    vt = (
        docs.map_batches(vocab_partial, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("pc", alias_name="ctx"))
        .to_pandas()  # |vocab| rows
    )
    v_size = len(vt)
    ctx_ref = ray.put(
        (
            vt["token"].to_numpy(str),
            vt["ctx"].to_numpy(np.int64),
        )
    )

    def bigram_rows(batch: pa.Table) -> pa.Table:
        from collections import Counter

        out_g, out_d, out_n = [], [], []
        for d, t in zip(batch["doc_id"].to_numpy(), batch["text"].to_pylist()):
            tk = TOKEN_RE.findall(t.lower())
            if len(tk) < 2:
                continue
            c = Counter(
                tk[i] + " " + tk[i + 1] for i in range(len(tk) - 1)
            )
            for g, n in c.items():
                out_g.append(g)
                out_d.append(int(d))
                out_n.append(n)
        return pa.table(
            {
                "bigram": pa.array(out_g, pa.string()),
                "doc_id": pa.array(out_d, pa.int64()),
                "n": pa.array(out_n, pa.int64()),
            }
        )

    def score_bucket(g) -> pa.Table:
        tokens_s, ctx_c = ray.get(ctx_ref)
        bg = g["bigram"].to_numpy(object).astype(str)
        n = g["n"].to_numpy(np.int64)
        did = g["doc_id"].to_numpy(np.int64)
        # c(a,b): every occurrence of a bigram is in this bucket
        uniq, inv = np.unique(bg, return_inverse=True)
        c_ab = np.bincount(inv, weights=n).astype(np.int64)
        heads = np.array([u.split(" ", 1)[0] for u in uniq], object).astype(str)
        pos = np.searchsorted(tokens_s, heads)
        ctx_a = ctx_c[np.clip(pos, 0, max(len(tokens_s) - 1, 0))]
        lp_u = np.floor(
            np.log10((c_ab + 1.0) / (ctx_a + float(v_size))) * 1_000_000 + 0.5
        ).astype(np.int64)
        # per-doc partials inside the bucket
        import pandas as pd

        part = (
            pd.DataFrame({"doc_id": did, "pn": n, "plp": lp_u[inv] * n})
            .groupby("doc_id", sort=False)
            .sum()
            .reset_index()
        )
        return pa.table(
            {
                "doc_id": pa.array(part["doc_id"].to_numpy(np.int64), pa.int64()),
                "pn": pa.array(part["pn"].to_numpy(np.int64), pa.int64()),
                "plp": pa.array(part["plp"].to_numpy(np.int64), pa.int64()),
            }
        )

    return (
        cogroup(
            docs.map_batches(bigram_rows, batch_format="pyarrow"),
            "bigram",
            score_bucket,
            bg_buckets,
        )
        .groupby("doc_id")
        .aggregate(
            Sum("pn", alias_name="n_bigrams"),
            Sum("plp", alias_name="logprob_micro"),
        )
    )


def _bigram_lp_sql() -> str:
    tok = "regexp_extract_all(lower(text), '[a-z0-9]+')"
    return (
        f"WITH tok AS (SELECT doc_id, {tok} AS l FROM documents), "
        "bg AS (SELECT doc_id, unnest(list_transform(range(1, len(l)), "
        "i -> l[CAST(i AS INT)] || ' ' || l[CAST(i AS INT)+1])) AS bigram "
        "FROM tok WHERE len(l) >= 2), "
        "cb AS (SELECT bigram, COUNT(*) AS c FROM bg GROUP BY 1), "
        "ctx AS (SELECT split_part(bigram, ' ', 1) AS a, "
        "CAST(SUM(c) AS BIGINT) AS ca FROM cb GROUP BY 1), "
        "vocab AS (SELECT COUNT(DISTINCT t) AS v FROM "
        "(SELECT unnest(l) AS t FROM tok)), "
        "lp AS (SELECT bigram, CAST(FLOOR(LOG10((cb.c + 1.0) / "
        "(ctx.ca + vocab.v)) * 1000000 + 0.5) AS BIGINT) AS lp "
        "FROM cb JOIN ctx ON ctx.a = split_part(cb.bigram, ' ', 1) "
        "CROSS JOIN vocab) "
        "SELECT doc_id, COUNT(*) AS n_bigrams, "
        "CAST(SUM(lp.lp) AS BIGINT) AS logprob_micro "
        "FROM bg JOIN lp USING (bigram) GROUP BY doc_id"
    )


# --------------------------------------------------------------------------
# novel n-gram fraction (first-occurrence novelty)
# --------------------------------------------------------------------------

NOVEL_W = 8  # word-gram width — same as the decontamination standard


def q_doc_novel_grams(sf_dir: str):
    """FIRST-OCCURRENCE NOVELTY: for each document, the fraction of its
    distinct word-8-grams whose corpus-wide first occurrence (minimum
    doc_id) is this document — the dedup-effectiveness / freshness signal
    (a doc full of already-seen grams is boilerplate-shaped even when no
    single document duplicates it). Output: (doc_id, n_grams, n_novel,
    novel_ppm); docs with <8 tokens emit nothing.

    Scale shape: ONE gram-hash-bucketed shuffle of distinct (doc_id,
    gram) pairs (the chunk_dedup_groups exchange); inside a bucket the
    owning min-doc per gram and the per-doc partial counts are one
    lexsort pass; the final groupby is doc-bounded. Gram strings shuffle
    verbatim (exact, like chunk_dedup_groups) rather than as 64-bit
    hashes, so the oracle's string grouping is replayed literally."""
    gram_buckets = derive_buckets(_p(sf_dir, "documents"), floor=64)
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .queries import TOKEN_RE

    def gram_rows(batch: pa.Table) -> pa.Table:
        out_g, out_d = [], []
        for d, t in zip(batch["doc_id"].to_numpy(), batch["text"].to_pylist()):
            tk = TOKEN_RE.findall(t.lower())
            if len(tk) < NOVEL_W:
                continue
            grams = {
                " ".join(tk[i : i + NOVEL_W])
                for i in range(len(tk) - NOVEL_W + 1)
            }
            for g in grams:
                out_g.append(g)
                out_d.append(int(d))
        return pa.table(
            {
                "gram": pa.array(out_g, pa.string()),
                "doc_id": pa.array(out_d, pa.int64()),
            }
        )

    def novelty_bucket(g) -> pa.Table:
        import pandas as pd

        gram = g["gram"].to_numpy(object).astype(str)
        did = g["doc_id"].to_numpy(np.int64)
        uniq, inv = np.unique(gram, return_inverse=True)
        owner = np.full(len(uniq), np.iinfo(np.int64).max, np.int64)
        np.minimum.at(owner, inv, did)
        part = (
            pd.DataFrame({"doc_id": did, "pn": 1, "pnov": (owner[inv] == did).astype(np.int64)})
            .groupby("doc_id", sort=False)
            .sum()
            .reset_index()
        )
        return pa.table(
            {
                "doc_id": pa.array(part["doc_id"].to_numpy(np.int64), pa.int64()),
                "pn": pa.array(part["pn"].to_numpy(np.int64), pa.int64()),
                "pnov": pa.array(part["pnov"].to_numpy(np.int64), pa.int64()),
            }
        )

    def finish(batch: pa.Table) -> pa.Table:
        n = batch["n_grams"].to_numpy().astype(np.int64)
        nov = batch["n_novel"].to_numpy().astype(np.int64)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_grams": pa.array(n, pa.int64()),
                "n_novel": pa.array(nov, pa.int64()),
                "novel_ppm": pa.array(nov * 1_000_000 // n, pa.int64()),
            }
        )

    return (
        cogroup(
            rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
            .map_batches(gram_rows, batch_format="pyarrow"),
            "gram",
            novelty_bucket,
            gram_buckets,
        )
        .groupby("doc_id")
        .aggregate(
            Sum("pn", alias_name="n_grams"),
            Sum("pnov", alias_name="n_novel"),
        )
        .map_batches(finish, batch_format="pyarrow")
    )


def _novel_grams_sql() -> str:
    tok = "regexp_extract_all(lower(text), '[a-z0-9]+')"
    return (
        f"WITH tok AS (SELECT doc_id, {tok} AS l FROM documents), "
        f"g AS (SELECT DISTINCT doc_id, unnest(list_transform(range(1, len(l) - {NOVEL_W - 2}), "
        f"i -> array_to_string(l[CAST(i AS INT):CAST(i AS INT)+{NOVEL_W - 1}], ' '))) AS gram "
        f"FROM tok WHERE len(l) >= {NOVEL_W}), "
        "own AS (SELECT gram, MIN(doc_id) AS owner FROM g GROUP BY 1) "
        "SELECT doc_id, COUNT(*) AS n_grams, "
        "CAST(SUM(CASE WHEN own.owner = g.doc_id THEN 1 ELSE 0 END) AS BIGINT) AS n_novel, "
        "CAST(SUM(CASE WHEN own.owner = g.doc_id THEN 1 ELSE 0 END) * 1000000 "
        "// COUNT(*) AS BIGINT) AS novel_ppm "
        "FROM g JOIN own USING (gram) GROUP BY doc_id"
    )


# --------------------------------------------------------------------------
# directed Jaccard-containment near-dup pairs (Broder containment)
# --------------------------------------------------------------------------

CONTAIN_NUM, CONTAIN_DEN = 7, 10  # C(a→b) ≥ 0.7


def q_containment_dup_pairs(sf_dir: str):
    """DIRECTED CONTAINMENT self-join (Broder 1997's second resemblance
    measure): pairs (doc_a, doc_b) where C(a→b) = |A∩B| / |A| ≥ 0.7 over
    word-3-gram shingle sets — the subset/quote-expansion detector that
    symmetric Jaccard structurally misses (a short doc fully embedded in
    a long one has tiny Jaccard but containment ≈ 1). Output: (doc_a,
    doc_b, containment_ppm), doc_a the CONTAINED side, both directions
    possible for identical docs.

    Scale shape: candidate generation is COMPLETE by the asymmetric
    prefix-filter rule — C(a→b) ≥ t forces |A∩B| ≥ ⌈t·|A|⌉, so A's
    size-(|A| − ⌈t·|A|⌉ + 1) prefix (in the canonical hash order) must
    intersect B's FULL set. One shingle-hash-bucketed shuffle co-locates
    prefix rows with full rows; per-bucket bipartite pairing is
    prefix×full (≈ (1−t)·|A| of the index volume on the probe side);
    candidates are pairs-shaped and exact-verified against the
    output-bounded shingle store. Same skew discipline as
    allpairs_jaccard_pairs: no silent caps — a hot shingle costs its
    true bipartite product. Reference: no content dedup exists in the
    reference (StatusCheckBolt is id-equality only); brief addition."""
    import math

    import ray
    import ray.data as rd

    from ..functions.hashing import word_ngram_hashes

    buckets = derive_buckets(_p(sf_dir, "documents"), floor=64)
    docs = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])

    def explode(batch: pa.Table) -> pa.Table:
        out_s, out_d, out_p = [], [], []
        for did, text in zip(batch["doc_id"].to_numpy(), batch["text"].to_pylist()):
            h = word_ngram_hashes(text, 3)  # sorted unique uint64
            n = len(h)
            if n == 0:
                continue
            plen = n - math.ceil(CONTAIN_NUM * n / CONTAIN_DEN) + 1
            hi = h.view(np.int64)
            out_s.append(hi)
            out_d.append(np.full(n, did, np.int64))
            pref = np.zeros(n, np.int64)
            pref[:plen] = 1  # h is sorted: the prefix is the first plen hashes
            out_p.append(pref)
        if not out_s:
            return pa.table(
                {
                    "shingle": pa.array([], pa.int64()),
                    "doc_id": pa.array([], pa.int64()),
                    "is_prefix": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "shingle": pa.array(np.concatenate(out_s), pa.int64()),
                "doc_id": pa.array(np.concatenate(out_d), pa.int64()),
                "is_prefix": pa.array(np.concatenate(out_p), pa.int64()),
            }
        )

    def cands(g) -> pa.Table:
        sh = g["shingle"].to_numpy(np.int64)
        did = g["doc_id"].to_numpy(np.int64)
        pref = g["is_prefix"].to_numpy(np.int64)
        order = np.argsort(sh, kind="stable")
        sh, did, pref = sh[order], did[order], pref[order]
        starts = np.r_[0, np.flatnonzero(sh[1:] != sh[:-1]) + 1, len(sh)]
        pa_l, pb_l = [], []
        for s, e in zip(starts[:-1], starts[1:]):
            pd_ = did[s:e][pref[s:e] == 1]
            if len(pd_) == 0 or e - s < 2:
                continue
            fd = did[s:e]
            a = np.repeat(pd_, len(fd))
            b = np.tile(fd, len(pd_))
            keep = a != b
            pa_l.append(a[keep])
            pb_l.append(b[keep])
        if not pa_l:
            return pa.table(
                {"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64())}
            )
        ab = np.unique(
            np.stack([np.concatenate(pa_l), np.concatenate(pb_l)], axis=1), axis=0
        )
        return pa.table(
            {
                "doc_a": pa.array(ab[:, 0], pa.int64()),
                "doc_b": pa.array(ab[:, 1], pa.int64()),
            }
        )

    cand = (
        cogroup(
            docs.map_batches(explode, batch_format="pyarrow"), "shingle", cands, buckets
        )
        .to_pandas()  # candidate pairs — pairs-shaped, the
        # _pairs_distributed output contract (bounded by true pair volume
        # × prefix redundancy, never corpus-shaped)
    )
    empty = pa.table(
        {
            "doc_a": pa.array([], pa.int64()),
            "doc_b": pa.array([], pa.int64()),
            "containment_ppm": pa.array([], pa.int64()),
        }
    )
    if cand.empty:
        return rd.from_arrow(empty)
    ab = np.unique(
        np.stack(
            [cand["doc_a"].to_numpy(np.int64), cand["doc_b"].to_numpy(np.int64)],
            axis=1,
        ),
        axis=0,
    )
    from ..stages.dedup import _shingle_hash_store

    involved = np.unique(ab)
    store_ids, store_offs, store_vals = _shingle_hash_store(docs, involved, "word3")
    store_ref = ray.put((store_ids, store_offs, store_vals))

    def verify(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ids, offs, vals = ray.get(store_ref)
        a = batch["doc_a"].to_numpy()
        b = batch["doc_b"].to_numpy()
        ia = np.searchsorted(ids, a)
        ib = np.searchsorted(ids, b)
        cm = np.empty(len(a), np.int64)
        keep = np.zeros(len(a), bool)
        for r in range(len(a)):
            ha = vals[offs[ia[r]] : offs[ia[r] + 1]]
            hb = vals[offs[ib[r]] : offs[ib[r] + 1]]
            if len(ha) == 0:
                continue
            pos = np.clip(np.searchsorted(hb, ha), 0, max(0, len(hb) - 1))
            inter = int(np.count_nonzero((hb[pos] == ha) if len(hb) else np.zeros(0, bool)))
            keep[r] = inter * CONTAIN_DEN >= CONTAIN_NUM * len(ha)
            cm[r] = int(np.floor(inter / len(ha) * 1e6 + 0.5))
        out = pa.table(
            {
                "doc_a": batch["doc_a"],
                "doc_b": batch["doc_b"],
                "containment_ppm": pa.array(cm, pa.int64()),
                "k": pa.array(keep),
            }
        )
        return out.filter(pc.equal(out["k"], True)).select(
            ["doc_a", "doc_b", "containment_ppm"]
        )

    pair_tbl = pa.table(
        {"doc_a": pa.array(ab[:, 0], pa.int64()), "doc_b": pa.array(ab[:, 1], pa.int64())}
    )
    n_blocks = max(1, min(64, len(ab) // 8192))
    return rd.from_arrow(pair_tbl, override_num_blocks=n_blocks).map_batches(
        verify, batch_format="pyarrow"
    )


def _containment_sql() -> str:
    from .oracles_ext import _WORD3_CTE

    return (
        f"WITH {_WORD3_CTE}, "
        "d AS (SELECT DISTINCT doc_id, s FROM sh), "
        "sz AS (SELECT doc_id, COUNT(*) AS n FROM d GROUP BY doc_id), "
        "inter AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, COUNT(*) AS i "
        "FROM d a JOIN d b ON a.s = b.s AND a.doc_id <> b.doc_id GROUP BY 1, 2) "
        "SELECT doc_a, doc_b, "
        "CAST(FLOOR(CAST(i AS DOUBLE)/sa.n*1000000 + 0.5) AS BIGINT) AS containment_ppm "
        "FROM inter JOIN sz sa ON sa.doc_id = doc_a "
        f"WHERE i * {CONTAIN_DEN} >= {CONTAIN_NUM} * sa.n"
    )


# --------------------------------------------------------------------------
# weighted reservoir sampling (Efraimidis–Spirakis exponential keys)
# --------------------------------------------------------------------------

WS_K = 32  # sample size per source
_WS_KNUTH = 2654435761  # the multiplicative hash lang_sample_topk pins


def q_source_weighted_sample(sf_dir: str):
    """WEIGHTED sampling without replacement (Efraimidis–Spirakis A-ES,
    IPL 2006): per source, keep the ``WS_K`` docs with the smallest
    exponential key e/w, where e = −ln(u) with u a deterministic
    multiplicative-hash uniform and w = n_chars — longer docs
    proportionally likelier, the size-weighted data-mixing primitive one
    tier above the uniform ``lang_sample_topk``. Output (source, doc_id,
    wkey, sample_rank); zero-length docs are excluded (zero weight).

    Determinism/oracle discipline: u = ((doc_id·2654435761) mod 2³² + 1)
    / 2³² (never 0), e is floored at MICRO scale (−ln(u)·10⁶ ≤ 2.3e7 —
    well inside the float-replay envelope the unigram-LM oracle
    established; a 1e12 scale would put libm's last-ulp differences above
    the floor threshold), and the sort key is the exact integer
    e·10⁶ // w. Scale shape: identical to lang_sample_topk — per-batch
    bottom-k per source prunes the shuffle to k × sources × blocks rows,
    the key is order-free so partial bottom-k is exact on any block
    split."""
    import ray.data as rd

    def partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        ids = batch["doc_id"].to_numpy().astype(np.int64)
        w = batch["n_chars"].to_numpy().astype(np.int64)
        keep = w > 0
        ids, w = ids[keep], w[keep]
        src = np.asarray(batch["source"].to_pylist(), object)[keep]
        u = (
            ((ids.astype(np.uint64) * np.uint64(_WS_KNUTH)) % np.uint64(1 << 32)).astype(
                np.float64
            )
            + 1.0
        ) / float(1 << 32)
        e = np.floor(-np.log(u) * 1_000_000).astype(np.int64)
        wkey = e * 1_000_000 // w
        df = pd.DataFrame({"source": src, "doc_id": ids, "wkey": wkey})
        df = df.sort_values(["source", "wkey", "doc_id"], kind="stable")
        df = df[df.groupby("source", sort=False).cumcount() < WS_K]
        return pa.Table.from_pandas(df, preserve_index=False)

    def finish(g) -> "pa.Table":
        g = g.sort_values(["wkey", "doc_id"], kind="stable").head(WS_K)
        g = g.reset_index(drop=True)
        return pa.table(
            {
                "source": pa.array(g["source"].tolist(), pa.string()),
                "doc_id": pa.array(g["doc_id"].to_numpy(np.int64), pa.int64()),
                "wkey": pa.array(g["wkey"].to_numpy(np.int64), pa.int64()),
                "sample_rank": pa.array(np.arange(len(g), dtype=np.int64), pa.int64()),
            }
        )

    return (
        rd.read_parquet(
            _p(sf_dir, "documents"), columns=["doc_id", "source", "n_chars"]
        )
        .map_batches(partial, batch_format="pyarrow")
        .groupby("source")
        .map_groups(finish, batch_format="pandas")
    )


def _weighted_sample_sql() -> str:
    return (
        "WITH k AS (SELECT source, doc_id, "
        f"CAST(FLOOR(-LN((((doc_id * {_WS_KNUTH}) % 4294967296) + 1.0) "
        "/ 4294967296) * 1000000) AS BIGINT) * 1000000 // n_chars AS wkey "
        "FROM documents WHERE n_chars > 0) "
        "SELECT source, doc_id, wkey, "
        "CAST(ROW_NUMBER() OVER (PARTITION BY source ORDER BY wkey, doc_id) "
        "- 1 AS BIGINT) AS sample_rank FROM k "
        "QUALIFY ROW_NUMBER() OVER (PARTITION BY source ORDER BY wkey, doc_id) "
        f"<= {WS_K}"
    )


# --------------------------------------------------------------------------
# per-source token-distribution entropy (corpus diversity audit)
# --------------------------------------------------------------------------


def q_source_token_entropy(sf_dir: str):
    """SHANNON ENTROPY of each source's token distribution (micro-nats in
    log10 — i.e. Hartleys×10⁶): H_s = −Σ_t (c_t/T_s)·log10(c_t/T_s),
    reported as (source, n_tokens, n_types, entropy_micro) — the
    diversity/degeneracy audit (a boilerplate-heavy source shows low
    entropy for its size; compare against log10(n_types) as the maximum).

    Integer discipline: per-token lp_t = floor(log10(c_t/T_s)·10⁶ + 0.5)
    (the unigram-LM float-replay envelope), then
    entropy_micro = −(Σ_t c_t·lp_t) // T_s in exact big-int arithmetic —
    the only float is the same last-ulp-safe log10 both engines replay.

    Scale shape: one (source, token) count shuffle (vocabulary × sources
    bounded, map-side partial counts), then a per-source vectorized
    finisher on the vocabulary-sized frame. Reference: no corpus
    analytics exist in the reference; brief addition."""
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

    def finish(g) -> pa.Table:
        c = g["c"].to_numpy(np.int64)
        t = int(c.sum())
        lp = np.floor(np.log10(c / float(t)) * 1_000_000 + 0.5).astype(np.int64)
        # divide a POSITIVE sum (−lp ≥ 0): floor-vs-truncate division
        # semantics then agree between Python and DuckDB's `//`. The
        # product accumulates in PYTHON ints (object dtype): Σ c·(−lp)
        # wraps int64 once a source passes ~10¹² tokens, and the oracle
        # sums in HUGEINT (the lang_token_fertility ADVICE-r4 fix).
        ent = int((c.astype(object) * (-lp).astype(object)).sum()) // t
        return pa.table(
            {
                "source": pa.array([str(g["source"].iloc[0])], pa.string()),
                "n_tokens": pa.array([t], pa.int64()),
                "n_types": pa.array([len(c)], pa.int64()),
                "entropy_micro": pa.array([ent], pa.int64()),
            }
        )

    return (
        rd.read_parquet(_p(sf_dir, "documents"), columns=["source", "text"])
        .map_batches(partials, batch_format="pyarrow")
        .groupby(["source", "token"])
        .aggregate(Sum("pc", alias_name="c"))
        .groupby("source")
        .map_groups(finish, batch_format="pandas")
    )


def _entropy_sql() -> str:
    return (
        "WITH tok AS (SELECT source, "
        "unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS token "
        "FROM documents), "
        "uc AS (SELECT source, token, CAST(COUNT(*) AS BIGINT) AS c "
        "FROM tok GROUP BY 1, 2), "
        "tot AS (SELECT source, CAST(SUM(c) AS BIGINT) AS t, "
        "CAST(COUNT(*) AS BIGINT) AS n_types FROM uc GROUP BY 1), "
        "lp AS (SELECT uc.source, uc.c, "
        "CAST(FLOOR(LOG10(CAST(uc.c AS DOUBLE)/tot.t)*1000000 + 0.5) AS BIGINT) AS lp "
        "FROM uc JOIN tot USING (source)) "
        "SELECT lp.source, tot.t AS n_tokens, tot.n_types, "
        "CAST(SUM(CAST(lp.c AS HUGEINT) * -lp.lp) // tot.t AS BIGINT) AS entropy_micro "
        "FROM lp JOIN tot ON tot.source = lp.source "
        "GROUP BY lp.source, tot.t, tot.n_types"
    )


# --------------------------------------------------------------------------
# split-leakage audit (near-dup pairs crossing the train/val/test boundary)
# --------------------------------------------------------------------------


def q_split_leakage_pairs(sf_dir: str):
    """EVAL-HYGIENE AUDIT: near-duplicate document pairs whose members
    land in DIFFERENT train/val/test splits — the leakage a random split
    always creates (a test doc with a train near-dup inflates eval).
    Composes two already-oracled operators: the EXACT AllPairs word-3-gram
    Jaccard ≥ 0.5 self-join and doc_split_assign's multiplicative-hash
    split rule. Output: (doc_a, doc_b, split_a, split_b, jaccard_micro),
    cross-split pairs only, doc_a < doc_b.

    Scale shape: rides allpairs_jaccard_pairs (complete prefix-filter
    candidates + distributed exact verify); the split labels are a pure
    map-side hash of the ids already in the pair rows — no extra scan, no
    extra shuffle. Reference: n/a (brief addition; the audit every
    training-data release runs before publishing a split)."""
    from .queries import _allpairs_word3_cached
    from .queries_ml3 import SPLIT_MULT, SPLIT_TRAIN_PCT, SPLIT_VAL_PCT

    def label(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        def split_of(ids: np.ndarray) -> np.ndarray:
            h = (ids.astype(np.int64) * SPLIT_MULT) % (1 << 32) % 100
            return np.where(
                h < SPLIT_TRAIN_PCT,
                "train",
                np.where(h < SPLIT_VAL_PCT, "val", "test"),
            )

        sa = split_of(batch["doc_a"].to_numpy())
        sb = split_of(batch["doc_b"].to_numpy())
        out = pa.table(
            {
                "doc_a": batch["doc_a"],
                "doc_b": batch["doc_b"],
                "split_a": pa.array(sa.tolist(), pa.string()),
                "split_b": pa.array(sb.tolist(), pa.string()),
                "jaccard_micro": batch["jaccard_micro"],
            }
        )
        return out.filter(pc.invert(pc.equal(out["split_a"], out["split_b"])))

    pairs = _allpairs_word3_cached(sf_dir)
    return label(
        pa.table(
            {
                c: pa.array(pairs[c].to_numpy(np.int64), pa.int64())
                for c in ("doc_a", "doc_b", "jaccard_micro")
            }
        )
    )


def _split_leakage_sql() -> str:
    from .oracles_ext import _WORD3_CTE, _jaccard_pairs_sql
    from .queries_ml3 import SPLIT_MULT, SPLIT_TRAIN_PCT, SPLIT_VAL_PCT

    case = (
        f"CASE WHEN ({{c}} * {SPLIT_MULT}) % 4294967296 % 100 "
        f"< {SPLIT_TRAIN_PCT} THEN 'train' "
        f"WHEN ({{c}} * {SPLIT_MULT}) % 4294967296 % 100 "
        f"< {SPLIT_VAL_PCT} THEN 'val' ELSE 'test' END"
    )
    return (
        f"WITH pairs AS ({_jaccard_pairs_sql(_WORD3_CTE, 1, 2)}) "
        f"SELECT doc_a, doc_b, {case.format(c='doc_a')} AS split_a, "
        f"{case.format(c='doc_b')} AS split_b, jaccard_micro FROM pairs "
        f"WHERE {case.format(c='doc_a')} <> {case.format(c='doc_b')}"
    )


# --------------------------------------------------------------------------
# upsert-sink round-trip (keyed_merge_write → read_upserted == argmax SQL)
# --------------------------------------------------------------------------


def q_events_upsert_roundtrip(sf_dir: str):
    """UPSERT SINK ROUND-TRIP: the WebPagesUpdaterBolt/MediaUpdaterBolt
    keyed-merge semantics (stages/sink.py — last-write-wins per key,
    bucket-partitioned parquet, merge-on-read across generations) proven
    equal to the declarative argmax: events split into two generations
    (even/odd event_id), each upserted by user_id with version
    v = ms·2²² + event_id (the oracle's (ms DESC, event_id DESC) order as
    ONE integer; loud overflow guard), then merged on read. Output
    (user_id, event_id, ms) — byte-equal to latest_event_per_user's SQL.

    Scale shape: each generation's dedup is one user-bucketed shuffle;
    the write is partitioned parquet (one directory per bucket — the
    resumable layout); merge-on-read unions G generations and keeps the
    max-version row per key. The physical write/read cycle is the point:
    this is the engine's sink path under oracle check, not a cached
    frame."""
    import os
    import shutil

    import ray.data as rd

    from .. import cache
    from ..stages.sink import keyed_merge_write, read_upserted

    base = cache.key("upsert", _p(sf_dir, "events"))  # scratch, per corpus
    shutil.rmtree(base, ignore_errors=True)  # re-runs must not append

    def prep(batch: pa.Table) -> pa.Table:
        ms = batch["ts"].cast(pa.int64()).to_numpy() // 1000
        eid = batch["event_id"].to_numpy().astype(np.int64)
        if eid.max(initial=0) >= (1 << 22):
            raise ValueError(
                "event_id exceeds the 22-bit version-composite headroom — "
                "widen the composite before running at this scale"
            )
        return pa.table(
            {
                "user_id": batch["user_id"],
                "event_id": pa.array(eid, pa.int64()),
                "ms": pa.array(ms, pa.int64()),
                "v": pa.array(ms * (1 << 22) + eid, pa.int64()),
            }
        )

    ev = rd.read_parquet(
        _p(sf_dir, "events"), columns=["event_id", "user_id", "ts"]
    ).map_batches(prep, batch_format="pyarrow")
    def parity(want: int):
        def f(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            keep = pc.equal(pc.bit_wise_and(batch["event_id"], 1), want)
            return batch.filter(keep)

        return f

    d0 = keyed_merge_write(
        ev.map_batches(parity(0), batch_format="pyarrow"), "user_id",
        os.path.join(base, "gen0"), version_col="v",
    )
    d1 = keyed_merge_write(
        ev.map_batches(parity(1), batch_format="pyarrow"), "user_id",
        os.path.join(base, "gen1"), version_col="v",
    )

    def out_cols(batch: pa.Table) -> pa.Table:
        return batch.select(["user_id", "event_id", "ms"])

    return read_upserted([d0, d1], "user_id", version_col="v").map_batches(
        out_cols, batch_format="pyarrow"
    )


def _upsert_roundtrip_sql() -> str:
    return (
        "WITH e AS (SELECT user_id, event_id, epoch_ms(ts) AS ms FROM events) "
        "SELECT user_id, event_id, ms FROM e "
        "QUALIFY ROW_NUMBER() OVER (PARTITION BY user_id "
        "ORDER BY ms DESC, event_id DESC) = 1"
    )


# --------------------------------------------------------------------------
# Count-Min Sketch (mergeable counter grid, fully SQL-replayable)
# --------------------------------------------------------------------------

CMS_D, CMS_W = 4, 512  # depth × width — part of the output contract
CMS_MULTS = (31, 37, 41, 43)  # per-row polynomial multipliers
_CMS_MOD = 1 << 31


def _cms_hash(token: str, mult: int) -> int:
    """Byte-fold polynomial hash h = (h·mult + byte) mod 2³¹ — chosen
    because DuckDB replays it exactly via list_reduce over ascii codes
    (verified bit-identical), so the whole sketch is SQL-checkable."""
    h = 0
    for ch in token:
        h = (h * mult + ord(ch)) % _CMS_MOD
    return h


def q_token_cms_estimates(sf_dir: str):
    """COUNT-MIN SKETCH (Cormode & Muthukrishnan 2005): a ``CMS_D``דCMS_W``
    counter grid over the corpus token stream, probed at the top-20 true
    tokens. Output: (token, true_count, cms_estimate) — the one-sided
    overestimate invariant (cms ≥ true) and the collision error are the
    point; this is the mergeable-sketch counterpart of the EXACT
    heavy_hitter_tokens pass.

    Scale shape: each batch folds its token counts into a LOCAL 4×512
    grid and emits only nonzero cells — the shuffle moves ≤ D·W rows per
    batch regardless of vocabulary (the sketch's whole value); cell
    partials merge by integer addition (CMS is exactly mergeable), and
    the probe step reads the final 2048-cell grid driver-side (constant).
    True counts ride the existing vocabulary-bounded count shuffle.
    Oracle: DuckDB rebuilds the identical grid from per-token counts and
    replays the byte-fold hash via list_reduce — bit-exact."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .queries import TOKEN_RE

    docs = rd.read_parquet(_p(sf_dir, "documents"), columns=["text"])

    def grid_partial(batch: pa.Table) -> pa.Table:
        from collections import Counter

        c: Counter = Counter()
        for t in batch["text"].to_pylist():
            c.update(TOKEN_RE.findall(t.lower()))
        grid = np.zeros((CMS_D, CMS_W), np.int64)
        tok_counts: Counter = Counter()
        for tok, n in c.items():
            tok_counts[tok] += n
            for r, m in enumerate(CMS_MULTS):
                grid[r, _cms_hash(tok, m) % CMS_W] += n
        r_idx, j_idx = np.nonzero(grid)
        out = {
            "kind": ["cell"] * len(r_idx) + ["tok"] * len(tok_counts),
            "r": list(r_idx) + [0] * len(tok_counts),
            "j": list(j_idx) + [0] * len(tok_counts),
            "token": [""] * len(r_idx) + list(tok_counts.keys()),
            "pc": [int(grid[r, j]) for r, j in zip(r_idx, j_idx)]
            + list(tok_counts.values()),
        }
        return pa.table(
            {
                "kind": pa.array(out["kind"], pa.string()),
                "r": pa.array(np.asarray(out["r"], np.int64), pa.int64()),
                "j": pa.array(np.asarray(out["j"], np.int64), pa.int64()),
                "token": pa.array(out["token"], pa.string()),
                "pc": pa.array(np.asarray(out["pc"], np.int64), pa.int64()),
            }
        )

    merged = (
        docs.map_batches(grid_partial, batch_format="pyarrow")
        .groupby(["kind", "r", "j", "token"])
        .aggregate(Sum("pc", alias_name="c"))
        .to_pandas()  # ≤ D·W cells + |vocab| token rows — bounded
    )
    cells = merged[merged["kind"] == "cell"]
    grid = np.zeros((CMS_D, CMS_W), np.int64)
    grid[cells["r"].to_numpy(np.int64), cells["j"].to_numpy(np.int64)] = cells[
        "c"
    ].to_numpy(np.int64)
    toks = (
        merged[merged["kind"] == "tok"]
        .sort_values(["c", "token"], ascending=[False, True], kind="stable")
        .head(20)
    )
    est = [
        int(min(grid[r, _cms_hash(t, m) % CMS_W] for r, m in enumerate(CMS_MULTS)))
        for t in toks["token"]
    ]
    return pa.table(
        {
            "token": pa.array(toks["token"].tolist(), pa.string()),
            "true_count": pa.array(toks["c"].to_numpy(np.int64), pa.int64()),
            "cms_estimate": pa.array(np.asarray(est, np.int64), pa.int64()),
        }
    )


def _cms_sql() -> str:
    def hsql(mult: int) -> str:
        return (
            "list_reduce(list_prepend(CAST(0 AS BIGINT), "
            "list_transform(range(1, length(token)+1), "
            "i -> CAST(ascii(substring(token, CAST(i AS INT), 1)) AS BIGINT))), "
            f"(a, b) -> (a * {mult} + b) % {_CMS_MOD}) % {CMS_W}"
        )

    cnts = ", ".join(
        f"cnt{r} AS (SELECT b{r} AS j, CAST(SUM(true_count) AS BIGINT) AS c "
        "FROM tb GROUP BY 1)"
        for r in range(CMS_D)
    )
    joins = " ".join(f"JOIN cnt{r} c{r} ON c{r}.j = p.b{r}" for r in range(CMS_D))
    least = "least(" + ", ".join(f"c{r}.c" for r in range(CMS_D)) + ")"
    bcols = ", ".join(f"{hsql(m)} AS b{r}" for r, m in enumerate(CMS_MULTS))
    return (
        "WITH tok AS (SELECT unnest(regexp_extract_all(lower(text), "
        "'[a-z0-9]+')) AS token FROM documents), "
        "tc AS (SELECT token, CAST(COUNT(*) AS BIGINT) AS true_count "
        "FROM tok GROUP BY 1), "
        f"tb AS (SELECT token, true_count, {bcols} FROM tc), "
        f"{cnts}, "
        "probes AS (SELECT * FROM tb "
        "ORDER BY true_count DESC, token LIMIT 20) "
        f"SELECT p.token, p.true_count, CAST({least} AS BIGINT) AS cms_estimate "
        f"FROM probes p {joins}"
    )


ML6_QUERIES = {
    "bm25_topk": q_bm25_topk,
    "doc_oov_rate": q_doc_oov_rate,
    "source_vocab_overlap": q_source_vocab_overlap,
    "lang_token_fertility": q_lang_token_fertility,
    "dsir_importance_docs": q_dsir_importance_docs,
    "embedding_centroid_outliers": q_embedding_centroid_outliers,
    "langid_confusion": q_langid_confusion,
    "doc_bigram_logprob": q_doc_bigram_logprob,
    "doc_novel_grams": q_doc_novel_grams,
    "containment_dup_pairs": q_containment_dup_pairs,
    "source_weighted_sample": q_source_weighted_sample,
    "source_token_entropy": q_source_token_entropy,
    "split_leakage_pairs": q_split_leakage_pairs,
    "events_upsert_roundtrip": q_events_upsert_roundtrip,
    "token_cms_estimates": q_token_cms_estimates,
}


def build_ml6_oracles() -> dict[str, str]:
    return {
        "bm25_topk": _bm25_sql(),
        "doc_bigram_logprob": _bigram_lp_sql(),
        "doc_novel_grams": _novel_grams_sql(),
        "containment_dup_pairs": _containment_sql(),
        "source_weighted_sample": _weighted_sample_sql(),
        "source_token_entropy": _entropy_sql(),
        "split_leakage_pairs": _split_leakage_sql(),
        "events_upsert_roundtrip": _upsert_roundtrip_sql(),
        "token_cms_estimates": _cms_sql(),
        "doc_oov_rate": _oov_sql(),
        "source_vocab_overlap": _overlap_sql(),
        "lang_token_fertility": _fertility_sql(),
        "dsir_importance_docs": _dsir_sql(),
        "embedding_centroid_outliers": _centroid_outliers_sql(),
    }
