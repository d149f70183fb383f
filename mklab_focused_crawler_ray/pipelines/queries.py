"""Driver-facing query suite over the TPC-H-ish testdata tables.

Each ``q_*`` function is a Ray-Data-first pipeline over
``{sf_dir}/*.parquet``, registered with ``@query(name, oracle)``
(``registry.py``) together with the DuckDB-equivalent SQL the driver runs
side-by-side (CORRECTNESS gate). Importing this module imports the other
query modules, so it fills the registry; ``QUERIES`` is the registry and
``ORACLE_SQL`` a view of its oracles without the extended ones
(``oracles_ext``). Column names and value encodings match EXACTLY by
construction:

- float outputs are emitted as integer micro/cent units computed with the
  identical expression ``floor(x * scale + 0.5)`` on both sides, so hash
  comparison is immune to float-formatting and summation-order differences
  (integer sums are associative; per-row rounding is deterministic).
- token queries use the same regex ``[a-z0-9]+`` over ``lower(text)`` in
  Python ``re`` and DuckDB ``regexp_extract_all``.

Operator lineage (reference parity, SURVEY.md §2):
- ranker_scores / top100_ranked → RankerBolt score + BoundedPQueue top-k
  (bolts/webpages/RankerBolt.java:78-92; utils/BoundedPQueue.java:28-47)
- event_type_counts / contributor_counts / windowed_counts →
  MediaCounterBolt / ItemsCounterBolt grouped counts + EventDetectionBolt
  window assembly (bolts/metrics/MediaCounterBolt.java:66-106;
  bolts/items/EventDetectionBolt.java:54-63)
- token_counts / token_idf → TokenizationBolt + Vocabulary DF/IDF
  (bolts/items/TokenizationBolt.java:126-154; utils/Vocabulary.java:50-70)
- exact_dedup_docs / tokenset_dedup_groups / minhash LSH (rows-only) →
  StatusCheckBolt first-wins dedup generalized to content dedup
  (bolts/media/StatusCheckBolt.java:59-68)
- embedding_top10 → VisualIndexerBolt nearest-neighbor query re-expressed
  as brute-force cosine top-k (bolts/media/VisualIndexerBolt.java:167-171)
- q1_lineitem / revenue_by_priority → generic partial-agg + broadcast-join
  patterns the counter/updater bolts imply at scale
"""

from __future__ import annotations

import os
import re
from functools import partial

import numpy as np
import pyarrow as pa

from .. import cache
from ..scale import cogroup, derive_buckets
from . import oracles_ext
from .oracles_ext import _CHAR5_CTE as _ORACLE_CHAR5_CTE
from .registry import query

NOW_MS = 1_706_745_600_000  # 2024-02-01T00:00:00Z — after the events table's max ts
AVG_TIME_DIFF_MS = 600_000.0
TOKEN_RE = re.compile(r"[a-z0-9]+")
_SCORE_SQL = (
    "(1 - EXP(-0.05*value) + 1)/2 * "
    f"(EXP(-(({NOW_MS} - epoch_ms(ts))/{AVG_TIME_DIFF_MS})) + 1)/2"
)
_TOK_SQL = "regexp_extract_all(lower(text), '[a-z0-9]+')"


def _p(sf_dir: str, table: str) -> str:
    return os.path.join(sf_dir, f"{table}.parquet")


def _micro(x: np.ndarray) -> np.ndarray:
    return np.floor(x * 1_000_000.0 + 0.5).astype(np.int64)


def _cents(x: np.ndarray) -> np.ndarray:
    return np.floor(x * 100.0 + 0.5).astype(np.int64)


def _score_batch(batch: pa.Table) -> pa.Table:
    v = batch["value"].to_numpy(zero_copy_only=False).astype(np.float64)
    ts_ms = batch["ts"].cast(pa.int64()).to_numpy() // 1000  # us → ms
    shares_score = (1.0 - np.exp(-0.05 * v) + 1.0) / 2.0
    age = (NOW_MS - ts_ms).astype(np.float64)
    pub_score = (np.exp(-age / AVG_TIME_DIFF_MS) + 1.0) / 2.0
    return pa.table(
        {
            "event_id": batch["event_id"],
            "score_micro": pa.array(_micro(shares_score * pub_score), pa.int64()),
        }
    )


# --------------------------------------------------------------------------
# scoring / top-k
# --------------------------------------------------------------------------


@query(
    "ranker_scores",
    f"SELECT event_id, CAST(FLOOR(({_SCORE_SQL})*1000000 + 0.5) AS BIGINT) AS score_micro "
    "FROM events",
)
def q_ranker_scores(sf_dir: str):
    import ray.data as rd

    return rd.read_parquet(
        _p(sf_dir, "events"), columns=["event_id", "ts", "value"]
    ).map_batches(_score_batch, batch_format="pyarrow")


@query(
    "top100_ranked",
    f"SELECT event_id, CAST(FLOOR(({_SCORE_SQL})*1000000 + 0.5) AS BIGINT) AS score_micro "
    "FROM events ORDER BY score_micro DESC, event_id ASC LIMIT 100",
)
def q_top100_ranked(sf_dir: str):
    ds = q_ranker_scores(sf_dir)

    # BoundedPQueue semantics: global top-k under (score desc, id asc).
    # Scale path: per-block partial top-k first (utils/BoundedPQueue.java's
    # capacity-k heap, applied per partition), so the global sort sees
    # ≤ k × num_blocks rows instead of the full table.
    def partial_topk(batch: pa.Table) -> pa.Table:
        sm = batch["score_micro"].to_numpy()
        ev = batch["event_id"].to_numpy()
        order = np.lexsort((ev, -sm))[:100]
        return batch.take(pa.array(order))

    return (
        ds.map_batches(partial_topk, batch_format="pyarrow")
        .sort(["score_micro", "event_id"], descending=[True, False])
        .limit(100)
    )


# --------------------------------------------------------------------------
# grouped counts (counter bolts)
# --------------------------------------------------------------------------


def _count_by(sf_dir: str, table: str, key: str):
    """Grouped count with partial aggregation inside map_batches: the
    shuffle input is (#distinct × #blocks) partial rows, not the table."""
    import pyarrow.compute as pc
    import ray.data as rd
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        vc = pc.value_counts(batch[key])
        return pa.table(
            {
                key: vc.field("values"),
                "pn": vc.field("counts").cast(pa.int64()),
            }
        )

    return (
        rd.read_parquet(_p(sf_dir, table), columns=[key])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(key)
        .aggregate(Sum("pn", alias_name="n"))
    )


@query("event_type_counts", "SELECT event_type, COUNT(*) AS n FROM events GROUP BY event_type")
def q_event_type_counts(sf_dir: str):
    return _count_by(sf_dir, "events", "event_type")


@query("contributor_counts", "SELECT user_id, COUNT(*) AS n FROM events GROUP BY user_id")
def q_contributor_counts(sf_dir: str):
    return _count_by(sf_dir, "events", "user_id")


@query(
    "windowed_counts",
    "SELECT CAST(FLOOR(epoch_ms(ts)/60000.0) AS BIGINT) AS window, event_type, "
    "COUNT(*) AS n FROM events GROUP BY 1, 2",
)
def q_windowed_counts(sf_dir: str):
    """1-minute tumbling windows per event type (EventDetection window
    assembly). Pre-aggregates inside map_batches (partial counts) before the
    small groupby — the scale path for 100 TB of events."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        ts_ms = batch["ts"].cast(pa.int64()).to_numpy() // 1000
        win = ts_ms // 60_000
        et = batch["event_type"].to_pylist()
        agg: dict[tuple[int, str], int] = {}
        for w, e in zip(win, et):
            agg[(int(w), e)] = agg.get((int(w), e), 0) + 1
        keys = list(agg.keys())
        return pa.table(
            {
                "window": pa.array([k[0] for k in keys], pa.int64()),
                "event_type": pa.array([k[1] for k in keys], pa.string()),
                "pn": pa.array(list(agg.values()), pa.int64()),
            }
        )

    return (
        rd.read_parquet(_p(sf_dir, "events"), columns=["ts", "event_type"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["window", "event_type"])
        .aggregate(Sum("pn", alias_name="n"))
    )


# --------------------------------------------------------------------------
# tokens (TokenizationBolt / Vocabulary)
# --------------------------------------------------------------------------


def _token_partial(batch: pa.Table) -> pa.Table:
    texts = batch["text"].to_pylist()
    tf: dict[str, int] = {}
    df: dict[str, int] = {}
    for t in texts:
        toks = TOKEN_RE.findall(t.lower())
        for tok in toks:
            tf[tok] = tf.get(tok, 0) + 1
        for tok in set(toks):
            df[tok] = df.get(tok, 0) + 1
    keys = list(tf.keys())
    return pa.table(
        {
            "token": pa.array(keys, pa.string()),
            "ptf": pa.array([tf[k] for k in keys], pa.int64()),
            "pdf": pa.array([df[k] for k in keys], pa.int64()),
        }
    )


@query(
    "token_counts",
    f"WITH tok AS (SELECT doc_id, unnest({_TOK_SQL}) AS token FROM documents) "
    "SELECT token, COUNT(*) AS tf, COUNT(DISTINCT doc_id) AS df FROM tok GROUP BY token",
)
def q_token_counts(sf_dir: str):
    import ray.data as rd
    from ray.data.aggregate import Sum

    return (
        rd.read_parquet(_p(sf_dir, "documents"), columns=["text"])
        .map_batches(_token_partial, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("ptf", alias_name="tf"), Sum("pdf", alias_name="df"))
    )


@query(
    "token_idf",
    f"WITH tok AS (SELECT doc_id, unnest({_TOK_SQL}) AS token FROM documents), "
    "d AS (SELECT token, COUNT(DISTINCT doc_id) AS df FROM tok GROUP BY token) "
    "SELECT token, df, CAST(FLOOR(LOG10((SELECT COUNT(*) FROM documents)/CAST(df AS DOUBLE))*1000000 + 0.5) AS BIGINT) AS idf_micro FROM d",
)
def q_token_idf(sf_dir: str):
    """IDF = log10(N/df) — utils/Vocabulary.java:68."""
    import pyarrow.parquet as pq

    n_docs = pq.read_metadata(_p(sf_dir, "documents")).num_rows

    def finish(batch: pa.Table) -> pa.Table:
        df = batch["df"].to_numpy().astype(np.float64)
        idf = np.log10(n_docs / df)
        return pa.table(
            {
                "token": batch["token"],
                "df": batch["df"],
                "idf_micro": pa.array(_micro(idf), pa.int64()),
            }
        )

    return q_token_counts(sf_dir).drop_columns(["tf"]).map_batches(
        finish, batch_format="pyarrow"
    )


# --------------------------------------------------------------------------
# dedup
# --------------------------------------------------------------------------


@query(
    "exact_dedup_docs",
    "SELECT MIN(doc_id) AS doc_id, COUNT(*) AS n_copies FROM documents GROUP BY sha256(text)",
)
def q_exact_dedup_docs(sf_dir: str):
    """Exact dedup: group by content hash, keep min doc_id (first-wins)."""
    import hashlib

    import ray.data as rd
    from ray.data.aggregate import Count, Min

    def add_hash(batch: pa.Table) -> pa.Table:
        hs = [hashlib.sha256(t.encode("utf-8")).hexdigest() for t in batch["text"].to_pylist()]
        return pa.table({"doc_id": batch["doc_id"], "text_sha": pa.array(hs, pa.string())})

    return (
        rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
        .map_batches(add_hash, batch_format="pyarrow")
        .groupby("text_sha")
        .aggregate(Min("doc_id", alias_name="doc_id"), Count(alias_name="n_copies"))
        .drop_columns(["text_sha"])
    )


@query(
    "tokenset_dedup_groups",
    f"SELECT MIN(doc_id) AS doc_id, COUNT(*) AS n_docs FROM ("
    f"SELECT doc_id, array_to_string(list_sort(list_distinct({_TOK_SQL})), ' ') AS sig "
    "FROM documents) GROUP BY sig",
)
def q_tokenset_dedup_groups(sf_dir: str):
    """Near-dup by identical normalized token SET (order/multiplicity
    insensitive) — the SQL-expressible cousin of MinHash dedup."""
    import ray.data as rd
    from ray.data.aggregate import Count, Min

    def add_sig(batch: pa.Table) -> pa.Table:
        sigs = [
            " ".join(sorted(set(TOKEN_RE.findall(t.lower()))))
            for t in batch["text"].to_pylist()
        ]
        return pa.table({"doc_id": batch["doc_id"], "sig": pa.array(sigs, pa.string())})

    return (
        rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
        .map_batches(add_sig, batch_format="pyarrow")
        .groupby("sig")
        .aggregate(Min("doc_id", alias_name="doc_id"), Count(alias_name="n_docs"))
        .drop_columns(["sig"])
    )


# --------------------------------------------------------------------------
# doc stats / languages
# --------------------------------------------------------------------------


@query(
    "doc_stats",
    "SELECT doc_id, LENGTH(text) AS n_chars_calc, "
    f"LEN({_TOK_SQL}) AS n_words, "
    r"LEN(regexp_extract_all(text, '\S+')) AS n_ws_tokens FROM documents",
)
def q_doc_stats(sf_dir: str):
    import ray.data as rd

    ws_re = re.compile(r"\S+")

    def stats(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_chars_calc": pa.array([len(t) for t in texts], pa.int64()),
                "n_words": pa.array(
                    [len(TOKEN_RE.findall(t.lower())) for t in texts], pa.int64()
                ),
                "n_ws_tokens": pa.array([len(ws_re.findall(t)) for t in texts], pa.int64()),
            }
        )

    return rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"]).map_batches(
        stats, batch_format="pyarrow"
    )


@query("lang_counts", "SELECT lang, COUNT(*) AS n FROM documents GROUP BY lang")
def q_lang_counts(sf_dir: str):
    return _count_by(sf_dir, "documents", "lang")


@query("doc_quality", partial(oracles_ext.extended, "doc_quality"))
def q_doc_quality(sf_dir: str):
    """Quality-score gate (the SimpleEstimator.isLowQuality spirit,
    ArticleExtractionBolt.java:296-322, generalized to the training-data
    quality-scoring heuristic of functions/text.quality_features). Emits
    (doc_id, n_words, quality_micro) — every factor is exact integer/ratio
    arithmetic so the DuckDB oracle reproduces it bit-for-bit."""
    import ray.data as rd

    from ..functions.text import lang_quality_batch

    def qf(batch: pa.Table) -> pa.Table:
        # vectorized batch kernel — bit-identical to the per-row
        # quality_features (tests/test_text_batch.py)
        lq = lang_quality_batch(batch["text"].to_pylist())
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_words": pa.array(lq["n_words"], pa.int64()),
                "quality_micro": pa.array(_micro(lq["quality"]), pa.int64()),
            }
        )

    return rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"]).map_batches(
        qf, batch_format="pyarrow"
    )


# --------------------------------------------------------------------------
# relational aggregates / joins
# --------------------------------------------------------------------------


# NOTE: outer CAST(...AS BIGINT) — DuckDB SUM(BIGINT) yields HUGEINT,
# which pandas renders as float64; the cast keeps both sides int64 so
# the driver's schema/value comparison sees identical types.
@query(
    "q1_lineitem",
    "SELECT l_returnflag, l_linestatus, "
    "CAST(SUM(CAST(FLOOR(l_quantity + 0.5) AS BIGINT)) AS BIGINT) AS sum_qty, "
    "CAST(SUM(CAST(FLOOR(l_extendedprice*100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_price_cents, "
    "CAST(SUM(CAST(FLOOR(l_extendedprice*(1-l_discount)*100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_disc_cents, "
    "COUNT(*) AS n FROM lineitem GROUP BY l_returnflag, l_linestatus",
)
def q_q1_lineitem(sf_dir: str):
    """TPC-H-Q1-shaped grouped aggregate with exact integer sums (cents)."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    def prep(batch: pa.Table) -> pa.Table:
        price = batch["l_extendedprice"].to_numpy()
        disc = batch["l_discount"].to_numpy()
        qty = batch["l_quantity"].to_numpy()
        return pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "qty": pa.array(np.floor(qty + 0.5).astype(np.int64), pa.int64()),
                "price_cents": pa.array(_cents(price), pa.int64()),
                "disc_cents": pa.array(_cents(price * (1.0 - disc)), pa.int64()),
            }
        )

    return (
        rd.read_parquet(
            _p(sf_dir, "lineitem"),
            columns=[
                "l_returnflag",
                "l_linestatus",
                "l_quantity",
                "l_extendedprice",
                "l_discount",
            ],
        )
        .map_batches(prep, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("qty", alias_name="sum_qty"),
            Sum("price_cents", alias_name="sum_price_cents"),
            Sum("disc_cents", alias_name="sum_disc_cents"),
            Count(alias_name="n"),
        )
    )


@query(
    "revenue_by_priority",
    "SELECT o_orderpriority, "
    "CAST(SUM(CAST(FLOOR(l_extendedprice*(1-l_discount)*100 + 0.5) AS BIGINT)) AS BIGINT) AS revenue_cents, "
    "COUNT(*) AS n_items FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
    "GROUP BY o_orderpriority",
)
def q_revenue_by_priority(sf_dir: str):
    """lineitem ⋈ orders revenue rollup. The orders side is the SMALL side →
    broadcast once via ray.put and resolved per batch with a sorted-array
    lookup (no shuffle join; SURVEY.md §2.10)."""
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    orders = pq.read_table(
        _p(sf_dir, "orders"), columns=["o_orderkey", "o_orderpriority"]
    )
    keys = orders["o_orderkey"].to_numpy()
    order_sort = np.argsort(keys, kind="stable")
    keys_sorted = keys[order_sort]
    prios = np.asarray(orders["o_orderpriority"].to_pylist(), dtype=object)[order_sort]
    # factorize priorities driver-side so the per-batch partial aggregation
    # is a pure np.bincount (no python dict in the hot path)
    uniq_prios, prio_codes = np.unique(prios, return_inverse=True)
    side_ref = ray.put((keys_sorted, prio_codes.astype(np.int64), list(uniq_prios)))

    def join_agg(batch: pa.Table) -> pa.Table:
        keys, codes, prio_names = ray.get(side_ref)
        ok = batch["l_orderkey"].to_numpy()
        idx = np.clip(np.searchsorted(keys, ok), 0, len(keys) - 1)
        found = keys[idx] == ok
        rev = _cents(
            batch["l_extendedprice"].to_numpy()
            * (1.0 - batch["l_discount"].to_numpy())
        )
        c = codes[idx[found]]
        nprio = len(prio_names)
        sums = np.bincount(c, weights=rev[found].astype(np.float64), minlength=nprio)
        cnts = np.bincount(c, minlength=nprio)
        keep = cnts > 0
        return pa.table(
            {
                "o_orderpriority": pa.array(
                    [p for p, k in zip(prio_names, keep) if k], pa.string()
                ),
                "prev": pa.array(sums[keep].astype(np.int64), pa.int64()),
                "pn": pa.array(cnts[keep].astype(np.int64), pa.int64()),
            }
        )

    return (
        rd.read_parquet(
            _p(sf_dir, "lineitem"),
            columns=["l_orderkey", "l_extendedprice", "l_discount"],
        )
        .map_batches(join_agg, batch_format="pyarrow")
        .groupby("o_orderpriority")
        .aggregate(Sum("prev", alias_name="revenue_cents"), Sum("pn", alias_name="n_items"))
    )


# --------------------------------------------------------------------------
# embeddings — brute-force cosine top-k (ANN baseline)
# --------------------------------------------------------------------------

N_QUERIES = 5
TOP_K = 10


@query(
    "embedding_top10",
    "WITH q AS (SELECT vec_id AS query_id, list_transform(embedding, x -> CAST(x AS DOUBLE)) AS qe "
    f"FROM embeddings WHERE vec_id < {N_QUERIES}), "
    "v AS (SELECT vec_id, list_transform(embedding, x -> CAST(x AS DOUBLE)) AS ve FROM embeddings), "
    "s AS (SELECT q.query_id, v.vec_id, "
    "CAST(FLOOR(list_cosine_similarity(q.qe, v.ve)*1000000 + 0.5) AS BIGINT) AS cos_micro "
    "FROM q CROSS JOIN v WHERE v.vec_id != q.query_id) "
    "SELECT query_id, vec_id, cos_micro FROM s "
    f"QUALIFY ROW_NUMBER() OVER (PARTITION BY query_id ORDER BY cos_micro DESC, vec_id ASC) <= {TOP_K}",
)
def q_embedding_top10(sf_dir: str):
    """Cosine top-10 neighbors of the first 5 vectors (brute force: per-batch
    float64 matmul against a broadcast query matrix, then per-query top-k via
    groupby.map_groups). IVF/LSH variants live in stages/ann.py."""
    import pandas as pd
    import ray
    import ray.data as rd

    # one query-side loader shared with the ANN stages (predicate pushdown:
    # only row groups overlapping [0, N_QUERIES) reach the driver)
    from ..stages.ann import load_queries

    q_ref = ray.put(load_queries(_p(sf_dir, "embeddings"), N_QUERIES))

    # task-based: the only state is the broadcast query matrix (zero-copy
    # ray.get per task); parallelism follows the block count
    def sims(batch: pa.Table) -> pa.Table:
        bqids, bqmat = ray.get(q_ref)
        vids = batch["vec_id"].to_numpy()
        emb = np.stack(
            [np.asarray(e, dtype=np.float64) for e in batch["embedding"].to_pylist()]
        )
        emb = emb / np.linalg.norm(emb, axis=1, keepdims=True)
        cos = emb @ bqmat.T  # (B, nq)
        cm = _micro(cos)  # integer scores — total order (cos desc, vec_id asc)
        out_q, out_v, out_c = [], [], []
        for qi, qid in enumerate(bqids):
            # per-batch partial top-k under the SAME total order as the
            # final selection (self-match excluded here too) → global
            # result provably identical while the shuffle sees
            # k × nq × #blocks rows, not B × nq
            mask = vids != qid
            vv, cc = vids[mask], cm[mask, qi]
            order = np.lexsort((vv, -cc))[:TOP_K]
            out_q.append(np.full(len(order), qid, np.int64))
            out_v.append(vv[order])
            out_c.append(cc[order])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q), pa.int64()),
                "vec_id": pa.array(np.concatenate(out_v), pa.int64()),
                "cos_micro": pa.array(np.concatenate(out_c), pa.int64()),
            }
        )

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g[g["vec_id"] != g["query_id"]]
        return g.sort_values(["cos_micro", "vec_id"], ascending=[False, True]).head(TOP_K)

    return (
        rd.read_parquet(_p(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
        .map_batches(sims, batch_format="pyarrow")
        .groupby("query_id")
        .map_groups(topk, batch_format="pandas")
    )


# --------------------------------------------------------------------------
# rows-only queries (no SQL equivalent — driver records rows-only check;
# pytest validates semantics against brute force / planted ground truth)
# --------------------------------------------------------------------------


@query("simhash_docs", partial(oracles_ext.extended, "simhash_docs"), small=True)
def q_simhash_docs(sf_dir: str):
    """64-bit SimHash per document (bit-cast to int64 for Arrow)."""
    import ray.data as rd

    from ..functions.hashing import simhash64, token_hashes

    def sh(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        thl = [token_hashes(TOKEN_RE.findall(t.lower())) for t in texts]
        sigs = simhash64(thl).view(np.int64)
        return pa.table(
            {"doc_id": batch["doc_id"], "simhash": pa.array(sigs, pa.int64())}
        )

    return rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"]).map_batches(
        sh, batch_format="pyarrow"
    )


def simhash_parquet_for(sf_dir: str) -> str:
    """Materialize (doc_id, simhash) for ``sf_dir``'s documents once in the
    corpus cache (keyed by the documents table's content fingerprint). Lets
    the fixture-backed oracle check the simhash PAIRING kernel end-to-end
    over engine-produced values, the image_embed_dup_pairs precedent
    (blake2b itself is not SQL-expressible)."""
    import pyarrow.parquet as pq

    def write(tmp: str) -> None:
        pq.write_table(
            pa.concat_tables(
                list(q_simhash_docs(sf_dir).iter_batches(batch_format="pyarrow"))
            ),
            tmp,
        )

    return cache.materialize(
        cache.key("simhash.parquet", _p(sf_dir, "documents")), write
    )


@query("langid_detect", partial(oracles_ext.extended, "langid_detect"))
def q_langid_detect(sf_dir: str):
    import ray.data as rd

    from ..functions.text import lang_quality_batch

    def lid(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "lang_pred": pa.array(
                    lang_quality_batch(batch["text"].to_pylist())["lang"].tolist(),
                    pa.string(),
                ),
            }
        )

    return rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"]).map_batches(
        lid, batch_format="pyarrow"
    )


def pairs_to_df(ds, cols: list[str]):
    """Collect a pair Dataset (output-sized by construction) and normalize
    to the canonical int64 columns — Ray loses the schema when every block
    ends up empty, which would break the driver's column comparison."""
    import pandas as pd

    df = ds if isinstance(ds, pd.DataFrame) else ds.to_pandas()
    if df.empty or list(df.columns) != cols:
        df = df.reindex(columns=cols)
    return df.astype({c: np.int64 for c in cols}).reset_index(drop=True)


def clear_query_memos() -> None:
    """Drop every in-process per-corpus memo (the corpus cache's one memo:
    the minhash / AllPairs word-3 / decontamination frames and the IVF
    codebooks). Benchmarks call this before each timed repeat so reported
    numbers are self-contained work, not cache hits. The corpus cache's
    DISK entries (token index, IVF and graph layouts, pair / decontam /
    alignment / signature tables) deliberately survive — bench documents
    the warm-number caveat."""
    cache.MEMO.clear()


def _corpus_frame(sf_dir: str, name: str, compute):
    """A per-corpus pandas frame shared by composed consumers (read-only):
    in-process memo → disk parquet in the corpus cache, keyed by the
    documents table's content fingerprint → ``compute()``. A curation
    session pays each corpus-wide pass once (VERDICT r4 'Next round' #4)."""
    import pyarrow.parquet as pq

    path = cache.key(f"{name}.parquet", _p(sf_dir, "documents"))

    def write(tmp: str) -> None:
        pq.write_table(pa.Table.from_pandas(compute(), preserve_index=False), tmp)

    return cache.memo(
        name, path, lambda: pq.read_table(cache.materialize(path, write)).to_pandas()
    )


def _minhash_pairs_cached(sf_dir: str):
    """Verified char5 near-dup pairs, shared by minhash_dup_pairs /
    dup_clusters / corpus_filter_kept."""
    from ..stages.dedup import minhash_lsh_pairs

    return _corpus_frame(
        sf_dir,
        "minhash_pairs",
        lambda: pairs_to_df(
            minhash_lsh_pairs(_p(sf_dir, "documents"), threshold=0.5),
            ["doc_a", "doc_b", "jaccard_micro"],
        ),
    )


@query("minhash_dup_pairs", partial(oracles_ext.extended, "minhash_dup_pairs"))
def q_minhash_dup_pairs(sf_dir: str):
    """MinHash + LSH banding near-dup candidate pairs, verified with exact
    shingle-set Jaccard ≥ 0.5. Fully distributed: signature explode →
    hot-band filter → map_groups pairing (skew-capped) → cogroup shingle
    verify. See stages/dedup.py for the engine."""
    return _minhash_pairs_cached(sf_dir).copy()


def _allpairs_word3_cached(sf_dir: str):
    """Shared materialization of the complete AllPairs word-3-gram
    Jaccard ≥ 0.5 self-join (``stages/dedup.allpairs_jaccard_pairs`` with
    the exactness defaults — caps OFF). Four registry queries consume the
    identical pair list (``allpairs_jaccard``, ``cross_source_dup_matrix``,
    ``split_leakage_pairs``, ``jaccard_threshold_curve``); the r4
    shared-pass discipline applies unchanged: one corpus-wide join per
    session (:func:`_corpus_frame`), consumers read-only."""
    from ..stages.dedup import allpairs_jaccard_pairs

    return _corpus_frame(
        sf_dir,
        "allpairs_word3_pairs",
        lambda: pairs_to_df(
            allpairs_jaccard_pairs(
                _p(sf_dir, "documents"), threshold=0.5, shingle="word3"
            ),
            ["doc_a", "doc_b", "jaccard_micro"],
        ),
    )


@query("allpairs_jaccard", partial(oracles_ext.extended, "allpairs_jaccard"))
def q_allpairs_jaccard(sf_dir: str):
    """EXACT set-similarity self-join (AllPairs prefix filtering — complete
    candidates with no LSH recall caveat): word-3-gram Jaccard ≥ 0.5 pairs.
    The oracle is the same brute-force SQL as ngram_jaccard_pairs; unlike
    the LSH variant the candidate set is complete by the prefix-filter
    theorem, and the skew caps are disabled on this path (exact join), so
    the result equals brute force on any corpus."""
    return _allpairs_word3_cached(sf_dir).copy()


def token_index(sf_dir: str) -> str:
    """The corpus's token-bucketed inverted-index layout, built once per
    documents-table content fingerprint in the corpus cache (a regenerated
    corpus at the same path never reuses stale postings, ADVICE r2)."""
    from ..stages.text_index import build_inverted_index

    docs = _p(sf_dir, "documents")
    return cache.materialize(
        cache.key("text_index", docs), lambda d: build_inverted_index(docs, d)
    )


@query("token_postings", partial(oracles_ext.extended, "token_postings"))
def q_token_postings(sf_dir: str):
    """TextIndexerBolt analogue (bolts/webpages/TextIndexerBolt.java:44-102):
    build the token-bucketed inverted-index layout once per corpus
    (:func:`token_index`), then answer a postings query for the 5
    alphabetically-first corpus tokens by reading ONLY the bucket partitions
    those tokens hash to (prune-at-the-read)."""
    from ..stages.text_index import lookup_postings

    index_dir = token_index(sf_dir)
    vocab = (
        q_token_counts(sf_dir)
        .to_pandas()["token"]
        .sort_values()
        .head(5)
        .tolist()
    )
    return lookup_postings(index_dir, vocab)


@query("doc_fingerprints", partial(oracles_ext.extended, "doc_fingerprints"))
def q_doc_fingerprints(sf_dir: str):
    import ray.data as rd

    from ..functions.text import rabin_karp_fingerprints

    def fp(batch: pa.Table) -> pa.Table:
        fps = [
            rabin_karp_fingerprints(t, k=16, keep=8)
            for t in batch["text"].to_pylist()
        ]
        # comma-joined string keeps the column flat/hash-comparable (values
        # are < 2^61-1 so the %2^62 of the old list form was a no-op)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "fingerprint": pa.array(
                    [",".join(str(f) for f in fl) for fl in fps], pa.string()
                ),
            }
        )

    return rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"]).map_batches(
        fp, batch_format="pyarrow"
    )


# --------------------------------------------------------------------------
# training-data quality: repetition signals + benchmark decontamination
# --------------------------------------------------------------------------


def _ngram_fold_hashes(th: np.ndarray, n: int) -> np.ndarray:
    """Order-sensitive uint64 hashes of all word n-grams, folded from the
    per-token base hashes (h ← mix64(h) ^ next) — vectorized over every
    gram position at once, no per-gram Python objects."""
    from ..functions.hashing import mix64

    if len(th) < n:
        return np.empty(0, np.uint64)
    m = len(th) - n + 1
    h = th[:m].copy()
    for j in range(1, n):
        h = mix64(h) ^ th[j : m + j]
    return h


@query(
    "doc_repetition",
    f"WITH toks AS (SELECT doc_id, {_TOK_SQL} AS tk FROM documents), "
    "bg AS (SELECT doc_id, unnest(list_transform(range(1, len(tk)), i -> "
    "tk[CAST(i AS INT)] || ' ' || tk[CAST(i AS INT)+1])) AS g FROM toks WHERE len(tk) >= 2), "
    "bgc AS (SELECT doc_id, g, COUNT(*) AS c FROM bg GROUP BY 1, 2), "
    "bstat AS (SELECT doc_id, MAX(c) AS maxc, SUM(c) AS tot FROM bgc GROUP BY 1), "
    "tg AS (SELECT doc_id, unnest(list_transform(range(1, len(tk) - 1), i -> "
    "tk[CAST(i AS INT)] || ' ' || tk[CAST(i AS INT)+1] || ' ' || tk[CAST(i AS INT)+2])) AS g "
    "FROM toks WHERE len(tk) >= 3), "
    "tgc AS (SELECT doc_id, g, COUNT(*) AS c FROM tg GROUP BY 1, 2), "
    "tstat AS (SELECT doc_id, SUM(CASE WHEN c > 1 THEN c ELSE 0 END) AS dup, "
    "SUM(c) AS tot3 FROM tgc GROUP BY 1) "
    "SELECT t.doc_id, len(t.tk) AS n_tokens, "
    "COALESCE(CAST(FLOOR(CAST(b.maxc AS DOUBLE) / b.tot * 1000000 + 0.5) AS BIGINT), 0) AS top2_frac_micro, "
    "COALESCE(CAST(FLOOR(CAST(ts.dup AS DOUBLE) / ts.tot3 * 1000000 + 0.5) AS BIGINT), 0) AS dup3_frac_micro "
    "FROM toks t LEFT JOIN bstat b ON t.doc_id = b.doc_id "
    "LEFT JOIN tstat ts ON ts.doc_id = t.doc_id",
)
def q_doc_repetition(sf_dir: str):
    """Gopher-style repetition-quality signals per document (Rae et al.
    2021, 'Scaling Language Models', App. A1.1 repetition filters):

    - ``top2_frac_micro``  — occurrences of the most frequent word bigram /
      total bigram occurrences (micro units)
    - ``dup3_frac_micro``  — trigram occurrences whose gram appears more
      than once in the doc / total trigram occurrences

    Pure map-side (one row per doc, no shuffle): per-batch the (doc, gram)
    counting is a single np.unique over folded gram hashes + bincount /
    maximum.at per doc — a 64-bit gram-hash collision inside one doc is the
    only way this can diverge from the string-keyed oracle (P ≈ n²/2⁶⁵ per
    doc, negligible)."""
    import ray.data as rd

    from ..functions.hashing import mix64, token_hashes

    def rep(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        texts = batch["text"].to_pylist()
        nd = len(ids)
        n_tokens = np.zeros(nd, np.int64)
        d2, g2, d3, g3 = [], [], [], []
        for i, t in enumerate(texts):
            th = token_hashes(TOKEN_RE.findall(t.lower()))
            n_tokens[i] = len(th)
            b = _ngram_fold_hashes(th, 2)
            d2.append(np.full(len(b), i, np.int64))
            g2.append(b)
            c = _ngram_fold_hashes(th, 3)
            d3.append(np.full(len(c), i, np.int64))
            g3.append(c)

        def per_doc(doc: np.ndarray, g: np.ndarray):
            """(max gram count, dup-gram occurrences, total) per doc."""
            tot = np.bincount(doc, minlength=nd)
            if len(g) == 0:
                z = np.zeros(nd, np.int64)
                return z, z, tot
            key = mix64(g ^ mix64(doc.astype(np.uint64) + np.uint64(1)))
            _, inv, cnt = np.unique(key, return_inverse=True, return_counts=True)
            occ = cnt[inv]
            top = np.zeros(nd, np.int64)
            np.maximum.at(top, doc, occ)
            dup = np.bincount(doc, weights=(occ > 1).astype(np.float64), minlength=nd)
            return top, dup.astype(np.int64), tot

        top2, _, tot2 = per_doc(np.concatenate(d2), np.concatenate(g2))
        _, dup3, tot3 = per_doc(np.concatenate(d3), np.concatenate(g3))
        with np.errstate(divide="ignore", invalid="ignore"):
            f2 = np.where(tot2 > 0, _micro(top2 / np.maximum(tot2, 1)), 0)
            f3 = np.where(tot3 > 0, _micro(dup3 / np.maximum(tot3, 1)), 0)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pa.array(n_tokens, pa.int64()),
                "top2_frac_micro": pa.array(f2, pa.int64()),
                "dup3_frac_micro": pa.array(f3, pa.int64()),
            }
        )

    return rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"]).map_batches(
        rep, batch_format="pyarrow"
    )


DECONTAM_BENCH_MOD = 31  # doc_id % 31 == 0 → deterministic "benchmark" set


@query(
    "decontam_8gram_hits",
    f"WITH toks AS (SELECT doc_id, {_TOK_SQL} AS tk FROM documents), "
    "g AS (SELECT doc_id, unnest(list_transform(range(1, len(tk) - 6), i -> "
    "array_to_string(tk[CAST(i AS INT):CAST(i AS INT)+7], ' '))) AS g8 "
    "FROM toks WHERE len(tk) >= 8), "
    f"bench AS (SELECT DISTINCT g8 FROM g WHERE doc_id % {DECONTAM_BENCH_MOD} = 0), "
    "hits AS (SELECT DISTINCT d.doc_id, d.g8 FROM g d JOIN bench b USING (g8) "
    f"WHERE d.doc_id % {DECONTAM_BENCH_MOD} <> 0) "
    "SELECT doc_id, COUNT(*) AS n_hits FROM hits GROUP BY doc_id",
)
def q_decontam_8gram_hits(sf_dir: str):
    """Benchmark decontamination by word-8-gram overlap (the GPT-3 /
    RealNews standard): docs sharing any 8-gram with the held-out benchmark
    set (here ``doc_id % 31 == 0``, a deterministic in-corpus stand-in) are
    flagged with their distinct-overlapping-gram count.

    Scale shape: the benchmark side is small BY DEFINITION (eval suites are
    a few thousand docs), so its distinct gram hashes collect to the driver
    once and broadcast via ray.put; the corpus side streams through one
    map_batches doing a vectorized sorted-array membership test — no
    shuffle, output bounded by contaminated docs only. The output frame is
    session-cached (memo + fingerprint-keyed parquet) for the composed
    consumers (corpus_filter_kept, curation_funnel)."""
    return _decontam_hits_cached(sf_dir).copy()


def _decontam_hits_cached(sf_dir: str):
    """Session-scoped (doc_id, n_hits) decontamination frame
    (:func:`_corpus_frame` over one distributed computation,
    :func:`_decontam_hits_ds`). The frame is output-bounded (contaminated
    docs only), so holding/broadcasting it is safe at any corpus size."""
    import pandas as pd

    def compute():
        df = _decontam_hits_ds(sf_dir).to_pandas()
        if df.empty:  # keep a stable two-column int64 schema on disk
            df = pd.DataFrame(
                {
                    "doc_id": pd.Series(dtype=np.int64),
                    "n_hits": pd.Series(dtype=np.int64),
                }
            )
        return df

    return _corpus_frame(sf_dir, "decontam_8gram_hits", compute)


def _decontam_hits_ds(sf_dir: str):
    import ray
    import ray.data as rd

    from ..functions.hashing import token_hashes

    def bench_grams(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        out = [np.empty(0, np.uint64)]
        for i in np.flatnonzero(ids % DECONTAM_BENCH_MOD == 0):
            th = token_hashes(TOKEN_RE.findall(batch["text"][i].as_py().lower()))
            out.append(_ngram_fold_hashes(th, 8))
        g = np.unique(np.concatenate(out))
        return pa.table({"g": pa.array(g.view(np.int64), pa.int64())})

    parts = [
        b["g"].to_numpy().view(np.uint64)
        for b in rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
        .map_batches(bench_grams, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow")
    ]
    bench = np.unique(np.concatenate(parts)) if parts else np.empty(0, np.uint64)
    bench_ref = ray.put(bench)

    # task-based: the state is one broadcast sorted gram array — zero-copy
    # ray.get per task beats paying an actor-pool spawn per pipeline
    def count_hits(batch: pa.Table) -> pa.Table:
        bench_g = ray.get(bench_ref)
        ids = batch["doc_id"].to_numpy()
        nd = len(ids)
        didx, grams = [], []
        for i in np.flatnonzero(ids % DECONTAM_BENCH_MOD != 0):
            th = token_hashes(TOKEN_RE.findall(batch["text"][i].as_py().lower()))
            g = np.unique(_ngram_fold_hashes(th, 8))  # distinct per doc
            didx.append(np.full(len(g), i, np.int64))
            grams.append(g)
        if not grams or len(bench_g) == 0:
            return pa.table(
                {"doc_id": pa.array([], pa.int64()), "n_hits": pa.array([], pa.int64())}
            )
        d = np.concatenate(didx)
        g = np.concatenate(grams)
        pos = np.searchsorted(bench_g, g).clip(max=len(bench_g) - 1)
        member = bench_g[pos] == g
        hits = np.bincount(d[member], minlength=nd)
        keep = np.flatnonzero(hits > 0)
        return pa.table(
            {
                "doc_id": pa.array(ids[keep], pa.int64()),
                "n_hits": pa.array(hits[keep], pa.int64()),
            }
        )

    return rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"]).map_batches(
        count_hits, batch_format="pyarrow"
    )


@query(
    "decontam_neardup_hits",
    f"WITH {_ORACLE_CHAR5_CTE}, "
    "dd AS (SELECT DISTINCT doc_id, s FROM sh), "
    "sz AS (SELECT doc_id, COUNT(*) AS n FROM dd GROUP BY 1), "
    "inter AS (SELECT b.doc_id AS bench_id, d.doc_id AS did, COUNT(*) AS i "
    "FROM dd b JOIN dd d ON b.s = d.s "
    f"WHERE b.doc_id % {DECONTAM_BENCH_MOD} = 0 AND d.doc_id % {DECONTAM_BENCH_MOD} <> 0 "
    "GROUP BY 1, 2) "
    "SELECT did AS doc_id, COUNT(*) AS n_bench_hits FROM inter "
    "JOIN sz sb ON sb.doc_id = bench_id JOIN sz sd ON sd.doc_id = did "
    "WHERE i*2 >= sb.n + sd.n - i GROUP BY did",
)
def q_decontam_neardup_hits(sf_dir: str):
    """Benchmark decontamination by NEAR-duplicate overlap (the fuzzy
    complement of ``q_decontam_8gram_hits``): a corpus doc is flagged with
    the number of benchmark docs whose char-5-shingle Jaccard with it is
    ≥ 0.5, tested in pure integers (2·|A∩B| ≥ |A|+|B|−|A∩B| — no float
    division).

    Scale shape: the benchmark side is eval-suite-sized, so its shingle
    POSTINGS (sorted hash array + parallel bench-row array + per-bench
    sizes) broadcast once via ray.put; each corpus doc then resolves ALL
    its bench intersections in one searchsorted + bincount pass — no
    shuffle, output bounded by contaminated docs."""
    import ray
    import ray.data as rd

    from ..functions.hashing import char_shingle_hashes

    def bench_postings(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        out_id, out_h = [np.empty(0, np.int64)], [np.empty(0, np.uint64)]
        for i in np.flatnonzero(ids % DECONTAM_BENCH_MOD == 0):
            h = char_shingle_hashes(batch["text"][i].as_py(), 5)
            out_id.append(np.full(len(h), ids[i], np.int64))
            out_h.append(h)
        return pa.table(
            {
                "bench_id": pa.array(np.concatenate(out_id), pa.int64()),
                "h": pa.array(np.concatenate(out_h).view(np.int64), pa.int64()),
            }
        )

    parts = list(
        rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
        .map_batches(bench_postings, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow")
    )
    bid = np.concatenate([b["bench_id"].to_numpy() for b in parts])
    bh = np.concatenate([b["h"].to_numpy().view(np.uint64) for b in parts])
    order = np.argsort(bh, kind="stable")
    bh, bid = bh[order], bid[order]
    # dense bench-row ids + per-bench shingle-set sizes for the union test
    bulist, brow = np.unique(bid, return_inverse=True)
    bsizes = np.bincount(brow)
    bench_ref = ray.put((bh, brow.astype(np.int64), bulist, bsizes.astype(np.int64)))

    def count_hits(batch: pa.Table) -> pa.Table:
        bh_g, brow_g, bulist_g, bsizes_g = ray.get(bench_ref)
        ids = batch["doc_id"].to_numpy()
        out_d, out_n = [], []
        for i in np.flatnonzero(ids % DECONTAM_BENCH_MOD != 0):
            h = char_shingle_hashes(batch["text"][i].as_py(), 5)
            if len(h) == 0 or len(bh_g) == 0:
                continue
            lo = np.searchsorted(bh_g, h, side="left")
            hi = np.searchsorted(bh_g, h, side="right")
            m = hi > lo  # shingles present in some bench doc
            if not m.any():
                continue
            # multi-range gather, vectorized: expand [lo, hi) posting runs
            c = hi[m] - lo[m]
            ends = np.cumsum(c)
            offs = np.arange(ends[-1]) - np.repeat(ends - c, c)
            rows = brow_g[np.repeat(lo[m], c) + offs]
            inter = np.bincount(rows, minlength=len(bulist_g))
            na = len(h)
            hits = int((2 * inter >= na + bsizes_g - inter)[inter > 0].sum())
            if hits:
                out_d.append(ids[i])
                out_n.append(hits)
        return pa.table(
            {
                "doc_id": pa.array(out_d, pa.int64()),
                "n_bench_hits": pa.array(out_n, pa.int64()),
            }
        )

    return rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"]).map_batches(
        count_hits, batch_format="pyarrow"
    )


CHUNK_W = 32  # tokens per training-sequence chunk (small so the fixture's
# ≤99-token docs exercise multi-chunk splits; a real corpus uses 1k–8k)


@query(
    "doc_chunks",
    f"WITH toks AS (SELECT doc_id, {_TOK_SQL} AS tk FROM documents), "
    "c AS (SELECT doc_id, len(tk) AS n, unnest(list_transform("
    f"range(0, CAST(CEIL(len(tk)/{CHUNK_W}.0) AS BIGINT)), i -> struct_pack(ci := i, "
    f"ch := array_to_string(tk[CAST(i*{CHUNK_W}+1 AS INT):CAST(i*{CHUNK_W}+{CHUNK_W} AS INT)], ' ')))) AS u "
    "FROM toks WHERE len(tk) > 0) "
    "SELECT doc_id, CAST(u.ci AS BIGINT) AS chunk_idx, "
    f"CAST(LEAST({CHUNK_W}, n - u.ci*{CHUNK_W}) AS BIGINT) AS n_chunk_tokens, "
    "u.ch AS chunk FROM c",
)
def q_doc_chunks(sf_dir: str):
    """Context-window chunking: split every document's token stream into
    non-overlapping ``CHUNK_W``-token windows (the map-side precursor to
    sequence packing / embedding-window pipelines). One output row per
    chunk: (doc_id, chunk_idx, n_chunk_tokens, chunk).

    Pure map-side flat-map — no shuffle; output bytes ≈ input bytes by
    construction (every token appears in exactly one chunk), so the stage
    streams at any corpus size."""
    import ray.data as rd

    def chunk(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        out_id: list[int] = []
        out_ci: list[int] = []
        out_n: list[int] = []
        out_s: list[str] = []
        for d, t in zip(ids, batch["text"].to_pylist()):
            tk = TOKEN_RE.findall(t.lower())
            for ci in range((len(tk) + CHUNK_W - 1) // CHUNK_W):
                seg = tk[ci * CHUNK_W : (ci + 1) * CHUNK_W]
                out_id.append(int(d))
                out_ci.append(ci)
                out_n.append(len(seg))
                out_s.append(" ".join(seg))
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "chunk_idx": pa.array(out_ci, pa.int64()),
                "n_chunk_tokens": pa.array(out_n, pa.int64()),
                "chunk": pa.array(out_s, pa.string()),
            }
        )

    return rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"]).map_batches(
        chunk, batch_format="pyarrow"
    )


SESSION_GAP_MS = 1_800_000  # 30-minute inactivity gap closes a session


@query(
    "user_sessions",
    "WITH e AS (SELECT user_id, event_id, epoch_ms(ts) AS ms FROM events), "
    "o AS (SELECT user_id, event_id, ms, CASE WHEN LAG(ms) OVER w IS NULL "
    f"OR ms - LAG(ms) OVER w > {SESSION_GAP_MS} THEN 1 ELSE 0 END AS brk "
    "FROM e WINDOW w AS (PARTITION BY user_id ORDER BY ms, event_id)), "
    "s AS (SELECT user_id, ms, CAST(SUM(brk) OVER (PARTITION BY user_id "
    "ORDER BY ms, event_id ROWS UNBOUNDED PRECEDING) - 1 AS BIGINT) AS session_idx FROM o) "
    "SELECT user_id, session_idx, COUNT(*) AS n_events, "
    "MIN(ms) AS start_ms, MAX(ms) AS end_ms FROM s GROUP BY 1, 2",
)
def q_user_sessions(sf_dir: str):
    """Sessionization: per user, events ordered by (ts, event_id) are cut
    into sessions at inactivity gaps > 30 min; one row per session with
    (user_id, session_idx, n_events, start_ms, end_ms).

    Scale shape: users are hash-bucketed into ``session_buckets`` groups so
    the shuffle has fixed key cardinality (no per-user groups — the measured
    per-group-UDF trap); each bucket is sessionized in ONE vectorized numpy
    pass (lexsort + diff + boundary slicing) over all its users at once. At
    cluster scale raise session_buckets so a bucket fits a worker's heap."""
    session_buckets = derive_buckets(_p(sf_dir, "events"), floor=32)
    import ray.data as rd

    def prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # fixture ts is µs-grain; truncate to an EXPLICIT ms unit (floor for
        # post-epoch values) — exactly DuckDB's epoch_ms(ts) on the oracle
        # side, and unit mismatch is a known trap on these tables
        ms = pc.cast(
            pc.cast(batch["ts"], pa.timestamp("ms"), safe=False), pa.int64()
        )
        return pa.table(
            {
                "user_id": batch["user_id"],
                "event_id": batch["event_id"],
                "ms": ms,
            }
        )

    def sessionize(g) -> "pd.DataFrame":
        import pandas as pd

        uid = g["user_id"].to_numpy(np.int64)
        ms = g["ms"].to_numpy(np.int64)
        eid = g["event_id"].to_numpy(np.int64)
        order = np.lexsort((eid, ms, uid))
        uid, ms = uid[order], ms[order]
        new_user = np.empty(len(uid), bool)
        new_user[0] = True
        new_user[1:] = uid[1:] != uid[:-1]
        gap = np.empty(len(ms), np.int64)
        gap[0] = 0
        gap[1:] = ms[1:] - ms[:-1]
        brk = new_user | (gap > SESSION_GAP_MS)
        starts = np.flatnonzero(brk)
        ends = np.r_[starts[1:], len(uid)]
        s_user = uid[starts]
        # session_idx = rank of the session among its user's sessions
        ufirst = np.flatnonzero(np.r_[True, s_user[1:] != s_user[:-1]])
        sidx = np.arange(len(starts)) - np.repeat(
            ufirst, np.diff(np.r_[ufirst, len(starts)])
        )
        return pd.DataFrame(
            {
                "user_id": s_user,
                "session_idx": sidx.astype(np.int64),
                "n_events": (ends - starts).astype(np.int64),
                "start_ms": ms[starts],
                "end_ms": ms[ends - 1],
            }
        )

    return cogroup(
        rd.read_parquet(
            _p(sf_dir, "events"), columns=["user_id", "event_id", "ts"]
        ).map_batches(prep, batch_format="pyarrow"),
        "user_id",
        sessionize,
        session_buckets,
    )


QUANTILES = (50, 90, 99)  # reported per event_type, in percent


@query(
    "event_value_quantiles",
    "WITH c AS (SELECT event_type, CAST(FLOOR(value*100 + 0.5) AS BIGINT) AS cents "
    "FROM events), "
    "n AS (SELECT event_type, COUNT(*) AS n FROM c GROUP BY 1), "
    "r AS (SELECT event_type, cents, "
    "ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY cents) AS rk FROM c) "
    "SELECT r.event_type, ANY_VALUE(n.n) AS n, "
    + ", ".join(
        # integer ceil: (q*n + 99) // 100 — no float rounding at any n
        f"MIN(CASE WHEN rk >= ({q} * n.n + 99) // 100 "
        f"THEN cents END) AS p{q}_cents"
        for q in QUANTILES
    )
    + " FROM r JOIN n ON n.event_type = r.event_type GROUP BY r.event_type",
)
def q_event_value_quantiles(sf_dir: str):
    """EXACT distributed quantiles by counting, not sampling: per
    event_type, the P50/P90/P99 of cents = round(value*100) under the rule
    "smallest v whose cumulative count ≥ ceil(q·n)" (a total, sketch-free
    definition both sides implement verbatim).

    Scale shape: each batch collapses to a (event_type, cents) count
    partial via np.unique — the shuffle then moves the HISTOGRAM (bounded
    by distinct values), never the rows; a per-type map_groups finisher
    cumsums the sorted histogram and picks the quantile ranks. This is the
    standard exact-quantile pattern for bounded-cardinality domains; for
    unbounded floats the same pipeline takes a sketch finisher instead."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        cents = np.floor(batch["value"].to_numpy() * 100.0 + 0.5).astype(np.int64)
        df = pd.DataFrame({"event_type": batch["event_type"].to_pylist(), "cents": cents})
        g = df.groupby(["event_type", "cents"], sort=False).size().reset_index(name="cnt")
        g["cnt"] = g["cnt"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    def finish(g) -> "pd.DataFrame":
        import pandas as pd

        g = g.sort_values("cents", kind="stable")
        c = g["cnt"].to_numpy(np.int64)
        v = g["cents"].to_numpy(np.int64)
        cum = np.cumsum(c)
        n = int(cum[-1])
        row = {"event_type": g["event_type"].iloc[0], "n": np.int64(n)}
        for q in QUANTILES:
            rank = -(-q * n // 100)  # ceil(q*n/100) in integers
            row[f"p{q}_cents"] = v[np.searchsorted(cum, rank)]
        return pd.DataFrame([row])

    return (
        rd.read_parquet(_p(sf_dir, "events"), columns=["event_type", "value"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "cents"])
        .aggregate(Sum("cnt", alias_name="cnt"))
        .groupby("event_type")
        .map_groups(finish, batch_format="pandas")
    )


ASOF_TYPE = "click"  # the right-side event type the as-of join looks back to


@query(
    "events_asof_click",
    "WITH e AS (SELECT event_id, user_id, event_type, epoch_ms(ts) AS ms FROM events), "
    "w AS (SELECT event_id, user_id, ms, "
    f"LAST_VALUE(CASE WHEN event_type = '{ASOF_TYPE}' THEN event_id END IGNORE NULLS) "
    "OVER win AS prior_click_id, "
    f"LAST_VALUE(CASE WHEN event_type = '{ASOF_TYPE}' THEN ms END IGNORE NULLS) "
    "OVER win AS prior_ms FROM e "
    "WINDOW win AS (PARTITION BY user_id ORDER BY ms, event_id "
    "ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)) "
    "SELECT event_id, user_id, prior_click_id, ms - prior_ms AS gap_ms "
    "FROM w WHERE prior_click_id IS NOT NULL",
)
def q_events_asof_click(sf_dir: str):
    """AS-OF (point-in-time) join, the temporal-join primitive Ray Data has
    no native operator for: for every event, the same user's most recent
    STRICTLY-PRIOR '{click}' event under the total order (ts, event_id);
    one output row per event that has one: (event_id, user_id,
    prior_click_id, gap_ms).

    Scale shape: users hash-bucket into session_buckets groups (fixed
    shuffle cardinality); inside each bucket the join is ONE vectorized
    carry-forward pass over the (user, ts, event_id)-sorted rows —
    np.maximum.accumulate of click positions, shifted one row for
    strictness, masked at user-segment starts. The same partitioning key
    as user_sessions, so a real pipeline co-locates both."""
    session_buckets = derive_buckets(_p(sf_dir, "events"), floor=32)
    import ray.data as rd

    def prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ms = pc.cast(
            pc.cast(batch["ts"], pa.timestamp("ms"), safe=False), pa.int64()
        )
        return pa.table(
            {
                "user_id": batch["user_id"],
                "event_id": batch["event_id"],
                "event_type": batch["event_type"],
                "ms": ms,
            }
        )

    def asof(g) -> "pd.DataFrame":
        import pandas as pd

        uid = g["user_id"].to_numpy(np.int64)
        ms = g["ms"].to_numpy(np.int64)
        eid = g["event_id"].to_numpy(np.int64)
        et = g["event_type"].to_numpy()
        order = np.lexsort((eid, ms, uid))
        uid, ms, eid, et = uid[order], ms[order], eid[order], et[order]
        n = len(uid)
        idx = np.arange(n)
        val = np.where(et == ASOF_TYPE, idx, -1)
        carry = np.maximum.accumulate(val)
        shifted = np.r_[-1, carry[:-1]]  # strictly prior row
        new_user = np.empty(n, bool)
        new_user[0] = True
        new_user[1:] = uid[1:] != uid[:-1]
        starts = np.flatnonzero(new_user)
        seg_start = np.repeat(starts, np.diff(np.r_[starts, n]))
        keep = np.flatnonzero(shifted >= seg_start)  # prior click in SAME user
        prior = shifted[keep]
        return pd.DataFrame(
            {
                "event_id": eid[keep],
                "user_id": uid[keep],
                "prior_click_id": eid[prior],
                "gap_ms": ms[keep] - ms[prior],
            }
        )

    return cogroup(
        rd.read_parquet(
            _p(sf_dir, "events"), columns=["user_id", "event_id", "event_type", "ts"]
        ).map_batches(prep, batch_format="pyarrow"),
        "user_id",
        asof,
        session_buckets,
    )


# connected components via recursive transitive closure over the same
# brute-force char5-Jaccard pair relation that oracles minhash_dup_pairs
# (tiny pair graph at oracle scale; the engine side is the budgeted
# distributed LSH pipeline + min-label propagation)
@query(
    "dup_clusters",
    f"WITH RECURSIVE {_ORACLE_CHAR5_CTE}, "
    "dd AS (SELECT DISTINCT doc_id, s FROM sh), "
    "sz AS (SELECT doc_id, COUNT(*) AS n FROM dd GROUP BY doc_id), "
    "inter AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, COUNT(*) AS i "
    "FROM dd a JOIN dd b ON a.s = b.s AND a.doc_id < b.doc_id GROUP BY 1, 2), "
    "p AS (SELECT doc_a, doc_b FROM inter "
    "JOIN sz sa ON sa.doc_id = doc_a JOIN sz sb ON sb.doc_id = doc_b "
    "WHERE i * 2 >= (sa.n + sb.n - i)), "
    "e AS (SELECT doc_a AS a, doc_b AS b FROM p UNION SELECT doc_b, doc_a FROM p), "
    "reach AS (SELECT a AS src, b AS dst FROM e "
    "UNION SELECT r.src, e2.b FROM reach r JOIN e e2 ON e2.a = r.dst) "
    "SELECT src AS doc_id, LEAST(src, MIN(dst)) AS cluster_rep FROM reach GROUP BY src",
)
def q_dup_clusters(sf_dir: str):
    """Fuzzy-dedup canonicalization: connected components over the verified
    near-dup pair graph (char-5-shingle Jaccard ≥ 0.5, the same pair
    relation as ``minhash_dup_pairs``). One row per doc that participates
    in at least one pair: (doc_id, cluster_rep) with rep = the component's
    min doc_id — 'keep rep, drop the rest' is the standard fuzzy-dedup
    final step.

    Scale shape: pair discovery is the fully distributed LSH pipeline; the
    pair list itself is output-bounded (global pair budget in
    stages/dedup.py), so component labelling runs as vectorized min-label
    propagation with pointer jumping over the bounded edge list — O(pairs)
    memory, O(log diameter) rounds. Beyond the pair budget the same kernel
    shards by alternating large-star/small-star rounds (documented path)."""
    import pandas as pd

    pairs = _minhash_pairs_cached(sf_dir)
    if pairs.empty:
        return pd.DataFrame(
            {"doc_id": pd.Series(dtype=np.int64), "cluster_rep": pd.Series(dtype=np.int64)}
        )
    a = pairs["doc_a"].to_numpy(np.int64)
    b = pairs["doc_b"].to_numpy(np.int64)
    nodes, rep = cc_min_label(a, b)
    return pd.DataFrame({"doc_id": nodes, "cluster_rep": rep})


def cc_min_label(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Connected components over an (a, b) edge list: returns (nodes,
    component-min label per node) via vectorized min-label propagation with
    pointer jumping — O(edges) memory, O(log diameter) rounds. Shared by
    q_dup_clusters and the property tests (tests/test_sessions_chunks_cc.py
    check it against BFS minima on random graphs)."""
    nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    ea, eb = inv[: len(a)], inv[len(a) :]
    label = np.arange(len(nodes))
    for _ in range(max(4, len(nodes))):
        new = label.copy()
        np.minimum.at(new, ea, label[eb])
        np.minimum.at(new, eb, label[ea])
        new = new[new]  # pointer jumping halves tree depth each round
        if np.array_equal(new, label):
            break
        label = new
    return nodes, nodes[label]


@query("dup_cluster_best_rep", partial(oracles_ext.extended, "dup_cluster_best_rep"))
def q_dup_cluster_best_rep(sf_dir: str):
    """Keep-BEST dedup canonicalization: for each near-dup cluster, the
    member with the highest quality score (tie: min doc_id) — the
    quality-aware variant of ``dup_clusters``' keep-min-id rule that
    production curation pipelines prefer (drop the boilerplate copy, keep
    the clean one).

    Scale shape: clusters come from the same pair-budget-bounded CC kernel
    as ``dup_clusters``; the member set broadcasts (bounded by verified
    near-dup pairs, NOT corpus size) and the quality scorer streams over
    the corpus touching only members — the collected frame is
    member-bounded."""
    import pandas as pd
    import ray
    import ray.data as rd

    from ..functions.text import lang_quality_batch

    clusters = q_dup_clusters(sf_dir)
    if len(clusters) == 0:
        return pd.DataFrame(
            {
                "cluster_rep": pd.Series(dtype=np.int64),
                "best_doc": pd.Series(dtype=np.int64),
                "quality_micro": pd.Series(dtype=np.int64),
            }
        )
    members = np.sort(clusters["doc_id"].to_numpy(np.int64))
    mem_ref = ray.put(members)

    def member_quality(batch: pa.Table) -> pa.Table:
        m = ray.get(mem_ref)
        ids = batch["doc_id"].to_numpy()
        idx = np.clip(np.searchsorted(m, ids), 0, len(m) - 1)
        keep = m[idx] == ids
        b = batch.filter(pa.array(keep))
        qm = np.floor(
            lang_quality_batch(b["text"].to_pylist())["quality"] * 1_000_000
            + 0.5
        ).astype(np.int64)
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "quality_micro": pa.array(qm, pa.int64()),
            }
        )

    qual = (
        rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
        .map_batches(member_quality, batch_format="pyarrow")
        .to_pandas()  # member-bounded, not corpus-bounded
    )
    m = clusters.merge(qual, on="doc_id", how="inner")
    m = m.sort_values(
        ["cluster_rep", "quality_micro", "doc_id"],
        ascending=[True, False, True],
        kind="stable",
    )
    best = m.drop_duplicates("cluster_rep", keep="first")
    return pd.DataFrame(
        {
            "cluster_rep": best["cluster_rep"].to_numpy(np.int64),
            "best_doc": best["doc_id"].to_numpy(np.int64),
            "quality_micro": best["quality_micro"].to_numpy(np.int64),
        }
    )


OUTLIER_PCT = 99  # per-type percentile above which an event is an outlier


@query("event_value_outliers", partial(oracles_ext.extended, "event_value_outliers"))
def q_event_value_outliers(sf_dir: str):
    """Percentile-threshold OUTLIER FILTER: events whose value (cents)
    strictly exceeds their type's exact P99 — the tail-trimming gate
    composed from the ``event_value_quantiles`` machinery: one histogram
    shuffle computes the thresholds, the thresholds broadcast, and the
    filter streams over the fact table with no further shuffle."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    def hist_partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        cents = np.floor(batch["value"].to_numpy() * 100.0 + 0.5).astype(np.int64)
        df = pd.DataFrame(
            {"event_type": batch["event_type"].to_pylist(), "cents": cents}
        )
        g = df.groupby(["event_type", "cents"], sort=False).size().reset_index(name="cnt")
        g["cnt"] = g["cnt"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    hist = (
        rd.read_parquet(_p(sf_dir, "events"), columns=["event_type", "value"])
        .map_batches(hist_partial, batch_format="pyarrow")
        .groupby(["event_type", "cents"])
        .aggregate(Sum("cnt", alias_name="cnt"))
        .to_pandas()  # bounded by distinct (type, cents)
    )
    thresholds = {}
    for et, g in hist.groupby("event_type"):
        g = g.sort_values("cents", kind="stable")
        cum = np.cumsum(g["cnt"].to_numpy(np.int64))
        n = int(cum[-1])
        need = (OUTLIER_PCT * n + 99) // 100  # ceil(pct*n/100), all-integer
        thresholds[et] = int(g["cents"].to_numpy(np.int64)[np.searchsorted(cum, need)])
    thr_ref = ray.put(thresholds)

    def flt(batch: pa.Table) -> pa.Table:
        thr = ray.get(thr_ref)
        cents = np.floor(batch["value"].to_numpy() * 100.0 + 0.5).astype(np.int64)
        ets = np.asarray(batch["event_type"].to_pylist(), object)
        lim = np.array([thr[e] for e in ets], np.int64)
        keep = cents > lim
        b = batch.filter(pa.array(keep))
        return pa.table(
            {
                "event_id": b["event_id"],
                "event_type": b["event_type"],
                "cents": pa.array(cents[keep], pa.int64()),
            }
        )

    return rd.read_parquet(
        _p(sf_dir, "events"), columns=["event_id", "event_type", "value"]
    ).map_batches(flt, batch_format="pyarrow")


SAMPLE_K = 64  # docs kept per stratum
_KNUTH = 2654435761  # Knuth multiplicative-hash constant (2^32 / φ)


@query(
    "lang_sample_topk",
    "WITH h AS (SELECT lang, doc_id, "
    f"CAST((CAST(doc_id AS HUGEINT) * {_KNUTH}) % 4294967296 AS BIGINT) AS h "
    "FROM documents) "
    "SELECT lang, doc_id, h, "
    "CAST(ROW_NUMBER() OVER (PARTITION BY lang ORDER BY h, doc_id) - 1 AS BIGINT) "
    "AS sample_rank FROM h "
    f"QUALIFY ROW_NUMBER() OVER (PARTITION BY lang ORDER BY h, doc_id) <= {SAMPLE_K}",
)
def q_lang_sample_topk(sf_dir: str):
    """Deterministic stratified sampling (the data-mixing primitive): per
    language, keep the ``SAMPLE_K`` docs with the smallest multiplicative
    hash ``(doc_id * 2654435761) mod 2^32`` — a uniform, seedable,
    SQL-expressible sample that is identical on any block split or cluster
    size. Output (lang, doc_id, h, sample_rank).

    Scale shape: each batch prunes to its own per-language bottom-k (the
    shuffle then moves at most k × n_langs × n_blocks rows, not the
    corpus), and a tiny per-language map_groups finisher re-ranks. The
    hash is order-free, so partial bottom-k before the shuffle is exact."""
    import ray.data as rd

    def partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        ids = batch["doc_id"].to_numpy()
        h = ((ids.astype(np.uint64) * np.uint64(_KNUTH)) % np.uint64(1 << 32)).astype(
            np.int64
        )
        df = pd.DataFrame(
            {"lang": batch["lang"].to_pylist(), "doc_id": ids, "h": h}
        )
        df = df.sort_values(["lang", "h", "doc_id"], kind="stable")
        keep = df.groupby("lang", sort=False).cumcount() < SAMPLE_K
        return pa.Table.from_pandas(df[keep], preserve_index=False)

    def finish(g) -> "pd.DataFrame":
        g = g.sort_values(["h", "doc_id"], kind="stable").head(SAMPLE_K)
        g = g.reset_index(drop=True)
        g["sample_rank"] = np.arange(len(g), dtype=np.int64)
        return g[["lang", "doc_id", "h", "sample_rank"]]

    return (
        rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "lang"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("lang")
        .map_groups(finish, batch_format="pandas")
    )


QUALITY_KEEP_MICRO = 500_000  # keep docs scoring ≥ 0.5


@query("corpus_filter_kept", partial(oracles_ext.extended, "corpus_filter_kept"))
def q_corpus_filter_kept(sf_dir: str):
    """End-to-end corpus curation (the C4/Gopher-style keep decision),
    composed from this engine's own operators:

      keep ⟺ quality_micro ≥ 500000                (map-side score)
           ∧ doc is its near-dup cluster's rep      (bounded drop set)
           ∧ doc shares no word-8-gram with the benchmark set
                                                    (bounded contam set)

    Scale shape: the near-dup drop set (cluster members minus reps) and the
    contaminated-id set are output-bounded by construction (global pair
    budget / eval-suite size), so both broadcast via ray.put as ONE sorted
    id array and the corpus streams through a single vectorized map_batches
    filter — no shuffle in this stage. Exact-hash dedup composes upstream
    as its own groupby stage (exact_dedup_docs); it is deliberately not
    folded in here because its drop set is corpus-sized."""
    import ray
    import ray.data as rd

    from ..functions.text import lang_quality_batch

    cl = q_dup_clusters(sf_dir)
    drop_near = cl.loc[cl["doc_id"] != cl["cluster_rep"], "doc_id"].to_numpy(np.int64)
    cont = _decontam_hits_cached(sf_dir)["doc_id"].to_numpy(np.int64)
    drop_ref = ray.put(np.unique(np.concatenate([drop_near, cont])))

    # task-based: state is one broadcast sorted drop-id array (zero-copy
    # ray.get per task)
    def filt(batch: pa.Table) -> pa.Table:
        drop = ray.get(drop_ref)
        ids = batch["doc_id"].to_numpy()
        texts = batch["text"].to_pylist()
        qm = _micro(lang_quality_batch(texts)["quality"])
        keep = qm >= QUALITY_KEEP_MICRO
        if len(drop):
            pos = np.searchsorted(drop, ids).clip(max=len(drop) - 1)
            keep &= drop[pos] != ids
        k = np.flatnonzero(keep)
        return pa.table(
            {
                "doc_id": pa.array(ids[k], pa.int64()),
                "lang_pred": pa.array(
                    lang_quality_batch([texts[i] for i in k])["lang"].tolist(),
                    pa.string(),
                ),
                "quality_micro": pa.array(qm[k], pa.int64()),
            }
        )

    return rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"]).map_batches(
        filt, batch_format="pyarrow"
    )


# importing this module registers the other query modules' queries too
from . import (  # noqa: E402,F401
    queries_crawl,
    queries_media,
    queries_ml,
    queries_ml2,
    queries_ml3,
    queries_ml4,
    queries_ml5,
    queries_ml6,
    queries_ml7,
    queries_ml8,
    queries_ml9,
    queries_rel,
)
from .registry import REGISTRY, OracleView  # noqa: E402

QUERIES = REGISTRY.queries
# the registered oracles but the extended ones, for consumers that read
# them without building those (perfbench.prep)
ORACLE_SQL = OracleView(REGISTRY)
