"""Graph-scale crawl analytics (round 5, continuation wave 9): hostgraph
connected components via distributed star contraction, personalized
(seed-restart) PageRank over the stationary edge shards, and the
rank-agreement audit between the ranker's two score factors.

The CC kernel (stages/cc.py) is the sharded path ``queries.cc_min_label``
documented for the beyond-pair-budget regime — this wave gives it a
first-class oracled query surface. Personalized PageRank reuses the
pregel stationary layout (stages/pregel.py) shared by pagerank_top20 /
hits_top20 / seed_hop_distance: the loop-invariant edges never
re-shuffle; only the seed mask and teleport base change. The gamma audit
is the BoundedPQueue top-k discipline (partial per-block top-k, global
merge) followed by an output-bounded driver reduction.

House oracle discipline (ml6/ml7/ml8): integer micro units; DuckDB ``//``
truncates toward zero, so negative quotients sign-split on the engine
side; iterative oracles unroll a fixed round count (min-label propagation
with pointer jumping — l(l(u)) — so ``CC_ORACLE_ROUNDS`` rounds cover any
component diameter ≤ ~2^rounds, far beyond the fixture hostgraphs, and
the engine's exact convergence is what the equality check pins).

Reference: MKLab-ITI/mklab-focused-crawler has no graph analytics (link
handling ends at URLExpansionBolt.java:62-81; ranking is
RankerBolt.java:78-92's two-factor score); all three operators are
build-brief crawl-scheduler / curation additions.
"""

from __future__ import annotations

import os
from functools import partial

import numpy as np
import pyarrow as pa

from ..scale import cogroup, derive_buckets
from . import oracles_ext
from .queries_ml2 import _p
from .queries_ml3 import SPLIT_MULT, SPLIT_TRAIN_PCT
from .registry import query, small_table

CC_ORACLE_ROUNDS = 10  # pointer-jumped min-label rounds unrolled in SQL
PPR_ITERS = 5  # same fixed-point count as pagerank_top20 (PR_ITERS)
PPR_TOP = 20
GAMMA_TOP = 100  # BoundedPQueue capacity (RankerBolt._queue top-k)


# --------------------------------------------------------------------------
# hostgraph connected components (distributed star contraction)
# --------------------------------------------------------------------------


@query("host_components", lambda: _host_cc_sql(small_table("pages")), small=True)
def q_host_components(sf_dir: str):
    """WEAKLY CONNECTED COMPONENTS of the hostgraph: one row per host
    appearing in any host-level link (``host_link_matrix``'s rollup of
    the page out-link graph), labelled with the lexicographically
    smallest host of its component — the link-island / spam-farm
    partition a crawl scheduler assigns budgets over.

    Scale shape: the edge rollup is host_link_matrix's partial-count
    shuffle (host×host-bounded); components run as alternating
    large-star / small-star contraction (stages/cc.py — Kiveris et al.
    2014), each half-round ONE node-hash-bucketed shuffle over the
    CONTRACTING edge set, vectorized inside buckets, converged when the
    order-independent edge fingerprint repeats. Nothing node- or
    edge-shaped transits the driver (the probe is one scalar pair per
    round). The same kernel applies unchanged to the page-level graph —
    the hostgraph is simply the bounded surface the oracle can replay."""
    from ..stages.cc import cc_star_components
    from .queries_crawl import q_host_link_matrix

    def to_edges(batch: pa.Table) -> pa.Table:
        return pa.table({"a": batch["src_host"], "b": batch["dst_host"]})

    edges = q_host_link_matrix(sf_dir).map_batches(
        to_edges, batch_format="pyarrow"
    )

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table({"host": batch["node"], "comp_rep": batch["comp_rep"]})

    return cc_star_components(edges).map_batches(rename, batch_format="pyarrow")


def _host_cc_sql(pages: str, rounds: int = CC_ORACLE_ROUNDS) -> str:
    """Unrolled min-label propagation WITH pointer jumping (l ← least of
    own label, neighborhood min, l(l(u))), so ``rounds`` rounds converge
    for any diameter the fixtures (or any realistic hostgraph) can
    reach; the engine side converges exactly, so a non-converged oracle
    fails loudly in the sweep rather than silently agreeing."""
    host = "regexp_extract({col}, '^https://([^/]+).*$', 1)"
    # MATERIALIZED hints are load-bearing (same as the curated_pack_manifest
    # oracle): without them DuckDB inlines `e` into every unrolled round and
    # re-opens the parquet per inline — fd exhaustion, not just wasted scans
    parts = [
        "he AS MATERIALIZED (SELECT "
        + host.format(col="url")
        + " AS a, "
        + host.format(col="unnest(out_links)")
        + f" AS b FROM read_parquet('{pages}'))",
        "nodes AS MATERIALIZED (SELECT DISTINCT u FROM "
        "(SELECT a AS u FROM he UNION ALL SELECT b FROM he))",
        "e AS MATERIALIZED (SELECT DISTINCT a, b FROM "
        "(SELECT a, b FROM he WHERE a != b "
        "UNION ALL SELECT b AS a, a AS b FROM he WHERE a != b))",
        "l0 AS (SELECT u, u AS l FROM nodes)",
    ]
    for k in range(1, rounds + 1):
        p = f"l{k - 1}"
        parts.append(
            f"l{k} AS MATERIALIZED "
            "(SELECT n.u, least(p.l, COALESCE(nb.m, p.l), pj.l) AS l "
            f"FROM nodes n JOIN {p} p ON p.u = n.u "
            f"LEFT JOIN (SELECT e.a AS u, MIN(p2.l) AS m FROM e "
            f"JOIN {p} p2 ON p2.u = e.b GROUP BY e.a) nb ON nb.u = n.u "
            f"JOIN {p} pj ON pj.u = p.l)"
        )
    return (
        "WITH "
        + ", ".join(parts)
        + f" SELECT u AS host, l AS comp_rep FROM l{rounds}"
    )


# --------------------------------------------------------------------------
# personalized PageRank (random walk with restart at the seed frontier)
# --------------------------------------------------------------------------


@query(
    "pagerank_seeded_top20",
    lambda: _ppr_sql(small_table("pages"), small_table("frontier_seed"), PPR_ITERS, PPR_TOP),
    small=True,
)
def q_pagerank_seeded_top20(sf_dir: str):
    """PERSONALIZED PageRank: the teleport mass restarts ONLY at the
    frontier-seed urls (rank₀ = 1.0 micro at seeds, 0 elsewhere; update =
    seed·150000 + 85·inbound // 100), top-``PPR_TOP`` pages after
    ``PPR_ITERS`` synchronous iterations — "importance as seen from the
    crawl's entry points", the focused-crawl counterpart of the global
    pagerank_top20 (a focused crawler cares about authority RELATIVE to
    its seed topic, not global authority).

    Scale shape: identical to pagerank_top20 — the STATIONARY edge shards
    (stages/pregel.py) materialize once per pages fingerprint and are
    shared with BFS/HITS; per iteration one locally-combined emit + one
    node-shaped exchange; seeds are frontier-bounded and broadcast to
    shards once (searchsorted own-node mask). Integer arithmetic
    throughout — the unrolled-CTE oracle replays it bit-for-bit."""
    import pyarrow.parquet as pq_

    from ..stages.pregel import pagerank_top
    from .queries_media import fixture_dir_for
    from .queries_ml5 import _graph_layout

    seeds_path = os.path.join(fixture_dir_for(sf_dir), "frontier_seed.parquet")
    seeds = pq_.read_table(seeds_path, columns=["url"])["url"].to_pylist()
    layout, nb = _graph_layout(sf_dir)
    return pagerank_top(
        layout, nb, PPR_ITERS, PPR_TOP, seeds=np.array(seeds, object)
    )


def _ppr_sql(pages: str, seeds: str, iters: int, top: int) -> str:
    """oracles_ext._pagerank_sql with the seed-restart teleport: all-BIGINT
    unrolled iterations, so summation order cannot perturb the result."""
    seed_pred = f"url IN (SELECT url FROM read_parquet('{seeds}'))"
    parts = [
        f"nodes AS (SELECT url FROM read_parquet('{pages}'))",
        f"e0 AS (SELECT url AS src, unnest(out_links) AS dst FROM read_parquet('{pages}'))",
        "e AS (SELECT src, dst FROM e0 WHERE dst IN (SELECT url FROM nodes))",
        "deg AS (SELECT src, COUNT(*) AS d FROM e GROUP BY 1)",
        f"r0 AS (SELECT url, CAST(CASE WHEN {seed_pred} THEN 1000000 ELSE 0 END "
        "AS BIGINT) AS r FROM nodes)",
    ]
    for k in range(1, iters + 1):
        parts.append(
            f"r{k} AS (SELECT n.url, "
            f"CAST((CASE WHEN n.{seed_pred} THEN 150000 ELSE 0 END) "
            f"+ (85 * COALESCE(s{k}.c, 0)) // 100 AS BIGINT) AS r "
            f"FROM nodes n LEFT JOIN ("
            f"SELECT e.dst AS url, SUM(r.r // deg.d) AS c "
            f"FROM e JOIN r{k - 1} r ON r.url = e.src "
            f"JOIN deg ON deg.src = e.src GROUP BY 1) s{k} ON s{k}.url = n.url)"
        )
    return (
        "WITH " + ", ".join(parts) + f" SELECT url, r AS rank_micro FROM r{iters} "
        f"ORDER BY rank_micro DESC, url ASC LIMIT {top}"
    )


# --------------------------------------------------------------------------
# rank-agreement audit: Goodman–Kruskal gamma between the ranker's factors
# --------------------------------------------------------------------------


def _gamma_sql() -> str:
    from .queries import AVG_TIME_DIFF_MS, NOW_MS

    score = (
        "(1 - EXP(-0.05*value) + 1)/2 * "
        f"(EXP(-(({NOW_MS} - epoch_ms(ts))/{AVG_TIME_DIFF_MS})) + 1)/2"
    )
    return (
        "WITH s AS (SELECT event_id, value, epoch_ms(ts) AS ms, "
        f"CAST(FLOOR(({score})*1000000 + 0.5) AS BIGINT) AS score_micro "
        "FROM events ORDER BY score_micro DESC, event_id ASC "
        f"LIMIT {GAMMA_TOP}), "
        "p AS (SELECT "
        "CASE WHEN (a.value - b.value)*(a.ms - b.ms) > 0 THEN 1 ELSE 0 END AS c, "
        "CASE WHEN (a.value - b.value)*(a.ms - b.ms) < 0 THEN 1 ELSE 0 END AS d "
        "FROM s a JOIN s b ON a.event_id < b.event_id) "
        "SELECT CAST((SELECT COUNT(*) FROM s) AS BIGINT) AS n_top, "
        "CAST(COALESCE(SUM(c), 0) AS BIGINT) AS concordant, "
        "CAST(COALESCE(SUM(d), 0) AS BIGINT) AS discordant, "
        "CAST(CASE WHEN COALESCE(SUM(c), 0) + COALESCE(SUM(d), 0) = 0 THEN 0 "
        "ELSE ((SUM(c) - SUM(d))*1000000) // (SUM(c) + SUM(d)) END AS BIGINT) "
        "AS gamma_micro FROM p"
    )


@query("ranker_rank_gamma", _gamma_sql)
def q_ranker_rank_gamma(sf_dir: str):
    """RANK-AGREEMENT AUDIT over the ranker's top-``GAMMA_TOP`` events:
    Goodman–Kruskal gamma between the shares ordering (``value``) and the
    recency ordering (``ts``) — gamma = (C − D) / (C + D) over the
    untied pairs, in micro units. Answers "do the ranker's two factors
    agree on the head of the queue, or is the composite score doing real
    arbitration?" (RankerBolt.java:78-92 multiplies exactly these two
    factors). Gamma (not tau-b) keeps the arithmetic integer-exact — no
    square root, and DuckDB's ``//`` / the sign-split floor agree.

    Scale shape: the top-k is the BoundedPQueue discipline (per-block
    partial top-k, then a global (score desc, id asc) merge of ≤ k ×
    blocks rows); the pair scan is k²-bounded driver work on the final
    100 rows — output-bounded by construction, never corpus-shaped."""
    import ray.data as rd

    from .queries import _score_batch

    def with_factors(batch: pa.Table) -> pa.Table:
        scored = _score_batch(batch)
        ms = batch["ts"].cast(pa.int64()).to_numpy() // 1000
        return pa.table(
            {
                "event_id": batch["event_id"],
                "score_micro": scored["score_micro"],
                "value": batch["value"],
                "ms": pa.array(ms, pa.int64()),
            }
        )

    def partial_topk(batch: pa.Table) -> pa.Table:
        sm = batch["score_micro"].to_numpy()
        ev = batch["event_id"].to_numpy()
        order = np.lexsort((ev, -sm))[:GAMMA_TOP]
        return batch.take(pa.array(order))

    top = (
        rd.read_parquet(_p(sf_dir, "events"), columns=["event_id", "ts", "value"])
        .map_batches(with_factors, batch_format="pyarrow")
        .map_batches(partial_topk, batch_format="pyarrow")
        .sort(["score_micro", "event_id"], descending=[True, False])
        .limit(GAMMA_TOP)
        .to_pandas()
    )
    v = top["value"].to_numpy(np.float64)
    m = top["ms"].to_numpy(np.int64)
    dv = np.sign(v[:, None] - v[None, :])
    dm = np.sign((m[:, None] - m[None, :]).astype(np.float64))
    prod = np.triu(dv * dm, k=1)
    c = int((prod > 0).sum())
    d = int((prod < 0).sum())
    num = (c - d) * 1_000_000
    den = c + d
    # DuckDB // truncates toward zero — sign-split to match
    g = 0 if den == 0 else (num // den if num >= 0 else -((-num) // den))
    return pa.table(
        {
            "n_top": pa.array([len(top)], pa.int64()),
            "concordant": pa.array([c], pa.int64()),
            "discordant": pa.array([d], pa.int64()),
            "gamma_micro": pa.array([g], pa.int64()),
        }
    )


# --------------------------------------------------------------------------
# held-out trigram LM scoring with stupid backoff
# --------------------------------------------------------------------------


def _trigram_backoff_sql() -> str:
    split = f"(doc_id * {SPLIT_MULT}) % {1 << 32} % 100 < {SPLIT_TRAIN_PCT}"
    tok = "regexp_extract_all(lower(text), '[a-z0-9]+')"
    tri_un = (
        "unnest(list_transform(range(1, len(l) - 1), "
        "i -> l[CAST(i AS INT)] || ' ' || l[CAST(i AS INT)+1] "
        "|| ' ' || l[CAST(i AS INT)+2]))"
    )
    bg_un = (
        "unnest(list_transform(range(1, len(l)), "
        "i -> l[CAST(i AS INT)] || ' ' || l[CAST(i AS INT)+1]))"
    )
    return (
        f"WITH tokl AS MATERIALIZED (SELECT doc_id, {tok} AS l, {split} AS tr "
        "FROM documents), "
        f"c3 AS MATERIALIZED (SELECT tri, COUNT(*) AS c FROM (SELECT {tri_un} "
        "AS tri FROM tokl WHERE tr AND len(l) >= 3) GROUP BY 1), "
        f"c2 AS MATERIALIZED (SELECT bg, COUNT(*) AS c FROM (SELECT {bg_un} "
        "AS bg FROM tokl WHERE tr AND len(l) >= 2) GROUP BY 1), "
        "uni AS MATERIALIZED (SELECT unnest(l) AS t FROM tokl WHERE tr), "
        "c1 AS MATERIALIZED (SELECT t, COUNT(*) AS c FROM uni GROUP BY 1), "
        "tot AS (SELECT COUNT(*) AS tt, COUNT(DISTINCT t) AS vv FROM uni), "
        f"dd AS (SELECT doc_id, tri, COUNT(*) AS n FROM (SELECT doc_id, "
        f"{tri_un} AS tri FROM tokl WHERE NOT tr AND len(l) >= 3) GROUP BY 1, 2), "
        "sc AS (SELECT dd.doc_id, dd.n, CASE "
        "WHEN COALESCE(c3.c, 0) > 0 THEN "
        "LOG10(CAST(c3.c AS DOUBLE) / c2ab.c) "
        "WHEN COALESCE(c2bc.c, 0) > 0 THEN "
        "LOG10(CAST(0.4 AS DOUBLE) * c2bc.c / c1b.c) "
        "ELSE LOG10(CAST(0.16 AS DOUBLE) * (COALESCE(c1c.c, 0) + 1.0) "
        "/ (tot.tt + tot.vv)) END AS lp_f "
        "FROM dd LEFT JOIN c3 ON c3.tri = dd.tri "
        "LEFT JOIN c2 c2ab ON c2ab.bg = "
        "split_part(dd.tri, ' ', 1) || ' ' || split_part(dd.tri, ' ', 2) "
        "LEFT JOIN c2 c2bc ON c2bc.bg = "
        "split_part(dd.tri, ' ', 2) || ' ' || split_part(dd.tri, ' ', 3) "
        "LEFT JOIN c1 c1b ON c1b.t = split_part(dd.tri, ' ', 2) "
        "LEFT JOIN c1 c1c ON c1c.t = split_part(dd.tri, ' ', 3) "
        "CROSS JOIN tot) "
        "SELECT doc_id, CAST(SUM(n) AS BIGINT) AS n_trigrams, "
        "CAST(SUM(CAST(FLOOR(lp_f * 1000000 + 0.5) AS BIGINT) * n) AS BIGINT) "
        "AS logprob_micro FROM sc GROUP BY doc_id"
    )


@query("doc_trigram_backoff", _trigram_backoff_sql)
def q_doc_trigram_backoff(sf_dir: str):
    """HELD-OUT TRIGRAM SCORING with stupid backoff (Brants et al. 2007):
    the LM trains on the deterministic 80% train split (the exact
    ``doc_split_assign`` hash rule) and scores every HELD-OUT document's
    trigrams — so the backoff tiers actually fire (a same-corpus trigram
    LM scored on its own training data never backs off: c3 ≥ 1 always).
    Per trigram (a,b,c):

        S = c3(abc)/c2(ab)                 if c3(abc) > 0
          = 0.4 · c2(bc)/c1(b)             elif c2(bc) > 0
          = 0.16 · (c1(c)+1)/(T+V)         otherwise (add-one closure at
                                            the unigram tier — unseen
                                            words score finitely instead
                                            of log10(0))

    summed as floor(log10(S)·10⁶ + 0.5) · occurrences per doc. Output:
    (doc_id, n_trigrams, logprob_micro) for held-out docs with ≥3 tokens.
    This is the CCNet/KenLM quality-filter tier above
    ``doc_bigram_logprob``; the held-out framing is the real production
    shape (score candidate data with an LM trained elsewhere).

    Scale shape: unigram stats (c1, T, V) are vocabulary-bounded — one
    small shuffle + a broadcast. The corpus-shaped bigram and trigram
    count tables are never broadcast: pass 1 buckets by hash(ab) (every
    occurrence of trigram abc AND of its context bigram ab co-locate →
    c3 and c2(ab) attach in one vectorized pandas pass), pass 2 buckets
    by hash(bc) (c2(bc) attaches; the tier pick, log10 and per-doc
    partial sums happen in the same pass). Two bigram-hash shuffles
    total; the final groupby is doc-bounded. DOUBLE-cast literals in the
    oracle are load-bearing: DuckDB's bare 0.4/0.16 are DECIMAL and
    round differently from float64."""
    nb = derive_buckets(_p(sf_dir, "documents"), floor=64)
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .queries import TOKEN_RE

    docs = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])

    def is_train(doc_id: np.ndarray) -> np.ndarray:
        return (doc_id * SPLIT_MULT) % (1 << 32) % 100 < SPLIT_TRAIN_PCT

    # pass 0 (vocabulary-bounded): train-split unigram counts → broadcast
    def uni_partial(batch: pa.Table) -> pa.Table:
        from collections import Counter

        ids = batch["doc_id"].to_numpy().astype(np.int64)
        tr = is_train(ids)
        cnt: Counter = Counter()
        for d_tr, t in zip(tr, batch["text"].to_pylist()):
            if d_tr:
                cnt.update(TOKEN_RE.findall(t.lower()))
        keys = sorted(cnt)
        return pa.table(
            {
                "token": pa.array(keys, pa.string()),
                "pc": pa.array([cnt[k] for k in keys], pa.int64()),
            }
        )

    uni = (
        docs.map_batches(uni_partial, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("pc", alias_name="c1"))
        .to_pandas()  # |train vocab| rows
    )
    t_total = int(uni["c1"].sum())
    v_size = len(uni)
    c1_ref = ray.put(
        (uni["token"].to_numpy(str), uni["c1"].to_numpy(np.int64))
    )

    # side rows: 0 = train trigram partials, 1 = train bigram partials,
    # 2 = held-out doc trigram rows — all keyed by hash(ab) in pass 1
    def pass1_rows(batch: pa.Table) -> pa.Table:
        from collections import Counter

        ids = batch["doc_id"].to_numpy().astype(np.int64)
        tr = is_train(ids)
        tri_c: Counter = Counter()
        bg_c: Counter = Counter()
        out_k: list[str] = []
        out_d: list[int] = []
        out_n: list[int] = []
        out_s: list[int] = []
        for d, d_tr, t in zip(ids, tr, batch["text"].to_pylist()):
            tk = TOKEN_RE.findall(t.lower())
            if d_tr:
                tri_c.update(
                    f"{tk[i]} {tk[i + 1]} {tk[i + 2]}" for i in range(len(tk) - 2)
                )
                bg_c.update(f"{tk[i]} {tk[i + 1]}" for i in range(len(tk) - 1))
            elif len(tk) >= 3:
                dc = Counter(
                    f"{tk[i]} {tk[i + 1]} {tk[i + 2]}" for i in range(len(tk) - 2)
                )
                for k, n in dc.items():
                    out_k.append(k)
                    out_d.append(int(d))
                    out_n.append(n)
                    out_s.append(2)
        for cnt, side in ((tri_c, 0), (bg_c, 1)):
            for k, n in cnt.items():
                out_k.append(k)
                out_d.append(-1)
                out_n.append(n)
                out_s.append(side)
        ab = [
            k.rsplit(" ", 1)[0] if s != 1 else k
            for k, s in zip(out_k, out_s)
        ]
        return pa.table(
            {
                "ab": pa.array(ab, pa.string()),
                "side": pa.array(out_s, pa.int64()),
                "key": pa.array(out_k, pa.string()),
                "doc_id": pa.array(out_d, pa.int64()),
                "n": pa.array(out_n, pa.int64()),
            }
        )

    def _sum_by_key(keys: np.ndarray, vals: np.ndarray):
        uk, inv = np.unique(keys, return_inverse=True)
        return uk, np.bincount(inv, weights=vals).astype(np.int64)

    def _lookup(uk: np.ndarray, uv: np.ndarray, q: np.ndarray) -> np.ndarray:
        if not len(uk):
            return np.zeros(len(q), np.int64)
        pos = np.clip(np.searchsorted(uk, q), 0, len(uk) - 1)
        return np.where(uk[pos] == q, uv[pos], 0)

    def attach_pass1(g) -> pa.Table:
        import pandas as pd

        side = g["side"].to_numpy(np.int64)
        key = g["key"].to_numpy(object).astype(str)
        n = g["n"].to_numpy(np.int64)
        rows = side == 2
        if not rows.any():
            return pa.table(
                {
                    "side": pa.array([], pa.int64()),
                    "key": pa.array([], pa.string()),
                    "doc_id": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "c3": pa.array([], pa.int64()),
                    "c2ab": pa.array([], pa.int64()),
                }
            )
        k3, v3 = _sum_by_key(key[side == 0], n[side == 0])
        k2, v2 = _sum_by_key(key[side == 1], n[side == 1])
        tri = key[rows]
        sp = pd.Series(tri)
        ab = sp.str.rsplit(" ", n=1).str[0].to_numpy(object).astype(str)
        bc = sp.str.split(" ", n=1).str[1].to_numpy(object).astype(str)
        return pa.table(
            {
                "side": pa.array(np.ones(rows.sum(), np.int64), pa.int64()),
                "key": pa.array(bc, pa.string()),
                "doc_id": pa.array(g["doc_id"].to_numpy(np.int64)[rows], pa.int64()),
                "n": pa.array(n[rows], pa.int64()),
                "c3": pa.array(_lookup(k3, v3, tri), pa.int64()),
                "c2ab": pa.array(_lookup(k2, v2, ab), pa.int64()),
            }
        )

    def bigram_side0(batch: pa.Table) -> pa.Table:
        from collections import Counter

        ids = batch["doc_id"].to_numpy().astype(np.int64)
        tr = is_train(ids)
        bg_c: Counter = Counter()
        for d_tr, t in zip(tr, batch["text"].to_pylist()):
            if d_tr:
                tk = TOKEN_RE.findall(t.lower())
                bg_c.update(f"{tk[i]} {tk[i + 1]}" for i in range(len(tk) - 1))
        keys = sorted(bg_c)
        nn = len(keys)
        return pa.table(
            {
                "side": pa.array(np.zeros(nn, np.int64), pa.int64()),
                "key": pa.array(keys, pa.string()),
                "doc_id": pa.array(np.full(nn, -1, np.int64), pa.int64()),
                "n": pa.array([bg_c[k] for k in keys], pa.int64()),
                "c3": pa.array(np.zeros(nn, np.int64), pa.int64()),
                "c2ab": pa.array(np.zeros(nn, np.int64), pa.int64()),
            }
        )

    def score_pass2(g) -> pa.Table:
        import pandas as pd

        side = g["side"].to_numpy(np.int64)
        key = g["key"].to_numpy(object).astype(str)
        n = g["n"].to_numpy(np.int64)
        rows = side == 1
        if not rows.any():
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "pn": pa.array([], pa.int64()),
                    "plp": pa.array([], pa.int64()),
                }
            )
        k2, v2 = _sum_by_key(key[side == 0], n[side == 0])
        bc = key[rows]
        c3 = g["c3"].to_numpy(np.int64)[rows]
        c2ab = g["c2ab"].to_numpy(np.int64)[rows]
        nr = n[rows]
        did = g["doc_id"].to_numpy(np.int64)[rows]
        c2bc = _lookup(k2, v2, bc)
        sp = pd.Series(bc)
        b = sp.str.split(" ", n=1).str[0].to_numpy(object).astype(str)
        c = sp.str.split(" ", n=1).str[1].to_numpy(object).astype(str)
        toks, c1 = ray.get(c1_ref)
        c1b = _lookup(toks, c1, b).astype(np.float64)
        c1c = _lookup(toks, c1, c).astype(np.float64)
        # tier arithmetic in float64 with the same literal expressions the
        # oracle CASTs to DOUBLE (divide-by-zero lanes are masked out)
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.where(
                c3 > 0,
                c3 / np.maximum(c2ab, 1).astype(np.float64),
                np.where(
                    c2bc > 0,
                    0.4 * c2bc / np.maximum(c1b, 1.0),
                    0.16 * (c1c + 1.0) / float(t_total + v_size),
                ),
            )
        lp = np.floor(np.log10(s) * 1_000_000 + 0.5).astype(np.int64)
        part = (
            pd.DataFrame({"doc_id": did, "pn": nr, "plp": lp * nr})
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

    pass1 = cogroup(
        docs.map_batches(pass1_rows, batch_format="pyarrow"), "ab", attach_pass1, nb
    )
    bigrams = docs.map_batches(bigram_side0, batch_format="pyarrow")
    return (
        cogroup([pass1, bigrams], "key", score_pass2, nb)
        .groupby("doc_id")
        .aggregate(
            Sum("pn", alias_name="n_trigrams"),
            Sum("plp", alias_name="logprob_micro"),
        )
    )


# --------------------------------------------------------------------------
# hostgraph co-citation (link-farm / related-host detection)
# --------------------------------------------------------------------------

COCITE_MIN = 2  # keep pairs co-cited by ≥ 2 distinct source hosts


@query("host_cocitation_pairs", lambda: _cocitation_sql(small_table("pages")), small=True)
def q_host_cocitation_pairs(sf_dir: str):
    """CO-CITATION pairs over the hostgraph (Small 1973, applied to the
    web by Dean & Henzinger 1999): two hosts are related when the same
    SOURCE host links both; keep (host_a < host_b) pairs co-cited by at
    least ``COCITE_MIN`` distinct sources. The link-analysis relatedness
    signal a crawl scheduler uses next to the component partition
    (``host_components``) and spam-farm rollup (``host_link_matrix``).

    Scale shape: the input is the DISTINCT host-edge rollup (host×host-
    bounded, the host_link_matrix shuffle); pair generation groups by
    source host and emits its out-neighborhood's pairs — out-degree² per
    source but bounded by the host universe, never by pages; the pair
    count groupby is hosts²-bounded. At web scale a mega-out-degree hub
    would cap or sample its neighborhood (logged, like the dedup pair
    budget)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .queries_crawl import q_host_link_matrix

    def pairs(g) -> pa.Table:
        dst = np.unique(g["dst_host"].to_numpy(object).astype(str))
        src0 = str(g["src_host"].iloc[0])
        dst = dst[dst != src0]  # self-links don't co-cite
        if len(dst) < 2:
            return pa.table(
                {
                    "host_a": pa.array([], pa.string()),
                    "host_b": pa.array([], pa.string()),
                    "pn": pa.array([], pa.int64()),
                }
            )
        ii, jj = np.triu_indices(len(dst), k=1)
        return pa.table(
            {
                "host_a": pa.array(dst[ii], pa.string()),
                "host_b": pa.array(dst[jj], pa.string()),
                "pn": pa.array(np.ones(len(ii), np.int64), pa.int64()),
            }
        )

    counted = (
        q_host_link_matrix(sf_dir)
        .groupby("src_host")
        .map_groups(pairs, batch_format="pandas")
        .groupby(["host_a", "host_b"])
        .aggregate(Sum("pn", alias_name="n_common_sources"))
    )

    def gate(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(
            pc.greater_equal(batch["n_common_sources"], COCITE_MIN)
        )

    return counted.map_batches(gate, batch_format="pyarrow")


def _cocitation_sql(pages: str) -> str:
    host = "regexp_extract({col}, '^https://([^/]+).*$', 1)"
    return (
        "WITH e AS MATERIALIZED (SELECT DISTINCT "
        + host.format(col="url")
        + " AS s, "
        + host.format(col="unnest(out_links)")
        + f" AS d FROM read_parquet('{pages}')), "
        "e2 AS (SELECT s, d FROM e WHERE s != d) "
        "SELECT a.d AS host_a, b.d AS host_b, "
        "CAST(COUNT(*) AS BIGINT) AS n_common_sources "
        "FROM e2 a JOIN e2 b ON a.s = b.s AND a.d < b.d "
        f"GROUP BY 1, 2 HAVING COUNT(*) >= {COCITE_MIN}"
    )


# --------------------------------------------------------------------------
# crawl fairness: Jain's index over per-host fetch counts
# --------------------------------------------------------------------------


@query("host_fairness_index", lambda: _fairness_sql(small_table("pages")), small=True)
def q_host_fairness_index(sf_dir: str):
    """JAIN'S FAIRNESS INDEX over per-host fetched-page counts:
    J = (Σx)² / (n·Σx²) ∈ (1/n, 1] — the one-number politeness audit
    (J = 1 means every host got the same share of the fetch budget; J →
    1/n means one host ate the crawl). Output one row: (n_hosts,
    n_pages, fairness_micro), micro = floor exact rational division.

    Scale shape: per-batch (host, count) partials collapse before the
    shuffle (hosts × blocks rows); the index itself is two integer
    moments over the hosts-bounded aggregate, computed in PYTHON ints —
    (Σx)²·10⁶ overflows int64 beyond ~3M pages, the oracle sums in
    HUGEINT (the lang_token_fertility ADVICE discipline)."""
    import pyarrow.compute as pc
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .queries_crawl import _fx

    def partial(batch: pa.Table) -> pa.Table:
        h = pc.replace_substring_regex(
            batch["url"], pattern=r"^https://([^/]+).*$", replacement=r"\1"
        )
        vc = pc.value_counts(h)
        return pa.table(
            {
                "host": vc.field("values"),
                "pc": vc.field("counts").cast(pa.int64()),
            }
        )

    df = (
        rd.read_parquet(_fx(sf_dir, "pages"), columns=["url"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("host")
        .aggregate(Sum("pc", alias_name="n"))
        .to_pandas()  # hosts-bounded
    )
    xs = [int(v) for v in df["n"]]
    n_hosts, total = len(xs), sum(xs)
    sq = sum(x * x for x in xs)
    fair = (total * total * 1_000_000) // (n_hosts * sq) if sq else 0
    return pa.table(
        {
            "n_hosts": pa.array([n_hosts], pa.int64()),
            "n_pages": pa.array([total], pa.int64()),
            "fairness_micro": pa.array([fair], pa.int64()),
        }
    )


def _fairness_sql(pages: str) -> str:
    return (
        "WITH h AS (SELECT regexp_extract(url, '^https://([^/]+).*$', 1) "
        f"AS host FROM read_parquet('{pages}')), "
        "c AS (SELECT host, COUNT(*) AS n FROM h GROUP BY 1) "
        "SELECT CAST(COUNT(*) AS BIGINT) AS n_hosts, "
        "CAST(SUM(n) AS BIGINT) AS n_pages, "
        "CAST(SUM(n)::HUGEINT * SUM(n) * 1000000 "
        "// (COUNT(*) * SUM(n*n)::HUGEINT) AS BIGINT) AS fairness_micro "
        "FROM c"
    )


# --------------------------------------------------------------------------
# ANN quality eval: recall@10 of IVF against the exact top-k
# --------------------------------------------------------------------------


@query("ann_recall_at10", partial(oracles_ext.extended, "ann_recall_at10"), small=True)
def q_ann_recall_at10(sf_dir: str):
    """RETRIEVAL EVAL: per-query recall@10 of the IVF index (nlist=16,
    nprobe=4) against the exact brute-force top-10 — the index-quality
    number an ANN deployment tracks when tuning nprobe (probing 4/16
    cells trades recall for a 4× read cut; this query MEASURES that
    trade instead of assuming it). Output: (query_id, n_hits,
    recall_micro).

    Scale shape: both sides are existing output-bounded queries
    (n_queries × k rows each); the intersection is a driver merge over
    ≤ 2·n_queries·k rows. The oracle replays BOTH pipelines (exact CTE
    over the embeddings view, IVF CTE with the same trained codebook
    inlined) and joins them — centroid training is memoized, so the
    composed oracle costs no extra Ray pass."""
    from .queries import TOP_K, q_embedding_top10
    from .queries_media import q_ann_ivf_top10

    exact = q_embedding_top10(sf_dir).to_pandas()
    ivf = q_ann_ivf_top10(sf_dir)
    ivf = ivf.to_pandas() if hasattr(ivf, "to_pandas") else ivf
    ekeys = set(zip(exact["query_id"], exact["vec_id"]))
    hits: dict[int, int] = {int(q): 0 for q in exact["query_id"].unique()}
    for q, v in zip(ivf["query_id"], ivf["vec_id"]):
        if (q, v) in ekeys:
            hits[int(q)] += 1
    qids = sorted(hits)
    return pa.table(
        {
            "query_id": pa.array(qids, pa.int64()),
            "n_hits": pa.array([hits[q] for q in qids], pa.int64()),
            "recall_micro": pa.array(
                [(hits[q] * 1_000_000) // TOP_K for q in qids], pa.int64()
            ),
        }
    )


def _ann_recall_sql(emb01: str) -> str:
    from .oracles_ext import _ann_ivf_sql
    from .queries import N_QUERIES, TOP_K

    # fully path-bound (no tier views) like the other ANN oracles: the
    # inlined codebook is a function of THIS table, so the exact side must
    # read the same path regardless of what the session's views bind to
    exact = (
        f"WITH emb AS (SELECT * FROM read_parquet('{emb01}')), "
        "q AS (SELECT vec_id AS query_id, "
        "list_transform(embedding, x -> CAST(x AS DOUBLE)) AS qe "
        f"FROM emb WHERE vec_id < {N_QUERIES}), "
        "v AS (SELECT vec_id, list_transform(embedding, "
        "x -> CAST(x AS DOUBLE)) AS ve FROM emb), "
        "s AS (SELECT q.query_id, v.vec_id, "
        "CAST(FLOOR(list_cosine_similarity(q.qe, v.ve)*1000000 + 0.5) "
        "AS BIGINT) AS cos_micro FROM q CROSS JOIN v "
        "WHERE v.vec_id != q.query_id) "
        "SELECT query_id, vec_id FROM s QUALIFY ROW_NUMBER() OVER "
        f"(PARTITION BY query_id ORDER BY cos_micro DESC, vec_id ASC) <= {TOP_K}"
    )
    return (
        f"WITH exact AS ({exact}), ivf AS ({_ann_ivf_sql(emb01)}) "
        "SELECT e.query_id, CAST(COUNT(i.vec_id) AS BIGINT) AS n_hits, "
        f"CAST(COUNT(i.vec_id) * 1000000 // {TOP_K} AS BIGINT) AS recall_micro "
        "FROM exact e LEFT JOIN ivf i "
        "ON i.query_id = e.query_id AND i.vec_id = e.vec_id "
        "GROUP BY e.query_id"
    )


@query(
    "host_pagerank_weighted",
    lambda: _host_pr_weighted_sql(small_table("pages"), PPR_ITERS),
    small=True,
)
def q_host_pagerank_weighted(sf_dir: str):
    """WEIGHTED PageRank over the hostgraph: each host's rank flows along
    its out-links in proportion to the LINK COUNT (``host_link_matrix``'s
    n_links), contribution = r·w // W_src — the scheduler-facing
    authority score where a host linking another 500 times carries more
    endorsement than a single link (the unweighted page-level variant is
    ``pagerank_top20``). Self-links are dropped (they are not
    endorsements). Output: every host's (host, rank_micro) after
    ``PPR_ITERS`` integer-exact iterations.

    Scale shape: the input is the host×host-bounded rollup shuffle; the
    iteration runs on the driver over that bounded frame (the same
    bounded-aggregate class as host_fairness_index — hosts, not pages).
    A page-scale weighted variant would thread a weight column through
    the pregel stationary shards; the hostgraph is the bounded surface
    the oracle can replay exactly."""
    from .queries_crawl import q_host_link_matrix

    df = q_host_link_matrix(sf_dir).to_pandas()
    hosts = np.unique(
        np.concatenate(
            [
                df["src_host"].to_numpy(object).astype(str),
                df["dst_host"].to_numpy(object).astype(str),
            ]
        )
    )
    ix = {h: i for i, h in enumerate(hosts)}
    m = df[df["src_host"] != df["dst_host"]]
    src = np.array([ix[h] for h in m["src_host"]], np.int64)
    dst = np.array([ix[h] for h in m["dst_host"]], np.int64)
    w = m["n_links"].to_numpy(np.int64)
    wsum = np.zeros(len(hosts), np.int64)
    np.add.at(wsum, src, w)
    r = np.full(len(hosts), 1_000_000, np.int64)
    for _ in range(PPR_ITERS):
        c = np.zeros(len(hosts), np.int64)
        np.add.at(c, dst, (r[src] * w) // wsum[src])
        r = 150_000 + (85 * c) // 100
    return pa.table(
        {
            "host": pa.array(hosts.tolist(), pa.string()),
            "rank_micro": pa.array(r, pa.int64()),
        }
    )


def _host_pr_weighted_sql(pages: str, iters: int) -> str:
    host = "regexp_extract({col}, '^https://([^/]+).*$', 1)"
    parts = [
        "he AS MATERIALIZED (SELECT "
        + host.format(col="url")
        + " AS a, "
        + host.format(col="unnest(out_links)")
        + f" AS b FROM read_parquet('{pages}'))",
        "nodes AS MATERIALIZED (SELECT DISTINCT u AS host FROM "
        "(SELECT a AS u FROM he UNION ALL SELECT b FROM he))",
        "e AS MATERIALIZED (SELECT a AS src, b AS dst, "
        "CAST(COUNT(*) AS BIGINT) AS w FROM he WHERE a != b GROUP BY 1, 2)",
        "ws AS MATERIALIZED (SELECT src, SUM(w) AS t FROM e GROUP BY 1)",
        "r0 AS (SELECT host, CAST(1000000 AS BIGINT) AS r FROM nodes)",
    ]
    for k in range(1, iters + 1):
        parts.append(
            f"r{k} AS MATERIALIZED (SELECT n.host, "
            f"CAST(150000 + (85 * COALESCE(s{k}.c, 0)) // 100 AS BIGINT) AS r "
            f"FROM nodes n LEFT JOIN ("
            f"SELECT e.dst AS host, SUM(r.r * e.w // ws.t) AS c "
            f"FROM e JOIN r{k - 1} r ON r.host = e.src "
            f"JOIN ws ON ws.src = e.src GROUP BY 1) s{k} ON s{k}.host = n.host)"
        )
    return (
        "WITH " + ", ".join(parts) + f" SELECT host, r AS rank_micro FROM r{iters}"
    )


def _lang_mix_sql() -> str:
    from .oracles_ext import _LANG_PROFILES as _PROFILES
    from .oracles_ext import _WORD_PAT

    cnts = ", ".join(
        "len(list_filter(toks, t -> list_contains(["
        + ",".join(f"'{w}'" for w in words.split())
        + f"], t))) AS c_{lang}"
        for lang, words in _PROFILES
    )
    s_expr = " + ".join(f"c_{lang}" for lang, _ in _PROFILES)
    term = (
        "(CASE WHEN c_{l} > 0 THEN -(CAST(c_{l} AS DOUBLE)/s) "
        "* LOG2(CAST(c_{l} AS DOUBLE)/s) ELSE 0.0 END)"
    )
    h_expr = " + ".join(term.format(l=lang) for lang, _ in _PROFILES)
    return (
        "WITH t AS (SELECT doc_id, "
        f"list_transform(regexp_extract_all(text, '{_WORD_PAT}'), "
        "x -> lower(x)) AS toks FROM documents), "
        f"c AS (SELECT doc_id, {cnts} FROM t), "
        f"m AS (SELECT doc_id, {s_expr} AS s, c.* FROM c) "
        "SELECT doc_id, CAST(s AS BIGINT) AS n_matched, "
        f"CAST(CASE WHEN s = 0 THEN 0 ELSE FLOOR(({h_expr}) * 1000000 + 0.5) "
        "END AS BIGINT) AS entropy_micro FROM m"
    )


@query("doc_lang_mix_entropy", _lang_mix_sql)
def q_doc_lang_mix_entropy(sf_dir: str):
    """CODE-SWITCHING SCORE: per-document Shannon entropy (bits, micro
    units) of the language-profile match distribution — the langid
    stopword counts c_l turned into a mixture measure instead of an
    argmax. A clean monolingual doc scores ~0; a doc whose stopwords
    split across profiles (code-switching, or boilerplate gluing
    languages together) scores high — the standard multilingual-corpus
    triage signal next to ``langid_detect``'s hard label. Output:
    (doc_id, n_matched, entropy_micro); zero matches → entropy 0.

    Scale shape: pure map-side (no shuffle at all) — per batch, token
    membership against the 5 broadcast-size profiles, then a per-doc
    5-term entropy. Float discipline: the 5 entropy terms are added in
    the FIXED profile order as one explicit expression on both sides
    (en+de+fr+es+it) — never an aggregate SUM, whose accumulation order
    an engine may choose freely (the lang_temperature_odds hazard)."""
    import ray.data as rd

    from ..functions.text import _LANG_PROFILES, WORD_RE

    langs = list(_LANG_PROFILES)  # profile iteration order — the contract

    def score(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy().astype(np.int64)
        n_matched = np.zeros(len(ids), np.int64)
        ent = np.zeros(len(ids), np.int64)
        for i, t in enumerate(batch["text"].to_pylist()):
            toks = [w.lower() for w in WORD_RE.findall(t)]
            cs = [sum(1 for w in toks if w in _LANG_PROFILES[l]) for l in langs]
            s = sum(cs)
            n_matched[i] = s
            if s == 0:
                continue
            h = 0.0
            for c in cs:  # fixed profile order — matches the SQL expression
                if c > 0:
                    h += -(c / s) * np.log2(c / s)
            ent[i] = int(np.floor(h * 1_000_000 + 0.5))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_matched": pa.array(n_matched, pa.int64()),
                "entropy_micro": pa.array(ent, pa.int64()),
            }
        )

    return rd.read_parquet(
        _p(sf_dir, "documents"), columns=["doc_id", "text"]
    ).map_batches(score, batch_format="pyarrow")


@query(
    "pagerank_convergence",
    lambda: _pr_convergence_sql(small_table("pages"), PPR_ITERS),
    small=True,
)
def q_pagerank_convergence(sf_dir: str):
    """PAGERANK CONVERGENCE CURVE: the global L1 step size
    Σ_nodes |r_k − r_{k−1}| (micro units) after each of the
    ``PPR_ITERS`` synchronous iterations — the fixed-point diagnostic
    that justifies (or indicts) the chosen iteration count: a healthy
    run decays geometrically at roughly the damping factor per step.
    Output: (iter, l1_delta), iter 1-based.

    Scale shape: identical rounds to pagerank_top20 over the shared
    stationary layout; the only added traffic is ONE integer per shard
    per iteration (its local L1 partial). Integer arithmetic throughout
    → the unrolled-CTE oracle replays the deltas bit-for-bit."""
    from ..stages.pregel import pagerank_deltas
    from .queries_ml5 import _graph_layout

    layout, nb = _graph_layout(sf_dir)
    deltas = pagerank_deltas(layout, nb, PPR_ITERS)
    return pa.table(
        {
            "iter": pa.array(range(1, len(deltas) + 1), pa.int64()),
            "l1_delta": pa.array(deltas, pa.int64()),
        }
    )


def _pr_convergence_sql(pages: str, iters: int) -> str:
    """oracles_ext._pagerank_sql's unrolled rounds, finished with one
    ABS-difference sum per consecutive pair instead of the top-k."""
    parts = [
        f"nodes AS MATERIALIZED (SELECT url FROM read_parquet('{pages}'))",
        "e0 AS (SELECT url AS src, unnest(out_links) AS dst "
        f"FROM read_parquet('{pages}'))",
        "e AS MATERIALIZED (SELECT src, dst FROM e0 "
        "WHERE dst IN (SELECT url FROM nodes))",
        "deg AS MATERIALIZED (SELECT src, COUNT(*) AS d FROM e GROUP BY 1)",
        "r0 AS MATERIALIZED (SELECT url, CAST(1000000 AS BIGINT) AS r FROM nodes)",
    ]
    for k in range(1, iters + 1):
        parts.append(
            f"r{k} AS MATERIALIZED (SELECT n.url, "
            f"CAST(150000 + (85 * COALESCE(s{k}.c, 0)) // 100 AS BIGINT) AS r "
            f"FROM nodes n LEFT JOIN ("
            f"SELECT e.dst AS url, SUM(r.r // deg.d) AS c "
            f"FROM e JOIN r{k - 1} r ON r.url = e.src "
            f"JOIN deg ON deg.src = e.src GROUP BY 1) s{k} ON s{k}.url = n.url)"
        )
    deltas = " UNION ALL ".join(
        f"SELECT CAST({k} AS BIGINT) AS iter, "
        f"CAST(SUM(ABS(a.r - b.r)) AS BIGINT) AS l1_delta "
        f"FROM r{k} a JOIN r{k - 1} b ON b.url = a.url"
        for k in range(1, iters + 1)
    )
    return "WITH " + ", ".join(parts) + " " + deltas


RECALL_PROBES = (1, 2, 4, 8, 16)  # nprobe sweep; 16 == nlist → exact


@query("ann_recall_curve", partial(oracles_ext.extended, "ann_recall_curve"), small=True)
def q_ann_recall_curve(sf_dir: str):
    """IVF TUNING CURVE: mean recall@10 across the query set at nprobe ∈
    {1, 2, 4, 8, 16} (nlist = 16) — the actual recall-vs-read-cost trade
    an ANN deployment tunes. nprobe = nlist probes every cell, so that
    row is recall 1.0 BY CONSTRUCTION (full probe ≡ brute force under
    the same integer scoring) — a built-in self-check the tests pin.
    Output: (nprobe, total_hits, recall_micro), recall = total hits /
    (n_queries · k) in exact integer micro.

    Scale shape: one exact pass + one IVF pass per probe depth, every
    pass an existing output-bounded pipeline (n_queries × k rows);
    centroid training is memoized per table fingerprint, so the sweep
    costs 5 cheap scoring passes, not 5 trainings."""
    from ..stages.ann import ivf_topk
    from .queries import TOP_K, q_embedding_top10

    exact = q_embedding_top10(sf_dir).to_pandas()
    ekeys = set(zip(exact["query_id"], exact["vec_id"]))
    n_queries = exact["query_id"].nunique()
    rows = []
    for p in RECALL_PROBES:
        ivf = ivf_topk(
            os.path.join(sf_dir, "embeddings.parquet"), n_queries=5, k=10, nprobe=p
        )
        ivf = ivf.to_pandas() if hasattr(ivf, "to_pandas") else ivf
        hits = sum(
            1 for q, v in zip(ivf["query_id"], ivf["vec_id"]) if (q, v) in ekeys
        )
        rows.append((p, hits, (hits * 1_000_000) // (n_queries * TOP_K)))
    return pa.table(
        {
            "nprobe": pa.array([r[0] for r in rows], pa.int64()),
            "total_hits": pa.array([r[1] for r in rows], pa.int64()),
            "recall_micro": pa.array([r[2] for r in rows], pa.int64()),
        }
    )


def _ann_recall_curve_sql(emb01: str) -> str:
    """One exact CTE + one parametrized IVF CTE per probe depth, UNION ALL
    of the per-depth hit counts. Registered ONLY via the lazy
    build_extended_oracles path (trains the codebook — see the
    ann_recall_at10 note)."""
    from .oracles_ext import _ann_ivf_sql
    from .queries import N_QUERIES, TOP_K

    exact = (
        f"WITH emb AS (SELECT * FROM read_parquet('{emb01}')), "
        "q AS (SELECT vec_id AS query_id, "
        "list_transform(embedding, x -> CAST(x AS DOUBLE)) AS qe "
        f"FROM emb WHERE vec_id < {N_QUERIES}), "
        "v AS (SELECT vec_id, list_transform(embedding, "
        "x -> CAST(x AS DOUBLE)) AS ve FROM emb), "
        "s AS (SELECT q.query_id, v.vec_id, "
        "CAST(FLOOR(list_cosine_similarity(q.qe, v.ve)*1000000 + 0.5) "
        "AS BIGINT) AS cos_micro FROM q CROSS JOIN v "
        "WHERE v.vec_id != q.query_id) "
        "SELECT query_id, vec_id FROM s QUALIFY ROW_NUMBER() OVER "
        f"(PARTITION BY query_id ORDER BY cos_micro DESC, vec_id ASC) <= {TOP_K}"
    )
    blocks = []
    for p in RECALL_PROBES:
        blocks.append(
            f"SELECT CAST({p} AS BIGINT) AS nprobe, "
            "CAST(COUNT(*) AS BIGINT) AS total_hits, "
            f"CAST(COUNT(*) * 1000000 // {N_QUERIES * TOP_K} AS BIGINT) "
            "AS recall_micro "
            f"FROM exact e JOIN ({_ann_ivf_sql(emb01, nprobe=p)}) i "
            "ON i.query_id = e.query_id AND i.vec_id = e.vec_id"
        )
    return f"WITH exact AS ({exact}) " + " UNION ALL ".join(blocks)


# --------------------------------------------------------------------------
# sorted-neighborhood blocking (record-linkage candidate pairs)
# --------------------------------------------------------------------------

SNM_W = 3  # window size: pairs at sorted-rank distance ≤ SNM_W − 1
SNM_MAXD = 2  # verify gate: levenshtein ≤ 2


def _levenshtein(a: str, b: str) -> int:
    """Plain unit-cost edit distance — the exact function DuckDB's
    ``levenshtein`` computes, so the verify gate replays bit-for-bit."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(
                min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb))
            )
        prev = cur
    return prev[-1]


def _snm_sql() -> str:
    leads = []
    pair_sel = []
    for off in range(1, SNM_W):
        leads.append(
            f"LEAD(nm, {off}) OVER w AS nm{off}, "
            f"LEAD(p_partkey, {off}) OVER w AS pk{off}"
        )
        pair_sel.append(
            f"SELECT p_partkey AS part_a, pk{off} AS part_b, nm AS name_a, "
            f"nm{off} AS name_b FROM o WHERE pk{off} IS NOT NULL"
        )
    return (
        "WITH s AS (SELECT p_partkey, lower(p_name) AS nm FROM part), "
        "o AS (SELECT p_partkey, nm, " + ", ".join(leads) + " FROM s "
        "WINDOW w AS (ORDER BY nm, p_partkey)), "
        "pairs AS (" + " UNION ALL ".join(pair_sel) + ") "
        "SELECT part_a, part_b, CAST(levenshtein(name_a, name_b) AS BIGINT) "
        f"AS dist FROM pairs WHERE levenshtein(name_a, name_b) <= {SNM_MAXD}"
    )


@query("sorted_neighborhood_pairs", _snm_sql)
def q_sorted_neighborhood_pairs(sf_dir: str):
    """SORTED-NEIGHBORHOOD blocking (Hernández & Stolfo 1995): slide a
    ``SNM_W``-row window over part names sorted by (lower(name), partkey)
    and keep window pairs with edit distance ≤ ``SNM_MAXD`` — the classic
    record-linkage blocking scheme complementary to the deletion-variant
    blocking of ``part_name_typo_pairs`` (SNM also catches transpositions
    and substitutions that deletion neighborhoods miss). Output:
    (part_a, part_b, dist), a = earlier sort rank.

    Scale shape: the sort key's 2-char prefix is a DATA-INDEPENDENT range
    partition (prefix order = global sort order), so one prefix-bucketed
    shuffle sorts locally and emits in-window pairs per bucket; the only
    cross-bucket work is each bucket's first/last (SNM_W−1) rows — a
    ≤ 2·(SNM_W−1)·buckets boundary set the driver stitches with a rolling
    tail (window spans across empty/1-row buckets handled exactly). A hot
    prefix would split by its 3rd char — the frontier_skew_plan salting
    discipline. Verification is per candidate pair (output-bounded).

    Reference: the reference has no record-linkage operator; this is the
    entity-resolution tier of the build brief's dedup family."""
    import ray.data as rd

    def route(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        nm = pc.utf8_lower(batch["p_name"])
        return pa.table(
            {
                "prefix": pc.utf8_slice_codeunits(nm, 0, 2),
                "pk": batch["p_partkey"].cast(pa.int64()),
                "nm": nm,
            }
        )

    def in_bucket(g) -> pa.Table:
        import pandas as pd

        g = g.sort_values(["nm", "pk"], kind="stable").reset_index(drop=True)
        nm = g["nm"].to_numpy(object).astype(str)
        pk = g["pk"].to_numpy(np.int64)
        n = len(g)
        out = {
            "kind": [],
            "part_a": [],
            "part_b": [],
            "dist": [],
            "prefix": [],
            "nm": [],
            "pos": [],
        }
        for off in range(1, SNM_W):
            for i in range(n - off):
                d = _levenshtein(nm[i], nm[i + off])
                if d <= SNM_MAXD:
                    out["kind"].append(0)
                    out["part_a"].append(int(pk[i]))
                    out["part_b"].append(int(pk[i + off]))
                    out["dist"].append(d)
                    out["prefix"].append("")
                    out["nm"].append("")
                    out["pos"].append(0)
        # boundary rows: first/last (SNM_W−1) rows, pos = signed ordinal
        # (negative = from the end), plus the bucket count in every row
        edge = sorted(set(range(min(SNM_W - 1, n))) | {n - 1 - i for i in range(min(SNM_W - 1, n))})
        for i in edge:
            out["kind"].append(1)
            out["part_a"].append(int(pk[i]))
            out["part_b"].append(n)  # carries the bucket count
            out["dist"].append(0)
            out["prefix"].append(g["prefix"].iloc[0])
            out["nm"].append(nm[i])
            out["pos"].append(i)
        return pa.table(
            {
                "kind": pa.array(out["kind"], pa.int64()),
                "part_a": pa.array(out["part_a"], pa.int64()),
                "part_b": pa.array(out["part_b"], pa.int64()),
                "dist": pa.array(out["dist"], pa.int64()),
                "prefix": pa.array(out["prefix"], pa.string()),
                "nm": pa.array(out["nm"], pa.string()),
                "pos": pa.array(out["pos"], pa.int64()),
            }
        )

    both = (
        rd.read_parquet(_p(sf_dir, "part"), columns=["p_partkey", "p_name"])
        .map_batches(route, batch_format="pyarrow")
        .groupby("prefix")
        .map_groups(in_bucket, batch_format="pandas")
        .materialize()
    )
    import pyarrow.compute as pc

    def keep_kind(k: int, cols: list[str]):
        def f(b: pa.Table) -> pa.Table:
            return b.filter(pc.equal(b["kind"], k)).select(cols)

        return f

    pairs = both.map_batches(
        keep_kind(0, ["part_a", "part_b", "dist"]), batch_format="pyarrow"
    )
    edges = both.map_batches(
        keep_kind(1, ["prefix", "nm", "part_a", "part_b", "pos"]),
        batch_format="pyarrow",
    ).to_pandas()  # ≤ 2·(SNM_W−1)·buckets rows — bucket-bounded driver stitch
    tail: list[tuple[str, int]] = []  # rolling last (SNM_W−1) global rows
    cross_a, cross_b, cross_d = [], [], []
    for _prefix, g in edges.sort_values(["prefix", "pos"]).groupby(
        "prefix", sort=True
    ):
        cnt = int(g["part_b"].iloc[0])
        rows = list(zip(g["nm"], g["part_a"].astype(int), g["pos"].astype(int)))
        first = [r for r in rows if r[2] < SNM_W - 1][: SNM_W - 1]
        # pair the bucket's first rows against the rolling tail at global
        # rank distance ≤ SNM_W−1 (tail[-1] is adjacent to first[0])
        for ti, (tnm, tpk) in enumerate(reversed(tail)):
            for fi, (fnm, fpk, _p_) in enumerate(first):
                if (ti + 1 + fi) <= SNM_W - 1:
                    d = _levenshtein(tnm, fnm)
                    if d <= SNM_MAXD:
                        cross_a.append(tpk)
                        cross_b.append(fpk)
                        cross_d.append(d)
        last = sorted(
            {r for r in rows if r[2] >= cnt - (SNM_W - 1)}, key=lambda r: r[2]
        )
        new_tail = ([*tail, *[(nm_, pk_) for nm_, pk_, _p_ in last]])[
            -(SNM_W - 1) :
        ]
        tail = new_tail
    cross = rd.from_arrow(
        pa.table(
            {
                "part_a": pa.array(cross_a, pa.int64()),
                "part_b": pa.array(cross_b, pa.int64()),
                "dist": pa.array(cross_d, pa.int64()),
            }
        )
    )
    return pairs.union(cross)


# --------------------------------------------------------------------------
# temperature-scaled sampling odds (mT5 / XLM-R alpha sampling)
# --------------------------------------------------------------------------

TEMP_ALPHA = 0.3  # mT5's published exponent


def _temperature_odds_sql() -> str:
    tok = "len(regexp_extract_all(lower(text), '[a-z0-9]+'))"
    return (
        f"WITH l AS (SELECT lang, CAST(SUM({tok}) AS BIGINT) AS n "
        "FROM documents GROUP BY 1), "
        "r AS (SELECT n AS nref FROM l ORDER BY n DESC, lang ASC LIMIT 1) "
        "SELECT lang, n AS n_tokens, "
        "CAST(FLOOR(POWER(CAST(n AS DOUBLE) / nref, "
        f"CAST({TEMP_ALPHA} AS DOUBLE)) * 1000000 + 0.5) AS BIGINT) "
        "AS odds_micro FROM l CROSS JOIN r"
    )


@query("lang_temperature_odds", _temperature_odds_sql)
def q_lang_temperature_odds(sf_dir: str):
    """TEMPERATURE-SCALED language sampling odds (mT5/XLM-R α-sampling,
    α = 0.3): each language's sampling-rate multiplier relative to the
    LARGEST language, odds_l = (n_l / n_ref)^α — the table a mixing
    sampler multiplies into its per-language rates to upweight low-
    resource languages. The reference is the max-token language (tie:
    lang asc), so no cross-language float SUM exists anywhere — the
    normalization a sampler applies online is deliberately left out
    because a float sum's accumulation order is engine-dependent and
    would break the bit-exact oracle (the per-element pow/division
    replay exactly). Complements ``lang_token_budget``'s equal-split
    allocator. Output: (lang, n_tokens, odds_micro).

    Scale shape: per-batch token counts collapse to one row per language
    before the shuffle (|langs| rows total); the odds table is computed
    on the driver over that bounded aggregate."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .queries import TOKEN_RE

    def partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        agg = (
            pd.DataFrame(
                {
                    "lang": batch["lang"].to_pylist(),
                    "pc": [
                        len(TOKEN_RE.findall(t.lower()))
                        for t in batch["text"].to_pylist()
                    ],
                }
            )
            .groupby("lang", sort=False)["pc"]
            .sum()
            .reset_index()
        )
        return pa.table(
            {
                "lang": pa.array(agg["lang"], pa.string()),
                "pc": pa.array(agg["pc"].to_numpy(np.int64), pa.int64()),
            }
        )

    df = (
        rd.read_parquet(_p(sf_dir, "documents"), columns=["lang", "text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(Sum("pc", alias_name="n_tokens"))
        .to_pandas()  # |langs| rows
        .sort_values(["n_tokens", "lang"], ascending=[False, True], kind="stable")
    )
    n = df["n_tokens"].to_numpy(np.int64)
    ref = float(n[0]) if len(n) else 1.0
    odds = np.floor(
        np.power(n / ref, TEMP_ALPHA) * 1_000_000 + 0.5
    ).astype(np.int64)
    return pa.table(
        {
            "lang": pa.array(df["lang"].tolist(), pa.string()),
            "n_tokens": pa.array(n, pa.int64()),
            "odds_micro": pa.array(odds, pa.int64()),
        }
    )


# --------------------------------------------------------------------------
# two-sample Kolmogorov–Smirnov over event-type value distributions
# --------------------------------------------------------------------------

KS_BUCKETS_FLOOR = 32  # value-range partitions (scale.derive_buckets floor)


def _event_ks_sql() -> str:
    return (
        "WITH e AS (SELECT event_type AS t, value AS v FROM events), "
        "n AS (SELECT t, CAST(COUNT(*) AS BIGINT) AS n FROM e GROUP BY t), "
        "cnt AS (SELECT t, v, CAST(COUNT(*) AS BIGINT) AS c "
        "FROM e GROUP BY t, v), "
        "vals AS (SELECT DISTINCT v FROM e), "
        "grid AS (SELECT n.t, vals.v FROM n CROSS JOIN vals), "
        "j AS (SELECT g.t, g.v, COALESCE(c.c, 0) AS c FROM grid g "
        "LEFT JOIN cnt c ON c.t = g.t AND c.v = g.v), "
        "cum AS (SELECT t, v, CAST(SUM(c) OVER "
        "(PARTITION BY t ORDER BY v) AS BIGINT) AS cum FROM j), "
        "ks AS (SELECT a.t AS type_a, b.t AS type_b, "
        "MAX(ABS(a.cum * nb.n - b.cum * na.n)) AS ks_num "
        "FROM cum a JOIN cum b ON a.v = b.v AND a.t < b.t "
        "JOIN n na ON na.t = a.t JOIN n nb ON nb.t = b.t GROUP BY 1, 2) "
        "SELECT ks.type_a, ks.type_b, na.n AS n_a, nb.n AS n_b, "
        "ks.ks_num, ks.ks_num * 1000000 // (na.n * nb.n) AS ks_micro "
        "FROM ks JOIN n na ON na.t = ks.type_a "
        "JOIN n nb ON nb.t = ks.type_b"
    )


@query("event_value_ks_pairs", _event_ks_sql)
def q_event_value_ks_pairs(sf_dir: str):
    """TWO-SAMPLE KOLMOGOROV–SMIRNOV statistic between every pair of
    event types' value distributions — the distribution-drift audit that
    completes the divergence suite (chi², KL, JS are density-weighted;
    KS is the sup-norm CDF gap the drift monitors alert on). Exact
    integer arithmetic: for types (a, b) with sizes (n_a, n_b),
    ks_num = max over sample values v of |c_a(≤v)·n_b − c_b(≤v)·n_a|
    (the sup is attained at sample points, so evaluating every distinct
    value is exact), reported with ks_micro = ks_num·10⁶ // (n_a·n_b).
    Output one row per unordered pair: (type_a, type_b, n_a, n_b,
    ks_num, ks_micro).

    Scale shape: the classic distributed-cumulative pattern — pass 1 is
    a tiny partial aggregate (per-batch (bucket, type) counts + value
    envelope, driver-merged at B×T rows) that yields per-bucket prefix
    OFFSETS; pass 2 range-partitions values into B disjoint buckets
    (one shuffle) and computes each bucket's local CDF numerators +
    offsets entirely inside ``map_groups`` — no global sort, no
    pairwise materialization; the driver reduce is pair-bounded.
    Products c·n are taken in PYTHON ints (house overflow rule: int64
    c·n wraps once n_a·n_b passes ~9.2×10¹⁸ — two ~3×10⁹-row types).

    Reference: no KS in the reference (metrics end at rolling counts,
    bolts/metrics/MediaCounterBolt.java); curation addition."""
    import pandas as pd
    import ray.data as rd

    path = _p(sf_dir, "events")
    nb = derive_buckets(path, floor=KS_BUCKETS_FLOOR)

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "event_type": batch["event_type"],
                "value": batch["value"],
                "one": pa.array(np.ones(len(batch), np.int64)),
            }
        )
        g = t.group_by("event_type").aggregate(
            [("one", "sum"), ("value", "min"), ("value", "max")]
        )
        return g

    env = (
        rd.read_parquet(path, columns=["event_type", "value"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()  # T × n_batches-bounded
        .groupby("event_type", sort=True)
        .agg(n=("one_sum", "sum"), lo=("value_min", "min"), hi=("value_max", "max"))
    )
    types = env.index.tolist()
    n_tot = {ty: int(env.loc[ty, "n"]) for ty in types}
    lo, hi = float(env["lo"].min()), float(env["hi"].max())
    splits = np.linspace(lo, hi, nb + 1)[1:-1]  # B−1 interior cut points

    def bucketize(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy()
        return pa.table(
            {
                "bucket": pa.array(
                    np.searchsorted(splits, v, side="right").astype(np.int64)
                ),
                "event_type": batch["event_type"],
                "value": batch["value"],
            }
        )

    # per-(bucket, type) totals → prefix offsets (B×T, driver-merged)
    def bt_partial(batch: pa.Table) -> pa.Table:
        t = bucketize(batch)
        t = t.append_column("one", pa.array(np.ones(len(t), np.int64)))
        return t.group_by(["bucket", "event_type"]).aggregate([("one", "sum")])

    bt = (
        rd.read_parquet(path, columns=["event_type", "value"])
        .map_batches(bt_partial, batch_format="pyarrow")
        .to_pandas()
        .groupby(["bucket", "event_type"], sort=True)["one_sum"]
        .sum()
        .unstack(fill_value=0)
        .reindex(columns=types, fill_value=0)
        .sort_index()
    )
    # offsets[b][ty] = #events of ty with bucket < b
    offs = bt.cumsum().shift(1, fill_value=0)
    off_map = {
        (int(b), ty): int(offs.loc[b, ty]) for b in offs.index for ty in types
    }

    def ks_group(df: pd.DataFrame) -> pd.DataFrame:
        b = int(df["bucket"].iloc[0])
        v = df["value"].to_numpy()
        t = df["event_type"].to_numpy(object)
        uv = np.unique(v)
        cums = {}
        for ty in types:
            sel = np.sort(v[t == ty])
            cums[ty] = (
                np.searchsorted(sel, uv, side="right")
                + off_map.get((b, ty), 0)
            ).astype(object)  # Python-int products below
        rows = []
        for i, a in enumerate(types):
            for c in types[i + 1 :]:
                d = np.abs(cums[a] * n_tot[c] - cums[c] * n_tot[a])
                rows.append((a, c, int(d.max()) if len(uv) else 0))
        return pd.DataFrame(rows, columns=["type_a", "type_b", "ks_part"])

    parts = (
        rd.read_parquet(path, columns=["event_type", "value"])
        .map_batches(bucketize, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(ks_group, batch_format="pandas")
        .to_pandas()  # B × pair-bounded
    )
    agg = (
        parts.groupby(["type_a", "type_b"], sort=True)["ks_part"]
        .max()
        .reset_index(name="ks_num")
    )
    na = [n_tot[a] for a in agg["type_a"]]
    nbv = [n_tot[b] for b in agg["type_b"]]
    micro = [
        (int(k) * 1_000_000) // (int(x) * int(y))
        for k, x, y in zip(agg["ks_num"], na, nbv)
    ]
    return pa.table(
        {
            "type_a": pa.array(agg["type_a"].tolist(), pa.string()),
            "type_b": pa.array(agg["type_b"].tolist(), pa.string()),
            "n_a": pa.array(np.array(na, np.int64), pa.int64()),
            "n_b": pa.array(np.array(nbv, np.int64), pa.int64()),
            "ks_num": pa.array(
                agg["ks_num"].astype(np.int64).to_numpy(), pa.int64()
            ),
            "ks_micro": pa.array(np.array(micro, np.int64), pa.int64()),
        }
    )


# --------------------------------------------------------------------------
# Matryoshka truncation retrieval eval
# --------------------------------------------------------------------------

MRL_DIM = 16  # truncated prefix dims (of 64) — the MRL storage tier


def _matryoshka_sql() -> str:
    from .queries import N_QUERIES, TOP_K

    def side(slice_expr: str) -> str:
        cos = "list_cosine_similarity(q.qe, v.ve)"
        if slice_expr:  # zero-norm prefix → cosine 0 (the engine's rule)
            cos = (
                "CASE WHEN list_dot_product(q.qe, q.qe) = 0 OR "
                f"list_dot_product(v.ve, v.ve) = 0 THEN 0.0 ELSE {cos} END"
            )
        return (
            "SELECT q.query_id, v.vec_id FROM "
            "(SELECT vec_id AS query_id, "
            f"list_transform(embedding{slice_expr}, x -> CAST(x AS DOUBLE)) AS qe "
            f"FROM embeddings WHERE vec_id < {N_QUERIES}) q CROSS JOIN "
            "(SELECT vec_id, "
            f"list_transform(embedding{slice_expr}, x -> CAST(x AS DOUBLE)) AS ve "
            "FROM embeddings) v "
            "WHERE v.vec_id != q.query_id "
            "QUALIFY ROW_NUMBER() OVER (PARTITION BY q.query_id ORDER BY "
            f"CAST(FLOOR({cos}*1000000 + 0.5) "
            f"AS BIGINT) DESC, v.vec_id ASC) <= {TOP_K}"
        )

    return (
        f"WITH f AS ({side('')}), tr AS ({side(f'[1:{MRL_DIM}]')}) "
        "SELECT f.query_id, CAST(COUNT(tr.vec_id) AS BIGINT) AS n_hits, "
        f"CAST(COUNT(tr.vec_id) * 1000000 // {TOP_K} AS BIGINT) AS recall_micro "
        "FROM f LEFT JOIN tr ON tr.query_id = f.query_id "
        "AND tr.vec_id = f.vec_id GROUP BY f.query_id"
    )


@query("ann_matryoshka_recall", _matryoshka_sql)
def q_ann_matryoshka_recall(sf_dir: str):
    """MATRYOSHKA (MRL) TRUNCATION EVAL: exact cosine top-10 retrieval
    using only the FIRST ``MRL_DIM`` embedding dimensions, scored
    against the full-dimension exact top-10 — the recall cost of the
    4× storage/compute cut a Matryoshka deployment takes when it serves
    the truncated prefix tier (Kusupati et al. 2022). Output per query:
    (query_id, n_hits, recall_micro). Complements ann_recall_at10
    (which measures the IVF pruning trade; this measures the
    dimensionality trade).

    Scale shape: both sides are the brute-force discipline of
    q_embedding_top10 — per-batch float64 matmul against a broadcast
    query matrix, per-batch partial top-k under the exact (cos_micro
    desc, vec_id asc) order, output-bounded merge; the truncated side
    slices columns BEFORE normalizing (cosine of the raw prefix, the
    MRL contract). Oracle: DuckDB replays both sides with
    list_cosine_similarity over the full and [1:MRL_DIM]-sliced lists."""
    import pandas as pd
    import ray
    import ray.data as rd
    from .queries import N_QUERIES, TOP_K, q_embedding_top10

    full = q_embedding_top10(sf_dir).to_pandas()  # output-bounded

    import pyarrow.parquet as pq_

    qt = pq_.read_table(
        _p(sf_dir, "embeddings"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", N_QUERIES)],
    )
    qids = np.array(qt["vec_id"].to_pylist(), np.int64)
    qmat = np.stack(
        [
            np.asarray(e, np.float64)[:MRL_DIM]
            for e in qt["embedding"].to_pylist()
        ]
    )
    qmat = _unit_rows(qmat)
    q_ref = ray.put((qids, qmat))

    def sims(batch: pa.Table) -> pa.Table:
        from .queries import _micro

        bqids, bqmat = ray.get(q_ref)
        vids = batch["vec_id"].to_numpy()
        emb = np.stack(
            [
                np.asarray(e, np.float64)[:MRL_DIM]
                for e in batch["embedding"].to_pylist()
            ]
        )
        cm = _micro(_unit_rows(emb) @ bqmat.T)
        out_q, out_v, out_c = [], [], []
        for qi, qid in enumerate(bqids):
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
        return g.sort_values(
            ["cos_micro", "vec_id"], ascending=[False, True]
        ).head(TOP_K)

    trunc = (
        rd.read_parquet(_p(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
        .map_batches(sims, batch_format="pyarrow")
        .groupby("query_id")
        .map_groups(topk, batch_format="pandas")
        .to_pandas()
    )
    fkeys = set(zip(full["query_id"], full["vec_id"]))
    hits = {int(q): 0 for q in full["query_id"].unique()}
    for q, v in zip(trunc["query_id"], trunc["vec_id"]):
        if (q, v) in fkeys:
            hits[int(q)] += 1
    out_q = sorted(hits)
    return pa.table(
        {
            "query_id": pa.array(out_q, pa.int64()),
            "n_hits": pa.array([hits[q] for q in out_q], pa.int64()),
            "recall_micro": pa.array(
                [(hits[q] * 1_000_000) // TOP_K for q in out_q], pa.int64()
            ),
        }
    )


def _unit_rows(m: np.ndarray) -> np.ndarray:
    """Rows scaled to unit norm; an all-zero row (a zero truncated prefix)
    stays zero, so its cosine with anything is 0 — never NaN, which would
    make the top-k order undefined. The oracle's prefix side applies the
    same zero-norm rule."""
    norm = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.where(norm == 0, 1.0, norm)


# --------------------------------------------------------------------------
# k-means cluster purity (clustering-quality eval vs labels)
# --------------------------------------------------------------------------


def _kmeans_cells(sf_dir: str):
    """(centroid_id, label, cnt) contingency table of the kmeans_assign
    E-step vs the ground-truth labels — K × |labels| bounded, shared by
    the purity and NMI evals. Per-batch Arrow group_by partials, one
    driver fold (vectors never leave the map side)."""
    import pandas as pd  # noqa: F401
    import pyarrow.parquet as pq_
    import ray
    import ray.data as rd

    from ..stages.ann import _batch_embeddings, _micro, _normalize
    from .queries_ml import KMEANS_K

    emb_path = _p(sf_dir, "embeddings")
    cent_tbl = pq_.read_table(
        emb_path,
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", KMEANS_K)],
    )
    order = np.argsort(cent_tbl["vec_id"].to_numpy(), kind="stable")
    cmat = _normalize(
        np.asarray(cent_tbl["embedding"].to_pylist(), np.float64)[order]
    )
    cent_ref = ray.put(cmat)

    def partial(batch: pa.Table) -> pa.Table:
        c = ray.get(cent_ref)
        mat = _normalize(_batch_embeddings(batch))
        cm = _micro(mat @ c.T)
        best = np.argmax(cm, axis=1).astype(np.int64)
        lbl = batch["label"].to_numpy().astype(np.int64)
        t = pa.table(
            {
                "centroid_id": pa.array(best, pa.int64()),
                "label": pa.array(lbl, pa.int64()),
                "one": pa.array(np.ones(len(best), np.int64)),
            }
        )
        return t.group_by(["centroid_id", "label"]).aggregate([("one", "sum")])

    return (
        rd.read_parquet(emb_path, columns=["vec_id", "embedding", "label"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()  # K × |labels| × n_batches-bounded
        .groupby(["centroid_id", "label"], sort=True)["one_sum"]
        .sum()
        .reset_index(name="cnt")
    )


def _kmeans_purity_sql() -> str:
    from .queries_ml import KMEANS_K

    return (
        "WITH c AS (SELECT vec_id AS centroid_id, "
        "list_transform(embedding, x -> CAST(x AS DOUBLE)) AS ce "
        f"FROM embeddings WHERE vec_id < {KMEANS_K}), "
        "v AS (SELECT vec_id, CAST(label AS BIGINT) AS label, "
        "list_transform(embedding, x -> CAST(x AS DOUBLE)) AS ve "
        "FROM embeddings), "
        "s AS (SELECT v.vec_id, v.label, c.centroid_id, "
        "CAST(FLOOR(list_cosine_similarity(c.ce, v.ve)*1000000 + 0.5) "
        "AS BIGINT) AS cm FROM v CROSS JOIN c), "
        "a AS (SELECT vec_id, label, centroid_id FROM s "
        "QUALIFY ROW_NUMBER() OVER (PARTITION BY vec_id "
        "ORDER BY cm DESC, centroid_id ASC) = 1), "
        "cell AS (SELECT centroid_id, label, CAST(COUNT(*) AS BIGINT) AS cnt "
        "FROM a GROUP BY 1, 2), "
        "tot AS (SELECT centroid_id, CAST(SUM(cnt) AS BIGINT) AS n_vecs "
        "FROM cell GROUP BY 1), "
        "top AS (SELECT centroid_id, label AS top_label, cnt AS top_count "
        "FROM cell QUALIFY ROW_NUMBER() OVER (PARTITION BY centroid_id "
        "ORDER BY cnt DESC, label ASC) = 1) "
        "SELECT t.centroid_id, t.n_vecs, p.top_label, p.top_count, "
        "p.top_count * 1000000 // t.n_vecs AS purity_micro "
        "FROM tot t JOIN top p USING (centroid_id)"
    )


@query("kmeans_purity", _kmeans_purity_sql)
def q_kmeans_purity(sf_dir: str):
    """K-MEANS CLUSTER PURITY: the E-step assignment of
    ``kmeans_assign`` (micro-cosine nearest of the K deterministic
    centroids, ties → smallest centroid id) scored against the
    embeddings' ground-truth ``label`` column — per cluster the
    majority label, its count, and purity_micro = top_count·10⁶ // n;
    majority ties break to the SMALLEST label. The standard external
    clustering-quality metric (purity) next to the pair-counting
    Rand decomposition ``image_dedup_eval`` uses. Output per centroid:
    (centroid_id, n_vecs, top_label, top_count, purity_micro).

    Scale shape: assignment is the broadcast-centroid matmul; each
    batch emits (centroid, label) partial counts — K × |labels|
    bounded — and the argmax fold is a cluster-bounded driver step.
    One tiny shuffle, vectors never move. Oracle: the kmeans_assign
    CTE joined to labels with a window argmax."""
    cells = _kmeans_cells(sf_dir)
    rows = []
    for cid, g in cells.groupby("centroid_id", sort=True):
        n = int(g["cnt"].sum())
        g = g.sort_values(["cnt", "label"], ascending=[False, True])
        top_label = int(g.iloc[0]["label"])
        top_count = int(g.iloc[0]["cnt"])
        rows.append(
            (int(cid), n, top_label, top_count, (top_count * 1_000_000) // n)
        )
    return pa.table(
        {
            "centroid_id": pa.array([r[0] for r in rows], pa.int64()),
            "n_vecs": pa.array([r[1] for r in rows], pa.int64()),
            "top_label": pa.array([r[2] for r in rows], pa.int64()),
            "top_count": pa.array([r[3] for r in rows], pa.int64()),
            "purity_micro": pa.array([r[4] for r in rows], pa.int64()),
        }
    )


def _kmeans_nmi_sql() -> str:
    from .queries_ml import KMEANS_K

    def h_expr(rel: str, tot: str) -> str:
        return (
            f"CAST(SUM(CAST({rel}.c AS HUGEINT) * "
            f"-CAST(FLOOR(LOG10(CAST({rel}.c AS DOUBLE)/{tot})*1000000 + 0.5) "
            f"AS BIGINT)) // ANY_VALUE({tot}) AS BIGINT)"
        )

    return (
        "WITH c AS (SELECT vec_id AS centroid_id, "
        "list_transform(embedding, x -> CAST(x AS DOUBLE)) AS ce "
        f"FROM embeddings WHERE vec_id < {KMEANS_K}), "
        "v AS (SELECT vec_id, CAST(label AS BIGINT) AS label, "
        "list_transform(embedding, x -> CAST(x AS DOUBLE)) AS ve "
        "FROM embeddings), "
        "s AS (SELECT v.vec_id, v.label, c.centroid_id, "
        "CAST(FLOOR(list_cosine_similarity(c.ce, v.ve)*1000000 + 0.5) "
        "AS BIGINT) AS cm FROM v CROSS JOIN c), "
        "a AS (SELECT vec_id, label, centroid_id FROM s "
        "QUALIFY ROW_NUMBER() OVER (PARTITION BY vec_id "
        "ORDER BY cm DESC, centroid_id ASC) = 1), "
        "cell AS (SELECT centroid_id, label, CAST(COUNT(*) AS BIGINT) AS c "
        "FROM a GROUP BY 1, 2), "
        "n AS (SELECT CAST(SUM(c) AS BIGINT) AS n FROM cell), "
        "lm AS (SELECT label, CAST(SUM(c) AS BIGINT) AS c "
        "FROM cell GROUP BY 1), "
        "km AS (SELECT centroid_id, CAST(SUM(c) AS BIGINT) AS c "
        "FROM cell GROUP BY 1), "
        f"hl AS (SELECT {h_expr('lm', 'n.n')} AS h FROM lm CROSS JOIN n), "
        f"hk AS (SELECT {h_expr('km', 'n.n')} AS h FROM km CROSS JOIN n), "
        "kt AS (SELECT centroid_id, CAST(SUM(c) AS BIGINT) AS t "
        "FROM cell GROUP BY 1), "
        "hc AS (SELECT cell.centroid_id, ANY_VALUE(kt.t) AS t, "
        f"{h_expr('cell', 'kt.t')} AS h "
        "FROM cell JOIN kt USING (centroid_id) GROUP BY 1), "
        "hw AS (SELECT CAST(SUM(CAST(t AS HUGEINT) * h) "
        "// (SELECT n FROM n) AS BIGINT) AS h FROM hc) "
        "SELECT n.n AS n_vecs, hl.h AS h_label_micro, "
        "hk.h AS h_cluster_micro, hw.h AS h_within_micro, "
        "hl.h - hw.h AS mi_micro, "
        "CASE WHEN hl.h + hk.h = 0 THEN 0 "
        # floor toward -inf when MI < 0 (DuckDB // truncates) — the
        # sign-split of _kmeans_ari_sql; the denominator is never negative
        "WHEN hl.h < hw.h AND 2 * (hl.h - hw.h) * 1000000 % (hl.h + hk.h) <> 0 "
        "THEN 2 * (hl.h - hw.h) * 1000000 // (hl.h + hk.h) - 1 "
        "ELSE 2 * (hl.h - hw.h) * 1000000 // (hl.h + hk.h) END AS nmi_micro "
        "FROM n CROSS JOIN hl CROSS JOIN hk CROSS JOIN hw"
    )


@query("kmeans_nmi", _kmeans_nmi_sql)
def q_kmeans_nmi(sf_dir: str):
    """NORMALIZED MUTUAL INFORMATION of the k-means assignment vs the
    ground-truth labels — the information-theoretic complement to
    ``kmeans_purity`` (purity rewards many tiny clusters; NMI does
    not). All terms use the house entropy envelope (lp =
    floor(log10(c/T)·10⁶ + 0.5), H = Σ c·(−lp) // T, micro-Hartleys):
    MI = H(label) − Σ_c (n_c/n)·H(label | cluster=c) (the info-gain
    identity), NMI_sum = 2·MI / (H(label) + H(cluster)) × 10⁶. One
    output row: (n_vecs, h_label_micro, h_cluster_micro,
    h_within_micro, mi_micro, nmi_micro).

    Scale shape: the same single assignment pass as kmeans_purity
    (shared ``_kmeans_cells``); every entropy folds over the
    K × |labels|-bounded contingency table in PYTHON ints."""
    return _nmi_row(_kmeans_cells(sf_dir))


def _nmi_row(cells) -> pa.Table:
    """The NMI fold over a (centroid_id, label, cnt) contingency frame."""

    def _h(c: np.ndarray) -> tuple[int, int]:
        t = int(c.sum())
        lp = np.floor(np.log10(c / float(t)) * 1_000_000 + 0.5).astype(
            np.int64
        )
        return t, int((c.astype(object) * (-lp).astype(object)).sum()) // t

    n, h_label = _h(
        cells.groupby("label", sort=True)["cnt"].sum().to_numpy(np.int64)
    )
    _, h_cluster = _h(
        cells.groupby("centroid_id", sort=True)["cnt"].sum().to_numpy(np.int64)
    )
    h_within_num = 0
    for _, g in cells.groupby("centroid_id", sort=True):
        t_c, h_c = _h(g["cnt"].to_numpy(np.int64))
        h_within_num += t_c * h_c
    h_within = h_within_num // n
    mi = h_label - h_within
    denom = h_label + h_cluster
    nmi = (2 * mi * 1_000_000) // denom if denom else 0
    return pa.table(
        {
            "n_vecs": pa.array([n], pa.int64()),
            "h_label_micro": pa.array([h_label], pa.int64()),
            "h_cluster_micro": pa.array([h_cluster], pa.int64()),
            "h_within_micro": pa.array([h_within], pa.int64()),
            "mi_micro": pa.array([mi], pa.int64()),
            "nmi_micro": pa.array([nmi], pa.int64()),
        }
    )


def _kmeans_ari_sql() -> str:
    from .queries_ml import KMEANS_K

    c2 = "CAST(SUM(CAST(c AS HUGEINT) * (c - 1) // 2) AS HUGEINT)"
    return (
        "WITH c AS (SELECT vec_id AS centroid_id, "
        "list_transform(embedding, x -> CAST(x AS DOUBLE)) AS ce "
        f"FROM embeddings WHERE vec_id < {KMEANS_K}), "
        "v AS (SELECT vec_id, CAST(label AS BIGINT) AS label, "
        "list_transform(embedding, x -> CAST(x AS DOUBLE)) AS ve "
        "FROM embeddings), "
        "s AS (SELECT v.vec_id, v.label, c.centroid_id, "
        "CAST(FLOOR(list_cosine_similarity(c.ce, v.ve)*1000000 + 0.5) "
        "AS BIGINT) AS cm FROM v CROSS JOIN c), "
        "a AS (SELECT vec_id, label, centroid_id FROM s "
        "QUALIFY ROW_NUMBER() OVER (PARTITION BY vec_id "
        "ORDER BY cm DESC, centroid_id ASC) = 1), "
        "cell AS (SELECT centroid_id, label, CAST(COUNT(*) AS BIGINT) AS c "
        "FROM a GROUP BY 1, 2), "
        "n AS (SELECT CAST(SUM(c) AS HUGEINT) AS n FROM cell), "
        f"ix AS (SELECT {c2} AS v FROM cell), "
        f"am AS (SELECT {c2} AS v FROM "
        "(SELECT CAST(SUM(c) AS BIGINT) AS c FROM cell GROUP BY centroid_id)), "
        f"bm AS (SELECT {c2} AS v FROM "
        "(SELECT CAST(SUM(c) AS BIGINT) AS c FROM cell GROUP BY label)), "
        "t AS (SELECT n.n AS n, n.n * (n.n - 1) // 2 AS p, ix.v AS ix, "
        "am.v AS am, bm.v AS bm FROM n CROSS JOIN ix CROSS JOIN am "
        "CROSS JOIN bm), "
        "f AS (SELECT n, ix, am, bm, "
        "2 * (ix * p - am * bm) AS num, (am + bm) * p - 2 * am * bm AS den "
        "FROM t) "
        "SELECT CAST(n AS BIGINT) AS n_vecs, CAST(ix AS BIGINT) "
        "AS sum_pairs_both, CAST(am AS BIGINT) AS sum_pairs_cluster, "
        "CAST(bm AS BIGINT) AS sum_pairs_label, "
        "CAST(CASE WHEN den = 0 THEN 0 "
        # floor toward -inf for negative quotients (DuckDB // truncates)
        "WHEN num * 1000000 % den <> 0 AND ((num < 0) <> (den < 0)) "
        "THEN num * 1000000 // den - 1 "
        "ELSE num * 1000000 // den END AS BIGINT) AS ari_micro FROM f"
    )


@query("kmeans_ari", _kmeans_ari_sql)
def q_kmeans_ari(sf_dir: str):
    """ADJUSTED RAND INDEX of the k-means assignment vs the labels —
    the chance-corrected pair-counting metric completing the trio
    (purity rewards fragmenting, NMI depends on entropy scale; ARI is
    0 in expectation for random assignments). Exact integers
    throughout: with index = Σ C(n_ij,2), A = Σ C(a_i,2),
    B = Σ C(b_j,2), P = C(n,2), the identity ARI =
    (index − A·B/P) / ((A+B)/2 − A·B/P) clears denominators to
    num = 2·(index·P − A·B), den = (A+B)·P − 2·A·B, and
    ari_micro = num·10⁶ // den with the house sign-split floor (ARI
    can be negative). One row: (n_vecs, sum_pairs_both,
    sum_pairs_cluster, sum_pairs_label, ari_micro).

    Scale shape: the same single assignment pass (shared
    ``_kmeans_cells``); all pair sums fold over the K×|labels|-bounded
    table in PYTHON ints (C(n,2) wraps int64 past ~4.3×10⁹-member
    cells — same headroom rule as image_dedup_eval)."""
    cells = _kmeans_cells(sf_dir)

    def c2(v) -> int:
        return sum(int(x) * (int(x) - 1) // 2 for x in v)

    n = int(cells["cnt"].sum())
    index = c2(cells["cnt"])
    a_sum = c2(cells.groupby("centroid_id")["cnt"].sum())
    b_sum = c2(cells.groupby("label")["cnt"].sum())
    p = n * (n - 1) // 2
    num = 2 * (index * p - a_sum * b_sum)
    den = (a_sum + b_sum) * p - 2 * a_sum * b_sum
    # Python // floors toward -inf (ARI can be negative); the SQL side
    # sign-splits DuckDB's truncating // to match
    ari = (num * 1_000_000) // den if den else 0
    return pa.table(
        {
            "n_vecs": pa.array([n], pa.int64()),
            "sum_pairs_both": pa.array([index], pa.int64()),
            "sum_pairs_cluster": pa.array([a_sum], pa.int64()),
            "sum_pairs_label": pa.array([b_sum], pa.int64()),
            "ari_micro": pa.array([ari], pa.int64()),
        }
    )


# --------------------------------------------------------------------------
# k-center greedy coreset (diversity sampling)
# --------------------------------------------------------------------------

KCENTER_K = 8  # selected coreset size (unrolled in the SQL oracle)


def _kcenter_sql() -> str:
    k = KCENTER_K

    def cosm(ci: str) -> str:
        return (
            f"CAST(FLOOR(list_cosine_similarity(v.e, {ci}.e)*1000000 + 0.5) "
            "AS BIGINT)"
        )

    parts = [
        "v AS (SELECT vec_id, list_transform(embedding, "
        "x -> CAST(x AS DOUBLE)) AS e FROM embeddings)",
        "c1 AS MATERIALIZED (SELECT vec_id, e FROM v ORDER BY vec_id LIMIT 1)",
    ]
    sel = [
        "SELECT CAST(1 AS BIGINT) AS sel_rank, vec_id, "
        "CAST(0 AS BIGINT) AS min_dist_micro FROM c1"
    ]
    joins = "v CROSS JOIN c1"
    maxcos = cosm("c1")  # max cosine to the selected set so far
    for i in range(2, k + 1):
        exclude = " UNION ALL ".join(
            f"SELECT vec_id FROM c{j}" for j in range(1, i)
        )
        parts.append(
            f"d{i} AS MATERIALIZED (SELECT v.vec_id, v.e, {maxcos} AS mc FROM {joins} "
            f"WHERE v.vec_id NOT IN ({exclude}))"
        )
        # farthest point = the one whose max-cos to the set is SMALLEST
        parts.append(
            f"c{i} AS MATERIALIZED (SELECT vec_id, e, mc FROM d{i} "
            "ORDER BY mc ASC, vec_id ASC LIMIT 1)"
        )
        sel.append(
            f"SELECT CAST({i} AS BIGINT) AS sel_rank, vec_id, "
            f"CAST(1000000 - mc AS BIGINT) AS min_dist_micro FROM c{i}"
        )
        joins += f" CROSS JOIN c{i}"
        maxcos = f"GREATEST({maxcos}, {cosm(f'c{i}')})"
    return "WITH " + ", ".join(parts) + " " + " UNION ALL ".join(sel)


@query("kcenter_coreset", _kcenter_sql)
def q_kcenter_coreset(sf_dir: str):
    """K-CENTER GREEDY CORESET: the classic farthest-point diversity
    selection over the embedding table (Sener & Savarese 2018's coreset
    rule, the workhorse of active learning and diverse-subset
    curation): seed with the lowest vec_id, then ``KCENTER_K − 1``
    times pick the point FARTHEST from the selected set (max over
    points of min over centers of distance, distance = −cos_micro so
    the established integer-micro cosine discipline carries over; ties
    by vec_id asc). Output (sel_rank, vec_id, min_dist_micro) where
    min_dist_micro = 10⁶ − max cos_micro to the previously selected
    set (the coverage radius curve — the seed row reports 0).

    Scale shape: per round ONE map-side pass — the ≤ K selected
    vectors broadcast, each batch computes its min-over-centers and
    emits a single (argmax, max) partial row; no shuffle at any corpus
    size, K column-pruned scans total. Oracle: K unrolled CTE rounds,
    each one argmax row (ORDER BY d DESC, vec_id LIMIT 1) over the
    running LEAST of the per-center cosine micros."""
    import pyarrow.parquet as pq_
    import ray
    import ray.data as rd

    from .queries import _micro

    emb_path = _p(sf_dir, "embeddings")
    # seed: lowest vec_id (metadata-only read for the id, one-row fetch)
    first = pq_.read_table(emb_path, columns=["vec_id"])
    seed_id = int(np.min(first["vec_id"].to_numpy()))
    seed_row = pq_.read_table(
        emb_path,
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "==", seed_id)],
    )
    seed_vec = np.asarray(seed_row["embedding"].to_pylist()[0], np.float64)
    seed_vec = seed_vec / np.linalg.norm(seed_vec)

    selected = [(seed_id, 0)]  # (vec_id, min_dist_micro at selection)
    centers = [seed_vec]
    for _ in range(KCENTER_K - 1):
        cmat = np.stack(centers)
        sel_ids = np.array([s for s, _ in selected], np.int64)
        c_ref = ray.put((cmat, sel_ids))

        def far_partial(batch: pa.Table) -> pa.Table:
            cm, sids = ray.get(c_ref)
            vids = batch["vec_id"].to_numpy()
            emb = np.stack(
                [
                    np.asarray(e, np.float64)
                    for e in batch["embedding"].to_pylist()
                ]
            )
            emb = emb / np.linalg.norm(emb, axis=1, keepdims=True)
            cos = _micro(emb @ cm.T)  # (n, |centers|) integer micro
            maxcos = cos.max(axis=1)
            mask = ~np.isin(vids, sids)
            if not mask.any():
                return pa.table(
                    {
                        "vec_id": pa.array([], pa.int64()),
                        "maxcos": pa.array([], pa.int64()),
                    }
                )
            vv, mm = vids[mask], maxcos[mask]
            # per-batch partial argmax of distance = argmin of maxcos,
            # ties by vec_id asc
            o = np.lexsort((vv, mm))[0]
            return pa.table(
                {
                    "vec_id": pa.array([int(vv[o])], pa.int64()),
                    "maxcos": pa.array([int(mm[o])], pa.int64()),
                }
            )

        parts = (
            rd.read_parquet(emb_path, columns=["vec_id", "embedding"])
            .map_batches(far_partial, batch_format="pyarrow")
            .to_pandas()  # one row per batch
        )
        parts = parts.sort_values(["maxcos", "vec_id"]).reset_index(drop=True)
        pick, maxcos = int(parts.loc[0, "vec_id"]), int(parts.loc[0, "maxcos"])
        selected.append((pick, 1_000_000 - maxcos))
        row = pq_.read_table(
            emb_path,
            columns=["vec_id", "embedding"],
            filters=[("vec_id", "==", pick)],
        )
        v = np.asarray(row["embedding"].to_pylist()[0], np.float64)
        centers.append(v / np.linalg.norm(v))
    return pa.table(
        {
            "sel_rank": pa.array(
                np.arange(1, len(selected) + 1, dtype=np.int64), pa.int64()
            ),
            "vec_id": pa.array([s for s, _ in selected], pa.int64()),
            "min_dist_micro": pa.array(
                [d for _, d in selected], pa.int64()
            ),
        }
    )


# --------------------------------------------------------------------------
# inter-arrival exponential-fit (one-sample KS per event type)
# --------------------------------------------------------------------------


def _expfit_sql() -> str:
    return (
        "WITH e AS (SELECT event_type AS t, epoch_us(ts) AS ts FROM events), "
        "g AS (SELECT t, ts - LAG(ts) OVER (PARTITION BY t ORDER BY ts) AS v "
        "FROM e QUALIFY v IS NOT NULL), "
        "n AS (SELECT t, CAST(COUNT(*) AS BIGINT) AS n, "
        "CAST(SUM(v) AS BIGINT) AS s FROM g GROUP BY t), "
        "d AS (SELECT t, v, CAST(COUNT(*) AS BIGINT) AS c FROM g "
        "GROUP BY t, v), "
        "cum AS (SELECT t, v, CAST(SUM(c) OVER "
        "(PARTITION BY t ORDER BY v) AS BIGINT) AS le, "
        "CAST(SUM(c) OVER (PARTITION BY t ORDER BY v) - c AS BIGINT) AS lt "
        "FROM d), "
        "f AS (SELECT cum.t, n.n, n.s, "
        "CAST(FLOOR((1 - EXP(-(CAST(cum.v AS DOUBLE) * n.n) / n.s)) "
        "* 1000000 + 0.5) AS BIGINT) AS fm, "
        "cum.le * 1000000 // n.n AS lem, cum.lt * 1000000 // n.n AS ltm "
        "FROM cum JOIN n USING (t)) "
        "SELECT t AS event_type, ANY_VALUE(n) AS n_gaps, "
        "ANY_VALUE(s) AS sum_gap_us, "
        "CAST(MAX(GREATEST(ABS(lem - fm), ABS(ltm - fm))) AS BIGINT) "
        "AS ks_micro FROM f GROUP BY t"
    )


@query("event_interarrival_expfit", _expfit_sql)
def q_event_interarrival_expfit(sf_dir: str):
    """INTER-ARRIVAL EXPONENTIAL FIT: per event type, the one-sample
    Kolmogorov–Smirnov distance between the empirical inter-arrival-gap
    distribution and the MLE-fitted exponential (λ̂ = n_gaps / Σgaps) —
    the Poisson-process sanity audit behind rate-based alerting (a big
    D says arrivals are bursty/periodic and a fixed-rate alarm will
    misfire; complements the two-sample ``event_value_ks_pairs``).
    D is evaluated tie-exactly at every distinct gap v:
    max(|cnt_le(v)·10⁶//n − F(v)|, |cnt_lt(v)·10⁶//n − F(v)|) with
    F(v) = floor((1 − e^{−v·n/S})·10⁶ + 0.5) — the float expression is
    written IDENTICALLY on both engines (the _score_micro bridging
    discipline). Output per type: (event_type, n_gaps, sum_gap_us,
    ks_micro).

    Scale shape: gaps come from TIME-RANGE buckets (sort only inside a
    bucket; the B×T boundary gaps stitch on the driver — the
    sorted-neighborhood rolling-tail discipline), and the CDF counts
    come from VALUE-RANGE buckets with driver prefix offsets (the
    event_value_ks_pairs discipline); the final max is a per-batch
    partial. The gap multiset is invariant under equal-ts orderings
    (equal neighbors contribute 0 gaps either way), so no tie-break
    column is needed."""
    import pandas as pd
    import ray.data as rd

    path = _p(sf_dir, "events")
    nb = derive_buckets(path, floor=KS_BUCKETS_FLOOR)

    def us(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "t": batch["event_type"],
                "ts": pc.cast(batch["ts"], pa.int64()),
            }
        )

    # pass 0: global ts envelope (tiny partial aggregate)
    env = (
        rd.read_parquet(path, columns=["event_type", "ts"])
        .map_batches(
            lambda b: pa.table(
                {
                    "lo": pa.array(
                        [int(pa.compute.min(us(b)["ts"]).as_py())], pa.int64()
                    ),
                    "hi": pa.array(
                        [int(pa.compute.max(us(b)["ts"]).as_py())], pa.int64()
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        .to_pandas()
    )
    t_lo, t_hi = int(env["lo"].min()), int(env["hi"].max())
    t_splits = np.linspace(t_lo, t_hi, nb + 1)[1:-1]

    def ts_bucketize(batch: pa.Table) -> pa.Table:
        t = us(batch)
        return t.append_column(
            "b",
            pa.array(
                np.searchsorted(
                    t_splits, t["ts"].to_numpy(), side="right"
                ).astype(np.int64),
                pa.int64(),
            ),
        )

    def local_gaps(df: pd.DataFrame) -> pd.DataFrame:
        v = np.sort(df["ts"].to_numpy())
        return pd.DataFrame(
            {
                "t": df["t"].iloc[0],
                "v": np.diff(v).astype(np.int64),
            }
        )

    gaps = (
        rd.read_parquet(path, columns=["event_type", "ts"])
        .map_batches(ts_bucketize, batch_format="pyarrow")
        .groupby(["t", "b"])
        .map_groups(local_gaps, batch_format="pandas")
    ).materialize()  # consumed by totals AND the CDF pass

    # boundary stitch: per-(type, bucket) min/max ts (B×T-bounded)
    edges = (
        rd.read_parquet(path, columns=["event_type", "ts"])
        .map_batches(ts_bucketize, batch_format="pyarrow")
        .map_batches(
            lambda b: pa.Table.from_pandas(
                b.to_pandas()
                .groupby(["t", "b"])["ts"]
                .agg(["min", "max"])
                .reset_index(),
                preserve_index=False,
            ),
            batch_format="pyarrow",
        )
        .to_pandas()
        .groupby(["t", "b"])
        .agg(mn=("min", "min"), mx=("max", "max"))
        .reset_index()
        .sort_values(["t", "b"])
    )
    brows_t, brows_v = [], []
    for t, g in edges.groupby("t", sort=True):
        mx = g["mx"].to_numpy()
        mn = g["mn"].to_numpy()
        for i in range(1, len(g)):
            brows_t.append(t)
            brows_v.append(int(mn[i] - mx[i - 1]))
    all_gaps = gaps
    if brows_t:
        all_gaps = gaps.union(
            rd.from_arrow(
                pa.table(
                    {
                        "t": pa.array(brows_t, pa.string()),
                        "v": pa.array(np.array(brows_v, np.int64), pa.int64()),
                    }
                )
            )
        ).materialize()

    # totals + value envelope per type (tiny partial aggregate)
    tot = (
        all_gaps.map_batches(
            lambda b: pa.Table.from_pandas(
                b.to_pandas()
                .groupby("t")["v"]
                .agg(["count", "sum", "min", "max"])
                .reset_index(),
                preserve_index=False,
            ),
            batch_format="pyarrow",
        )
        .to_pandas()
        .groupby("t")
        .agg(
            n=("count", "sum"),
            s=("sum", "sum"),
            lo=("min", "min"),
            hi=("max", "max"),
        )
    )
    n_tot = {t: int(r["n"]) for t, r in tot.iterrows()}
    s_tot = {t: int(r["s"]) for t, r in tot.iterrows()}
    v_lo, v_hi = float(tot["lo"].min()), float(tot["hi"].max())
    v_splits = np.linspace(v_lo, v_hi, nb + 1)[1:-1]

    def v_bucketize(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "vb",
            pa.array(
                np.searchsorted(
                    v_splits, batch["v"].to_numpy(), side="right"
                ).astype(np.int64),
                pa.int64(),
            ),
        )

    # per-(type, vbucket) counts → prefix offsets (B×T, driver-merged)
    vb = (
        all_gaps.map_batches(v_bucketize, batch_format="pyarrow")
        .map_batches(
            lambda b: pa.Table.from_pandas(
                b.to_pandas()
                .groupby(["t", "vb"])
                .size()
                .reset_index(name="c"),
                preserve_index=False,
            ),
            batch_format="pyarrow",
        )
        .to_pandas()
        .groupby(["t", "vb"], sort=True)["c"]
        .sum()
        .unstack(fill_value=0)
        .sort_index()
    )
    offs = vb.cumsum(axis=1).shift(1, axis=1, fill_value=0)
    off_map = {
        (t, int(b)): int(offs.loc[t, b]) for t in offs.index for b in offs.columns
    }

    def d_group(df: pd.DataFrame) -> pd.DataFrame:
        t = df["t"].iloc[0]
        b = int(df["vb"].iloc[0])
        v = np.sort(df["v"].to_numpy())
        uv = np.unique(v)
        base = off_map.get((t, b), 0)
        le = base + np.searchsorted(v, uv, side="right")
        lt = base + np.searchsorted(v, uv, side="left")
        n, s = n_tot[t], s_tot[t]
        fm = np.floor(
            (1.0 - np.exp(-(uv.astype(np.float64) * n) / s)) * 1_000_000
            + 0.5
        ).astype(np.int64)
        lem = le * 1_000_000 // n
        ltm = lt * 1_000_000 // n
        d = np.maximum(np.abs(lem - fm), np.abs(ltm - fm))
        return pd.DataFrame({"t": [t], "d": [int(d.max()) if len(d) else 0]})

    parts = (
        all_gaps.map_batches(v_bucketize, batch_format="pyarrow")
        .groupby(["t", "vb"])
        .map_groups(d_group, batch_format="pandas")
        .to_pandas()  # B×T-bounded
        .groupby("t", sort=True)["d"]
        .max()
    )
    types = sorted(n_tot)
    return pa.table(
        {
            "event_type": pa.array(types, pa.string()),
            "n_gaps": pa.array([n_tot[t] for t in types], pa.int64()),
            "sum_gap_us": pa.array([s_tot[t] for t in types], pa.int64()),
            "ks_micro": pa.array(
                [int(parts[t]) for t in types], pa.int64()
            ),
        }
    )


# --------------------------------------------------------------------------
# UniMax waterfill allocation (per-source token budgets)
# --------------------------------------------------------------------------

UNIMAX_BUDGET_PCT = 50  # total token budget as % of corpus tokens


def _unimax_sql() -> str:
    pct = UNIMAX_BUDGET_PCT
    return (
        "WITH c AS (SELECT source, CAST(SUM(len(regexp_extract_all("
        "lower(text), '[a-z0-9]+'))) AS BIGINT) AS n "
        "FROM documents GROUP BY source), "
        f"t AS (SELECT SUM(n) * {pct} // 100 AS T FROM c), "
        "o AS (SELECT source, n, ROW_NUMBER() OVER (ORDER BY n, source) AS i, "
        "SUM(n) OVER (ORDER BY n, source ROWS UNBOUNDED PRECEDING) AS ps, "
        "COUNT(*) OVER () AS k FROM c), "
        # pivot: first i (in (n, source) order) whose suffix can absorb
        # the remaining budget at a uniform level
        "piv AS (SELECT MIN(o.i) AS pi FROM o, t "
        "WHERE (t.T - (o.ps - o.n)) <= o.n * (o.k - o.i + 1)), "
        "lvl0 AS (SELECT "
        "(SELECT T FROM t) - COALESCE((SELECT SUM(o.n) FROM o, piv "
        "WHERE o.i < piv.pi), 0) AS rem, "
        "(SELECT MAX(k) FROM o) - (SELECT pi FROM piv) + 1 AS m), "
        "lvl AS (SELECT rem // m AS s, rem % m AS r FROM lvl0), "
        "ranked AS (SELECT o.source, o.n, o.i, p.pi, "
        "ROW_NUMBER() OVER (PARTITION BY (o.i >= p.pi) ORDER BY o.source) "
        "AS name_rank FROM o CROSS JOIN piv p) "
        "SELECT ranked.source, ranked.n AS n_tokens, "
        "CAST(CASE WHEN ranked.i < ranked.pi THEN ranked.n "
        "ELSE lvl.s + CASE WHEN ranked.name_rank <= lvl.r THEN 1 ELSE 0 END "
        "END AS BIGINT) AS alloc_tokens, "
        "(CASE WHEN ranked.i < ranked.pi THEN ranked.n "
        "ELSE lvl.s + CASE WHEN ranked.name_rank <= lvl.r THEN 1 ELSE 0 END "
        "END) = ranked.n AS capped "
        "FROM ranked CROSS JOIN lvl"
    )


@query("unimax_allocation", _unimax_sql)
def q_unimax_allocation(sf_dir: str):
    """UNIMAX WATERFILL ALLOCATION (Chung et al. 2023's UniMax sampling,
    the cap-aware alternative to temperature sampling): split a total
    token budget T = ``UNIMAX_BUDGET_PCT``% of corpus tokens across
    sources as uniformly as possible without exceeding any source's
    available tokens — find the integer water level s with
    Σ min(cᵢ, s) = T; sources below the level are fully consumed
    (capped), the rest get s tokens each, and the T mod m remainder
    goes +1 to the lexicographically-first uncapped sources (exact
    deterministic tie rule). Output (source, n_tokens, alloc_tokens,
    capped).

    Scale shape: the per-source token counts are a map-side partial
    aggregate + one source-bounded groupby (text column pruned after
    the count); the waterfill itself is a driver step over the
    AGGREGATED per-source table (thousands of rows, the
    shard_assign_sources planning discipline). Oracle: the closed form
    (pivot by sorted prefix sums, then level + remainder) replays in
    SQL window functions.

    Reference: no mixing machinery in the reference (ingest is
    RedisSpout pass-through); data-mixing addition next to
    lang_temperature_odds / source_budget_docs."""
    import pandas as pd
    import ray.data as rd

    from .queries import TOKEN_RE  # house word regex

    def partials(batch: pa.Table) -> pa.Table:
        toks = [
            len(TOKEN_RE.findall(t.lower()))
            for t in batch["text"].to_pylist()
        ]
        t = pa.table(
            {
                "source": batch["source"],
                "n": pa.array(np.array(toks, np.int64), pa.int64()),
            }
        )
        return t.group_by("source").aggregate([("n", "sum")])

    c = (
        rd.read_parquet(_p(sf_dir, "documents"), columns=["source", "text"])
        .map_batches(partials, batch_format="pyarrow")
        .to_pandas()  # sources × n_batches-bounded
        .groupby("source", sort=True)["n_sum"]
        .sum()
        .reset_index(name="n_tokens")
    )
    # waterfill in PYTHON ints (T and prefix sums are corpus-scale)
    total = int(c["n_tokens"].sum())
    T = (total * UNIMAX_BUDGET_PCT) // 100
    o = c.sort_values(["n_tokens", "source"], kind="stable").reset_index(drop=True)
    k = len(o)
    alloc = {}
    ps = 0
    pivot = None
    for i in range(k):
        n_i = int(o.loc[i, "n_tokens"])
        if (T - ps) <= n_i * (k - i):
            pivot = i
            break
        alloc[o.loc[i, "source"]] = n_i  # capped: fully consumed
        ps += n_i
    if pivot is None:
        # budget ≥ corpus: everyone capped (unreachable at 50%)
        for i in range(k):
            alloc[o.loc[i, "source"]] = int(o.loc[i, "n_tokens"])
    else:
        rem = T - ps
        m = k - pivot
        s, r = rem // m, rem % m
        uncapped = sorted(o.loc[pivot:, "source"].tolist())
        for j, src in enumerate(uncapped):
            alloc[src] = s + (1 if j < r else 0)
    out = c.copy()
    out["alloc_tokens"] = [alloc[s] for s in out["source"]]
    out["capped"] = out["alloc_tokens"] == out["n_tokens"]
    return pa.table(
        {
            "source": pa.array(out["source"].tolist(), pa.string()),
            "n_tokens": pa.array(out["n_tokens"].to_numpy(np.int64), pa.int64()),
            "alloc_tokens": pa.array(
                out["alloc_tokens"].to_numpy(np.int64), pa.int64()
            ),
            "capped": pa.array(out["capped"].tolist(), pa.bool_()),
        }
    )
