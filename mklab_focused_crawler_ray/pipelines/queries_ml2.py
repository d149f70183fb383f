"""Second wave of large-scale curation / analytics operators: exact
two-pass heavy hitters, zero-filled time-series (date-spine gap fill),
per-key mode (most-frequent value with deterministic tie-break), a
two-hop shuffle join (TPC-H Q3 shape), CUBE aggregation, a data-mixing
token-budget allocator, per-user inter-event gap statistics, and exact
per-group medians by bounded-key counting.

Reference lineage (semantics, not code): the heavy-hitter pass is the
batch form of the rolling term counters in
``bolts/metrics/ItemsCounterBolt.java:60-107`` (top terms over a stream);
the mode/gap operators generalize the per-user aggregation the
``RankerBolt`` family applies per item. Everything else is curation
machinery the build brief lists as first-class.

All eight queries are SQL-checked: integer units end-to-end (counts,
epoch hours/days, price cents, micro-rates) so Ray and DuckDB agree
bit-for-bit, and column names match the oracle exactly.
"""

from __future__ import annotations

import os
import re

import numpy as np
import pyarrow as pa

from ..scale import cogroup, derive_buckets
from .registry import query

# tokenization shared with the heavy-hitter / budget oracles:
# regexp_extract_all(lower(text), '[a-z0-9]+')
_TOK2_RE = re.compile(r"[a-z0-9]+")
_TOK2_SQL = "regexp_extract_all(lower(text), '[a-z0-9]+')"

HH_K = 50  # heavy hitter threshold: tokens with count*HH_K > total tokens
GAPFILL_HOUR_US = 3_600_000_000  # gap-fill granularity (µs per hour)
SHUFFLE_BLOCKS = 32  # pinned block count feeding every sort-based shuffle
Q3_SEGMENT = "BUILDING"  # TPC-H Q3 constants
Q3_CUT_DAYS = 10227  # 1998-01-01 as epoch days
Q3_TOPK = 10
CUBE_ALL_TYPE = "ALL"  # CUBE sentinels (SQL NULLs are avoided on purpose:
CUBE_ALL_WD = -1  # the driver compare treats NULL/NaN inconsistently)
BUDGET_FRAC_NUM, BUDGET_FRAC_DEN = 1, 2  # global budget = total_tokens // 2


def _p(sf_dir: str, table: str) -> str:
    return os.path.join(sf_dir, f"{table}.parquet")


def _ms(batch: pa.Table, col: str = "ts") -> np.ndarray:
    """Timestamp column → int64 epoch ms with an EXPLICIT unit cast (fixture
    files are timestamp[ms], driver tables timestamp[us] — never rely on the
    storage unit)."""
    import pyarrow.compute as pc

    return pc.cast(
        pc.cast(batch[col], pa.timestamp("ms"), safe=False), pa.int64()
    ).to_numpy()


# --------------------------------------------------------------------------
# exact heavy hitters (two-pass candidate + recount)
# --------------------------------------------------------------------------


@query(
    "heavy_hitter_tokens",
    f"WITH uni AS (SELECT UNNEST({_TOK2_SQL}) AS token FROM documents), "
    "tot AS (SELECT CAST(COUNT(*) AS BIGINT) AS t FROM uni), "
    "c AS (SELECT token, CAST(COUNT(*) AS BIGINT) AS n FROM uni GROUP BY 1) "
    f"SELECT token, n FROM c CROSS JOIN tot WHERE n * {HH_K} > t",
)
def q_heavy_hitter_tokens(sf_dir: str):
    """EXACT distributed heavy hitters: every token whose corpus count
    exceeds total/HH_K, with its exact count — no approximation.

    Scale recipe (two passes, never a full token shuffle):
      pass 1  per-batch local filter: a token with global count > N/K must
              have count_b > N_b/K in at least one batch (pigeonhole), so
              the union of per-batch local heavy hitters is a provably
              complete candidate set of ≤ K tokens per batch. Only
              candidates and per-batch token totals leave the workers.
      pass 2  exact recount of the (broadcast, sorted) candidate array via
              searchsorted — shuffle volume is O(candidates × blocks) —
              then a final filter against the exact global total.
    This is the classic MG-style exact top-frequency pattern; at 100 TB the
    driver only ever holds the candidate union (≤ K × blocks tokens)."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    docs = _p(sf_dir, "documents")

    def local_hh(batch: pa.Table) -> pa.Table:
        toks: list[str] = []
        for txt in batch["text"].to_pylist():
            toks.extend(_TOK2_RE.findall(txt.lower()))
        if not toks:
            return pa.table(
                {"token": pa.array([], pa.string()), "pn": pa.array([], pa.int64())}
            )
        u, c = np.unique(np.asarray(toks, object), return_counts=True)
        keep = c.astype(np.int64) * HH_K > len(toks)
        # one sentinel row carries the batch's token total (token="")
        return pa.table(
            {
                "token": pa.array(list(u[keep]) + [""], pa.string()),
                "pn": pa.array(
                    np.r_[c[keep].astype(np.int64), np.int64(len(toks))], pa.int64()
                ),
            }
        )

    # pass 1: candidate union + exact N (both tiny) — this is the ONE
    # driver-side collect, bounded at K tokens per block by construction
    p1 = (
        rd.read_parquet(docs, columns=["text"])
        .map_batches(local_hh, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("pn", alias_name="n"))
        .to_pandas()
    )
    total = int(p1.loc[p1["token"] == "", "n"].iloc[0])
    cand = np.sort(p1.loc[p1["token"] != "", "token"].to_numpy(object))
    cand_ref = ray.put(cand)

    def recount(batch: pa.Table) -> pa.Table:
        cset = ray.get(cand_ref)
        toks: list[str] = []
        for txt in batch["text"].to_pylist():
            toks.extend(_TOK2_RE.findall(txt.lower()))
        arr = np.asarray(toks, object)
        pos = np.searchsorted(cset, arr)
        ok = (pos < len(cset)) & (cset[np.minimum(pos, len(cset) - 1)] == arr)
        u, c = np.unique(arr[ok], return_counts=True)
        return pa.table(
            {
                "token": pa.array(list(u), pa.string()),
                "pn": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    def final_filter(batch: pa.Table) -> pa.Table:
        n = batch["n"].to_numpy()
        return batch.filter(pa.array(n * HH_K > total))

    return (
        rd.read_parquet(docs, columns=["text"])
        .map_batches(recount, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("pn", alias_name="n"))
        .map_batches(final_filter, batch_format="pyarrow")
    )


# --------------------------------------------------------------------------
# date-spine gap fill
# --------------------------------------------------------------------------


@query(
    "events_hourly_gapfill",
    "WITH e AS (SELECT event_type, "
    "CAST(FLOOR(epoch_us(ts)/3600000000.0) AS BIGINT) AS hour FROM events), "
    "b AS (SELECT MIN(hour) AS lo, MAX(hour) AS hi FROM e), "
    "spine AS (SELECT t.event_type, gs.hour FROM "
    "(SELECT DISTINCT event_type FROM e) t CROSS JOIN "
    "(SELECT UNNEST(generate_series(lo, hi)) AS hour FROM b) gs), "
    "c AS (SELECT event_type, hour, CAST(COUNT(*) AS BIGINT) AS n "
    "FROM e GROUP BY 1, 2) "
    "SELECT s.event_type, s.hour, CAST(COALESCE(c.n, 0) AS BIGINT) AS n "
    "FROM spine s LEFT JOIN c ON s.event_type = c.event_type "
    "AND s.hour = c.hour",
)
def q_events_hourly_gapfill(sf_dir: str):
    """Zero-filled hourly time series per event type (date-spine gap fill):
    every (event_type, hour) cell in the [global min hour, global max hour]
    range, with n = 0 where no events occurred — the shape a training-run
    monitor or rate-limiter table needs.

    Scale shape: counts collapse map-side per (type, hour) — the shuffle
    key space is |types| × hours, bounded by the calendar, not the event
    stream — and the spine fill runs over the AGGREGATED histogram, which
    IS the query output (output-sized, vectorized numpy)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        hour = _ms(batch) // 3_600_000
        base = (
            pd.DataFrame({"hour": hour, "event_type": batch["event_type"].to_pylist()})
            .groupby(["hour", "event_type"], sort=False)
            .size()
            .reset_index(name="pn")
        )
        base["pn"] = base["pn"].astype(np.int64)
        return pa.Table.from_pandas(
            base[["event_type", "hour", "pn"]], preserve_index=False
        )

    def gapfill(batch: pa.Table) -> pa.Table:
        # runs on the aggregated histogram (output-sized): build the full
        # type × hour spine and scatter the observed counts into it
        et = np.asarray(batch["event_type"].to_pylist(), object)
        hr = batch["hour"].to_numpy().astype(np.int64)
        n = batch["n"].to_numpy().astype(np.int64)
        types = np.unique(et)
        lo, hi = int(hr.min()), int(hr.max())
        span = hi - lo + 1
        grid = np.zeros((len(types), span), np.int64)
        ti = np.searchsorted(types, et)
        grid[ti, hr - lo] = n
        return pa.table(
            {
                "event_type": pa.array(np.repeat(types, span), pa.string()),
                "hour": pa.array(np.tile(np.arange(lo, hi + 1), len(types)), pa.int64()),
                "n": pa.array(grid.ravel(), pa.int64()),
            }
        )

    return (
        rd.read_parquet(_p(sf_dir, "events"), columns=["ts", "event_type"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "hour"])
        .aggregate(Sum("pn", alias_name="n"))
        .repartition(1)
        .map_batches(gapfill, batch_format="pyarrow", batch_size=None)
    )


# --------------------------------------------------------------------------
# per-key mode (most frequent value)
# --------------------------------------------------------------------------


@query(
    "user_top_event",
    "WITH c AS (SELECT user_id, event_type, CAST(COUNT(*) AS BIGINT) AS n "
    "FROM events GROUP BY 1, 2) "
    "SELECT user_id, event_type, n FROM c "
    "QUALIFY ROW_NUMBER() OVER (PARTITION BY user_id "
    "ORDER BY n DESC, event_type ASC) = 1",
)
def q_user_top_event(sf_dir: str):
    """MODE per key: each user's most frequent event type (ties broken by
    lexicographically smallest type) with its exact count.

    Scale shape: per-batch partial counts collapse each batch to one row
    per (user, type) seen; users hash-bucket into mode_buckets groups
    (fixed shuffle cardinality); each bucket sums partials and resolves
    every user's argmax in one vectorized lexsort pass."""
    mode_buckets = derive_buckets(_p(sf_dir, "events"), floor=64)
    import ray.data as rd

    def partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        base = (
            pd.DataFrame(
                {
                    "user_id": batch["user_id"].to_numpy(),
                    "event_type": batch["event_type"].to_pylist(),
                }
            )
            .groupby(["user_id", "event_type"], sort=False)
            .size()
            .reset_index(name="pn")
        )
        base["pn"] = base["pn"].astype(np.int64)
        base["user_id"] = base["user_id"].astype(np.int64)
        return pa.Table.from_pandas(
            base[["user_id", "event_type", "pn"]], preserve_index=False
        )

    def resolve(g) -> pa.Table:
        agg = (
            g.groupby(["user_id", "event_type"], sort=False, as_index=False)["pn"]
            .sum()
        )
        uid = agg["user_id"].to_numpy(np.int64)
        n = agg["pn"].to_numpy(np.int64)
        et = agg["event_type"].to_numpy(object)
        # rank types desc so that within equal (uid, n) the LAST row of the
        # sort order carries the lexicographically smallest type
        tcodes = np.unique(et, return_inverse=True)[1]
        order = np.lexsort((-tcodes, n, uid))
        uid, n, et = uid[order], n[order], et[order]
        last = np.r_[uid[1:] != uid[:-1], True]
        return pa.table(
            {
                "user_id": pa.array(uid[last], pa.int64()),
                "event_type": pa.array(list(et[last]), pa.string()),
                "n": pa.array(n[last], pa.int64()),
            }
        )

    return cogroup(
        rd.read_parquet(
            _p(sf_dir, "events"), columns=["user_id", "event_type"]
        ).map_batches(partial, batch_format="pyarrow"),
        "user_id",
        resolve,
        mode_buckets,
    )


# --------------------------------------------------------------------------
# TPC-H Q3 shape: two-hop shuffle join + grouped top-k
# --------------------------------------------------------------------------


@query(
    "q3_shipping_priority",
    "WITH l AS (SELECT l_orderkey, "
    "CAST(SUM(CAST(FLOOR(l_extendedprice*100 + 0.5) AS BIGINT) * "
    "(1000000 - CAST(FLOOR(l_discount*1000000 + 0.5) AS BIGINT))) AS BIGINT) "
    "AS rev_u FROM lineitem "
    f"WHERE CAST(FLOOR(epoch_us(l_shipdate)/86400000000.0) AS BIGINT) > {Q3_CUT_DAYS} "
    "GROUP BY 1) "
    "SELECT o_orderkey AS l_orderkey, "
    "CAST(FLOOR(epoch_us(o_orderdate)/86400000000.0) AS BIGINT) AS o_days, "
    "l.rev_u AS rev_u "
    "FROM orders JOIN customer ON o_custkey = c_custkey "
    "JOIN l ON l.l_orderkey = o_orderkey "
    f"WHERE c_mktsegment = '{Q3_SEGMENT}' "
    f"AND CAST(FLOOR(epoch_us(o_orderdate)/86400000000.0) AS BIGINT) < {Q3_CUT_DAYS} "
    f"ORDER BY rev_u DESC, l_orderkey ASC LIMIT {Q3_TOPK}",
)
def q_q3_shipping_priority(sf_dir: str):
    """TPC-H Q3 shape — customer ⋈ orders ⋈ lineitem with selective filters
    on every table and a grouped top-K by revenue: the canonical two-hop
    SHUFFLE JOIN (custkey hop, then orderkey hop) where no side is small
    enough to broadcast at cluster scale.

    Scale shape: each hop hash-buckets BOTH sides on the hop key into
    mode_buckets groups and semi-joins inside the bucket (vectorized
    np.isin); lineitem revenue is pre-aggregated per (batch, orderkey)
    before the shuffle (combiner), so the orderkey hop moves partial sums,
    not line items; the final top-K is per-block partial-topk → sort →
    limit. Revenue is exact integer: cents × (1e6 − discount_micro); at
    true 100-TB row counts this unit pair would need a 128-bit sum —
    documented tradeoff for bit-exact oracle equality at fixture scale."""
    mode_buckets = derive_buckets(
        *(_p(sf_dir, t) for t in ("customer", "orders", "lineitem")), floor=64
    )
    import ray.data as rd
    from ray.data.aggregate import Sum

    def prep_cust(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        key = batch.filter(pc.equal(batch["c_mktsegment"], Q3_SEGMENT))[
            "c_custkey"
        ].to_numpy()
        return pa.table(
            {
                "key": pa.array(key, pa.int64()),
                "okey": pa.array(np.zeros(len(key), np.int64), pa.int64()),
                "odays": pa.array(np.zeros(len(key), np.int64), pa.int64()),
                "side": pa.array(np.zeros(len(key), np.int64), pa.int64()),
            }
        )

    def prep_orders(batch: pa.Table) -> pa.Table:
        odays = _ms(batch, "o_orderdate") // 86_400_000
        m = odays < Q3_CUT_DAYS
        key = batch["o_custkey"].to_numpy()[m]
        return pa.table(
            {
                "key": pa.array(key, pa.int64()),
                "okey": pa.array(batch["o_orderkey"].to_numpy()[m], pa.int64()),
                "odays": pa.array(odays[m], pa.int64()),
                "side": pa.array(np.ones(int(m.sum()), np.int64), pa.int64()),
            }
        )

    def hop1(g) -> pa.Table:
        side = g["side"].to_numpy()
        build = np.unique(g["key"].to_numpy()[side == 0])
        probe = g[side == 1]
        keep = probe[np.isin(probe["key"].to_numpy(), build)]
        okey = keep["okey"].to_numpy(np.int64)
        return pa.table(
            {
                "okey": pa.array(okey, pa.int64()),
                "odays": pa.array(keep["odays"].to_numpy(np.int64), pa.int64()),
                "rev_u": pa.array(np.zeros(len(okey), np.int64), pa.int64()),
                "side": pa.array(np.zeros(len(okey), np.int64), pa.int64()),
            }
        )

    def prep_line(batch: pa.Table) -> pa.Table:
        import pandas as pd

        sdays = _ms(batch, "l_shipdate") // 86_400_000
        m = sdays > Q3_CUT_DAYS
        okey = batch["l_orderkey"].to_numpy()[m]
        cents = np.floor(
            batch["l_extendedprice"].to_numpy()[m] * 100 + 0.5
        ).astype(np.int64)
        disc_u = np.floor(
            batch["l_discount"].to_numpy()[m] * 1_000_000 + 0.5
        ).astype(np.int64)
        rev = cents * (1_000_000 - disc_u)
        agg = (
            pd.DataFrame({"okey": okey, "rev_u": rev})
            .groupby("okey", sort=False, as_index=False)["rev_u"]
            .sum()
        )
        k = agg["okey"].to_numpy(np.int64)
        return pa.table(
            {
                "okey": pa.array(k, pa.int64()),
                "odays": pa.array(np.zeros(len(k), np.int64), pa.int64()),
                "rev_u": pa.array(agg["rev_u"].to_numpy(np.int64), pa.int64()),
                "side": pa.array(np.ones(len(k), np.int64), pa.int64()),
            }
        )

    def hop2(g) -> pa.Table:
        import pandas as pd

        side = g["side"].to_numpy()
        orders = g[side == 0]
        lines = g[side == 1]
        omap = dict(
            zip(
                orders["okey"].to_numpy(np.int64),
                orders["odays"].to_numpy(np.int64),
            )
        )
        keep = lines[np.isin(lines["okey"].to_numpy(), orders["okey"].to_numpy())]
        agg = (
            keep.groupby("okey", sort=False, as_index=False)["rev_u"].sum()
            if len(keep)
            else pd.DataFrame({"okey": [], "rev_u": []})
        )
        k = agg["okey"].to_numpy().astype(np.int64)
        return pa.table(
            {
                "l_orderkey": pa.array(k, pa.int64()),
                "o_days": pa.array(
                    np.asarray([omap[x] for x in k], np.int64), pa.int64()
                ),
                "rev_u": pa.array(agg["rev_u"].to_numpy().astype(np.int64), pa.int64()),
            }
        )

    def partial_topk(batch: pa.Table) -> pa.Table:
        rev = batch["rev_u"].to_numpy()
        ok = batch["l_orderkey"].to_numpy()
        order = np.lexsort((ok, -rev))[:Q3_TOPK]
        return batch.take(pa.array(order))

    # every shuffle input is pinned with repartition: a union doubles block
    # counts (64+64, then 128+64) and Ray's sort-based groupby degrades
    # superlinearly in input blocks (measured: this pipeline 8.4 s → 2.4 s
    # warm at sf0.1); the final top-K needs no distributed sort at all — the
    # per-block partials are output-bounded, one task finishes them
    cust = rd.read_parquet(
        _p(sf_dir, "customer"), columns=["c_custkey", "c_mktsegment"]
    ).map_batches(prep_cust, batch_format="pyarrow")
    orders = rd.read_parquet(
        _p(sf_dir, "orders"), columns=["o_orderkey", "o_custkey", "o_orderdate"]
    ).map_batches(prep_orders, batch_format="pyarrow")
    stage1 = cogroup(
        cust.union(orders).repartition(SHUFFLE_BLOCKS), "key", hop1, mode_buckets
    )
    lines = rd.read_parquet(
        _p(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    ).map_batches(prep_line, batch_format="pyarrow")
    return (
        cogroup(
            stage1.union(lines).repartition(SHUFFLE_BLOCKS), "okey", hop2, mode_buckets
        )
        .map_batches(partial_topk, batch_format="pyarrow")
        .repartition(1)
        .map_batches(partial_topk, batch_format="pyarrow", batch_size=None)
    )


# --------------------------------------------------------------------------
# CUBE aggregation
# --------------------------------------------------------------------------


@query(
    "event_type_cube",
    "WITH e AS (SELECT event_type, "
    "CAST(FLOOR(epoch_us(ts)/86400000000.0) AS BIGINT) % 7 AS wd FROM events) "
    f"SELECT COALESCE(event_type, '{CUBE_ALL_TYPE}') AS event_type, "
    f"CAST(COALESCE(wd, {CUBE_ALL_WD}) AS BIGINT) AS wd, "
    "CAST(COUNT(*) AS BIGINT) AS n FROM e GROUP BY CUBE (event_type, wd)",
)
def q_event_type_cube(sf_dir: str):
    """CUBE aggregation in ONE shuffle: counts at every granularity of
    (event_type, weekday) — (t, w), (t, ALL), (ALL, w), (ALL, ALL) — with
    all four levels expanded map-side, so the shuffle key space stays
    |types+1| × 8 regardless of input size. Sentinels ('ALL' / -1) stand in
    for SQL CUBE's NULLs (the driver compare treats NULLs inconsistently)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        wd = (_ms(batch) // 86_400_000 % 7).astype(np.int64)
        base = (
            pd.DataFrame({"event_type": batch["event_type"].to_pylist(), "wd": wd})
            .groupby(["event_type", "wd"], sort=False)
            .size()
            .reset_index(name="pn")
        )
        t_lvl = base.groupby("event_type", sort=False, as_index=False)["pn"].sum()
        t_lvl["wd"] = CUBE_ALL_WD
        w_lvl = base.groupby("wd", sort=False, as_index=False)["pn"].sum()
        w_lvl["event_type"] = CUBE_ALL_TYPE
        all_lvl = pd.DataFrame(
            {"event_type": [CUBE_ALL_TYPE], "wd": [CUBE_ALL_WD], "pn": [base["pn"].sum()]}
        )
        out = pd.concat([base, t_lvl, w_lvl, all_lvl], ignore_index=True)
        out["pn"] = out["pn"].astype(np.int64)
        out["wd"] = out["wd"].astype(np.int64)
        return pa.Table.from_pandas(
            out[["event_type", "wd", "pn"]], preserve_index=False
        )

    return (
        rd.read_parquet(_p(sf_dir, "events"), columns=["ts", "event_type"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "wd"])
        .aggregate(Sum("pn", alias_name="n"))
    )


# --------------------------------------------------------------------------
# data-mixing token budget
# --------------------------------------------------------------------------


@query(
    "lang_token_budget",
    f"WITH d AS (SELECT lang, CAST(len({_TOK2_SQL}) AS BIGINT) AS c "
    "FROM documents), "
    "g AS (SELECT lang, CAST(SUM(c) AS BIGINT) AS n_tokens FROM d GROUP BY 1), "
    "t AS (SELECT CAST(SUM(n_tokens) AS BIGINT) AS total, "
    "CAST(COUNT(*) AS BIGINT) AS nl FROM g) "
    "SELECT lang, n_tokens, "
    f"CAST(LEAST(n_tokens, total * {BUDGET_FRAC_NUM} // {BUDGET_FRAC_DEN} // nl) "
    "AS BIGINT) AS alloc_tokens, "
    f"CAST(LEAST(n_tokens, total * {BUDGET_FRAC_NUM} // {BUDGET_FRAC_DEN} // nl) "
    "* 1000000 // n_tokens AS BIGINT) AS rate_micro "
    "FROM g CROSS JOIN t",
)
def q_lang_token_budget(sf_dir: str):
    """Data-mixing allocator: given a global token budget of
    total_tokens × BUDGET_FRAC split equally across languages, compute each
    language's exact token count, its allocated tokens
    min(share, available), and the integer-micro sampling rate a downstream
    sampler would apply — the DoReMi-style mixture bookkeeping step.

    Scale shape: per-batch token counts collapse to one row per language
    before the shuffle; the allocator itself runs on the |langs|-row
    aggregate (one tiny task). All arithmetic is integer (floor), so the
    DuckDB oracle matches bit-for-bit."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        counts = [
            len(_TOK2_RE.findall(t.lower())) for t in batch["text"].to_pylist()
        ]
        agg = (
            pd.DataFrame({"lang": batch["lang"].to_pylist(), "pn": counts})
            .groupby("lang", sort=False, as_index=False)["pn"]
            .sum()
        )
        agg["pn"] = agg["pn"].astype(np.int64)
        return pa.Table.from_pandas(agg, preserve_index=False)

    def allocate(batch: pa.Table) -> pa.Table:
        n = batch["n_tokens"].to_numpy().astype(np.int64)
        total = int(n.sum())
        share = total * BUDGET_FRAC_NUM // BUDGET_FRAC_DEN // len(n)
        alloc = np.minimum(n, share)
        rate = alloc * 1_000_000 // n
        return pa.table(
            {
                "lang": batch["lang"],
                "n_tokens": pa.array(n, pa.int64()),
                "alloc_tokens": pa.array(alloc, pa.int64()),
                "rate_micro": pa.array(rate, pa.int64()),
            }
        )

    return (
        rd.read_parquet(_p(sf_dir, "documents"), columns=["lang", "text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(Sum("pn", alias_name="n_tokens"))
        .repartition(1)
        .map_batches(allocate, batch_format="pyarrow", batch_size=None)
    )


# --------------------------------------------------------------------------
# per-user inter-event gap statistics
# --------------------------------------------------------------------------


@query(
    "user_gap_stats",
    "WITH o AS (SELECT user_id, epoch_ms(ts) AS ms, "
    "epoch_ms(ts) - LAG(epoch_ms(ts)) OVER "
    "(PARTITION BY user_id ORDER BY epoch_ms(ts)) AS gap FROM events) "
    "SELECT user_id, CAST(COUNT(gap) AS BIGINT) AS n_gaps, "
    "CAST(MAX(gap) AS BIGINT) AS max_gap_ms, "
    "CAST(SUM(gap) AS BIGINT) AS sum_gap_ms "
    "FROM o GROUP BY 1 HAVING COUNT(gap) >= 1",
)
def q_user_gap_stats(sf_dir: str):
    """Per-user inter-event GAP statistics (LAG-diff aggregate): for every
    user with ≥ 2 events, the number of gaps, the maximum gap and the total
    gap time in ms — the think-time profile sessionization builds on.

    Scale shape: events shuffle ONCE bucketed by hash(user) (fixed
    cardinality, same shape as sessionization); each bucket lexsorts its
    users' timestamps and computes all gap aggregates in one vectorized
    np.diff + reduceat pass. Gaps depend only on sorted timestamps, so
    tie order between equal timestamps cannot change the result."""
    mode_buckets = derive_buckets(_p(sf_dir, "events"), floor=64)
    import ray.data as rd

    def prep(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy()
        return pa.table(
            {
                "user_id": pa.array(uid, pa.int64()),
                "ms": pa.array(_ms(batch), pa.int64()),
            }
        )

    def resolve(g) -> pa.Table:
        uid = g["user_id"].to_numpy(np.int64)
        ms = g["ms"].to_numpy(np.int64)
        order = np.lexsort((ms, uid))
        uid, ms = uid[order], ms[order]
        starts = np.r_[0, np.flatnonzero(uid[1:] != uid[:-1]) + 1]
        counts = np.diff(np.r_[starts, len(uid)])
        d = np.diff(ms)
        d[starts[1:] - 1] = 0  # zero out cross-user diffs
        users = uid[starts]
        keep = counts >= 2
        gap_sum = np.add.reduceat(np.r_[d, 0], starts)  # pad so last start works
        gap_max = np.maximum.reduceat(np.r_[d, 0], starts)
        # reduceat over padded d: each user's slice includes the zeroed
        # boundary diff, which never raises max (gaps ≥ 0) nor the sum
        return pa.table(
            {
                "user_id": pa.array(users[keep], pa.int64()),
                "n_gaps": pa.array(counts[keep] - 1, pa.int64()),
                "max_gap_ms": pa.array(gap_max[keep], pa.int64()),
                "sum_gap_ms": pa.array(gap_sum[keep], pa.int64()),
            }
        )

    return cogroup(
        rd.read_parquet(_p(sf_dir, "events"), columns=["user_id", "ts"]).map_batches(
            prep, batch_format="pyarrow"
        ),
        "user_id",
        resolve,
        mode_buckets,
    )


# --------------------------------------------------------------------------
# exact per-group median by bounded-key counting
# --------------------------------------------------------------------------


@query(
    "event_value_median_by_type",
    "WITH e AS (SELECT event_type, "
    "CAST(FLOOR(value*100 + 0.5) AS BIGINT) AS cents FROM events) "
    "SELECT event_type, "
    "CAST(percentile_disc(0.5) WITHIN GROUP (ORDER BY cents) AS BIGINT) "
    "AS median_cents FROM e GROUP BY 1",
)
def q_event_value_median_by_type(sf_dir: str):
    """EXACT per-group median (percentile_disc 0.5) of event value per
    event type, by bounded-key counting: values quantize to exact cents, so
    per-(type, cents) counts are a bounded histogram; the median is read
    off the cumulative histogram — no per-group sort of raw rows, ever.

    Scale shape: the shuffle moves (type, cents) partial counts (key space
    = |types| × value domain, independent of row count); the final
    cumulative-select runs per type over its histogram rows (|types| tiny
    groups of bounded size — the one place map_groups-per-key is safe)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        cents = np.floor(batch["value"].to_numpy() * 100 + 0.5).astype(np.int64)
        agg = (
            pd.DataFrame({"event_type": batch["event_type"].to_pylist(), "cents": cents})
            .groupby(["event_type", "cents"], sort=False)
            .size()
            .reset_index(name="pn")
        )
        agg["pn"] = agg["pn"].astype(np.int64)
        return pa.Table.from_pandas(agg, preserve_index=False)

    def pick_median(g) -> pa.Table:
        cents = g["cents"].to_numpy(np.int64)
        n = g["n"].to_numpy(np.int64)
        order = np.argsort(cents, kind="stable")
        cents, n = cents[order], n[order]
        cum = np.cumsum(n)
        total = cum[-1]
        # percentile_disc(0.5): first value whose CDF reaches 0.5
        i = int(np.searchsorted(cum * 2, total))
        return pa.table(
            {
                "event_type": pa.array([g["event_type"].iloc[0]], pa.string()),
                "median_cents": pa.array([cents[i]], pa.int64()),
            }
        )

    return (
        rd.read_parquet(_p(sf_dir, "events"), columns=["event_type", "value"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "cents"])
        .aggregate(Sum("pn", alias_name="n"))
        .groupby("event_type")
        .map_groups(pick_median, batch_format="pandas")
    )


# --------------------------------------------------------------------------
# TPC-H Q5 shape: multi-hop shuffle join + broadcast dimension chain
# --------------------------------------------------------------------------

Q5_REGION = "ASIA"
Q5_LO_DAYS = 9496  # 1996-01-01
Q5_HI_DAYS = 10227  # 1998-01-01


@query(
    "q5_local_supplier_volume",
    "SELECT n_name, "
    "CAST(SUM(CAST(FLOOR(l_extendedprice*100 + 0.5) AS BIGINT) * "
    "(1000000 - CAST(FLOOR(l_discount*1000000 + 0.5) AS BIGINT))) AS BIGINT) "
    "AS rev_u "
    "FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
    "JOIN customer ON o_custkey = c_custkey "
    "JOIN supplier ON l_suppkey = s_suppkey "
    "AND s_nationkey = c_nationkey "
    "JOIN nation ON c_nationkey = n_nationkey "
    "JOIN region ON n_regionkey = r_regionkey "
    f"WHERE r_name = '{Q5_REGION}' "
    "AND CAST(FLOOR(epoch_us(o_orderdate)/86400000000.0) AS BIGINT) "
    f">= {Q5_LO_DAYS} "
    "AND CAST(FLOOR(epoch_us(o_orderdate)/86400000000.0) AS BIGINT) "
    f"< {Q5_HI_DAYS} "
    "GROUP BY n_name",
)
def q_q5_local_supplier_volume(sf_dir: str):
    """TPC-H Q5 shape — local supplier volume: revenue per nation from
    lineitems whose SUPPLIER and CUSTOMER share the nation, restricted to
    one region and an order-date window. Exercises the full join toolbox
    in one pipeline: two bucketed shuffle hops for the large sides
    (orders⋈customer on custkey, then lineitem⋈that on orderkey) plus a
    broadcast dimension chain (supplier→nation, nation→region/name — the
    genuinely small tables) probed with sorted-array searchsorted inside
    the same map stage.

    Scale notes: supplier is the one debatable broadcast (TPC-H sizes it
    10× smaller than customer; at 100 TB it would flip to a third bucketed
    hop on suppkey — same machinery as hop 2). Revenue is exact integer
    cents × (1e6 − discount_micro); per-nation partial sums collapse
    map-side before the final tiny groupby."""
    tables = ("supplier", "nation", "region", "customer", "orders", "lineitem")
    mode_buckets = derive_buckets(*(_p(sf_dir, t) for t in tables), floor=64)
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    sup = pq.read_table(_p(sf_dir, "supplier"), columns=["s_suppkey", "s_nationkey"])
    s_order = np.argsort(sup["s_suppkey"].to_numpy())
    sup_keys = sup["s_suppkey"].to_numpy()[s_order]
    sup_nat = sup["s_nationkey"].to_numpy()[s_order]
    nat = pq.read_table(
        _p(sf_dir, "nation"), columns=["n_nationkey", "n_name", "n_regionkey"]
    )
    reg = pq.read_table(_p(sf_dir, "region"), columns=["r_regionkey", "r_name"])
    reg_ok = set(
        reg["r_regionkey"].to_numpy()[
            np.asarray(reg["r_name"].to_pylist(), object) == Q5_REGION
        ]
    )
    n_order = np.argsort(nat["n_nationkey"].to_numpy())
    nat_keys = nat["n_nationkey"].to_numpy()[n_order]
    nat_names = np.asarray(nat["n_name"].to_pylist(), object)[n_order]
    nat_in_region = np.isin(nat["n_regionkey"].to_numpy()[n_order], list(reg_ok))
    dims_ref = ray.put((sup_keys, sup_nat, nat_keys, nat_names, nat_in_region))

    def prep_cust(batch: pa.Table) -> pa.Table:
        key = batch["c_custkey"].to_numpy()
        return pa.table(
            {
                "key": pa.array(key, pa.int64()),
                "okey": pa.array(np.zeros(len(key), np.int64), pa.int64()),
                "nat": pa.array(batch["c_nationkey"].to_numpy(), pa.int64()),
                "side": pa.array(np.zeros(len(key), np.int64), pa.int64()),
            }
        )

    def prep_orders(batch: pa.Table) -> pa.Table:
        odays = _ms(batch, "o_orderdate") // 86_400_000
        m = (odays >= Q5_LO_DAYS) & (odays < Q5_HI_DAYS)
        key = batch["o_custkey"].to_numpy()[m]
        return pa.table(
            {
                "key": pa.array(key, pa.int64()),
                "okey": pa.array(batch["o_orderkey"].to_numpy()[m], pa.int64()),
                "nat": pa.array(np.zeros(len(key), np.int64), pa.int64()),
                "side": pa.array(np.ones(len(key), np.int64), pa.int64()),
            }
        )

    def hop1(g) -> pa.Table:
        side = g["side"].to_numpy()
        cust = g[side == 0]
        ck = cust["key"].to_numpy(np.int64)
        cn = cust["nat"].to_numpy(np.int64)
        o = np.argsort(ck)
        ck, cn = ck[o], cn[o]
        probe = g[side == 1]
        pk = probe["key"].to_numpy(np.int64)
        if len(ck) == 0 or len(pk) == 0:
            hit = np.zeros(len(pk), bool)
        else:
            pos = np.searchsorted(ck, pk)
            hit = (pos < len(ck)) & (ck[np.minimum(pos, len(ck) - 1)] == pk)
        keep = probe[hit]
        okey = keep["okey"].to_numpy(np.int64)
        cnat = cn[pos[hit]] if hit.any() else np.zeros(0, np.int64)
        return pa.table(
            {
                "okey": pa.array(okey, pa.int64()),
                "a": pa.array(cnat, pa.int64()),  # customer nation
                "b": pa.array(np.zeros(len(okey), np.int64), pa.int64()),
                "side": pa.array(np.zeros(len(okey), np.int64), pa.int64()),
            }
        )

    def prep_line(batch: pa.Table) -> pa.Table:
        okey = batch["l_orderkey"].to_numpy()
        cents = np.floor(batch["l_extendedprice"].to_numpy() * 100 + 0.5).astype(
            np.int64
        )
        disc_u = np.floor(batch["l_discount"].to_numpy() * 1_000_000 + 0.5).astype(
            np.int64
        )
        rev = cents * (1_000_000 - disc_u)
        return pa.table(
            {
                "okey": pa.array(okey, pa.int64()),
                "a": pa.array(batch["l_suppkey"].to_numpy(), pa.int64()),
                "b": pa.array(rev, pa.int64()),
                "side": pa.array(np.ones(len(okey), np.int64), pa.int64()),
            }
        )

    def hop2(g) -> pa.Table:
        import pandas as pd

        sk, sn, nk, nn, nok = ray.get(dims_ref)
        side = g["side"].to_numpy()
        orders = g[side == 0]
        okeys = orders["okey"].to_numpy(np.int64)
        onat = orders["a"].to_numpy(np.int64)
        o = np.argsort(okeys)
        okeys, onat = okeys[o], onat[o]
        lines = g[side == 1]
        lk = lines["okey"].to_numpy(np.int64)
        if len(okeys) == 0 or len(lk) == 0:
            hit = np.zeros(len(lk), bool)
        else:
            pos0 = np.searchsorted(okeys, lk)
            hit = (pos0 < len(okeys)) & (
                okeys[np.minimum(pos0, len(okeys) - 1)] == lk
            )
        keep = lines[hit]
        if not len(keep):
            return pa.table(
                {
                    "n_name": pa.array([], pa.string()),
                    "pn": pa.array([], pa.int64()),
                }
            )
        cnat = onat[pos0[hit]]
        suppkey = keep["a"].to_numpy(np.int64)
        pos = np.searchsorted(sk, suppkey)
        snat = sn[np.minimum(pos, len(sk) - 1)]
        npos = np.searchsorted(nk, cnat)
        ok = (sk[np.minimum(pos, len(sk) - 1)] == suppkey) & (snat == cnat) & nok[
            npos
        ]
        agg = (
            pd.DataFrame(
                {
                    "n_name": nn[npos[ok]],
                    "pn": keep["b"].to_numpy(np.int64)[ok],
                }
            )
            .groupby("n_name", sort=False, as_index=False)["pn"]
            .sum()
        )
        return pa.table(
            {
                "n_name": pa.array(agg["n_name"].tolist(), pa.string()),
                "pn": pa.array(agg["pn"].to_numpy(np.int64), pa.int64()),
            }
        )

    cust = rd.read_parquet(
        _p(sf_dir, "customer"), columns=["c_custkey", "c_nationkey"]
    ).map_batches(prep_cust, batch_format="pyarrow")
    orders = rd.read_parquet(
        _p(sf_dir, "orders"), columns=["o_orderkey", "o_custkey", "o_orderdate"]
    ).map_batches(prep_orders, batch_format="pyarrow")
    # pinned shuffle inputs — same superlinear block-count trap as Q3
    stage1 = cogroup(
        cust.union(orders).repartition(SHUFFLE_BLOCKS), "key", hop1, mode_buckets
    )
    lines = rd.read_parquet(
        _p(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).map_batches(prep_line, batch_format="pyarrow")
    return (
        cogroup(
            stage1.union(lines).repartition(SHUFFLE_BLOCKS), "okey", hop2, mode_buckets
        )
        .repartition(4)
        .groupby("n_name")
        .aggregate(Sum("pn", alias_name="rev_u"))
    )


# --------------------------------------------------------------------------
# salted hot-key aggregation
# --------------------------------------------------------------------------

N_SALTS = 8


@query(
    "event_type_counts_salted",
    "SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n FROM events GROUP BY 1",
)
def q_event_type_counts_salted(sf_dir: str):
    """SALTED two-stage aggregation: counts per event type where the first
    shuffle groups on (key, salt) — splitting every hot key across N_SALTS
    reducers — and a second bounded shuffle folds the salts away. On this
    fixture the plain map-side-combined groupby is already safe; this
    operator exists as the explicit skew-handling shape the north rule
    requires for hot hosts (the frontier uses the same salt-split for
    domain routing), verified equal to the unsalted oracle."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        agg = (
            pd.DataFrame(
                {
                    "event_type": batch["event_type"].to_pylist(),
                    "salt": batch["event_id"].to_numpy() % N_SALTS,
                }
            )
            .groupby(["event_type", "salt"], sort=False)
            .size()
            .reset_index(name="pn")
        )
        agg["pn"] = agg["pn"].astype(np.int64)
        agg["salt"] = agg["salt"].astype(np.int64)
        return pa.Table.from_pandas(agg, preserve_index=False)

    return (
        rd.read_parquet(_p(sf_dir, "events"), columns=["event_id", "event_type"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "salt"])
        .aggregate(Sum("pn", alias_name="sn"))
        .groupby("event_type")
        .aggregate(Sum("sn", alias_name="n"))
    )


# --------------------------------------------------------------------------
# trailing window over the gap-filled spine
# --------------------------------------------------------------------------

TRAIL_HOURS = 24


@query(
    "events_daily_trailing",
    "WITH e AS (SELECT event_type, "
    "CAST(FLOOR(epoch_us(ts)/3600000000.0) AS BIGINT) AS hour FROM events), "
    "b AS (SELECT MIN(hour) AS lo, MAX(hour) AS hi FROM e), "
    "spine AS (SELECT t.event_type, gs.hour FROM "
    "(SELECT DISTINCT event_type FROM e) t CROSS JOIN "
    "(SELECT UNNEST(generate_series(lo, hi)) AS hour FROM b) gs), "
    "c AS (SELECT event_type, hour, CAST(COUNT(*) AS BIGINT) AS n "
    "FROM e GROUP BY 1, 2), "
    "f AS (SELECT s.event_type, s.hour, CAST(COALESCE(c.n, 0) AS BIGINT) AS n "
    "FROM spine s LEFT JOIN c ON s.event_type = c.event_type "
    "AND s.hour = c.hour) "
    "SELECT event_type, hour, n, "
    "CAST(SUM(n) OVER (PARTITION BY event_type ORDER BY hour "
    f"ROWS {TRAIL_HOURS - 1} PRECEDING) AS BIGINT) AS trail24 FROM f",
)
def q_events_daily_trailing(sf_dir: str):
    """Trailing 24-hour event count per type at every hour — a ROWS-frame
    window over the DENSE gap-filled spine (zero rows included, so the
    frame is a true wall-clock trailing day, not 'last 24 observations').
    Composes the gap-fill operator with a vectorized prefix-sum finisher
    over the output-sized aggregate."""

    def trail(batch: pa.Table) -> pa.Table:
        # batch is the gap-filled spine: dense, one block, (type, hour) sorted
        et = np.asarray(batch["event_type"].to_pylist(), object)
        hr = batch["hour"].to_numpy().astype(np.int64)
        n = batch["n"].to_numpy().astype(np.int64)
        order = np.lexsort((hr, et))
        et, hr, n = et[order], hr[order], n[order]
        cum = np.cumsum(n)
        lag = np.r_[np.zeros(TRAIL_HOURS, np.int64), cum[:-TRAIL_HOURS]]
        trail24 = cum - lag
        # reset at type boundaries: positions < TRAIL_HOURS into a type run
        starts = np.r_[0, np.flatnonzero(et[1:] != et[:-1]) + 1]
        run_pos = np.arange(len(et)) - np.repeat(starts, np.diff(np.r_[starts, len(et)]))
        base = np.repeat(np.r_[0, cum[starts[1:] - 1]], np.diff(np.r_[starts, len(et)]))
        short = run_pos < TRAIL_HOURS
        trail24[short] = (cum - base)[short]
        return pa.table(
            {
                "event_type": pa.array(list(et), pa.string()),
                "hour": pa.array(hr, pa.int64()),
                "n": pa.array(n, pa.int64()),
                "trail24": pa.array(trail24, pa.int64()),
            }
        )

    return q_events_hourly_gapfill(sf_dir).map_batches(
        trail, batch_format="pyarrow", batch_size=None
    )


# --------------------------------------------------------------------------
# sufficient-statistic pairwise aggregation
# --------------------------------------------------------------------------

PAIR_QUANT = 1000  # kilo-int quantization of embedding components


@query(
    "label_pairwise_dot",
    "WITH q AS (SELECT vec_id, CAST(label AS BIGINT) AS label, "
    "list_transform(embedding, "
    f"x -> CAST(FLOOR(CAST(x AS DOUBLE)*{PAIR_QUANT} + 0.5) AS BIGINT)) AS e "
    "FROM embeddings), "
    "p AS (SELECT a.label, "
    "(SELECT CAST(SUM(z.l1*z.l2) AS BIGINT) FROM "
    "(SELECT UNNEST(a.e) AS l1, UNNEST(b.e) AS l2) z) AS d "
    "FROM q a JOIN q b ON a.label = b.label AND a.vec_id < b.vec_id) "
    "SELECT label, CAST((SELECT COUNT(*) FROM q qq WHERE qq.label = p.label) "
    "AS BIGINT) AS n_vecs, CAST(SUM(d) AS BIGINT) AS pair_dot "
    "FROM p GROUP BY label",
)
def q_label_pairwise_dot(sf_dir: str):
    """Sum of PAIRWISE dot products within each embedding label — computed
    WITHOUT materializing a single pair: with integer-quantized vectors,
    2·Σ_{i<j} qᵢ·qⱼ = ‖Σq‖² − Σ‖q‖², so per-label vector sums + sum of
    squared norms are sufficient statistics. The shuffle moves
    |labels| × dim partial rows instead of O(n²) pairs — the algebraic
    identity that makes pairwise-similarity audits feasible at 100 TB
    (the DuckDB oracle, by contrast, genuinely joins all pairs, so the
    check is independent). Exact: all arithmetic in int64 (kilo
    quantization bounds ‖Σq‖² far below overflow at fixture and 100× scale)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..stages.ann import _batch_embeddings

    def partial(batch: pa.Table) -> pa.Table:
        emb = _batch_embeddings(batch)
        q = np.floor(emb * PAIR_QUANT + 0.5).astype(np.int64)
        lab = batch["label"].to_numpy().astype(np.int64)
        order = np.argsort(lab, kind="stable")
        lab, q = lab[order], q[order]
        starts = np.r_[0, np.flatnonzero(lab[1:] != lab[:-1]) + 1]
        labs = lab[starts]
        sums = np.add.reduceat(q, starts, axis=0)  # (L, D) vector sums
        sq = np.add.reduceat((q * q).sum(axis=1), starts)  # Σ‖q‖² per label
        cnt = np.diff(np.r_[starts, len(lab)])
        d = q.shape[1]
        # dim rows carry the vector-sum component; the dim=-1 row carries
        # (Σ‖q‖², count) — one bounded exploded table, a single shuffle
        return pa.table(
            {
                "label": pa.array(
                    np.r_[np.repeat(labs, d), labs], pa.int64()
                ),
                "dim": pa.array(
                    np.r_[np.tile(np.arange(d), len(labs)), np.full(len(labs), -1)],
                    pa.int64(),
                ),
                "s": pa.array(np.r_[sums.ravel(), np.zeros(len(labs), np.int64)], pa.int64()),
                "sq": pa.array(np.r_[np.zeros(len(labs) * d, np.int64), sq], pa.int64()),
                "pn": pa.array(np.r_[np.zeros(len(labs) * d, np.int64), cnt], pa.int64()),
            }
        )

    def finish(g) -> pa.Table:
        s = g["s"].to_numpy(np.int64)
        total_sq = int(g["sq"].to_numpy(np.int64).sum())
        n = int(g["pn"].to_numpy(np.int64).sum())
        pair2 = int((s.astype(object) ** 2).sum()) - total_sq  # 2·Σpair dots
        return pa.table(
            {
                "label": pa.array([int(g["label"].iloc[0])], pa.int64()),
                "n_vecs": pa.array([n], pa.int64()),
                "pair_dot": pa.array([pair2 // 2], pa.int64()),
            }
        )

    return (
        rd.read_parquet(_p(sf_dir, "embeddings"), columns=["label", "embedding"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["label", "dim"])
        .aggregate(Sum("s", alias_name="s"), Sum("sq", alias_name="sq"), Sum("pn", alias_name="pn"))
        .groupby("label")
        .map_groups(finish, batch_format="pandas")
    )


# --------------------------------------------------------------------------
# ordered string aggregation (event-sequence signatures)
# --------------------------------------------------------------------------

SEQ_K = 10  # first-K events kept per user


@query(
    "user_event_sequence",
    "WITH e AS (SELECT user_id, event_type, "
    "ROW_NUMBER() OVER (PARTITION BY user_id "
    "ORDER BY epoch_ms(ts), event_id) AS rn FROM events) "
    "SELECT user_id, STRING_AGG(event_type, ',' ORDER BY rn) AS seq "
    f"FROM e WHERE rn <= {SEQ_K} GROUP BY user_id",
)
def q_user_event_sequence(sf_dir: str):
    """ORDERED STRING_AGG per key: each user's first SEQ_K event types,
    comma-joined in (ts, event_id) order — the behavioral-sequence
    signature a funnel model consumes.

    Scale shape: per-batch partials keep only each user's SEQ_K earliest
    rows (vectorized lexsort + run-position mask), users hash-bucket into
    mode_buckets groups, and each bucket re-applies the same top-K mask
    before building its strings — shuffle volume is O(users × K), never
    the event stream."""
    mode_buckets = derive_buckets(_p(sf_dir, "events"), floor=64)
    import ray.data as rd

    def topk_mask(uid: np.ndarray, ms: np.ndarray, eid: np.ndarray):
        order = np.lexsort((eid, ms, uid))
        u = uid[order]
        starts = np.r_[0, np.flatnonzero(u[1:] != u[:-1]) + 1]
        run_pos = np.arange(len(u)) - np.repeat(
            starts, np.diff(np.r_[starts, len(u)])
        )
        return order[run_pos < SEQ_K]

    def partial(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy()
        ms = _ms(batch)
        eid = batch["event_id"].to_numpy()
        keep = topk_mask(uid, ms, eid)
        return pa.table(
            {
                "user_id": pa.array(uid[keep], pa.int64()),
                "ms": pa.array(ms[keep], pa.int64()),
                "event_id": pa.array(eid[keep], pa.int64()),
                "event_type": batch["event_type"].take(pa.array(keep)),
            }
        )

    def resolve(g) -> pa.Table:
        uid = g["user_id"].to_numpy(np.int64)
        ms = g["ms"].to_numpy(np.int64)
        eid = g["event_id"].to_numpy(np.int64)
        et = g["event_type"].to_numpy(object)
        order = np.lexsort((eid, ms, uid))
        u, t = uid[order], et[order]
        starts = np.r_[0, np.flatnonzero(u[1:] != u[:-1]) + 1]
        run_pos = np.arange(len(u)) - np.repeat(
            starts, np.diff(np.r_[starts, len(u)])
        )
        m = run_pos < SEQ_K
        u, t, run_pos = u[m], t[m], run_pos[m]
        starts = np.r_[0, np.flatnonzero(u[1:] != u[:-1]) + 1]
        ends = np.r_[starts[1:], len(u)]
        return pa.table(
            {
                "user_id": pa.array(u[starts], pa.int64()),
                "seq": pa.array(
                    [",".join(t[s:e]) for s, e in zip(starts, ends)], pa.string()
                ),
            }
        )

    return cogroup(
        rd.read_parquet(
            _p(sf_dir, "events"), columns=["user_id", "ts", "event_id", "event_type"]
        ).map_batches(partial, batch_format="pyarrow"),
        "user_id",
        resolve,
        mode_buckets,
    )


# --------------------------------------------------------------------------
# skew-replicated (salted) shuffle join
# --------------------------------------------------------------------------


@query(
    "orders_join_nation_salted",
    "SELECT n_name, COUNT(*) AS n_orders, "
    "CAST(SUM(CAST(FLOOR(o_totalprice*100 + 0.5) AS BIGINT)) AS BIGINT) "
    "AS total_cents "
    "FROM orders JOIN customer ON o_custkey = c_custkey "
    "JOIN nation ON c_nationkey = n_nationkey GROUP BY n_name",
)
def q_orders_join_nation_salted(sf_dir: str):
    """SALT-REPLICATED shuffle hash join — the skew-safe variant of
    ``orders_join_nation``: every probe (orders) row routes to
    (hash(key), salt(row)) so a hot customer key spreads across N_SALTS
    reducers, and the build (customer) side replicates each row to all
    salts of its bucket. Identical output to the unsalted join by
    construction, verified against the same oracle. The cost model is
    explicit: build-side volume × N_SALTS buys probe-side balance — the
    trade the frontier's hot-host splitting makes for domains."""
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    nat = pq.read_table(_p(sf_dir, "nation"), columns=["n_nationkey", "n_name"])
    nk0 = nat["n_nationkey"].to_numpy().astype(np.int64)
    norder = np.argsort(nk0, kind="stable")
    nat_ref = ray.put((nk0[norder], [nat["n_name"].to_pylist()[i] for i in norder]))

    JB = 64

    def prep_cust(batch: pa.Table) -> pa.Table:
        key = np.repeat(batch["c_custkey"].to_numpy(), N_SALTS)
        nat_ = np.repeat(batch["c_nationkey"].to_numpy().astype(np.int64), N_SALTS)
        salt = np.tile(np.arange(N_SALTS, dtype=np.int64), len(batch))
        return pa.table(
            {
                "route": pa.array(key * N_SALTS + salt, pa.int64()),
                "key": pa.array(key, pa.int64()),
                "nat": pa.array(nat_, pa.int64()),
                "cents": pa.array(np.zeros(len(key), np.int64), pa.int64()),
                "side": pa.array(np.zeros(len(key), np.int64), pa.int64()),
            }
        )

    def prep_orders(batch: pa.Table) -> pa.Table:
        key = batch["o_custkey"].to_numpy()
        salt = batch["o_orderkey"].to_numpy() % N_SALTS
        cents = np.floor(batch["o_totalprice"].to_numpy() * 100.0 + 0.5).astype(
            np.int64
        )
        return pa.table(
            {
                "route": pa.array(key * N_SALTS + salt, pa.int64()),
                "key": pa.array(key, pa.int64()),
                "nat": pa.array(np.full(len(key), -1, np.int64), pa.int64()),
                "cents": pa.array(cents, pa.int64()),
                "side": pa.array(np.ones(len(key), np.int64), pa.int64()),
            }
        )

    def join(g) -> pa.Table:
        nk, names = ray.get(nat_ref)
        side = g["side"].to_numpy()
        bk = g["key"].to_numpy(np.int64)[side == 0]
        bn = g["nat"].to_numpy(np.int64)[side == 0]
        order = np.argsort(bk, kind="stable")
        bk, bn = bk[order], bn[order]
        pk = g["key"].to_numpy(np.int64)[side == 1]
        pc = g["cents"].to_numpy(np.int64)[side == 1]
        idx = np.clip(np.searchsorted(bk, pk), 0, max(len(bk) - 1, 0))
        found = (bk[idx] == pk) if len(bk) else np.zeros(len(pk), bool)
        pos = np.searchsorted(nk, bn[idx[found]])
        cnt = np.bincount(pos, minlength=len(nk))
        sums = np.bincount(pos, weights=pc[found], minlength=len(nk))
        keep = cnt > 0
        return pa.table(
            {
                "n_name": pa.array(
                    [names[i] for i in np.flatnonzero(keep)], pa.string()
                ),
                "pn": pa.array(cnt[keep].astype(np.int64), pa.int64()),
                "ps": pa.array(sums[keep].astype(np.int64), pa.int64()),
            }
        )

    cust = rd.read_parquet(
        _p(sf_dir, "customer"), columns=["c_custkey", "c_nationkey"]
    ).map_batches(prep_cust, batch_format="pyarrow")
    orders = rd.read_parquet(
        _p(sf_dir, "orders"), columns=["o_orderkey", "o_custkey", "o_totalprice"]
    ).map_batches(prep_orders, batch_format="pyarrow")
    # the routing key is the (custkey, salt) pair packed into one int
    return (
        cogroup([cust, orders], "route", join, JB * N_SALTS)
        .groupby("n_name")
        .aggregate(
            Sum("pn", alias_name="n_orders"), Sum("ps", alias_name="total_cents")
        )
    )


# --------------------------------------------------------------------------
# behavioral funnel (sequence-pattern join)
# --------------------------------------------------------------------------

FUNNEL_MS = 1_800_000  # view → click window (30 min)
FUNNEL_FIRST = "view"
FUNNEL_THEN = "click"


@query(
    "funnel_users",
    "WITH e AS (SELECT user_id, event_type, epoch_ms(ts) AS ms FROM events) "
    "SELECT DISTINCT a.user_id FROM e a JOIN e b ON a.user_id = b.user_id "
    f"AND a.event_type = '{FUNNEL_FIRST}' AND b.event_type = '{FUNNEL_THEN}' "
    f"AND b.ms > a.ms AND b.ms <= a.ms + {FUNNEL_MS}",
)
def q_funnel_users(sf_dir: str):
    """FUNNEL detection: users with at least one '{then}' event strictly
    after a '{first}' event and within FUNNEL_MS of it — the two-step
    sequence-pattern join, self-joined over the event stream without ever
    materializing pairs.

    Scale shape: only the two participating event types shuffle (bucketed
    by user hash); each bucket answers every click's "was there a view in
    my window?" with two searchsorted probes against a composite
    (user, ms) key — O((V+C) log V) per bucket, no pair explosion."""
    mode_buckets = derive_buckets(_p(sf_dir, "events"), floor=64)
    import pyarrow.compute as pc
    import ray.data as rd

    SHIFT = np.int64(1) << 42  # ms-span (≤2^42) packed under the user id

    def prep(batch: pa.Table) -> pa.Table:
        m = pc.is_in(
            batch["event_type"],
            value_set=pa.array([FUNNEL_FIRST, FUNNEL_THEN]),
        )
        b = batch.filter(m)
        uid = b["user_id"].to_numpy()
        return pa.table(
            {
                "user_id": pa.array(uid, pa.int64()),
                "ms": pa.array(_ms(b), pa.int64()),
                "is_then": pa.array(
                    pc.equal(b["event_type"], FUNNEL_THEN).to_numpy(
                        zero_copy_only=False
                    ),
                    pa.bool_(),
                ),
            }
        )

    def resolve(g) -> pa.Table:
        uid = g["user_id"].to_numpy(np.int64)
        ms = g["ms"].to_numpy(np.int64)
        is_then = g["is_then"].to_numpy(bool)
        if not len(uid):
            return pa.table({"user_id": pa.array([], pa.int64())})
        base = ms.min()
        rel = ms - base  # bounded by the corpus time span < 2^42
        vkey = np.sort(uid[~is_then] * SHIFT + rel[~is_then])
        cu, cm = uid[is_then], rel[is_then]
        lo = np.searchsorted(vkey, cu * SHIFT + np.maximum(cm - FUNNEL_MS, 0))
        hi = np.searchsorted(vkey, cu * SHIFT + cm)  # exclusive: strictly before
        hits = np.unique(cu[hi > lo])
        return pa.table({"user_id": pa.array(hits, pa.int64())})

    return cogroup(
        rd.read_parquet(
            _p(sf_dir, "events"), columns=["user_id", "ts", "event_type"]
        ).map_batches(prep, batch_format="pyarrow"),
        "user_id",
        resolve,
        mode_buckets,
    )


# --------------------------------------------------------------------------
# orphan detection: anti-join of two large tables
# --------------------------------------------------------------------------


@query(
    "orders_without_lineitem",
    "SELECT o_orderkey FROM orders WHERE NOT EXISTS "
    "(SELECT 1 FROM lineitem WHERE l_orderkey = o_orderkey)",
)
def q_orders_without_lineitem(sf_dir: str):
    """Referential-integrity ANTI-JOIN over two LARGE sides: orders with no
    lineitem rows (orphans). Unlike ``customers_without_urgent`` (whose
    probe side is dimension-shaped) BOTH sides here are fact tables, so
    both hash-bucket on the join key and the lineitem side pre-dedupes its
    keys per batch — the shuffle moves distinct orderkeys, never line
    items."""
    mode_buckets = derive_buckets(
        *(_p(sf_dir, t) for t in ("orders", "lineitem")), floor=64
    )
    import ray.data as rd

    def prep_orders(batch: pa.Table) -> pa.Table:
        key = batch["o_orderkey"].to_numpy()
        return pa.table(
            {
                "key": pa.array(key, pa.int64()),
                "side": pa.array(np.zeros(len(key), np.int64), pa.int64()),
            }
        )

    def prep_lines(batch: pa.Table) -> pa.Table:
        key = np.unique(batch["l_orderkey"].to_numpy())
        return pa.table(
            {
                "key": pa.array(key, pa.int64()),
                "side": pa.array(np.ones(len(key), np.int64), pa.int64()),
            }
        )

    def anti(g) -> pa.Table:
        side = g["side"].to_numpy()
        probe = g["key"].to_numpy(np.int64)[side == 0]
        build = np.unique(g["key"].to_numpy(np.int64)[side == 1])
        keep = probe[~np.isin(probe, build)]
        return pa.table({"o_orderkey": pa.array(np.sort(keep), pa.int64())})

    orders = rd.read_parquet(
        _p(sf_dir, "orders"), columns=["o_orderkey"]
    ).map_batches(prep_orders, batch_format="pyarrow")
    lines = rd.read_parquet(
        _p(sf_dir, "lineitem"), columns=["l_orderkey"]
    ).map_batches(prep_lines, batch_format="pyarrow")
    return cogroup([orders, lines], "key", anti, mode_buckets)


# --------------------------------------------------------------------------
# cohort retention
# --------------------------------------------------------------------------


@query(
    "user_retention_cohort",
    "WITH e AS (SELECT user_id, "
    "CAST(FLOOR(epoch_us(ts)/86400000000.0) AS BIGINT) AS day FROM events), "
    "d AS (SELECT DISTINCT user_id, day FROM e), "
    "c AS (SELECT user_id, MIN(day) AS cohort FROM d GROUP BY 1) "
    "SELECT c.cohort AS cohort_day, d.day - c.cohort AS offset_day, "
    "CAST(COUNT(*) AS BIGINT) AS n_users "
    "FROM d JOIN c ON d.user_id = c.user_id GROUP BY 1, 2",
)
def q_user_retention_cohort(sf_dir: str):
    """COHORT RETENTION: users grouped by first-seen day (their cohort),
    counted as active at each day-offset from that cohort — the triangle
    table every product-analytics stack computes.

    Scale shape: per-batch dedup collapses events to distinct (user, day)
    pairs before the ONE user-bucketed shuffle; each bucket derives every
    resident user's cohort (min day) and its per-(cohort, offset) partial
    counts vectorized; the final groupby runs over the calendar-bounded
    (cohort × offset) key space."""
    mode_buckets = derive_buckets(_p(sf_dir, "events"), floor=64)
    import ray.data as rd
    from ray.data.aggregate import Sum

    def prep(batch: pa.Table) -> pa.Table:
        import pandas as pd

        day = _ms(batch) // 86_400_000
        d = (
            pd.DataFrame({"user_id": batch["user_id"].to_numpy(), "day": day})
            .drop_duplicates()
        )
        uid = d["user_id"].to_numpy(np.int64)
        return pa.table(
            {
                "user_id": pa.array(uid, pa.int64()),
                "day": pa.array(d["day"].to_numpy(np.int64), pa.int64()),
            }
        )

    def resolve(g) -> pa.Table:
        import pandas as pd

        d = g[["user_id", "day"]].drop_duplicates()
        uid = d["user_id"].to_numpy(np.int64)
        day = d["day"].to_numpy(np.int64)
        order = np.lexsort((day, uid))
        uid, day = uid[order], day[order]
        starts = np.r_[0, np.flatnonzero(uid[1:] != uid[:-1]) + 1]
        cohort = np.repeat(day[starts], np.diff(np.r_[starts, len(uid)]))
        agg = (
            pd.DataFrame({"cohort_day": cohort, "offset_day": day - cohort})
            .groupby(["cohort_day", "offset_day"], sort=False)
            .size()
            .reset_index(name="pn")
        )
        agg["pn"] = agg["pn"].astype(np.int64)
        return pa.Table.from_pandas(agg, preserve_index=False)

    return (
        cogroup(
            rd.read_parquet(_p(sf_dir, "events"), columns=["user_id", "ts"]).map_batches(
                prep, batch_format="pyarrow"
            ),
            "user_id",
            resolve,
            mode_buckets,
        )
        .groupby(["cohort_day", "offset_day"])
        .aggregate(Sum("pn", alias_name="n_users"))
    )


# --------------------------------------------------------------------------
# array analytics: per-label argmax dimension
# --------------------------------------------------------------------------


@query(
    "label_dim_argmax",
    "WITH q AS (SELECT CAST(label AS BIGINT) AS label, list_transform(embedding, "
    f"x -> CAST(FLOOR(CAST(x AS DOUBLE)*{PAIR_QUANT} + 0.5) AS BIGINT)) AS e "
    "FROM embeddings), "
    "u AS (SELECT label, UNNEST(e) AS v, "
    "UNNEST(range(len(e))) AS dim FROM q), "
    "g AS (SELECT label, CAST(dim AS BIGINT) AS dim, "
    "CAST(SUM(v) AS BIGINT) AS s FROM u GROUP BY 1, 2) "
    "SELECT label, dim, s FROM g "
    "QUALIFY ROW_NUMBER() OVER (PARTITION BY label "
    "ORDER BY s DESC, dim ASC) = 1",
)
def q_label_dim_argmax(sf_dir: str):
    """ARRAY ANALYTICS: for each embedding label, the dimension with the
    largest summed (kilo-quantized) component, ties to the smallest
    dimension — the unnest-and-aggregate shape, computed without ever
    exploding rows: per-batch per-label vector sums collapse map-side, so
    the shuffle moves |labels| × dim partial rows while the DuckDB oracle
    genuinely UNNESTs every vector."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..stages.ann import _batch_embeddings

    def partial(batch: pa.Table) -> pa.Table:
        emb = _batch_embeddings(batch)
        q = np.floor(emb * PAIR_QUANT + 0.5).astype(np.int64)
        lab = batch["label"].to_numpy().astype(np.int64)
        order = np.argsort(lab, kind="stable")
        lab, q = lab[order], q[order]
        starts = np.r_[0, np.flatnonzero(lab[1:] != lab[:-1]) + 1]
        labs = lab[starts]
        sums = np.add.reduceat(q, starts, axis=0)
        d = q.shape[1]
        return pa.table(
            {
                "label": pa.array(np.repeat(labs, d), pa.int64()),
                "dim": pa.array(np.tile(np.arange(d), len(labs)), pa.int64()),
                "s": pa.array(sums.ravel(), pa.int64()),
            }
        )

    def argmax(g) -> pa.Table:
        s = g["s"].to_numpy(np.int64)
        dim = g["dim"].to_numpy(np.int64)
        order = np.lexsort((dim, -s))
        return pa.table(
            {
                "label": pa.array([int(g["label"].iloc[0])], pa.int64()),
                "dim": pa.array([dim[order[0]]], pa.int64()),
                "s": pa.array([s[order[0]]], pa.int64()),
            }
        )

    return (
        rd.read_parquet(_p(sf_dir, "embeddings"), columns=["label", "embedding"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["label", "dim"])
        .aggregate(Sum("s", alias_name="s"))
        .groupby("label")
        .map_groups(argmax, batch_format="pandas")
    )


# --------------------------------------------------------------------------
# budget-composed deterministic sampling
# --------------------------------------------------------------------------

SAMPLE_HASH_MULT = 2654435761  # Knuth multiplicative hash, SQL-expressible
SAMPLE_HASH_MOD = 1 << 32


@query(
    "lang_sampled_docs",
    f"WITH d AS (SELECT lang, CAST(len({_TOK2_SQL}) AS BIGINT) AS c "
    "FROM documents), "
    "g AS (SELECT lang, CAST(SUM(c) AS BIGINT) AS n_tokens FROM d GROUP BY 1), "
    "t AS (SELECT CAST(SUM(n_tokens) AS BIGINT) AS total, "
    "CAST(COUNT(*) AS BIGINT) AS nl FROM g), "
    "r AS (SELECT lang, "
    f"CAST(LEAST(n_tokens, total * {BUDGET_FRAC_NUM} // {BUDGET_FRAC_DEN} // nl) "
    "* 1000000 // n_tokens AS BIGINT) AS rate_micro FROM g CROSS JOIN t) "
    "SELECT doc_id, documents.lang AS lang "
    "FROM documents JOIN r ON documents.lang = r.lang "
    f"WHERE (doc_id * {SAMPLE_HASH_MULT}) % {SAMPLE_HASH_MOD} % 1000000 "
    "< rate_micro",
)
def q_lang_sampled_docs(sf_dir: str):
    """End-to-end DATA-MIXING application: the ``lang_token_budget``
    allocator's per-language rates applied as a deterministic sampling
    DECISION per document — keep doc iff
    hash(doc_id) mod 1e6 < rate_micro(lang), with a SQL-expressible
    multiplicative hash so the oracle replays the identical coin flips.

    Scale shape: the rate table is |langs| rows (driver-held, broadcast);
    the decision pass is a shuffle-free streaming filter — the same
    compose-then-filter shape as ``corpus_filter_kept``."""
    import ray
    import ray.data as rd

    rates_df = q_lang_token_budget(sf_dir).to_pandas()
    rate_map = dict(zip(rates_df["lang"], rates_df["rate_micro"].astype(np.int64)))
    rates_ref = ray.put(rate_map)

    def decide(batch: pa.Table) -> pa.Table:
        rates = ray.get(rates_ref)
        doc_id = batch["doc_id"].to_numpy().astype(np.int64)
        langs = np.asarray(batch["lang"].to_pylist(), object)
        rate = np.asarray([rates.get(l, 0) for l in langs], np.int64)
        h = (doc_id * SAMPLE_HASH_MULT) % SAMPLE_HASH_MOD
        keep = (h % 1_000_000) < rate
        return pa.table(
            {
                "doc_id": pa.array(doc_id[keep], pa.int64()),
                "lang": pa.array(list(langs[keep]), pa.string()),
            }
        )

    return rd.read_parquet(
        _p(sf_dir, "documents"), columns=["doc_id", "lang"]
    ).map_batches(decide, batch_format="pyarrow")


# --------------------------------------------------------------------------
# wide→long UNPIVOT (round-trip of the weekday pivot)
# --------------------------------------------------------------------------


@query(
    "event_weekday_unpivot",
    "WITH e AS (SELECT event_type, "
    "CAST(FLOOR(epoch_us(ts)/86400000000.0) AS BIGINT) % 7 AS wd FROM events), "
    "spine AS (SELECT t.event_type, CAST(gs.wd AS BIGINT) AS wd FROM "
    "(SELECT DISTINCT event_type FROM e) t CROSS JOIN "
    "(SELECT UNNEST(range(7)) AS wd) gs), "
    "c AS (SELECT event_type, wd, CAST(COUNT(*) AS BIGINT) AS n "
    "FROM e GROUP BY 1, 2) "
    "SELECT s.event_type, s.wd, CAST(COALESCE(c.n, 0) AS BIGINT) AS n "
    "FROM spine s LEFT JOIN c ON s.event_type = c.event_type AND s.wd = c.wd",
)
def q_event_weekday_unpivot(sf_dir: str):
    """UNPIVOT (wide→long): melts the weekday PIVOT's wd0..wd6 columns back
    into (event_type, wd, n) rows — the round-trip proving the pivot pair
    is lossless, including explicit zero cells. Runs entirely on the
    pivot's output-sized table (|types| rows), one vectorized melt."""
    from .queries_ml import q_event_weekday_pivot

    def melt(batch: pa.Table) -> pa.Table:
        et = np.asarray(batch["event_type"].to_pylist(), object)
        cols = [batch[f"wd{d}"].to_numpy().astype(np.int64) for d in range(7)]
        n = np.stack(cols, axis=1)  # (types, 7)
        return pa.table(
            {
                "event_type": pa.array(np.repeat(et, 7), pa.string()),
                "wd": pa.array(np.tile(np.arange(7), len(et)), pa.int64()),
                "n": pa.array(n.ravel(), pa.int64()),
            }
        )

    return q_event_weekday_pivot(sf_dir).repartition(1).map_batches(
        melt, batch_format="pyarrow", batch_size=None
    )
