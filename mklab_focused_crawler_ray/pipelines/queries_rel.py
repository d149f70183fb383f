"""Additional SQL-checked relational queries — broadcast-join and bucketed
aggregate patterns over the driver tables (the shapes the reference's
updater/counter bolts imply at warehouse scale; SURVEY §2.10 joins are
broadcast/hash against small sides, never shuffle joins)."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from .queries import _cents, _p
from .registry import query


@query(
    "orders_per_customer_segment",
    "SELECT c_mktsegment, COUNT(*) AS n_orders FROM orders "
    "JOIN customer ON o_custkey = c_custkey GROUP BY c_mktsegment",
)
def q_orders_per_customer_segment(sf_dir: str):
    """orders ⋈ customer (small side broadcast) → counts per market segment."""
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    cust = pq.read_table(_p(sf_dir, "customer"), columns=["c_custkey", "c_mktsegment"])
    keys = cust["c_custkey"].to_numpy()
    order = np.argsort(keys, kind="stable")
    segs_u, seg_codes = np.unique(
        np.asarray(cust["c_mktsegment"].to_pylist(), dtype=object)[order],
        return_inverse=True,
    )
    side = ray.put((keys[order], seg_codes.astype(np.int64), list(segs_u)))

    def agg(batch: pa.Table) -> pa.Table:
        k, codes, names = ray.get(side)
        ck = batch["o_custkey"].to_numpy()
        idx = np.clip(np.searchsorted(k, ck), 0, len(k) - 1)
        found = k[idx] == ck
        c = codes[idx[found]]
        cnt = np.bincount(c, minlength=len(names))
        keep = cnt > 0
        return pa.table(
            {
                "c_mktsegment": pa.array(
                    [n for n, kp in zip(names, keep) if kp], pa.string()
                ),
                "pn": pa.array(cnt[keep].astype(np.int64), pa.int64()),
            }
        )

    return (
        rd.read_parquet(_p(sf_dir, "orders"), columns=["o_custkey"])
        .map_batches(agg, batch_format="pyarrow")
        .groupby("c_mktsegment")
        .aggregate(Sum("pn", alias_name="n_orders"))
    )


@query(
    "brand_price_stats",
    "SELECT p_brand, "
    "CAST(SUM(CAST(FLOOR(p_retailprice*100 + 0.5) AS BIGINT)) AS BIGINT) AS total_price_cents, "
    "COUNT(*) AS n_parts FROM part GROUP BY p_brand",
)
def q_brand_price_stats(sf_dir: str):
    """Per-brand part stats: count + total retail price in cents."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "p_brand": batch["p_brand"],
                "price_cents": pa.array(
                    _cents(batch["p_retailprice"].to_numpy()), pa.int64()
                ),
            }
        )

    return (
        rd.read_parquet(_p(sf_dir, "part"), columns=["p_brand", "p_retailprice"])
        .map_batches(prep, batch_format="pyarrow")
        .groupby("p_brand")
        .aggregate(
            Sum("price_cents", alias_name="total_price_cents"),
            Count(alias_name="n_parts"),
        )
    )


@query(
    "supplier_region_counts",
    "SELECT r_name, COUNT(*) AS n_suppliers FROM supplier "
    "JOIN nation ON s_nationkey = n_nationkey "
    "JOIN region ON n_regionkey = r_regionkey GROUP BY r_name",
)
def q_supplier_region_counts(sf_dir: str):
    """supplier ⋈ nation ⋈ region — both small sides broadcast as one
    composed lookup (supplier count per region name)."""
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    nation = pq.read_table(_p(sf_dir, "nation"), columns=["n_nationkey", "n_regionkey"])
    region = pq.read_table(_p(sf_dir, "region"), columns=["r_regionkey", "r_name"])
    r_names = dict(
        zip(region["r_regionkey"].to_numpy(), region["r_name"].to_pylist())
    )
    nation_to_region = {
        int(nk): r_names[int(rk)]
        for nk, rk in zip(
            nation["n_nationkey"].to_numpy(), nation["n_regionkey"].to_numpy()
        )
    }
    side = ray.put(nation_to_region)

    def agg(batch: pa.Table) -> pa.Table:
        lookup = ray.get(side)
        counts: dict[str, int] = {}
        for nk in batch["s_nationkey"].to_numpy():
            r = lookup.get(int(nk))
            if r is not None:
                counts[r] = counts.get(r, 0) + 1
        return pa.table(
            {
                "r_name": pa.array(list(counts.keys()), pa.string()),
                "pn": pa.array(list(counts.values()), pa.int64()),
            }
        )

    return (
        rd.read_parquet(_p(sf_dir, "supplier"), columns=["s_nationkey"])
        .map_batches(agg, batch_format="pyarrow")
        .groupby("r_name")
        .aggregate(Sum("pn", alias_name="n_suppliers"))
    )


@query(
    "events_value_histogram",
    "SELECT CAST(FLOOR(value/50.0) AS BIGINT) AS bucket, COUNT(*) AS n "
    "FROM events GROUP BY 1",
)
def q_events_value_histogram(sf_dir: str):
    """Bucketed histogram of event values (50-unit buckets)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    def bucketize(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy()
        b = np.floor(v / 50.0).astype(np.int64)
        uniq, cnt = np.unique(b, return_counts=True)
        return pa.table(
            {
                "bucket": pa.array(uniq, pa.int64()),
                "pn": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    return (
        rd.read_parquet(_p(sf_dir, "events"), columns=["value"])
        .map_batches(bucketize, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Sum("pn", alias_name="n"))
    )


@query("crawl_status_counts")
def q_crawl_status_counts(sf_dir: str):
    """Read back the crawl's round-partitioned parquet output (resumable
    layout) and aggregate fetch statuses per round — demonstrates the
    partitioned-source path over the engine's own sink. The crawl output
    is built once per fixture content in the corpus cache."""
    import ray.data as rd
    from ray.data.aggregate import Count

    from .. import cache
    from .config import CrawlConfig
    from .crawl import RayCrawler
    from .queries_media import fixture_dir_for

    fdir = fixture_dir_for("sf0.001")

    def crawl(tmp: str) -> None:
        cfg = CrawlConfig(n_shards=3, per_host_budget=5, round_budget=40, max_rounds=4)
        eng = RayCrawler(fdir, cfg, out_dir=tmp)
        try:
            eng.run(checkpoint_every=0)
        finally:
            eng.shutdown()

    out = cache.materialize(
        cache.key(
            "crawl_status",
            *(os.path.join(fdir, f"{t}.parquet") for t in ("frontier_seed", "pages", "urls")),
        ),
        crawl,
    )
    files = sorted(
        os.path.join(out, d, f)
        for d in os.listdir(out)
        if d.startswith("round=")
        for f in os.listdir(os.path.join(out, d))
        if f.endswith(".parquet")
    )
    ds = rd.read_parquet(files, columns=["round", "status"])
    return ds.groupby(["round", "status"]).aggregate(Count(alias_name="n"))
