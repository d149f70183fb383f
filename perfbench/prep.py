"""Seeded inputs and every oracle for one workload.

Run as ``python3 -m perfbench.prep WORKLOAD SEED FIXTURE_ROOT ORACLE_DIR
RAY_ADDRESS QUERY...`` from the repository root. In this order it writes

1. the workload's fixture tables into ``FIXTURE_ROOT/small`` (the
   ``fixtures.generate`` tables, sized by ``spec.WORKLOADS``), ending with
   the ``_DONE`` marker, so a caller may start crawling once it exists;
2. ``ORACLE_DIR/crawl.json``: the digests of ``pipelines.oracle.CrawlOracle``
   for the same seed and crawl config;
3. ``ORACLE_DIR/<query>.pkl``: the canonical DuckDB result of each QUERY
   (see ``query_oracles``), and ``fixture_entries.json``.

Some oracles run Ray pipelines; for those it joins the Ray cluster at
RAY_ADDRESS. The runner starts it in a child process, so this work
overlaps the runner's warm-up and its memory never shows in the runner's
``peak_rss_mb``, whether or not the oracles are cached. Every output that
already exists is kept.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np

WEB_TABLES = ("urls", "frontier_seed", "pages", "redirects", "robots")


def trace_digest(trace) -> str:
    h = hashlib.sha256()
    for rnd, rank, url in trace:
        h.update(f"{int(rnd)}\t{int(rank)}\t{url}\n".encode())
    return h.hexdigest()


def seen_digest(seen_hashes) -> str:
    arr = np.sort(np.asarray(seen_hashes, dtype=np.uint64)).astype("<u8")
    return hashlib.sha256(arr.tobytes()).hexdigest()


def canon(df):
    """Sorted columns, rows sorted by every column: the frame two results
    are compared on (as in ``scripts/oracle_one.py``)."""
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def write_fixture(wl: dict, seed: int, out_dir: str) -> None:
    import pyarrow.parquet as pq

    from mklab_focused_crawler_ray.fixtures.generate import gen_images, gen_web

    os.makedirs(out_dir, exist_ok=True)
    lo, hi = wl["image_dims"]
    images, dupmap = gen_images(wl["n_images"], seed=seed, dim_lo=lo, dim_hi=hi)
    pq.write_table(images, os.path.join(out_dir, "images.parquet"))
    pq.write_table(dupmap, os.path.join(out_dir, "images_dupmap.parquet"))
    web = wl["web"]
    tables = gen_web(
        web["n_urls"], web["n_seeds"], wl["n_images"], seed=seed, n_hosts=web["n_hosts"]
    )
    for name in WEB_TABLES:
        pq.write_table(tables[name], os.path.join(out_dir, f"{name}.parquet"))
    # the marker generate_tier writes: the query layer then uses these
    # tables as its fixture tier instead of generating its own
    with open(os.path.join(out_dir, "_DONE"), "w") as f:
        f.write(f"perfbench seed={seed}\n")


def crawl_oracle(wl: dict, fixture_dir: str) -> dict:
    import pyarrow.parquet as pq

    from mklab_focused_crawler_ray.pipelines.config import CrawlConfig
    from mklab_focused_crawler_ray.pipelines.oracle import CrawlOracle

    fixture = {n: pq.read_table(os.path.join(fixture_dir, f"{n}.parquet")) for n in WEB_TABLES}
    res = CrawlOracle(fixture, CrawlConfig(**wl["crawl"])).run()
    return {
        "trace_sha256": trace_digest(res["trace"]),
        "seen_sha256": seen_digest(res["seen_hashes"]),
        "pages": len(res["trace"]),
    }


def query_oracles(queries: list[str], fixture_root: str, oracle_dir: str, ray_address: str) -> None:
    """Write the canonical DuckDB oracle frame of each query that lacks
    one.

    The SQL is what ``__ray_entry__.oracle_sql()`` gives. The crawl-side
    oracles come from ``queries.ORACLE_SQL``. The others come from
    ``oracles_ext.build_extended_oracles()``, which runs Ray pipelines for
    some of its tables, so it joins the cluster at ``ray_address`` first.
    That builder's fixed path to the sf0.01 testdata is pointed into the
    fixture root, so no oracle reads outside it.

    Afterwards ``fixture_entries.json`` lists what the fixture directory
    holds: the inputs and the oracles' signature tables. Anything a query
    adds later is a disk cache."""
    fixture_dir = os.path.join(fixture_root, "small")
    before = set(os.listdir(fixture_dir))
    missing = [q for q in queries if not os.path.exists(os.path.join(oracle_dir, f"{q}.pkl"))]
    sql: dict[str, str] = {}
    if missing:
        from mklab_focused_crawler_ray.pipelines.queries import ORACLE_SQL

        sql = {q: ORACLE_SQL[q] for q in missing if q in ORACLE_SQL}
        if len(sql) < len(missing):
            import ray

            from mklab_focused_crawler_ray.pipelines import oracles_ext

            ray.init(address=ray_address, logging_level="ERROR", log_to_driver=False)
            oracles_ext._DRIVER_SF01 = os.path.join(fixture_root, "no_sf_testdata")
            ext = oracles_ext.build_extended_oracles()
            ray.shutdown()
            sql.update({q: ext[q] for q in missing if q not in sql})
    if sql:
        import duckdb

        con = duckdb.connect()
        for q, text in sql.items():
            path = os.path.join(oracle_dir, f"{q}.pkl")
            canon(con.execute(text).fetchdf()).to_pickle(path + ".tmp")
            os.replace(path + ".tmp", path)
        con.close()
    manifest = os.path.join(oracle_dir, "fixture_entries.json")
    entries = set(os.listdir(fixture_dir)) - before
    if os.path.exists(manifest):
        with open(manifest) as f:
            entries |= set(json.load(f))
    else:
        entries |= before
    with open(manifest + ".tmp", "w") as f:
        json.dump(sorted(entries), f)
    os.replace(manifest + ".tmp", manifest)


def main(argv: list[str]) -> int:
    from perfbench.spec import WORKLOADS

    workload, seed, fixture_root, oracle_dir = argv[0], int(argv[1]), argv[2], argv[3]
    # the query modules read it, some at import time
    os.environ["GRAFT_FIXTURE_ROOT"] = fixture_root
    wl = WORKLOADS[workload]
    fixture_dir = os.path.join(fixture_root, "small")
    os.makedirs(oracle_dir, exist_ok=True)
    if not os.path.exists(os.path.join(fixture_dir, "_DONE")):
        write_fixture(wl, seed, fixture_dir)
    crawl_json = os.path.join(oracle_dir, "crawl.json")
    if not os.path.exists(crawl_json):
        digests = crawl_oracle(wl, fixture_dir)
        with open(crawl_json + ".tmp", "w") as f:
            json.dump(digests, f)
        os.replace(crawl_json + ".tmp", crawl_json)
    query_oracles(argv[5:], fixture_root, oracle_dir, ray_address=argv[4])
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
