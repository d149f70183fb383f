"""Local mirror of the driver's correctness gate: every query with an
oracle in the registry is checked against its DuckDB oracle by
``Registry.check`` at sf0.001 (a small-tier query at sf0.01), with the
strict frame comparison the sweep and the benchmark use. Each oracle is
built inside its own test; collection only lists names."""

from __future__ import annotations

import pandas as pd
import pytest

from mklab_focused_crawler_ray.pipelines.registry import SMALL_SF, Registry, load

SF_DIR = "/root/testdata/sf0.001"
REG = load()


@pytest.mark.parametrize("name", REG.checked())
def test_query_matches_duckdb_oracle(ray_session, name):
    REG.check(name, SF_DIR)


def test_small_query_is_checked_at_sf001():
    """A small-tier query asked for at sf0.001 runs at sf0.01, and its
    oracle reads that tier's tables too."""
    seen = []
    reg = Registry()

    @reg.query("probe", "SELECT o_orderkey FROM orders", small=True)
    def probe(sf_dir: str) -> pd.DataFrame:
        seen.append(sf_dir)
        return pd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_orderkey"])

    n = reg.check("probe", SF_DIR)
    assert seen == [SMALL_SF]
    assert n == len(pd.read_parquet(f"{SMALL_SF}/orders.parquet"))


def test_rows_only_queries_run(ray_session):
    """Rows-only pipelines (non-SQL-expressible) must at least execute and
    return a stable, non-degenerate schema at sf0.001."""
    expected_cols = {
        "image_visual_clusters_parallel": {"image_id", "cluster_id"},
        "crawl_trace": {"round", "rank", "url"},
        "crawl_status_counts": {"round", "status", "n"},
        "approx_distinct_users": {"event_type", "est_users"},
    }
    rows_only = sorted(set(REG.queries) - set(REG.checked()))
    assert rows_only == sorted(expected_cols)
    for name in rows_only:
        res = REG.queries[name](SF_DIR)
        df = res.to_pandas() if hasattr(res, "to_pandas") else res
        assert expected_cols[name] <= set(df.columns), name
