"""Crawl conformance at 50x the tiny scale: the distributed engine must
match the pure-python oracle's trace + seen set on the SMALL tier (10k
seeds, 30k-URL universe, 60 hosts incl. salted hot hosts) — evidence the
sharded propose/commit protocol implements the global greedy rule beyond
toy sizes."""

from __future__ import annotations

import os

import numpy as np
import pyarrow.parquet as pq
import pytest

from mklab_focused_crawler_ray.pipelines.config import CrawlConfig
from mklab_focused_crawler_ray.pipelines.oracle import CrawlOracle

CFG = dict(
    n_shards=8,
    per_host_budget=25,
    round_budget=1500,
    max_rounds=3,
    hot_threshold=300,  # several Zipf-hot hosts get salted at this tier
)


@pytest.fixture(scope="module")
def small_fixture():
    from mklab_focused_crawler_ray.fixtures.generate import generate_tier

    return generate_tier("small", "/tmp/mkfc_fixtures/small")


@pytest.fixture(scope="module")
def small_tables(small_fixture):
    names = ["urls", "frontier_seed", "pages", "redirects", "robots"]
    return {
        n: pq.read_table(os.path.join(small_fixture, f"{n}.parquet")) for n in names
    }


def test_small_tier_trace_and_seen_match_oracle(
    ray_session, small_fixture, small_tables, tmp_path
):
    from mklab_focused_crawler_ray.pipelines.crawl import RayCrawler

    cfg = CrawlConfig(**CFG)
    oracle = CrawlOracle(small_tables, cfg).run()
    assert len(oracle["trace"]) >= 3000, "workload must be non-trivial"
    # salting must actually engage at this tier
    assert oracle["salt_map"], "expected hot hosts to be salted"

    eng = RayCrawler(small_fixture, cfg, out_dir=str(tmp_path / "out"))
    try:
        res = eng.run(checkpoint_every=0)
    finally:
        eng.shutdown()

    assert len(res["trace"]) == len(oracle["trace"])
    first_diff = next(
        (i for i, (a, b) in enumerate(zip(res["trace"], oracle["trace"])) if a != b),
        None,
    )
    assert first_diff is None, (
        f"trace diverged at {first_diff}: {res['trace'][first_diff]} vs "
        f"{oracle['trace'][first_diff]}"
    )
    assert np.array_equal(
        np.asarray(res["seen_hashes"], np.uint64),
        np.asarray(oracle["seen_hashes"], np.uint64),
    )
