"""What the benchmark runs and what it reports.

``WORKLOADS`` holds each workload's seeded fixture shape, crawl config and
query mix. ``END_TO_END`` and ``PER_LAYER`` name every metric the runner
prints. ``BENCHMARK.json`` at the repository root must list the same names
(``perfbench/test_shape.py`` checks that), and ``NOTES.md`` says which
end-to-end metric each per-layer metric should move on which workload.
"""

from __future__ import annotations

# Ray logical CPUs for the session. The tier-1 suite uses the same count;
# at num_cpus=1 even the tiny crawl makes no progress (see NOTES.md).
RAY_NUM_CPUS = 4

FRONTIER_QUERIES = (
    "frontier_schedule",
    "politeness_rounds",
    "host_link_matrix",
    "robots_gate_counts",
    "url_expand_final",
    "frontier_skew_plan",
    "frontier_hll_distinct",
)

IMAGE_QUERIES = (
    "image_blur_scores",
    "image_exposure_stats",
    "image_color_stats",
)

# the traced run times both mixes on every workload
ALL_QUERIES = FRONTIER_QUERIES + IMAGE_QUERIES

WORKLOADS = {
    "crawl_frontier": {
        "why": (
            "many seeds over Zipf hosts, a global round cut, no media, checkpoint "
            "every round and a kill-and-resume, then shuffle queries: frontier "
            "shards and hash-bucket groupbys do the work"
        ),
        "web": {"n_urls": 10_000, "n_seeds": 6_000, "n_hosts": 40},
        "n_images": 60,
        "image_dims": (64, 128),
        "crawl": {
            "n_shards": 4,
            "per_host_budget": 150,
            "round_budget": 1_000,
            "max_rounds": 4,
            "fetch_concurrency": 4,
            "fetch_batch_size": 256,
            "hot_threshold": 500,
            "embed_media": False,
        },
        "checkpoint_every": 1,
        "kill_after_round": 2,
        "queries": FRONTIER_QUERIES,
    },
    "crawl_media": {
        "why": (
            "image-dense pages with uncached decode+embed, one checkpoint at "
            "the kill point, then image queries that each decode the corpus "
            "again: the crawl's data plane and Ray actor pools do the work"
        ),
        "web": {"n_urls": 2_000, "n_seeds": 1_000, "n_hosts": 20},
        "n_images": 160,
        "image_dims": (128, 256),
        "crawl": {
            "n_shards": 4,
            "per_host_budget": 30,
            "round_budget": 250,
            "max_rounds": 4,
            "fetch_concurrency": 4,
            "fetch_batch_size": 256,
            "embed_media": True,
            "embed_cache": False,
        },
        "checkpoint_every": 0,
        "kill_after_round": 2,
        "queries": IMAGE_QUERIES,
    },
}

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("fetched_pages_per_sec", "pages/s", "higher", 0.25),
    ("frontier_ops_per_sec", "ops/s", "higher", 0.25),
    ("resume_s", "s", "lower", 0.25),
    ("query_suite_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

FRONTIER_TIMED = ("enqueue", "propose", "commit", "contains", "mark_seen", "checkpoint", "restore")
FRONTIER_COUNTS = (
    "enqueued", "scheduled", "dup_pending", "dup_seen",
    "deferred", "robots_denied", "seen", "pending",
)
RAY_DATA_OPS = ("crawl", "query.read", "query.map", "query.all_to_all")


def _per_layer() -> tuple[tuple[str, str, str], ...]:
    m: list[tuple[str, str, str]] = []
    for p in ("seed_enqueue", "control", "enqueue_wait", "pipeline", "tail", "checkpoint"):
        m.append((f"crawl.{p}_s", "s", "lower"))
    m.append(("crawl.rounds", "count", "higher"))
    m += [(f"frontier.{n}_s", "s", "lower") for n in FRONTIER_TIMED]
    m += [(f"frontier.{n}", "count", "higher") for n in FRONTIER_COUNTS]
    m += [
        ("frontier.dup_ratio", "ratio", "lower"),
        ("frontier.shard_skew", "ratio", "lower"),
        ("frontier.checkpoint_bytes", "bytes", "lower"),
        ("fetch.kernel_s", "s", "lower"),
        ("fetch.rows", "count", "higher"),
        ("fetch.error_rows", "count", "lower"),
        ("expand.dup_after_expand", "count", "lower"),
        ("embed.kernel_s", "s", "lower"),
        ("embed.media_items", "count", "higher"),
    ]
    for op in RAY_DATA_OPS:
        m += [(f"ray_data.{op}.wall_s", "s", "lower"), (f"ray_data.{op}.rows_out", "rows", "higher")]
    for q in ALL_QUERIES:
        m += [(f"query.{q}_s", "s", "lower"), (f"query.{q}.rows", "rows", "higher")]
    m.append(("image.decode_kernel_s", "s", "lower"))
    return tuple(m)


PER_LAYER = _per_layer()
