"""Crawl configuration shared by the Ray engine and the pure-Python oracle.

The scheduling rule the north rule holds both implementations to:
- crawl order within a round = (score desc, url asc), score =
  functions/scoring.webpage_score with a FIXED reference clock ``now_ms``
  (no wall clock anywhere — reproducibility)
- per-host politeness budget per round (default 10 — the reference's
  maxPerRoute, bolts/FetcherBolt.java:85), split exactly across a host's
  salt sub-queues (state/politeness.salt_quota)
- global round budget; deferred URLs stay pending
- seen-set: first-wins on the scheduled URL and its redirect-expanded final
  URL; optional 24 h TTL (utils/CrawlDecider.java:14)
"""

from __future__ import annotations

from dataclasses import dataclass

from ..fixtures.generate import DAY_MS, EPOCH0_MS


@dataclass
class CrawlConfig:
    n_shards: int = 4
    per_host_budget: int = 10
    round_budget: int = 200
    max_rounds: int = 5
    now_ms: int = EPOCH0_MS + DAY_MS  # fixed reference clock (end of corpus day)
    seen_ttl_ms: int | None = None  # e.g. 24*3600*1000 for CrawlDecider semantics
    # deterministic logical clock: round r runs at now_ms + r*round_duration_ms.
    # Scores ALWAYS use the fixed now_ms (reproducible ordering); the advancing
    # clock only drives seen-TTL expiry, enabling CrawlDecider's
    # recrawl-after-expiry (utils/CrawlDecider.java:23-27) inside the
    # deterministic round model. 0 = frozen clock (default).
    round_duration_ms: int = 0
    hot_threshold: int = 50  # seed-count per host above which the host is salted
    max_salts: int = 4
    fetch_concurrency: int = 4  # target fetch-stage parallelism (block fan-out)
    fetch_batch_size: int = 256
    embed_media: bool = False  # decode+embed extracted media (vIndexer path)
    # worker-local (phash, embedding) memo per image id — bit-identical
    # outputs, removes redundant decode+embed of repeated references. OFF
    # for the scaling benchmark: the synthetic fixture repeats 8k images
    # ~8×/page, which the cache makes trivially cheap, whereas real crawls
    # see mostly-distinct images — uncached is the compute-representative
    # workload for the N vs 4N criterion.
    embed_cache: bool = True
    # StatusCheckBolt media-seen gate before the embedder, applied at round
    # granularity (deterministic): ids embedded in earlier rounds are skipped
    media_dedup: bool = False
    # 'fixture' (offline page/redirect store — the test/bench path) or
    # 'live' (urllib HTTP fetch/expand + per-host robots.txt fetch;
    # stages/live.py honors FetcherBolt/URLExpansionBolt timeouts and caps)
    fetch_mode: str = "fixture"
    live_fetch_timeout_s: float = 30.0  # FetcherBolt.java:83-95
    live_expand_timeout_s: float = 2.0  # URLExpansionBolt.java:118
