"""Standalone oracled queries for the URL-frontier scheduler components
(the north rule's fetch-scheduler surface): robots gating, ≤4-hop redirect
expansion, per-host politeness round assignment, and the composed frontier
schedule manifest.

The crawl pipeline (pipelines/crawl.py) runs these semantics inside its
round loop; these queries expose each component — and their composition —
as driver-gate artifacts over the deterministic crawl fixture
(frontier_seed / redirects / robots), each with an exact DuckDB oracle.

Reference lineage:
- redirect expansion: bolts/webpages/URLExpansionBolt.java:30,110-134
  (≤4 hops, Location walk) via the shared ``stages/expand.make_expander``
  kernel (trace-conformance tested against the live path).
- ranking: bolts/webpages/RankerBolt.java:78-92 (shares×pubtime score);
  the priority queue becomes (score_micro desc, url asc) per host.
- politeness: the reference's only politeness knob is maxPerRoute=10
  (bolts/FetcherBolt.java connection pool); the north rule promotes it to
  an explicit per-host budget of ``PER_HOST_BUDGET`` fetches per round, so
  a URL's fetch round is rank-within-host // budget.
- robots: north-rule addition (the reference has none); ANY matching
  disallow prefix for the URL's host blocks it. The live crawl path parses
  real robots.txt with RFC 9309 semantics (state/politeness.RobotsCache);
  these queries mirror the fixture's declarative (host, disallow_prefix)
  table — the batch-audit shape of the same gate.

Scale shapes (10^10-URL frontier):
- robots table is per-host bounded (millions of rows, not corpus-shaped):
  broadcast once via ``ray.put`` as sorted arrays, searchsorted lookup
  inside ``map_batches``. Past broadcast size, bucket-join by host.
- redirect store: the broadcast zero-copy ``stages/store.KeyedStore`` the
  crawl loop ships; a corpus-shaped redirect map would
  switch to 2 pointer-doubling rounds of hash-bucketed co-groups (the
  stationary-shard machinery in stages/pregel.py) — documented, not
  needed while redirect tables are orders smaller than frontiers.
- the only shuffles are keyed by url / expanded_url / host — the same
  partition keys the crawl loop reuses; per-host groups are the natural
  politeness unit (hot hosts are exactly the rows one scheduling decision
  must see together).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from ..functions.urls import MAX_REDIRECTS  # noqa: F401  (doc anchor)
from .registry import SMALL_SF, query, small_table

# 2023-11-16T00:00:00Z — after the fixture frontier's max date, so every
# age is positive and the pubtime decay term is well-defined. No wall
# clock anywhere (scores must replay bit-for-bit in the oracle).
CRAWL_NOW_MS = 1_700_092_800_000
AVG_TIME_DIFF_MS = 600_000.0  # RankerBolt.java:30 (10 minutes)
PER_HOST_BUDGET = 10  # FetcherBolt maxPerRoute=10 → fetches/host/round


def _fx(sf_dir: str, table: str) -> str:
    from .queries_media import fixture_dir_for

    return os.path.join(fixture_dir_for(sf_dir), f"{table}.parquet")


def _score_micro(shares: np.ndarray, date_ms: np.ndarray) -> np.ndarray:
    """RankerBolt score in integer micro units — the exact float expression
    the DuckDB oracle replays (same operation order, same rounding)."""
    s = shares.astype(np.float64)
    shares_score = (1.0 - np.exp(-0.05 * s) + 1.0) / 2.0
    age = (CRAWL_NOW_MS - date_ms).astype(np.float64)
    pub_score = (np.exp(-(age / AVG_TIME_DIFF_MS)) + 1.0) / 2.0
    return np.floor(shares_score * pub_score * 1_000_000.0 + 0.5).astype(np.int64)


_FRONTIER_SCORE_SQL = (
    "CAST(FLOOR((1 - EXP(-0.05*shares) + 1)/2 * "
    f"(EXP(-(({CRAWL_NOW_MS} - epoch_ms(date))/{AVG_TIME_DIFF_MS})) + 1)/2 "
    "* 1000000 + 0.5) AS BIGINT)"
)


# --------------------------------------------------------------------------
# robots broadcast store
# --------------------------------------------------------------------------


def _robots_store(sf_dir: str):
    """ray.put'd robots store: (sorted host numpy array, full url-prefix
    numpy array) where full prefix = 'https://' + host + disallow_prefix —
    so the gate is one elementwise ``np.char.startswith`` on the URL, no
    path slicing. Sorted by host for searchsorted range lookup; a host may
    carry several disallow rows (ANY match blocks)."""
    import pyarrow.parquet as pq
    import ray

    rob = pq.read_table(_fx(sf_dir, "robots"))
    hosts = np.asarray(rob["host"].to_pylist(), dtype=object).astype(str)
    prefs = np.asarray(rob["disallow_prefix"].to_pylist(), dtype=object).astype(str)
    order = np.argsort(hosts, kind="stable")
    hosts, prefs = hosts[order], prefs[order]
    full = np.char.add(np.char.add("https://", hosts), prefs)
    return ray.put((hosts, full))


def _blocked_mask(urls: np.ndarray, hosts_of: np.ndarray, store) -> np.ndarray:
    """True where ANY robots disallow prefix of the URL's host matches.
    Vectorized: one searchsorted range per batch, then one
    ``np.char.startswith`` pass per prefix-multiplicity level (k is the max
    number of disallow rows a host has — a tiny constant)."""
    rhosts, rfull = store
    if len(urls) == 0 or len(rhosts) == 0:
        return np.zeros(len(urls), dtype=bool)
    u = urls.astype(str)
    h = hosts_of.astype(str)
    lo = np.searchsorted(rhosts, h, side="left")
    hi = np.searchsorted(rhosts, h, side="right")
    blocked = np.zeros(len(u), dtype=bool)
    width = hi - lo
    for k in range(int(width.max()) if len(width) else 0):
        sel = width > k
        if not sel.any():
            break
        idx = lo[sel] + k
        blocked[sel] |= np.char.startswith(u[sel], rfull[idx])
    return blocked


# --------------------------------------------------------------------------
# 1. robots gate audit — per-host (n_urls, n_blocked) over distinct
#    frontier URLs
# --------------------------------------------------------------------------


@query(
    "robots_gate_counts",
    lambda: _robots_gate_counts_sql(small_table("frontier_seed"), small_table("robots")),
    small=True,
)
def q_robots_gate_counts(sf_dir: str):
    """Per-host robots audit over the seed frontier: distinct URLs per host
    and how many a disallow prefix blocks. The gate flag is map-side
    (broadcast robots store); the single shuffle is hash-BUCKETED by host
    (a bucket holds whole hosts, so per-bucket dedupe == global dedupe and
    the group fn is one vectorized pandas groupby — never one Python call
    per host, which matters when the frontier spans millions of hosts)."""
    import ray
    import ray.data as rd

    from ..scale import cogroup, derive_buckets

    store_ref = _robots_store(sf_dir)
    nb = derive_buckets(_fx(sf_dir, "frontier_seed"), floor=8)

    def flag(batch: pa.Table) -> pa.Table:
        store = ray.get(store_ref)
        urls = np.asarray(batch["url"].to_pylist(), dtype=object)
        hosts = np.asarray(batch["domain"].to_pylist(), dtype=object)
        return pa.table(
            {
                "url": batch["url"],
                "host": batch["domain"],
                "blocked": pa.array(_blocked_mask(urls, hosts, store)),
            }
        )

    def per_bucket(g) -> pa.Table:
        g = g.drop_duplicates(subset=["url"])
        agg = g.groupby("host", sort=False).agg(
            n_urls=("url", "size"), n_blocked=("blocked", "sum")
        )
        return pa.table(
            {
                "host": pa.array(agg.index.tolist(), pa.string()),
                "n_urls": pa.array(agg["n_urls"].to_numpy(np.int64), pa.int64()),
                "n_blocked": pa.array(agg["n_blocked"].to_numpy(np.int64), pa.int64()),
            }
        )

    return cogroup(
        rd.read_parquet(
            _fx(sf_dir, "frontier_seed"), columns=["url", "domain"]
        ).map_batches(flag, batch_format="pyarrow"),
        "host",
        per_bucket,
        nb,
    )


def _robots_gate_counts_sql(seeds: str, robots: str) -> str:
    return (
        f"WITH d AS (SELECT DISTINCT url, domain FROM read_parquet('{seeds}')) "
        "SELECT d.domain AS host, CAST(COUNT(*) AS BIGINT) AS n_urls, "
        "CAST(SUM(CASE WHEN EXISTS (SELECT 1 FROM "
        f"read_parquet('{robots}') r WHERE r.host = d.domain AND "
        "starts_with(d.url, 'https://' || r.host || r.disallow_prefix)) "
        "THEN 1 ELSE 0 END) AS BIGINT) AS n_blocked "
        "FROM d GROUP BY d.domain"
    )


# --------------------------------------------------------------------------
# 2. redirect expansion — ≤4-hop final URL + status per distinct seed URL
# --------------------------------------------------------------------------


@query(
    "url_expand_final",
    lambda: _url_expand_final_sql(small_table("frontier_seed"), small_table("redirects")),
    small=True,
)
def q_url_expand_final(sf_dir: str):
    """URLExpansionBolt replay as a standalone query: for every distinct
    seed URL, the ≤``MAX_REDIRECTS``-hop expansion endpoint, its host, and
    'ok' / 'expand_failed' (failed iff a further hop exists after 4 — the
    reference's give-up path, URLExpansionBolt.java:30,85-98). Reuses the
    crawl loop's exact vectorized expander (stages/expand.make_expander)
    over the broadcast zero-copy redirect store; dedupe is one
    url-keyed first-wins group (duplicate seed rows are identical)."""
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    from ..scale import cogroup, derive_buckets
    from ..stages.expand import make_expander
    from ..stages.store import KeyedStore

    redirects = pq.read_table(_fx(sf_dir, "redirects"), columns=["src", "dst"])
    expander = make_expander(ray.put(KeyedStore(redirects, "src")))
    nb = derive_buckets(_fx(sf_dir, "frontier_seed"), floor=8)

    # dedupe = local per-batch unique, then one bucketed cross-batch pass
    # (NB groups of vectorized pandas — never one Python call per url)
    def local_unique(batch: pa.Table) -> pa.Table:
        return pa.table({"url": batch["url"].unique()})

    def bucket_unique(g) -> pa.Table:
        u = g["url"].drop_duplicates()
        return pa.table({"url": pa.array(u.tolist(), pa.string())})

    return (
        cogroup(
            rd.read_parquet(
                _fx(sf_dir, "frontier_seed"), columns=["url"]
            ).map_batches(local_unique, batch_format="pyarrow"),
            "url",
            bucket_unique,
            nb,
        )
        .map_batches(expander, batch_format="pyarrow")
        .select_columns(["url", "expanded_url", "expanded_host", "status"])
    )


def _hop_cte(seeds_sel: str, redirects: str) -> str:
    """Shared CTE fragment: u0..u4 COALESCE hop chain over the redirect
    table (a missed hop keeps the URL, and a kept URL can never match a
    later hop — the map was already consulted), ending with the 5th-hop
    existence check that defines expand_failed."""
    parts = [
        f"r AS (SELECT src, dst FROM read_parquet('{redirects}'))",
        f"h0 AS ({seeds_sel})",
    ]
    for k in range(1, MAX_REDIRECTS + 1):
        parts.append(
            f"h{k} AS (SELECT h.*  EXCLUDE (u), COALESCE(r.dst, h.u) AS u "
            f"FROM h{k-1} h LEFT JOIN r ON r.src = h.u)"
        )
    parts.append(
        f"hx AS (SELECT h.*, CASE WHEN EXISTS (SELECT 1 FROM r WHERE "
        f"r.src = h.u) THEN 'expand_failed' ELSE 'ok' END AS status, "
        "regexp_extract(h.u, '^https://([^/]+)', 1) AS ehost "
        f"FROM h{MAX_REDIRECTS} h)"
    )
    return ", ".join(parts)


def _url_expand_final_sql(seeds: str, redirects: str) -> str:
    seeds_sel = f"SELECT DISTINCT url, url AS u FROM read_parquet('{seeds}')"
    return (
        "WITH " + _hop_cte(seeds_sel, redirects) + " "
        "SELECT url, u AS expanded_url, ehost AS expanded_host, status FROM hx"
    )


# --------------------------------------------------------------------------
# 3. politeness rounds — per-host fetch-round assignment on the raw frontier
# --------------------------------------------------------------------------


@query(
    "politeness_rounds",
    lambda: _politeness_rounds_sql(small_table("frontier_seed")),
    small=True,
)
def q_politeness_rounds(sf_dir: str):
    """Per-host politeness scheduling over the raw seed frontier: each
    distinct URL gets the RankerBolt score (micro units) and a fetch round
    = rank-within-host // ``PER_HOST_BUDGET`` under (score_micro desc, url
    asc) — the priority-queue drain order quantized by the per-host budget.
    ONE shuffle, hash-bucketed by host: scoring is map-side and the bucket
    fn dedupes + ranks every contained host with one vectorized pandas
    sort + cumcount (whole hosts co-locate, so bucket-local == global)."""
    import ray.data as rd

    from ..scale import cogroup, derive_buckets

    nb = derive_buckets(_fx(sf_dir, "frontier_seed"), floor=8)

    def score(batch: pa.Table) -> pa.Table:
        shares = batch["shares"].to_numpy(zero_copy_only=False)
        date_ms = batch["date"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "url": batch["url"],
                "host": batch["domain"],
                "score_micro": pa.array(_score_micro(shares, date_ms), pa.int64()),
            }
        )

    def rounds(g) -> pa.Table:
        g = g.drop_duplicates(subset=["url"]).sort_values(
            ["host", "score_micro", "url"],
            ascending=[True, False, True],
            kind="stable",
        )
        rnd = (g.groupby("host", sort=False).cumcount() // PER_HOST_BUDGET).to_numpy(
            np.int64
        )
        return pa.table(
            {
                "url": pa.array(g["url"].tolist(), pa.string()),
                "host": pa.array(g["host"].tolist(), pa.string()),
                "score_micro": pa.array(g["score_micro"].to_numpy(), pa.int64()),
                "fetch_round": pa.array(rnd, pa.int64()),
            }
        )

    return cogroup(
        rd.read_parquet(
            _fx(sf_dir, "frontier_seed"), columns=["url", "domain", "shares", "date"]
        ).map_batches(score, batch_format="pyarrow"),
        "host",
        rounds,
        nb,
    )


def _politeness_rounds_sql(seeds: str) -> str:
    return (
        "WITH d AS (SELECT DISTINCT url, domain AS host, "
        f"{_FRONTIER_SCORE_SQL} AS score_micro FROM read_parquet('{seeds}')) "
        "SELECT url, host, score_micro, "
        "CAST((ROW_NUMBER() OVER (PARTITION BY host "
        f"ORDER BY score_micro DESC, url ASC) - 1) // {PER_HOST_BUDGET} "
        "AS BIGINT) AS fetch_round FROM d"
    )


# --------------------------------------------------------------------------
# 4. frontier schedule — the composed scheduler manifest
# --------------------------------------------------------------------------


@query(
    "frontier_schedule",
    lambda: _frontier_schedule_sql(
        small_table("frontier_seed"), small_table("redirects"), small_table("robots")
    ),
    small=True,
)
def q_frontier_schedule(sf_dir: str):
    """The composed fetch-scheduler manifest (the north rule end-to-end,
    minus the fetch itself): seed frontier → ≤4-hop expansion (drop
    expand_failed) → robots gate on the EXPANDED url/host → RankerBolt
    score → one row per expanded_url (best evidence wins: score desc, url
    asc — this also collapses duplicate seed rows, so no separate
    url-dedupe shuffle) → per-expanded-host fetch rounds.

    Exactly ONE shuffle, hash-bucketed by the expanded host — host is
    functional of expanded_url, so the host bucket co-locates every
    expanded_url's evidence rows and every host's schedule rows at once;
    expansion, gating and scoring are map-side against the two broadcast
    stores."""
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    from ..scale import cogroup, derive_buckets
    from ..stages.expand import make_expander
    from ..stages.store import KeyedStore

    redirects = pq.read_table(_fx(sf_dir, "redirects"), columns=["src", "dst"])
    robots_ref = _robots_store(sf_dir)
    expander = make_expander(ray.put(KeyedStore(redirects, "src")))

    def gate_and_score(batch: pa.Table) -> pa.Table:
        batch = expander(batch)
        ok = batch.filter(pa.compute.equal(batch["status"], "ok"))
        store = ray.get(robots_ref)
        eu = np.asarray(ok["expanded_url"].to_pylist(), dtype=object)
        eh = np.asarray(ok["expanded_host"].to_pylist(), dtype=object)
        keep = ~_blocked_mask(eu, eh, store)
        kept = ok.filter(pa.array(keep))
        shares = kept["shares"].to_numpy(zero_copy_only=False)
        date_ms = kept["date"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "url": kept["url"],
                "expanded_url": kept["expanded_url"],
                "host": kept["expanded_host"],
                "score_micro": pa.array(_score_micro(shares, date_ms), pa.int64()),
            }
        )

    nb = derive_buckets(_fx(sf_dir, "frontier_seed"), floor=8)

    # ONE bucketed shuffle serves both finishers: host is functional of
    # expanded_url (host = host(expanded_url)), so a host-hash bucket
    # co-locates every expanded_url's evidence rows AND every host's
    # schedule rows. Inside each bucket: vectorized pandas (sort +
    # drop_duplicates + cumcount) — never one Python call per key.
    def finish(g) -> pa.Table:
        g = g.sort_values(
            ["score_micro", "url"], ascending=[False, True], kind="stable"
        ).drop_duplicates(subset=["expanded_url"], keep="first")
        g = g.sort_values(
            ["host", "score_micro", "url"],
            ascending=[True, False, True],
            kind="stable",
        )
        rnd = (g.groupby("host", sort=False).cumcount() // PER_HOST_BUDGET).to_numpy(
            np.int64
        )
        return pa.table(
            {
                "url": pa.array(g["url"].tolist(), pa.string()),
                "expanded_url": pa.array(g["expanded_url"].tolist(), pa.string()),
                "host": pa.array(g["host"].tolist(), pa.string()),
                "score_micro": pa.array(g["score_micro"].to_numpy(), pa.int64()),
                "fetch_round": pa.array(rnd, pa.int64()),
            }
        )

    return cogroup(
        rd.read_parquet(
            _fx(sf_dir, "frontier_seed"), columns=["url", "domain", "shares", "date"]
        ).map_batches(gate_and_score, batch_format="pyarrow"),
        "host",
        finish,
        nb,
    )


def _frontier_schedule_sql(seeds: str, redirects: str, robots: str) -> str:
    seeds_sel = (
        "SELECT url, shares, date, url AS u FROM "
        f"read_parquet('{seeds}')"
    )
    return (
        "WITH " + _hop_cte(seeds_sel, redirects) + ", "
        "g AS (SELECT url, u AS expanded_url, ehost AS host, "
        f"{_FRONTIER_SCORE_SQL} AS score_micro "
        "FROM hx WHERE status = 'ok' AND NOT EXISTS (SELECT 1 FROM "
        f"read_parquet('{robots}') rb WHERE rb.host = hx.ehost AND "
        "starts_with(hx.u, 'https://' || rb.host || rb.disallow_prefix))), "
        "b AS (SELECT * FROM g QUALIFY ROW_NUMBER() OVER "
        "(PARTITION BY expanded_url ORDER BY score_micro DESC, url ASC) = 1) "
        "SELECT url, expanded_url, host, score_micro, "
        "CAST((ROW_NUMBER() OVER (PARTITION BY host "
        f"ORDER BY score_micro DESC, url ASC) - 1) // {PER_HOST_BUDGET} "
        "AS BIGINT) AS fetch_round FROM b"
    )


# --------------------------------------------------------------------------
# 5. host link matrix — host-level rollup of the page link graph
# --------------------------------------------------------------------------


@query("host_link_matrix", lambda: _host_link_matrix_sql(small_table("pages")), small=True)
def q_host_link_matrix(sf_dir: str):
    """The hostgraph: (src_host, dst_host, n_links) over every out-link of
    every fetched page — the host-level rollup crawl schedulers use for
    frontier prioritization and spam-farm detection (page-level link
    analysis lives in pagerank_top20 / hits_top20; this is its bounded
    host×host projection). Each link OCCURRENCE counts (a page linking a
    host three times contributes 3).

    Scale shape: map-side the kernel is pure Arrow — list_flatten +
    list_parent_indices + one vectorized regex per batch, then a
    per-batch partial count, so the shuffle input is (#host-pairs ×
    #blocks) partial rows, never the link stream; the final groupby is
    over the host×host key space (quadratic in HOSTS, not pages)."""
    import pyarrow.compute as pc
    import ray.data as rd
    from ray.data.aggregate import Sum

    host_pat = r"^https://([^/]+).*$"

    def partial(batch: pa.Table) -> pa.Table:
        links = batch["out_links"]
        flat = pc.list_flatten(links)
        parent = pc.list_parent_indices(links)
        src = pc.replace_substring_regex(
            batch["url"].take(parent), pattern=host_pat, replacement=r"\1"
        )
        dst = pc.replace_substring_regex(flat, pattern=host_pat, replacement=r"\1")
        pair = pa.table({"src_host": src, "dst_host": dst})
        return (
            pair.group_by(["src_host", "dst_host"])
            .aggregate([([], "count_all")])
            .rename_columns(["src_host", "dst_host", "n_links"])
        )

    return (
        rd.read_parquet(_fx(sf_dir, "pages"), columns=["url", "out_links"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["src_host", "dst_host"])
        .aggregate(Sum("n_links", alias_name="n_links"))
    )


def _host_link_matrix_sql(pages: str) -> str:
    return (
        "WITH e AS (SELECT regexp_extract(url, '^https://([^/]+).*$', 1) "
        "AS src_host, regexp_extract(unnest(out_links), "
        "'^https://([^/]+).*$', 1) AS dst_host "
        f"FROM read_parquet('{pages}')) "
        "SELECT src_host, dst_host, CAST(COUNT(*) AS BIGINT) AS n_links "
        "FROM e GROUP BY src_host, dst_host"
    )


# --------------------------------------------------------------------------
# 6. frontier capacity planning: HLL distinct sketch, skew salt plan,
#    host fetch health, TTL recrawl load
# --------------------------------------------------------------------------

# HyperLogLog (Flajolet et al. 2007) over the 31-bit byte-fold hash family
# ml6/ml7 already replay in SQL (queries_ml6._cms_hash + the KMV finishing
# round): p=6 → m=64 registers, the remaining 25 bits feed the rank.
HLL_P = 6
HLL_M = 1 << HLL_P  # 64 registers
HLL_WBITS = 31 - HLL_P  # 25 rank bits → rank ∈ [1, 26]
HLL_ALPHA = 0.709  # published bias constant for m=64
# a host whose distinct-URL count exceeds this gets ceil(n/SALT) salted
# frontier shards (the north rule's explicit hot-host skew splitting)
SALT_SPLIT_URLS = 128
# CrawlDecider.java:14 — seen URLs expire after 24 h; a frontier audit at
# RECRAWL_NOW_MS (fixture epoch + 36 h, so ~half the corpus is past TTL)
# splits each host's URLs into recrawl-due vs still-fresh
RECRAWL_TTL_MS = 24 * 3600 * 1000
RECRAWL_NOW_MS = 1_700_000_000_000 + 36 * 3600 * 1000  # fixtures EPOCH0 + 36 h

_KMV_MULT = 1103515245  # queries_ml7.KMV_MULT (glibc LCG, SQL-replayable)
_KMV_INC = 12345
_MOD31 = 1 << 31
_POW2 = np.array([1 << k for k in range(HLL_WBITS + 1)], dtype=np.int64)


def _kmv_hash_vec(col) -> np.ndarray:
    """Vectorized queries_ml7._kmv_hash over an Arrow string column of
    ASCII strings — bit-identical to the scalar byte-fold + finishing LCG
    round (pinned by tests/test_crawl_queries.py). Zero-copy view of the
    Arrow offsets/data buffers, then ONE vectorized multiply-add pass per
    character position (L column passes over n rows, no per-row Python)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.zeros(0, np.int64)
    arr = col.cast(pa.string()) if col.type != pa.string() else col
    off = np.frombuffer(arr.buffers()[1], dtype=np.int32)
    off = off[arr.offset : arr.offset + n + 1].astype(np.int64)
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
    starts, lens = off[:-1], off[1:] - off[:-1]
    L = int(lens.max()) if n else 0
    if L == 0:
        return np.zeros(n, np.int64)
    idx = starts[:, None] + np.arange(L, dtype=np.int64)[None, :]
    mask = np.arange(L, dtype=np.int64)[None, :] < lens[:, None]
    np.clip(idx, 0, max(len(data) - 1, 0), out=idx)
    chars = np.where(mask, data[idx], 0).astype(np.uint64)
    h = np.zeros(n, np.uint64)
    mult = np.uint64(_KMV_MULT)
    m31 = np.uint64(_MOD31 - 1)  # mod 2³¹ == AND (2³¹−1)
    for j in range(L):
        hj = (h * mult + chars[:, j]) & m31
        h = np.where(mask[:, j], hj, h)
    h = (h * mult + np.uint64(_KMV_INC)) & m31
    return h.astype(np.int64)


def _hll_fold(h: np.ndarray) -> np.ndarray:
    """Per-register max rank of a hash batch: reg = h mod 64, rank =
    26 − bit_length(h // 64) (EXACT integer bit_length via searchsorted
    over powers of two — no float log). Returns the 64-register array."""
    regs = h % HLL_M
    w = h >> HLL_P
    bl = np.searchsorted(_POW2, w, side="right")  # == bit_length(w)
    rank = (HLL_WBITS + 1) - bl
    out = np.zeros(HLL_M, dtype=np.int64)
    np.maximum.at(out, regs, rank)
    return out


def _hll_estimate(m_regs: np.ndarray) -> tuple[int, int]:
    """(n_zero_registers, estimate) from the folded 64-register array —
    the EXACT float expression the DuckDB oracle replays (integer Snum =
    Σ 2^(26−Mj) keeps the harmonic sum order-independent)."""
    v = int((m_regs == 0).sum())
    snum = int(np.sum(1 << (HLL_WBITS + 1 - m_regs.astype(np.int64))))
    raw = int(
        np.floor(HLL_ALPHA * HLL_M * HLL_M * float(1 << (HLL_WBITS + 1)) / snum + 0.5)
    )
    if raw <= (5 * HLL_M) // 2 and v > 0:
        return v, int(np.floor(HLL_M * np.log(HLL_M / float(v)) + 0.5))
    return v, raw


@query(
    "frontier_hll_distinct",
    lambda: _frontier_hll_sql(small_table("frontier_seed")),
    small=True,
)
def q_frontier_hll_distinct(sf_dir: str):
    """HYPERLOGLOG DISTINCT-URL SKETCH over the seed frontier (Flajolet et
    al. 2007) — the sketch that sizes the 10^10-URL seen-set's cuckoo/bloom
    capacity before the crawl commits memory. One row:
    (m, n_zero_regs, hll_estimate, n_distinct_urls, err_ppm) — the sketch
    estimate next to the exact distinct count it approximates, with the
    small-range linear-counting correction when the raw estimate ≤ 5m/2.

    Scale shape: the register fold is map-side (64-bounded per batch);
    the ONE shuffle is the url-hash-bucketed exact-count pass (per-bucket
    dedupe == global dedupe), shipping 64+1 rows per bucket; the driver
    folds a (buckets × 65)-bounded frame. At 10^10 URLs only the exact
    side scales with data — drop it and the sketch alone is one
    shuffle-free pass, which is the point of carrying it."""
    import ray.data as rd

    from ..scale import cogroup, derive_buckets

    nb = derive_buckets(_fx(sf_dir, "frontier_seed"), floor=8)

    def local(batch: pa.Table) -> pa.Table:
        return pa.table({"url": batch["url"].unique()})

    def per_bucket(g) -> pa.Table:
        u = pa.array(g["url"].drop_duplicates().tolist(), pa.string())
        regs = _hll_fold(_kmv_hash_vec(u))
        return pa.table(
            {
                "reg": pa.array(list(range(HLL_M)) + [-1], pa.int64()),
                "val": pa.array(list(regs) + [len(u)], pa.int64()),
            }
        )

    parts = cogroup(
        rd.read_parquet(_fx(sf_dir, "frontier_seed"), columns=["url"]).map_batches(
            local, batch_format="pyarrow"
        ),
        "url",
        per_bucket,
        nb,
    ).to_pandas()  # (buckets × 65) rows — output-bounded fold
    true_n = int(parts.loc[parts["reg"] == -1, "val"].sum())
    regs = (
        parts.loc[parts["reg"] >= 0]
        .groupby("reg")["val"]
        .max()
        .reindex(range(HLL_M), fill_value=0)
        .to_numpy(np.int64)
    )
    v, est = _hll_estimate(regs)
    err_ppm = (abs(est - true_n) * 1_000_000) // max(true_n, 1)
    return pa.table(
        {
            "m": pa.array([HLL_M], pa.int64()),
            "n_zero_regs": pa.array([v], pa.int64()),
            "hll_estimate": pa.array([est], pa.int64()),
            "n_distinct_urls": pa.array([true_n], pa.int64()),
            "err_ppm": pa.array([err_ppm], pa.int64()),
        }
    )


def _frontier_hll_sql(seeds: str) -> str:
    hsql = (
        "((list_reduce(list_prepend(CAST(0 AS BIGINT), "
        "list_transform(range(1, length(url)+1), "
        "i -> CAST(ascii(substring(url, CAST(i AS INT), 1)) AS BIGINT))), "
        f"(a, b) -> (a * {_KMV_MULT} + b) % {_MOD31}) "
        f"* {_KMV_MULT} + {_KMV_INC}) % {_MOD31})"
    )
    wb1 = HLL_WBITS + 1  # 26
    raw = (
        f"CAST(FLOOR({HLL_ALPHA} * {HLL_M} * {HLL_M} * "
        f"CAST({1 << wb1} AS DOUBLE) / snum + 0.5) AS BIGINT)"
    )
    return (
        f"WITH d AS (SELECT DISTINCT url FROM read_parquet('{seeds}')), "
        f"h AS (SELECT {hsql} AS h FROM d), "
        f"r AS (SELECT h % {HLL_M} AS reg, h // {HLL_M} AS w FROM h), "
        f"rk AS (SELECT reg, MAX(CASE WHEN w = 0 THEN {wb1} "
        f"ELSE {wb1} - length(printf('%b', w)) END) AS mx FROM r GROUP BY reg), "
        f"regs AS (SELECT g.reg, COALESCE(rk.mx, 0) AS mx FROM "
        f"(SELECT unnest(range(0, {HLL_M})) AS reg) g "
        "LEFT JOIN rk ON rk.reg = g.reg), "
        "agg AS (SELECT CAST(SUM(CASE WHEN mx = 0 THEN 1 ELSE 0 END) AS BIGINT) "
        f"AS v, CAST(SUM(CAST(1 AS BIGINT) << ({wb1} - mx)) AS BIGINT) AS snum "
        "FROM regs), "
        "tr AS (SELECT CAST(COUNT(*) AS BIGINT) AS true_n FROM d), "
        f"est AS (SELECT CAST({HLL_M} AS BIGINT) AS m, v AS n_zero_regs, "
        f"CASE WHEN {raw} <= {(5 * HLL_M) // 2} AND v > 0 THEN "
        f"CAST(FLOOR({HLL_M} * LN({HLL_M} / CAST(v AS DOUBLE)) + 0.5) AS BIGINT) "
        f"ELSE {raw} END AS hll_estimate FROM agg) "
        "SELECT est.m, est.n_zero_regs, est.hll_estimate, "
        "tr.true_n AS n_distinct_urls, "
        "CAST((ABS(est.hll_estimate - tr.true_n) * 1000000) "
        "// GREATEST(tr.true_n, 1) AS BIGINT) AS err_ppm FROM est, tr"
    )


@query(
    "frontier_skew_plan",
    lambda: _frontier_skew_plan_sql(small_table("frontier_seed")),
    small=True,
)
def q_frontier_skew_plan(sf_dir: str):
    """FRONTIER SKEW SALT PLAN: per host, the distinct-URL count, its
    frontier share in ppm, and the number of salted partitions the
    hash-by-domain frontier partitioner must split it into
    (ceil(n/``SALT_SPLIT_URLS``)) — the explicit hot-host skew-splitting
    decision the north rule requires, as an auditable table. The Zipf
    fixture plants hosts owning ~half the frontier, so the plan is
    non-trivial by construction.

    Scale shape: per-batch local (url, host) dedupe, ONE host-hash-bucketed
    shuffle (whole hosts co-locate → bucket dedupe+count is exact), then a
    host-bounded driver fold for the global total (hosts are dimension-
    shaped: millions, not corpus-shaped)."""
    import ray.data as rd

    from ..scale import cogroup, derive_buckets

    nb = derive_buckets(_fx(sf_dir, "frontier_seed"), floor=8)

    def local(batch: pa.Table) -> pa.Table:
        t = pa.table({"url": batch["url"], "host": batch["domain"]})
        return t.group_by(["url", "host"]).aggregate([])

    def per_bucket(g) -> pa.Table:
        g = g.drop_duplicates(subset=["url"])
        agg = g.groupby("host", sort=False).size()
        return pa.table(
            {
                "host": pa.array(agg.index.tolist(), pa.string()),
                "n_urls": pa.array(agg.to_numpy(np.int64), pa.int64()),
            }
        )

    counts = cogroup(
        rd.read_parquet(
            _fx(sf_dir, "frontier_seed"), columns=["url", "domain"]
        ).map_batches(local, batch_format="pyarrow"),
        "host",
        per_bucket,
        nb,
    ).to_pandas()  # host-bounded
    total = int(counts["n_urls"].sum())
    n = counts["n_urls"].to_numpy(np.int64)
    share = [(int(x) * 1_000_000) // max(total, 1) for x in n]  # Python ints
    shards = (n + SALT_SPLIT_URLS - 1) // SALT_SPLIT_URLS
    return pa.table(
        {
            "host": pa.array(counts["host"].tolist(), pa.string()),
            "n_urls": pa.array(n, pa.int64()),
            "share_ppm": pa.array(share, pa.int64()),
            "n_salt_shards": pa.array(shards.astype(np.int64), pa.int64()),
        }
    )


def _frontier_skew_plan_sql(seeds: str) -> str:
    s = SALT_SPLIT_URLS
    return (
        f"WITH d AS (SELECT DISTINCT url, domain FROM read_parquet('{seeds}')), "
        "c AS (SELECT domain AS host, CAST(COUNT(*) AS BIGINT) AS n_urls "
        "FROM d GROUP BY 1) "
        "SELECT host, n_urls, "
        "CAST((n_urls * 1000000) // SUM(n_urls) OVER () AS BIGINT) AS share_ppm, "
        f"CAST((n_urls + {s - 1}) // {s} AS BIGINT) AS n_salt_shards FROM c"
    )


@query("host_fetch_health", lambda: _host_fetch_health_sql(small_table("pages")), small=True)
def q_host_fetch_health(sf_dir: str):
    """HOST FETCH HEALTH: per-host rollup of fetch outcomes over the pages
    table — (host, n_pages, n_ok, n_http_err, ok_ppm) where ok means
    status 200 AND text/html (the reference FetcherBolt's accept path,
    bolts/FetcherBolt.java non-html reject) and http_err is status ≥ 400.
    The scheduler feedback signal: hosts with low ok_ppm get deprioritized
    before they burn politeness budget.

    Scale shape: fully streaming — per-batch Arrow group_by partials, one
    host-keyed Sum aggregate (host-bounded), ppm derived map-side from the
    host's own sums (no global pass, no driver fold)."""
    import pyarrow.compute as pc
    import ray.data as rd
    from ray.data.aggregate import Sum

    host_pat = r"^https://([^/]+).*$"

    def partial(batch: pa.Table) -> pa.Table:
        host = pc.replace_substring_regex(
            batch["url"], pattern=host_pat, replacement=r"\1"
        )
        sc = batch["status_code"].to_numpy(zero_copy_only=False).astype(np.int64)
        ok = (sc == 200) & pc.equal(
            batch["content_type"], "text/html"
        ).to_numpy(zero_copy_only=False)
        return (
            pa.table(
                {
                    "host": host,
                    "one": pa.array(np.ones(len(sc), np.int64), pa.int64()),
                    "ok": pa.array(ok.astype(np.int64), pa.int64()),
                    "err": pa.array((sc >= 400).astype(np.int64), pa.int64()),
                }
            )
            .group_by("host")
            .aggregate([("one", "sum"), ("ok", "sum"), ("err", "sum")])
            .rename_columns(["host", "n_pages", "n_ok", "n_http_err"])
        )

    def ppm(batch: pa.Table) -> pa.Table:
        nok = batch["n_ok"].to_numpy(zero_copy_only=False)
        npg = batch["n_pages"].to_numpy(zero_copy_only=False)
        # per-host counts stay far under 2⁶³/10⁶ — ppm in int64 is exact
        return batch.append_column(
            "ok_ppm", pa.array(nok * 1_000_000 // np.maximum(npg, 1), pa.int64())
        )

    return (
        rd.read_parquet(_fx(sf_dir, "pages"), columns=["url", "status_code", "content_type"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("host")
        .aggregate(
            Sum("n_pages", alias_name="n_pages"),
            Sum("n_ok", alias_name="n_ok"),
            Sum("n_http_err", alias_name="n_http_err"),
        )
        .map_batches(ppm, batch_format="pyarrow")
    )


def _host_fetch_health_sql(pages: str) -> str:
    return (
        "WITH p AS (SELECT regexp_extract(url, '^https://([^/]+).*$', 1) "
        "AS host, status_code, content_type FROM "
        f"read_parquet('{pages}')), "
        "c AS (SELECT host, CAST(COUNT(*) AS BIGINT) AS n_pages, "
        "CAST(SUM(CASE WHEN status_code = 200 AND content_type = 'text/html' "
        "THEN 1 ELSE 0 END) AS BIGINT) AS n_ok, "
        "CAST(SUM(CASE WHEN status_code >= 400 THEN 1 ELSE 0 END) AS BIGINT) "
        "AS n_http_err FROM p GROUP BY 1) "
        "SELECT host, n_pages, n_ok, n_http_err, "
        "CAST((n_ok * 1000000) // GREATEST(n_pages, 1) AS BIGINT) AS ok_ppm "
        "FROM c"
    )


@query(
    "recrawl_due_counts",
    lambda: _recrawl_due_counts_sql(small_table("frontier_seed")),
    small=True,
)
def q_recrawl_due_counts(sf_dir: str):
    """TTL RECRAWL LOAD (CrawlDecider.java:14 — 24 h seen-URL expiry): at
    audit time ``RECRAWL_NOW_MS``, each host's distinct URLs split into
    recrawl-due (last crawl older than ``RECRAWL_TTL_MS``) vs still-fresh
    — the per-host recrawl demand the next scheduling round must absorb
    on top of new discoveries. Fixture dates span 24 h and the audit sits
    at epoch+36 h, so ~half the corpus is due by construction.

    Scale shape: the due flag is map-side arithmetic; ONE host-hash-
    bucketed shuffle with per-bucket vectorized dedupe+groupby (whole
    hosts co-locate), same discipline as robots_gate_counts."""
    import ray.data as rd

    from ..scale import cogroup, derive_buckets

    nb = derive_buckets(_fx(sf_dir, "frontier_seed"), floor=8)
    cutoff_ms = RECRAWL_NOW_MS - RECRAWL_TTL_MS

    def flag(batch: pa.Table) -> pa.Table:
        date_ms = batch["date"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "url": batch["url"],
                "host": batch["domain"],
                "due": pa.array((date_ms < cutoff_ms).astype(np.int64), pa.int64()),
            }
        )

    def per_bucket(g) -> pa.Table:
        g = g.drop_duplicates(subset=["url"])
        agg = g.groupby("host", sort=False).agg(
            n_due=("due", "sum"), n_urls=("due", "size")
        )
        return pa.table(
            {
                "host": pa.array(agg.index.tolist(), pa.string()),
                "n_due": pa.array(agg["n_due"].to_numpy(np.int64), pa.int64()),
                "n_fresh": pa.array(
                    (agg["n_urls"] - agg["n_due"]).to_numpy(np.int64), pa.int64()
                ),
            }
        )

    return cogroup(
        rd.read_parquet(
            _fx(sf_dir, "frontier_seed"), columns=["url", "domain", "date"]
        ).map_batches(flag, batch_format="pyarrow"),
        "host",
        per_bucket,
        nb,
    )


def _recrawl_due_counts_sql(seeds: str) -> str:
    cutoff_ms = RECRAWL_NOW_MS - RECRAWL_TTL_MS
    return (
        "WITH d AS (SELECT DISTINCT url, domain, date FROM "
        f"read_parquet('{seeds}')) "
        "SELECT domain AS host, "
        f"CAST(SUM(CASE WHEN epoch_ms(date) < {cutoff_ms} THEN 1 ELSE 0 END) "
        "AS BIGINT) AS n_due, "
        f"CAST(SUM(CASE WHEN epoch_ms(date) < {cutoff_ms} THEN 0 ELSE 1 END) "
        "AS BIGINT) AS n_fresh "
        "FROM d GROUP BY domain"
    )


# --------------------------------------------------------------------------
# URL canonicalization audit (frontier normalizer)
# --------------------------------------------------------------------------


def _fx_raw_urls(sf_dir: str) -> str:
    from ..fixtures.generate import ensure_raw_urls
    from .queries_media import fixture_dir_for

    fdir = fixture_dir_for(sf_dir)
    ensure_raw_urls(os.path.basename(os.path.normpath(fdir)), fdir)
    return os.path.join(fdir, "raw_urls.parquet")


_CANON_FLAGS = [
    "case_fixed",
    "port_stripped",
    "fragment_dropped",
    "tracking_removed",
    "params_reordered",
    "slash_stripped",
]


@query(
    "url_canonical_audit",
    lambda: _url_canonical_audit_sql(_fx_raw_urls(SMALL_SF)),
    small=True,
)
def q_url_canonical_audit(sf_dir: str):
    """URL CANONICALIZATION AUDIT: every raw URL normalized by the
    frontier's URL-seen key rules (``functions.urls.canonicalize_url`` —
    lowercase scheme/host, default-port strip, fragment drop,
    tracking-param removal, param byte-sort, trailing-slash strip) and
    reduced to ONE audit row: how often each rule fired, how many URLs
    changed at all, and how many canonical forms collide — the dedup
    win the normalizer buys the URL-seen set (StatusCheckBolt's seen
    gate, bolts/webpages/StatusCheckBolt.java, keyed on the canonical
    form; the reference normalizes implicitly via URLExpansionBolt's
    expanded URL, URLExpansionBolt.java:62-71).

    Scale shape: the normalizer is map-side; the ONLY shuffle is the
    canonical-key groupby (the same key the URL-seen set partitions by,
    so at frontier scale this audit rides the existing partitioning);
    per-group stats collapse to batch partials and the driver reduce is
    one row. Oracle: DuckDB replays every rule branch (regexp parse,
    list_filter/list_sort param handling) over the same raw_urls table."""
    import ray.data as rd

    from ..functions.urls import canonicalize_url

    def canon_batch(batch: pa.Table) -> pa.Table:
        res = [canonicalize_url(u) for u in batch["raw_url"].to_pylist()]
        fl = np.array([r[1] for r in res], np.int64)  # (n, 6)
        changed = np.array(
            [r[0] != u for r, u in zip(res, batch["raw_url"].to_pylist())],
            np.int64,
        )
        cols = {"canonical": pa.array([r[0] for r in res], pa.string())}
        for j, name in enumerate(_CANON_FLAGS):
            cols[name] = pa.array(fl[:, j], pa.int64())
        cols["changed"] = pa.array(changed, pa.int64())
        return pa.table(cols)

    from ..scale import cogroup, derive_buckets

    nb = derive_buckets(_fx_raw_urls(sf_dir), floor=16)

    def per_bucket(df) -> "pd.DataFrame":
        # a bucket holds WHOLE canonical groups (hash partitioning) —
        # ONE vectorized pandas groupby per bucket, never one Python
        # call per mostly-singleton canonical group
        import pandas as pd

        sizes = df.groupby("canonical")["changed"].size()
        out = {
            "n_urls": [len(df)],
            "n_unique_canonical": [int(len(sizes))],
            "n_collided_raw": [int(sizes[sizes >= 2].sum())],
            "n_changed": [int(df["changed"].sum())],
        }
        for name in _CANON_FLAGS:
            out[f"n_{name}"] = [int(df[name].sum())]
        return pd.DataFrame(out)

    parts = (
        cogroup(
            rd.read_parquet(_fx_raw_urls(sf_dir), columns=["raw_url"]).map_batches(
                canon_batch, batch_format="pyarrow"
            ),
            "canonical",
            per_bucket,
            nb,
        )
        .to_pandas()  # bucket-bounded partial rows
        .sum()
    )
    order = (
        ["n_urls"]
        + [f"n_{name}" for name in _CANON_FLAGS]
        + ["n_changed", "n_unique_canonical", "n_collided_raw"]
    )
    return pa.table(
        {c: pa.array([int(parts[c])], pa.int64()) for c in order}
    )


def _url_canonical_audit_sql(raw: str) -> str:
    flt = (
        "list_filter(string_split(q, '&'), x -> x <> '' AND NOT "
        "regexp_matches(x, '^(utm_[^=]*|fbclid|gclid|ref)(=|$)'))"
    )
    return (
        "WITH u AS (SELECT raw_url, regexp_extract(raw_url, "
        "'^([A-Za-z][A-Za-z0-9+.\\-]*)://([^/?#]*)([^?#]*)(?:\\?([^#]*))?(?:#(.*))?$', "
        "['scheme', 'auth', 'path', 'q', 'frag']) AS g "
        f"FROM read_parquet('{raw}')), "
        # userinfo (through the last '@') keeps its case; host[:port] is
        # lowercased
        "a AS (SELECT raw_url, g, regexp_extract(g['auth'], '^.*@') AS ui, "
        "regexp_replace(g['auth'], '^.*@', '') AS hp FROM u), "
        "p AS (SELECT raw_url, g['scheme'] <> '' AS ok, "
        "lower(g['scheme']) AS ls, ui || lower(hp) AS la, "
        "g['path'] AS path, g['q'] AS q, "
        "(g['scheme'] <> lower(g['scheme']) OR hp <> lower(hp)) "
        "AS case_fixed, position('#' IN raw_url) > 0 AS fragment_dropped "
        "FROM a), "
        "p2 AS (SELECT *, CASE WHEN ls = 'https' THEN "
        "regexp_replace(la, ':443$', '') WHEN ls = 'http' THEN "
        "regexp_replace(la, ':80$', '') ELSE la END AS la2, "
        f"{flt} AS kept, "
        "CASE WHEN q = '' THEN 0 ELSE len(string_split(q, '&')) END AS n_params, "
        "CASE WHEN path = '' THEN '/' ELSE path END AS cpath FROM p), "
        "p3 AS (SELECT *, la2 <> la AS port_stripped, "
        # a bare '?' (the first of '?'/'#' is '?', nothing after it)
        # is an emptied query
        "(len(kept) < n_params OR (q = '' AND "
        "regexp_matches(raw_url, '^[^?#]*[?]'))) AS tracking_removed, "
        "len(kept) > 1 AND kept <> list_sort(kept) AS params_reordered, "
        "length(cpath) > 1 AND cpath LIKE '%/' AS slash_stripped FROM p2), "
        "c AS (SELECT raw_url, "
        "CASE WHEN NOT ok THEN raw_url ELSE "
        "ls || '://' || la2 || "
        "CASE WHEN slash_stripped THEN substring(cpath, 1, length(cpath) - 1) "
        "ELSE cpath END || "
        "CASE WHEN len(kept) > 0 THEN '?' || "
        "array_to_string(list_sort(kept), '&') ELSE '' END END AS canonical, "
        "ok AND case_fixed AS case_fixed, ok AND port_stripped AS port_stripped, "
        "ok AND fragment_dropped AS fragment_dropped, "
        "ok AND tracking_removed AS tracking_removed, "
        "ok AND params_reordered AS params_reordered, "
        "ok AND slash_stripped AS slash_stripped FROM p3), "
        "agg AS (SELECT CAST(COUNT(*) AS BIGINT) AS n_urls, "
        + ", ".join(
            f"CAST(SUM(CASE WHEN {f} THEN 1 ELSE 0 END) AS BIGINT) AS n_{f}"
            for f in _CANON_FLAGS
        )
        + ", CAST(SUM(CASE WHEN canonical <> raw_url THEN 1 ELSE 0 END) "
        "AS BIGINT) AS n_changed FROM c), "
        "g2 AS (SELECT canonical, COUNT(*) AS cnt FROM c GROUP BY canonical), "
        "d AS (SELECT CAST(COUNT(*) AS BIGINT) AS n_unique_canonical, "
        "CAST(COALESCE(SUM(CASE WHEN cnt >= 2 THEN cnt END), 0) AS BIGINT) "
        "AS n_collided_raw FROM g2) "
        "SELECT agg.*, d.* FROM agg CROSS JOIN d"
    )


# --------------------------------------------------------------------------
# RFC 9309 wildcard robots gate (longest-match, allow-wins precedence)
# --------------------------------------------------------------------------


def _fx_robots_wildcards(sf_dir: str) -> str:
    from ..fixtures.generate import ensure_robots_wildcards
    from .queries_media import fixture_dir_for

    fdir = fixture_dir_for(sf_dir)
    ensure_robots_wildcards(fdir)
    return os.path.join(fdir, "robots_wildcards.parquet")


@query(
    "robots_wildcard_gate",
    lambda: _robots_wildcard_sql(_fx_raw_urls(SMALL_SF), _fx_robots_wildcards(SMALL_SF)),
    small=True,
)
def q_robots_wildcard_gate(sf_dir: str):
    """RFC 9309 WILDCARD ROBOTS GATE: the raw-URL frontier gated by
    per-host rule sets with '*' wildcards and trailing-'$' anchors under
    the full compliance precedence — among all matching rules the
    LONGEST (by rule octet length) wins, Allow beats Disallow on ties,
    no match means allowed. This is the part of robots handling the
    prefix-only gate (q_robots_gate_counts) cannot express, and the
    batch-audit twin of the live parser (state/politeness.RobotsCache).
    Output per host: (host, n_urls, n_blocked).

    Scale shape: the rule table is host-bounded → broadcast once via
    ``ray.put`` as per-host precedence-sorted compiled regex lists;
    matching is map-side over the URL stream; the reduce is host-bounded
    per-batch partials. The regex TRANSLATION is done once at fixture
    generation and stored in the table (``rule_regex``), so engine
    (Python re) and oracle (DuckDB RE2) consume the identical pattern
    string — no dual implementations to drift."""
    import re

    import pandas as pd
    import ray
    import ray.data as rd

    from ..functions.urls import _URL_RE

    rwpath = _fx_robots_wildcards(sf_dir)

    import pyarrow.parquet as pq_

    rw = pq_.read_table(rwpath).to_pandas()
    by_host: dict[str, list] = {}
    for host, rule, allow, rx in zip(
        rw["host"], rw["rule"], rw["allow"], rw["rule_regex"]
    ):
        by_host.setdefault(host, []).append((len(rule), bool(allow), rule, rx))
    for host in by_host:
        # precedence order: longest rule first, Allow before Disallow on
        # equal length, then rule string (full determinism)
        by_host[host] = [
            (a, re.compile(rx))
            for _, a, _, rx in sorted(
                by_host[host], key=lambda t: (-t[0], not t[1], t[2])
            )
        ]
    rules_ref = ray.put(by_host)

    def gate(batch: pa.Table) -> pa.Table:
        rules = ray.get(rules_ref)
        hosts, blocked = [], []
        for u in batch["raw_url"].to_pylist():
            m = _URL_RE.match(u)
            if not m:
                continue  # generator always parses; audited via n_urls sum
            scheme, auth, path, q, _ = m.groups()
            la = auth.lower()
            dport = {"https": ":443", "http": ":80"}.get(scheme.lower())
            if dport and la.endswith(dport):
                la = la[: -len(dport)]
            pathq = (path if path else "/") + (f"?{q}" if q else "")
            verdict = False  # no match → allowed
            for allow, rx in rules.get(la, ()):
                if rx.match(pathq):
                    verdict = not allow
                    break  # first in precedence order wins
            hosts.append(la)
            blocked.append(verdict)
        t = pa.table(
            {
                "host": pa.array(hosts, pa.string()),
                "blocked": pa.array(np.array(blocked, np.int64), pa.int64()),
                "one": pa.array(np.ones(len(hosts), np.int64), pa.int64()),
            }
        )
        return t.group_by("host").aggregate([("one", "sum"), ("blocked", "sum")])

    df = (
        rd.read_parquet(_fx_raw_urls(sf_dir), columns=["raw_url"])
        .map_batches(gate, batch_format="pyarrow")
        .to_pandas()  # hosts × n_batches-bounded partials
        .groupby("host", sort=True)
        .sum()
        .reset_index()
    )
    return pa.table(
        {
            "host": pa.array(df["host"].tolist(), pa.string()),
            "n_urls": pa.array(df["one_sum"].to_numpy(np.int64), pa.int64()),
            "n_blocked": pa.array(
                df["blocked_sum"].to_numpy(np.int64), pa.int64()
            ),
        }
    )


def _robots_wildcard_sql(raw: str, rwild: str) -> str:
    return (
        "WITH u AS (SELECT url_id, raw_url, regexp_extract(raw_url, "
        "'^([A-Za-z][A-Za-z0-9+.\\-]*)://([^/?#]*)([^?#]*)(?:\\?([^#]*))?(?:#(.*))?$', "
        "['scheme', 'auth', 'path', 'q', 'frag']) AS g "
        f"FROM read_parquet('{raw}')), "
        "p AS (SELECT url_id, lower(g['scheme']) AS ls, "
        "lower(g['auth']) AS la0, "
        "(CASE WHEN g['path'] = '' THEN '/' ELSE g['path'] END) || "
        "(CASE WHEN g['q'] <> '' THEN '?' || g['q'] ELSE '' END) AS pathq "
        "FROM u WHERE g['scheme'] <> ''), "
        "p2 AS (SELECT url_id, pathq, CASE WHEN ls = 'https' THEN "
        "regexp_replace(la0, ':443$', '') WHEN ls = 'http' THEN "
        "regexp_replace(la0, ':80$', '') ELSE la0 END AS host FROM p), "
        f"rw AS (SELECT * FROM read_parquet('{rwild}')), "
        "m AS (SELECT p2.url_id, p2.host, rw.allow, length(rw.rule) AS rl, "
        "rw.rule FROM p2 JOIN rw ON rw.host = p2.host "
        "AND regexp_matches(p2.pathq, rw.rule_regex)), "
        "best AS (SELECT url_id, NOT allow AS blocked FROM m "
        "QUALIFY ROW_NUMBER() OVER (PARTITION BY url_id "
        "ORDER BY rl DESC, allow DESC, rule) = 1) "
        "SELECT p2.host, CAST(COUNT(*) AS BIGINT) AS n_urls, "
        "CAST(SUM(CASE WHEN COALESCE(best.blocked, FALSE) THEN 1 ELSE 0 END) "
        "AS BIGINT) AS n_blocked "
        "FROM p2 LEFT JOIN best USING (url_id) GROUP BY p2.host"
    )


# --------------------------------------------------------------------------
# rendezvous (HRW) shard rebalance audit
# --------------------------------------------------------------------------

HRW_SHARDS = 16  # frontier shard count before the rebalance
# 32-bit multiplicative-xorshift mixer: every operation stays below 2^63
# so DuckDB BIGINT replays it without overflow (DuckDB errors on int64
# wrap, so a 64-bit mixer is NOT SQL-expressible); numpy side runs the
# identical ops in uint64 with explicit mod 2^32
_HRW_M = 1 << 32
_HRW_A = 2654435761  # Knuth multiplicative
_HRW_B = 40503
_HRW_C = 2246822519  # xxhash prime


def _hrw_hash_vec(key: np.ndarray, shard: int) -> np.ndarray:
    """h(key, shard) — vectorized over int64 keys, all-int32-range ops."""
    x = (
        key.astype(np.uint64) * np.uint64(_HRW_A)
        + np.uint64(shard) * np.uint64(_HRW_B)
    ) % np.uint64(_HRW_M)
    x = x ^ (x >> np.uint64(16))
    x = (x * np.uint64(_HRW_C)) % np.uint64(_HRW_M)
    x = x ^ (x >> np.uint64(13))
    return x.astype(np.int64)


@query(
    "hrw_shard_rebalance",
    lambda: _hrw_rebalance_sql(_fx_raw_urls(SMALL_SF)),
    small=True,
)
def q_hrw_shard_rebalance(sf_dir: str):
    """RENDEZVOUS-HASHING SHARD REBALANCE AUDIT: every frontier URL key
    assigned to argmax_s h(key, s) under ``HRW_SHARDS`` shards and again
    under ``HRW_SHARDS + 1`` (a shard added to the fixed-size cluster),
    reporting per NEW shard (shard, n_before, n_after, n_moved_in) — the
    consistent-hashing property a 10^10-URL frontier needs when a node
    joins: HRW moves only ~1/(N+1) of keys (all INTO the new shard),
    where mod-hashing would reshuffle ~N/(N+1) of the frontier. Ties
    break to the lowest shard id.

    Scale shape: pure map-side — each batch computes its (n, N+1) hash
    matrix and two argmaxes, emitting per-batch partial shard counts;
    the reduce is shard-bounded. No shuffle at any frontier size.
    Reference: the reference shards implicitly via Storm fieldsGrouping
    (topologies/CrawlerTopology.java); explicit HRW is the north-rule
    frontier-partitioning addition."""
    import ray.data as rd

    def partial(batch: pa.Table) -> pa.Table:
        k = batch["url_id"].to_numpy().astype(np.int64)
        h = np.stack(
            [_hrw_hash_vec(k, s) for s in range(HRW_SHARDS + 1)], axis=1
        )  # (n, N+1); np.argmax takes the FIRST max → lowest shard on ties
        before = np.argmax(h[:, :HRW_SHARDS], axis=1)
        after = np.argmax(h, axis=1)
        nb = np.bincount(before, minlength=HRW_SHARDS + 1)
        na = np.bincount(after, minlength=HRW_SHARDS + 1)
        mv = np.bincount(
            after[after != before], minlength=HRW_SHARDS + 1
        )
        return pa.table(
            {
                "shard": pa.array(
                    np.arange(HRW_SHARDS + 1, dtype=np.int64), pa.int64()
                ),
                "n_before": pa.array(nb.astype(np.int64), pa.int64()),
                "n_after": pa.array(na.astype(np.int64), pa.int64()),
                "n_moved_in": pa.array(mv.astype(np.int64), pa.int64()),
            }
        )

    df = (
        rd.read_parquet(_fx_raw_urls(sf_dir), columns=["url_id"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()  # (N+1) × n_batches-bounded partials
        .groupby("shard", sort=True)
        .sum()
        .reset_index()
    )
    return pa.table(
        {
            c: pa.array(df[c].to_numpy(np.int64), pa.int64())
            for c in ("shard", "n_before", "n_after", "n_moved_in")
        }
    )


def _hrw_mix_sql(key: str, shard: str) -> str:
    m, a, b, c = _HRW_M, _HRW_A, _HRW_B, _HRW_C
    x0 = f"(({key} * {a} + {shard} * {b}) % {m})"
    x1 = f"xor({x0}, {x0} // 65536)"
    # x1 < 2^32 but x1·C ≈ 9.7×10^18 exceeds int64 → widen to HUGEINT
    # for the product (numpy's uint64 holds it: < 2^64)
    x2 = f"CAST((CAST({x1} AS HUGEINT) * {c}) % {m} AS BIGINT)"
    return f"xor({x2}, {x2} // 8192)"
    # >>16 / >>13 are exact integer divides for nonnegative x (both
    # engines); xor() is DuckDB's bitwise xor on BIGINT


def _hrw_rebalance_sql(raw: str) -> str:
    n = HRW_SHARDS
    mix = _hrw_mix_sql("u.url_id", "s.s")
    return (
        f"WITH u AS (SELECT url_id FROM read_parquet('{raw}')), "
        f"s AS (SELECT UNNEST(range({n + 1})) AS s), "
        f"h AS (SELECT u.url_id, s.s, {mix} AS h FROM u CROSS JOIN s), "
        "bef AS (SELECT url_id, s AS shard FROM h WHERE s < "
        f"{n} QUALIFY ROW_NUMBER() OVER "
        "(PARTITION BY url_id ORDER BY h DESC, s) = 1), "
        "aft AS (SELECT url_id, s AS shard FROM h "
        "QUALIFY ROW_NUMBER() OVER "
        "(PARTITION BY url_id ORDER BY h DESC, s) = 1), "
        f"grid AS (SELECT UNNEST(range({n + 1})) AS shard), "
        "nb AS (SELECT shard, COUNT(*) AS c FROM bef GROUP BY shard), "
        "na AS (SELECT shard, COUNT(*) AS c FROM aft GROUP BY shard), "
        "mv AS (SELECT a.shard, COUNT(*) AS c FROM aft a "
        "JOIN bef b USING (url_id) WHERE a.shard <> b.shard GROUP BY a.shard) "
        "SELECT CAST(grid.shard AS BIGINT) AS shard, "
        "CAST(COALESCE(nb.c, 0) AS BIGINT) AS n_before, "
        "CAST(COALESCE(na.c, 0) AS BIGINT) AS n_after, "
        "CAST(COALESCE(mv.c, 0) AS BIGINT) AS n_moved_in "
        "FROM grid LEFT JOIN nb USING (shard) LEFT JOIN na USING (shard) "
        "LEFT JOIN mv USING (shard) ORDER BY shard"
    )


# --------------------------------------------------------------------------
# Bloom-filter false-positive audit (URL-seen sizing)
# --------------------------------------------------------------------------

BLOOM_M_BITS = 131072  # 2^17 filter bits
BLOOM_K = 3  # hash functions (the HRW mixer salted by hash index)


@query("bloom_fp_audit", lambda: _bloom_fp_sql(_fx_raw_urls(SMALL_SF)), small=True)
def q_bloom_fp_audit(sf_dir: str):
    """BLOOM FALSE-POSITIVE AUDIT: build a ``BLOOM_M_BITS``-bit,
    ``BLOOM_K``-hash Bloom filter over half the raw-URL keys (even
    url_ids) and probe it with the DISJOINT other half (odd url_ids),
    reporting the measured false-positive rate and bit fill — the
    empirical sizing check behind the north rule's bloom-fallback
    URL-seen set (a 10^10-URL frontier sizes m/k from exactly this
    curve; the theory value at this fill is ~(fill)^k ≈ 0.9%, and the
    audit MEASURES it instead of assuming it). One output row:
    (m_bits, k_hashes, n_inserted, n_probed, n_fp, fp_ppm, fill_bits,
    fill_ppm). Hashes are the SQL-replayable 32-bit mixer salted by
    hash index (``_hrw_hash_vec``), so the oracle replays bit-for-bit.

    Scale shape: insertion is a map-side distinct-position fold
    (positions bounded by m, never by keys — the driver union is the
    filter itself, exactly what a real deployment broadcasts); probing
    is map-side against the broadcast sorted positions with per-batch
    partial counts. No shuffle."""
    import ray
    import ray.data as rd

    raw = _fx_raw_urls(sf_dir)

    def ins_positions(batch: pa.Table) -> pa.Table:
        k = batch["url_id"].to_numpy().astype(np.int64)
        k = k[k % 2 == 0]
        pos = np.unique(
            np.concatenate(
                [
                    _hrw_hash_vec(k, j) % BLOOM_M_BITS
                    for j in range(BLOOM_K)
                ]
            )
            if len(k)
            else np.array([], np.int64)
        )
        return pa.table({"pos": pa.array(pos, pa.int64())})

    ins = (
        rd.read_parquet(raw, columns=["url_id"])
        .map_batches(ins_positions, batch_format="pyarrow")
        .to_pandas()["pos"]  # m-bounded per batch
        .to_numpy()
    )
    bits = np.unique(ins)
    bits_ref = ray.put(bits)

    def probe_partial(batch: pa.Table) -> pa.Table:
        b = ray.get(bits_ref)
        k = batch["url_id"].to_numpy().astype(np.int64)
        k = k[k % 2 == 1]
        if len(k) == 0 or len(b) == 0:
            return pa.table(
                {
                    "n_probed": pa.array([len(k)], pa.int64()),
                    "n_fp": pa.array([0], pa.int64()),
                }
            )
        allset = np.ones(len(k), bool)
        for j in range(BLOOM_K):
            pos = _hrw_hash_vec(k, j) % BLOOM_M_BITS
            idx = np.searchsorted(b, pos)
            allset &= (idx < len(b)) & (b[np.minimum(idx, len(b) - 1)] == pos)
        return pa.table(
            {
                "n_probed": pa.array([len(k)], pa.int64()),
                "n_fp": pa.array([int(allset.sum())], pa.int64()),
            }
        )

    probes = (
        rd.read_parquet(raw, columns=["url_id"])
        .map_batches(probe_partial, batch_format="pyarrow")
        .to_pandas()  # n_batches-bounded partials
        .sum()
    )
    n_ins = (
        rd.read_parquet(raw, columns=["url_id"])
        .map_batches(
            lambda b: pa.table(
                {
                    "n": pa.array(
                        [int((b["url_id"].to_numpy() % 2 == 0).sum())],
                        pa.int64(),
                    )
                }
            ),
            batch_format="pyarrow",
        )
        .to_pandas()["n"]
        .sum()
    )
    n_probed, n_fp = int(probes["n_probed"]), int(probes["n_fp"])
    return pa.table(
        {
            "m_bits": pa.array([BLOOM_M_BITS], pa.int64()),
            "k_hashes": pa.array([BLOOM_K], pa.int64()),
            "n_inserted": pa.array([int(n_ins)], pa.int64()),
            "n_probed": pa.array([n_probed], pa.int64()),
            "n_fp": pa.array([n_fp], pa.int64()),
            "fp_ppm": pa.array(
                [(n_fp * 1_000_000) // n_probed if n_probed else 0], pa.int64()
            ),
            "fill_bits": pa.array([len(bits)], pa.int64()),
            "fill_ppm": pa.array(
                [(len(bits) * 1_000_000) // BLOOM_M_BITS], pa.int64()
            ),
        }
    )


def _bloom_fp_sql(raw: str) -> str:
    m, k = BLOOM_M_BITS, BLOOM_K
    mix = _hrw_mix_sql("u.url_id", "j.j")
    return (
        f"WITH u AS (SELECT url_id FROM read_parquet('{raw}')), "
        f"j AS (SELECT UNNEST(range({k})) AS j), "
        f"ins AS (SELECT DISTINCT {mix} % {m} AS pos "
        "FROM u CROSS JOIN j WHERE u.url_id % 2 = 0), "
        f"pr AS (SELECT u.url_id, {mix} % {m} AS pos "
        "FROM u CROSS JOIN j WHERE u.url_id % 2 = 1), "
        "hit AS (SELECT pr.url_id, COUNT(*) AS nset FROM pr "
        "JOIN ins ON ins.pos = pr.pos GROUP BY pr.url_id), "
        "agg AS (SELECT "
        "CAST((SELECT COUNT(*) FROM u WHERE url_id % 2 = 0) AS BIGINT) "
        "AS n_inserted, "
        "CAST((SELECT COUNT(*) FROM u WHERE url_id % 2 = 1) AS BIGINT) "
        "AS n_probed, "
        f"CAST((SELECT COUNT(*) FROM hit WHERE nset = {k}) AS BIGINT) "
        "AS n_fp, "
        "CAST((SELECT COUNT(*) FROM ins) AS BIGINT) AS fill_bits) "
        f"SELECT CAST({m} AS BIGINT) AS m_bits, CAST({k} AS BIGINT) "
        "AS k_hashes, n_inserted, n_probed, n_fp, "
        "CASE WHEN n_probed = 0 THEN 0 ELSE n_fp * 1000000 // n_probed END "
        "AS fp_ppm, fill_bits, "
        f"fill_bits * 1000000 // {m} AS fill_ppm FROM agg"
    )
