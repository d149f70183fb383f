"""Ray-Data-native crawl engine: the round loop (SURVEY.md §3.4, §7.1).

Each crawl round:
1. ``propose``/``commit`` against the sharded frontier actors (state/frontier)
   — global order (score desc, url asc) under per-host politeness quotas.
2. The selected rows become a per-round ``ray.data.Dataset``:
   from_arrow → expander (redirect expansion + routing; broadcast map) →
   [driver-side expanded-URL dedup against the owning shards — exact,
   order-sensitive within the round] → fetch_extract task stage (offline
   fetch join against a zero-copy broadcast Arrow page store +
   article/image extraction over Arrow batches) →
   enqueue_links (discovered URLs scored + routed + enqueued into shards
   from inside the stage — link volume never lands on the driver) →
   write_parquet (one directory per round → resumable output).
   All three stages are TASK-based (plain functions over broadcast
   ObjectRefs), not per-round actor pools: actor spawn latency every round
   dominated wall time and inverted scaling in the pool design.
3. Round R+1's control starts once every selected row of round R has
   cleared the enqueue stage — counted per round on shard 0
   (``ack_rows``/``acked_rows``), which each enqueue task acks after its
   shard enqueues return — while round R's embed/write tail still runs.
4. Shards checkpoint (pending + seen + manifest w/ lineage) every round; a
   killed run restores shard state and skips rounds whose output directory
   is already complete — no re-fetching.

Conformance: the trace (round, rank, url) and the final seen-set must equal
pipelines/oracle.CrawlOracle exactly (tests/test_crawl_trace.py).
"""

from __future__ import annotations

import functools
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..functions.scoring import webpage_score
from ..functions.urls import host_of, url_hash64, url_hash64_vec
from ..state.frontier import FrontierShard, build_salt_map, route, route_many
from ..state.politeness import RobotsCache
from ..stages.expand import make_expander
from ..stages.fetch import build_page_store, make_fetch_extract
from .config import CrawlConfig


import ray as _ray


@_ray.remote
def _expand_task(expander_fn, tbl_slice: pa.Table) -> pa.Table:
    return expander_fn(tbl_slice)


@_ray.remote(num_cpus=0)
class _MediaIdCollector:
    """One shard of the media-id collector pool: accumulates newly-embedded
    media ids pushed from the post-embed stage so the driver never re-reads
    the round's parquet output. Ids are routed by id-hash across the pool
    (a single global actor was one serialization point + one unbounded set
    at the north rule's scale); stages ray.get their add() futures, so
    every id is in its actor before the consuming pipeline completes."""

    def __init__(self):
        self.ids: set[str] = set()

    def add(self, ids: list[str]) -> None:
        self.ids.update(ids)

    def drain(self) -> list[str]:
        out = sorted(self.ids)
        self.ids = set()
        return out


@functools.lru_cache(maxsize=None)
def _shard_actor_class(cls):
    """``ray.remote`` wrapper of a shard class, built once per class: Ray
    exports (and disassembles, for its collision check) every new actor
    class it is handed, which cost each crawler ~0.14 s. Tiny num_cpus:
    shard actors are control-plane (RPC-driven python state); reserving
    real CPU slots starves map tasks on small nodes."""
    return _ray.remote(num_cpus=0.05)(cls)


def _route_media_ids(mids: list[str], collectors) -> list:
    """Push media ids to their hash-routed collector shards; returns the
    add() futures (caller awaits them with the batch's other futures)."""
    k = len(collectors)
    h = url_hash64_vec(mids) % np.uint64(k)
    futs = []
    for s in range(k):
        part = [m for m, hs in zip(mids, h) if int(hs) == s]
        if part:
            futs.append(collectors[s].add.remote(part))
    return futs


def make_enqueue_links(
    shards, meta_ref, salt_map, n_shards, now_ms, score_now_ms=None,
    counter=None, rnd=None,
):
    """Task-based map_batches sink-stage factory: discovered out_links are
    scored (universe metadata via broadcast zero-copy numpy lookup arrays),
    routed by (registered_domain, salt) and enqueued into the frontier shard
    actors directly from the worker — the driver never sees the link stream.
    Enqueue order across tasks is irrelevant: a URL's score derives from the
    URL alone, and the shard's first-wins dedup is order-insensitive for the
    final pending/seen state (oracle equivalence argument in
    pipelines/oracle.py)."""

    def enqueue_links(batch: pa.Table) -> pa.Table:
        import ray

        sorted_hashes, meta_shares, meta_dates = ray.get(meta_ref)
        futs = []
        links: list[str] = []
        for cell in batch["out_links"]:
            links.extend(cell.as_py() or [])
        if links:
            # de-dup within the batch (cheap pre-filter; shards dedup exactly)
            links = list(dict.fromkeys(links))
            h = url_hash64_vec(links)
            idx = np.searchsorted(sorted_hashes, h)
            idx_c = np.clip(idx, 0, max(0, len(sorted_hashes) - 1))
            found = (
                (sorted_hashes[idx_c] == h)
                if len(sorted_hashes)
                else np.zeros(len(links), bool)
            )
            # score clock stays FIXED (reproducible ordering); now_ms is the
            # advancing logical clock used only for seen-TTL bookkeeping
            sn = score_now_ms if score_now_ms is not None else now_ms
            shares = np.where(found, meta_shares[idx_c], 0).astype(np.int64)
            dates = np.where(found, meta_dates[idx_c], sn).astype(np.int64)
            scores = webpage_score(shares, dates, sn)
            hosts = [host_of(u) for u in links]
            shard_arr, salt_arr, _ = route_many(links, hosts, n_shards, salt_map)
            links_np = np.asarray(links, dtype=object)
            hosts_np = np.asarray(hosts, dtype=object)
            for s in np.unique(shard_arr):
                m = shard_arr == s
                rows = {
                    "url": links_np[m].tolist(),
                    "domain": hosts_np[m].tolist(),
                    "salt": salt_arr[m].tolist(),
                    "score": scores[m].tolist(),
                    "shares": shares[m].tolist(),
                    "date_ms": dates[m].tolist(),
                }
                futs.append(shards[int(s)].enqueue.remote(rows, now_ms))
        if futs:
            ray.get(futs)
        if counter is not None:
            # fired AFTER the acks above: actor ordering means acked_rows(rnd)
            # covering the round's rows implies all its enqueues completed
            counter.ack_rows.remote(rnd, batch.num_rows)
        return batch

    return enqueue_links


def make_media_collect(collectors):
    """Tail-stage factory: push each batch's embedded media ids (the
    post-gate ``media_image_ids`` column the embed stage appends) to the
    hash-routed collector shards. The per-batch ray.get makes every id
    durable in its actor before the round's write barrier returns."""

    def media_collect(batch: pa.Table) -> pa.Table:
        import ray

        if "media_image_ids" not in batch.column_names:
            return batch
        mids: set[str] = set()
        for cell in batch["media_image_ids"]:
            mids.update(cell.as_py() or [])
        if mids:
            ray.get(_route_media_ids(sorted(mids), collectors))
        return batch

    return media_collect


class RayCrawler:
    def __init__(
        self,
        fixture_dir: str,
        cfg: CrawlConfig,
        out_dir: str,
        checkpoint_dir: str | None = None,
        robots: RobotsCache | None = None,
    ):
        import ray

        self.cfg = cfg
        self.out_dir = out_dir
        self.checkpoint_dir = checkpoint_dir or os.path.join(out_dir, "checkpoints")
        os.makedirs(self.out_dir, exist_ok=True)
        os.makedirs(self.checkpoint_dir, exist_ok=True)

        self.seeds = pq.read_table(os.path.join(fixture_dir, "frontier_seed.parquet"))
        self.live = cfg.fetch_mode == "live"
        if not self.live:
            from ..stages.expand import build_redirect_store

            redirects = pq.read_table(os.path.join(fixture_dir, "redirects.parquet"))
            # zero-copy (hash index + Arrow strings) — per-task ray.get maps
            # plasma buffers; a pickled dict cost ~0.5 s per expand task
            self.redirect_store_ref = ray.put(
                build_redirect_store(
                    redirects["src"].to_pylist(), redirects["dst"].to_pylist()
                )
            )
        else:
            self.redirect_store_ref = None
        if cfg.embed_media:
            from ..stages.visual import build_image_store

            images = pq.read_table(
                os.path.join(fixture_dir, "images.parquet"),
                columns=["image_id", "bytes", "fmt"],
            )
            self.image_store_ref = ray.put(build_image_store(images))
        else:
            self.image_store_ref = None
        if not self.live:
            pages = pq.read_table(os.path.join(fixture_dir, "pages.parquet"))
            # offline page store (broadcast, zero-copy: sorted url-hash numpy
            # index + Arrow table). At 100 TB this becomes a hash-partitioned
            # Lance store + bucketed join — see stages/fetch.py.
            self.page_store_ref = ray.put(build_page_store(pages))
        else:
            self.page_store_ref = None
        uni_path = os.path.join(fixture_dir, "urls.parquet")
        if os.path.exists(uni_path):
            uni = pq.read_table(uni_path, columns=["url", "shares", "date"])
            h = url_hash64_vec(uni["url"].to_pylist())
            order = np.argsort(h, kind="stable")
            self.meta_ref = ray.put(
                (
                    h[order],
                    uni["shares"].to_numpy()[order].astype(np.int64),
                    uni["date"].cast(pa.int64()).to_numpy()[order],
                )
            )
        else:
            # live crawl of an unknown universe: discovered links score with
            # shares=0 and date=score clock
            self.meta_ref = ray.put(
                (
                    np.empty(0, dtype=np.uint64),
                    np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.int64),
                )
            )
        if robots is None:
            if self.live:
                from ..stages.live import fetch_robots

                hosts = list(dict.fromkeys(self.seeds["domain"].to_pylist()))
                scheme = "http"
                if len(self.seeds) and str(
                    self.seeds["url"][0].as_py()
                ).startswith("https:"):
                    scheme = "https"
                robots = fetch_robots(
                    hosts, scheme=scheme, timeout=cfg.live_expand_timeout_s
                )
            else:
                rob = pq.read_table(os.path.join(fixture_dir, "robots.parquet"))
                robots = RobotsCache.from_table(
                    rob["host"].to_pylist(), rob["disallow_prefix"].to_pylist()
                )
        counts: dict[str, int] = {}
        for d in self.seeds["domain"].to_pylist():
            counts[d] = counts.get(d, 0) + 1
        self.salt_map = build_salt_map(counts, cfg.hot_threshold, cfg.max_salts)

        # the module global is read here, so a FrontierShard subclass
        # swapped in before construction is the one the shards run
        Actor = _shard_actor_class(FrontierShard)
        self.shards = [
            Actor.remote(
                i,
                cfg.n_shards,
                salt_map=self.salt_map,
                per_host_budget=cfg.per_host_budget,
                seen_ttl_ms=cfg.seen_ttl_ms,
                robots=robots,
                round_duration_ms=cfg.round_duration_ms,
            )
            for i in range(cfg.n_shards)
        ]
        # trace rows stream to out_dir/trace/round_NNNNNN.parquet (one tiny
        # file per round, written at commit time) — the driver holds at most
        # one round's rows; the manifest carries only counters + next_round
        self.trace_dir = os.path.join(out_dir, "trace")
        os.makedirs(self.trace_dir, exist_ok=True)
        self.start_round = 0
        # media-seen gate state (cfg.media_dedup): sorted uint64 id-hashes
        # of media embedded in completed rounds, accumulated in-stage via a
        # collector actor (never re-read from the round output)
        self.media_seen = np.empty(0, dtype=np.uint64)
        self.media_collectors = (
            [_MediaIdCollector.remote() for _ in range(min(4, cfg.n_shards))]
            if (cfg.media_dedup and self.image_store_ref is not None)
            else None
        )
        # shard 0 counts the rows that have COMPLETED the enqueue stage, per
        # round (ack_rows/acked_rows): the overlapped round loop's control
        # barrier, instead of a full pipeline materialize() that would also
        # wait for the embed/write tail. A retried task can only over-count
        # (its first attempt already acked the enqueues), so the waiter
        # compares with >=.
        self.enq_counter = self.shards[0]
        # cumulative wall-time per phase. control = propose/commit/merge/
        # expand/dedup barriers (main thread); pipeline = full fused
        # fetch→enqueue→embed→write wall per round (background thread, so
        # control+pipeline can exceed the crawl's wall time under overlap);
        # enqueue_wait = main thread blocked on the enqueue barrier;
        # tail = main thread blocked joining the previous round's write.
        self.phase_times = {
            "control": 0.0, "pipeline": 0.0, "tail": 0.0, "enqueue_wait": 0.0
        }

    # -- seed / resume ----------------------------------------------------
    def _manifest_path(self) -> str:
        return os.path.join(self.checkpoint_dir, "crawl_manifest.json")

    def maybe_resume(self) -> bool:
        """Restore shard state + completed-round count from the checkpoint.
        Returns True when resuming (seeds must NOT be re-enqueued)."""
        import ray

        mp = self._manifest_path()
        if not os.path.exists(mp):
            return False
        with open(mp) as f:
            m = json.load(f)
        ok = ray.get(
            [
                s.restore.remote(self.checkpoint_dir, m["next_round"])
                for s in self.shards
            ]
        )
        if not all(ok):
            return False
        self.start_round = m["next_round"]
        ms_path = os.path.join(self.checkpoint_dir, "media_seen.npy")
        if os.path.exists(ms_path):
            self.media_seen = np.load(ms_path)
        return True

    def enqueue_seeds(self) -> None:
        import ray

        urls = self.seeds["url"].to_pylist()
        domains = self.seeds["domain"].to_pylist()
        shares = self.seeds["shares"].to_numpy().astype(np.int64)
        dates = self.seeds["date"].cast(pa.int64()).to_numpy()
        scores = webpage_score(shares, dates, self.cfg.now_ms)
        shard_arr, salt_arr, _ = route_many(
            urls, domains, self.cfg.n_shards, self.salt_map
        )
        urls_np = np.asarray(urls, dtype=object)
        domains_np = np.asarray(domains, dtype=object)
        futs = []
        for s in np.unique(shard_arr):
            m = shard_arr == s
            rows = {
                "url": urls_np[m].tolist(),
                "domain": domains_np[m].tolist(),
                "salt": salt_arr[m].tolist(),
                "score": scores[m].tolist(),
                "shares": shares[m].tolist(),
                "date_ms": dates[m].tolist(),
            }
            futs.append(self.shards[int(s)].enqueue.remote(rows, self.cfg.now_ms))
        ray.get(futs)

    # -- one round --------------------------------------------------------
    def _round_control(self, rnd: int):
        """The round's control plane: propose/commit against the frontier
        shards, trace write, redirect expansion + order-sensitive dedup.
        Returns ``(n_sel, tbl2)`` where tbl2 is the selected-and-expanded
        Arrow table the data plane consumes. Touches ONLY shard state +
        driver-local state — never media_seen — so it may overlap the
        previous round's embed/write tail."""
        import time as _time

        import ray

        cfg = self.cfg
        now = cfg.now_ms + rnd * cfg.round_duration_ms  # logical clock
        _t0 = _time.time()
        # columnar propose → one Arrow table straight from shard columns (no
        # per-row Python tuples anywhere on the driver)
        proposals = ray.get([s.propose.remote(cfg.round_budget) for s in self.shards])
        merged_tbl = pa.table(
            {
                "score": pa.array(
                    [s for p in proposals for s in p["score"]], pa.float64()
                ),
                "url": pa.array(
                    [u for p in proposals for u in p["url"]], pa.string()
                ),
                "shard": pa.array(
                    np.repeat(
                        np.arange(len(proposals), dtype=np.int32),
                        [len(p["url"]) for p in proposals],
                    ),
                    pa.int32(),
                ),
            }
        ).sort_by([("score", "descending"), ("url", "ascending")])
        merged_tbl = merged_tbl.slice(0, cfg.round_budget)
        n_sel = len(merged_tbl)
        if n_sel == 0:
            return 0, None
        sel_urls = merged_tbl["url"].to_pylist()
        sel_scores = merged_tbl["score"].to_numpy()
        sel_shard = merged_tbl["shard"].to_numpy()
        # commit per shard in global-rank order; committed columns come back
        # in that same order, so scatter them into rank positions vectorized.
        # EVERY shard that proposed must receive commit() — a shard whose
        # proposals were all cut by the global round_budget slice still has
        # rows parked in _proposed; an empty commit returns them to its
        # queues (ADVICE r2, high).
        shard_positions = {
            si: np.nonzero(sel_shard == si)[0]
            for si in range(len(proposals))
            if proposals[si]["url"]
        }
        committed = ray.get(
            [
                self.shards[si].commit.remote(
                    [sel_urls[i] for i in pos], now
                )
                for si, pos in shard_positions.items()
            ]
        )
        hosts_arr = np.empty(n_sel, dtype=object)
        shares_arr = np.zeros(n_sel, dtype=np.int64)
        dates_arr = np.zeros(n_sel, dtype=np.int64)
        for (si, pos), cols in zip(shard_positions.items(), committed):
            hosts_arr[pos] = np.asarray(cols["domain"], dtype=object)
            shares_arr[pos] = np.asarray(cols["shares"], dtype=np.int64)
            dates_arr[pos] = np.asarray(cols["date_ms"], dtype=np.int64)
        self._write_trace(rnd, sel_urls)

        tbl = pa.table(
            {
                "round": pa.array(np.full(n_sel, rnd, np.int32), pa.int32()),
                "rank": pa.array(np.arange(n_sel, dtype=np.int32), pa.int32()),
                "url": merged_tbl["url"],
                "host": pa.array(hosts_arr, pa.string()),
                "score": merged_tbl["score"],
                "shares": pa.array(shares_arr, pa.int64()),
                "date_ms": pa.array(dates_arr, pa.int64()),
            }
        )

        # expansion — raw Ray tasks over table slices, NOT a Dataset: this is
        # a budget-row control-plane stage sandwiched between two driver
        # barriers (the order-sensitive dedup below), and a per-round Dataset
        # executor spin-up (~0.5 s) dominated the stage's actual work
        # (SURVEY §2 note: raw tasks only where the Dataset API genuinely
        # doesn't fit — this barrier is that case).
        # slice count scales with the session's fetch concurrency (round-0
        # control is the one control phase nothing overlaps, so its wall
        # time is paid in full at the high-CPU point)
        n_slices = max(1, min(max(8, cfg.fetch_concurrency), len(tbl) // 4096))
        if self.live:
            from ..stages.live import make_live_expander

            expander_fn = make_live_expander(timeout=cfg.live_expand_timeout_s)
        else:
            expander_fn = make_expander(self.redirect_store_ref)
        slice_refs = [
            _expand_task.remote(expander_fn, tbl.slice(i * len(tbl) // n_slices,
                                                       (i + 1) * len(tbl) // n_slices - i * len(tbl) // n_slices))
            for i in range(n_slices)
        ]
        # slices are rank-ordered and expanders preserve row order, so the
        # concat is already rank-ascending — no sort, no pandas
        exp = pa.concat_tables(ray.get(slice_refs)).select(
            ["rank", "url", "expanded_url", "expanded_host", "route", "status"]
        )

        # exact order-sensitive dedup of expanded targets (within-round,
        # against shard seen-state), fully vectorized: first occurrence of
        # each changed target wins; anything the shards have seen is a dup.
        status_np = np.asarray(exp["status"].to_pylist(), dtype=object)
        url_np = np.asarray(exp["url"].to_pylist(), dtype=object)
        eurl_np = np.asarray(exp["expanded_url"].to_pylist(), dtype=object)
        changed_idx = np.nonzero((status_np == "ok") & (eurl_np != url_np))[0]
        if len(changed_idx):
            ce = eurl_np[changed_idx]  # rank order
            ce_hosts = [host_of(u) for u in ce]
            ce_shard, _, _ = route_many(ce.tolist(), ce_hosts, cfg.n_shards, self.salt_map)
            seen = np.zeros(len(ce), dtype=bool)
            shard_sel = {
                int(s): np.nonzero(ce_shard == s)[0] for s in np.unique(ce_shard)
            }
            flags = ray.get(
                [
                    self.shards[s].contains_urls.remote(ce[pos].tolist(), now)
                    for s, pos in shard_sel.items()
                ]
            )
            for (s, pos), fl in zip(shard_sel.items(), flags):
                seen[pos] = np.asarray(fl, dtype=bool)
            # first occurrence (in rank order) of each target within the round
            _, first_idx, inv = np.unique(ce, return_index=True, return_inverse=True)
            is_first = np.arange(len(ce)) == first_idx[inv]
            # a later occurrence is a dup even when the first was fresh; any
            # occurrence of a shard-seen target is a dup
            target_seen = seen[first_idx][inv]  # seen flag is per-target
            dup = target_seen | ~is_first
            status_np[changed_idx[dup]] = "dup_after_expand"
            fresh = is_first & ~target_seen
            if fresh.any():
                mark_sel = {
                    int(s): np.nonzero((ce_shard == s) & fresh)[0]
                    for s in np.unique(ce_shard[fresh])
                }
                ray.get(
                    [
                        self.shards[s].mark_seen.remote(ce[pos].tolist(), now)
                        for s, pos in mark_sel.items()
                    ]
                )
            exp = exp.set_column(
                exp.schema.get_field_index("status"),
                "status",
                pa.array(status_np, pa.string()),
            )

        # exp is rank-aligned with tbl — append the metadata columns directly
        tbl2 = exp
        for col in ["host", "score", "shares", "date_ms", "round"]:
            tbl2 = tbl2.append_column(col, tbl[col])

        self.phase_times["control"] += _time.time() - _t0
        return n_sel, tbl2

    def _build_pipeline(self, rnd: int, tbl2: pa.Table):
        """Construct the round's FUSED lazy dataset: fetch/extract →
        enqueue discovered links (+ ack to shard 0) → embed →
        media-collect. One streaming pipeline per round keeps fetch∥embed
        overlapped WITHIN the round (splitting them with a materialize()
        barrier cost ~15% at 32 CPUs); the enqueue acks give the round
        loop its control barrier without waiting for the embed tail.
        Must be called AFTER the previous round's tail is joined — the
        embed stage snapshots media_seen at construction time."""
        import ray
        import ray.data as rd

        cfg = self.cfg
        now = cfg.now_ms + rnd * cfg.round_duration_ms
        # from_arrow yields ONE block — split it so the fetch stage fans out
        # (tasks are per block; batch_size alone does not create parallelism)
        n_blocks = max(
            1,
            min(
                -(-len(tbl2) // cfg.fetch_batch_size),  # ceil
                cfg.fetch_concurrency * 4,
            ),
        )
        if self.live:
            from ..stages.live import make_live_fetch_extract

            fetch_stage = make_live_fetch_extract(timeout=cfg.live_fetch_timeout_s)
        else:
            fetch_stage = make_fetch_extract(self.page_store_ref)
        rra = {"num_cpus": cfg.map_task_num_cpus}
        ds2 = (
            rd.from_arrow(tbl2, override_num_blocks=n_blocks)
            .map_batches(
                fetch_stage,
                batch_format="pyarrow",
                batch_size=cfg.fetch_batch_size,
                **rra,
            )
            .map_batches(
                make_enqueue_links(
                    self.shards, self.meta_ref, self.salt_map, cfg.n_shards, now,
                    score_now_ms=cfg.now_ms,
                    counter=self.enq_counter, rnd=rnd,
                ),
                batch_format="pyarrow",
                batch_size=cfg.fetch_batch_size,
                **rra,
            )
        )
        if self.image_store_ref is not None:
            from ..stages.visual import make_media_embed

            seen_ref = ray.put(self.media_seen) if cfg.media_dedup else None
            ds2 = ds2.map_batches(
                make_media_embed(
                    self.image_store_ref,
                    media_seen_ref=seen_ref,
                    use_cache=cfg.embed_cache,
                ),
                batch_format="pyarrow",
                batch_size=cfg.fetch_batch_size,
                **rra,
            )
            if self.media_collectors is not None:
                ds2 = ds2.map_batches(
                    make_media_collect(self.media_collectors),
                    batch_format="pyarrow",
                    batch_size=cfg.fetch_batch_size,
                    **rra,
                )
        return ds2

    def _write_round(self, rnd: int, ds2) -> None:
        """Drive the round's fused pipeline to its parquet output (the
        write IS the executor — everything upstream streams through it).
        Runs on the overlap thread in run(); touches no crawler state
        except the pipeline phase timer."""
        import time as _time

        _t0 = _time.time()
        round_dir = os.path.join(self.out_dir, f"round={rnd}")
        tmp_dir = round_dir + ".tmp"
        if os.path.exists(tmp_dir):
            import shutil

            shutil.rmtree(tmp_dir)
        ds2.write_parquet(tmp_dir)
        if os.path.exists(round_dir):
            # resume replay: a crash between this rename and the manifest
            # advance in _tail_join leaves a completed round=R directory
            # while the manifest still names R — the rerun regenerates
            # identical output, so the stale directory is safe to drop
            # (without this the rename below raises ENOTEMPTY)
            import shutil

            shutil.rmtree(round_dir, ignore_errors=True)
        os.rename(tmp_dir, round_dir)
        self.phase_times["pipeline"] += _time.time() - _t0

    def _wait_enqueue(self, rnd: int, n_sel: int, fut=None) -> None:
        """Block until every selected row has cleared the enqueue stage —
        the point after which round rnd+1's propose() sees all of round
        rnd's discovered links. >= because a retried enqueue task re-counts.

        ``fut`` is the round's background write future: if the fused
        pipeline dies (task retries exhausted, live-fetch exception,
        OOM-killed executor) the acked-row count never reaches n_sel, so
        without checking it this loop would spin forever while the
        exception sat in the future until _tail_join — re-raise instead."""
        import time as _time

        import ray

        _t0 = _time.time()
        while ray.get(self.enq_counter.acked_rows.remote(rnd)) < n_sel:
            if fut is not None and fut.done():
                exc = fut.exception()
                if exc is not None:
                    raise exc
                # future finished cleanly → the write barrier implies the
                # enqueue stage completed; loop once more to observe it
                fut = None
            _time.sleep(0.02)
        self.phase_times["enqueue_wait"] += _time.time() - _t0

    def _tail_join(self, rnd: int, fut=None, finalize_ckpt_round: int | None = None) -> None:
        """Complete round ``rnd``: wait for its write barrier, fold the
        media collectors into media_seen, and (when asked) advance the
        checkpoint manifest — the commit point a resume trusts — now that
        the round's output and media state are durable. Runs on the MAIN
        thread so all crawler state mutation stays single-threaded."""
        import time as _time

        import ray

        _t0 = _time.time()
        if fut is not None:
            fut.result()
        if self.media_collectors is not None:
            # ids were pushed (and awaited) inside the collect stage, so the
            # collector shards are complete once the write barrier above
            # returns — no re-read of the round's parquet output
            parts = ray.get([c.drain.remote() for c in self.media_collectors])
            new_ids = [i for part in parts for i in part]
            if new_ids:
                h = url_hash64_vec(new_ids)
                self.media_seen = np.unique(
                    np.concatenate([self.media_seen, h])
                )
        if finalize_ckpt_round is not None:
            self._finalize_checkpoint(finalize_ckpt_round)
        self.phase_times["tail"] += _time.time() - _t0

    def run_round(self, rnd: int) -> int:
        """One full crawl round, synchronously (control → fused
        fetch/enqueue/embed/write → media fold). run() instead overlaps
        rounds; this path exists for manual round driving (tests, oracles)
        and produces identical state."""
        n_sel, tbl2 = self._round_control(rnd)
        if n_sel:
            self._write_round(rnd, self._build_pipeline(rnd, tbl2))
            self._tail_join(rnd)
        return n_sel

    # -- full crawl -------------------------------------------------------
    def run(self, checkpoint_every: int = 1) -> dict:
        """The overlapped round loop. Per round R the data plane runs as
        ONE fused streaming dataset (fetch→enqueue→embed→write) driven by a
        background thread; the main thread only needs the ENQUEUE stage
        complete (shard 0's ack count) before starting round R+1's control.
        Dependency structure:

        - control(R+1) needs enqueue(R)   → _wait_enqueue is the barrier
        - pipeline(R+1) needs media_seen(R) → _tail_join(R) runs before
          _build_pipeline(R+1), so writes serialize and the media-seen
          gate consumes strictly-earlier-round state
        - write tail(R) touches NO shard state → it overlaps control(R+1)

        Checkpointing under overlap: shard state for "start of round R+1"
        is snapshotted right after the enqueue barrier (before control(R+1)
        can mutate it) into a VERSIONED per-shard directory; the manifest
        advances in _tail_join(R), once round R's output and media state
        are durable."""
        from concurrent.futures import ThreadPoolExecutor

        import ray

        resumed = self.maybe_resume()
        if not resumed:
            self.enqueue_seeds()
        tail_ctx = None  # (rnd, fut, finalize_ckpt_round)
        with ThreadPoolExecutor(max_workers=1) as pool:
            for rnd in range(self.start_round, self.cfg.max_rounds):
                n, tbl2 = self._round_control(rnd)  # overlaps prev write tail
                do_ckpt = bool(checkpoint_every) and (rnd % checkpoint_every == 0)
                if tail_ctx is not None:
                    self._tail_join(*tail_ctx)
                    tail_ctx = None
                if n == 0:
                    ray.get([s.end_round.remote(rnd) for s in self.shards])
                    if do_ckpt:
                        self._checkpoint_shards(rnd + 1)
                        self._finalize_checkpoint(rnd + 1)
                    break
                ds2 = self._build_pipeline(rnd, tbl2)
                fut = pool.submit(self._write_round, rnd, ds2)
                self._wait_enqueue(rnd, n, fut=fut)
                ray.get([s.end_round.remote(rnd) for s in self.shards])
                if do_ckpt:
                    self._checkpoint_shards(rnd + 1)
                tail_ctx = (rnd, fut, rnd + 1 if do_ckpt else None)
            if tail_ctx is not None:
                self._tail_join(*tail_ctx)
        return self.result()

    def _checkpoint_shards(self, tag: int) -> None:
        import ray

        ray.get(
            [s.checkpoint.remote(self.checkpoint_dir, tag) for s in self.shards]
        )

    def _finalize_checkpoint(self, next_round: int) -> None:
        ms_path = os.path.join(self.checkpoint_dir, "media_seen.npy")
        np.save(ms_path + ".tmp.npy", self.media_seen)
        os.replace(ms_path + ".tmp.npy", ms_path)
        with open(self._manifest_path() + ".tmp", "w") as f:
            json.dump({"next_round": next_round}, f)
        os.replace(self._manifest_path() + ".tmp", self._manifest_path())

    def checkpoint(self, next_round: int) -> None:
        """Synchronous full checkpoint (manual round-driving path)."""
        self._checkpoint_shards(next_round)
        self._finalize_checkpoint(next_round)

    def _write_trace(self, rnd: int, sel_urls: list[str]) -> None:
        n = len(sel_urls)
        t = pa.table(
            {
                "round": pa.array(np.full(n, rnd, np.int32), pa.int32()),
                "rank": pa.array(np.arange(n, dtype=np.int32), pa.int32()),
                "url": pa.array(sel_urls, pa.string()),
            }
        )
        path = os.path.join(self.trace_dir, f"round_{rnd:06d}.parquet")
        pq.write_table(t, path + ".tmp")
        os.replace(path + ".tmp", path)

    def trace_dataset(self):
        """The full crawl trace as a streaming ray Dataset (round, rank,
        url) — the scale-safe consumer; ``result()['trace']`` materializes
        it as a Python list for tests/diagnostics."""
        import ray.data as rd

        return rd.read_parquet(self.trace_dir)

    def _read_trace(self) -> list[tuple[int, int, str]]:
        files = sorted(
            f for f in os.listdir(self.trace_dir) if f.endswith(".parquet")
        )
        rows: list[tuple[int, int, str]] = []
        for f in files:
            t = pq.read_table(os.path.join(self.trace_dir, f))
            rows.extend(
                zip(
                    t["round"].to_pylist(),
                    t["rank"].to_pylist(),
                    t["url"].to_pylist(),
                )
            )
        return rows

    def result(self) -> dict:
        """Final state summary. ``trace`` is materialized from the per-round
        trace parquet (O(total crawled) on the driver — a test/diagnostic
        convenience; at-scale consumers stream :meth:`trace_dataset`)."""
        import ray

        seen_parts = ray.get([s.seen_hashes.remote() for s in self.shards])
        seen = np.sort(np.concatenate(seen_parts)) if seen_parts else np.array([], np.uint64)
        stats = ray.get([s.stats.remote() for s in self.shards])
        return {"trace": self._read_trace(), "seen_hashes": seen, "shard_stats": stats}

    def shutdown(self) -> None:
        import ray

        for s in self.shards:
            ray.kill(s)
        if self.media_collectors is not None:
            for c in self.media_collectors:
                ray.kill(c)
