"""Sharded URL frontier: seen-set + priority scheduling + politeness +
per-partition checkpoints.

This is the from-scratch north-rule core (SURVEY.md §7.1 step 3). The
reference's counterparts are: a Redis-hash exact seen-set
(bolts/media/StatusCheckBolt.java:59-68), an in-memory PriorityQueue drained
best-first (bolts/webpages/RankerBolt.java:44-53,94-126), a per-route
connection cap of 10 (bolts/FetcherBolt.java:85) and Mongo "status=injected"
claims (spouts/MongoDbSpout.java:92-95). Here those become:

- partitioning: a URL belongs to shard ``hash(domain '#' salt) % n_shards``
  where ``salt = url_hash64(url) % n_salts(domain)``. The salt map is an
  explicit, static skew-splitting config: hot registered domains are split
  over several shards, each owning an exact share of the host's politeness
  budget (state/politeness.py:salt_quota) so the per-host cap is preserved.
- seen-set: the partition-exact ledger (url_hash64 → seen_at_ms) gives the
  EXACT final seen-set the north rule demands; a per-shard CuckooFilter
  holding every ledger key is the O(1) gate in front of it. A gate miss
  skips the ledger, a gate hit is verified in it, so cuckoo false positives
  are behaviorally invisible. When the table refuses a key it doubles and
  is refilled from the ledger, so the gate never misses a seen URL;
  ``seen_capacity`` is only its starting size. 24 h TTL recrawl semantics
  follow utils/CrawlDecider.java:14,23-27.
- scheduling: per (domain,salt) min-heaps; a round ``propose(budget)``
  drains each host's top quota, merges, and the driver takes the global top
  ``budget`` under the crawl order (score desc, url asc). Deterministic and
  provably equal to single-threaded greedy selection under the same quotas
  (tested against pipelines/oracle.py).
- checkpoint: per-shard directory with pending.npz / seen.npz (compressed
  numpy; strings as one UTF-8 blob + int64 offsets) + manifest.json (round
  id, counters, lineage), written atomically (tmp + rename) so a killed job
  resumes at the last round without re-fetching. Nothing on the shard's
  path touches pyarrow: its first ``pa.array``/parquet call imports pandas
  (~0.45 s), which every freshly spawned shard would pay.

The shard core is a plain Python class; the crawl runs it as a Ray actor
(pipelines/crawl.py). The oracle and unit tests drive the core directly.
"""

from __future__ import annotations

import heapq
import json
import os
import shutil

import numpy as np

from ..functions.hashing import mix64
from ..functions.urls import url_hash64, url_hash64_vec, utf8_blob, utf8_unblob
from .cuckoo import CuckooFilter
from .politeness import DEFAULT_PER_HOST_BUDGET, RobotsCache, salt_quota


def n_salts_for(host: str, salt_map: dict[str, int]) -> int:
    return salt_map.get(host, 1)


def salt_of(url_hash: int, n_salts: int) -> int:
    return int(url_hash % n_salts) if n_salts > 1 else 0


def shard_of(domain: str, salt: int, n_shards: int) -> int:
    key = f"{domain}#{salt}".encode("utf-8")
    h = 0xCBF29CE484222325
    for b in key:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return int(mix64(np.array([h], dtype=np.uint64))[0] % np.uint64(n_shards))


def route(url: str, host: str, n_shards: int, salt_map: dict[str, int]) -> tuple[int, int]:
    """(shard, salt) for a URL: politeness/salting keyed by HOST, shard
    placement keyed by the registered domain (north-rule partitioning) so all
    politeness state for a registered domain co-locates, while hot single
    hosts can still split across shards via salts."""
    from ..functions.urls import registered_domain

    ns = n_salts_for(host, salt_map)
    s = salt_of(url_hash64(url), ns)
    return shard_of(registered_domain(host), s, n_shards), s


def route_many(
    urls: list[str], hosts: list[str], n_shards: int, salt_map: dict[str, int]
):
    """Vectorized :func:`route` over equal-length url/host lists. Returns
    (shard int32 array, salt int32 array, url-hash uint64 array). Hosts
    repeat heavily, so registered-domain and shard placement are memoized
    per host / (domain, salt) — the per-byte FNV in shard_of runs once per
    distinct key, not once per URL."""
    from ..functions.urls import registered_domain

    h = url_hash64_vec(urls)
    hosts_np = np.asarray(hosts, dtype=object)
    uniq_hosts, inv = np.unique(hosts_np, return_inverse=True)
    ns_u = np.array([salt_map.get(x, 1) for x in uniq_hosts], np.int64)
    rd_u = [registered_domain(x) for x in uniq_hosts]
    max_ns = int(ns_u.max()) if len(ns_u) else 1
    ns_per = ns_u[inv]
    salt = np.where(
        ns_per > 1, (h % ns_per.astype(np.uint64)).astype(np.int64), 0
    ).astype(np.int32)
    # shard per unique (host, salt) combination, mapped back vectorized
    combo = inv.astype(np.int64) * (max_ns + 1) + salt
    uniq_combo, cinv = np.unique(combo, return_inverse=True)
    shard_u = np.array(
        [
            shard_of(rd_u[int(c // (max_ns + 1))], int(c % (max_ns + 1)), n_shards)
            for c in uniq_combo
        ],
        np.int32,
    )
    return shard_u[cinv], salt, h


def build_salt_map(
    domain_counts: dict[str, int], hot_threshold: int, max_salts: int = 8
) -> dict[str, int]:
    """Static skew-splitting config: a domain whose (seed) URL count exceeds
    ``hot_threshold`` is split into min(max_salts, count//hot_threshold + 1)
    sub-queues. Computed once from the seed distribution so routing stays
    stable for the whole crawl (dynamic re-salting would move pending URLs
    between shards mid-crawl and break first-wins determinism)."""
    out = {}
    for d, c in domain_counts.items():
        if c > hot_threshold:
            out[d] = min(max_salts, c // hot_threshold + 1)
    return out


class FrontierShard:
    """One frontier partition. Owns every (domain, salt) pair that routes to
    it; all state is local; checkpoints are self-contained."""

    def __init__(
        self,
        shard_id: int,
        n_shards: int,
        salt_map: dict[str, int] | None = None,
        per_host_budget: int = DEFAULT_PER_HOST_BUDGET,
        seen_ttl_ms: int | None = None,
        seen_capacity: int = 1 << 17,
        robots: RobotsCache | None = None,
        round_duration_ms: int = 0,
    ):
        self.shard_id = shard_id
        self.n_shards = n_shards
        self.salt_map = dict(salt_map or {})
        self.per_host_budget = per_host_budget
        self.round_duration_ms = round_duration_ms
        self.seen_ttl_ms = seen_ttl_ms
        self.seen_capacity = seen_capacity
        self.robots = robots or RobotsCache()
        # (domain, salt) -> heap of (-score, url, payload); payload is the
        # (shares, date_ms) tuple
        self.queues: dict[tuple[str, int], list] = {}
        # url -> payload object of the URL's one LIVE heap entry. A
        # cancelled URL keeps a stale entry in its heap (lazy deletion);
        # if it is enqueued again, the new entry gets a new payload, so
        # an identity check tells the two apart in O(1) at pop time.
        self._live: dict[str, tuple] = {}
        self.cuckoo = CuckooFilter(seen_capacity)
        self.seen: dict[int, int] = {}  # url_hash -> seen_at_ms (exact ledger)
        self._proposed: dict[str, tuple[tuple[str, int], float, dict]] = {}
        self.counters = {
            "enqueued": 0,
            "dup_pending": 0,
            "dup_seen": 0,
            "robots_denied": 0,
            "scheduled": 0,
            "deferred": 0,
        }
        self.round = 0
        self.lineage: list[dict] = []
        self._acked: dict[int, int] = {}  # round -> rows acked (ack_rows)

    # -- enqueue ----------------------------------------------------------
    def enqueue(self, rows: dict, now_ms: int = 0) -> dict:
        """Add candidate URLs. ``rows`` is a dict of equal-length lists/arrays
        with keys url, domain, salt, score (+ optional passthrough columns
        shares, date_ms, ref). Dedup: pending-skip and seen-skip (first
        occurrence wins); robots checked here. Returns counter deltas.

        Hot-path shape: one vectorized hash + cuckoo pass, one bulk robots
        pass (hosts without rules skip URL parsing entirely), minimal
        per-row work in the survivor loop, then BULK heap builds per
        (domain, salt) key (extend + heapify — O(n+k) C-level — instead of
        k × heappush)."""
        urls = rows["url"]
        n = len(urls)
        if n == 0:
            return {"added": 0}
        domains = rows["domain"]
        salts = rows.get("salt") or [0] * n
        scores = rows["score"]
        shares = rows.get("shares") or [0] * n
        dates = rows.get("date_ms") or [0] * n
        hashes = url_hash64_vec(urls)
        hl = hashes.tolist()
        cuckoo_hits = self.cuckoo.contains_many(hashes)
        allowed = self.robots.allowed_many(urls, domains)
        live = self._live
        is_seen = self._is_seen
        dup_p = dup_s = denied = 0
        by_key: dict[tuple[str, int], list] = {}
        for i in range(n):
            h = hl[i]
            u = urls[i]
            if u in live:
                dup_p += 1
                continue
            if cuckoo_hits[i] and is_seen(h, now_ms):
                dup_s += 1
                continue
            if not allowed[i]:
                denied += 1
                continue
            payload = (int(shares[i]), int(dates[i]))
            by_key.setdefault((domains[i], int(salts[i])), []).append(
                (-float(scores[i]), u, payload)
            )
            live[u] = payload
        added = 0
        for key, items in by_key.items():
            added += len(items)
            q = self.queues.get(key)
            if q is None:
                heapq.heapify(items)
                self.queues[key] = items
            elif len(items) > 4:
                q.extend(items)
                heapq.heapify(q)
            else:
                for it in items:
                    heapq.heappush(q, it)
        self.counters["dup_pending"] += dup_p
        self.counters["dup_seen"] += dup_s
        self.counters["robots_denied"] += denied
        self.counters["enqueued"] += added
        return {"added": added}

    @property
    def pending_hashes(self) -> set[int]:
        """url_hash64 of every URL with a live pending entry."""
        return set(url_hash64_vec(list(self._live)).tolist())

    def _is_seen(self, h: int, now_ms: int) -> bool:
        at = self.seen.get(h)
        if at is None:
            return False  # cuckoo false positive — ledger is authoritative
        if self.seen_ttl_ms is not None and now_ms - at >= self.seen_ttl_ms:
            return False  # expired → eligible for recrawl (CrawlDecider.java:23-27)
        return True

    def contains_urls(self, urls: list[str], now_ms: int = 0) -> list[bool]:
        """Exact seen-membership for a URL list (cuckoo gate + ledger verify)."""
        if not urls:
            return []
        hashes = url_hash64_vec(urls)
        gate = self.cuckoo.contains_many(hashes)
        return [
            bool(g) and self._is_seen(int(h), now_ms) for g, h in zip(gate, hashes)
        ]

    def _gate(self, new: list[int]) -> None:
        """Add hashes that just entered the ledger to the cuckoo gate. When
        the table refuses one, the gate is rebuilt from the ledger, which
        already holds every hash of ``new``, at twice the capacity."""
        add = self.cuckoo.add
        for h in new:
            if not add(h):
                self.cuckoo = CuckooFilter.holding(self.seen, 2 * self.cuckoo.capacity)
                return

    def mark_seen(self, urls: list[str], now_ms: int = 0) -> None:
        """Directly mark URLs seen (redirect-expanded targets). Cancels the
        URL if it is pending (lazy deletion — stale heap entries are skipped
        at propose time) so first-wins holds across redirect aliases."""
        seen = self.seen
        new = []
        for u in urls:
            h = url_hash64(u)
            if h not in seen:
                new.append(h)
            seen[h] = now_ms
            self._live.pop(u, None)
        self._gate(new)

    # -- round protocol ---------------------------------------------------
    def propose(self, budget: int) -> dict:
        """Pop this shard's best candidates subject to per-(domain,salt)
        quotas; at most ``budget`` rows. Returns COLUMNS (score/url/domain/
        salt equal-length lists) sorted by (score desc, url asc) — columnar
        so the driver merge builds its Arrow table without touching one
        Python tuple per row. Popped rows are parked in ``_proposed`` until
        commit()."""
        assert not self._proposed, "propose() called twice without commit()"
        from .politeness import effective_host_budget

        cands: list[tuple[float, str, str, int]] = []
        for (domain, salt), heap in self.queues.items():
            ns = n_salts_for(domain, self.salt_map)
            host_budget = effective_host_budget(
                self.per_host_budget,
                self.robots.crawl_delay(domain),
                self.round_duration_ms,
            )
            quota = salt_quota(host_budget, ns, salt)
            taken = 0
            while heap and taken < quota:
                negs, u, payload = heapq.heappop(heap)
                if self._live.get(u) is not payload:
                    continue  # stale (cancelled via mark_seen) — discard
                self._proposed[u] = ((domain, salt), -negs, payload)
                cands.append((-negs, u, domain, salt))
                taken += 1
        cands.sort(key=lambda t: (-t[0], t[1]))
        if len(cands) > budget:
            for s, u, d, sl in cands[budget:]:
                self._return_to_queue(u)
            cands = cands[:budget]
        return {
            "score": [c[0] for c in cands],
            "url": [c[1] for c in cands],
            "domain": [c[2] for c in cands],
            "salt": [c[3] for c in cands],
        }

    def _return_to_queue(self, url: str) -> None:
        key, score, payload = self._proposed.pop(url)
        heapq.heappush(self.queues[key], (-score, url, payload))

    def commit(self, selected_urls: list[str], now_ms: int = 0) -> dict:
        """Driver reports which proposed URLs made the global cut. Selected →
        seen + removed; the rest return to their queues. Returns COLUMNS
        (dict of equal-length lists, selected order preserved) — columnar so
        the driver round-trip does not pickle one Python dict per row."""
        selected = set(selected_urls)
        for u in list(self._proposed):
            if u not in selected:
                self._return_to_queue(u)
                self.counters["deferred"] += 1
        sel_hashes = url_hash64_vec(selected_urls).tolist()
        popped = [self._proposed.pop(u) for u in selected_urls]
        seen = self.seen
        new = [h for h in dict.fromkeys(sel_hashes) if h not in seen]
        seen.update((h, now_ms) for h in sel_hashes)
        self._gate(new)
        live = self._live
        for u in selected_urls:
            live.pop(u, None)
        self.counters["scheduled"] += len(selected_urls)
        return {
            "url": list(selected_urls),
            "domain": [p[0][0] for p in popped],
            "salt": [p[0][1] for p in popped],
            "score": [p[1] for p in popped],
            "shares": [p[2][0] for p in popped],
            "date_ms": [p[2][1] for p in popped],
        }

    def end_round(self, round_id: int, extra: dict | None = None) -> None:
        self.round = round_id
        self.lineage.append({"round": round_id, **self.counters, **(extra or {})})

    # -- enqueue barrier (the crawl keeps it on shard 0) -------------------
    def ack_rows(self, rnd: int, k: int) -> None:
        """Count ``k`` rows of round ``rnd`` as through the enqueue stage."""
        self._acked[rnd] = self._acked.get(rnd, 0) + k

    def acked_rows(self, rnd: int) -> int:
        return self._acked.get(rnd, 0)

    # -- introspection ----------------------------------------------------
    def pending_count(self) -> int:
        """URLs with a live pending entry; cancelled heap entries are not
        pending (a checkpoint drops them too)."""
        return len(self._live)

    def seen_hashes(self) -> np.ndarray:
        return np.array(sorted(self.seen.keys()), dtype=np.uint64)

    def stats(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "pending": self.pending_count(),
            "seen": len(self.seen),
            "round": self.round,
            **self.counters,
        }

    # -- checkpoint -------------------------------------------------------
    def checkpoint(self, root: str, tag: int = 0) -> str:
        """Write this shard's state under a VERSIONED directory
        ``shard_NNNN/rTTTTTT``. Versioning is what lets the overlapped round
        loop snapshot 'state for starting round T' while the previous
        round's tail is still making the matching manifest durable: the
        manifest names the tag a resume trusts, and the 3 newest tags are
        kept so a crash between shard snapshot and manifest advance always
        finds the manifest's tag on disk."""
        base = os.path.join(root, f"shard_{self.shard_id:04d}")
        os.makedirs(base, exist_ok=True)
        d = os.path.join(base, f"r{tag:06d}")
        tmp = d + ".tmp"
        if os.path.exists(tmp):
            shutil.rmtree(tmp)
        os.makedirs(tmp)
        # stale cancelled entries are not real pending state
        live = [
            (u, domain, salt, -negs, *payload)
            for (domain, salt), heap in self.queues.items()
            for negs, u, payload in heap
            if self._live.get(u) is payload
        ]
        urls, domains, salts, scores, shares, dates = zip(*live) if live else [()] * 6
        url_data, url_off = utf8_blob(urls)
        dom_data, dom_off = utf8_blob(domains)
        np.savez_compressed(
            os.path.join(tmp, "pending.npz"),
            url_data=url_data,
            url_off=url_off,
            domain_data=dom_data,
            domain_off=dom_off,
            salt=np.array(salts, np.int32),
            score=np.array(scores, np.float64),
            shares=np.array(shares, np.int64),
            date_ms=np.array(dates, np.int64),
        )
        n_seen = len(self.seen)
        np.savez_compressed(
            os.path.join(tmp, "seen.npz"),
            url_hash=np.fromiter(self.seen.keys(), np.uint64, n_seen),
            seen_at_ms=np.fromiter(self.seen.values(), np.int64, n_seen),
        )
        manifest = {
            "shard_id": self.shard_id,
            "n_shards": self.n_shards,
            "round": self.round,
            "counters": self.counters,
            "lineage": self.lineage,
            "salt_map": self.salt_map,
            "per_host_budget": self.per_host_budget,
            "seen_ttl_ms": self.seen_ttl_ms,
        }
        with open(os.path.join(tmp, "manifest.json"), "w") as f:
            json.dump(manifest, f)
        if os.path.exists(d):
            shutil.rmtree(d)
        os.rename(tmp, d)
        # prune old versions (keep the 3 newest tags)
        vers = sorted(v for v in os.listdir(base) if v.startswith("r") and not v.endswith(".tmp"))
        for v in vers[:-3]:
            shutil.rmtree(os.path.join(base, v), ignore_errors=True)
        return d

    def restore(self, root: str, tag: int | None = None) -> bool:
        base = os.path.join(root, f"shard_{self.shard_id:04d}")
        if tag is None:
            if not os.path.isdir(base):
                return False
            vers = sorted(v for v in os.listdir(base) if v.startswith("r") and not v.endswith(".tmp"))
            if not vers:
                return False
            d = os.path.join(base, vers[-1])
        else:
            d = os.path.join(base, f"r{tag:06d}")
        if not os.path.exists(os.path.join(d, "manifest.json")):
            return False
        with open(os.path.join(d, "manifest.json")) as f:
            m = json.load(f)
        # load everything before touching state; np.load raises on a
        # truncated or corrupt file (zip directory / CRC check), so a
        # resume never runs on a partial frontier
        with np.load(os.path.join(d, "seen.npz")) as z:
            hashes = z["url_hash"].tolist()
            ats = z["seen_at_ms"].tolist()
        with np.load(os.path.join(d, "pending.npz")) as z:
            urls = utf8_unblob(z["url_data"], z["url_off"])
            domains = utf8_unblob(z["domain_data"], z["domain_off"])
            cols = [z[c].tolist() for c in ("salt", "score", "shares", "date_ms")]
        self.round = m["round"]
        self.counters = m["counters"]
        self.lineage = m["lineage"]
        self.salt_map = {k: int(v) for k, v in m.get("salt_map", {}).items()}
        self.per_host_budget = m["per_host_budget"]
        self.seen_ttl_ms = m["seen_ttl_ms"]
        self.seen = dict(zip(hashes, ats))
        capacity = self.seen_capacity
        while capacity < len(self.seen):
            capacity *= 2
        self.cuckoo = CuckooFilter.holding(self.seen, capacity)
        salts, scores, shares, dates = cols
        payloads = list(zip(shares, dates))
        self.queues = {}
        for domain, u, salt, score, payload in zip(domains, urls, salts, scores, payloads):
            self.queues.setdefault((domain, salt), []).append((-score, u, payload))
        # heapify pops in the same order as pushing one by one: the heap
        # entries are totally ordered tuples
        for heap in self.queues.values():
            heapq.heapify(heap)
        self._live = dict(zip(urls, payloads))
        return True
