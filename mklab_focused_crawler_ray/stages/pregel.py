"""Pregel-style stationary-edge iteration shards (BFS, HITS).

Why raw actors (the documented Dataset-API escape hatch): the Dataset
versions of the iterative graph ops re-shuffled the LOOP-INVARIANT edge
table through two groupbys on EVERY level/half-step — at sf0.01 that per-
iteration executor tax dominated wall time (seed_hop_distance ~33 s,
hits_top20 ~18 s; VERDICT r4 'Next round' #7). Here the edge table is
materialized ONCE into a hive-partitioned layout (by src bucket, by dst
bucket, plus nodes by url bucket), each shard actor loads only its own
partitions at spawn (prune-at-the-read), and per-iteration traffic is
ONLY the node-shaped frontier/score messages — locally combined per
shard before exchange, routed through the object store.

Partitioning assumption (the invariant every message relies on): shard
``s`` owns exactly the urls with ``fnv1a(url) % nb == s`` (the same
vectorized hash the co-group queries route by); edges live with their
src bucket in the forward layout and their dst bucket in the reverse
layout, each row carrying the OTHER endpoint's bucket for message
routing. Scale shape: shard count = bucket count (derived from input
bytes); messages are O(distinct (bucket, url) pairs) per step after
local combining. At 100-TB scale the dumps write per-shard parquet
(``from_arrow_refs`` keeps result blocks in the object store — nothing
node-shaped transits the driver); actors are ``num_cpus=0`` because
they compute in short bursts between messages and must co-schedule with
the Dataset ops that build the layout.

Reference parity: the BFS replays the crawler's frontier rounds
(URLExpansionBolt → RankerBolt ordering, SURVEY §1.1); HITS is the
link-analysis companion of RankerBolt's score ordering. Arithmetic is
bit-identical to the Dataset versions (integer micro units, floor
division, (score desc, url asc) ties) — pinned by the unchanged DuckDB
oracles and tests/test_pregel.py.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa

from ..scale import bucket_of

HITS_SCALE = 1_000_000


def build_graph_layout(edges_ds, node_ds, out_dir: str, nb: int) -> str:
    """Materialize the stationary per-shard graph layout ONCE (atomic dir
    rename = done): edges hive-partitioned by src bucket (``by_src/sb=K``,
    rows carry ``db``) and by dst bucket (``by_dst/db=K``, rows carry
    ``sb``); nodes by url bucket (``nodes/ub=K``)."""
    if os.path.isdir(out_dir):
        return out_dir
    tmp = out_dir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)

    def add_buckets(b: pa.Table) -> pa.Table:
        return b.append_column(
            "sb", pa.array(bucket_of(b["src"], nb))
        ).append_column("db", pa.array(bucket_of(b["dst"], nb)))

    def add_ub(b: pa.Table) -> pa.Table:
        return b.append_column("ub", pa.array(bucket_of(b["url"], nb)))

    eb = edges_ds.map_batches(add_buckets, batch_format="pyarrow").materialize()
    eb.write_parquet(os.path.join(tmp, "by_src"), partition_cols=["sb"])
    eb.write_parquet(os.path.join(tmp, "by_dst"), partition_cols=["db"])
    node_ds.map_batches(add_ub, batch_format="pyarrow").write_parquet(
        os.path.join(tmp, "nodes"), partition_cols=["ub"]
    )
    os.replace(tmp, out_dir)
    return out_dir


def _load_part(layout: str, sub: str, cols: list[str]) -> pa.Table | None:
    import pyarrow.parquet as pq

    p = os.path.join(layout, sub)
    if not os.path.isdir(p):
        return None
    return pq.read_table(p, columns=cols)


def _str_arr(col) -> np.ndarray:
    return np.asarray(col.to_pylist(), dtype=object).astype(str)


class GraphShardImpl:
    """Per-bucket stationary graph state + the BFS/HITS step kernels.
    Plain class so unit tests drive it in-process; wrapped as a Ray actor
    by :func:`_spawn_shards`."""

    def __init__(self, layout: str, buckets: list[int], nb: int):
        self.nb = nb
        self.buckets = list(buckets)

        def cat(sub_fmt: str, cols: list[str]) -> list[pa.Table]:
            out = []
            for b in self.buckets:
                t = _load_part(layout, sub_fmt.format(b=b), cols)
                if t is not None:
                    out.append(t)
            return out

        fw = cat("by_src/sb={b}", ["src", "dst", "db"])
        f = pa.concat_tables(fw) if fw else None
        self.f_src = _str_arr(f["src"]) if f is not None else np.array([], "U1")
        self.f_dst = _str_arr(f["dst"]) if f is not None else np.array([], "U1")
        self.f_db = (
            f["db"].to_numpy() if f is not None else np.array([], np.int64)
        )
        rv = cat("by_dst/db={b}", ["src", "dst", "sb"])
        r = pa.concat_tables(rv) if rv else None
        self.r_src = _str_arr(r["src"]) if r is not None else np.array([], "U1")
        self.r_dst = _str_arr(r["dst"]) if r is not None else np.array([], "U1")
        self.r_sb = (
            r["sb"].to_numpy() if r is not None else np.array([], np.int64)
        )
        nv = cat("nodes/ub={b}", ["url"])
        n = pa.concat_tables(nv) if nv else None
        self.nodes = (
            np.unique(_str_arr(n["url"])) if n is not None else np.array([], "U1")
        )
        # BFS state
        self.visited = np.array([], dtype="U1")
        self.hops: list[tuple[np.ndarray, int]] = []
        # HITS state: (sorted urls, values) per score + last-received raw
        self.hub: tuple[np.ndarray, np.ndarray] | None = None
        self.auth: tuple[np.ndarray, np.ndarray] | None = None
        self._raw: tuple[np.ndarray, np.ndarray] | None = None

    # ---------------- BFS ----------------

    def _route(self, dd: np.ndarray, bb: np.ndarray) -> dict[int, np.ndarray]:
        out: dict[int, np.ndarray] = {}
        for k in np.unique(bb):
            out[int(k)] = np.unique(dd[bb == k])
        return out

    def bfs_step(self, cand: np.ndarray, hop: int, verify_nodes: bool, expand: bool = True):
        """Settle candidates (dedupe − visited, optionally ∩ nodes for the
        seed round — internal edges are pre-verified so later rounds skip
        it), record (url, hop), expand along stationary forward edges;
        returns {target_bucket: unique candidate dsts}."""
        cand = np.unique(np.asarray(cand, dtype=object).astype(str))
        if verify_nodes and len(cand):
            if len(self.nodes):
                pos = np.searchsorted(self.nodes, cand)
                ok = (pos < len(self.nodes)) & (
                    self.nodes[np.clip(pos, 0, len(self.nodes) - 1)] == cand
                )
            else:
                ok = np.zeros(len(cand), bool)
            cand = cand[ok]
        if len(cand) and len(self.visited):
            cand = cand[~np.isin(cand, self.visited)]
        if not len(cand):
            return {}
        self.visited = np.union1d(self.visited, cand)
        self.hops.append((cand, hop))
        if not expand:
            return {}
        hit = np.isin(self.f_src, cand)
        return self._route(self.f_dst[hit], self.f_db[hit])

    def bfs_dump(self) -> pa.Table:
        if not self.hops:
            return pa.table(
                {"url": pa.array([], pa.string()), "hop": pa.array([], pa.int64())}
            )
        urls = np.concatenate([u for u, _ in self.hops])
        hops = np.concatenate(
            [np.full(len(u), h, np.int64) for u, h in self.hops]
        )
        return pa.table(
            {
                "url": pa.array(urls.tolist(), pa.string()),
                "hop": pa.array(hops, pa.int64()),
            }
        )

    # ---------------- HITS ----------------

    def hits_init(self):
        self.hub = (self.nodes, np.full(len(self.nodes), HITS_SCALE, np.int64))
        self.auth = None

    def _lookup(self, score, urls: np.ndarray):
        """(values, matched mask) of ``urls`` in the (sorted, values) score
        table — urls absent from the table are NOT emitted (mirrors the
        Dataset version's inner merge on score rows)."""
        su, sv = score
        if not len(su) or not len(urls):
            return np.zeros(len(urls), np.int64), np.zeros(len(urls), bool)
        pos = np.searchsorted(su, urls)
        ok = (pos < len(su)) & (su[np.clip(pos, 0, len(su) - 1)] == urls)
        vals = np.where(ok, sv[np.clip(pos, 0, len(su) - 1)], 0)
        return vals, ok

    def hits_emit(self, which: str) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Half-step emit: 'auth' flows own hub along forward edges to dst
        buckets; 'hub' flows own auth along reverse edges to src buckets.
        Locally combined: one (url, partial_sum) row per distinct target."""
        if which == "auth":
            vals, ok = self._lookup(self.hub, self.f_src)
            tgt, tb = self.f_dst[ok], self.f_db[ok]
        else:
            vals, ok = self._lookup(self.auth, self.r_dst)
            tgt, tb = self.r_src[ok], self.r_sb[ok]
        vals = vals[ok]
        out: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for k in np.unique(tb):
            m = tb == k
            u, inv = np.unique(tgt[m], return_inverse=True)
            s = np.zeros(len(u), np.int64)
            np.add.at(s, inv, vals[m])
            out[int(k)] = (u, s)
        return out

    def hits_recv(self, chunks) -> int:
        """Accumulate received (urls, partials) into the raw table; returns
        the local raw total for the global L1 normalization."""
        if chunks:
            u_all = np.concatenate([u for u, _ in chunks])
            s_all = np.concatenate([s for _, s in chunks])
            uu, inv = np.unique(u_all, return_inverse=True)
            sums = np.zeros(len(uu), np.int64)
            np.add.at(sums, inv, s_all)
        else:
            uu, sums = np.array([], "U1"), np.zeros(0, np.int64)
        self._raw = (uu, sums)
        return int(sums.sum())

    def hits_norm(self, total: int, which: str):
        """score = raw * SCALE // total over RECEIVED urls only (urls that
        received no flow row drop out, exactly like the Dataset version's
        inner-merge + groupby); same int64 micro arithmetic, so bit-equal."""
        uu, sums = self._raw
        vals = (
            sums * HITS_SCALE // total if total > 0 else np.zeros(len(uu), np.int64)
        )
        if which == "auth":
            self.auth = (uu, vals)
        else:
            self.hub = (uu, vals)

    # ---------------- PageRank ----------------

    def pr_init(self, seeds: np.ndarray | None = None):
        """rank = 1.0 micro for every own node; out-degree + the edge→node
        index precompute once (srcs are pages by construction, so every
        forward edge's src resolves in the own-node table).

        With ``seeds`` (personalized PageRank / random walk with restart):
        rank = 1.0 micro on own SEED nodes, 0 elsewhere, and the teleport
        mass in ``pr_update`` restarts only at seeds — seeds are
        frontier-bounded, so shipping the array to every shard is the
        broadcast-small-side discipline, and the own-seed mask is one
        searchsorted against the sorted own-node table."""
        if seeds is not None:
            s = np.sort(np.asarray(seeds, dtype=object).astype(str))
            pos = np.searchsorted(s, self.nodes)
            self._seed_mask = (pos < len(s)) & (
                s[np.clip(pos, 0, max(len(s) - 1, 0))] == self.nodes
            )
            self.rank = np.where(self._seed_mask, 1_000_000, 0).astype(np.int64)
        else:
            self._seed_mask = None
            self.rank = np.full(len(self.nodes), 1_000_000, np.int64)
        self._src_idx = (
            np.searchsorted(self.nodes, self.f_src)
            if len(self.f_src)
            else np.zeros(0, np.int64)
        )
        self._deg = np.bincount(self._src_idx, minlength=len(self.nodes))

    def pr_emit(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """contribution per edge = rank[src] // deg[src] (integer floor,
        multi-edges each contribute), locally combined per dst."""
        if not len(self.f_src):
            return {}
        vals = self.rank[self._src_idx] // self._deg[self._src_idx]
        out: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for k in np.unique(self.f_db):
            m = self.f_db == k
            u, inv = np.unique(self.f_dst[m], return_inverse=True)
            s = np.zeros(len(u), np.int64)
            np.add.at(s, inv, vals[m])
            out[int(k)] = (u, s)
        return out

    def pr_update(self, chunks):
        """rank = 150000 + 85·inbound // 100 for EVERY own node (missing
        inbound = 0 — the Dataset version's node-side left merge). In
        seeded mode the 150000 teleport term lands only on seed nodes
        (restart-at-seed semantics of personalized PageRank)."""
        c = np.zeros(len(self.nodes), np.int64)
        for u, s in chunks:
            pos = np.searchsorted(self.nodes, u)
            c[pos] += s
        base = (
            np.where(self._seed_mask, 150_000, 0).astype(np.int64)
            if getattr(self, "_seed_mask", None) is not None
            else 150_000
        )
        new = base + (85 * c) // 100
        delta = int(np.abs(new - self.rank).sum())  # shard L1 step size
        self.rank = new
        return delta

    def pr_top(self, k: int) -> pa.Table:
        order = np.lexsort((self.nodes, -self.rank))[:k]
        return pa.table(
            {
                "url": pa.array(self.nodes[order].tolist(), pa.string()),
                "rank_micro": pa.array(self.rank[order], pa.int64()),
            }
        )

    def hits_top(self, k: int) -> pa.Table:
        """Local top-k by (auth desc, url asc) over urls present in the
        final auth or hub tables (outer-join semantics, fillna 0)."""
        au, av = self.auth if self.auth else (np.array([], "U1"), np.array([], np.int64))
        hu, hv = self.hub if self.hub else (np.array([], "U1"), np.array([], np.int64))
        urls = np.unique(np.concatenate([au, hu]))
        a, _ = self._lookup((au, av), urls)
        h, _ = self._lookup((hu, hv), urls)
        order = np.lexsort((urls, -a))[:k]
        return pa.table(
            {
                "url": pa.array(urls[order].tolist(), pa.string()),
                "auth_micro": pa.array(a[order], pa.int64()),
                "hub_micro": pa.array(h[order], pa.int64()),
            }
        )


MAX_SHARDS = 16  # actor processes per query; each owns nb/MAX_SHARDS
# buckets (bucket → actor by modulo), so bucket count scales with data
# while the process count stays bounded on a node


def _spawn_shards(layout: str, nb: int):
    """Spawn A = min(nb, MAX_SHARDS) shard actors; actor a owns every
    bucket b with b % A == a. Returns (actors, route) where route(b) is
    the owning actor index."""
    import ray

    a_n = min(nb, MAX_SHARDS)
    Shard = ray.remote(num_cpus=0)(GraphShardImpl)
    actors = [
        Shard.remote(layout, list(range(a, nb, a_n)), nb) for a in range(a_n)
    ]
    return actors, (lambda b: b % a_n)


def bfs_hops(layout: str, nb: int, seeds: np.ndarray, hop_max: int):
    """Distributed BFS over the stationary layout: returns a Dataset of
    (url, hop), hop 0 = seed urls that are pages. Per level: one actor
    round — settle + expand, messages routed by url bucket."""
    import ray
    import ray.data as rd

    actors, route = _spawn_shards(layout, nb)
    seeds = np.asarray(seeds, dtype=object).astype(str)
    sb = bucket_of(seeds.tolist(), nb)
    msgs: dict[int, list[np.ndarray]] = {}
    for k in np.unique(sb):
        msgs.setdefault(route(int(k)), []).append(seeds[sb == k])
    hop = 0
    while msgs and hop <= hop_max:
        futs = {
            a: actors[a].bfs_step.remote(
                np.concatenate(arrs), hop, hop == 0, hop < hop_max
            )
            for a, arrs in msgs.items()
        }
        nxt: dict[int, list[np.ndarray]] = {}
        for a, f in futs.items():
            for tb, arr in ray.get(f).items():
                nxt.setdefault(route(int(tb)), []).append(arr)
        msgs = nxt
        hop += 1
    # dump refs are driver-owned; actors drain queued dumps before GC
    return rd.from_arrow_refs([a.bfs_dump.remote() for a in actors])


def pagerank_top(
    layout: str,
    nb: int,
    iters: int,
    top_k: int,
    seeds: np.ndarray | None = None,
) -> pd.DataFrame:
    """Distributed integer PageRank over the stationary layout:
    ``iters`` synchronous rounds of emit (locally-combined r//d per dst) +
    exchange + update; global top-``top_k`` by (rank desc, url asc) merged
    from per-shard local top-k. ``seeds`` switches to personalized
    PageRank (teleport mass restarts only at the seed urls)."""
    import ray

    actors, route = _spawn_shards(layout, nb)
    ray.get([a.pr_init.remote(seeds) for a in actors])
    for _ in range(iters):
        emitted = ray.get([a.pr_emit.remote() for a in actors])
        inbox: dict[int, list] = {a: [] for a in range(len(actors))}
        for out in emitted:
            for tb, chunk in out.items():
                inbox[route(int(tb))].append(chunk)
        ray.get(
            [actors[a].pr_update.remote(inbox[a]) for a in range(len(actors))]
        )
    parts = ray.get([a.pr_top.remote(top_k) for a in actors])
    df = pa.concat_tables(parts).to_pandas()
    df = df.sort_values(
        ["rank_micro", "url"], ascending=[False, True], kind="stable"
    ).head(top_k)
    return df.reset_index(drop=True)


def pagerank_deltas(layout: str, nb: int, iters: int) -> list[int]:
    """Per-iteration global L1 step size Σ|r_k − r_{k-1}| (micro units) —
    the convergence curve. Same synchronous rounds as ``pagerank_top``;
    the only extra traffic is one int per shard per iteration (each
    shard's local L1, summed on the driver)."""
    import ray

    actors, route = _spawn_shards(layout, nb)
    ray.get([a.pr_init.remote(None) for a in actors])
    deltas: list[int] = []
    for _ in range(iters):
        emitted = ray.get([a.pr_emit.remote() for a in actors])
        inbox: dict[int, list] = {a: [] for a in range(len(actors))}
        for out in emitted:
            for tb, chunk in out.items():
                inbox[route(int(tb))].append(chunk)
        deltas.append(
            sum(
                ray.get(
                    [actors[a].pr_update.remote(inbox[a]) for a in range(len(actors))]
                )
            )
        )
    return deltas


def hits_scores(layout: str, nb: int, iters: int, top_k: int) -> pd.DataFrame:
    """Distributed HITS: ``iters`` synchronous (authority, hub) rounds over
    the stationary layout, global top-``top_k`` by (auth desc, url asc) —
    merged from per-shard local top-k (selection is merge-safe)."""
    import ray

    actors, route = _spawn_shards(layout, nb)
    ray.get([a.hits_init.remote() for a in actors])

    def half(which: str):
        emitted = ray.get([a.hits_emit.remote(which) for a in actors])
        inbox: dict[int, list] = {a: [] for a in range(len(actors))}
        for out in emitted:
            for tb, chunk in out.items():
                inbox[route(int(tb))].append(chunk)
        totals = ray.get(
            [actors[a].hits_recv.remote(inbox[a]) for a in range(len(actors))]
        )
        total = int(sum(totals))
        ray.get([a.hits_norm.remote(total, which) for a in actors])

    for _ in range(iters):
        half("auth")
        half("hub")
    parts = ray.get([a.hits_top.remote(top_k) for a in actors])
    df = pa.concat_tables(parts).to_pandas()
    df = df.sort_values(
        ["auth_micro", "url"], ascending=[False, True], kind="stable"
    ).head(top_k)
    return df.reset_index(drop=True)
