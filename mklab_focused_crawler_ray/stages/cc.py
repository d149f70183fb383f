"""Distributed connected components: alternating large-star / small-star
contraction over a Dataset edge list (Kiveris et al., "Connected
Components in MapReduce and Beyond", SoCC 2014).

This is the sharded CC path ``queries.cc_min_label`` documents for the
beyond-pair-budget regime: the driver-side pointer-jumping kernel there
is correct while the edge list is output-bounded (verified near-dup
pairs); a link GRAPH's edge list is corpus-shaped, so here every round
is two node-hash-bucketed ``groupby().map_groups`` passes over the
CURRENT edge set — the edge set lives in the object store, contracts
toward the canonical star forest, and nothing node- or edge-shaped ever
materializes on the driver (the per-round convergence probe is a single
aggregated scalar pair).

Semantics: undirected graph over STRING node ids; the returned label of
every node is the lexicographically smallest node id in its component
(self-loops are dropped; a node appearing only in self-loops labels
itself). Convergence is exact — the loop runs until an order-independent
edge-set checksum repeats, which the paper bounds at O(log² n) rounds
(O(log n) in practice; fixture graphs converge in ≤ 5).

Scale shape: round r touches only the round-r edge set (monotonically
contracting); each half-round is ONE shuffle keyed by node-hash bucket,
and inside a bucket the whole star step is vectorized (lexsort +
segment-min over the gathered neighborhoods — no per-node Python). All
rows of a node land in one bucket by construction, so neighborhoods are
never split. Hot roots beyond a bucket's memory would shard by
(node, salt) with a second min-combine pass — the same salting
discipline as queries_crawl.frontier_skew_plan.

Reference: MKLab-ITI/mklab-focused-crawler has no graph-analytics
operator (its link handling ends at URLExpansionBolt.java:62-81);
host-level components are a build-brief crawl-scheduler addition
(spam-farm / link-island detection over the hostgraph rollup).
"""

from __future__ import annotations

import zlib

import numpy as np
import pandas as pd
import pyarrow as pa

from ..scale import cogroup, derive_buckets

CC_BUCKETS = 32  # node-hash gather bucket floor per star half-round


def _star_round(edges_ds, large: bool, nb: int):
    """One star half-round: both directions of every edge, co-grouped by
    the gather node u."""

    def both(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy(zero_copy_only=False).astype(str)
        b = batch["b"].to_numpy(zero_copy_only=False).astype(str)
        return pa.table(
            {
                "u": pa.array(np.concatenate([a, b]), pa.string()),
                "v": pa.array(np.concatenate([b, a]), pa.string()),
            }
        )

    return cogroup(
        edges_ds.map_batches(both, batch_format="pyarrow"),
        "u",
        _star_bucket_fn(large),
        nb,
    )


def _star_bucket_fn(large: bool):
    """One star half-round, vectorized over a whole gather bucket: lexsort
    the (u, v) rows, dedup, take the segment-min neighbor per u, and emit
    the paper's replacement edges —
      large-star: (v, m) for v > u;
      small-star: (v, m) for v ≤ u, v ≠ m, plus (u, m) when u ≠ m;
    with m = min(Γ(u) ∪ {u}) (self-loops are pre-dropped, so Γ(u) ∌ u)."""

    def star(g: pd.DataFrame) -> pd.DataFrame:
        u = g["u"].to_numpy(object).astype(str)
        v = g["v"].to_numpy(object).astype(str)
        order = np.lexsort((v, u))
        u, v = u[order], v[order]
        keep = np.ones(len(u), bool)
        if len(u) > 1:
            keep[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
        u, v = u[keep], v[keep]
        if not len(u):
            return pd.DataFrame({"a": np.array([], object), "b": np.array([], object)})
        starts = np.ones(len(u), bool)
        starts[1:] = u[1:] != u[:-1]
        seg = np.cumsum(starts) - 1
        # v sorted within each u-segment → the segment's first v is min(Γ(u))
        min_nbr = v[starts][seg]
        m = np.where(min_nbr < u, min_nbr, u)  # np.minimum lacks a str loop
        if large:
            sel = v > u
            out_a, out_b = v[sel], m[sel]
        else:
            sel = (v <= u) & (v != m)
            out_a, out_b = v[sel], m[sel]
            su = starts & (u != m)
            out_a = np.concatenate([out_a, u[su]])
            out_b = np.concatenate([out_b, m[su]])
        return pd.DataFrame({"a": out_a, "b": out_b})

    return star


def _checksum(edges_ds) -> tuple[int, int]:
    """Order-independent (count, hash-sum) fingerprint of an edge set —
    the per-round convergence probe (one scalar pair to the driver).
    Duplicate emissions are squashed within each map block first, so the
    fingerprint is stable once the star forest is canonical."""

    def h(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy(zero_copy_only=False).astype(str)
        b = batch["b"].to_numpy(zero_copy_only=False).astype(str)
        hs = np.fromiter(
            (zlib.crc32((x + "\x00" + y).encode()) for x, y in zip(a, b)),
            np.int64,
            len(a),
        )
        hs = np.unique(hs)
        return pa.table(
            {
                "n": pa.array([len(hs)], pa.int64()),
                "s": pa.array([int(hs.sum())], pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    row = edges_ds.map_batches(h, batch_format="pyarrow").aggregate(
        Sum("n", alias_name="n"), Sum("s", alias_name="s")
    )
    return (row["n"] or 0, row["s"] or 0)


def cc_star_components(edges_ds, max_rounds: int = 64):
    """Connected components of the undirected graph given by an (a, b)
    string-edge Dataset. Returns a Dataset of (node, comp_rep) covering
    every node that appears in any edge (incl. self-loops), comp_rep =
    the lexicographic min of the node's component.

    Each round = large-star then small-star, each ONE bucketed shuffle
    over the current (contracting) edge set; stops when the edge-set
    fingerprint repeats (converged star forest: every remaining edge is
    (child, component-min))."""

    def drop_self(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(pc.invert(pc.equal(batch["a"], batch["b"])))

    def node_rows(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy(zero_copy_only=False).astype(str)
        b = batch["b"].to_numpy(zero_copy_only=False).astype(str)
        n = np.unique(np.concatenate([a, b]))
        return pa.table({"node": pa.array(n, pa.string())})

    def dedup_nodes(g: pd.DataFrame) -> pd.DataFrame:
        n = np.unique(g["node"].to_numpy(object).astype(str))
        return pd.DataFrame({"node": n, "lab": n})

    nb = derive_buckets(floor=CC_BUCKETS)
    self_labels = cogroup(
        edges_ds.map_batches(node_rows, batch_format="pyarrow"),
        "node",
        dedup_nodes,
        nb,
    )

    cur = edges_ds.map_batches(drop_self, batch_format="pyarrow").materialize()
    prev_fp = None
    for _ in range(max_rounds):
        fp = _checksum(cur)
        if fp == prev_fp or fp[0] == 0:
            break
        prev_fp = fp
        cur = _star_round(_star_round(cur, True, nb), False, nb).materialize()

    # Converged star forest: every edge is (child, root). Label = root for
    # children, self for roots and self-loop-only nodes; the min-combine
    # rides one final bucketed pass (a child may still carry its self row
    # and duplicate (child, root) emissions from different gather groups).
    def edge_labels(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy(zero_copy_only=False).astype(str)
        b = batch["b"].to_numpy(zero_copy_only=False).astype(str)
        return pa.table(
            {
                "node": pa.array(a, pa.string()),
                "lab": pa.array(b, pa.string()),
            }
        )

    def pick_min(g: pd.DataFrame) -> pd.DataFrame:
        n = g["node"].to_numpy(object).astype(str)
        l = g["lab"].to_numpy(object).astype(str)
        order = np.lexsort((l, n))
        n, l = n[order], l[order]
        starts = np.ones(len(n), bool)
        starts[1:] = n[1:] != n[:-1]
        return pd.DataFrame({"node": n[starts], "comp_rep": l[starts]})

    return cogroup(
        [cur.map_batches(edge_labels, batch_format="pyarrow"), self_labels],
        "node",
        pick_min,
        nb,
    )
