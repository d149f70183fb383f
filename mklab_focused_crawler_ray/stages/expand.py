"""URL expansion + media/webpage routing (the URLExpansionBolt port).

Reference semantics (bolts/webpages/URLExpansionBolt.java):
- follow at most 4 redirect hops (:30; live mode reads Location headers with
  a 2 s timeout, :110-134); more hops → expansion failure. The reference
  silently drops failures (:85-98); we keep the row with
  ``status='expand_failed'`` (SURVEY §4: auditability).
- sets expanded_url + domain (host of the expanded URL, :62-71)
- routes by host: the 6-host social set → 'media', else 'webpage' (:42-47,76-81)

Offline/synthetic mode: expansion is a lookup against the fixture redirect
table, broadcast once via ``ray.put`` as a ``stages/store.KeyedStore`` and
resolved inside the stage — a pure vectorized function, no network.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.urls import MAX_REDIRECTS, host_of, route_of_host


def expand_url(url: str, redirect_map: dict[str, str]) -> tuple[str, str]:
    """Follow ≤4 hops. Returns (expanded_url, status): status is 'ok' or
    'expand_failed' (too many redirects → the reference's failure path).
    Reference semantics shared with the pure-Python oracle."""
    cur = url
    for _ in range(MAX_REDIRECTS):
        nxt = redirect_map.get(cur)
        if nxt is None:
            return cur, "ok"
        cur = nxt
    if cur in redirect_map:
        return cur, "expand_failed"
    return cur, "ok"


def make_expander(redirect_store_ref):
    """Task-based ``map_batches`` stage factory over the broadcast redirect
    store (a ``KeyedStore`` keyed by src, with a dst column): ≤4 vectorized
    hop passes (each hop resolves every still-active URL with one
    ``find``), then hosts/routes. Equals the per-URL ``expand_url``
    semantics exactly (trace-conformance tests)."""

    def expander(batch: pa.Table) -> pa.Table:
        import ray

        store = ray.get(redirect_store_ref)
        dst = store.table["dst"]
        cur = np.asarray(batch["url"].to_pylist(), dtype=object)
        active = np.arange(len(cur))  # rows that followed every hop so far
        for _ in range(MAX_REDIRECTS):
            idx = store.find(cur[active])
            hit = idx >= 0
            cur[active[hit]] = dst.take(idx[hit]).to_pylist()
            active = active[hit]
        # still redirecting after MAX hops? failed iff a further hop exists
        failed = np.zeros(len(cur), dtype=bool)
        failed[active[store.find(cur[active]) >= 0]] = True
        hosts = [host_of(e) for e in cur]
        routes = [route_of_host(h) for h in hosts]
        return (
            batch.append_column("expanded_url", pa.array(cur.tolist(), pa.string()))
            .append_column("expanded_host", pa.array(hosts, pa.string()))
            .append_column("route", pa.array(routes, pa.string()))
            .append_column(
                "status",
                pa.array(np.where(failed, "expand_failed", "ok").tolist(), pa.string()),
            )
        )

    return expander
