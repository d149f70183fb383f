"""Fetch + extract stage (FetcherBolt / ArticleExtractionBolt port).

Reference semantics preserved:
- URLs longer than 300 chars are skipped (bolts/FetcherBolt.java:194)
- non-2xx → failure (bolts/media/MediaFetcherBolt.java:80)
- non-``text/html`` content rejected (bolts/FetcherBolt.java:214-221)
- fetch + article parse live in ONE stage, like ArticleExtractionBolt's
  internal 24-thread fetch pool + parse (:106-142,296-322) — here a
  task-based ``map_batches`` stage over Arrow batches; "fetch" in
  offline/synthetic mode is a lookup into the fixture page store.
  Media-routed rows (social hosts) pass through unparsed: at reference
  HEAD all platform retrievers are commented out so MediaExtractionBolt
  emits the page unchanged
  (bolts/webpages/MediaExtractionBolt.java:60-76,100-117).

Scale note: the page store is one ``stages/store.KeyedStore`` broadcast
via ``ray.put`` once per crawl; each task maps it zero-copy. At 100 TB the
store is a hash-partitioned Lance/Parquet layout and this stage becomes a
bucketed hash-join (read only the row-groups whose url-hash bucket
intersects the round's URLs). The stage interface is identical either way.
"""

from __future__ import annotations

from itertools import compress

import pyarrow as pa

from ..functions.urls import MAX_FETCH_URL_LEN
from .extract import parse_page

MEDIA_STRUCT = pa.struct(
    [
        ("media_id", pa.string()),
        ("media_url", pa.string()),
        ("width", pa.int32()),
        ("height", pa.int32()),
        ("alt", pa.string()),
        ("page_url", pa.string()),
        ("description", pa.string()),
    ]
)

_EXTRACT_FIELDS = [
    ("status", pa.string()),
    ("title", pa.string()),
    ("text", pa.large_string()),
    ("is_article", pa.bool_()),
    ("media_thumbnail", pa.string()),
    ("out_links", pa.list_(pa.string())),
    ("media", pa.list_(MEDIA_STRUCT)),
]


def fetch_and_extract_row(
    url: str, route: str, status_in: str, page_store: dict
) -> dict:
    """Shared single-row semantics (the oracle calls this too). Returns the
    extraction output dict; ``status`` is one of: expand_failed,
    media_route, url_too_long, fetch_failed, not_html, fetched."""
    empty = {
        "title": "",
        "text": "",
        "is_article": False,
        "media_thumbnail": "",
        "out_links": [],
        "media": [],
    }
    if status_in != "ok":
        # status_in already carries the failure label (expand_failed /
        # dup_after_expand) — pass it through.
        return {"status": status_in, **empty}
    if route == "media":
        return {"status": "media_route", **empty}
    if len(url) > MAX_FETCH_URL_LEN:
        return {"status": "url_too_long", **empty}
    page = page_store.get(url)
    if page is None or page[0] != 200:
        return {"status": "fetch_failed", **empty}
    if page[1] != "text/html":
        return {"status": "not_html", **empty}
    html = page[2]
    if isinstance(html, (bytes, bytearray, memoryview)):
        html = bytes(html).decode("utf-8", "replace")
    r = parse_page(url, html)
    return {
        "status": "fetched",
        "title": r["title"],
        "text": r["text"],
        "is_article": r["is_article"],
        "media_thumbnail": r["media_thumbnail"] or "",
        "out_links": r["out_links"],
        "media": r["media"],
    }


def make_fetch_extract(page_store_ref):
    """Task-based ``map_batches`` stage factory over the broadcast page
    store (a ``KeyedStore`` keyed by url). Each task maps the store
    zero-copy, resolves its batch's URLs with one ``find`` and processes the
    batch; worker processes are reused across rounds, so there is no
    per-round actor-pool spawn cost."""

    def fetch_extract(batch: pa.Table) -> pa.Table:
        import ray

        store = ray.get(page_store_ref)
        urls = batch["expanded_url"].to_pylist()
        idx = store.find(batch["expanded_url"])
        hit = idx >= 0
        rows = store.table.take(idx[hit])
        # the batch's pages as the dict fetch_and_extract_row reads
        pages = dict(
            zip(
                compress(urls, hit),
                zip(
                    rows["status_code"].to_pylist(),
                    rows["content_type"].to_pylist(),
                    rows["html"].to_pylist(),
                ),
            )
        )
        routes = batch["route"].to_pylist()
        statuses = batch["status"].to_pylist()
        cols = {name: [] for name, _ in _EXTRACT_FIELDS}
        for u, rt, st in zip(urls, routes, statuses):
            r = fetch_and_extract_row(u, rt, st, pages)
            for name, _ in _EXTRACT_FIELDS:
                cols[name].append(r[name])
        out = batch.drop_columns(["status"])
        for name, typ in _EXTRACT_FIELDS:
            out = out.append_column(name, pa.array(cols[name], typ))
        return out

    return fetch_extract
