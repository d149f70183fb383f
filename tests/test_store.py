"""The keyed broadcast store (stages/store.py) behind every crawl lookup:
pages, redirects, images and URL metadata.

``find`` must answer what a dict over the key column answers, also when
keys share a url hash. FNV-1a collisions are not found by hand, so the
collision tests swap the store's hash for one that maps many keys onto
one value. The per-stage tests then drive each crawl stage through a
store built under that hash and compare it with the oracle's dict rule.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from mklab_focused_crawler_ray.functions.urls import url_hash64_vec
from mklab_focused_crawler_ray.stages import store as store_mod
from mklab_focused_crawler_ray.stages.store import KeyedStore

URLS = [f"https://h{i % 7}.example/p{i}" for i in range(300)]


def _one_hash(keys):
    return np.zeros(len(keys), dtype=np.uint64)


def _dict_rule(store: KeyedStore, keys) -> list[int]:
    ref = {k: i for i, k in enumerate(store.table[store.key].to_pylist())}
    return [ref.get(k, -1) for k in keys]


@pytest.mark.parametrize("buckets", [None, 1, 3, 64])
def test_find_equals_a_dict_lookup(monkeypatch, buckets):
    if buckets is not None:
        monkeypatch.setattr(
            store_mod,
            "url_hash64_vec",
            lambda keys: url_hash64_vec(keys) % np.uint64(buckets),
        )
    # a repeated key (its last row wins, as in a dict) and absent keys
    keys = URLS + [URLS[5], URLS[40]]
    st = KeyedStore(pa.table({"url": keys, "v": list(range(len(keys)))}), "url")
    probe = URLS[::3] + ["https://absent.example/", "", URLS[5]]
    want = _dict_rule(st, probe)
    assert st.find(probe).tolist() == want
    assert st.find(np.asarray(probe, dtype=object)).tolist() == want
    chunked = pa.chunked_array([probe[:10], probe[10:]])
    assert st.find(chunked).tolist() == want
    v = st.table["v"].to_pylist()
    assert v[st.find([URLS[5]])[0]] == len(URLS)  # the repeated key's last row


def test_empty_store_finds_nothing():
    st = KeyedStore(pa.table({"url": pa.array([], pa.string())}), "url")
    assert st.find(URLS[:3]).tolist() == [-1, -1, -1]
    assert st.find([]).tolist() == []


# -- every crawl store under one shared hash ---------------------------------


def test_page_store_finds_each_url_own_page(ray_session, monkeypatch):
    import ray

    from mklab_focused_crawler_ray.stages.fetch import (
        fetch_and_extract_row,
        make_fetch_extract,
    )

    monkeypatch.setattr(store_mod, "url_hash64_vec", _one_hash)
    present = ["https://a.example/1", "https://b.example/2"]
    html = [
        f"<html><head><title>page {i}</title></head><body><p>{u}</p></body></html>"
        for i, u in enumerate(present)
    ]
    pages = pa.table(
        {
            "url": present,
            "status_code": pa.array([200, 200], pa.int32()),
            "content_type": ["text/html", "text/html"],
            "html": pa.array([h.encode() for h in html], pa.large_binary()),
        }
    )
    urls = present + ["https://c.example/absent"]
    batch = pa.table(
        {
            "expanded_url": urls,
            "route": ["webpage"] * 3,
            "status": ["ok"] * 3,
        }
    )
    out = make_fetch_extract(ray.put(KeyedStore(pages, "url")))(batch)
    ref = {u: (200, "text/html", h.encode()) for u, h in zip(present, html)}
    want = [fetch_and_extract_row(u, "webpage", "ok", ref) for u in urls]
    assert out["status"].to_pylist() == ["fetched", "fetched", "fetch_failed"]
    assert out["title"].to_pylist() == [w["title"] for w in want]
    assert out["title"].to_pylist()[:2] == ["page 0", "page 1"]


def test_redirect_store_follows_each_source_own_target(ray_session, monkeypatch):
    import ray

    from mklab_focused_crawler_ray.stages.expand import expand_url, make_expander

    monkeypatch.setattr(store_mod, "url_hash64_vec", _one_hash)
    redirects = {
        "https://a.example/r": "https://x.example/final",
        "https://b.example/r": "https://y.example/final",
    }
    store = KeyedStore(
        pa.table({"src": list(redirects), "dst": list(redirects.values())}), "src"
    )
    urls = list(redirects) + ["https://c.example/no-redirect"]
    out = make_expander(ray.put(store))(pa.table({"url": urls}))
    want = [expand_url(u, redirects) for u in urls]
    assert out["expanded_url"].to_pylist() == [w[0] for w in want]
    assert out["status"].to_pylist() == [w[1] for w in want]
    assert out["expanded_url"].to_pylist() == [
        "https://x.example/final",
        "https://y.example/final",
        "https://c.example/no-redirect",
    ]


def test_image_store_decodes_each_id_own_bytes(ray_session, monkeypatch):
    import ray

    from mklab_focused_crawler_ray.fixtures.codecs import decode, encode, phash64
    from mklab_focused_crawler_ray.stages.fetch import MEDIA_STRUCT
    from mklab_focused_crawler_ray.stages.visual import (
        build_image_store,
        make_media_embed,
    )

    monkeypatch.setattr(store_mod, "url_hash64_vec", _one_hash)
    rng = np.random.default_rng(7)
    blobs = [encode(rng.integers(0, 256, (32, 32, 3), dtype=np.uint8), "png") for _ in range(2)]
    images = pa.table({"image_id": ["img_a", "img_b"], "bytes": blobs, "fmt": ["png", "png"]})
    store_ref = ray.put(build_image_store(images))

    def item(image_id):
        return {
            "media_id": image_id, "media_url": f"https://img.h.example/{image_id}",
            "width": 32, "height": 32, "alt": "", "page_url": "", "description": "",
        }

    batch = pa.table(
        {"media": pa.array([[item("img_a"), item("img_b"), item("img_absent")]], pa.list_(MEDIA_STRUCT))}
    )
    out = make_media_embed(store_ref, use_cache=False)(batch)
    assert out["media_image_ids"].to_pylist() == [["img_a", "img_b"]]
    assert out["media_phash"].to_pylist() == [[phash64(decode(b, "png")) for b in blobs]]


class _Calls:
    """Stands in for one method of a shard actor handle: records each
    ``.remote`` call and returns a resolved ref."""

    def __init__(self):
        self.calls = []

    def remote(self, *args):
        import ray

        self.calls.append(args)
        return ray.put(None)


class _Shard:
    def __init__(self):
        self.enqueue = _Calls()
        self.ack_rows = _Calls()


def test_metadata_store_scores_an_absent_link_as_the_oracle_does(ray_session, monkeypatch):
    """A discovered link absent from the URL universe scores with
    (shares=0, date=score clock), as ``CrawlOracle._enqueue_known`` does,
    even when its hash equals a present URL's hash. Matching on the hash
    alone gave it the other URL's shares and date."""
    import ray

    from mklab_focused_crawler_ray.pipelines.crawl import make_enqueue_links

    monkeypatch.setattr(store_mod, "url_hash64_vec", _one_hash)
    now = 1_700_000_000_000
    meta = {"https://a.example/1": (7, now - 5_000), "https://b.example/2": (9, now - 9_000)}
    store = KeyedStore(
        pa.table(
            {
                "url": list(meta),
                "shares": pa.array([v[0] for v in meta.values()], pa.int64()),
                "date_ms": pa.array([v[1] for v in meta.values()], pa.int64()),
            }
        ),
        "url",
    )
    shard = _Shard()
    links = list(meta) + ["https://c.example/absent"]
    stage = make_enqueue_links(
        [shard], ray.put(store), {}, now + 1, score_now_ms=now, counter=shard, rnd=0
    )
    stage(pa.table({"out_links": [links]}))
    (rows, enq_now), = shard.enqueue.calls
    assert enq_now == now + 1
    got = dict(zip(rows["url"], zip(rows["shares"], rows["date_ms"])))
    assert got == {u: meta.get(u, (0, now)) for u in links}
    assert shard.ack_rows.calls == [(0, 1)]
