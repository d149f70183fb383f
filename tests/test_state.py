"""Unit tests: cuckoo filter, bounded priority queue, politeness, frontier
shard semantics incl. the seen gate past its starting table,
checkpoint/restore and the 24 h TTL rule."""

import os
import subprocess
import sys
import textwrap
import zipfile

import numpy as np
import pytest

from mklab_focused_crawler_ray.state.bounded_pq import BoundedPQueue
from mklab_focused_crawler_ray.functions.urls import url_hash64, url_hash64_vec, utf8_unblob
from mklab_focused_crawler_ray.state.cuckoo import _MAX_KICKS, _SLOTS, CuckooFilter
from mklab_focused_crawler_ray.state.frontier import FrontierShard, build_salt_map
from mklab_focused_crawler_ray.state.politeness import RobotsCache, salt_quota


def test_cuckoo_membership_and_delete():
    f = CuckooFilter(10_000)
    keys = np.random.default_rng(0).integers(0, 2**63, 5000, dtype=np.uint64)
    for k in keys:
        assert f.add(int(k))
    assert f.contains_many(keys).all(), "cuckoo filters must have NO false negatives"
    other = np.random.default_rng(1).integers(0, 2**63, 5000, dtype=np.uint64)
    fresh = other[~np.isin(other, keys)]
    fp_rate = f.contains_many(fresh).mean()
    assert fp_rate < 0.05, fp_rate
    assert f.delete(int(keys[0]))
    assert int(keys[0]) not in f or True  # fingerprint collision may remain — allowed


def test_cuckoo_serialization_roundtrip():
    f = CuckooFilter(1000)
    ks = [3, 99, 12345678901234]
    for k in ks:
        f.add(k)
    g = CuckooFilter.from_bytes(f.to_bytes(), 1000, count=f.count)
    assert g.contains_many(np.array(ks, dtype=np.uint64)).all()


def _numpy_add(f, key):
    """The vectorized-hash single-key add the int path replaced — kept as
    the reference its table and return values must equal."""
    fp_a, i1_a = f._fp_and_index(np.array([key], dtype=np.uint64))
    fp, i1 = int(fp_a[0]), int(i1_a[0])
    i2 = int(f._alt_index(np.array([i1]), np.array([fp], dtype=np.uint16))[0])
    for idx in (i1, i2):
        row = f.table[idx]
        empty = np.where(row == 0)[0]
        if empty.size:
            row[empty[0]] = fp
            f.count += 1
            return True
    idx = i1 if int(f._rng.integers(0, 2)) == 0 else i2
    cur = np.uint16(fp)
    for _ in range(_MAX_KICKS):
        slot = int(f._rng.integers(0, _SLOTS))
        cur, f.table[idx, slot] = f.table[idx, slot], cur
        idx = int(f._alt_index(np.array([idx]), np.array([cur], dtype=np.uint16))[0])
        row = f.table[idx]
        empty = np.where(row == 0)[0]
        if empty.size:
            row[empty[0]] = cur
            f.count += 1
            return True
    return False


def test_cuckoo_int_add_matches_numpy_reference_through_kicks():
    keys = np.random.default_rng(3).integers(0, 2**64 - 1, 2030, dtype=np.uint64).tolist()
    ref, got = CuckooFilter(1000), CuckooFilter(1000)
    assert ref.table.size == 2048
    ref_ret = [_numpy_add(ref, k) for k in keys]
    got_ret = [got.add(k) for k in keys]
    assert got_ret == ref_ret
    assert got.table.tobytes() == ref.table.tobytes() and got.count == ref.count
    assert ref.count / ref.table.size >= 0.9 and not all(ref_ret), "kicks must have run"
    # the kick RNG advanced identically
    assert got._rng.integers(0, 1 << 30) == ref._rng.integers(0, 1 << 30)
    # delete finds exactly what the vectorized membership test finds
    probe = keys[:50] + np.random.default_rng(4).integers(0, 2**63, 50, dtype=np.uint64).tolist()
    for k in probe:
        hit = bool(got.contains_many(np.array([k], dtype=np.uint64))[0])
        assert got.delete(k) == hit


def test_bounded_pq_reference_semantics():
    """utils/BoundedPQueue.java:28-47 — keep the best k; evict the worst."""
    q = BoundedPQueue(3)
    assert q.offer(1.0, "a") and q.offer(3.0, "b") and q.offer(2.0, "c")
    assert not q.offer(0.5, "d"), "worse than current worst must be rejected"
    assert q.offer(5.0, "e"), "better element evicts the min"
    out = q.drain_best_first()
    assert [u for _, u, _ in out] == ["e", "b", "c"]
    assert [s for s, _, _ in out] == [5.0, 3.0, 2.0]


def test_bounded_pq_tiebreak_url_asc():
    q = BoundedPQueue(2)
    q.offer(1.0, "zzz")
    q.offer(1.0, "aaa")
    assert not q.offer(1.0, "zzz2") or True
    out = q.drain_best_first()
    assert [u for _, u, _ in out][0] == "aaa"


def test_salt_quota_sums_to_budget():
    for budget in (1, 7, 10, 23):
        for n in (1, 2, 3, 4, 8):
            assert sum(salt_quota(budget, n, i) for i in range(n)) == budget


def test_robots_prefix_rules():
    r = RobotsCache({"a.com": ["/private/", "/tmp/"]})
    assert r.allowed("https://a.com/public/x")
    assert not r.allowed("https://a.com/private/x")
    assert r.allowed("https://b.com/private/x"), "rules are per-host"


def test_build_salt_map():
    m = build_salt_map({"hot.com": 500, "cold.com": 3}, hot_threshold=100, max_salts=4)
    assert m == {"hot.com": 4}


def _mk_shard(**kw):
    defaults = dict(shard_id=0, n_shards=1, per_host_budget=2, seen_capacity=1 << 12)
    defaults.update(kw)
    return FrontierShard(**defaults)


def _rows(urls, scores, host="h.com"):
    return {
        "url": urls,
        "domain": [host] * len(urls),
        "salt": [0] * len(urls),
        "score": scores,
        "shares": [0] * len(urls),
        "date_ms": [0] * len(urls),
    }


def test_shard_first_wins_and_politeness():
    s = _mk_shard()
    s.enqueue(_rows(["u1", "u2", "u3", "u1"], [0.9, 0.8, 0.7, 0.95]))
    assert s.counters["dup_pending"] == 1
    props = s.propose(10)
    # per-host budget 2 → only top-2 proposed despite 3 pending
    assert props["url"] == ["u1", "u2"]
    rows = s.commit(["u1", "u2"], now_ms=5)
    assert rows["url"] == ["u1", "u2"]
    # re-enqueue of committed url is dup_seen
    s.enqueue(_rows(["u1"], [0.9]), now_ms=6)
    assert s.counters["dup_seen"] == 1
    props2 = s.propose(10)
    assert props2["url"] == ["u3"]


def test_shard_ttl_recrawl():
    s = _mk_shard(seen_ttl_ms=1000)
    s.enqueue(_rows(["u1"], [0.9]), now_ms=0)
    s.commit(s.propose(10)["url"], now_ms=0)
    s.enqueue(_rows(["u1"], [0.9]), now_ms=500)
    assert s.counters["dup_seen"] == 1, "inside TTL → still seen"
    s.enqueue(_rows(["u1"], [0.9]), now_ms=1500)
    assert s.pending_count() == 1, "expired → recrawlable (CrawlDecider.java:23-27)"


def test_shard_mark_seen_cancels_pending():
    s = _mk_shard()
    s.enqueue(_rows(["u1", "u2"], [0.9, 0.8]))
    s.mark_seen(["u2"], now_ms=1)
    props = s.propose(10)
    assert props["url"] == ["u1"]


def test_shard_checkpoint_restore(tmp_path):
    s = _mk_shard(per_host_budget=1)
    s.enqueue(_rows(["u1", "u2", "u3"], [0.9, 0.8, 0.7]))
    s.commit(s.propose(1)["url"], now_ms=7)
    s.end_round(0)
    s.checkpoint(str(tmp_path))

    t = _mk_shard(per_host_budget=1)
    assert t.restore(str(tmp_path))
    assert t.pending_count() == s.pending_count() == 2
    assert t.seen == s.seen
    assert t.round == 0 and t.lineage
    # scheduling continues identically after restore
    assert t.propose(1)["url"] == ["u2"]


def _live_pending(shard):
    return sorted(
        (domain, salt, -negs, u, payload)
        for (domain, salt), heap in shard.queues.items()
        for negs, u, payload in heap
        if url_hash64(u) in shard.pending_hashes
    )


def _busy_shard():
    """A shard with several hosts and salts, score ties, deferred rows,
    stale (cancelled) heap entries and a seen ledger spread over rounds."""
    s = FrontierShard(
        shard_id=3, n_shards=4, salt_map={"hot.com": 2}, per_host_budget=3,
        seen_capacity=1 << 10,
    )
    rng = np.random.default_rng(5)
    for rnd in range(4):
        urls = [f"https://{h}/p/{rnd}/{i}/ü" for h in ("hot.com", "a.org", "b.net") for i in range(40)]
        rows = {
            "url": urls,
            "domain": [u.split("/")[2] for u in urls],
            "salt": [i % 2 if u.startswith("https://hot.com") else 0 for i, u in enumerate(urls)],
            "score": rng.choice([0.5, 0.75, 0.9], len(urls)).tolist(),
            "shares": rng.integers(0, 100, len(urls)).tolist(),
            "date_ms": rng.integers(0, 10**12, len(urls)).tolist(),
        }
        s.enqueue(rows, now_ms=rnd)
        props = s.propose(5)
        s.commit(props["url"][:3], now_ms=rnd)  # the rest are deferred
        s.mark_seen(urls[5:9] + [f"https://c.io/{rnd}"], now_ms=rnd)  # cancels pending
        s.end_round(rnd)
    return s


def test_shard_checkpoint_roundtrip_is_exact(tmp_path):
    s = _busy_shard()
    s.checkpoint(str(tmp_path), tag=4)
    t = FrontierShard(shard_id=3, n_shards=4, seen_capacity=1 << 10)
    assert t.restore(str(tmp_path), 4)
    assert _live_pending(t) == _live_pending(s) and len(_live_pending(s)) > 100
    assert t.pending_hashes == s.pending_hashes
    assert list(t.seen.items()) == list(s.seen.items())
    assert t.counters == s.counters and t.lineage == s.lineage and t.round == s.round
    assert t.salt_map == s.salt_map and t.per_host_budget == s.per_host_budget
    assert t.cuckoo.table.tobytes() == s.cuckoo.table.tobytes()
    for rnd in range(4, 7):
        assert t.propose(7) == s.propose(7)
        sel = sorted(s._proposed)[::2]
        assert t.commit(sel, now_ms=rnd) == s.commit(sel, now_ms=rnd)


def test_seen_gate_has_no_false_negatives_past_its_starting_table(tmp_path):
    """A shard that sees twice as many URLs as its cuckoo table has slots
    still reports every one of them seen and re-admits none, through
    commit and mark_seen alike, and again after checkpoint/restore: a
    refused insert grows the table from the exact ledger instead of
    dropping the fingerprint it evicted."""
    s = FrontierShard(shard_id=0, n_shards=1, per_host_budget=10**6, seen_capacity=1000)
    slots = s.cuckoo.table.size
    assert slots == 2048
    urls = [f"https://h{i % 5}.com/p/{i}" for i in range(2 * slots)]
    rows = {"url": urls, "domain": [u.split("/")[2] for u in urls], "score": [0.5] * len(urls)}
    half = len(urls) // 2
    s.enqueue({k: v[:half] for k, v in rows.items()}, now_ms=1)
    s.commit(s.propose(half)["url"], now_ms=1)
    s.mark_seen(urls[half:], now_ms=1)
    assert len(s.seen) == len(urls) and s.cuckoo.table.size > slots

    def assert_all_seen(shard):
        assert all(shard.contains_urls(urls, now_ms=2))
        assert shard.enqueue(rows, now_ms=2)["added"] == 0
        assert shard.pending_count() == 0

    assert_all_seen(s)
    s.checkpoint(str(tmp_path), tag=1)
    t = FrontierShard(shard_id=0, n_shards=1, seen_capacity=1000)
    assert t.restore(str(tmp_path), 1)
    assert t.seen == s.seen
    assert_all_seen(t)


@pytest.mark.parametrize("name", ["pending.npz", "seen.npz"])
def test_shard_restore_refuses_truncated_checkpoint(tmp_path, name):
    s = _busy_shard()
    d = s.checkpoint(str(tmp_path), tag=4)
    path = os.path.join(d, name)
    size = os.path.getsize(path)
    with open(path, "r+b") as f:
        f.truncate(size // 2)
    t = FrontierShard(shard_id=3, n_shards=4, seen_capacity=1 << 10)
    with pytest.raises(zipfile.BadZipFile):
        t.restore(str(tmp_path), 4)
    assert t.pending_count() == 0 and not t.seen and t.round == 0


def test_shard_lifecycle_never_imports_pandas(tmp_path):
    """A fresh shard process must not pay the pandas import pyarrow does
    on its first pa.array / parquet call."""
    code = textwrap.dedent(
        f"""
        import sys
        from mklab_focused_crawler_ray.state.frontier import FrontierShard

        urls = ["https://h.com/a", "https://h.com/b", "https://h.com/c"]
        rows = {{"url": urls, "domain": ["h.com"] * 3, "salt": [0] * 3,
                 "score": [0.9, 0.8, 0.7], "shares": [1] * 3, "date_ms": [2] * 3}}
        s = FrontierShard(0, 1, per_host_budget=2)
        s.enqueue(rows, now_ms=1)
        s.commit(s.propose(10)["url"], now_ms=1)
        s.mark_seen(["https://h.com/c"], now_ms=2)
        assert s.contains_urls(["https://h.com/a", "https://h.com/z"], 3) == [True, False]
        s.end_round(0)
        s.checkpoint({str(tmp_path)!r}, 1)
        t = FrontierShard(0, 1)
        assert t.restore({str(tmp_path)!r}, 1) and t.seen == s.seen
        print(sorted(m for m in ("pandas", "pyarrow") if m in sys.modules))
        """
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=root, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_url_hash64_vec_matches_scalar_for_every_input_form():
    import pyarrow as pa

    urls = ["", "a", "https://h.com/x?q=1", "https://ex.com/ü/日本/π", "https://h.com/" + "x" * 286]
    assert len(urls[-1]) == 300
    want = [url_hash64(u) for u in urls]
    forms = [
        list,
        lambda x: np.array(x, dtype=object),
        lambda x: pa.array(x, pa.string()),
        lambda x: pa.chunked_array([pa.array(x[:2], pa.string()), pa.array(x[2:], pa.string())]),
    ]
    for form in forms:
        got = url_hash64_vec(form(urls))
        assert got.dtype == np.uint64 and got.tolist() == want
        assert url_hash64_vec(form([])).dtype == np.uint64 and len(url_hash64_vec(form([]))) == 0
    # a None hashes like '' (an Arrow null has a zero-length slot)
    for form in forms[:3]:
        assert url_hash64_vec(form([None, "a"])).tolist() == [url_hash64(""), url_hash64("a")]


def test_shard_reenqueue_after_ttl_drops_stale_entry(tmp_path):
    """A URL cancelled by mark_seen and enqueued again once its seen-TTL
    has expired is pending ONCE: its old heap entry stays stale in
    propose and in the checkpoint rows."""
    s = _mk_shard(seen_ttl_ms=10, per_host_budget=10)
    s.enqueue(_rows(["u1", "u2"], [0.9, 0.5]), now_ms=0)
    s.mark_seen(["u1"], now_ms=0)
    s.enqueue(_rows(["u1"], [0.8]), now_ms=20)
    d = s.checkpoint(str(tmp_path), tag=1)
    with np.load(os.path.join(d, "pending.npz")) as z:
        rows = sorted(
            zip(utf8_unblob(z["url_data"], z["url_off"]), z["score"].tolist())
        )
    assert rows == [("u1", 0.8), ("u2", 0.5)]
    props = s.propose(10)
    assert props["url"] == ["u1", "u2"] and props["score"] == [0.8, 0.5]
    t = _mk_shard(seen_ttl_ms=10, per_host_budget=10)
    assert t.restore(str(tmp_path), 1)
    assert t.propose(10) == props
