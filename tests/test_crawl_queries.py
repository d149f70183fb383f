"""Kernel edge cases for the frontier-scheduler queries
(pipelines/queries_crawl.py): the vectorized robots ANY-prefix gate, the
score-micro replay vs DuckDB's float engine, and the politeness round
quantization. The full query-vs-oracle equality at the driver tier is
covered by tests/test_queries_oracle.py (FIXTURE_BACKED entries)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from mklab_focused_crawler_ray.pipelines.queries_crawl import (
    AVG_TIME_DIFF_MS,
    CRAWL_NOW_MS,
    PER_HOST_BUDGET,
    _blocked_mask,
    _score_micro,
)


def _store(rows):
    """Build the (sorted hosts, full prefixes) store shape _robots_store
    produces, from (host, disallow_prefix) tuples."""
    hosts = np.array([h for h, _ in rows], dtype=object).astype(str)
    prefs = np.array([p for _, p in rows], dtype=object).astype(str)
    order = np.argsort(hosts, kind="stable")
    hosts, prefs = hosts[order], prefs[order]
    full = np.char.add(np.char.add("https://", hosts), prefs)
    return hosts, full


def test_blocked_mask_any_prefix_and_missing_host():
    store = _store(
        [
            ("a.com", "/private/"),
            ("a.com", "/tmp/"),  # multi-prefix host: ANY match blocks
            ("b.com", "/x"),
        ]
    )
    urls = np.array(
        [
            "https://a.com/private/p1",  # first prefix
            "https://a.com/tmp/file",  # second prefix of the same host
            "https://a.com/public/p",  # host present, no prefix match
            "https://b.com/xy",  # prefix match without trailing slash
            "https://b.com/y",  # no match
            "https://c.com/private/p",  # host absent from robots
        ],
        dtype=object,
    )
    hosts = np.array(
        ["a.com", "a.com", "a.com", "b.com", "b.com", "c.com"], dtype=object
    )
    assert _blocked_mask(urls, hosts, store).tolist() == [
        True,
        True,
        False,
        True,
        False,
        False,
    ]


def test_blocked_mask_empty_inputs():
    store = _store([("a.com", "/p/")])
    assert _blocked_mask(np.empty(0, object), np.empty(0, object), store).tolist() == []
    empty_store = (np.empty(0, "<U1"), np.empty(0, "<U1"))
    urls = np.array(["https://a.com/p/x"], dtype=object)
    hosts = np.array(["a.com"], dtype=object)
    assert _blocked_mask(urls, hosts, empty_store).tolist() == [False]


def test_score_micro_matches_duckdb_float_engine():
    import duckdb

    rng = np.random.default_rng(7)
    shares = rng.integers(0, 12000, size=200).astype(np.int64)
    # ages from seconds to days before CRAWL_NOW_MS
    date_ms = CRAWL_NOW_MS - rng.integers(1_000, 90_000_000, size=200)
    ours = _score_micro(shares, date_ms)
    con = duckdb.connect()
    con.register(
        "t",
        __import__("pandas").DataFrame({"shares": shares, "date_ms": date_ms}),
    )
    theirs = con.execute(
        "SELECT CAST(FLOOR((1 - EXP(-0.05*shares) + 1)/2 * "
        f"(EXP(-(({CRAWL_NOW_MS} - date_ms)/{AVG_TIME_DIFF_MS})) + 1)/2 "
        "* 1000000 + 0.5) AS BIGINT) FROM t"
    ).fetchnumpy()
    theirs = next(iter(theirs.values())).astype(np.int64)
    assert np.array_equal(ours, theirs)


def test_round_quantization_brute_force():
    """rank-within-host // budget under (score desc, url asc), including a
    score tie broken by url."""
    sm = np.array([500, 900, 900, 100] + [800] * 18, np.int64)
    urls = np.array(
        ["u03", "u02", "u01", "u04"] + [f"v{i:02d}" for i in range(18)], object
    )
    order = np.lexsort((urls, -sm))
    rnd = np.empty(len(sm), np.int64)
    rnd[order] = np.arange(len(sm)) // PER_HOST_BUDGET
    ranked = sorted(zip(sm, urls), key=lambda t: (-t[0], t[1]))
    expect = {u: i // PER_HOST_BUDGET for i, (_, u) in enumerate(ranked)}
    assert {u: r for u, r in zip(urls, rnd)} == expect
    # ties: u01 before u02 (url asc at equal score)
    assert expect["u01"] == 0 and expect["u02"] == 0
    # 22 urls with budget 10 → rounds 0,1,2 present
    assert set(expect.values()) == {0, 1, 2}


def test_kmv_hash_vec_bit_identical_to_scalar_fold():
    """The vectorized URL hash (queries_crawl._kmv_hash_vec) must replay
    queries_ml7._kmv_hash bit-for-bit, including empty strings, 1-char
    strings, long paths, and SLICED Arrow arrays (nonzero offset)."""
    import pyarrow as pa

    from mklab_focused_crawler_ray.pipelines.queries_crawl import _kmv_hash_vec
    from mklab_focused_crawler_ray.pipelines.queries_ml7 import _kmv_hash

    strs = [
        "",
        "a",
        "https://h0001.example.org/p/0000042",
        "https://img.h9.example.org/" + "y" * 520 + "img00000001",
        "z" * 1,
        "0123456789" * 31,
    ]
    arr = pa.array(strs, pa.string())
    got = _kmv_hash_vec(arr).tolist()
    want = [_kmv_hash(s) for s in strs]
    assert got == want
    # sliced array exercises the offset-handling path
    sl = arr.slice(2, 3)
    assert _kmv_hash_vec(sl).tolist() == want[2:5]
    # chunked column (what map_batches hands over)
    ch = pa.chunked_array([arr.slice(0, 3), arr.slice(3)])
    assert _kmv_hash_vec(ch).tolist() == want


def test_hll_fold_rank_brute_force():
    """reg = h mod 64, rank = 26 - bit_length(h // 64) — checked against
    int.bit_length over the edge values (w = 0, 1, 2^k, 2^k - 1, max)."""
    import numpy as np

    from mklab_focused_crawler_ray.pipelines.queries_crawl import (
        HLL_M,
        HLL_WBITS,
        _hll_fold,
    )

    ws = [0, 1, 2, 3, 4, 7, 8, (1 << 24) - 1, 1 << 24, (1 << 25) - 1]
    hs = np.array([w * HLL_M + (i % HLL_M) for i, w in enumerate(ws)], np.int64)
    regs = _hll_fold(hs)
    expect = np.zeros(HLL_M, np.int64)
    for i, w in enumerate(ws):
        r = i % HLL_M
        expect[r] = max(expect[r], (HLL_WBITS + 1) - int(w).bit_length())
    assert regs.tolist() == expect.tolist()
    # rank range sanity: w=0 → 26 (all rank bits zero), w=max → 1
    assert (HLL_WBITS + 1) - 0 == 26 and (HLL_WBITS + 1) - 25 == 1


def test_hll_estimate_branches():
    """Raw-branch vs linear-counting small-range correction, replayed
    against the same float expressions in DuckDB."""
    import duckdb
    import numpy as np

    from mklab_focused_crawler_ray.pipelines.queries_crawl import (
        HLL_ALPHA,
        HLL_M,
        HLL_WBITS,
        _hll_estimate,
    )

    con = duckdb.connect()
    wb1 = HLL_WBITS + 1

    # linear-counting branch: few registers hit
    regs = np.zeros(HLL_M, np.int64)
    regs[:4] = 3
    v, est = _hll_estimate(regs)
    assert v == HLL_M - 4
    duck = con.execute(
        f"SELECT CAST(FLOOR({HLL_M} * LN({HLL_M} / CAST({v} AS DOUBLE)) + 0.5) AS BIGINT)"
    ).fetchone()[0]
    assert est == duck

    # raw branch: every register hit with a high rank
    regs = np.full(HLL_M, 10, np.int64)
    v, est = _hll_estimate(regs)
    assert v == 0
    snum = HLL_M * (1 << (wb1 - 10))
    duck = con.execute(
        f"SELECT CAST(FLOOR({HLL_ALPHA} * {HLL_M} * {HLL_M} * "
        f"CAST({1 << wb1} AS DOUBLE) / {snum} + 0.5) AS BIGINT)"
    ).fetchone()[0]
    assert est == duck


def test_salt_shard_quantization():
    from mklab_focused_crawler_ray.pipelines.queries_crawl import SALT_SPLIT_URLS

    s = SALT_SPLIT_URLS
    ceil = lambda n: (n + s - 1) // s  # noqa: E731
    assert ceil(1) == 1 and ceil(s) == 1 and ceil(s + 1) == 2 and ceil(4 * s) == 4


def test_canonicalize_url_rules():
    from mklab_focused_crawler_ray.functions.urls import canonicalize_url

    # every rule at once
    c, fl = canonicalize_url(
        "HTTPS://News.Example.COM:443/p/1/?utm_source=a&b=2&a=1#frag"
    )
    assert c == "https://news.example.com/p/1?a=1&b=2"
    assert fl == (True, True, True, True, True, True)
    # already canonical → untouched, all-False
    c, fl = canonicalize_url("https://h.com/p/1?a=1&b=2")
    assert c == "https://h.com/p/1?a=1&b=2" and not any(fl)
    # empty path → '/', root slash NOT stripped
    assert canonicalize_url("https://h.com")[0] == "https://h.com/"
    assert canonicalize_url("https://h.com/")[0] == "https://h.com/"
    # :80 only strips for http, :443 only for https
    assert canonicalize_url("http://h.com:80/x")[0] == "http://h.com/x"
    assert canonicalize_url("https://h.com:80/x")[0] == "https://h.com:80/x"
    assert canonicalize_url("https://h.com:8080/x")[0] == "https://h.com:8080/x"
    # ref= is tracking; referer= is NOT (key must match exactly)
    assert canonicalize_url("https://h.com/x?ref=1")[0] == "https://h.com/x"
    assert (
        canonicalize_url("https://h.com/x?referer=1")[0]
        == "https://h.com/x?referer=1"
    )
    # utm_* wildcard
    assert canonicalize_url("https://h.com/x?utm_anything=1")[0] == "https://h.com/x"
    # sort is byte order; duplicates kept
    assert (
        canonicalize_url("https://h.com/x?b=1&a=2&a=2")[0]
        == "https://h.com/x?a=2&a=2&b=1"
    )
    # unparseable → identity, all-False
    c, fl = canonicalize_url("not a url")
    assert c == "not a url" and not any(fl)
    # userinfo keeps its case; only host[:port] after the LAST '@' lowers
    c, fl = canonicalize_url("https://user:PW@H.com/x")
    assert c == "https://user:PW@h.com/x" and fl[0]
    c, fl = canonicalize_url("https://USER:pw@h.com/x")
    assert c == "https://USER:pw@h.com/x" and not any(fl)


def test_url_canonical_audit_userinfo_vs_duckdb(tmp_path):
    """The DuckDB replay splits userinfo at the last '@' like
    canonicalize_url: case-differing passwords stay distinct URLs."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from mklab_focused_crawler_ray.functions.urls import canonicalize_url
    from mklab_focused_crawler_ray.pipelines.queries_crawl import _url_canonical_audit_sql

    raw = [
        "https://user:PW@H.com/x",
        "https://user:PW@h.com/x",
        "https://USER:pw@h.com/x",
        "http://a@b:PW@H.com:80/y",
    ]
    path = str(tmp_path / "raw_urls.parquet")
    pq.write_table(pa.table({"raw_url": raw}), path)
    got = duckdb.sql(_url_canonical_audit_sql(path)).df().iloc[0]
    res = [canonicalize_url(u) for u in raw]
    assert [c for c, _ in res] == [
        "https://user:PW@h.com/x",
        "https://user:PW@h.com/x",
        "https://USER:pw@h.com/x",
        "http://a@b:PW@h.com/y",
    ]
    assert got["n_unique_canonical"] == 3 and got["n_collided_raw"] == 2
    assert got["n_case_fixed"] == sum(fl[0] for _, fl in res) == 2
    assert got["n_port_stripped"] == sum(fl[1] for _, fl in res) == 1
    assert got["n_changed"] == sum(c != u for (c, _), u in zip(res, raw)) == 2


def test_url_canonical_audit_bare_query_vs_duckdb(tmp_path):
    """A bare trailing '?' is an emptied query: canonicalize_url drops it
    under tracking_removed and the DuckDB replay counts it the same way,
    while a '?' inside the fragment is not a query."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from mklab_focused_crawler_ray.functions.urls import canonicalize_url
    from mklab_focused_crawler_ray.pipelines.queries_crawl import _url_canonical_audit_sql

    raw = [
        "https://h.com/x?",
        "https://h.com/y?#top",
        "https://h.com/z#a?b",
        "https://h.com/w?a=1",
    ]
    path = str(tmp_path / "raw_urls.parquet")
    pq.write_table(pa.table({"raw_url": raw}), path)
    got = duckdb.sql(_url_canonical_audit_sql(path)).df().iloc[0]
    res = [canonicalize_url(u) for u in raw]
    assert [c for c, _ in res] == [
        "https://h.com/x",
        "https://h.com/y",
        "https://h.com/z",
        "https://h.com/w?a=1",
    ]
    assert [fl[3] for _, fl in res] == [True, True, False, False]
    # every changed URL names at least one rule
    assert all(any(fl) for c, fl in res if c != "https://h.com/w?a=1")
    assert got["n_tracking_removed"] == 2
    assert got["n_fragment_dropped"] == 2
    assert got["n_changed"] == 3


def test_url_canonical_audit_tiny_vs_duckdb(ray_session):
    """End-to-end on the tiny tier: the distributed audit equals the
    DuckDB replay over the same raw_urls table."""
    import duckdb
    import pandas as pd

    from mklab_focused_crawler_ray.pipelines.queries_crawl import (
        _fx_raw_urls,
        _url_canonical_audit_sql,
        q_url_canonical_audit,
    )

    raw = _fx_raw_urls("/root/testdata/sf0.001")
    got = q_url_canonical_audit("/root/testdata/sf0.001").to_pandas()
    exp = duckdb.sql(_url_canonical_audit_sql(raw)).df()
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], exp[sorted(exp.columns)], check_dtype=False
    )
    # planted defects mean every rule fires even at 500 urls
    assert (got.iloc[0][[c for c in got.columns if c.startswith("n_")]] > 0).all()
    assert got.iloc[0]["n_collided_raw"] > 0


def test_hrw_mixer_matches_pure_python():
    from mklab_focused_crawler_ray.pipelines.queries_crawl import (
        _HRW_A,
        _HRW_B,
        _HRW_C,
        _HRW_M,
        _hrw_hash_vec,
    )

    def ref(k, s):
        x = (k * _HRW_A + s * _HRW_B) % _HRW_M
        x ^= x >> 16
        x = (x * _HRW_C) % _HRW_M
        x ^= x >> 13
        return x

    keys = np.array([0, 1, 7, 12345, 99999, 2**31 - 1], np.int64)
    for s in (0, 3, 16):
        got = _hrw_hash_vec(keys, s)
        assert got.tolist() == [ref(int(k), s) for k in keys]


def test_hrw_rebalance_consistent_hashing_property(ray_session):
    """Adding one shard must move keys ONLY into the new shard, and only
    ~1/(N+1) of them — the whole point of rendezvous hashing."""
    import duckdb
    import pandas as pd

    from mklab_focused_crawler_ray.pipelines.queries_crawl import (
        HRW_SHARDS,
        _fx_raw_urls,
        _hrw_rebalance_sql,
        q_hrw_shard_rebalance,
    )

    got = q_hrw_shard_rebalance("/root/testdata/sf0.001").to_pandas()
    exp = duckdb.sql(
        _hrw_rebalance_sql(_fx_raw_urls("/root/testdata/sf0.001"))
    ).df()
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    n = int(got["n_before"].sum())
    assert int(got["n_after"].sum()) == n
    # moves land exclusively in the new shard
    assert (got.loc[got["shard"] < HRW_SHARDS, "n_moved_in"] == 0).all()
    moved = int(got["n_moved_in"].sum())
    assert moved == int(got.loc[got["shard"] == HRW_SHARDS, "n_after"].iloc[0])
    # ~1/(N+1) of keys move (generous 2x band; mod-hashing would move ~94%)
    frac = moved / n
    assert 0.5 / (HRW_SHARDS + 1) < frac < 2.0 / (HRW_SHARDS + 1)


def test_robots_pattern_to_regex():
    import re

    from mklab_focused_crawler_ray.fixtures.generate import (
        robots_pattern_to_regex,
    )

    rx = re.compile(robots_pattern_to_regex("/p/*4$"))
    assert rx.match("/p/1234") and not rx.match("/p/1234/x") and not rx.match("/p/45")
    rx = re.compile(robots_pattern_to_regex("/p/0*"))
    assert rx.match("/p/0x/y") and not rx.match("/x/p/0")
    # '?' in a rule is a literal, not regex any-char
    rx = re.compile(robots_pattern_to_regex("/p/*?*"))
    assert rx.match("/p/1?a=1") and not rx.match("/p/1")
    # mid-pattern '$' is literal; only trailing '$' anchors
    rx = re.compile(robots_pattern_to_regex("/a$b"))
    assert rx.match("/a$b/c") and not rx.match("/ab")


def test_robots_wildcard_precedence(ray_session, tmp_path):
    """Hand-built rules + URLs: longest match wins, Allow beats Disallow
    on ties, no match allows; engine == DuckDB replay."""
    import duckdb
    import pandas as pd
    import pyarrow.parquet as pq

    from mklab_focused_crawler_ray.fixtures.generate import (
        robots_pattern_to_regex,
    )
    from mklab_focused_crawler_ray.pipelines.queries_crawl import (
        _robots_wildcard_sql,
    )

    rules = [
        ("h.com", "/p/0*", False),
        ("h.com", "/p/00*", True),  # longer allow overrides
        ("h.com", "/q/*9$", False),
        ("tie.com", "/x*", False),
        ("tie.com", "/x*", True),  # equal length → allow wins
    ]
    pq.write_table(
        pa.table(
            {
                "host": pa.array([r[0] for r in rules], pa.string()),
                "rule": pa.array([r[1] for r in rules], pa.string()),
                "allow": pa.array([r[2] for r in rules], pa.bool_()),
                "rule_regex": pa.array(
                    [robots_pattern_to_regex(r[1]) for r in rules], pa.string()
                ),
            }
        ),
        str(tmp_path / "rw.parquet"),
    )
    urls = [
        ("https://h.com/p/01", True),  # /p/0* disallow, /p/00* no match
        ("https://h.com/p/001", False),  # /p/00* allow (longer) overrides
        ("https://h.com/q/19", True),  # $-anchored disallow
        ("https://h.com/q/19/x", False),  # anchor prevents match
        ("https://h.com/other", False),  # no match → allowed
        ("https://tie.com/xyz", False),  # tie → allow wins
        ("https://norules.com/a", False),  # host without rules
    ]
    pq.write_table(
        pa.table(
            {
                "url_id": pa.array(range(len(urls)), pa.int64()),
                "raw_url": pa.array([u for u, _ in urls], pa.string()),
            }
        ),
        str(tmp_path / "raw.parquet"),
    )
    sql = _robots_wildcard_sql(
        str(tmp_path / "raw.parquet"), str(tmp_path / "rw.parquet")
    )
    got = duckdb.sql(sql).df().set_index("host").sort_index()
    assert int(got.loc["h.com", "n_blocked"]) == 2
    assert int(got.loc["h.com", "n_urls"]) == 5
    assert int(got.loc["tie.com", "n_blocked"]) == 0
    assert int(got.loc["norules.com", "n_blocked"]) == 0

    # engine replay of the same precedence on the same planted tables:
    # run the kernel inline (the query function binds fixture paths, so
    # drive its matching logic through the SQL-checked fixture instead)
    from mklab_focused_crawler_ray.pipelines.queries_crawl import (
        q_robots_wildcard_gate,
    )

    eng = (
        q_robots_wildcard_gate("/root/testdata/sf0.001")
        .to_pandas()
        .sort_values("host")
        .reset_index(drop=True)
    )
    from mklab_focused_crawler_ray.pipelines.queries_crawl import (
        _fx_raw_urls,
        _fx_robots_wildcards,
    )

    exp = (
        duckdb.sql(
            _robots_wildcard_sql(
                _fx_raw_urls("/root/testdata/sf0.001"),
                _fx_robots_wildcards("/root/testdata/sf0.001"),
            )
        )
        .df()
        .sort_values("host")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(eng, exp, check_dtype=False)
    assert eng["n_blocked"].sum() > 0  # planted rules actually fire


def test_bloom_fp_audit_theory_band(ray_session):
    """Engine == DuckDB replay at the tiny tier, and the measured FP
    rate lands in a generous band around the theory value fill^k."""
    import duckdb
    import pandas as pd

    from mklab_focused_crawler_ray.pipelines.queries_crawl import (
        BLOOM_K,
        _bloom_fp_sql,
        _fx_raw_urls,
        q_bloom_fp_audit,
    )

    got = q_bloom_fp_audit("/root/testdata/sf0.001").to_pandas()
    exp = duckdb.sql(
        _bloom_fp_sql(_fx_raw_urls("/root/testdata/sf0.001"))
    ).df()
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    r = got.iloc[0]
    assert r["n_inserted"] + r["n_probed"] == 500  # disjoint halves
    fill = r["fill_ppm"] / 1_000_000
    theory = fill**BLOOM_K
    # 250 probes at tiny → noisy; just bound it loosely above 0 and
    # below many-sigma of theory (the sf0.01 tier lands within ~2%)
    assert 0 <= r["fp_ppm"] / 1_000_000 <= max(10 * theory, 0.05)
