"""The corpus cache (``mklab_focused_crawler_ray/cache.py``): one key rule,
one crash-safe publish step and one in-process memo for every derived
table in the query and stage layers — and a source scan that keeps it the
only one."""

from __future__ import annotations

import ast
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from mklab_focused_crawler_ray import cache

PKG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "mklab_focused_crawler_ray")


@pytest.fixture
def root(tmp_path, monkeypatch):
    """Point the cache at a private root so tests never share entries."""
    r = str(tmp_path / "cache")
    monkeypatch.setattr(cache, "ROOT", r)
    return r


def _write_src(path, text):
    pq.write_table(pa.table({"doc_id": [1], "text": [text]}), str(path))


# --------------------------------------------------------------------------
# key
# --------------------------------------------------------------------------


def test_key_follows_content_and_name(root, tmp_path):
    src = tmp_path / "documents.parquet"
    _write_src(src, "alpha beta")
    k1 = cache.key("pairs.parquet", str(src))
    assert k1 == cache.key("pairs.parquet", str(src))  # stable
    assert os.path.dirname(k1) == root
    assert os.path.basename(k1).startswith("pairs-") and k1.endswith(".parquet")
    assert cache.key("other.parquet", str(src)) != k1
    time.sleep(0.01)
    _write_src(src, "gamma delta epsilon")
    assert cache.key("pairs.parquet", str(src)) != k1  # rewrite → new key
    # multi-source keys change when any source changes
    other = tmp_path / "other.parquet"
    _write_src(other, "x")
    k2 = cache.key("both", str(src), str(other))
    time.sleep(0.01)
    _write_src(other, "xy")
    assert cache.key("both", str(src), str(other)) != k2


# --------------------------------------------------------------------------
# materialize
# --------------------------------------------------------------------------


class _Boom(RuntimeError):
    pass


def _file_writer(fail: bool):
    def write(tmp):
        with open(tmp, "w") as f:
            f.write("half")
            if fail:
                raise _Boom()
            f.write(" and whole")

    return write


def _dir_writer(fail: bool):
    def write(tmp):
        os.makedirs(os.path.join(tmp, "part=0"))
        with open(os.path.join(tmp, "part=0", "a.parquet"), "w") as f:
            f.write("a")
        if fail:
            raise _Boom()
        os.makedirs(os.path.join(tmp, "part=1"))
        with open(os.path.join(tmp, "part=1", "b.parquet"), "w") as f:
            f.write("b")

    return write


def test_materialize_file_crash_publishes_nothing(root):
    path = os.path.join(root, "t-0.txt")
    with pytest.raises(_Boom):
        cache.materialize(path, _file_writer(fail=True))
    assert not os.path.exists(path)
    assert os.path.exists(path + ".tmp")  # the leftover of the crash
    assert cache.materialize(path, _file_writer(fail=False)) == path
    assert open(path).read() == "half and whole"
    assert not os.path.exists(path + ".tmp")
    # published → the writer is never called again
    assert cache.materialize(path, _file_writer(fail=True)) == path


def test_materialize_dir_crash_publishes_nothing(root):
    path = os.path.join(root, "layout-0")
    with pytest.raises(_Boom):
        cache.materialize(path, _dir_writer(fail=True))
    assert not os.path.exists(path)
    assert os.path.isdir(path + ".tmp")
    cache.materialize(path, _dir_writer(fail=False))
    assert sorted(os.listdir(path)) == ["part=0", "part=1"]
    assert os.listdir(os.path.join(path, "part=0")) == ["a.parquet"]  # no stale half
    assert not os.path.exists(path + ".tmp")


# --------------------------------------------------------------------------
# memo
# --------------------------------------------------------------------------


def test_memo_holds_one_corpus_per_name(monkeypatch):
    monkeypatch.setattr(cache, "MEMO", {})
    calls = []

    def build(v):
        def f():
            calls.append(v)
            return v

        return f

    assert cache.memo("n", "a", build(1)) == 1
    assert cache.memo("n", "a", build(2)) == 1  # hit
    assert cache.memo("n", "b", build(3)) == 3  # new token evicts
    assert cache.memo("n", "a", build(4)) == 4  # so "a" is rebuilt
    assert cache.memo("m", "a", build(5)) == 5  # names are independent
    assert calls == [1, 3, 4, 5]
    assert set(cache.MEMO) == {"n", "m"}


def test_centroid_memo_is_cleared_and_bounded(monkeypatch, tmp_path):
    """train_centroids used to memo into a private, unbounded dict that
    clear_query_memos() never cleared."""
    from mklab_focused_crawler_ray.pipelines.queries import clear_query_memos
    from mklab_focused_crawler_ray.stages import ann

    monkeypatch.setattr(cache, "MEMO", {})
    builds = []

    def fake_train(emb, nlist, sample, iters, seed):
        builds.append(emb)
        return np.full((nlist, 2), len(builds), np.float32)

    monkeypatch.setattr(ann, "_train_centroids", fake_train)
    a, b = tmp_path / "a.parquet", tmp_path / "b.parquet"
    for p in (a, b):
        pq.write_table(pa.table({"vec_id": [1]}), str(p))

    ann.train_centroids(str(a), 4)
    ann.train_centroids(str(a), 4)
    assert builds == [str(a)]  # memo hit
    clear_query_memos()
    ann.train_centroids(str(a), 4)
    assert builds == [str(a)] * 2  # cleared → built again
    ann.train_centroids(str(b), 4)
    ann.train_centroids(str(a), 4)
    assert builds == [str(a), str(a), str(b), str(a)]  # b evicted a
    assert len(cache.MEMO) == 1


# --------------------------------------------------------------------------
# fixture-local signature tables follow their source's content
# --------------------------------------------------------------------------


def test_image_signatures_follow_regenerated_tier(root, tmp_path):
    from mklab_focused_crawler_ray.fixtures.codecs import decode as cdecode
    from mklab_focused_crawler_ray.fixtures.generate import generate_tier
    from mklab_focused_crawler_ray.pipelines.queries_media import blur_signature_parquet
    from mklab_focused_crawler_ray.stages.image import lap_var_stats

    fdir = generate_tier("tiny", str(tmp_path / "tiny"))
    before = pq.read_table(blur_signature_parquet(fdir)).to_pandas()
    generate_tier("tiny", fdir, seed=7, force=True)
    got = pq.read_table(blur_signature_parquet(fdir)).to_pandas()

    src = pq.read_table(os.path.join(fdir, "images.parquet"))
    want = [
        (iid, *lap_var_stats(cdecode(blob, fmt)))
        for iid, blob, fmt in zip(
            src["image_id"].to_pylist(), src["bytes"].to_pylist(), src["fmt"].to_pylist()
        )
    ]
    assert list(got.itertuples(index=False, name=None)) == want
    assert not got.equals(before)


def test_av_signatures_follow_rewritten_tables(root, tmp_path, monkeypatch):
    from mklab_focused_crawler_ray.fixtures import generate
    from mklab_focused_crawler_ray.pipelines.queries_media import audio_signature_parquet
    from mklab_focused_crawler_ray.stages.av import audio_features, decode_wav_pcm16

    fdir = str(tmp_path / "tiny")
    generate.ensure_av_tables("tiny", fdir)
    before = pq.read_table(audio_signature_parquet(fdir)).to_pandas()
    time.sleep(0.01)
    monkeypatch.setattr(generate, "AV_VERSION", generate.AV_VERSION + 1)
    generate.ensure_av_tables("tiny", fdir, seed=7)  # rewrites audio.parquet
    got = pq.read_table(audio_signature_parquet(fdir)).to_pandas()

    src = pq.read_table(os.path.join(fdir, "audio.parquet"))
    want = [audio_features(*decode_wav_pcm16(b)) for b in src["bytes"].to_pylist()]
    assert got["clip_id"].tolist() == src["clip_id"].to_pylist()
    for k in ("sr", "n_samples", "rms", "peak", "zero_cross"):
        assert got[k].tolist() == [w[k] for w in want]
    assert not got.equals(before)


# --------------------------------------------------------------------------
# guard: the cache stays the only one
# --------------------------------------------------------------------------


def _sources():
    for d, _, files in os.walk(PKG):
        for f in files:
            if f.endswith(".py"):
                p = os.path.join(d, f)
                yield os.path.relpath(p, PKG).replace(os.sep, "/"), open(p).read()


# module-level empty dicts that are NOT per-corpus memos: the per-worker
# fetch thread-pool registry and the crawl data plane's bounded per-image
# embed cache (worker-process local, keyed by image id)
_NOT_MEMOS = {("stages/live.py", "_EXECUTORS"), ("stages/visual.py", "_EMBED_CACHE")}


def test_cache_rules_live_only_in_cache_module():
    mtime, tmp_lit, replace, fixture_env = [], [], [], []
    for rel, text in _sources():
        fixture_env += [rel] * text.count('environ.get("GRAFT_FIXTURE_ROOT"')
        if rel != "cache.py":
            if "st_mtime_ns" in text:
                mtime.append(rel)
            n = text.count("/tmp/mkfc_")
            if n and not (rel == "fixtures/generate.py" and n == 1):
                tmp_lit.append(rel)
        if (
            rel.startswith(("pipelines/", "stages/"))
            and rel != "pipelines/crawl.py"
            and "os.replace(" in text
        ):
            replace.append(rel)
    assert mtime == [], "hand-rolled staleness key (use cache.key)"
    assert tmp_lit == [], "hard-coded cache root (use cache.ROOT)"
    assert replace == [], "hand-rolled publish (use cache.materialize)"
    assert fixture_env == ["fixtures/generate.py"], "use generate.fixture_root()"


def test_exactly_one_module_level_memo_dict():
    found = []
    for rel, text in _sources():
        for node in ast.parse(text).body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            empty = (isinstance(value, ast.Dict) and not value.keys) or (
                isinstance(value, ast.Call)
                and getattr(value.func, "id", getattr(value.func, "attr", None))
                in ("dict", "OrderedDict")
                and not value.args
            )
            if empty:
                found += [
                    (rel, t.id)
                    for t in targets
                    if isinstance(t, ast.Name) and (rel, t.id) not in _NOT_MEMOS
                ]
    assert found == [("cache.py", "MEMO")]
