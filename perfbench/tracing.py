"""Instrumentation used only by the traced run (``--trace 1``).

Everything here wraps the package from outside: spans around calls into
``RayCrawler`` and the query callables, a ``FrontierShard`` subclass that
times each shard method, a parser for ``Dataset.stats()`` text, and the
no-Ray replays of the fetch/extract and embed stages.
"""

from __future__ import annotations

import itertools
import os
import re
import threading
import time
from contextlib import contextmanager

from mklab_focused_crawler_ray.state.frontier import FrontierShard

from .spec import FRONTIER_COUNTS


class Spans:
    """In-memory span log: (id, name, start, end, parent). A thread's
    parent is the innermost open span on that thread, else ``root``."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.root: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self.root
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    {"id": sid, "name": name, "start": start, "end": end, "parent": parent}
                )

    def total(self, name: str, since: int = 0) -> float:
        """Summed duration of the spans called ``name`` that ended at or
        after position ``since`` of the log."""
        return sum(s["end"] - s["start"] for s in self.spans[since:] if s["name"] == name)


def wrap_method(obj, attr: str, spans: Spans, name: str, after=None) -> None:
    """Replace ``obj.attr`` with a spanned call; ``after(args, result)``
    runs inside the span once the call returns."""
    orig = getattr(obj, attr)

    def call(*args, **kwargs):
        with spans.span(name):
            out = orig(*args, **kwargs)
            if after is not None:
                after(args, out)
            return out

    setattr(obj, attr, call)


# shard method -> frontier.<name>_s metric stem
_SHARD_METHODS = {
    "enqueue": "enqueue",
    "propose": "propose",
    "commit": "commit",
    "contains_urls": "contains",
    "mark_seen": "mark_seen",
    "checkpoint": "checkpoint",
    "restore": "restore",
}


class TimedFrontierShard(FrontierShard):
    """FrontierShard that keeps busy seconds per method (read with
    ``busy()``). The traced run swaps it in for ``FrontierShard``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._busy = dict.fromkeys(_SHARD_METHODS.values(), 0.0)

    def busy(self) -> dict:
        return dict(self._busy)


def _timed(attr: str, stem: str):
    base = getattr(FrontierShard, attr)

    def method(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return base(self, *args, **kwargs)
        finally:
            self._busy[stem] += time.perf_counter() - t0

    method.__name__ = attr
    return method


for _attr, _stem in _SHARD_METHODS.items():
    setattr(TimedFrontierShard, _attr, _timed(_attr, _stem))


_OP_RE = re.compile(r"^\s*(?:Operator \d+|Suboperator \d+) (.+?):")
_WALL_RE = re.compile(r"Remote wall time:.*?([\d.]+)(us|ms|s) total")
_ROWS_RE = re.compile(r"Output num rows per block:.*?(\d+) total")
_UNIT = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def op_kind(op_name: str) -> str:
    """Kind of a (possibly fused) operator, from its first member."""
    first = op_name.split("->")[0]
    if first.startswith(("Aggregate", "Sort", "Repartition", "RandomShuffle", "HashShuffle", "Join")):
        return "all_to_all"
    if first.startswith(("Read", "From", "Input")):
        return "read"
    return "map"


def parse_stats(text: str) -> list[tuple[str, float, int]]:
    """``Dataset.stats()`` text -> [(operator kind, remote wall s, rows out)].
    A fused operator counts once, under the kind of its first member (so a
    write fused behind map stages counts as map); an all-to-all operator
    is counted through its suboperators."""
    out: list[tuple[str, float, int]] = []
    kind = None
    wall = 0.0
    for line in text.splitlines():
        m = _OP_RE.match(line)
        if m:
            name = m.group(1)
            if line.lstrip().startswith("Suboperator"):
                kind = "all_to_all"
            else:
                kind = op_kind(name)
            wall = 0.0
            continue
        if kind is None:
            continue
        m = _WALL_RE.search(line)
        if m:
            wall = float(m.group(1)) * _UNIT[m.group(2)]
            continue
        m = _ROWS_RE.search(line)
        if m:
            out.append((kind, wall, int(m.group(1))))
    return out


def add_stats(layer: dict, prefix: str, text: str) -> None:
    """Add one ``Dataset.stats()`` text to the ``ray_data.<prefix>...``
    metrics: per operator kind for queries; summed over every operator
    for the crawl, whose read is fused into its map stages."""
    for kind, wall, rows in parse_stats(text):
        op = f"{prefix}.{kind}" if prefix == "query" else prefix
        layer[f"ray_data.{op}.wall_s"] = layer.get(f"ray_data.{op}.wall_s", 0.0) + wall
        layer[f"ray_data.{op}.rows_out"] = layer.get(f"ray_data.{op}.rows_out", 0) + rows


class CrawlTracer:
    """Spans round methods, collects the timing shards' busy time and
    replays the side-effect-free stages without Ray, for one traced
    kill-and-resume crawl. Writes its per-layer values into ``layer``.

    The embed stage is replayed on every round, also when the crawl
    config leaves it out: ``embed.*`` then gives the cost that stage
    would add to this workload's rounds."""

    ROUND_METHODS = (
        ("enqueue_seeds", "crawl.seed_enqueue"),
        ("maybe_resume", "crawl.resume"),
        ("_round_control", "crawl.control"),
        ("_wait_enqueue", "crawl.enqueue_wait"),
        ("_tail_join", "crawl.tail"),
        ("_checkpoint_shards", "crawl.checkpoint"),
        ("_finalize_checkpoint", "crawl.checkpoint"),
    )

    def __init__(self, spans: Spans, layer: dict, fixture_dir: str):
        self.spans = spans
        self.layer = layer
        self.fixture_dir = fixture_dir
        self._own_store = None
        self.tables: list = []
        self.busy: dict[str, float] = {}
        self.since = len(spans.spans)

    def attach(self, crawler) -> None:
        spans = self.spans
        self.tables = []
        for attr, name in self.ROUND_METHODS:
            wrap_method(crawler, attr, spans, name)
        wrap_method(
            crawler, "_build_pipeline", spans, "crawl.build_pipeline",
            after=lambda args, out: self.tables.append(args[1]),
        )
        wrap_method(
            crawler, "_write_round", spans, "crawl.pipeline",
            after=lambda args, out: add_stats(self.layer, "crawl", args[1].stats()),
        )

    def after_crawler(self, crawler, res: dict | None = None) -> None:
        import ray

        for b in ray.get([s.busy.remote() for s in crawler.shards]):
            for stem, v in b.items():
                self.busy[stem] = self.busy.get(stem, 0.0) + v
        self._replay(crawler)
        if res is None:
            return
        lay = self.layer
        spans = self.spans
        lay["crawl.seed_enqueue_s"] = spans.total("crawl.seed_enqueue", self.since)
        lay["crawl.checkpoint_s"] = spans.total("crawl.checkpoint", self.since)
        for stem, v in self.busy.items():
            lay[f"frontier.{stem}_s"] = v
        stats = res["shard_stats"]
        for c in FRONTIER_COUNTS:
            lay[f"frontier.{c}"] = sum(s[c] for s in stats)
        tried = sum(s["enqueued"] + s["dup_pending"] + s["dup_seen"] + s["robots_denied"] for s in stats)
        lay["frontier.dup_ratio"] = (
            sum(s["dup_pending"] + s["dup_seen"] for s in stats) / tried if tried else 0.0
        )
        per_shard = [s["enqueued"] + s["scheduled"] + s["dup_pending"] + s["dup_seen"] for s in stats]
        mean = sum(per_shard) / len(per_shard)
        lay["frontier.shard_skew"] = max(per_shard) / mean if mean else 0.0

    def _replay(self, crawler) -> None:
        """Run fetch/extract (and embed) on each round's selected table
        in this process, without Ray. enqueue_links is never replayed: it
        writes to the frontier shards."""
        import pyarrow as pa
        import pyarrow.compute as pc

        from mklab_focused_crawler_ray.stages.fetch import make_fetch_extract
        from mklab_focused_crawler_ray.stages.visual import make_media_embed

        lay = self.layer
        lay["crawl.rounds"] = lay.get("crawl.rounds", 0) + len(self.tables)
        fetch = make_fetch_extract(crawler.page_store_ref)
        embed = make_media_embed(self._image_store(crawler), use_cache=False)
        for tbl in self.tables:
            lay["expand.dup_after_expand"] = lay.get("expand.dup_after_expand", 0) + int(
                pc.sum(pc.equal(tbl["status"], "dup_after_expand")).as_py() or 0
            )
            t0 = time.perf_counter()
            fetched = fetch(tbl)
            lay["fetch.kernel_s"] = lay.get("fetch.kernel_s", 0.0) + time.perf_counter() - t0
            lay["fetch.rows"] = lay.get("fetch.rows", 0) + fetched.num_rows
            failed = pc.is_in(fetched["status"], pa.array(["fetch_failed", "expand_failed"]))
            lay["fetch.error_rows"] = lay.get("fetch.error_rows", 0) + int(
                pc.sum(failed).as_py() or 0
            )
            t0 = time.perf_counter()
            embedded = embed(fetched)
            lay["embed.kernel_s"] = lay.get("embed.kernel_s", 0.0) + time.perf_counter() - t0
            lay["embed.media_items"] = lay.get("embed.media_items", 0) + sum(
                len(v) for v in embedded["media_image_ids"].to_pylist()
            )
        self.tables = []

    def _image_store(self, crawler):
        """The crawler's broadcast image store, or one built the same way
        from the fixture when the crawl does not embed."""
        if crawler.image_store_ref is not None:
            return crawler.image_store_ref
        if self._own_store is None:
            import pyarrow.parquet as pq
            import ray

            from mklab_focused_crawler_ray.stages.visual import build_image_store

            images = pq.read_table(
                os.path.join(self.fixture_dir, "images.parquet"),
                columns=["image_id", "bytes", "fmt"],
            )
            self._own_store = ray.put(build_image_store(images))
        return self._own_store
