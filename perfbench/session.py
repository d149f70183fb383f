"""One benchmark run: seeded inputs, warm-up, the timed loop, the checks.

A run starts Ray, then ``prep`` in a child process: the workload's
fixture, then the crawl and query oracles. Once the fixture exists it
warms up with a short crawl; once the oracles exist it repeats one
iteration until ``seconds`` have passed. An iteration is

1. a crawl killed after ``kill_after_round`` rounds and resumed to the end
   by a fresh ``RayCrawler`` from the same checkpoint directory, checked
   against the ``CrawlOracle`` trace and seen-set digests;
2. one pass of the workload's query mix with the package's disk caches
   cleared first, each result checked against its DuckDB oracle.

Every check that fails, and every call that raises, counts as failed.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext

from .prep import canon, seen_digest, trace_digest
from .spec import ALL_QUERIES, PER_LAYER, RAY_NUM_CPUS, WORKLOADS
from .tracing import CrawlTracer, Spans, TimedFrontierShard, add_stats

# a run must end within 180 s: no iteration starts after this many seconds
HARD_STOP_S = 140


class RssSampler:
    """Peak resident set size of this process, sampled from /proc."""

    def __init__(self, interval: float = 0.02):
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    @staticmethod
    def rss_kb() -> int:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
        return 0

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.peak_kb = max(self.peak_kb, self.rss_kb())
            self._stop.wait(self.interval)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5)
        self.peak_kb = max(self.peak_kb, self.rss_kb())


def _descendants(pid: int) -> set[int]:
    """Every live process below ``pid``, from /proc."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z":
            children.setdefault(int(fields[1]), []).append(int(entry))
    found, stack = set(), [pid]
    while stack:
        for child in children.get(stack.pop(), []):
            found.add(child)
            stack.append(child)
    return found


def _wait_gone(pids: set[int], timeout: float) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        live = set()
        for pid in pids:
            try:
                with open(f"/proc/{pid}/stat") as f:
                    if f.read().rsplit(")", 1)[1].split()[0] != "Z":
                        live.add(pid)
            except OSError:
                pass
        if not live:
            return
        pids = live
        time.sleep(0.1)


def _dir_bytes(path: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        for f in files:
            fp = os.path.join(dirpath, f)
            if os.path.isfile(fp):
                total += os.path.getsize(fp)
    return total


def _cpu_ticks() -> list[int]:
    """Machine-wide CPU ticks from /proc/stat: user, nice, system, idle,
    iowait, irq, softirq, steal."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:9]]


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def query_medians(passes: list[dict], queries) -> list[float]:
    """Each query's median time over the passes, so that one slow query
    in one pass does not decide the pass figures built from them."""
    return [_median([p[q] for p in passes if q in p]) for q in queries]


class Run:
    def __init__(self, root: str, workload: str, seed: int, seconds: float, trace: bool):
        self.root = root
        self.name = workload
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        # the traced run times every query of both mixes, so each
        # query.<name> metric has a value on every workload
        self.queries = ALL_QUERIES if trace else self.wl["queries"]
        key_src = json.dumps({"w": self.wl, "seed": seed}, sort_keys=True)
        key = f"{workload}-{seed}-{hashlib.sha256(key_src.encode()).hexdigest()[:12]}"
        self.work = os.path.join(root, ".perfbench_work")
        self.fixture_root = os.path.join(self.work, "fixtures", key)
        self.fixture_dir = os.path.join(self.fixture_root, "small")
        self.oracle_dir = os.path.join(self.work, "oracles", key)
        # any basename other than sf0.001 maps to the fixture root's
        # "small" tier in pipelines.queries_media.fixture_dir_for
        self.sf_dir = os.path.join(self.fixture_root, "sf_bench")
        self.out_root = os.path.join(self.work, "out", workload)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.record: dict = {}
        self.spans = None

    # -- checks --------------------------------------------------------
    def _check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def _fail(self, what: str, ex: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.append(f"{what}: {type(ex).__name__}: {str(ex).splitlines()[0] if str(ex) else ''}")

    # -- set-up ---------------------------------------------------------
    def start_prep(self) -> subprocess.Popen:
        import ray

        address = ray.get_runtime_context().gcs_address
        return subprocess.Popen(
            [sys.executable, "-m", "perfbench.prep", self.name, str(self.seed),
             self.fixture_root, self.oracle_dir, address, *self.queries],
            cwd=self.root, stdout=subprocess.DEVNULL,
        )

    def wait_fixture(self, prep: subprocess.Popen) -> None:
        marker = os.path.join(self.fixture_dir, "_DONE")
        while not os.path.exists(marker):
            if prep.poll() is not None:
                break
            time.sleep(0.05)
        if not os.path.exists(marker):
            raise RuntimeError(f"perfbench.prep exited with {prep.returncode}")

    def load_oracles(self, prep: subprocess.Popen) -> None:
        if prep.wait() != 0:
            raise RuntimeError(f"perfbench.prep exited with {prep.returncode}")
        import pandas as pd

        with open(os.path.join(self.oracle_dir, "crawl.json")) as f:
            self.crawl_oracle = json.load(f)
        self.oracle_frames = {
            q: pd.read_pickle(os.path.join(self.oracle_dir, f"{q}.pkl")) for q in self.queries
        }
        with open(os.path.join(self.oracle_dir, "fixture_entries.json")) as f:
            self.fixture_entries = set(json.load(f))

    def start_ray(self) -> float:
        import ray

        t0 = time.perf_counter()
        ray.init(
            num_cpus=RAY_NUM_CPUS,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            object_store_memory=512 * 1024 * 1024,
            _temp_dir=self.ray_temp_dir(),
        )
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        return time.perf_counter() - t0

    def ray_temp_dir(self) -> str | None:
        # Ray puts unix sockets under its temp dir; their paths must stay
        # below the 107-byte AF_UNIX limit, so a deep checkout keeps the
        # default location
        d = os.path.join(self.work, "ray")
        return d if len(d) <= 40 else None

    def clear_query_caches(self) -> None:
        for e in os.listdir(self.fixture_dir):
            if e not in self.fixture_entries:
                p = os.path.join(self.fixture_dir, e)
                shutil.rmtree(p) if os.path.isdir(p) else os.remove(p)

    # -- crawl ----------------------------------------------------------
    def _cfg(self, **over):
        from mklab_focused_crawler_ray.pipelines.config import CrawlConfig

        return CrawlConfig(**{**self.wl["crawl"], **over})

    def _new_crawler(self, out_dir: str, **over):
        """A RayCrawler whose actors (frontier shards, media collectors,
        enqueue counter) have all started."""
        import ray

        from mklab_focused_crawler_ray.pipelines import crawl as crawl_mod

        c = crawl_mod.RayCrawler(self.fixture_dir, self._cfg(**over), out_dir=out_dir)
        actors = [*c.shards, *(c.media_collectors or ()), c.enq_counter]
        ray.get([a.__ray_ready__.remote() for a in actors])
        return c

    def crawl(self, out_dir: str, layer: dict | None) -> dict:
        """Kill-and-resume crawl. Returns its timings; checks digests.

        Both crawlers are timed the same way: construction until every
        actor it spawned has started is set-up, the rest until ``run()``
        returns is crawl time. ``resume_s`` runs from the start of the replacement
        crawler's construction until its ``maybe_resume()`` returns."""
        import gc

        wl = self.wl
        every = wl["checkpoint_every"]
        k = wl["kill_after_round"]
        shutil.rmtree(out_dir, ignore_errors=True)
        tracer = CrawlTracer(self.spans, layer, self.fixture_dir) if layer is not None else None

        t0 = time.perf_counter()
        first = self._new_crawler(out_dir, max_rounds=k)
        t1 = time.perf_counter()
        if tracer:
            tracer.attach(first)
        first.run(checkpoint_every=every)
        if not every:
            first.checkpoint(k)  # checkpoints are off: write the one the resume needs
        t2 = time.perf_counter()
        first_phases = dict(first.phase_times)
        if tracer:
            tracer.after_crawler(first)
        first.shutdown()
        del first
        gc.collect()

        marks: dict = {}
        t3 = time.perf_counter()
        second = self._new_crawler(out_dir)
        t4 = time.perf_counter()
        resume = second.maybe_resume

        def timed_resume():
            ok = resume()
            marks.setdefault("resumed", ok)
            marks.setdefault("t", time.perf_counter())
            return ok

        second.maybe_resume = timed_resume
        if tracer:
            tracer.attach(second)
        res = second.run(checkpoint_every=every)
        t5 = time.perf_counter()
        if tracer:
            tracer.after_crawler(second, res)
        second.shutdown()

        stats = res["shard_stats"]
        ops = sum(s["enqueued"] + s["scheduled"] + s["dup_pending"] + s["dup_seen"] for s in stats)
        pages = len(res["trace"])
        self._check(bool(marks.get("resumed")), "crawl: replacement crawler did not resume")
        self._check(
            trace_digest(res["trace"]) == self.crawl_oracle["trace_sha256"]
            and seen_digest(res["seen_hashes"]) == self.crawl_oracle["seen_sha256"],
            "crawl: trace or seen-set digest differs from CrawlOracle",
        )
        crawl_s = (t2 - t1) + (t5 - t4)
        if layer is not None:
            for p in first_phases:
                layer[f"crawl.{p}_s"] = first_phases[p] + second.phase_times[p]
            layer["frontier.checkpoint_bytes"] = _dir_bytes(second.checkpoint_dir)
        out = {
            "phase_times": [first_phases, dict(second.phase_times)],
            "setup_s": [t1 - t0, t4 - t3],
            "crawl_s": crawl_s,
            "resume_s": marks.get("t", t5) - t3,
            "pages": pages,
            "frontier_ops": ops,
            "fetched_pages_per_sec": pages / crawl_s,
            "frontier_ops_per_sec": ops / crawl_s,
            "trace_sha256": trace_digest(res["trace"]),
            "seen_sha256": seen_digest(res["seen_hashes"]),
        }
        del second
        gc.collect()
        return out

    def warm_crawl(self) -> None:
        """Untimed short crawl: starts the worker processes and imports."""
        out_dir = os.path.join(self.out_root, "warm")
        shutil.rmtree(out_dir, ignore_errors=True)
        c = self._new_crawler(out_dir, max_rounds=2)
        c.run(checkpoint_every=0)
        c.shutdown()

    # -- queries --------------------------------------------------------
    def query_pass(self, layer: dict | None) -> dict:
        import pandas as pd
        import ray.data

        import __ray_entry__

        queries = __ray_entry__.queries()
        self.clear_query_caches()
        times = {}
        for q in self.queries:
            try:
                with self.spans.span(f"query.{q}") if self.spans else nullcontext():
                    t0 = time.perf_counter()
                    res = queries[q](self.sf_dir)
                    df = res.to_pandas() if hasattr(res, "to_pandas") else res
                    times[q] = time.perf_counter() - t0
                    if layer is not None and isinstance(res, ray.data.Dataset):
                        with self.spans.span("ray_data.stats"):
                            add_stats(layer, "query", res.stats())
                got, want = canon(df), self.oracle_frames[q]
                try:
                    pd.testing.assert_frame_equal(got, want, check_dtype=True)
                    ok = True
                except AssertionError:
                    ok = False
                self._check(ok, f"query {q}: differs from its DuckDB oracle")
                if layer is not None:
                    layer[f"query.{q}_s"] = times[q]
                    layer[f"query.{q}.rows"] = len(df)
            except Exception as ex:  # noqa: BLE001 - a raising query is a failed operation
                self._fail(f"query {q}", ex)
        return times

    # -- the run --------------------------------------------------------
    def execute(self) -> dict:
        import ray

        t_start = time.perf_counter()
        os.environ["GRAFT_FIXTURE_ROOT"] = self.fixture_root
        prep = None
        try:
            ray_init_s = self.start_ray()
            prep = self.start_prep()
            self.wait_fixture(prep)
            self.record["fixture_s"] = time.perf_counter() - t_start
            if self.trace:
                from mklab_focused_crawler_ray.pipelines import crawl as crawl_mod

                self.spans = Spans()
                # every crawler this traced run builds gets timing shards
                crawl_mod.FrontierShard = TimedFrontierShard
            self.warm_crawl()
            self.record["warm_up_done_s"] = time.perf_counter() - t_start
            self.load_oracles(prep)
            self.record["oracles_done_s"] = time.perf_counter() - t_start
            self.record["ray_init_s"] = ray_init_s
            return self._measure(t_start)
        finally:
            if prep is not None and prep.poll() is None:
                prep.kill()
                prep.wait()
            # ray.shutdown() does not wait for the worker processes
            started = _descendants(os.getpid())
            ray.shutdown()
            _wait_gone(started, timeout=20)

    def _measure(self, t_start: float) -> dict:
        crawls, passes, layers = [], [], []
        ticks = _cpu_ticks()
        t_begin = time.perf_counter()
        deadline = t_begin + self.seconds
        with RssSampler() as rss:
            i = 0
            while True:
                layer = {} if self.trace else None
                out_dir = os.path.join(self.out_root, f"it{i % 2}")
                with self.spans.span(f"iteration.{i}") if self.spans else nullcontext() as sid:
                    if self.spans:
                        self.spans.root = sid
                    try:
                        crawls.append(self.crawl(out_dir, layer))
                    except Exception as ex:  # noqa: BLE001 - a raising crawl is a failed operation
                        self._fail("crawl", ex)
                    passes.append(self.query_pass(layer))
                if layer is not None:
                    layer["image.decode_kernel_s"] = self._decode_floor()
                    layers.append(layer)
                i += 1
                now = time.perf_counter()
                per_iter = (now - t_begin) / i
                # start another iteration only if at least half of it
                # fits before the deadline
                if now + per_iter / 2 > deadline or now + per_iter > t_start + HARD_STOP_S:
                    break
        own = query_medians(passes, self.wl["queries"])
        e2e = {
            "setup_s": _median([s for c in crawls for s in c["setup_s"]]),
            "fetched_pages_per_sec": _median([c["fetched_pages_per_sec"] for c in crawls]),
            "frontier_ops_per_sec": _median([c["frontier_ops_per_sec"] for c in crawls]),
            "resume_s": _median([c["resume_s"] for c in crawls]),
            "query_suite_s": sum(own),
            "peak_rss_mb": rss.peak_kb / 1024.0,
        }
        ticks = [b - a for a, b in zip(ticks, _cpu_ticks())]
        self.record.update(
            measured_s=time.perf_counter() - t_begin,
            # share of the machine's CPU time the hypervisor took away
            # during the timed loop: a noisy-neighbour gauge
            steal_share=ticks[7] / max(1, sum(ticks)),
            iterations=crawls,
            query_passes=passes,
            crawl_sha256=sorted({(c["trace_sha256"], c["seen_sha256"]) for c in crawls}),
            # kept out of the metrics: its ten-seed spread went past 0.25
            # whenever the host was busy (see NOTES.md)
            query_p50_s=_median(own),
            end_to_end=e2e,
        )
        if not self.trace:
            return e2e
        per = {name: _median([lay.get(name, 0.0) for lay in layers]) for name, _, _ in PER_LAYER}
        self.write_spans()
        return per

    def _decode_floor(self) -> float:
        """No-Ray floor for stages.image: one decode of the whole corpus."""
        import pyarrow.parquet as pq

        from mklab_focused_crawler_ray.fixtures.codecs import decode

        t = pq.read_table(os.path.join(self.fixture_dir, "images.parquet"), columns=["bytes", "fmt"])
        blobs, fmts = t["bytes"].to_pylist(), t["fmt"].to_pylist()
        t0 = time.perf_counter()
        for b, f in zip(blobs, fmts):
            decode(b, f)
        return time.perf_counter() - t0

    def write_spans(self) -> None:
        path = os.path.join(self.work, f"spans-{self.name}-{self.seed}.json")
        with open(path, "w") as f:
            json.dump(self.spans.spans, f)
        self.record["spans_file"] = os.path.relpath(path, self.root)
