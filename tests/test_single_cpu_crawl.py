"""A crawl makes progress on a one-CPU Ray node.

Map tasks and the expand task ask for one whole CPU each, so the frontier
shard actors must reserve none: four shards holding 0.05 CPU each left
0.8 CPU free at ``num_cpus=1`` and the crawl never scheduled a task. The
crawl runs in a subprocess with its own Ray session and a hard timeout;
on timeout the subprocess's whole process group is killed, so no Ray
worker outlives the test.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys

import pytest

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_trace_tiny.json")
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 240

_CRAWL = """
import hashlib, json, sys
import ray

ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext

DataContext.get_current().enable_progress_bars = False
from mklab_focused_crawler_ray.pipelines.config import CrawlConfig
from mklab_focused_crawler_ray.pipelines.crawl import RayCrawler

golden_path, fixture_dir, out_dir = sys.argv[1:4]
with open(golden_path) as f:
    golden = json.load(f)
eng = RayCrawler(fixture_dir, CrawlConfig(**golden["config"]), out_dir=out_dir)
try:
    res = eng.run(checkpoint_every=1)
finally:
    eng.shutdown()
seen = b"".join(int(h).to_bytes(8, "little") for h in sorted(int(h) for h in res["seen_hashes"]))
print(json.dumps({"trace": [list(t) for t in res["trace"]],
                  "seen_sha256": hashlib.sha256(seen).hexdigest()}))
ray.shutdown()
"""


def test_crawl_on_one_cpu_matches_golden(tiny_fixture, tmp_path):
    with open(GOLDEN) as f:
        golden = json.load(f)
    env = {**os.environ, "PYTHONPATH": REPO}
    env.pop("RAY_ADDRESS", None)
    proc = subprocess.Popen(
        [sys.executable, "-c", _CRAWL, GOLDEN, tiny_fixture, str(tmp_path / "out")],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=REPO,
        env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"crawl at num_cpus=1 made no progress within {TIMEOUT_S} s")
    assert proc.returncode == 0, err[-4000:]
    res = json.loads(out.strip().splitlines()[-1])
    assert res["trace"] == golden["trace"]
    assert res["seen_sha256"] == golden["seen_sha256"]
