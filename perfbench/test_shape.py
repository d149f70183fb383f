"""Shape checks for the benchmark definition and its output line.

    python3 -m pytest perfbench/test_shape.py -q

None of these start Ray. They fail when a workload or metric is missing
from ``BENCHMARK.json``, disagrees with ``perfbench/spec.py``, breaks the
naming rules, or when the result line would be malformed.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import run  # noqa: E402
from perfbench.spec import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# what the benchmark promises to measure; dropping one is a visible change
REQUIRED_WORKLOADS = {"crawl_frontier", "crawl_media"}
REQUIRED_END_TO_END = {
    "setup_s", "fetched_pages_per_sec", "frontier_ops_per_sec", "resume_s",
    "query_suite_s", "peak_rss_mb",
}
REQUIRED_PER_LAYER_PREFIXES = (
    "crawl.", "frontier.", "fetch.", "expand.", "embed.", "ray_data.",
    "query.", "image.",
)
# result lines of real runs, one per workload and --trace value
RECORDED = os.path.join(ROOT, "perfbench", "recorded")


@pytest.fixture(scope="module")
def bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_top_level_keys(bench):
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    assert len(json.dumps(bench)) <= 64 * 1024


def test_workloads_match_spec(bench):
    ws = bench["workloads"]
    assert 2 <= len(ws) <= 8
    assert all(set(w) == {"name", "why"} for w in ws)
    assert [w["name"] for w in ws] == list(WORKLOADS)
    assert REQUIRED_WORKLOADS <= set(WORKLOADS)
    for w in ws:
        assert NAME.match(w["name"])
        assert w["why"] == WORKLOADS[w["name"]]["why"]
        assert "\n" not in w["why"] and len(w["why"]) <= 200


def test_end_to_end_match_spec(bench):
    e2e = bench["end_to_end"]
    assert 1 <= len(e2e) <= 16
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in e2e)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in e2e] == list(END_TO_END)
    assert REQUIRED_END_TO_END == {m["name"] for m in e2e}
    for m in e2e:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in e2e)


def test_per_layer_match_spec(bench):
    pl = bench["per_layer"]
    assert 1 <= len(pl) <= 128
    assert all(set(m) == {"name", "unit", "better"} for m in pl)
    assert [(m["name"], m["unit"], m["better"]) for m in pl] == list(PER_LAYER)
    for m in pl:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
    for prefix in REQUIRED_PER_LAYER_PREFIXES:
        assert any(m["name"].startswith(prefix) for m in pl), prefix
    for wl in WORKLOADS.values():
        for q in wl["queries"]:
            names = {m["name"] for m in pl}
            assert {f"query.{q}_s", f"query.{q}.rows"} <= names


def test_names_unique(bench):
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))


def test_list_metrics_prints_every_metric_with_unit(bench):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--list-metrics"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    want = [f"end_to_end {m['name']} {m['unit']}" for m in bench["end_to_end"]]
    want += [f"per_layer {m['name']} {m['unit']}" for m in bench["per_layer"]]
    assert out == want


class _FakeRun:
    attempted, failed = 3, 0


@pytest.mark.parametrize("trace", [False, True])
def test_result_line_shape(bench, trace):
    metrics = bench["per_layer"] if trace else bench["end_to_end"]
    values = {m["name"]: 1.5 for m in metrics}
    line = json.loads(json.dumps(run.result_line(_FakeRun(), values, trace)))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] == 3 and line["failed"] == 0
    assert list(line["metrics"]) == [m["name"] for m in metrics]
    for m in metrics:
        assert line["metrics"][m["name"]] == {"value": 1.5, "unit": m["unit"]}


def _recorded_lines():
    for name in sorted(os.listdir(RECORDED)):
        with open(os.path.join(RECORDED, name)) as f:
            yield name, json.loads(f.read().strip().splitlines()[-1])


def test_recorded_lines_cover_every_workload(bench):
    names = {name for name, _ in _recorded_lines()}
    want = {f"{w['name']}-trace{t}.json" for w in bench["workloads"] for t in (0, 1)}
    assert want <= names


@pytest.mark.parametrize("name,line", list(_recorded_lines()))
def test_recorded_line_is_well_formed(bench, name, line):
    """What a real run printed: every metric present with its unit, and
    every value a finite number other than 0."""
    metrics = bench["per_layer"] if "-trace1" in name else bench["end_to_end"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert isinstance(line["attempted"], int) and isinstance(line["failed"], int)
    assert list(line["metrics"]) == [m["name"] for m in metrics]
    for m in metrics:
        got = line["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"], m["name"]
        v = got["value"]
        assert isinstance(v, (int, float)) and math.isfinite(v) and v != 0, m["name"]


def test_fails_without_the_package(bench, tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        bench["command"] + ["--workload", bench["workloads"][0]["name"],
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
