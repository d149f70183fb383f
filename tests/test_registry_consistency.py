"""Wiring guards for the driver contract: every name a correctness gate
has checked, every benchmark query and every crawl-frontier query must
stay registered with its oracle, every bench query must be registered,
every oracle key must have a query, the library must never call ray.init
at import time (the driver owns the session), every registered callable
must be importable, and queries register only through ``registry.query``
(no second container, no name twice). These catch the
forgot-to-register / renamed-one-side mistakes that otherwise surface
only inside the driver's correctness run."""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys

import pytest


def _repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# the frontier queries of queries_crawl: URL normalization, robots,
# politeness, scheduling, hostgraph and seen-set sizing
CRAWL_QUERIES = (
    "bloom_fp_audit",
    "frontier_hll_distinct",
    "frontier_schedule",
    "frontier_skew_plan",
    "host_fetch_health",
    "host_link_matrix",
    "hrw_shard_rebalance",
    "politeness_rounds",
    "recrawl_due_counts",
    "robots_gate_counts",
    "robots_wildcard_gate",
    "url_canonical_audit",
    "url_expand_final",
)
# checked by rows and schema only: a crawl's trace has no SQL form
ROWS_ONLY = {"crawl_status_counts", "crawl_trace"}


def _contract_names() -> set[str]:
    """Every name a correctness gate record (CORRECTNESS_r*.json at the
    repository root) has checked, plus the benchmark's query mix and the
    crawl-frontier queries."""
    from perfbench.spec import ALL_QUERIES

    names = set(ALL_QUERIES) | set(CRAWL_QUERIES)
    root = _repo_root()
    gates = sorted(f for f in os.listdir(root) if re.fullmatch(r"CORRECTNESS_r\d+\.json", f))
    assert gates, "no correctness gate records found"
    for f in gates:
        with open(os.path.join(root, f)) as fh:
            names |= set(json.load(fh))
    return names


def test_contract_names_stay_registered_with_oracles():
    from mklab_focused_crawler_ray.pipelines.registry import load

    reg = load()
    names = _contract_names()
    missing = sorted(names - set(reg.queries))
    assert not missing, f"contract names not registered: {missing}"
    unchecked = sorted(names - set(reg.checked()) - ROWS_ONLY)
    assert not unchecked, f"contract names without an oracle: {unchecked}"
    crawl = {n for n, fn in reg.queries.items() if fn.__module__.endswith(".queries_crawl")}
    assert crawl == set(CRAWL_QUERIES), sorted(crawl ^ set(CRAWL_QUERIES))


def test_every_bench_query_is_registered():
    import bench

    import __ray_entry__ as e

    registered = set(e.queries())
    missing = [q for q in bench.BENCH_QUERIES if q not in registered]
    assert not missing, f"bench names not in queries(): {missing}"
    assert len(set(bench.BENCH_QUERIES)) == len(bench.BENCH_QUERIES), "dup bench names"


def test_every_oracle_key_has_a_query():
    import __ray_entry__ as e

    queries, oracles = set(e.queries()), set(e.oracle_sql())
    orphans = sorted(oracles - queries)
    assert not orphans, f"oracle_sql keys without queries(): {orphans}"


def test_rows_only_remainder_is_the_documented_set():
    import __ray_entry__ as e

    rows_only = sorted(set(e.queries()) - set(e.oracle_sql()))
    assert rows_only == [
        "approx_distinct_users",
        "crawl_status_counts",
        "crawl_trace",
        "image_visual_clusters_parallel",
    ], rows_only


def test_library_never_calls_ray_init_at_module_level():
    """Walk every library module's AST: `ray.init` may appear only inside
    function bodies guarded by the script/CLI layers — never at module
    scope (the driver imports these with its own session active)."""
    pkg = os.path.join(_repo_root(), "mklab_focused_crawler_ray")
    offenders = []
    for dirpath, _dirs, files in os.walk(pkg):
        for f in files:
            if not f.endswith(".py"):
                continue
            path = os.path.join(dirpath, f)
            tree = ast.parse(open(path).read(), filename=path)
            for node in tree.body:  # module-level statements only
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    continue  # bodies run only when called, under a session
                for sub in ast.walk(node):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr == "init"
                        and isinstance(sub.func.value, ast.Name)
                        and sub.func.value.id == "ray"
                    ):
                        offenders.append(path)
    assert not offenders, f"module-level ray.init in: {offenders}"


def test_all_registered_queries_are_callables():
    import __ray_entry__ as e

    bad = [k for k, v in e.queries().items() if not callable(v)]
    assert not bad, bad


def test_registering_a_name_twice_raises():
    from mklab_focused_crawler_ray.pipelines.registry import Registry, load

    reg = Registry()
    reg.query("a", "SELECT 1")(len)
    with pytest.raises(ValueError, match="registered twice"):
        reg.query("a")(abs)
    assert reg.queries == {"a": len} and reg.oracles == {"a": "SELECT 1"}

    with pytest.raises(ValueError, match="registered twice"):
        load().query("lang_counts")(abs)
    assert load().queries["lang_counts"].__name__ == "q_lang_counts"


def _container_offenders(src: str) -> list[str]:
    """Module-level dicts named ``*QUERIES`` / ``*ORACLE*``, and any
    ``.update(...)`` or item assignment onto such a name."""

    def container(name: str) -> bool:
        return name.endswith("QUERIES") or "ORACLE" in name

    out = []
    tree = ast.parse(src)
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            value = node.value
            is_dict = isinstance(value, (ast.Dict, ast.DictComp)) or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "dict"
            )
            for t in targets:
                if isinstance(t, ast.Name) and container(t.id) and is_dict:
                    out.append(f"dict {t.id} (line {node.lineno})")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "update"
            and isinstance(node.func.value, ast.Name)
            and container(node.func.value.id)
        ):
            out.append(f"{node.func.value.id}.update (line {node.lineno})")
        if isinstance(node, ast.Assign):
            for t in node.targets:
                if (
                    isinstance(t, ast.Subscript)
                    and isinstance(t.value, ast.Name)
                    and container(t.value.id)
                ):
                    out.append(f"{t.value.id}[...] = (line {node.lineno})")
    return out


def test_queries_register_only_through_the_registry():
    """The registry is the only query and oracle container in pipelines/
    (``queries.QUERIES`` is the registry's dict and ``queries.ORACLE_SQL``
    a view over it)."""
    pkg = os.path.join(_repo_root(), "mklab_focused_crawler_ray", "pipelines")
    offenders = []
    for f in sorted(os.listdir(pkg)):
        if f.endswith(".py") and f != "registry.py":
            with open(os.path.join(pkg, f)) as fh:
                offenders += [f"{f}: {o}" for o in _container_offenders(fh.read())]
    assert not offenders, offenders


def test_container_scan_bites():
    src = (
        "X_QUERIES = {'a': f}\n"
        "MEDIA_ORACLE_SQL = dict(a='SELECT 1')\n"
        "def g():\n    X_QUERIES.update({'b': h})\n"
        "ORACLE_SQL['c'] = 'SELECT 2'\n"
        "N_QUERIES = 5\n"
    )
    assert len(_container_offenders(src)) == 4


def test_listing_queries_and_oracles_starts_no_ray():
    """Listing the queries and the names of their oracles builds no
    oracle, so it runs no Ray job and starts no Ray session."""
    code = (
        "import ray\n"
        "import __ray_entry__ as e\n"
        "from mklab_focused_crawler_ray.pipelines import queries, registry\n"
        "names = registry.load().checked()\n"
        "assert set(queries.ORACLE_SQL) < set(names) <= set(e.queries())\n"
        "assert not ray.is_initialized()\n"
    )
    subprocess.run([sys.executable, "-c", code], cwd=_repo_root(), check=True, timeout=300)
