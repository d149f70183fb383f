"""Benchmark entry point.

    python3 perfbench/run.py --workload crawl_frontier --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --list-metrics

Run it from the repository root. The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. The line before it is a JSON record of the
host, the versions, each timed iteration and the end-to-end figures (a
traced run's record gives the tracing overhead against an untraced
run). ``--list-metrics`` prints every metric with its unit, one per line.

Everything the run writes stays under ``.perfbench_work/`` in the
repository root. Without the ``mklab_focused_crawler_ray`` package next
to this directory it exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    from perfbench.spec import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--list-metrics", action="store_true")
    args = p.parse_args(argv)
    if not args.list_metrics and args.workload is None:
        p.error("--workload is required")
    return args


def list_metrics() -> list[str]:
    from perfbench.spec import END_TO_END, PER_LAYER

    lines = [f"end_to_end {name} {unit}" for name, unit, _, _ in END_TO_END]
    lines += [f"per_layer {name} {unit}" for name, unit, _ in PER_LAYER]
    return lines


def result_line(run, values: dict, trace: bool) -> dict:
    from perfbench.spec import END_TO_END, PER_LAYER

    units = {n: u for n, u, *_ in (PER_LAYER if trace else END_TO_END)}
    return {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": float(values[n]), "unit": u} for n, u in units.items()},
    }


def host_record(run) -> dict:
    import pyarrow
    import ray

    from perfbench.spec import RAY_NUM_CPUS

    return {
        "workload": run.name,
        "seed": run.seed,
        "nproc": len(os.sched_getaffinity(0)),
        "ray_num_cpus": RAY_NUM_CPUS,
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "python": sys.version.split()[0],
        "errors": run.errors,
        **run.record,
    }


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, ROOT)
    args = parse_args(argv)
    if args.list_metrics:
        print("\n".join(list_metrics()))
        return 0
    if not os.path.isdir(os.path.join(ROOT, "mklab_focused_crawler_ray")):
        print("perfbench: mklab_focused_crawler_ray not found next to perfbench/", file=sys.stderr)
        return 2
    # Ray workers import the package and perfbench.tracing from the root;
    # every temporary file lands in the checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    tmp = os.path.join(ROOT, ".perfbench_work", "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp

    from perfbench.session import Run

    run = Run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    values = run.execute()
    print(json.dumps(host_record(run)))
    print(json.dumps(result_line(run, values, bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
