"""Run every SQL-checked query side-by-side with its DuckDB oracle at a
given sf tier — the local rehearsal of the driver's correctness gate.

Usage: python scripts/oracle_sweep.py [/root/testdata/sf0.01]

Prints one OK/FAIL line per query and a final FAILURES list; exits 1 on
any failure. Each check is ``Registry.check`` (a small-tier query runs at
sf0.01 whatever tier is asked for). Owns its own Ray session (the driver
contract forbids the library from calling ray.init, but scripts may)."""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
            include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from mklab_focused_crawler_ray.pipelines.registry import SMALL_SF, load

    reg = load()
    sf = sys.argv[1] if len(sys.argv) > 1 else SMALL_SF
    fails: list[str] = []
    for name in reg.checked():
        t0 = time.time()
        try:
            rows = reg.check(name, sf)
            print(f"OK   {name} rows={rows} {time.time() - t0:.1f}s", flush=True)
        except Exception as ex:  # noqa: BLE001 — report and continue
            fails.append(name)
            print(f"FAIL {name}: {str(ex).splitlines()[0]}", flush=True)
    print("FAILURES:", fails)
    ray.shutdown()
    return 1 if fails else 0


if __name__ == "__main__":
    raise SystemExit(main())
