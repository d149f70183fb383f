"""Check a single query against its DuckDB oracle at one or more sf tiers.

Usage: python scripts/oracle_one.py NAME [SF_DIR ...]

Each check is ``Registry.check``: a small-tier query runs at sf0.01
whatever tier is asked for, and the frames must be equal, dtypes included.
"""

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
    name = sys.argv[1]
    tiers = sys.argv[2:] or ["/root/testdata/sf0.001", SMALL_SF]
    rc = 0
    for sf in tiers:
        t0 = time.time()
        try:
            rows = reg.check(name, sf)
            print(f"OK   {name} @{reg.tier(name, sf)} rows={rows} {time.time() - t0:.1f}s")
        except Exception as ex:  # noqa: BLE001
            rc = 1
            print(f"FAIL {name} @{reg.tier(name, sf)}: {str(ex).splitlines()[0]}")
    ray.shutdown()
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
