"""The bucketed co-group: hash-partition by key, finish each bucket locally.

Every shuffle in the query and stage layers (hash joins, pair counting,
keyed merges, per-host scheduling, star contraction, per-token
finishers, …) is the same three steps: route each row to
``bucket = hash(key) % NB``, gather one bucket per task, finish the
bucket with a vectorized kernel. :func:`cogroup` is that primitive; it
owns all three steps so no caller writes them out:

- **routing hash** — :func:`bucket_of`. String keys hash with 64-bit
  FNV-1a over the Arrow string buffers (``functions.urls.url_hash64_vec``)
  mod NB; integer keys route as ``key % NB``. The persisted bucket
  layouts (the text index's prune-at-read partitions, the pregel graph
  layout) partition with this same function.
- **bucket count** — :func:`derive_buckets`. NB = clamp(floor,
  input parquet bytes // ``TARGET_PARQUET_BYTES_PER_BUCKET``,
  ``BUCKET_CAP``). ``floor`` is each site's measured value, so at
  sf0.001–sf0.1 NB is the floor; the derivation only kicks in past
  ~1 GiB of input per bucket-floor (a fixed NB would hand one task a
  linearly growing payload and cap shuffle parallelism at NB).
  ``MKFC_SHUFFLE_BUCKETS`` overrides everything: one knob for a known
  cluster size, and the handle for bucket-count-invariance sweeps.
- **bucket column + finisher** — :func:`cogroup` appends the bucket id
  in a map stage that fuses into each side's own last map, unions the
  sides, groups by bucket and runs the kernel once per bucket on a
  pandas frame (the bucket column already dropped).

The invariant every co-group relies on: every side routes through
``bucket_of``, so equal keys meet in one bucket whichever side they came
from, and the kernel never depends on NB — a bucket holds whole keys,
so bucket-local work equals global work. Outputs are therefore
bucket-count invariant, pinned by the oracle sweep under two
``MKFC_SHUFFLE_BUCKETS`` overrides and by tests/test_bucket_invariance.py.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

TARGET_PARQUET_BYTES_PER_BUCKET = 16 << 20  # ~64 MiB decoded per task
BUCKET_CAP = 1 << 20  # runaway backstop; 1M buckets ≈ 16 TiB parquet input
_OVERRIDE_ENV = "MKFC_SHUFFLE_BUCKETS"
_BUCKET = "__bucket"  # routing column; never reaches a kernel or an output


def _path_bytes(p: str) -> int:
    if os.path.isdir(p):
        total = 0
        for root, _dirs, files in os.walk(p):
            total += sum(
                os.path.getsize(os.path.join(root, f))
                for f in files
                if f.endswith(".parquet")
            )
        return total
    if os.path.exists(p):
        return os.path.getsize(p)
    return 0


def derive_buckets(
    *paths: str,
    floor: int,
    bytes_per_bucket: int = TARGET_PARQUET_BYTES_PER_BUCKET,
) -> int:
    """Shuffle-bucket cardinality for a co-group whose payload is
    proportional to the given parquet inputs (files or directories; a
    missing path counts 0 bytes) — one os.stat per file, driver-side, at
    query-build time. See module docstring."""
    override = os.environ.get(_OVERRIDE_ENV)
    if override:
        return max(1, int(override))
    est = sum(_path_bytes(p) for p in paths)
    return int(min(BUCKET_CAP, max(floor, est // bytes_per_bucket)))


def bucket_of(keys, nb: int) -> np.ndarray:
    """int64 bucket ids in ``[0, nb)`` for a key column: Arrow (chunked)
    string / large_string, numpy str/object, or a Python list of str →
    ``fnv1a64(key) % nb``; Arrow or numpy integers → ``key % nb``."""
    from .functions.urls import url_hash64_vec

    if isinstance(keys, (pa.Array, pa.ChunkedArray)):
        if not pa.types.is_integer(keys.type):
            return (url_hash64_vec(keys) % np.uint64(nb)).astype(np.int64)
    keys = np.asarray(keys)
    if not len(keys):
        return np.empty(0, np.int64)
    if keys.dtype.kind == "u":
        return (keys % np.uint64(nb)).astype(np.int64)
    if keys.dtype.kind == "i":
        return keys.astype(np.int64, copy=False) % nb
    h = url_hash64_vec(pa.array(keys, pa.string()))
    return (h % np.uint64(nb)).astype(np.int64)


def cogroup(sides, key: str, kernel, nb: int):
    """Bucketed co-group of one or more Datasets sharing the column
    ``key``: route every row to ``bucket_of(key, nb)``, union the sides,
    and return ``kernel(frame)`` per bucket, where ``frame`` is a pandas
    DataFrame holding every row (from every side) whose key falls in that
    bucket. The kernel returns a pandas DataFrame or an Arrow table and
    must not depend on ``nb``."""
    if not isinstance(sides, (list, tuple)):
        sides = [sides]

    def route(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            _BUCKET, pa.array(bucket_of(batch[key], nb), pa.int64())
        )

    # whole blocks: the routing map fuses into each side's last map stage
    routed = [
        s.map_batches(route, batch_format="pyarrow", batch_size=None)
        for s in sides
    ]
    ds = routed[0].union(*routed[1:]) if len(routed) > 1 else routed[0]

    def finish(g):
        return kernel(g.drop(columns=_BUCKET))

    return ds.groupby(_BUCKET).map_groups(finish, batch_format="pandas")
