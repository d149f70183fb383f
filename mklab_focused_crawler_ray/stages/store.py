"""One keyed broadcast store for every crawl lookup: pages by URL,
redirects by source URL, images by image id and URL metadata for link
scoring.

A store is an Arrow table sorted by the ``url_hash64`` of its key column
plus that sorted hash array. It is built once and broadcast with
``ray.put``; a task's ``ray.get`` maps the numpy and Arrow buffers out of
plasma without unpickling per row. :meth:`KeyedStore.find` resolves a
whole batch of keys at once and checks the key string of every hash match,
so two keys that share a hash each find their own row. It answers exactly
what ``{key: row for row, key in enumerate(store.table[key])}`` would: the
last row wins for a repeated key, -1 marks an absent one.

At 100 TB a store becomes a hash-partitioned Lance table and a lookup a
bucketed join by the same hash; the stages that call :meth:`find` do not
change.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.urls import url_hash64_vec


class KeyedStore:
    def __init__(self, table: pa.Table, key: str):
        h = url_hash64_vec(table[key])
        order = np.argsort(h, kind="stable")
        self.hashes = h[order]
        self.table = table.take(pa.array(order)).combine_chunks()
        self.key = key

    def find(self, keys) -> np.ndarray:
        """Row index into ``self.table`` for each key (int64, -1 where
        absent). ``keys`` is a list, an object ndarray or an Arrow string
        array."""
        out = np.full(len(keys), -1, dtype=np.int64)
        if len(keys) == 0 or len(self.hashes) == 0:
            return out
        col = self.table[self.key].chunk(0)  # combine_chunks left one chunk
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        elif not isinstance(keys, pa.Array):
            keys = pa.array(keys, col.type)
        h = url_hash64_vec(keys)
        lo = np.searchsorted(self.hashes, h, "left")
        hi = np.searchsorted(self.hashes, h, "right")
        # one row per hash is the common case: one vectorized string check
        one = np.nonzero(hi - lo == 1)[0]
        same = pc.equal(col.take(lo[one]), keys.take(one).cast(col.type))
        same = pc.fill_null(same, False).to_numpy(zero_copy_only=False)
        out[one[same]] = lo[one[same]]
        # a hash carried by several rows (a collision or a repeated key):
        # the last equal row wins, as in a dict
        for j in np.nonzero(hi - lo > 1)[0]:
            k = keys[j].as_py()
            for r in range(hi[j] - 1, lo[j] - 1, -1):
                if col[r].as_py() == k:
                    out[j] = r
                    break
        return out
