"""Cuckoo filter for the URL-seen gate.

The reference keeps an EXACT seen-set in a Redis hash
(bolts/media/StatusCheckBolt.java:59-68). Because the final URL-seen set
must match the oracle EXACTLY, frontier shards pair this filter with a
partition-local exact ledger: a filter hit is verified against the ledger,
so false positives never change behavior (SURVEY.md §7.4), and a filter
miss skips the ledger. That makes a false negative a re-crawl, so the
filter must hold every ledger key. An :meth:`CuckooFilter.add` that fails
has already evicted another key's fingerprint; the shard then replaces the
filter with :meth:`CuckooFilter.holding` at twice the capacity, refilled
from the ledger.

Implementation: standard 2-choice cuckoo hashing with 4-slot buckets and
16-bit fingerprints (Fan et al., "Cuckoo Filter: Practically Better Than
Bloom", CoNEXT 2014), numpy-backed, serializable for checkpoints.
"""

from __future__ import annotations

from collections.abc import Collection

import numpy as np

from ..functions.hashing import mix64

_FP_BITS = 16
_SLOTS = 4
_MAX_KICKS = 500
_MASK64 = (1 << 64) - 1


def _mix64_int(x: int) -> int:
    """functions.hashing.mix64 (splitmix64 finalizer) on one Python int."""
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class CuckooFilter:
    def __init__(self, capacity: int, seed: int = 7):
        # buckets sized to next power of two of capacity/SLOTS at ~95% load,
        # so doubling ``capacity`` doubles the table
        self.capacity = capacity
        n_buckets = 1
        while n_buckets * _SLOTS * 0.95 < capacity:
            n_buckets <<= 1
        self.n_buckets = n_buckets
        self.seed = seed
        self.table = np.zeros((n_buckets, _SLOTS), dtype=np.uint16)  # 0 = empty
        self.count = 0
        self._rng = np.random.default_rng(seed)  # deterministic kick choice

    # -- hashing ----------------------------------------------------------
    def _fp_and_index(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        h = mix64(np.asarray(keys, dtype=np.uint64) ^ np.uint64(self.seed))
        fp = (h & np.uint64(0xFFFF)).astype(np.uint16)
        fp = np.where(fp == 0, np.uint16(1), fp)  # reserve 0 for empty
        i1 = ((h >> np.uint64(16)) % np.uint64(self.n_buckets)).astype(np.int64)
        return fp, i1

    def _alt_index(self, i: np.ndarray, fp: np.ndarray) -> np.ndarray:
        # i2 = i XOR hash(fp) — the partial-key cuckoo displacement rule
        fh = mix64(fp.astype(np.uint64) ^ np.uint64(0x5BD1E995))
        return (np.asarray(i, np.uint64) ^ (fh % np.uint64(self.n_buckets))).astype(
            np.int64
        ) % self.n_buckets

    # -- single-key ops ---------------------------------------------------
    # Plain-int twins of the vectorized hashing above (same splitmix64 and
    # displacement rule, bit for bit): one key through 1-element numpy
    # arrays costs ~15x more than the arithmetic itself.
    def _fp_and_index_one(self, key: int) -> tuple[int, int]:
        h = _mix64_int(int(key) ^ self.seed)
        fp = (h & 0xFFFF) or 1
        return fp, (h >> 16) % self.n_buckets

    def _alt_index_one(self, i: int, fp: int) -> int:
        return (i ^ (_mix64_int(fp ^ 0x5BD1E995) % self.n_buckets)) % self.n_buckets

    def _put(self, idx: int, fp: int) -> bool:
        row = self.table[idx]
        for s in range(_SLOTS):
            if row[s] == 0:
                row[s] = fp
                self.count += 1
                return True
        return False

    def add(self, key: int) -> bool:
        fp, i1 = self._fp_and_index_one(key)
        i2 = self._alt_index_one(i1, fp)
        if self._put(i1, fp) or self._put(i2, fp):
            return True
        # displace
        idx = i1 if int(self._rng.integers(0, 2)) == 0 else i2
        cur = fp
        for _ in range(_MAX_KICKS):
            slot = int(self._rng.integers(0, _SLOTS))
            cur, self.table[idx, slot] = int(self.table[idx, slot]), cur
            idx = self._alt_index_one(idx, cur)
            if self._put(idx, cur):
                return True
        return False  # table full; the evicted fingerprint is lost

    @classmethod
    def holding(cls, keys: Collection[int], capacity: int, seed: int = 7) -> CuckooFilter:
        """A filter of ``capacity`` or more that holds every key of
        ``keys``: while an add fails, the capacity doubles and the table is
        refilled from ``keys`` (a failed add has lost another key's
        fingerprint, so the table is rebuilt, never patched)."""
        while True:
            f = cls(capacity, seed)
            if all(f.add(k) for k in keys):
                return f
            capacity *= 2

    def __contains__(self, key: int) -> bool:
        return bool(self.contains_many(np.array([key], dtype=np.uint64))[0])

    # -- vectorized membership (the hot path) -----------------------------
    def contains_many(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        fp, i1 = self._fp_and_index(keys)
        i2 = self._alt_index(i1, fp)
        r1 = self.table[i1]  # (n, SLOTS)
        r2 = self.table[i2]
        return ((r1 == fp[:, None]) | (r2 == fp[:, None])).any(axis=1)

    def delete(self, key: int) -> bool:
        fp, i1 = self._fp_and_index_one(key)
        for idx in (i1, self._alt_index_one(i1, fp)):
            row = self.table[idx]
            for s in range(_SLOTS):
                if row[s] == fp:
                    row[s] = 0
                    self.count -= 1
                    return True
        return False

    # -- checkpoint -------------------------------------------------------
    def to_bytes(self) -> bytes:
        return self.table.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes, capacity: int, seed: int = 7, count: int = 0):
        f = cls(capacity, seed)
        f.table = np.frombuffer(data, dtype=np.uint16).reshape(f.n_buckets, _SLOTS).copy()
        f.count = count
        return f
