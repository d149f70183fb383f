"""Deduplication suite: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

Ray-Data-first shapes (ray_guide.md "Aggregation at scale"):
- exact: content-hash column (map_batches) → groupby(hash) → first
- MinHash+LSH: signature per doc (map_batches, seeds hoisted to __init__) →
  explode (band_id, band_key, doc_id) rows → groupby(band) → candidate
  pairs → exact-Jaccard verify → distinct pairs
- SimHash: 64-bit signature column; near-dup = Hamming ≤ k within
  band-prefix buckets
- embedding cosine: normalized-vector matmul within hash buckets

The reference has no content dedup (only the id-based StatusCheckBolt gate,
bolts/media/StatusCheckBolt.java:59-68); these are the training-data-scale
additions the build brief requires.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.text import char_shingles

from ..functions.hashing import lsh_band_keys, token_hashes

TOKEN_RE = re.compile(r"[a-z0-9]+")

NUM_PERM = 128
SHINGLE_K = 5  # char shingles (Broder-style) — robust on any vocabulary
BANDS = 32  # r=4 rows/band → LSH s-curve threshold ≈ (1/32)^(1/4) ≈ 0.42


def word_ngrams(text: str, n: int = 3) -> list[str]:
    """Word n-gram shingles over the lowercase token stream."""
    toks = TOKEN_RE.findall(text.lower())
    if len(toks) < n:
        return [" ".join(toks)] if toks else []
    return [" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)]


def _features(text: str, shingle: str) -> set:
    """The MinHash'd feature space: 'char5' Broder shingles (default) or
    'word3' token 3-grams (n-gram Jaccard dedup)."""
    if shingle == "word3":
        return set(word_ngrams(text, 3))
    return set(char_shingles(text, SHINGLE_K))


class MinHashSignatures:
    """Signature stage: doc → (doc_id, band_id, band_key) exploded rows.

    Signatures come from ONE-permutation hashing (functions/hashing.
    oph_signatures — O(n) per doc; the classic K-permutation variant cost
    O(K·n) and dominated this stage's wall time ~20× at sf0.1). The exact
    downstream Jaccard verify makes the signature scheme a pure
    candidate-recall choice.

    This is deliberately NOT an actor pool: it holds no heavy state (three
    scalars), so running it as plain map_batches TASKS reuses warm workers
    instead of paying a per-pipeline actor-pool spawn (~1-2 s at sf0.1,
    measured)."""

    def __init__(self, num_perm: int = NUM_PERM, bands: int = BANDS, shingle: str = "char5"):
        self.num_perm = num_perm
        self.bands = bands
        self.shingle = shingle

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.hashing import (
            char_shingle_hashes,
            oph_signatures,
            word_ngram_hashes,
        )

        texts = batch["text"].to_pylist()
        doc_ids = batch["doc_id"].to_numpy()
        # vectorized shingle hashing (the exact-Jaccard verify step still
        # uses the string feature sets via _features — hashes only drive
        # the LSH candidate generation)
        if self.shingle == "word3":
            thl = [word_ngram_hashes(t, 3) for t in texts]
        else:
            thl = [char_shingle_hashes(t, SHINGLE_K) for t in texts]
        sigs = oph_signatures(thl, self.num_perm)
        keys = lsh_band_keys(sigs, self.bands)  # (n_docs, bands)
        n = len(doc_ids)
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(doc_ids, self.bands), pa.int64()),
                "band_id": pa.array(np.tile(np.arange(self.bands), n), pa.int32()),
                "band_key": pa.array(keys.ravel().view(np.int64), pa.int64()),
            }
        )


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)


GROUP_CAP = 4096  # max distinct ids paired within one hot (band, key) group


def _log_overflow(kind: str, key, n: int, cap: int) -> None:
    """No-silent-caps rule: a capped group is dropped coverage — say so."""
    import logging

    logging.getLogger(__name__).warning(
        "%s: hot group %r has %d members > cap %d; pairing only the first "
        "%d ids (sorted) — %d members' pairs dropped",
        kind,
        key,
        n,
        cap,
        cap,
        n - cap,
    )


def _hot_candidate_rows(sig, group_cols: list[str]):
    """Shared hot-band machinery: count (band_id, band_key) groups, broadcast
    the >1-member keys as a sorted uint64 array, and return the vectorized-
    filtered candidate Dataset plus the (small, one row per hot group)
    count frame — (None, None) when no group is hot. A groupby-count
    is cheap; per-group UDFs over the ~input-sized mostly-singleton groups
    are NOT (measured 285 s vs 17 s at sf0.1)."""
    import pyarrow.compute as pc
    import ray
    from ray.data.aggregate import Count

    hot_pd = (
        sig.groupby(group_cols)
        .aggregate(Count(alias_name="n"))
        .map_batches(lambda b: b.filter(pc.greater(b["n"], 1)), batch_format="pyarrow")
        .to_pandas()
    )
    if len(hot_pd) == 0:
        return None, None
    hot_keys = np.unique(
        (hot_pd["band_id"].to_numpy().astype(np.uint64) << np.uint64(48))
        ^ hot_pd["band_key"].to_numpy().view(np.uint64)
    )
    hot_ref = ray.put(hot_keys)

    def keep_hot(batch: pa.Table) -> pa.Table:
        keys = ray.get(hot_ref)
        combo = (
            batch["band_id"].to_numpy().astype(np.uint64) << np.uint64(48)
        ) ^ batch["band_key"].to_numpy().view(np.uint64)
        idx = np.clip(np.searchsorted(keys, combo), 0, len(keys) - 1)
        return batch.filter(pa.array(keys[idx] == combo))

    return sig.map_batches(keep_hot, batch_format="pyarrow"), hot_pd


def _empty_pairs_ds(with_jaccard: bool):
    import ray.data as rd

    cols = {
        "doc_a": pa.array([], pa.int64()),
        "doc_b": pa.array([], pa.int64()),
    }
    if with_jaccard:
        cols["jaccard_micro"] = pa.array([], pa.int64())
    return rd.from_arrow(pa.table(cols))


MAX_CAND_PAIRS = 5_000_000  # global candidate-pair budget (logged when hit)


def _pairs_from_candidates(
    cand_pd: pd.DataFrame,
    kind: str,
    group_cap: int | None = GROUP_CAP,
    max_pairs: int | None = MAX_CAND_PAIRS,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized candidate pairing over hot-band membership rows (one
    group-contiguous partition at a time — see :func:`_pairs_distributed`).
    Per-group work is capped at ``group_cap`` members and the total at
    ``max_pairs`` candidate pairs — both logged, never silent; ``None``
    disables a cap (the exact-join path). Returns distinct
    (doc_a, doc_b) int64 arrays with doc_a < doc_b.

    Deliberately a flat numpy kernel over many groups at once, not
    ``groupby().map_groups`` per band group: on shared-template corpora the
    hot-group count is large and the per-group pandas-UDF overhead dominates
    by orders of magnitude (measured 565 s vs <2 s at sf0.1 for the same
    pairing)."""
    import logging

    log = logging.getLogger(__name__)
    if group_cap is None:
        group_cap = 1 << 62
    if max_pairs is None:
        max_pairs = 1 << 62
    combo = (
        cand_pd["band_id"].to_numpy().astype(np.uint64) << np.uint64(48)
    ) ^ cand_pd["band_key"].to_numpy().view(np.uint64)
    doc = cand_pd["doc_id"].to_numpy().astype(np.int64)
    order = np.lexsort((doc, combo))
    combo_s, doc_s = combo[order], doc[order]
    keep = np.ones(len(doc_s), bool)
    keep[1:] = (combo_s[1:] != combo_s[:-1]) | (doc_s[1:] != doc_s[:-1])
    combo_s, doc_s = combo_s[keep], doc_s[keep]
    starts = np.flatnonzero(np.r_[True, combo_s[1:] != combo_s[:-1]])
    ends = np.r_[starts[1:], len(combo_s)]
    triu_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    out_a: list[np.ndarray] = []
    out_b: list[np.ndarray] = []
    total = 0
    capped = budget_dropped = 0
    for s, e in zip(starts, ends):
        n = int(e - s)
        if n < 2:
            continue
        if n > group_cap:
            capped += 1
            e = s + group_cap
            n = group_cap
        npairs = n * (n - 1) // 2
        if total + npairs > max_pairs:
            budget_dropped += 1
            continue
        iijj = triu_cache.get(n)
        if iijj is None:
            iijj = np.triu_indices(n, k=1)
            triu_cache[n] = iijj
        ii, jj = iijj
        g = doc_s[s:e]
        out_a.append(g[ii])
        out_b.append(g[jj])
        total += npairs
    if capped:
        _log_overflow(kind, "<%d groups>" % capped, capped * group_cap, group_cap)
    if budget_dropped:
        log.warning(
            "%s: candidate-pair budget %d reached; %d hot groups' pairs "
            "dropped (coverage loss — raise max_pairs to include them)",
            kind,
            max_pairs,
            budget_dropped,
        )
    if not out_a:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    a = np.concatenate(out_a)
    b = np.concatenate(out_b)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    uniq = np.ones(len(lo), bool)
    uniq[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    return lo[uniq], hi[uniq]


def _part_of_combo(combo: np.ndarray, n_parts: int) -> np.ndarray:
    from ..functions.hashing import mix64

    return (mix64(combo) % np.uint64(n_parts)).astype(np.int32)


def _log_cap_stats(
    hot_pd: pd.DataFrame,
    kind: str,
    group_cap: int | None,
    max_pairs: int | None,
    n_parts: int,
) -> None:
    """Driver-side replay of the partition kernels' cap/budget accounting
    from the (tiny) hot-group count frame, so dropped coverage is logged in
    the DRIVER process (the kernels also log, but inside Ray workers). The
    replay is exact: each kernel caps groups at ``group_cap`` members and
    applies ``max_pairs`` in ascending-combo order within its partition."""
    import logging

    if group_cap is None and max_pairs is None:
        return
    combo = (
        hot_pd["band_id"].to_numpy().astype(np.uint64) << np.uint64(48)
    ) ^ hot_pd["band_key"].to_numpy().view(np.uint64)
    sizes = hot_pd["n"].to_numpy().astype(np.int64)
    part = _part_of_combo(combo, n_parts)
    order = np.lexsort((combo, part))
    part_s, sizes_s = part[order], sizes[order]
    capped = int(np.count_nonzero(sizes_s > group_cap)) if group_cap else 0
    budget_dropped = 0
    if max_pairs is not None:
        for p in np.unique(part_s):
            total = 0
            for n in sizes_s[part_s == p]:
                n = min(int(n), group_cap) if group_cap else int(n)
                npairs = n * (n - 1) // 2
                if total + npairs > max_pairs:
                    budget_dropped += 1
                else:
                    total += npairs
    if capped:
        _log_overflow(kind, "<%d groups>" % capped, capped * group_cap, group_cap)
    if budget_dropped:
        logging.getLogger(__name__).warning(
            "%s: candidate-pair budget %d reached; %d hot groups' pairs "
            "dropped (coverage loss — raise max_pairs to include them)",
            kind,
            max_pairs,
            budget_dropped,
        )


def _pairs_distributed(
    cand,
    kind: str,
    group_cap: int | None = GROUP_CAP,
    max_pairs: int | None = MAX_CAND_PAIRS,
    sig_col: str | None = None,
    max_hamming: int | None = None,
    n_parts: int = 32,
    hot_counts: pd.DataFrame | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Distributed candidate pairing: hot-band membership rows are routed by
    (band_id, band_key)-hash into ``n_parts`` group-contiguous partitions (a
    band group never straddles partitions), and the vectorized
    :func:`_pairs_from_candidates` numpy kernel runs once per partition
    inside ``groupby(part).map_groups`` — the driver never collects
    membership rows, only the resulting PAIRS (output-bounded; at most
    ``n_parts × max_pairs`` pre-dedup when a budget is set).

    With ``sig_col``/``max_hamming``, pairs are additionally verified by
    64-bit Hamming distance inside the partition (both members' signature
    rows are co-partitioned with the pair). Returns distinct sorted
    (doc_a, doc_b) int64 arrays."""
    if hot_counts is not None:
        _log_cap_stats(hot_counts, kind, group_cap, max_pairs, n_parts)

    def add_part(batch: pa.Table) -> pa.Table:
        combo = (
            batch["band_id"].to_numpy().astype(np.uint64) << np.uint64(48)
        ) ^ batch["band_key"].to_numpy().view(np.uint64)
        part = _part_of_combo(combo, n_parts)
        return batch.append_column("part", pa.array(part, pa.int32()))

    def part_kernel(df: pd.DataFrame) -> pd.DataFrame:
        a, b = _pairs_from_candidates(df, kind, group_cap, max_pairs)
        if sig_col is not None and len(a):
            from ..functions.hashing import hamming64

            ids = df["doc_id"].to_numpy().astype(np.int64)
            sigs = df[sig_col].to_numpy().astype(np.int64)
            uniq_ids, first_idx = np.unique(ids, return_index=True)
            sig_sorted = sigs[first_idx].view(np.uint64)
            ha = sig_sorted[np.searchsorted(uniq_ids, a)]
            hb = sig_sorted[np.searchsorted(uniq_ids, b)]
            keep = hamming64(ha, hb) <= max_hamming
            a, b = a[keep], b[keep]
        return pd.DataFrame(
            {"doc_a": a.astype(np.int64), "doc_b": b.astype(np.int64)}
        )

    pairs_pd = (
        cand.map_batches(add_part, batch_format="pyarrow")
        .groupby("part")
        .map_groups(part_kernel, batch_format="pandas")
        .to_pandas()
    )
    if len(pairs_pd) == 0 or "doc_a" not in pairs_pd.columns:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    # distinct across partitions (the same pair can surface from different
    # bands routed to different parts); pair volume is output-bounded
    lo = pairs_pd["doc_a"].to_numpy().astype(np.int64)
    hi = pairs_pd["doc_b"].to_numpy().astype(np.int64)
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    uniq = np.ones(len(lo), bool)
    uniq[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    return lo[uniq], hi[uniq]


def _shingle_hash_store(ds, involved: np.ndarray, shingle: str):
    """Distributed shingle hashing for the involved docs, collected into a
    broadcastable (sorted_ids, offsets, values) triple. The functions'
    outputs are np.unique'd, i.e. each doc's hashes arrive sorted —
    searchsorted-ready. Collected size is bounded by the involved set
    (output-sized), not the corpus."""
    import ray

    inv_ref = ray.put(np.asarray(involved, dtype=np.int64))

    def hash_store(batch: pa.Table) -> pa.Table:
        # task-based on purpose: the only state is the broadcast involved-id
        # array, and ray.get of a numpy ObjectRef is a zero-copy plasma read
        # per task — cheaper than paying an actor-pool spawn per pipeline
        from ..functions.hashing import char_shingle_hashes, word_ngram_hashes

        involved_ids = ray.get(inv_ref)
        ids = batch["doc_id"].to_numpy()
        idx = np.clip(
            np.searchsorted(involved_ids, ids), 0, max(0, len(involved_ids) - 1)
        )
        m = (
            (involved_ids[idx] == ids)
            if len(involved_ids)
            else np.zeros(len(ids), bool)
        )
        out_ids, out_h = [], []
        for did, text, k in zip(ids, batch["text"].to_pylist(), m):
            if not k:
                continue
            h = (
                word_ngram_hashes(text, 3)
                if shingle == "word3"
                else char_shingle_hashes(text, SHINGLE_K)
            )
            out_ids.append(int(did))
            out_h.append(h.view(np.int64))
        return pa.table(
            {
                "doc_id": pa.array(out_ids, pa.int64()),
                "hashes": pa.array(
                    [x.tolist() for x in out_h], pa.list_(pa.int64())
                ),
            }
        )

    parts_ids: list[np.ndarray] = []
    parts_vals: list[np.ndarray] = []
    parts_len: list[np.ndarray] = []
    for b in (
        ds.map_batches(hash_store, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow")
    ):
        col = b["hashes"].combine_chunks() if b["hashes"].num_chunks > 1 else b["hashes"].chunk(0)
        parts_ids.append(b["doc_id"].to_numpy())
        parts_vals.append(np.asarray(col.flatten()).view(np.uint64))
        parts_len.append(np.diff(np.asarray(col.offsets)))
    if not parts_ids:
        return (
            np.empty(0, np.int64),
            np.zeros(1, np.int64),
            np.empty(0, np.uint64),
        )
    ids = np.concatenate(parts_ids)
    lens = np.concatenate(parts_len).astype(np.int64)
    vals = np.concatenate(parts_vals)
    order = np.argsort(ids, kind="stable")
    # reorder the ragged value array by doc order
    offs = np.zeros(len(ids) + 1, np.int64)
    np.cumsum(lens, out=offs[1:])
    new_vals = np.empty_like(vals)
    new_offs = np.zeros(len(ids) + 1, np.int64)
    np.cumsum(lens[order], out=new_offs[1:])
    for k, i in enumerate(order):
        new_vals[new_offs[k] : new_offs[k + 1]] = vals[offs[i] : offs[i + 1]]
    return ids[order], new_offs, new_vals


def minhash_lsh_pairs(
    doc_parquet: str,
    threshold: float = 0.5,
    shingle: str = "char5",
    group_cap: int = GROUP_CAP,
    max_pairs: int = MAX_CAND_PAIRS,
):
    """Near-dup pairs (doc_a < doc_b, exact shingle-Jaccard ≥ threshold)
    found via one-permutation-MinHash LSH candidates. Returns a Dataset
    (doc_a, doc_b, jaccard_micro).

    Scale shape:
    1. signatures → exploded (band_id, band_key, doc_id) rows (actor pool,
       O(shingles) per doc via OPH);
    2. hot-band count → broadcast hot keys → vectorized candidate filter —
       the collected candidate rows are output-bounded (>1-member groups);
    3. pairing = driver-vectorized numpy with per-group caps + a global
       pair budget (_pairs_from_candidates — map_groups per hot group was
       measured 250× slower on shared-template corpora);
    4. verify = DISTRIBUTED map_batches over pair blocks against a
       broadcast (sorted ids, offsets, values) shingle-HASH store built
       only for involved docs; Jaccard on 64-bit shingle hashes equals
       string-set Jaccard up to hash collisions (~n²/2⁶⁴, negligible and
       verified exactly against the DuckDB string-shingle oracle at the
       driver's scales)."""
    import ray
    import ray.data as rd

    ds = rd.read_parquet(doc_parquet, columns=["doc_id", "text"])
    sig = ds.map_batches(
        MinHashSignatures(shingle=shingle),
        batch_format="pyarrow",
        batch_size=256,
    ).materialize()
    cand, hot_pd = _hot_candidate_rows(sig, ["band_id", "band_key"])
    if cand is None:
        return _empty_pairs_ds(with_jaccard=True)
    doc_a, doc_b = _pairs_distributed(
        cand, "minhash_lsh_pairs", group_cap, max_pairs, hot_counts=hot_pd
    )
    if len(doc_a) == 0:
        return _empty_pairs_ds(with_jaccard=True)
    involved = np.unique(np.concatenate([doc_a, doc_b]))
    store_ids, store_offs, store_vals = _shingle_hash_store(ds, involved, shingle)
    store_ref = ray.put((store_ids, store_offs, store_vals))
    thr_micro = int(np.floor(threshold * 1e6 + 0.5))

    def verify(batch: pa.Table) -> pa.Table:
        ids, offs, vals = ray.get(store_ref)
        a = batch["doc_a"].to_numpy()
        b = batch["doc_b"].to_numpy()
        ia = np.searchsorted(ids, a)
        ib = np.searchsorted(ids, b)
        jm = np.empty(len(a), np.int64)
        for r in range(len(a)):
            ha = vals[offs[ia[r]] : offs[ia[r] + 1]]
            hb = vals[offs[ib[r]] : offs[ib[r] + 1]]
            if len(ha) == 0 and len(hb) == 0:
                jm[r] = 1_000_000  # two empty shingle sets: Jaccard 1.0
                continue
            # both sides sorted-unique → membership via searchsorted
            pos = np.searchsorted(ha, hb)
            posc = np.clip(pos, 0, max(0, len(ha) - 1))
            inter = int(
                np.count_nonzero((ha[posc] == hb) if len(ha) else np.zeros(0, bool))
            )
            union = len(ha) + len(hb) - inter
            jm[r] = int(np.floor(inter / union * 1e6 + 0.5)) if union else 1_000_000
        out = pa.table(
            {
                "doc_a": batch["doc_a"],
                "doc_b": batch["doc_b"],
                "jaccard_micro": pa.array(jm, pa.int64()),
            }
        )
        import pyarrow.compute as pc

        return out.filter(pc.greater_equal(out["jaccard_micro"], thr_micro))

    pair_tbl = pa.table(
        {
            "doc_a": pa.array(doc_a, pa.int64()),
            "doc_b": pa.array(doc_b, pa.int64()),
        }
    )
    n_blocks = max(1, min(64, len(doc_a) // 8192))
    return rd.from_arrow(pair_tbl, override_num_blocks=n_blocks).map_batches(
        verify, batch_format="pyarrow"
    )


def brute_force_jaccard_pairs(
    texts: dict[int, str], threshold: float, shingle: str = "char5"
) -> set:
    """O(n²) oracle for tests."""
    ids = sorted(texts)
    sets = {i: _features(texts[i], shingle) for i in ids}
    out = set()
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            if jaccard(sets[a], sets[b]) >= threshold:
                out.add((a, b))
    return out


def simhash_near_pairs(
    doc_parquet: str, max_hamming: int = 3, group_cap: int = GROUP_CAP
):
    """SimHash near-dup pairs as a Dataset (doc_a, doc_b): bucket by each of
    4 16-bit bands (any match → candidate; Hamming ≤ 3 guarantees ≥1
    identical band by pigeonhole), candidates paired driver-vectorized with
    skew caps (_pairs_from_candidates), verified with one vectorized
    Hamming pass over the per-doc signatures the candidate rows already
    carry (output-bounded driver work)."""
    import ray.data as rd

    from ..functions.hashing import simhash64

    def sigs(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        thl = [token_hashes(TOKEN_RE.findall(t.lower())) for t in texts]
        s = simhash64(thl)
        n = len(texts)
        bands = np.empty((n, 4), dtype=np.int64)
        for b in range(4):
            bands[:, b] = ((s >> np.uint64(16 * b)) & np.uint64(0xFFFF)).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(batch["doc_id"].to_numpy(), 4), pa.int64()),
                "simhash": pa.array(np.repeat(s.view(np.int64), 4), pa.int64()),
                "band_id": pa.array(np.tile(np.arange(4, dtype=np.int32), n), pa.int32()),
                "band_key": pa.array(bands.ravel(), pa.int64()),
            }
        )

    ds = rd.read_parquet(doc_parquet, columns=["doc_id", "text"])
    sig = ds.map_batches(
        sigs, batch_format="pyarrow", batch_size=512
    ).materialize()
    cand, hot_pd = _hot_candidate_rows(sig, ["band_id", "band_key"])
    if cand is None:
        return _empty_pairs_ds(with_jaccard=False)
    # pairing + Hamming verify both run inside the group-contiguous
    # partitions (each pair's two signature rows co-partition with it)
    doc_a, doc_b = _pairs_distributed(
        cand,
        "simhash_near_pairs",
        group_cap,
        sig_col="simhash",
        max_hamming=max_hamming,
        hot_counts=hot_pd,
    )
    if len(doc_a) == 0:
        return _empty_pairs_ds(with_jaccard=False)
    return rd.from_arrow(
        pa.table(
            {
                "doc_a": pa.array(doc_a, pa.int64()),
                "doc_b": pa.array(doc_b, pa.int64()),
            }
        )
    )


def embedding_cosine_pairs(
    emb_parquet: str,
    threshold: float = 0.9,
    n_planes: int = 8,
    bucket_cap: int = GROUP_CAP,
):
    """Embedding near-dup pairs (Dataset: doc_a, doc_b) via random-hyperplane
    LSH buckets + in-bucket exact cosine. Deterministic planes (seeded);
    recall comes from 2 independent plane sets (documented approximation —
    multi-probe omitted). Buckets beyond ``bucket_cap`` members are capped
    (sorted by vec_id) with logged dropped coverage, so one hot bucket
    (near-constant embeddings) can no longer become an unbounded O(n²)
    task. The LSH buckets themselves ride one hash-bucketed co-group whose
    kernel loops over the LSH keys it holds."""
    import ray.data as rd
    from ray.data.aggregate import Count

    from ..scale import cogroup, derive_buckets

    def make_stage(seed_offset: int):
        plane_cache: dict[int, np.ndarray] = {}

        def bucketize(batch: pa.Table) -> pa.Table:
            vids = batch["vec_id"].to_numpy()
            emb = np.stack(
                [np.asarray(e, dtype=np.float64) for e in batch["embedding"].to_pylist()]
            )
            emb = emb / np.linalg.norm(emb, axis=1, keepdims=True)
            d = emb.shape[1]
            planes = plane_cache.get(d)
            if planes is None:
                # deterministic per (seed, dimension) — derived lazily so the
                # stage works for any embedding width
                planes = np.random.default_rng(1234 + seed_offset).normal(
                    size=(n_planes, d)
                )
                plane_cache[d] = planes
            bits = (emb @ planes.T) > 0
            key = np.zeros(len(vids), dtype=np.int64)
            for b in range(n_planes):
                key = (key << 1) | bits[:, b].astype(np.int64)
            out = pa.table(
                {
                    "vec_id": batch["vec_id"],
                    "lsh_key": pa.array(key + (seed_offset << 32), pa.int64()),
                    "norm_emb": pa.array(
                        [e.tolist() for e in emb], pa.list_(pa.float64())
                    ),
                }
            )
            return out

        return bucketize

    def key_pairs(lsh_key: int, g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates("vec_id").sort_values("vec_id")
        ids = g["vec_id"].to_numpy()
        if len(ids) > bucket_cap:
            _log_overflow(
                "embedding_cosine_pairs",
                int(lsh_key),
                len(ids),
                bucket_cap,
            )
            g = g.iloc[:bucket_cap]
            ids = ids[:bucket_cap]
        if len(ids) < 2:
            return pd.DataFrame(
                {
                    "doc_a": pd.Series(dtype=np.int64),
                    "doc_b": pd.Series(dtype=np.int64),
                }
            )
        m = np.stack([np.asarray(e) for e in g["norm_emb"]])
        cos = m @ m.T
        ii, jj = np.triu_indices(len(ids), k=1)
        keep = cos[ii, jj] >= threshold
        return pd.DataFrame(
            {
                "doc_a": ids[ii][keep].astype(np.int64),
                "doc_b": ids[jj][keep].astype(np.int64),
            }
        )

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        return pd.concat(
            [key_pairs(k, sub) for k, sub in g.groupby("lsh_key", sort=False)],
            ignore_index=True,
        )

    ds = rd.read_parquet(emb_parquet, columns=["vec_id", "embedding"])
    branches = [
        ds.map_batches(make_stage(k), batch_format="pyarrow") for k in range(2)
    ]
    return (
        cogroup(branches, "lsh_key", pairs, derive_buckets(emb_parquet, floor=16))
        .groupby(["doc_a", "doc_b"])
        .aggregate(Count(alias_name="nb"))
        .drop_columns(["nb"])
    )


def allpairs_jaccard_pairs(
    doc_parquet: str,
    threshold: float = 0.5,
    shingle: str = "word3",
    group_cap: int | None = None,
    max_pairs: int | None = None,
):
    """EXACT set-similarity self-join via prefix filtering (AllPairs —
    Bayardo/Ma/Srikant, WWW 2007): unlike the MinHash/SimHash pipelines,
    candidate generation is provably COMPLETE — for any fixed total order
    on tokens, two sets with Jaccard ≥ t must share at least one token
    among their size-(|x| − ⌈t·|x|⌉ + 1) prefixes. We use the shingle-hash
    value itself as the canonical order, which needs NO global frequency
    pass (any consistent order preserves exactness; frequency ordering is
    only a candidate-count optimization).

    Exactness requires the skew caps OFF, so they default to ``None`` here:
    a prefix token shared by more than ``group_cap`` docs, or a corpus whose
    true pair volume exceeds ``max_pairs``, would silently lose result pairs
    (ADVICE r2). Passing explicit caps turns this into a best-effort
    bounded-work join (dropped coverage is logged, as in the recall-only
    MinHash/SimHash candidate paths).

    Pipeline shape (shares the dedup machinery): doc → sorted shingle
    hashes → prefix explode (band_id=0, band_key=prefix hash) →
    hot-token count/filter → vectorized pairing with caps → distributed
    exact hash-Jaccard verify. Returns a Dataset
    (doc_a, doc_b, jaccard_micro)."""
    import ray
    import ray.data as rd

    ds = rd.read_parquet(doc_parquet, columns=["doc_id", "text"])

    def prefixes(batch: pa.Table) -> pa.Table:
        from ..functions.hashing import char_shingle_hashes, word_ngram_hashes

        out_h: list[np.ndarray] = []
        out_d: list[np.ndarray] = []
        for did, text in zip(
            batch["doc_id"].to_numpy(), batch["text"].to_pylist()
        ):
            h = (
                word_ngram_hashes(text, 3)
                if shingle == "word3"
                else char_shingle_hashes(text, SHINGLE_K)
            )  # sorted unique
            n = len(h)
            if n == 0:
                continue
            import math

            plen = n - math.ceil(threshold * n) + 1
            out_h.append(h[:plen].view(np.int64))
            out_d.append(np.full(plen, did, np.int64))
        if not out_h:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "band_id": pa.array([], pa.int32()),
                    "band_key": pa.array([], pa.int64()),
                }
            )
        hh = np.concatenate(out_h)
        dd = np.concatenate(out_d)
        return pa.table(
            {
                "doc_id": pa.array(dd, pa.int64()),
                "band_id": pa.array(np.zeros(len(hh), np.int32), pa.int32()),
                "band_key": pa.array(hh, pa.int64()),
            }
        )

    sig = ds.map_batches(
        prefixes, batch_format="pyarrow", batch_size=256
    ).materialize()
    cand, hot_pd = _hot_candidate_rows(sig, ["band_id", "band_key"])
    if cand is None:
        return _empty_pairs_ds(with_jaccard=True)
    doc_a, doc_b = _pairs_distributed(
        cand, "allpairs_jaccard_pairs", group_cap, max_pairs, hot_counts=hot_pd
    )
    if len(doc_a) == 0:
        return _empty_pairs_ds(with_jaccard=True)
    involved = np.unique(np.concatenate([doc_a, doc_b]))
    store_ids, store_offs, store_vals = _shingle_hash_store(ds, involved, shingle)
    store_ref = ray.put((store_ids, store_offs, store_vals))
    thr_micro = int(np.floor(threshold * 1e6 + 0.5))

    def verify(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ids, offs, vals = ray.get(store_ref)
        a = batch["doc_a"].to_numpy()
        b = batch["doc_b"].to_numpy()
        ia = np.searchsorted(ids, a)
        ib = np.searchsorted(ids, b)
        jm = np.empty(len(a), np.int64)
        for r in range(len(a)):
            ha = vals[offs[ia[r]] : offs[ia[r] + 1]]
            hb = vals[offs[ib[r]] : offs[ib[r] + 1]]
            if len(ha) == 0 and len(hb) == 0:
                jm[r] = 1_000_000
                continue
            pos = np.clip(np.searchsorted(ha, hb), 0, max(0, len(ha) - 1))
            inter = int(
                np.count_nonzero((ha[pos] == hb) if len(ha) else np.zeros(0, bool))
            )
            union = len(ha) + len(hb) - inter
            jm[r] = int(np.floor(inter / union * 1e6 + 0.5)) if union else 1_000_000
        out = pa.table(
            {
                "doc_a": batch["doc_a"],
                "doc_b": batch["doc_b"],
                "jaccard_micro": pa.array(jm, pa.int64()),
            }
        )
        return out.filter(pc.greater_equal(out["jaccard_micro"], thr_micro))

    pair_tbl = pa.table(
        {
            "doc_a": pa.array(doc_a, pa.int64()),
            "doc_b": pa.array(doc_b, pa.int64()),
        }
    )
    n_blocks = max(1, min(64, len(doc_a) // 8192))
    return rd.from_arrow(pair_tbl, override_num_blocks=n_blocks).map_batches(
        verify, batch_format="pyarrow"
    )
