"""Image-payload, ANN and event-detection queries (rows-only suite).

These pipelines run over the deterministic seeded image+web fixture
(fixtures/generate.py — the BASELINE ``input_hint`` table shape), not the
driver's TPC-H-ish tables, so they register as rows-only checks; their
semantics are validated in pytest against brute force / planted ground
truth (tests/test_image_stages.py, tests/test_ann.py).

``sf_dir`` → fixture tier mapping keeps cost proportional to the driver's
scale choice (tiny=100 images for sf0.001 smoke, small=5000 otherwise).
"""

from __future__ import annotations

import os
from functools import partial

import numpy as np
import pandas as pd
import pyarrow as pa

from .. import cache
from ..scale import bucket_of, cogroup, derive_buckets
from ..stages.image import (
    I64,
    color_stats,
    decode,
    exposure_stats,
    lap_var_stats,
    map_pixels,
    pixel_batch,
    pseudo_embed_rgb,
)
from . import oracles_ext
from .registry import query

_TIER_FOR_SF = {"sf0.001": "tiny"}


def fixture_dir_for(sf_dir: str) -> str:
    from ..fixtures.generate import fixture_root, generate_tier

    tier = _TIER_FOR_SF.get(os.path.basename(os.path.normpath(sf_dir)), "small")
    return generate_tier(tier, os.path.join(fixture_root(), tier))


def _images(sf_dir: str) -> str:
    return os.path.join(fixture_dir_for(sf_dir), "images.parquet")


# --------------------------------------------------------------------------
# image pipeline (north-rule payload)
# --------------------------------------------------------------------------


@query("image_decode_check", partial(oracles_ext.extended, "image_decode_check"), small=True)
def q_image_decode_check(sf_dir: str):
    """Per-row invariant booleans: decode_ok / w_ok / h_ok / phash_ok /
    psnr_ok (PSNR ≥ 40 dB; BASELINE input_hint invariant as a dataset).

    SQL-oracled: DuckDB cannot decode pixels, but the INVARIANT (every
    fixture image decodes, matches its metadata, and survives a lossy
    round-trip at ≥ 40 dB) is an all-TRUE relation over the fixture table —
    any decode/phash/codec drift on the Ray side flips a boolean and fails
    the driver's hash compare. The raw psnr_db_x100 stays available from
    stages.image.decode_validate (tests/test_image_stages.py)."""
    from ..stages.image import decode_validate

    def booleanize(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "image_id": batch["image_id"],
                "fmt": batch["fmt"],
                "decode_ok": batch["decode_ok"],
                "w_ok": batch["w_ok"],
                "h_ok": batch["h_ok"],
                "phash_ok": batch["phash_ok"],
                "psnr_ok": pc.greater_equal(batch["psnr_db_x100"], 4000),
            }
        )

    return decode_validate(_images(sf_dir)).map_batches(
        booleanize, batch_format="pyarrow"
    )


@query("image_phash_pairs", partial(oracles_ext.extended, "image_phash_pairs"), small=True)
def q_image_phash_pairs(sf_dir: str):
    """Near-dup candidate pairs via pHash 16-bit band blocking + exact
    Hamming ≤ 8 verify (VisualIndexerBolt 0.85-gate analogue)."""
    from ..stages.image import phash_band_pairs

    return phash_band_pairs(_images(sf_dir), max_hamming=8)


@query("image_clusters", partial(oracles_ext.extended, "image_clusters"), small=True)
def q_image_clusters(sf_dir: str):
    """Connected-component near-dup clusters with deterministic
    min-member-id labels (ClustererBolt minus UUID nondeterminism)."""
    from ..stages.image import cluster_images

    return cluster_images(_images(sf_dir), max_hamming=8)


@query("image_thumbnails", partial(oracles_ext.extended, "image_thumbnails"), small=True)
def q_image_thumbnails(sf_dir: str):
    """Decode + area-resize pixel stage, reported as (image_id,
    thumb_hash, mean_{r,g,b}_x100) where thumb_hash is blake2b-8 of the
    raw 8×8 RGB thumbnail bytes. ORACLE-CHECKED since r4: thumbnails are
    byte-exact deterministic, so the oracle reads the expected signature
    table built by the SEQUENTIAL single-process codec path
    (``thumbnail_signature_parquet``) — the comparison proves the
    distributed task pipeline (batching, Arrow plumbing) reproduces the
    reference bytes, the simhash-signature
    discipline applied to pixels. Raw thumbnail bytes remain available to
    pipelines via ``stages.image.thumbnail_images``."""
    from ..stages.image import thumbnail_images

    return thumbnail_images(_images(sf_dir)).map_batches(
        _thumb_sig, batch_format="pyarrow"
    )


def _thumb_sig(batch: pa.Table) -> pa.Table:
    import hashlib

    hashes = [
        int.from_bytes(
            hashlib.blake2b(t, digest_size=8).digest(), "little", signed=False
        )
        for t in batch["thumb"].to_pylist()
    ]
    return pa.table(
        {
            "image_id": batch["image_id"],
            "thumb_hash": pa.array(
                np.array(hashes, np.uint64).view(np.int64), pa.int64()
            ),
            "mean_r_x100": batch["mean_r_x100"],
            "mean_g_x100": batch["mean_g_x100"],
            "mean_b_x100": batch["mean_b_x100"],
        }
    )


def _image_signatures(fdir: str, name: str, cols: list[str], per_image) -> str:
    """Expected per-image values from the SEQUENTIAL codec path (no Ray):
    one plain loop decoding every fixture image and calling
    ``per_image(rgb)`` → one int per column of ``cols``. The oracle's
    ground truth — independent of the distributed pipeline's batching and
    distribution, so equality is a real end-to-end check. Cached in the
    corpus cache, keyed by the tier's images.parquet content."""
    import pyarrow.parquet as pq

    from ..fixtures.codecs import decode as cdecode

    images = os.path.join(fdir, "images.parquet")

    def write(tmp: str) -> None:
        src = pq.read_table(images, columns=["image_id", "bytes", "fmt"])
        rows = [
            per_image(cdecode(blob, fmt))
            for blob, fmt in zip(src["bytes"].to_pylist(), src["fmt"].to_pylist())
        ]
        tbl = {"image_id": pa.array(src["image_id"].to_pylist(), pa.string())}
        for i, c in enumerate(cols):
            tbl[c] = pa.array([int(r[i]) for r in rows], pa.int64())
        pq.write_table(pa.table(tbl), tmp)

    return cache.materialize(cache.key(name, images), write)


def _blake_i64(b: bytes) -> int:
    """blake2b-8 of ``b`` as a little-endian SIGNED int64 (the uint64
    digest bit-cast, as the Arrow int64 signature columns store it)."""
    import hashlib

    return int.from_bytes(
        hashlib.blake2b(b, digest_size=8).digest(), "little", signed=True
    )


def thumbnail_signature_parquet(fdir: str, out: int = 8) -> str:
    """Expected thumbnail signatures (decode → resize_area → quantize →
    blake2b-8, plus the rounded channel means) from the sequential codec
    path (:func:`_image_signatures`)."""
    from ..fixtures.codecs import resize_area

    def sig(rgb):
        th = resize_area(rgb, out, out)
        q = np.clip(np.floor(th + 0.5), 0, 255).astype(np.uint8)
        m = np.floor(th.reshape(-1, 3).mean(axis=0) * 100.0 + 0.5).astype(np.int64)
        return (_blake_i64(q.tobytes()), *m)

    return _image_signatures(
        fdir,
        f"thumbnail_signatures-out{out}.parquet",
        ["thumb_hash", "mean_r_x100", "mean_g_x100", "mean_b_x100"],
        sig,
    )


@query("image_blur_scores", partial(oracles_ext.extended, "image_blur_scores"), small=True)
def q_image_blur_scores(sf_dir: str):
    """BLUR / SHARPNESS GATE: integer Laplacian-variance per image
    (``stages.image.lap_var_stats`` — BT.601 integer luma, 4-neighbor
    stencil, exact rational variance) as task-based ``map_batches`` —
    the standard junk filter next to the decode/phash gates (a soft or
    near-empty image scores low). ORACLE-CHECKED against the SEQUENTIAL
    no-Ray signature table (``blur_signature_parquet``, the
    image_thumbnails discipline): arithmetic is one shared function, so
    equality pins the distributed plumbing (batching, Arrow columns)
    end-to-end.

    Scale shape: map-side only — column-pruned read, small payload
    batches through stateless tasks, no shuffle."""
    from ..stages.image import blur_scores

    return blur_scores(_images(sf_dir))


JUNK_BLUR_MIN_MICRO = 300_000_000  # lap var below → 'blurry' (fixture-
# calibrated below the p5 of the small tier so the gate splits the corpus
# instead of keeping everything; a real system calibrates on labeled junk)
JUNK_DARK_MAX_PPM = 500_000  # more than half the pixels dark → 'dark'
JUNK_BRIGHT_MAX_PPM = 500_000  # more than half blown out → 'bright'


@query("image_junk_gate", partial(oracles_ext.extended, "image_junk_gate"), small=True)
def q_image_junk_gate(sf_dir: str):
    """COMPOSED IMAGE JUNK GATE: one decode per image feeding BOTH
    sharpness and exposure kernels, reduced to (image_id, keep,
    reason) with first-fail precedence tiny → blurry → dark → bright →
    ok — the single-pass keep/drop audit an image-curation pipeline
    actually runs (decoding twice to ask two questions is the
    anti-pattern; this stage shares the decode). Thresholds are module
    constants the oracle replays.

    Scale shape: map-side only — one task-based pixel pass, no shuffle;
    the oracle joins the two sequential signature tables and applies the
    same CASE, so the comparison pins the fusion logic end-to-end."""
    return map_pixels(_images(sf_dir), junk_gate_batch)


def _junk_reason(rgb) -> str:
    n_int, lap = lap_var_stats(rgb)
    n, d, br = exposure_stats(rgb)
    if n_int == 0:
        return "tiny"
    if lap < JUNK_BLUR_MIN_MICRO:
        return "blurry"
    if (d * 1_000_000) // n > JUNK_DARK_MAX_PPM:
        return "dark"
    if (br * 1_000_000) // n > JUNK_BRIGHT_MAX_PPM:
        return "bright"
    return "ok"


def _junk_gate_row(rgb, row):
    reason = _junk_reason(rgb)
    return reason == "ok", reason


junk_gate_batch = pixel_batch(
    _junk_gate_row, [("keep", pa.bool_()), ("reason", pa.string())]
)


def _junk_gate_sql(fdir: str) -> str:
    blur = blur_signature_parquet(fdir)
    expo = exposure_signature_parquet(fdir)
    reason = (
        "CASE WHEN b.n_interior = 0 THEN 'tiny' "
        f"WHEN b.lap_var_micro < {JUNK_BLUR_MIN_MICRO} THEN 'blurry' "
        f"WHEN e.dark_ppm > {JUNK_DARK_MAX_PPM} THEN 'dark' "
        f"WHEN e.bright_ppm > {JUNK_BRIGHT_MAX_PPM} THEN 'bright' "
        "ELSE 'ok' END"
    )
    return (
        f"SELECT b.image_id, {reason} = 'ok' AS keep, {reason} AS reason "
        f"FROM read_parquet('{blur}') b "
        f"JOIN read_parquet('{expo}') e USING (image_id)"
    )


GRAY_MAX_CHROMA_MICRO = 65_000_000  # mean chroma below ~65/255 → 'gray'
# (fixture-calibrated at the small tier's p5 so the gate splits the
# corpus; a real system calibrates on labeled diagrams/scans)
FLAT_MIN_PPM = 10_000  # dominant 12-bit color bin above 1% of pixels →
# 'flat' (placeholder/solid-color junk; fixture p95)


@query("image_color_stats", partial(oracles_ext.extended, "image_color_stats"), small=True)
def q_image_color_stats(sf_dir: str):
    """GRAYSCALE / FLAT-COLOR JUNK GATE: per-image integer color
    statistics (``stages.image.color_stats`` — exact mean chroma ppm +
    dominant quantized-RGB bin share) via task-based ``map_batches``,
    with the two derived keep/drop flags (is_gray, is_flat) an
    image-curation pipeline gates on: near-gray images are usually
    diagrams/scans/placeholders, flat images are solid-color stubs —
    the junk classes the blur and exposure gates cannot see (a sharp,
    well-exposed solid logo passes both). ORACLE-CHECKED against the
    SEQUENTIAL no-Ray signature table (``color_signature_parquet``,
    the image_thumbnails discipline) with the thresholds replayed in
    SQL, so equality pins both the distributed plumbing and the gate
    logic. Reference anchor: junk gating extends ArticleExtractionBolt's
    size/gif heuristics (ArticleExtractionBolt.java:411-443) to pixel
    statistics.

    Scale shape: map-side only — column-pruned read, small payload
    batches through stateless tasks, no shuffle."""
    import pyarrow.compute as pc

    from ..stages.image import color_scores

    def flag(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "is_gray",
            pc.less(batch["chroma_mean_micro"], GRAY_MAX_CHROMA_MICRO),
        ).append_column(
            "is_flat", pc.greater(batch["dominant_ppm"], FLAT_MIN_PPM)
        )

    return color_scores(_images(sf_dir)).map_batches(
        flag, batch_format="pyarrow"
    )


def color_signature_parquet(fdir: str) -> str:
    """Expected color stats from the sequential codec path
    (:func:`_image_signatures`) — the oracle's ground truth."""
    return _image_signatures(
        fdir,
        "color_signatures.parquet",
        ["n_pixels", "chroma_mean_micro", "dominant_bin", "dominant_ppm"],
        color_stats,
    )


@query("image_curation_funnel", partial(oracles_ext.extended, "image_curation_funnel"), small=True)
def q_image_curation_funnel(sf_dir: str):
    """IMAGE CURATION FUNNEL: the whole image-tier gate chain as ONE
    audit row of cumulative survivors —

      n_images → n_decode_ok → n_pass_junk (sharp, not under/over-
      exposed, not tiny) → n_pass_color (not gray, not flat) →
      n_dedup_rep (first-wins pHash keeper) → n_aligned (caption gate)

    — the report an image-curation run ships with its output (the
    doc-side twin is ``curation_funnel``). ONE decode per image feeds
    ALL pixel kernels (blur, exposure, color, pseudo-embed for the
    caption dot) inside one task-based pass — decoding per-gate is the
    anti-pattern the composed junk gate already avoids; this extends
    the sharing to the full chain.

    Scale shape: map-side pixel pass → ONE phash-keyed shuffle (keeper
    resolution + cumulative-count partials inside ``map_groups``) →
    pair-of-rows driver sum. The phash groupby is the same key the
    dedup pipeline shuffles by. Oracle: joins the blur/exposure/color
    signature tables, the alignment CTE and the MIN-per-phash keeper,
    replaying every threshold; the engine's measured decode_ok count
    is compared against the fixture's all-decode invariant."""
    nb = derive_buckets(_images(sf_dir), floor=16)

    def per_bucket(df) -> "pd.DataFrame":
        # a bucket holds WHOLE phash groups (hash partitioning), so the
        # keeper resolve is one vectorized pandas transform — never one
        # Python call per mostly-singleton phash group (the bucketed-
        # finisher discipline of the scheduler queries)
        import pandas as pd

        rep = (
            df["image_id"] == df.groupby("phash")["image_id"].transform("min")
        ).to_numpy()
        a = df["dec"].to_numpy().astype(bool)
        b = a & df["junk"].to_numpy().astype(bool)
        c = b & df["col"].to_numpy().astype(bool)
        d = c & rep
        e = d & df["ali"].to_numpy().astype(bool)
        return pd.DataFrame(
            {
                "n_images": [len(df)],
                "n_decode_ok": [int(a.sum())],
                "n_pass_junk": [int(b.sum())],
                "n_pass_color": [int(c.sum())],
                "n_dedup_rep": [int(d.sum())],
                "n_aligned": [int(e.sum())],
            }
        )

    parts = (
        cogroup(curation_gates(_images(sf_dir)), "phash", per_bucket, nb)
        .to_pandas()  # bucket-bounded partial rows
        .sum()
    )
    cols = [
        "n_images",
        "n_decode_ok",
        "n_pass_junk",
        "n_pass_color",
        "n_dedup_rep",
        "n_aligned",
    ]
    return pa.table({c: pa.array([int(parts[c])], pa.int64()) for c in cols})


def _gates_row(rgb, row):
    if rgb is None:
        return 0, 0, 0, 0
    _, chroma, _, dom_ppm = color_stats(rgb)
    return (
        1,
        int(_junk_reason(rgb) == "ok"),
        int(chroma >= GRAY_MAX_CHROMA_MICRO and dom_ppm <= FLAT_MIN_PPM),
        _align_row(rgb, row)[1],
    )


def curation_gates(images: str):
    """The funnel's pixel pass: (phash, image_id, dec, junk, col, ali)
    0/1 gate flags per image, one decode each; an undecodable image
    passes no gate."""
    return map_pixels(
        images,
        pixel_batch(
            _gates_row,
            [("dec", I64), ("junk", I64), ("col", I64), ("ali", I64)],
            keep=("phash", "image_id"),
            allow_undecodable=True,
        ),
        ["caption", "phash"],
    )


@query("image_exposure_stats", partial(oracles_ext.extended, "image_exposure_stats"), small=True)
def q_image_exposure_stats(sf_dir: str):
    """EXPOSURE JUNK GATE: per-image under/over-exposed pixel fractions
    (integer BT.601 luma thresholds 16/239, exact ppm) as task-based
    ``map_batches`` — a mostly-black or blown-out image is
    curation junk even when sharp (complements ``image_blur_scores``).
    ORACLE-CHECKED against the sequential signature table
    (``exposure_signature_parquet``, the image_thumbnails discipline).

    Scale shape: map-side only — column-pruned read, small payload
    batches through stateless tasks, no shuffle."""
    from ..stages.image import exposure_scores

    return exposure_scores(_images(sf_dir))


def exposure_signature_parquet(fdir: str) -> str:
    """Expected exposure stats from the sequential codec path
    (:func:`_image_signatures`) — the oracle's ground truth."""

    def sig(rgb):
        n, d, br = exposure_stats(rgb)
        return n, (d * 1_000_000) // n if n else 0, (br * 1_000_000) // n if n else 0

    return _image_signatures(
        fdir, "exposure_signatures.parquet", ["n_pixels", "dark_ppm", "bright_ppm"], sig
    )


def blur_signature_parquet(fdir: str) -> str:
    """Expected blur stats from the sequential codec path through the same
    ``lap_var_stats`` kernel (:func:`_image_signatures`) — the oracle's
    ground truth for the distributed pipeline."""
    return _image_signatures(
        fdir, "blur_signatures.parquet", ["n_interior", "lap_var_micro"], lap_var_stats
    )


@query("image_embed", partial(oracles_ext.extended, "image_embed"), small=True)
def q_image_embed(sf_dir: str):
    """Deterministic 64-dim pseudo-embedding per image (SURF/VLAD/PCA
    stand-in, FeatureExtractorBolt shape), reported as (image_id,
    emb_hash, e0_micro, norm_ppm). ORACLE-CHECKED since r5: embeddings
    are byte-exact deterministic float32, so the oracle reads the
    expected signature table built by the SEQUENTIAL single-process
    codec path (``embed_signature_parquet``) — equality proves the
    distributed actor-pool pipeline (batching, actor state, Arrow list
    plumbing) reproduces the reference floats bit-for-bit, the
    image_thumbnails signature discipline applied to embeddings. Raw
    (image_id, embedding list<float32>) rows remain available to
    pipelines via ``stages.image.embed_images`` /
    :func:`fixture_embeddings_parquet`."""
    from ..stages.image import embed_images

    return embed_images(_images(sf_dir)).map_batches(
        _embed_sig, batch_format="pyarrow"
    )


def _embed_sig(batch: pa.Table) -> pa.Table:
    import hashlib

    sigs, e0s, norms = [], [], []
    for emb in batch["embedding"].to_pylist():
        v = np.asarray(emb, np.float32)
        sigs.append(
            int.from_bytes(
                hashlib.blake2b(v.tobytes(), digest_size=8).digest(),
                "little",
                signed=False,
            )
        )
        e0s.append(int(np.floor(float(v[0]) * 1e6 + 0.5)) if len(v) else 0)
        norms.append(int(np.floor(float(np.linalg.norm(v.astype(np.float64))) * 1e6 + 0.5)))
    return pa.table(
        {
            "image_id": batch["image_id"],
            "emb_hash": pa.array(np.array(sigs, np.uint64).view(np.int64), pa.int64()),
            "e0_micro": pa.array(e0s, pa.int64()),
            "norm_ppm": pa.array(norms, pa.int64()),
        }
    )


def embed_signature_parquet(fdir: str) -> str:
    """Expected embedding signatures (decode → pseudo_embed_rgb → float32 →
    blake2b-8, first component, norm) from the sequential codec path
    (:func:`_image_signatures`). Ground truth for the image_embed oracle."""

    def sig(rgb):
        v = pseudo_embed_rgb(rgb).astype(np.float32)
        e0 = int(np.floor(float(v[0]) * 1e6 + 0.5)) if len(v) else 0
        norm = int(np.floor(float(np.linalg.norm(v.astype(np.float64))) * 1e6 + 0.5))
        return _blake_i64(v.tobytes()), e0, norm

    return _image_signatures(
        fdir, "embed_signatures.parquet", ["emb_hash", "e0_micro", "norm_ppm"], sig
    )


@query("image_topk_similar", partial(oracles_ext.extended, "image_topk_similar"), small=True)
def q_image_topk_similar(sf_dir: str):
    """Similarity search over the IMAGE tier: exact cosine top-5 neighbors
    for the first 5 images, over the engine-materialized pseudo-embedding
    table — the query side of ``VisualIndexerBolt``'s
    getSimilarImages service as a batch pipeline (same partial-top-k
    broadcast-matmul shape as ``embedding_top10``, applied to the
    multimodal fixture). Oracle: brute-force ``list_cosine_similarity``
    over the same engine-produced table (fixture-backed)."""
    from ..stages.ann import brute_force_topk

    return brute_force_topk(fixture_embeddings_parquet(sf_dir), n_queries=5, k=5)


@query("caption_token_counts", partial(oracles_ext.extended, "caption_token_counts"), small=True)
def q_caption_token_counts(sf_dir: str):
    """Text analytics over the multimodal table's CAPTION column (the
    input_hint pairs every image with a caption): global token tf + df,
    partial-counted per batch before one vocabulary-bounded shuffle —
    the token_counts pipeline pointed at image+caption data."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .queries import TOKEN_RE

    def partial(batch: pa.Table) -> pa.Table:
        from collections import Counter

        tf: Counter = Counter()
        df: Counter = Counter()
        for cap in batch["caption"].to_pylist():
            toks = TOKEN_RE.findall(cap.lower())
            tf.update(toks)
            df.update(set(toks))
        keys = list(tf.keys())
        return pa.table(
            {
                "token": pa.array(keys, pa.string()),
                "ptf": pa.array([tf[k] for k in keys], pa.int64()),
                "pdf": pa.array([df[k] for k in keys], pa.int64()),
            }
        )

    return (
        rd.read_parquet(_images(sf_dir), columns=["image_id", "caption"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("ptf", alias_name="tf"), Sum("pdf", alias_name="df"))
    )


# --------------------------------------------------------------------------
# ANN over the driver's embeddings table
# --------------------------------------------------------------------------


@query("ann_ivf_top10", partial(oracles_ext.extended, "ann_ivf_top10"), small=True)
def q_ann_ivf_top10(sf_dir: str):
    from ..stages.ann import ivf_topk

    return ivf_topk(os.path.join(sf_dir, "embeddings.parquet"), n_queries=5, k=10)


@query(
    "ann_ivf_partitioned_top10",
    partial(oracles_ext.extended, "ann_ivf_partitioned_top10"),
    small=True,
)
def q_ann_ivf_partitioned_top10(sf_dir: str):
    """IVF over a centroid-partitioned parquet layout — queries read ONLY
    their nprobe partitions (prune-at-the-read scale path); result equals
    the in-memory IVF (tests/test_ann.py)."""
    from ..stages.ann import ivf_layout_key, ivf_partitioned_topk

    src = os.path.join(sf_dir, "embeddings.parquet")
    return ivf_partitioned_topk(src, ivf_layout_key(src), n_queries=5, k=10)


@query("ann_lsh_top10", partial(oracles_ext.extended, "ann_lsh_top10"), small=True)
def q_ann_lsh_top10(sf_dir: str):
    from ..stages.ann import lsh_topk

    return lsh_topk(os.path.join(sf_dir, "embeddings.parquet"), n_queries=5, k=10)


@query("embedding_dup_pairs", partial(oracles_ext.extended, "embedding_dup_pairs"))
def q_embedding_dup_pairs(sf_dir: str):
    """Embedding-cosine near-dup pairs via hyperplane-LSH blocking
    (stages/dedup.embedding_cosine_pairs). NOTE: the driver's embeddings
    table plants no near-duplicates (max off-diagonal cosine < 0.8), so this
    is the plumbing path; image_embed_dup_pairs exercises real positives."""
    from ..stages.dedup import embedding_cosine_pairs
    from .queries import pairs_to_df

    return pairs_to_df(
        embedding_cosine_pairs(
            os.path.join(sf_dir, "embeddings.parquet"), threshold=0.95
        ),
        ["doc_a", "doc_b"],
    )


def fixture_embeddings_parquet(sf_dir: str) -> str:
    """Materialize pseudo-embeddings of the image fixture once per tier
    (deterministic; cached next to the fixture) as (vec_id, embedding)."""
    return pseudo_embeddings_for_fixture(fixture_dir_for(sf_dir))


def pseudo_embeddings_for_fixture(fdir: str) -> str:
    """fixture-dir variant of :func:`fixture_embeddings_parquet` (shared by
    the oracle builder, which addresses the small fixture dir directly)."""
    import pyarrow.parquet as pq

    from ..stages.image import embed_images

    images = os.path.join(fdir, "images.parquet")

    def write(tmp: str) -> None:
        tbl = pa.concat_tables(
            list(embed_images(images).iter_batches(batch_format="pyarrow"))
        )
        vec_ids = pa.array(
            [int(i[3:]) for i in tbl["image_id"].to_pylist()], pa.int64()
        )
        pq.write_table(pa.table({"vec_id": vec_ids, "embedding": tbl["embedding"]}), tmp)

    return cache.materialize(cache.key("pseudo_embeddings.parquet", images), write)


@query("image_visual_clusters", partial(oracles_ext.extended, "image_visual_clusters"), small=True)
def q_image_visual_clusters(sf_dir: str):
    """Full visual-indexing path (Crawler topology §3.2): pseudo-embed every
    image → replay through the sharded combined query+insert index (0.85
    gate) → incremental clusters (0.75, min-member-id labels). Exactly equal
    to the one-at-a-time oracle (tests/test_visual_index.py).

    Scale posture: the combined query+insert is ORDER-SENSITIVE by the
    reference's semantics (an image may only match earlier-indexed images),
    so the replay is inherently a sequential chunk stream — parallelism
    lives inside each chunk (shard fan-out matmuls) and in the embed stage,
    not across chunks. The round-2 form streams id-sorted Arrow batches
    (one chunk driver-resident). At 100 TB one would either (a) shard the
    replay by independent key ranges when the application tolerates
    per-partition order (clusters then merge via min-label union-find), or
    (b) drop order sensitivity and use the batch ANN path (stages/ann.py)
    + connected components, which IS embarrassingly parallel — both change
    semantics, so this query keeps the faithful sequential replay."""
    import ray
    import ray.data as rd

    from ..stages.ann import _batch_embeddings
    from ..state.visual_index import index_and_cluster_stream, make_index_shards

    emb = fixture_embeddings_parquet(sf_dir)
    # stream id-sorted chunks straight off the Dataset — only one chunk of
    # vectors is driver-resident at a time (vec_id sorts identically to the
    # zero-padded img id string)
    ds = rd.read_parquet(emb, columns=["vec_id", "embedding"]).sort("vec_id")

    def chunks():
        for batch in ds.iter_batches(batch_format="pyarrow", batch_size=256):
            ids = [f"img{int(v):08d}" for v in batch["vec_id"].to_pylist()]
            yield ids, _batch_embeddings(batch)

    shards = make_index_shards(4)
    try:
        _nearest, clusters = index_and_cluster_stream(chunks(), shards)
    finally:
        for s in shards:
            ray.kill(s)
    items = sorted(clusters.items())
    return pa.table(
        {
            "image_id": pa.array([k for k, _ in items], pa.string()),
            "cluster_id": pa.array([v for _, v in items], pa.string()),
        }
    )


def visual_clusters_parallel(emb_parquet: str, n_parts: int = 4):
    """Partition-parallel visual clustering (the 100-TB option (a) from
    q_image_visual_clusters' docstring), as its own opt-in operator:

    1. hash-partition image ids into ``n_parts`` independent groups;
    2. run the ORDER-SENSITIVE replay per partition, in parallel, inside
       ``groupby(part).map_groups`` (each group is one task; the replay is
       the same sequential_oracle comparison domain as the sharded engine);
    3. recover CROSS-partition merges symmetrically: hyperplane-LSH
       near-pair join at the cluster threshold (stages/dedup), keep pairs
       whose endpoints live in different partitions, min-label union-find
       over the per-partition cluster labels
       (state/visual_index.merge_partition_clusters).

    SEMANTICS: equals the faithful sequential replay EXACTLY whenever no
    near-neighbor pair (cosine ≥ 0.75) crosses partitions
    (tests/test_visual_parallel.py). When pairs DO cross, the result is a
    COARSENING of the sequential clustering (given LSH recall): sequential
    components are the forest of nearest-earlier attachments at ≥ 0.75,
    every such edge is either a within-partition replay edge or a
    cross-partition ≥ 0.75 pair, so each sequential cluster lands inside
    one parallel cluster — but the symmetric cross-merge may also fuse
    clusters that order-sensitive replay kept apart. On the dup-heavy
    fixture the coarsening is large (sf0.001: 30 sequential clusters vs 32
    parallel with one fused mega-component; sf0.01: 47 vs 4) because dup
    chains make ≥ 0.75 components much coarser than nearest-earlier
    forests. That one-directional approximation is why the faithful
    sequential query stays the default: this variant's semantics are
    "connected components at the cluster threshold across partitions",
    i.e. docstring option (a)+(b) hybrid, exact only on
    partition-independent inputs."""
    import pandas as pd
    import ray.data as rd

    from ..stages.dedup import embedding_cosine_pairs
    from ..state.visual_index import (
        CLUSTER_THRESHOLD,
        merge_partition_clusters,
        sequential_oracle,
    )

    def add_part(batch: pa.Table) -> pa.Table:
        ids = [f"img{int(v):08d}" for v in batch["vec_id"].to_pylist()]
        return batch.append_column("part", pa.array(bucket_of(ids, n_parts)))

    def replay_group(df: "pd.DataFrame") -> "pd.DataFrame":
        ids = [f"img{int(v):08d}" for v in df["vec_id"]]
        vecs = np.stack([np.asarray(e, np.float32) for e in df["embedding"]])
        _nearest, clusters = sequential_oracle(ids, vecs)
        items = sorted(clusters.items())
        return pd.DataFrame(
            {
                "image_id": [k for k, _ in items],
                "cluster_id": [v for _, v in items],
            }
        )

    part_labels = (
        rd.read_parquet(emb_parquet, columns=["vec_id", "embedding"])
        .map_batches(add_part, batch_format="pyarrow")
        .groupby("part")
        .map_groups(replay_group, batch_format="pandas")
        .to_pandas()  # output-sized: one (id, label) row per image
    )
    labels = dict(zip(part_labels["image_id"], part_labels["cluster_id"]))
    # cross-partition near pairs at the CLUSTER threshold (distributed LSH
    # blocking + exact in-bucket cosine; pair volume is output-shaped)
    pairs = embedding_cosine_pairs(
        emb_parquet, threshold=CLUSTER_THRESHOLD
    ).to_pandas()
    edges = []
    for a, b in zip(pairs["doc_a"], pairs["doc_b"]):
        ia, ib = f"img{int(a):08d}", f"img{int(b):08d}"
        pa_, pb_ = bucket_of([ia, ib], n_parts)
        if pa_ != pb_:
            edges.append((ia, ib))
    merged = merge_partition_clusters(labels, edges)
    items = sorted(merged.items())
    return pa.table(
        {
            "image_id": pa.array([k for k, _ in items], pa.string()),
            "cluster_id": pa.array([v for _, v in items], pa.string()),
        }
    )


@query("image_visual_clusters_parallel")
def q_image_visual_clusters_parallel(sf_dir: str):
    """Opt-in partition-parallel variant of q_image_visual_clusters — see
    :func:`visual_clusters_parallel` for semantics and the exact-equality
    condition vs the faithful sequential replay."""
    return visual_clusters_parallel(fixture_embeddings_parquet(sf_dir))


@query("image_embed_dup_pairs", partial(oracles_ext.extended, "image_embed_dup_pairs"), small=True)
def q_image_embed_dup_pairs(sf_dir: str):
    """Embedding-cosine near-dup over the image fixture's pseudo-embeddings:
    planted duplicates (re-encode / downscale) give genuine cosine≈1 pairs."""
    from ..stages.dedup import embedding_cosine_pairs
    from .queries import pairs_to_df

    return pairs_to_df(
        embedding_cosine_pairs(fixture_embeddings_parquet(sf_dir), threshold=0.995),
        ["doc_a", "doc_b"],
    )


# --------------------------------------------------------------------------
# n-gram Jaccard near-dup (documents)
# --------------------------------------------------------------------------


@query("simhash_dup_pairs", partial(oracles_ext.extended, "simhash_dup_pairs"), small=True)
def q_simhash_dup_pairs(sf_dir: str):
    """SimHash near-dup pairs: 4×16-bit band blocking (pigeonhole-exact for
    Hamming ≤ 3), exact Hamming verify."""
    from ..stages.dedup import simhash_near_pairs
    from .queries import pairs_to_df

    return pairs_to_df(
        simhash_near_pairs(os.path.join(sf_dir, "documents.parquet"), max_hamming=3),
        ["doc_a", "doc_b"],
    )


@query("items_pos_tokens", partial(oracles_ext.extended, "items_pos_tokens"), small=True)
def q_items_pos_tokens(sf_dir: str):
    """TokenizationBolt POS mode: 'word#tag' tokens (deterministic
    suffix-rule tagger standing in for the Maxent model)."""
    from ..stages.nlp import items_tokens

    return items_tokens(_items(sf_dir), mode="POS")


@query("ngram_jaccard_pairs", partial(oracles_ext.extended, "ngram_jaccard_pairs"))
def q_ngram_jaccard_pairs(sf_dir: str):
    """Token-3-gram Jaccard ≥ 0.5 near-dup pairs: per-doc shingle-hash
    signature → MinHash-LSH candidate blocking → exact 3-gram Jaccard
    verify. Scale path identical to minhash_dup_pairs but over word
    3-grams instead of char shingles."""
    from ..stages.dedup import minhash_lsh_pairs
    from .queries import pairs_to_df

    return pairs_to_df(
        minhash_lsh_pairs(
            os.path.join(sf_dir, "documents.parquet"),
            threshold=0.5,
            shingle="word3",
        ),
        ["doc_a", "doc_b", "jaccard_micro"],
    )


# --------------------------------------------------------------------------
# windowed event detection (EventDetectionBolt / Vocabulary / Snapshots)
# --------------------------------------------------------------------------

EVENT_WINDOWS = 5
DOCS_PER_WINDOW = 50


@query("event_candidates", partial(oracles_ext.extended, "event_candidates"))
def q_event_candidates(sf_dir: str):
    """Candidate event tokens per window over the documents table, windowed
    by ingest order (window = doc_id // DOCS_PER_WINDOW — the reference
    windows by arrival time; EventDetectionBolt.java:102-141):

    1. (window, token) document frequencies via partial counts in
       map_batches + small groupby (the wide step is over the tiny
       (window, token) key space, not documents).
    2. Token-hash-bucketed monotonic IDF / IDF-shift rule over the last
       EVENT_WINDOWS snapshots per evaluation point
       (stages.nlp.candidate_events_dataset — the driver only ever holds
       the per-window doc counts, |windows| rows; r4 'Next round' #3).

    Returns (window, token) candidate rows."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .queries import TOKEN_RE, _p

    def partial(batch: pa.Table) -> pa.Table:
        win = batch["doc_id"].to_numpy() // DOCS_PER_WINDOW
        texts = batch["text"].to_pylist()
        df: dict[tuple[int, str], int] = {}
        nd: dict[int, int] = {}
        for w, t in zip(win, texts):
            w = int(w)
            nd[w] = nd.get(w, 0) + 1
            for tok in set(TOKEN_RE.findall(t.lower())):
                df[(w, tok)] = df.get((w, tok), 0) + 1
        keys = list(df.keys())
        return pa.table(
            {
                "window": pa.array([k[0] for k in keys] + list(nd.keys()), pa.int64()),
                "token": pa.array(
                    [k[1] for k in keys] + ["\x00NDOCS"] * len(nd), pa.string()
                ),
                "pdf": pa.array(list(df.values()) + list(nd.values()), pa.int64()),
            }
        )

    counts = (
        rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["window", "token"])
        .aggregate(Sum("pdf", alias_name="df"))
    )
    from ..stages.nlp import candidate_events_dataset

    return candidate_events_dataset(counts, windows=EVENT_WINDOWS)


@query(
    "windowed_token_df",
    (
    'WITH tok AS (SELECT CAST(FLOOR(doc_id / {dpw}.0) AS BIGINT) AS "window", '
    "unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9]+'))) AS token "
    "FROM documents) "
    'SELECT "window", token, COUNT(*) AS df FROM tok GROUP BY 1, 2'
    ).format(dpw=DOCS_PER_WINDOW),
)
def q_windowed_token_df(sf_dir: str):
    """SQL-checkable windowed (window, token) document frequency."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .queries import TOKEN_RE, _p

    def partial(batch: pa.Table) -> pa.Table:
        win = batch["doc_id"].to_numpy() // DOCS_PER_WINDOW
        texts = batch["text"].to_pylist()
        df: dict[tuple[int, str], int] = {}
        for w, t in zip(win, texts):
            for tok in set(TOKEN_RE.findall(t.lower())):
                df[(int(w), tok)] = df.get((int(w), tok), 0) + 1
        keys = list(df.keys())
        return pa.table(
            {
                "window": pa.array([k[0] for k in keys], pa.int64()),
                "token": pa.array([k[1] for k in keys], pa.string()),
                "pdf": pa.array(list(df.values()), pa.int64()),
            }
        )

    return (
        rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["window", "token"])
        .aggregate(Sum("pdf", alias_name="df"))
    )


# --------------------------------------------------------------------------
# misc SQL-checked additions (scalar-fn + per-group top-k parity)
# --------------------------------------------------------------------------


@query(
    "props_extract",
    "SELECT event_id, CAST(json_extract(props, '$.k') AS BIGINT) AS k FROM events",
)
def q_props_extract(sf_dir: str):
    """JSON scalar extraction (Gson-deserialization parity — SURVEY §2.10
    scalar functions): props → k as int."""
    import json

    import ray.data as rd

    from .queries import _p

    def ext(batch: pa.Table) -> pa.Table:
        ks = [json.loads(p)["k"] for p in batch["props"].to_pylist()]
        return pa.table(
            {"event_id": batch["event_id"], "k": pa.array(ks, pa.int64())}
        )

    return rd.read_parquet(_p(sf_dir, "events"), columns=["event_id", "props"]).map_batches(
        ext, batch_format="pyarrow"
    )


@query(
    "top3_docs_per_lang",
    "SELECT doc_id, lang, n_chars FROM documents "
    "QUALIFY ROW_NUMBER() OVER (PARTITION BY lang ORDER BY n_chars DESC, doc_id ASC) <= 3",
)
def q_top3_docs_per_lang(sf_dir: str):
    """Per-group bounded top-k (BoundedPQueue semantics per group): the 3
    longest documents per language, ties broken by doc_id asc."""
    import ray.data as rd

    from .queries import _p

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(["n_chars", "doc_id"], ascending=[False, True]).head(3)

    return (
        rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "lang", "n_chars"])
        .groupby("lang")
        .map_groups(topk, batch_format="pandas")
    )


@query(
    "user_rolling_counts",
    "SELECT CAST(FLOOR(epoch_ms(ts)/600000.0) AS BIGINT) AS window, user_id, "
    "COUNT(*) AS n FROM events GROUP BY 1, 2",
)
def q_host_counts_events(sf_dir: str):
    """Per-user rolling count with 10-minute windows (MediaCounterBolt
    10-min flush cadence as a (window, user) groupby)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .queries import _p

    def partial(batch: pa.Table) -> pa.Table:
        ts_ms = batch["ts"].cast(pa.int64()).to_numpy() // 1000
        win = ts_ms // 600_000
        uid = batch["user_id"].to_numpy()
        agg: dict[tuple[int, int], int] = {}
        for w, u in zip(win, uid):
            agg[(int(w), int(u))] = agg.get((int(w), int(u)), 0) + 1
        keys = list(agg.keys())
        return pa.table(
            {
                "window": pa.array([k[0] for k in keys], pa.int64()),
                "user_id": pa.array([k[1] for k in keys], pa.int64()),
                "pn": pa.array(list(agg.values()), pa.int64()),
            }
        )

    return (
        rd.read_parquet(_p(sf_dir, "events"), columns=["ts", "user_id"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["window", "user_id"])
        .aggregate(Sum("pn", alias_name="n"))
    )


# --------------------------------------------------------------------------
# SocialMediaMonitor pipeline (items fixture; stages/nlp.py)
# --------------------------------------------------------------------------


def _items(sf_dir: str) -> str:
    return os.path.join(fixture_dir_for(sf_dir), "items.parquet")


@query("items_entities", partial(oracles_ext.extended, "items_entities"), small=True)
def q_items_entities(sf_dir: str):
    """EntityExtractionBolt: NER over item titles, deduped (type, lowercase
    name) with mention counts (deterministic pattern model; actor-pool
    shape). Exploded to one row per (item, entity) with ``ord`` = first-
    occurrence rank so the nested list<struct> is hash-comparable by the
    DuckDB oracle; items with no entities emit no rows."""
    import ray.data as rd

    from ..stages.nlp import EntityExtractor

    def explode(batch: pa.Table) -> pa.Table:
        ids, names, typs, counts, ords = [], [], [], [], []
        for iid, ents in zip(batch["id"].to_pylist(), batch["entities"].to_pylist()):
            for k, e in enumerate(ents):
                ids.append(iid)
                names.append(e["name"])
                typs.append(e["type"])
                counts.append(int(e["count"]))
                ords.append(k)
        return pa.table(
            {
                "id": pa.array(ids, pa.string()),
                "name": pa.array(names, pa.string()),
                "type": pa.array(typs, pa.string()),
                "count": pa.array(counts, pa.int64()),
                "ord": pa.array(ords, pa.int64()),
            }
        )

    return (
        rd.read_parquet(_items(sf_dir), columns=["id", "title"])
        .map_batches(EntityExtractor, batch_format="pyarrow", concurrency=(1, 4))
        .map_batches(explode, batch_format="pyarrow")
    )


@query("items_ne_tokens", partial(oracles_ext.extended, "items_ne_tokens"), small=True)
def q_items_ne_tokens(sf_dir: str):
    """TokenizationBolt NE mode: entity-name tokens per item."""
    from ..stages.nlp import items_tokens

    return items_tokens(_items(sf_dir), mode="NE")


@query("items_bigrams", partial(oracles_ext.extended, "items_bigrams"), small=True)
def q_items_bigrams(sf_dir: str):
    """TokenizationBolt ALL mode + ShingleFilter bigrams ('_' separator)."""
    from ..stages.nlp import items_tokens

    return items_tokens(_items(sf_dir), mode="ALL", ngrams=2)


@query("items_top100", partial(oracles_ext.extended, "items_top100"), small=True)
def q_items_top100(sf_dir: str):
    """ItemsRankerBolt shares-score + BoundedPQueue top-100."""
    from ..stages.nlp import items_ranked

    return items_ranked(_items(sf_dir), k=100)


@query("items_tag_counts", partial(oracles_ext.extended, "items_tag_counts"), small=True)
def q_items_tag_counts(sf_dir: str):
    """ItemsCounterBolt tag counts (explode + partial-agg groupby)."""
    from ..stages.nlp import items_tag_counts

    return items_tag_counts(_items(sf_dir))


@query(
    "items_event_candidates",
    partial(oracles_ext.extended, "items_event_candidates"),
    small=True,
)
def q_items_event_candidates(sf_dir: str):
    """EventDetectionBolt: windowed IDF-shift candidate events over item
    titles (60 s windows, 5 snapshots — SocialMediaMonitor defaults)."""
    from ..stages.nlp import items_event_candidates

    return items_event_candidates(_items(sf_dir))


@query("crawl_trace")
def q_crawl_trace(sf_dir: str):
    """Flagship crawl (north rule) as a registry entry: run the full round
    loop on the deterministic tiny fixture (sharded frontier, politeness,
    expansion+dedup, fetch+extract, link enqueue) and return the trace
    (round, rank, url) — which tests/test_crawl_trace.py proves equal to the
    pure-python oracle."""
    import shutil

    from .config import CrawlConfig
    from .crawl import RayCrawler

    fdir = fixture_dir_for("sf0.001")  # tiny tier — bounded cost at any sf
    out = os.path.join(cache.ROOT, "query_crawl")  # scratch, rebuilt per call
    shutil.rmtree(out, ignore_errors=True)
    cfg = CrawlConfig(n_shards=3, per_host_budget=5, round_budget=40, max_rounds=4)
    eng = RayCrawler(fdir, cfg, out_dir=out)
    try:
        res = eng.run(checkpoint_every=0)
    finally:
        eng.shutdown()
    tr = res["trace"]
    return pa.table(
        {
            "round": pa.array([t[0] for t in tr], pa.int32()),
            "rank": pa.array([t[1] for t in tr], pa.int32()),
            "url": pa.array([t[2] for t in tr], pa.string()),
        }
    )


@query("items_json_roundtrip", partial(oracles_ext.extended, "items_json_roundtrip"), small=True)
def q_items_json_roundtrip(sf_dir: str):
    """Deserialization-bolt semantics (WebPage/MediaItem/Item
    DeserializationBolt: JSON string → typed record, parse failures DROPPED
    — bolts/webpages/WebPageDeserializationBolt.java:41-52): serialize the
    items fixture to JSON lines, then parse back through a map_batches
    deserializer with a malformed row injected per batch (must be dropped,
    not crash)."""
    import json

    import ray.data as rd

    def to_json(batch: pa.Table) -> pa.Table:
        rows = batch.to_pylist()
        payloads = [json.dumps({**r, "ts": int(r["ts"].timestamp() * 1000)}) for r in rows]
        payloads.append("{not valid json")  # injected failure row
        return pa.table({"payload": pa.array(payloads, pa.string())})

    def parse(batch: pa.Table) -> pa.Table:
        ids, titles, users, shares = [], [], [], []
        for p in batch["payload"].to_pylist():
            try:
                r = json.loads(p)
            except Exception:
                continue  # reference drops parse failures silently
            ids.append(r["id"])
            titles.append(r["title"])
            users.append(r["user_id"])
            shares.append(int(r["shares"]))
        return pa.table(
            {
                "id": pa.array(ids, pa.string()),
                "title": pa.array(titles, pa.string()),
                "user_id": pa.array(users, pa.string()),
                "shares": pa.array(shares, pa.int64()),
            }
        )

    return (
        rd.read_parquet(_items(sf_dir))
        .map_batches(to_json, batch_format="pyarrow")
        .map_batches(parse, batch_format="pyarrow")
    )


@query(
    "platform_media_extract",
    partial(oracles_ext.extended, "platform_media_extract"),
    small=True,
)
def q_platform_media_extract(sf_dir: str):
    """MediaExtractionBolt regex dispatch over the URL universe: platform +
    media id per social-routed URL ('' = passthrough row)."""
    import ray.data as rd

    from ..functions.platforms import extract_platform_batch

    def ext(batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        plats, ids = extract_platform_batch(urls)
        return pa.table(
            {
                "url": batch["url"],
                "platform": pa.array(plats, pa.string()),
                "media_id": pa.array(ids, pa.string()),
            }
        )

    return rd.read_parquet(
        os.path.join(fixture_dir_for(sf_dir), "urls.parquet"), columns=["url"]
    ).map_batches(ext, batch_format="pyarrow")


MEDIA_ARRIVAL_MOD = 4096  # synthetic re-arrival rate: distinct media ids


@query(
    "media_stream_users",
    "WITH arr AS (SELECT event_id, epoch_us(ts) AS ts_us, user_id, "
    f"event_id % {MEDIA_ARRIVAL_MOD} AS media_id FROM events), "
    "nm AS (SELECT media_id, ts_us, event_id, user_id FROM "
    "(SELECT arr.*, ROW_NUMBER() OVER (PARTITION BY media_id "
    "ORDER BY ts_us, event_id) AS rn FROM arr) WHERE rn = 1) "
    "SELECT user_id, ts_us AS inserted_ts_us, media_id AS first_media_id "
    "FROM (SELECT nm.*, ROW_NUMBER() OVER (PARTITION BY user_id "
    "ORDER BY ts_us, event_id) AS urn FROM nm) WHERE urn = 1",
)
def q_media_stream_users(sf_dir: str):
    """StreamUsers side-table insert set — ``MediaUpdaterBolt.java:94-125``:
    on a NEW media item's insert, the contributing user is stored iff not
    already present (first wins, ``lastUpdated`` stamped); an UPDATE to
    existing media never touches the users table. Each event row is a
    media-item arrival (media_id = event_id % 4096, a deterministic
    synthetic re-arrival pattern); a media item is NEW iff no earlier
    arrival — order (ts, event_id) — shares its media_id. A user's row
    therefore records their first NEW-media contribution, which is NOT
    necessarily their first event (an arrival of already-stored media
    inserts nothing). The user object itself rides on the item
    (``MediaExtractionBolt.java:172-197`` — see
    functions/platforms.py ``Retriever.resolve_user``).

    Scale shape: per-batch vectorized partial argmin (sort +
    drop_duplicates) shrinks each block to ≤1 row per key BEFORE the
    shuffle, so both groupbys move ≤ blocks×keys rows; the map_groups
    bodies are vectorized pandas picks (the sink.py latest-per-key
    pattern)."""
    import ray.data as rd

    from .queries import _p

    def arrivals(batch: pa.Table) -> pa.Table:
        eid = batch["event_id"].to_numpy()
        df = pd.DataFrame(
            {
                "media_id": eid % MEDIA_ARRIVAL_MOD,
                "ts_us": batch["ts"].cast(pa.int64()).to_numpy(),
                "event_id": eid,
                "user_id": batch["user_id"].to_numpy(),
            }
        )
        df = df.sort_values(["ts_us", "event_id"], kind="stable").drop_duplicates(
            "media_id"
        )
        return pa.Table.from_pandas(df, preserve_index=False)

    def first_arrival(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(["ts_us", "event_id"], kind="stable").head(1)

    new_media = (
        rd.read_parquet(_p(sf_dir, "events"), columns=["event_id", "ts", "user_id"])
        .map_batches(arrivals, batch_format="pyarrow")
        .groupby("media_id")
        .map_groups(first_arrival, batch_format="pandas")
    )

    def user_partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df.sort_values(["ts_us", "event_id"], kind="stable").drop_duplicates(
            "user_id"
        )
        return pa.Table.from_pandas(df, preserve_index=False)

    users = (
        new_media.map_batches(user_partial, batch_format="pyarrow")
        .groupby("user_id")
        .map_groups(first_arrival, batch_format="pandas")
    )

    def final(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch["user_id"],
                "inserted_ts_us": batch["ts_us"],
                "first_media_id": batch["media_id"],
            }
        )

    return users.map_batches(final, batch_format="pyarrow")


# --------------------------------------------------------------------------
# multimodal corpus profiling (the input_hint image+caption table)
# --------------------------------------------------------------------------


@query("image_format_stats", partial(oracles_ext.extended, "image_format_stats"), small=True)
def q_image_format_stats(sf_dir: str):
    """Storage-format profile of the multimodal corpus: per ``fmt`` row
    count, total encoded bytes, total decoded pixels, caption character
    volume and width range. Everything is combined INSIDE each batch with
    an Arrow ``group_by`` (one partial row per fmt per block), so the only
    shuffle is #fmts × #blocks tiny rows — the profile shape that holds at
    100 TB of image shards."""
    import pyarrow.compute as pc
    import ray.data as rd
    from ray.data.aggregate import Max, Min, Sum

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "fmt": batch["fmt"],
                "pn": pa.array(np.ones(len(batch), np.int64)),
                "pbytes": pc.binary_length(batch["bytes"]).cast(pa.int64()),
                "ppix": pc.multiply(
                    batch["w"].cast(pa.int64()), batch["h"].cast(pa.int64())
                ),
                "pcap": pc.utf8_length(batch["caption"]).cast(pa.int64()),
                "pw": batch["w"].cast(pa.int64()),
            }
        )
        g = t.group_by("fmt").aggregate(
            [("pn", "sum"), ("pbytes", "sum"), ("ppix", "sum"),
             ("pcap", "sum"), ("pw", "min"), ("pw", "max")]
        )
        return g.select(
            ["fmt", "pn_sum", "pbytes_sum", "ppix_sum", "pcap_sum",
             "pw_min", "pw_max"]
        ).rename_columns(["fmt", "pn", "pbytes", "ppix", "pcap", "pminw", "pmaxw"])

    return (
        rd.read_parquet(_images(sf_dir))
        .map_batches(partial, batch_format="pyarrow")
        .groupby("fmt")
        .aggregate(
            Sum("pn", alias_name="n_images"),
            Sum("pbytes", alias_name="total_bytes"),
            Sum("ppix", alias_name="total_pixels"),
            Sum("pcap", alias_name="caption_chars"),
            Min("pminw", alias_name="min_w"),
            Max("pmaxw", alias_name="max_w"),
        )
    )


@query("image_aspect_stats", partial(oracles_ext.extended, "image_aspect_stats"), small=True)
def q_image_aspect_stats(sf_dir: str):
    """Aspect-class × format histogram (wide = w:h beyond 4:3, tall = the
    transpose, boxy otherwise) with pixel volume — the size/aspect gate a
    caption-pair curation pipeline applies before decode. Same
    batch-combine partial-agg shape as ``image_format_stats``."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        w = batch["w"].to_numpy().astype(np.int64)
        h = batch["h"].to_numpy().astype(np.int64)
        aspect = np.where(3 * w > 4 * h, "wide", np.where(3 * h > 4 * w, "tall", "boxy"))
        t = pa.table(
            {
                "aspect": pa.array(aspect.astype(object), pa.string()),
                "fmt": batch["fmt"],
                "pn": pa.array(np.ones(len(batch), np.int64)),
                "ppix": pa.array(w * h, pa.int64()),
            }
        )
        g = t.group_by(["aspect", "fmt"]).aggregate([("pn", "sum"), ("ppix", "sum")])
        return g.select(["aspect", "fmt", "pn_sum", "ppix_sum"]).rename_columns(
            ["aspect", "fmt", "pn", "ppix"]
        )

    return (
        rd.read_parquet(_images(sf_dir), columns=["w", "h", "fmt"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["aspect", "fmt"])
        .aggregate(Sum("pn", alias_name="n_images"), Sum("ppix", alias_name="total_pixels"))
    )


@query(
    "image_phash_dup_groups",
    partial(oracles_ext.extended, "image_phash_dup_groups"),
    small=True,
)
def q_image_phash_dup_groups(sf_dir: str):
    """Exact perceptual-hash dedup groups, first-wins: every ``phash``
    carried by more than one image, with copy count and the kept (minimum)
    image_id — the StatusCheckBolt first-wins gate applied to the image
    tier. Partial (count, min-id) per phash inside each batch, one shuffle
    of the pre-combined rows, filter n>1 after the merge; keeper ids travel
    as int64 (the fixture's ``img%08d`` key) so the merge needs no string
    kernels."""
    import pyarrow.compute as pc
    import ray.data as rd
    from ray.data.aggregate import Min, Sum

    def partial(batch: pa.Table) -> pa.Table:
        idnum = pc.cast(pc.utf8_slice_codeunits(batch["image_id"], 3, 99), pa.int64())
        t = pa.table(
            {
                "phash": batch["phash"],
                "pn": pa.array(np.ones(len(batch), np.int64)),
                "pid": idnum,
            }
        )
        g = t.group_by("phash").aggregate([("pn", "sum"), ("pid", "min")])
        return g.select(["phash", "pn_sum", "pid_min"]).rename_columns(
            ["phash", "pn", "pid"]
        )

    def finish(batch: pa.Table) -> pa.Table:
        keep = pc.greater(batch["n_copies"], 1)
        b = batch.filter(keep)
        keeper = pa.array(
            ["img%08d" % v for v in b["keeper_num"].to_pylist()], pa.string()
        )
        return pa.table(
            {"phash": b["phash"], "n_copies": b["n_copies"], "keeper": keeper}
        )

    return (
        rd.read_parquet(_images(sf_dir), columns=["image_id", "phash"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("phash")
        .aggregate(Sum("pn", alias_name="n_copies"), Min("pid", alias_name="keeper_num"))
        .map_batches(finish, batch_format="pyarrow")
    )


PR_ITERS = 5  # deterministic PageRank fixed-point iterations
PR_TOP = 20  # pages kept


@query("pagerank_top20", partial(oracles_ext.extended, "pagerank_top20"), small=True)
def q_pagerank_top20(sf_dir: str):
    """ITERATIVE graph algorithm: integer-exact PageRank over the fixture\'s
    page link graph (``pages.out_links``), top-``PR_TOP`` pages after
    ``PR_ITERS`` synchronous iterations.

    All arithmetic is integer (ranks in micro units; contribution =
    ``rank // out_degree``; update = ``150000 + (85 * inbound) // 100``) so
    the fixed point is order-independent and the unrolled-CTE DuckDB oracle
    reproduces it bit-for-bit — no float summation-order hazard.

    Scale shape: STATIONARY edge shards (stages/pregel.py) over the graph
    layout shared with seed_hop_distance / hits_top20 — the exact internal
    edge list (bloom-prefiltered + exactly verified, the r3 gate) is
    materialized once, out-degrees precompute per shard, and an iteration
    is one emit (locally-combined ``r//d`` partial sums per dst) + one
    node-shaped exchange + a vectorized update for every own node; the
    loop-invariant edges never re-shuffle (extends r4 \'Next round\' #7 to
    PageRank; the former Dataset loop paid two bucketed co-groups + a
    re-materialization per iteration). Top-k merges per-shard local top-k."""
    from ..stages.pregel import pagerank_top
    from .queries_ml5 import _graph_layout

    layout, nb = _graph_layout(sf_dir)
    return pagerank_top(layout, nb, PR_ITERS, PR_TOP)


def _pages_path(sf_dir: str) -> str:
    return os.path.join(fixture_dir_for(sf_dir), "pages.parquet")


CAPTION_KEEP_MICRO = 350_000  # caption-quality keep gate (micro units)
MIN_PIXELS = 6_000  # decoded-pixel floor for the curation gate


CAPTION_ALIGN_PPM = 1_000_000  # alignment keep gate: the shifted score's
# neutral point (an image coordinate-sum of zero against the caption
# histogram) — fixture-calibrated so the gate splits the corpus instead of
# passing or failing everything; a real system calibrates it on a held-out
# aligned/misaligned set
ALIGN_SHIFT = 1_000_000  # per-coordinate shift keeping the dot non-negative
# (numpy // floors, DuckDB // truncates — they agree only on non-negatives)
ALIGN_DIM = 64


def _caption_hist64(texts: list[str]) -> np.ndarray:
    """Deterministic caption 'embedding': 64-bin histogram of caption
    code points (ord(c) % 64) — integer, order-free, and SQL-replayable
    (DuckDB string_split + ascii). Shape (n, 64) int64."""
    out = np.zeros((len(texts), ALIGN_DIM), np.int64)
    for i, t in enumerate(texts):
        if t:
            cps = np.fromiter(map(ord, t), np.int64, len(t))
            np.add.at(out[i], cps % ALIGN_DIM, 1)
    return out


def _img_mic_from_f32(e32: np.ndarray) -> np.ndarray:
    """float32 pseudo-embed → shifted micro ints: floor(x·1e6 + 0.5) + 1e6
    (identical arithmetic in the oracle materializer, so engine and SQL
    read the same integers)."""
    return (
        np.floor(e32.astype(np.float64) * 1_000_000.0 + 0.5).astype(np.int64)
        + ALIGN_SHIFT
    )


def _img_mic(rgb: np.ndarray) -> np.ndarray:
    """Decoded pixels → shifted-micro pseudo-embed (64 int64)."""
    return _img_mic_from_f32(pseudo_embed_rgb(rgb).astype(np.float32))


def _batch_mics(batch: pa.Table) -> np.ndarray:
    """(n, 64) shifted-micro pixel pseudo-embeds of a batch's images."""
    return np.stack(
        [
            _img_mic(decode(b, f))
            for b, f in zip(batch["bytes"].to_pylist(), batch["fmt"].to_pylist())
        ]
    )


def alignment_embeds_for_fixture(fdir: str) -> str:
    """Materialize the SHIFTED-micro image embeddings once per tier (corpus
    cache, keyed by images.parquet) as (image_id, img_mic list<int64>) —
    the pre-materialized side of the alignment oracle (the pixel decode is
    not SQL-expressible; the dot/gate arithmetic is, and DuckDB replays it
    over this table — same discipline as the simhash signature oracle)."""
    import pyarrow.parquet as pq

    def write(tmp: str) -> None:
        src = pq.read_table(pseudo_embeddings_for_fixture(fdir))
        mic = _img_mic_from_f32(np.asarray(src["embedding"].to_pylist(), np.float32))
        ids = [f"img{int(v):08d}" for v in src["vec_id"].to_pylist()]
        pq.write_table(
            pa.table(
                {
                    "image_id": pa.array(ids, pa.string()),
                    "img_mic": pa.array(mic.tolist(), pa.list_(pa.int64())),
                }
            ),
            tmp,
        )

    images = os.path.join(fdir, "images.parquet")
    return cache.materialize(cache.key("alignment_embeds.parquet", images), write)


def alignment_scores_dir(fdir: str) -> str:
    """Materialize the alignment gate's OUTPUT (image_id, align_ppm,
    aligned) once per fixture tier as a parquet DIRECTORY in the corpus
    cache, written by the REAL distributed pipeline (``write_parquet`` —
    never a driver-side collect). Composed consumers
    (``q_multimodal_filter_aligned``) read this instead of re-running the
    decode+embed pass per query — the curation-chain sharing discipline
    (VERDICT r4 'Next round' #4); ``q_caption_image_alignment`` itself
    still computes fresh so the gate stays end-to-end-checked."""
    images = os.path.join(fdir, "images.parquet")
    return cache.materialize(
        cache.key("alignment_scores", images),
        lambda d: alignment_scores(images).write_parquet(d),
    )


def _align_row(rgb, row):
    """Decode → DCT pseudo-embed → shifted micro ints, dotted with the
    row's caption histogram: (align_ppm, aligned)."""
    mic = _img_mic(rgb)
    hist = _caption_hist64([row["caption"]])[0]
    total = int(hist.sum())
    align = int((mic * hist).sum()) // total if total > 0 else 0
    return align, int(align >= CAPTION_ALIGN_PPM)


# batch (image_id, bytes, fmt, caption) → (image_id, align_ppm, aligned)
align_batch = pixel_batch(_align_row, [("align_ppm", I64), ("aligned", I64)])


def alignment_scores(images: str):
    return map_pixels(images, align_batch, ["caption"])


@query(
    "caption_image_alignment",
    partial(oracles_ext.extended, "caption_image_alignment"),
    small=True,
)
def q_caption_image_alignment(sf_dir: str):
    """CAPTION–IMAGE ALIGNMENT gate (VERDICT r3 missing #4): every
    image+caption pair scored by the integer dot of its shifted-micro
    pixel pseudo-embedding against its caption code-point histogram,
    normalized per caption character — the deterministic stand-in for a
    CLIP-style alignment score, gated at ``CAPTION_ALIGN_PPM``. One row
    per image: (image_id, align_ppm, aligned). The reference's closest
    analog is the VisualIndexerBolt + alt-text path
    (bolts/media/VisualIndexerBolt.java:148-171), which pairs an image's
    visual match with its surrounding text.

    Scale shape: pure map-side stateless tasks, small batches for the
    wide binary column, no shuffle — alignment streams at any corpus
    size. Oracle: DuckDB replays the dot/gate arithmetic over the
    engine-materialized shifted-micro embeds (pixel decode is not
    SQL-expressible; everything after it is)."""
    return alignment_scores(_images(sf_dir))


AR_BUCKETS = [(1, 1), (4, 3), (3, 4), (16, 9), (9, 16)]  # training AR set


@query("image_ar_buckets", partial(oracles_ext.extended, "image_ar_buckets"), small=True)
def q_image_ar_buckets(sf_dir: str):
    """ASPECT-RATIO BUCKETING (SDXL-style batched training prep): every
    image assigned to the nearest aspect-ratio bucket from a fixed
    training set (|w·10⁶/h − bucket ratio| argmin, ties by bucket list
    order) — the assignment table a bucketed dataloader groups batches
    by. One row per image: (image_id, ar_ppm, bucket_w, bucket_h).

    Scale shape: pure map-side integer arithmetic over the metadata
    columns (bytes never read), vectorized argmin over the 5-bucket
    constant — streams at any corpus size."""
    import ray.data as rd

    bppm = np.array(
        [w * 1_000_000 // h for w, h in AR_BUCKETS], np.int64
    )

    def assign(batch: pa.Table) -> pa.Table:
        w = batch["w"].to_numpy().astype(np.int64)
        h = batch["h"].to_numpy().astype(np.int64)
        ar = w * 1_000_000 // h
        # argmin returns the FIRST minimum → ties break by bucket order
        pick = np.argmin(np.abs(ar[:, None] - bppm[None, :]), axis=1)
        bw = np.array([b[0] for b in AR_BUCKETS], np.int64)[pick]
        bh = np.array([b[1] for b in AR_BUCKETS], np.int64)[pick]
        return pa.table(
            {
                "image_id": batch["image_id"],
                "ar_ppm": pa.array(ar, pa.int64()),
                "bucket_w": pa.array(bw, pa.int64()),
                "bucket_h": pa.array(bh, pa.int64()),
            }
        )

    return rd.read_parquet(
        _images(sf_dir), columns=["image_id", "w", "h"]
    ).map_batches(assign, batch_format="pyarrow")


XMODAL_QUERIES = 5  # query captions (alphabetically-first image ids)
XMODAL_K = 10  # images returned per query caption


@query("caption_to_image_topk", partial(oracles_ext.extended, "caption_to_image_topk"), small=True)
def q_caption_to_image_topk(sf_dir: str):
    """CROSS-MODAL RETRIEVAL: the ``XMODAL_QUERIES`` alphabetically-first
    images' captions used as text queries against EVERY image's pixel
    pseudo-embedding — top-``XMODAL_K`` images per query by the integer
    alignment dot (ties by image_id asc), the caption→image search a
    CLIP-style index serves. Output (qid, image_id, rank, dot).

    Scale shape: the query side is tiny and broadcasts (5 histograms);
    the image side streams through stateless embed tasks with a per-batch
    partial top-k, and only ``XMODAL_QUERIES × XMODAL_K``-bounded
    candidates reach the final per-query merge — the brute-force baseline
    of SURVEY's similarity-search family applied across modalities."""
    import pyarrow.parquet as pq_
    import ray
    import ray.data as rd

    images = _images(sf_dir)
    # driver reads ONLY the 5 query captions (column-pruned, id-sorted)
    meta = pq_.read_table(images, columns=["image_id", "caption"])
    order = np.argsort(np.array(meta["image_id"].to_pylist(), object), kind="stable")
    qids = [meta["image_id"].to_pylist()[i] for i in order[:XMODAL_QUERIES]]
    qhist = _caption_hist64(
        [meta["caption"].to_pylist()[i] for i in order[:XMODAL_QUERIES]]
    )  # (Q, 64)
    q_ref = ray.put((qids, qhist))

    def score(batch: pa.Table) -> pa.Table:
        qids, qh = ray.get(q_ref)
        dots = _batch_mics(batch) @ qh.T  # (n, Q) integer exact
        ids = np.array(batch["image_id"].to_pylist(), object)
        out_q, out_i, out_d = [], [], []
        for j, qid in enumerate(qids):
            d = dots[:, j]
            # partial top-k: keep ties with the k-th score so the
            # global (dot desc, image_id asc) tie-break stays exact
            k = min(XMODAL_K, len(d))
            kth = np.partition(d, -k)[-k] if k else 0
            keep = d >= kth
            out_q.extend([qid] * int(keep.sum()))
            out_i.extend(ids[keep].tolist())
            out_d.extend(d[keep].tolist())
        return pa.table(
            {
                "qid": pa.array(out_q, pa.string()),
                "image_id": pa.array(out_i, pa.string()),
                "dot": pa.array(np.array(out_d, np.int64), pa.int64()),
            }
        )

    def finish(g) -> pa.Table:
        order = np.lexsort(
            (g["image_id"].to_numpy(object).astype(str), -g["dot"].to_numpy(np.int64))
        )[:XMODAL_K]
        return pa.table(
            {
                "qid": pa.array(g["qid"].to_numpy(object)[order].tolist(), pa.string()),
                "image_id": pa.array(
                    g["image_id"].to_numpy(object)[order].tolist(), pa.string()
                ),
                "rank": pa.array(np.arange(1, len(order) + 1), pa.int64()),
                "dot": pa.array(
                    g["dot"].to_numpy(np.int64)[order], pa.int64()
                ),
            }
        )

    return (
        rd.read_parquet(images, columns=["image_id", "bytes", "fmt"])
        .map_batches(score, batch_format="pyarrow", batch_size=64)
        .groupby("qid")
        .map_groups(finish, batch_format="pandas")
    )


def dhash_scores_dir(fdir: str) -> str:
    """Materialize the DISTRIBUTED dHash table once per fixture tier as a
    parquet directory in the corpus cache (columns image_id, phash — the
    dHash value, named for ``phash_band_pairs`` reuse; the
    alignment_scores_dir discipline)."""
    from ..stages.image import dhash_scores

    images = os.path.join(fdir, "images.parquet")
    return cache.materialize(
        cache.key("dhash_scores", images),
        lambda d: dhash_scores(images).write_parquet(d),
    )


def dhash_signature_parquet(fdir: str) -> str:
    """Expected dHash values from the sequential codec path
    (:func:`_image_signatures`) — the oracle's ground truth (column phash
    holds the dHash, for the band-SQL reuse)."""
    from ..stages.image import dhash64

    return _image_signatures(
        fdir, "dhash_signatures.parquet", ["phash"], lambda rgb: (dhash64(rgb),)
    )


@query("image_dhash_agreement", partial(oracles_ext.extended, "image_dhash_agreement"), small=True)
def q_image_dhash_agreement(sf_dir: str):
    """DUAL-HASH DEDUP AGREEMENT AUDIT: the banded near-dup pair sets
    of pHash (DCT, global frequency) and dHash (gradient) over the same
    corpus, reduced to one row — (n_phash_pairs, n_dhash_pairs, n_both,
    n_union, jaccard_micro). Multi-hash agreement is the standard
    confidence signal in production image dedup (a pair both hashes
    flag is near-certain; one-hash-only pairs get human/model review).

    Scale shape: both pair pipelines are the banded two-shuffle
    ``phash_band_pairs`` path (dHash values come from the DISTRIBUTED
    task-based materialization, written once per tier); the pair sets
    are dup-shaped (output-bounded), so the intersection is a driver
    set merge — the image_dedup_eval discipline. Oracle: replays both
    band joins (dHash side over the SEQUENTIAL signature table, so the
    comparison also pins distributed dHash == sequential dHash)."""
    from ..stages.image import phash_band_pairs

    fdir = fixture_dir_for(sf_dir)
    ph = phash_band_pairs(_images(sf_dir), max_hamming=8).to_pandas()
    dh = phash_band_pairs(dhash_scores_dir(fdir), max_hamming=8).to_pandas()
    ps = set(zip(ph["id_a"], ph["id_b"]))
    ds_ = set(zip(dh["id_a"], dh["id_b"]))
    both, union = len(ps & ds_), len(ps | ds_)
    return pa.table(
        {
            "n_phash_pairs": pa.array([len(ps)], pa.int64()),
            "n_dhash_pairs": pa.array([len(ds_)], pa.int64()),
            "n_both": pa.array([both], pa.int64()),
            "n_union": pa.array([union], pa.int64()),
            "jaccard_micro": pa.array(
                [(both * 1_000_000) // union if union else 0], pa.int64()
            ),
        }
    )


@query("image_dedup_eval", partial(oracles_ext.extended, "image_dedup_eval"), small=True)
def q_image_dedup_eval(sf_dir: str):
    """IMAGE DEDUP QUALITY EVAL: pair-counting precision/recall of the
    pHash near-dup clustering (``q_image_clusters``) against the
    fixture's PLANTED duplicate ground truth (``images_dupmap.parquet``
    — every synthetic near-dup knows its source). Standard
    Rand-decomposition pair counting: P_pred = Σ C(n,2) over predicted
    clusters, P_truth over planted clusters (source + its dups),
    P_both over the (pred × truth) contingency cells;
    precision = P_both/P_pred, recall = P_both/P_truth. One output row:
    (n_pairs_pred, n_pairs_truth, n_pairs_both, precision_micro,
    recall_micro).

    Scale shape: the truth map is fixture ground truth (evals on
    planted truth are inherently bounded) and broadcasts; the three
    pair sums are each ONE keyed count shuffle over the cluster table
    followed by per-batch C(n,2) partials — no pair materialization
    anywhere (C(n,2) from counts, never enumerated). Oracle: composes
    the recursive image_clusters SQL with the same contingency fold."""
    import ray
    import ray.data as rd

    import pyarrow.parquet as pq_

    fdir = fixture_dir_for(sf_dir)
    dm = pq_.read_table(os.path.join(fdir, "images_dupmap.parquet"))
    truth = dict(
        zip(dm["image_id"].to_pylist(), dm["dup_of"].to_pylist())
    )
    t_ref = ray.put(truth)

    from ..stages.image import cluster_images

    clusters = cluster_images(_images(sf_dir), max_hamming=8)

    def with_truth(batch: pa.Table) -> pa.Table:
        tm = ray.get(t_ref)
        ids = batch["image_id"].to_pylist()
        return pa.table(
            {
                "image_id": batch["image_id"],
                "pl": batch["cluster_id"],
                "tl": pa.array([tm.get(i, i) for i in ids], pa.string()),
            }
        )

    # materialize ONCE: three keyed counts consume `lab`, and a lazy
    # dataset would re-execute the cluster+label pipeline per consumer
    # (measured 3x cost); the table is id-shaped (3 short strings/row),
    # never payload-shaped, and stays distributed in the object store
    lab = clusters.map_batches(with_truth, batch_format="pyarrow").materialize()

    def pair_sum(counted, col: str = "count()") -> int:
        def partial(batch: pa.Table) -> pa.Table:
            # C(n,2) in PYTHON ints (house overflow rule: int64 n·(n−1)
            # wraps past ~4.3×10⁹-member clusters; the pa.array cast
            # fails LOUDLY if a partial ever exceeds int64)
            n = batch[col].to_numpy().astype(object)
            return pa.table(
                {"s": pa.array([int((n * (n - 1) // 2).sum())], pa.int64())}
            )

        return int(
            counted.map_batches(partial, batch_format="pyarrow")
            .to_pandas()["s"]  # n_batches-bounded partials
            .sum()
        )

    p_pred = pair_sum(lab.groupby("pl").count())
    p_truth = pair_sum(lab.groupby("tl").count())
    p_both = pair_sum(lab.groupby(["pl", "tl"]).count())
    prec = (p_both * 1_000_000) // p_pred if p_pred else 0
    rec = (p_both * 1_000_000) // p_truth if p_truth else 0
    return pa.table(
        {
            "n_pairs_pred": pa.array([p_pred], pa.int64()),
            "n_pairs_truth": pa.array([p_truth], pa.int64()),
            "n_pairs_both": pa.array([p_both], pa.int64()),
            "precision_micro": pa.array([prec], pa.int64()),
            "recall_micro": pa.array([rec], pa.int64()),
        }
    )


XRECALL_QUERIES = 50  # sampled ground-truth pairs (alphabetically-first)
XRECALL_KS = (1, 5, 10)


@query("crossmodal_recall", partial(oracles_ext.extended, "crossmodal_recall"), small=True)
def q_crossmodal_recall(sf_dir: str):
    """CROSS-MODAL RETRIEVAL QUALITY EVAL: recall@k in BOTH directions
    (caption→image and image→caption) for the ``XRECALL_QUERIES``
    alphabetically-first ground-truth pairs — the standard CLIP-style
    dataset-quality metric (does a caption retrieve its own image, and
    vice versa, from the whole corpus?). Rank of the true item under
    (dot desc, image_id asc) is tie-exact: rank = 1 + #{dot > gt} +
    #{dot = gt ∧ id < qid}. Output one row per (direction, k):
    (direction, k, n_queries, n_hits, recall_micro).

    Scale shape: the query side is tiny and broadcasts (Q caption
    histograms + Q image embeds + Q ground-truth dots via one
    ``ray.put``); the corpus side STREAMS through stateless embed tasks
    exactly once, emitting per-batch partial better-than counts
    (2·Q rows per batch) — no pairwise materialization, no shuffle of
    the corpus, and the final merge is a Q-bounded driver reduce. The
    ground-truth dots come from a row-group-pruned 50-row point read
    (the query pairs), not a corpus scan. Oracle: DuckDB replays the
    dot/rank/recall arithmetic over the materialized shifted-micro
    embeds (the caption_to_image_topk discipline)."""
    return crossmodal_recall_over(_images(sf_dir))


def crossmodal_recall_over(images: str):
    """The eval over an explicit images.parquet path (tests pin the
    rank/recall arithmetic brute-force on planted tables through this)."""
    import pyarrow.dataset as pads
    import ray
    import ray.data as rd

    # query side (driver, column-pruned): Q alphabetically-first pairs
    meta = pads.dataset(images).to_table(columns=["image_id", "caption"])
    ids_all = np.array(meta["image_id"].to_pylist(), object).astype(str)
    order = np.argsort(ids_all, kind="stable")
    qids = ids_all[order[: XRECALL_QUERIES]].tolist()
    caps_all = meta["caption"].to_pylist()
    qhist = _caption_hist64([caps_all[i] for i in order[: XRECALL_QUERIES]])
    # ground-truth embeds: point read of ONLY the Q rows (predicate
    # pushdown prunes row groups; Q is constant, never corpus-shaped)
    qrows = pads.dataset(images).to_table(
        columns=["image_id", "bytes", "fmt"],
        filter=pads.field("image_id").isin(qids),
    )
    by_id = {
        i: (b, f)
        for i, b, f in zip(
            qrows["image_id"].to_pylist(),
            qrows["bytes"].to_pylist(),
            qrows["fmt"].to_pylist(),
        )
    }
    qmic = np.stack([_img_mic(decode(*by_id[q])) for q in qids])  # (Q, 64)
    gt = np.einsum("ij,ij->i", qmic, qhist)  # gt dot is shared by both dirs
    q_ref = ray.put((qids, qhist, qmic, gt))

    def better(batch: pa.Table) -> pa.Table:
        """per-batch partial: for every query and both directions, how
        many corpus items beat the ground-truth item."""
        qids, qh, qm, gt = ray.get(q_ref)
        qarr = np.array(qids, object).astype(str)
        hists = _caption_hist64(batch["caption"].to_pylist())  # (n, 64)
        ids = np.array(batch["image_id"].to_pylist(), object).astype(str)
        d_c2i = _batch_mics(batch) @ qh.T  # (n, Q): corpus image vs query caption
        d_i2c = hists @ qm.T  # (n, Q): corpus caption vs query image
        lt = ids[:, None] < qarr[None, :]  # (n, Q) id tie-break
        b_c2i = ((d_c2i > gt[None, :]) | ((d_c2i == gt[None, :]) & lt)).sum(0)
        b_i2c = ((d_i2c > gt[None, :]) | ((d_i2c == gt[None, :]) & lt)).sum(0)
        return pa.table(
            {
                "direction": pa.array(
                    ["cap2img"] * len(qids) + ["img2cap"] * len(qids), pa.string()
                ),
                "qid": pa.array(qids + qids, pa.string()),
                "n_better": pa.array(
                    np.concatenate([b_c2i, b_i2c]).astype(np.int64), pa.int64()
                ),
            }
        )

    parts = (
        rd.read_parquet(images, columns=["image_id", "bytes", "fmt", "caption"])
        .map_batches(better, batch_format="pyarrow", batch_size=64)
        .to_pandas()  # 2·Q × n_batches-bounded partials
    )
    ranks = (
        parts.groupby(["direction", "qid"], sort=True)["n_better"].sum() + 1
    ).reset_index(name="rank")
    rows = []
    for direction in ("cap2img", "img2cap"):
        r = ranks.loc[ranks["direction"] == direction, "rank"].to_numpy()
        for k in XRECALL_KS:
            hits = int((r <= k).sum())
            rows.append(
                (direction, k, len(r), hits, (hits * 1_000_000) // len(r))
            )
    return pa.table(
        {
            "direction": pa.array([r[0] for r in rows], pa.string()),
            "k": pa.array([r[1] for r in rows], pa.int64()),
            "n_queries": pa.array([r[2] for r in rows], pa.int64()),
            "n_hits": pa.array([r[3] for r in rows], pa.int64()),
            "recall_micro": pa.array([r[4] for r in rows], pa.int64()),
        }
    )


@query(
    "multimodal_filter_aligned",
    partial(oracles_ext.extended, "multimodal_filter_aligned"),
    small=True,
)
def q_multimodal_filter_aligned(sf_dir: str):
    """COMPOSED multimodal gate: ``multimodal_filter_kept`` (first-wins
    phash dedup ∧ pixel floor ∧ caption quality) ∧ caption–image
    alignment — the full image-tier curation chain. Output one row per
    surviving pair: (image_id, fmt, quality_micro, align_ppm).

    Scale shape: the two sides are id-keyed streams (the kept gate's
    phash-bucketed resolve; the alignment map), co-partitioned by
    a vectorized id hash into derived buckets and joined with one
    vectorized merge per bucket — neither side broadcasts (both are
    corpus-shaped), and image bytes only flow through the map-side
    alignment stage."""
    import ray.data as rd

    nb = derive_buckets(_images(sf_dir), floor=64)

    def kept_side(batch: pa.Table) -> pa.Table:
        ids = batch["image_id"].to_pylist()
        return pa.table(
            {
                "image_id": batch["image_id"],
                "fmt": batch["fmt"],
                "quality_micro": batch["quality_micro"],
                "align_ppm": pa.array(np.zeros(len(ids), np.int64), pa.int64()),
                "side": pa.array(np.zeros(len(ids), np.int64), pa.int64()),
            }
        )

    def align_side(batch: pa.Table) -> pa.Table:
        keep = batch["aligned"].to_numpy().astype(bool)
        b = batch.filter(pa.array(keep))
        ids = b["image_id"].to_pylist()
        return pa.table(
            {
                "image_id": b["image_id"],
                "fmt": pa.array([""] * len(ids), pa.string()),
                "quality_micro": pa.array(np.zeros(len(ids), np.int64), pa.int64()),
                "align_ppm": b["align_ppm"],
                "side": pa.array(np.ones(len(ids), np.int64), pa.int64()),
            }
        )

    def join(g) -> pa.Table:
        kept = g[g["side"] == 0]
        al = g[g["side"] == 1][["image_id", "align_ppm"]]
        m = kept.merge(al, on="image_id", how="inner", suffixes=("_k", ""))
        return pa.table(
            {
                "image_id": pa.array(m["image_id"].tolist(), pa.string()),
                "fmt": pa.array(m["fmt"].tolist(), pa.string()),
                "quality_micro": pa.array(
                    m["quality_micro"].to_numpy(np.int64), pa.int64()
                ),
                "align_ppm": pa.array(
                    m["align_ppm"].to_numpy(np.int64), pa.int64()
                ),
            }
        )

    kept = q_multimodal_filter_kept(sf_dir).map_batches(
        kept_side, batch_format="pyarrow"
    )
    # alignment side: the session-materialized gate table (one distributed
    # decode+embed pass per fixture, shared across composed consumers —
    # r4 'Next round' #4), not a per-query re-embed
    aligned = rd.read_parquet(
        alignment_scores_dir(fixture_dir_for(sf_dir))
    ).map_batches(align_side, batch_format="pyarrow")
    return cogroup([kept, aligned], "image_id", join, nb)


@query(
    "multimodal_filter_kept",
    partial(oracles_ext.extended, "multimodal_filter_kept"),
    small=True,
)
def q_multimodal_filter_kept(sf_dir: str):
    """END-TO-END multimodal curation gate over the input_hint table — the
    image-tier analogue of ``corpus_filter_kept``: keep an image+caption
    pair iff (a) it is the FIRST (minimum image_id) holder of its exact
    phash (StatusCheckBolt first-wins dedup), (b) its decoded size clears
    ``MIN_PIXELS``, and (c) its caption clears the quality gate
    (``functions/text.quality_features`` ≥ ``CAPTION_KEEP_MICRO``).

    Scale shape: batches pre-reduce to one min-id candidate per phash
    (vectorized lexsort + run-boundary take), candidates hash-bucket into
    ``phash_buckets`` groups — fixed shuffle cardinality, shuffle volume
    O(distinct phash), never the image bytes, which are never read — each
    bucket resolves global keepers in one vectorized pass, and the
    caption scorer (the vectorized batch kernel since r5) runs only on
    surviving keepers."""
    import ray.data as rd

    from ..functions.text import lang_quality_batch

    phash_buckets = derive_buckets(_images(sf_dir), floor=64)

    def candidates(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        idnum = pc.cast(
            pc.utf8_slice_codeunits(batch["image_id"], 3, 99), pa.int64()
        ).to_numpy()
        ph = batch["phash"].to_numpy()
        order = np.lexsort((idnum, ph))
        first = np.r_[True, ph[order][1:] != ph[order][:-1]]
        take = order[first]
        sub = batch.take(pa.array(take, pa.int64()))
        return pa.table(
            {
                "phash": sub["phash"],
                "idnum": pa.array(idnum[take], pa.int64()),
                "image_id": sub["image_id"],
                "fmt": sub["fmt"],
                "caption": sub["caption"],
                "pixels": pa.array(
                    sub["w"].cast(pa.int64()).to_numpy()
                    * sub["h"].cast(pa.int64()).to_numpy(),
                    pa.int64(),
                ),
            }
        )

    def resolve(g) -> pa.Table:
        ph = g["phash"].to_numpy()
        idnum = g["idnum"].to_numpy()
        order = np.lexsort((idnum, ph))
        first = np.r_[True, ph[order][1:] != ph[order][:-1]]
        keep = order[first]
        # size gate here (cheap int compare); caption scoring deferred
        keep = keep[g["pixels"].to_numpy()[keep] >= MIN_PIXELS]
        return g.iloc[np.sort(keep)][["image_id", "fmt", "caption"]]

    def score(batch: pa.Table) -> pa.Table:
        lq = lang_quality_batch(batch["caption"].to_pylist())
        qm = np.floor(lq["quality"] * 1_000_000.0 + 0.5).astype(np.int64)
        ok = qm >= CAPTION_KEEP_MICRO
        b = batch.filter(pa.array(ok))
        return pa.table(
            {
                "image_id": b["image_id"],
                "fmt": b["fmt"],
                "quality_micro": pa.array(qm[ok], pa.int64()),
            }
        )

    cands = rd.read_parquet(
        _images(sf_dir),
        columns=["image_id", "phash", "fmt", "caption", "w", "h"],
    ).map_batches(candidates, batch_format="pyarrow")
    return cogroup(cands, "phash", resolve, phash_buckets).map_batches(
        score, batch_format="pyarrow"
    )




@query("page_image_join_stats", partial(oracles_ext.extended, "page_image_join_stats"), small=True)
def q_page_image_join_stats(sf_dir: str):
    """CROSS-TABLE multimodal join: every page's embedded image ids
    (``pages.image_ids``) joined to the image table's dimensions, rolled up
    per page host — the page↔media linkage ``MediaUpdaterBolt`` maintains,
    as one batch pipeline.

    Scale shape: the page side explodes its id lists with Arrow kernels
    (``list_flatten``/``list_parent_indices``), both sides co-partition by
    image_id into ``pij_buckets`` derived buckets (neither table
    broadcasts — both are corpus-sized), each bucket joins in one
    vectorized pandas merge, and only (host, count, pixels) sufficient
    statistics leave the bucket."""
    import pyarrow.compute as pc
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..functions.urls import host_of

    pages = _pages_path(sf_dir)
    pij_buckets = derive_buckets(pages, _images(sf_dir), floor=64)

    def explode_pages(batch: pa.Table) -> pa.Table:
        links = batch["image_ids"]
        if isinstance(links, pa.ChunkedArray):
            links = links.combine_chunks()
        flat = pc.list_flatten(links)
        parent = pc.list_parent_indices(links)
        hosts = [host_of(u) for u in batch["url"].to_pylist()]
        ph = pa.array(hosts, pa.string()).take(parent)
        ids = flat.to_pylist()
        return pa.table(
            {
                "image_id": flat,
                "host": ph,
                "px": pa.array(np.zeros(len(ids), np.int64), pa.int64()),
                "side": pa.array(np.ones(len(ids), np.int64), pa.int64()),
            }
        )

    def prep_images(batch: pa.Table) -> pa.Table:
        ids = batch["image_id"].to_pylist()
        px = batch["w"].cast(pa.int64()).to_numpy() * batch["h"].cast(
            pa.int64()
        ).to_numpy()
        return pa.table(
            {
                "image_id": batch["image_id"],
                "host": pa.array([""] * len(ids), pa.string()),
                "px": pa.array(px, pa.int64()),
                "side": pa.array(np.zeros(len(ids), np.int64), pa.int64()),
            }
        )

    def join(g: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd

        im = g[g["side"] == 0][["image_id", "px"]]
        pg = g[g["side"] == 1][["image_id", "host"]]
        m = pg.merge(im, on="image_id", how="inner")
        out = (
            m.groupby("host", sort=True)["px"]
            .agg(pn="size", ppx="sum")
            .reset_index()
        )
        out["pn"] = out["pn"].astype(np.int64)
        out["ppx"] = out["ppx"].astype(np.int64)
        return out

    page_side = rd.read_parquet(pages, columns=["url", "image_ids"]).map_batches(
        explode_pages, batch_format="pyarrow"
    )
    image_side = rd.read_parquet(
        _images(sf_dir), columns=["image_id", "w", "h"]
    ).map_batches(prep_images, batch_format="pyarrow")
    return (
        cogroup([page_side, image_side], "image_id", join, pij_buckets)
        .groupby("host")
        .aggregate(Sum("pn", alias_name="n_images"), Sum("ppx", alias_name="total_pixels"))
    )


@query("caption_quality", partial(oracles_ext.extended, "caption_quality"), small=True)
def q_caption_quality(sf_dir: str):
    """Quality-score gate over the CAPTION side of the multimodal pairs —
    ``functions/text.quality_features`` (the SimpleEstimator.isLowQuality
    analogue, ArticleExtractionBolt.java:296-322) applied to caption text,
    emitting (image_id, n_words, quality_micro) with exact integer
    arithmetic so DuckDB reproduces it bit-for-bit."""
    import ray.data as rd

    from ..functions.text import lang_quality_batch

    def qf(batch: pa.Table) -> pa.Table:
        # vectorized batch kernel — bit-identical to per-row
        # quality_features (tests/test_text_batch.py)
        lq = lang_quality_batch(batch["caption"].to_pylist())
        return pa.table(
            {
                "image_id": batch["image_id"],
                "n_words": pa.array(lq["n_words"], pa.int64()),
                "quality_micro": pa.array(
                    np.floor(lq["quality"] * 1_000_000.0 + 0.5).astype(np.int64),
                    pa.int64(),
                ),
            }
        )

    return rd.read_parquet(_images(sf_dir), columns=["image_id", "caption"]).map_batches(
        qf, batch_format="pyarrow"
    )


# --------------------------------------------------------------------------
# audio / video payload stages (stages/av.py — real fixture codecs)
# --------------------------------------------------------------------------

VIDEO_EVERY_N = 5


def _av_fixture_dir(sf_dir: str) -> str:
    """Fixture dir with audio.parquet / videos.parquet present (lazily
    added to tiers generated before these tables existed)."""
    fdir = fixture_dir_for(sf_dir)
    from ..fixtures.generate import ensure_av_tables

    return ensure_av_tables(os.path.basename(os.path.normpath(fdir)), fdir)


@query("audio_clip_stats", partial(oracles_ext.extended, "audio_clip_stats"), small=True)
def q_audio_clip_stats(sf_dir: str):
    """Integer clip features (sr, n_samples, rms, peak, zero_cross) from a
    REAL PCM-16 WAV decode in an actor-pool stage (stages/av.AudioFeatures;
    the brief's audio feature-extract plumbing, stdlib codec). ORACLE: the
    SEQUENTIAL no-Ray decode of the same clips (audio_signature_parquet) —
    the image_thumbnails signature discipline applied to audio.

    Scale shape: column-pruned read of (clip_id, bytes), small batches
    (binary payloads), map-side only — no shuffle; output is one row per
    clip. Reference: no audio path exists in the reference (brief addition).
    """
    import ray.data as rd

    from ..stages.av import AudioFeatures

    fdir = _av_fixture_dir(sf_dir)
    return rd.read_parquet(
        os.path.join(fdir, "audio.parquet"), columns=["clip_id", "bytes"]
    ).map_batches(
        AudioFeatures,
        batch_format="pyarrow",
        batch_size=64,
        concurrency=(1, 8),
    )


@query("video_frame_stats", partial(oracles_ext.extended, "video_frame_stats"), small=True)
def q_video_frame_stats(sf_dir: str):
    """Every-5th-frame sample of the RVID1 fixture videos → exploded rows
    (video_id, frame_idx, frame_hash, mean_lum_milli) from a REAL container
    decode (stages/av.VideoFrameSample; unsampled frames are seeked past,
    never decompressed). ORACLE: the SEQUENTIAL no-Ray decode
    (video_signature_parquet), same signature discipline.

    Scale shape: flat-map explosion (one row in → n_frames/5 rows out),
    small batches on the decode stage, no shuffle. Reference: the only
    video-shaped reference code is the dead extractVideos metadata walk
    (ArticleExtractionBolt.java:552-596); payload decode is a brief
    addition."""
    import ray.data as rd

    from ..stages.av import VideoFrameSample

    fdir = _av_fixture_dir(sf_dir)
    return rd.read_parquet(
        os.path.join(fdir, "videos.parquet"), columns=["video_id", "bytes"]
    ).map_batches(
        VideoFrameSample,
        fn_constructor_kwargs={"every_n": VIDEO_EVERY_N},
        batch_format="pyarrow",
        batch_size=16,
        concurrency=(1, 8),
    )


def audio_signature_parquet(fdir: str) -> str:
    """Expected audio features from the SEQUENTIAL stdlib decode (no Ray),
    cached in the corpus cache keyed by audio.parquet — the oracle's ground
    truth, independent of the actor-pool pipeline's batching/distribution."""
    import pyarrow.parquet as pq

    from ..fixtures.generate import ensure_av_tables
    from ..stages.av import audio_features, decode_wav_pcm16

    ensure_av_tables(os.path.basename(os.path.normpath(fdir)), fdir)
    audio = os.path.join(fdir, "audio.parquet")
    feats = ("sr", "n_samples", "rms", "peak", "zero_cross")

    def write(tmp: str) -> None:
        src = pq.read_table(audio, columns=["clip_id", "bytes"])
        rows = [audio_features(*decode_wav_pcm16(b)) for b in src["bytes"].to_pylist()]
        tbl = {"clip_id": pa.array(src["clip_id"].to_pylist(), pa.string())}
        for k in feats:
            tbl[k] = pa.array([r[k] for r in rows], pa.int64())
        pq.write_table(pa.table(tbl), tmp)

    return cache.materialize(cache.key("audio_signatures.parquet", audio), write)


def video_signature_parquet(fdir: str) -> str:
    """Expected frame signatures from the SEQUENTIAL RVID1 decode (no Ray),
    cached in the corpus cache keyed by videos.parquet; every_n matches
    q_video_frame_stats."""
    import pyarrow.parquet as pq

    from ..fixtures.generate import ensure_av_tables
    from ..stages.av import decode_rvid_frames, frame_signature

    ensure_av_tables(os.path.basename(os.path.normpath(fdir)), fdir)
    videos = os.path.join(fdir, "videos.parquet")

    def write(tmp: str) -> None:
        src = pq.read_table(videos, columns=["video_id", "bytes"])
        vids, idxs, hashes, lums = [], [], [], []
        for vid, blob in zip(src["video_id"].to_pylist(), src["bytes"].to_pylist()):
            for idx, frame in decode_rvid_frames(blob, VIDEO_EVERY_N):
                hsh, lum = frame_signature(frame)
                vids.append(vid)
                idxs.append(idx)
                hashes.append(hsh)
                lums.append(lum)
        pq.write_table(
            pa.table(
                {
                    "video_id": pa.array(vids, pa.string()),
                    "frame_idx": pa.array(idxs, pa.int64()),
                    "frame_hash": pa.array(hashes, pa.int64()),
                    "mean_lum_milli": pa.array(lums, pa.int64()),
                }
            ),
            tmp,
        )

    return cache.materialize(cache.key("video_signatures.parquet", videos), write)


@query("video_dup_pairs", partial(oracles_ext.extended, "video_dup_pairs"), small=True)
def q_video_dup_pairs(sf_dir: str):
    """VIDEO NEAR-DUP MINING over sampled-frame signatures: pairs of
    videos whose every-Nth-frame hash sets (the video_frame_stats
    signature space) have Jaccard ≥ 0.5 — catches the verbatim re-encodes
    and prefix-truncated copies the fixture plants (re-encoded fps
    changes the container, not the frames, so frame hashes collide
    exactly; the phash-band discipline applied to video). Output:
    (video_a, video_b, jaccard_micro), video_a < video_b.

    Scale shape: the signature explosion is the frame-sample stage (1/N
    of decode cost); candidate pairing runs inside ONE frame-hash-bucketed
    shuffle (all holders of a hash are co-located, per-hash pair expansion
    bounded by holders²), pair partials collapse in a pairs-shaped
    groupby, and the per-video set sizes are a videos-bounded broadcast
    join. Oracle: brute-force Jaccard self-join over the SEQUENTIAL
    signature table."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    fdir = _av_fixture_dir(sf_dir)
    vids = os.path.join(fdir, "videos.parquet")
    nb = derive_buckets(vids, floor=32)

    stats = q_video_frame_stats(sf_dir)

    def pair_partials(g) -> pa.Table:
        hh = g["frame_hash"].to_numpy(np.int64)
        vv = g["video_id"].to_numpy(object).astype(str)
        # distinct (hash, video)
        uniq = np.unique(np.stack([hh.astype(str), vv], axis=1), axis=0)
        hh, vv = uniq[:, 0], uniq[:, 1]
        order = np.lexsort((vv, hh))
        hh, vv = hh[order], vv[order]
        starts = np.r_[0, np.flatnonzero(hh[1:] != hh[:-1]) + 1, len(hh)]
        a_l, b_l = [], []
        for s, e in zip(starts[:-1], starts[1:]):
            vs = vv[s:e]
            if len(vs) < 2:
                continue
            ii, jj = np.triu_indices(len(vs), k=1)
            a_l.append(vs[ii])
            b_l.append(vs[jj])
        if not a_l:
            return pa.table(
                {
                    "video_a": pa.array([], pa.string()),
                    "video_b": pa.array([], pa.string()),
                    "pi": pa.array([], pa.int64()),
                }
            )
        import pandas as pd

        part = (
            pd.DataFrame(
                {"video_a": np.concatenate(a_l), "video_b": np.concatenate(b_l)}
            )
            .groupby(["video_a", "video_b"], sort=False)
            .size()
            .reset_index(name="pi")
        )
        return pa.table(
            {
                "video_a": pa.array(part["video_a"], pa.string()),
                "video_b": pa.array(part["video_b"], pa.string()),
                "pi": pa.array(part["pi"].to_numpy(np.int64), pa.int64()),
            }
        )

    inter = (
        cogroup(
            stats.select_columns(["frame_hash", "video_id"]),
            "frame_hash",
            pair_partials,
            nb,
        )
        .groupby(["video_a", "video_b"])
        .aggregate(Sum("pi", alias_name="i"))
    )

    # per-video distinct-signature sizes: videos-bounded broadcast
    import ray

    sizes = (
        stats.groupby("video_id")
        .map_groups(
            lambda g: pa.table(
                {
                    "video_id": pa.array([str(g["video_id"].iloc[0])], pa.string()),
                    "n": pa.array([int(g["frame_hash"].nunique())], pa.int64()),
                }
            ),
            batch_format="pandas",
        )
        .to_pandas()
        .sort_values("video_id")
    )
    sz_ref = ray.put(
        (sizes["video_id"].to_numpy(str), sizes["n"].to_numpy(np.int64))
    )

    def finish(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ids_s, n_s = ray.get(sz_ref)
        a = np.asarray(batch["video_a"].to_pylist(), object).astype(str)
        b = np.asarray(batch["video_b"].to_pylist(), object).astype(str)
        i = batch["i"].to_numpy().astype(np.int64)
        na = n_s[np.searchsorted(ids_s, a)]
        nb_ = n_s[np.searchsorted(ids_s, b)]
        union = na + nb_ - i
        jm = np.floor(i / union * 1e6 + 0.5).astype(np.int64)
        out = pa.table(
            {
                "video_a": batch["video_a"],
                "video_b": batch["video_b"],
                "jaccard_micro": pa.array(jm, pa.int64()),
                "k": pa.array(2 * i >= union),
            }
        )
        return out.filter(pc.equal(out["k"], True)).select(
            ["video_a", "video_b", "jaccard_micro"]
        )

    return inter.map_batches(finish, batch_format="pyarrow")


VIDEO_CUT_THRESH_MILLI = 48_000


@query("video_scene_cuts", partial(oracles_ext.extended, "video_scene_cuts"), small=True)
def q_video_scene_cuts(sf_dir: str):
    """SCENE-CUT DETECTION at sampled-frame granularity: per video, the
    count of consecutive-sampled-frame pairs whose Rec.601 mean-luma jump
    is ≥ 48000 milli — the shot-boundary census a video training-data
    pipeline uses for clip segmentation before captioning/packing. The
    v3 fixture plants 1-4 scenes per original (exact +96-luma offsets, no
    pixel clipping), so within-scene sampled deltas are exactly 5000
    milli and cuts ≥ 91000 — the threshold sits in the provable gap.
    Output: (video_id, n_cuts, n_sampled) for EVERY video (dup re-encodes
    inherit their source's scene structure).

    Scale shape: the decode explosion is the shared every-5th-frame
    actor-pool stage (q_video_frame_stats); the cut census is one
    video-keyed map_groups (lag over ≤ n_frames/5 rows per group) — no
    driver state, shuffle keyed by video_id only. Oracle: SQL window lag
    over the SEQUENTIAL signature table. Reference: no video payload
    path exists at reference HEAD (dead extractVideos walk,
    ArticleExtractionBolt.java:552-596); brief-sanctioned addition."""
    import pandas as pd

    stats = q_video_frame_stats(sf_dir)

    def cuts(g: pd.DataFrame) -> pd.DataFrame:
        lum = g.sort_values("frame_idx")["mean_lum_milli"].to_numpy(np.int64)
        n_cuts = int((np.abs(np.diff(lum)) >= VIDEO_CUT_THRESH_MILLI).sum())
        return pd.DataFrame(
            {
                "video_id": [str(g["video_id"].iloc[0])],
                "n_cuts": np.array([n_cuts], np.int64),
                "n_sampled": np.array([len(lum)], np.int64),
            }
        )

    return stats.groupby("video_id").map_groups(cuts, batch_format="pandas")
