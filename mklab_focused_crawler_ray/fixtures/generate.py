"""Deterministic synthetic corpus generator (FIXTURES.md).

Everything is seeded (numpy ``default_rng([seed, row])`` per row) so every
regeneration is byte-identical. No external data. Outputs are Parquet with
the exact BASELINE.json ``input_hint`` schema for the images table (Lance is
not installed in this sandbox; Parquet is the documented fallback with an
identical Arrow schema — FIXTURES.md preamble).

Tables produced (see FIXTURES.md for column semantics):
- ``images``        (image_id, bytes, w, h, fmt, caption, phash)
- ``images_dupmap`` ground truth for planted near-duplicates (test-only)
- ``urls``          the URL universe with per-URL metadata (shares, date)
- ``frontier_seed`` seed list (with planted duplicate rows)
- ``pages``         offline page store the synthetic fetcher joins against
- ``redirects``     offline redirect map (chains ≤5 to exercise the 4-hop cap)
- ``robots``        per-host disallow prefixes (north-rule addition)
- ``items``         social-media posts for the NLP pipeline fixtures
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .codecs import ALL_FMTS, encode, phash64, resize_area

VOCAB = (
    "storm crawler focused media image caption pipeline vector index cluster "
    "news article page content link social stream data query batch actor "
    "shard partition frontier fetch parse score rank token window event "
    "detect count domain host url hash filter bloom cuckoo robots polite "
    "budget round checkpoint resume lineage metric throughput scale node "
    "green blue red yellow river mountain city harbor market garden bridge "
    "festival concert election summit storm flood quake rally launch match"
).split()

ENTITIES = [
    "Alice_Person",
    "Bob_Person",
    "Carol_Person",
    "Athens_Location",
    "Berlin_Location",
    "Paris_Location",
    "Acme_Organization",
    "Globex_Organization",
    "Initech_Organization",
]

SOCIAL_HOSTS = [
    "vimeo.com",
    "instagram.com",
    "www.youtube.com",
    "twitpic.com",
    "dailymotion.com",
    "www.facebook.com",
]

DAY_MS = 24 * 3600 * 1000
EPOCH0_MS = 1_700_000_000_000  # fixed corpus epoch (2023-11-14T22:13:20Z)


def _caption(rng: np.random.Generator, n_lo=4, n_hi=12) -> str:
    n = int(rng.integers(n_lo, n_hi + 1))
    words = [VOCAB[int(i)] for i in rng.integers(0, len(VOCAB), n)]
    if rng.random() < 0.3:
        words.insert(int(rng.integers(0, len(words))), ENTITIES[int(rng.integers(0, len(ENTITIES)))])
    return " ".join(words)


def _image(rng: np.random.Generator, w: int, h: int) -> np.ndarray:
    """Deterministic RGB pattern: gradients + sinusoids + mild noise
    (compresses reasonably under PNG while remaining photo-ish)."""
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    base = np.empty((h, w, 3), dtype=np.float64)
    for c in range(3):
        fx, fy = rng.uniform(0.5, 4.0, 2)
        phase = rng.uniform(0, 2 * np.pi)
        base[:, :, c] = (
            96
            + 60 * np.sin(2 * np.pi * (fx * xx / w + fy * yy / h) + phase)
            + 40 * (xx / w)
            + 30 * (yy / h)
        )
    base += rng.normal(0, 6.0, size=base.shape)
    return base.clip(0, 255).astype(np.uint8)


def gen_images(
    n: int,
    seed: int = 42,
    dup_frac: float = 0.05,
    dim_lo: int = 64,
    dim_hi: int = 256,
) -> tuple[pa.Table, pa.Table]:
    """Build the images table (+ dup ground truth). Rows chunk-deterministic:
    row i depends only on (seed, i)."""
    ids, blobs, ws, hs, fmts, caps, phashes = [], [], [], [], [], [], []
    dup_src, dup_dst = [], []
    originals: list[tuple[int, np.ndarray]] = []  # (row, rgb) ring of recent originals
    for i in range(n):
        rng = np.random.default_rng([seed, i])
        image_id = f"img{i:08d}"
        fmt = ALL_FMTS[int(rng.integers(0, len(ALL_FMTS)))]
        if i > 0 and rng.random() < dup_frac:
            j, src_rgb = originals[int(rng.integers(0, len(originals)))]
            mode = rng.random()
            if mode < 0.5:
                rgb = src_rgb  # re-encode (possibly different fmt)
            else:
                sh, sw = src_rgb.shape[:2]
                scale = float(rng.uniform(0.6, 0.95))
                rgb = (
                    resize_area(src_rgb.astype(np.float64), max(16, int(sh * scale)), max(16, int(sw * scale)))
                    .round()
                    .clip(0, 255)
                    .astype(np.uint8)
                )
            dup_src.append(image_id)
            dup_dst.append(f"img{j:08d}")
        else:
            w = int(rng.integers(dim_lo, dim_hi + 1))
            h = int(rng.integers(dim_lo, dim_hi + 1))
            rgb = _image(rng, w, h)
            if len(originals) >= 64:
                originals.pop(0)
            originals.append((i, rgb))
        data = encode(rgb, fmt)
        ids.append(image_id)
        blobs.append(data)
        hs.append(rgb.shape[0])
        ws.append(rgb.shape[1])
        fmts.append(fmt)
        caps.append(_caption(rng))
        # phash is computed from the DECODED pixels (FIXTURES.md §1) so the
        # stored hash is reproducible from `bytes` alone; lossless decodes
        # are identical to rgb, only the lossy codec needs a re-decode.
        from .codecs import q6_decode

        rgb_dec = q6_decode(data) if fmt == "q6" else rgb
        phashes.append(phash64(rgb_dec))
    schema = pa.schema(
        [
            ("image_id", pa.string()),
            ("bytes", pa.binary()),
            ("w", pa.int32()),
            ("h", pa.int32()),
            ("fmt", pa.string()),
            ("caption", pa.string()),
            ("phash", pa.int64()),
        ]
    )
    tbl = pa.table(
        {
            "image_id": ids,
            "bytes": blobs,
            "w": pa.array(ws, pa.int32()),
            "h": pa.array(hs, pa.int32()),
            "fmt": fmts,
            "caption": caps,
            "phash": pa.array(phashes, pa.int64()),
        },
        schema=schema,
    )
    dupmap = pa.table({"image_id": dup_src, "dup_of": dup_dst})
    return tbl, dupmap


# --------------------------------------------------------------------------
# synthetic web
# --------------------------------------------------------------------------


def _hosts(n_hosts: int) -> list[str]:
    return [f"news{i}.example{i % 7}.com" for i in range(n_hosts)]


def gen_web(
    n_urls: int,
    n_seeds: int,
    n_images: int,
    seed: int = 42,
    n_hosts: int | None = None,
    social_frac: float = 0.10,
    redirect_frac: float = 0.10,
    long_url_frac: float = 0.01,
    disallow_frac: float = 0.05,
    dup_seed_frac: float = 0.20,
    out_degree: int = 5,
    imgs_per_page: int = 4,
) -> dict[str, pa.Table]:
    """Build urls / frontier_seed / pages / redirects / robots tables.

    Host distribution is Zipf-skewed (FIXTURES.md §2) so a few hot hosts own
    ~half the URLs — this exercises per-host politeness deferral and the
    salt-based skew splitting of the frontier partitioner.
    """
    if n_hosts is None:
        n_hosts = max(8, n_urls // 200)
    hosts = _hosts(n_hosts)
    rng = np.random.default_rng([seed, 10_001])

    # Zipf host weights
    ranks = np.arange(1, n_hosts + 1, dtype=np.float64)
    weights = 1.0 / ranks
    weights /= weights.sum()

    n_social = int(n_urls * social_frac)
    n_normal = n_urls - n_social
    host_idx = rng.choice(n_hosts, size=n_normal, p=weights)

    urls, domains, is_social = [], [], []
    for i in range(n_normal):
        h = hosts[int(host_idx[i])]
        r = rng.random()
        if r < disallow_frac:
            path = f"/private/p{i:07d}"
        elif r < disallow_frac + long_url_frac:
            path = "/p/" + "x" * 310 + f"/{i:07d}"  # > 300 chars → fetch skip
        else:
            path = f"/p/{i:07d}"
        urls.append(f"https://{h}{path}")
        domains.append(h)
        is_social.append(False)
    for i in range(n_social):
        h = SOCIAL_HOSTS[int(rng.integers(0, len(SOCIAL_HOSTS)))]
        urls.append(f"https://{h}/v/{i:07d}")
        domains.append(h)
        is_social.append(True)

    n = len(urls)
    shares = rng.zipf(1.6, size=n).astype(np.int64).clip(0, 10_000)
    dates = EPOCH0_MS + rng.integers(0, DAY_MS, size=n, dtype=np.int64)

    urls_tbl = pa.table(
        {
            "url": urls,
            "domain": domains,
            "shares": pa.array(shares, pa.int64()),
            "date": pa.array(dates, pa.timestamp("ms")),
            "is_social": is_social,
        }
    )

    # redirects: map url -> another url (chains up to 5)
    n_redir = int(n * redirect_frac)
    redir_from_idx = rng.choice(n, size=n_redir, replace=False)
    redir_src, redir_dst = [], []
    chain_left = 0
    prev = None
    for idx in redir_from_idx:
        src = urls[int(idx)]
        if chain_left > 0 and prev is not None:
            dst = prev  # extend a chain backwards: src -> prev
            chain_left -= 1
        else:
            dst = urls[int(rng.integers(0, n))]
            chain_left = int(rng.integers(0, 6))
        if dst != src:
            redir_src.append(src)
            redir_dst.append(dst)
            prev = src
    redirects_tbl = pa.table({"src": redir_src, "dst": redir_dst})

    # robots: every host disallows /private/
    robots_tbl = pa.table(
        {
            "host": hosts + SOCIAL_HOSTS,
            "disallow_prefix": ["/private/"] * (len(hosts) + len(SOCIAL_HOSTS)),
        }
    )

    # pages for non-social urls
    page_urls, status, ctype, htmls, out_links_col, image_ids_col = [], [], [], [], [], []
    for i in range(n_normal):
        prng = np.random.default_rng([seed, 20_000, i])
        u, h = urls[i], domains[i]
        page_urls.append(u)
        r = prng.random()
        sc = 200 if r < 0.95 else (404 if r < 0.975 else 500)
        status.append(sc)
        ct = "text/html" if prng.random() < 0.97 else "application/pdf"
        ctype.append(ct)
        k = int(prng.integers(1, out_degree + 1))
        links = [urls[int(j)] for j in prng.integers(0, n, size=k)]
        out_links_col.append(links)
        title = _caption(prng, 3, 8).title()
        paras = [_caption(prng, 20, 60) for _ in range(int(prng.integers(2, 6)))]
        img_tags, good_ids = [], []
        n_imgs = int(prng.integers(0, imgs_per_page + 1))
        for _ in range(n_imgs):
            img_i = int(prng.integers(0, n_images))
            image_id = f"img{img_i:08d}"
            src = f"https://img.{h}/{image_id}"
            wpx = int(prng.integers(50, 800))
            hpx = int(prng.integers(50, 800))
            case = prng.random()
            alt = _caption(prng, 2, 6)
            attrs = f'width="{wpx}" height="{hpx}" alt="{alt}"'
            ok = wpx >= 200 and hpx >= 200 and wpx * hpx >= 40000
            if case < 0.08:
                attrs = f'alt="{alt}"'  # missing dims → dropped
                ok = False
            elif case < 0.14:
                src = src + ".gif"  # .gif → dropped
                ok = False
            elif case < 0.18:
                src = f"https://img.{h}/" + "y" * 520 + image_id  # >500 chars → dropped
                ok = False
            elif case < 0.26:
                attrs = f'width="{wpx}" height="{hpx}"'  # no alt → title fallback
            img_tags.append(f'<img src="{src}" {attrs}>')
            if ok:
                good_ids.append(image_id)
        boiler = " ".join(f'<a href="{l}">more</a>' for l in links)
        html = (
            f"<html><head><title>{title}</title></head><body>"
            f'<div class="nav">{boiler}</div>'
            f'<div class="article">'
            + "".join(f"<p>{p}</p>" for p in paras)
            + "".join(img_tags)
            + "</div>"
            f'<div class="footer">contact about terms</div>'
            f"</body></html>"
        )
        htmls.append(html.encode("utf-8"))
        image_ids_col.append(good_ids)

    pages_tbl = pa.table(
        {
            "url": page_urls,
            "status_code": pa.array(status, pa.int32()),
            "content_type": ctype,
            "html": pa.array(htmls, pa.large_binary()),
            "out_links": pa.array(out_links_col, pa.list_(pa.string())),
            "image_ids": pa.array(image_ids_col, pa.list_(pa.string())),
        }
    )

    # frontier seeds (~20% duplicates of an earlier seed row)
    srng = np.random.default_rng([seed, 30_000])
    seed_rows = []
    for i in range(n_seeds):
        if seed_rows and srng.random() < dup_seed_frac:
            seed_rows.append(seed_rows[int(srng.integers(0, len(seed_rows)))])
        else:
            seed_rows.append(int(srng.integers(0, n)))
    fr = pa.table(
        {
            "url": [urls[j] for j in seed_rows],
            "domain": [domains[j] for j in seed_rows],
            "shares": pa.array([int(shares[j]) for j in seed_rows], pa.int64()),
            "date": pa.array([int(dates[j]) for j in seed_rows], pa.timestamp("ms")),
            "reference": [f"seed{i:06d}" for i in range(n_seeds)],
            "is_social": [bool(is_social[j]) for j in seed_rows],
        }
    )

    return {
        "urls": urls_tbl,
        "frontier_seed": fr,
        "pages": pages_tbl,
        "redirects": redirects_tbl,
        "robots": robots_tbl,
    }


def gen_items(n: int, seed: int = 42, n_users: int = 50, window_s: int = 60, windows: int = 8) -> pa.Table:
    """Social-media posts with a planted 'event' token ramping over the last
    K windows (FIXTURES.md §4)."""
    rng = np.random.default_rng([seed, 40_000])
    tags_vocab = VOCAB[:30]
    user_w = 1.0 / np.arange(1, n_users + 1)
    user_w /= user_w.sum()
    ids, titles, tags_col, users, shares, ts = [], [], [], [], [], []
    t0 = EPOCH0_MS
    span = windows * window_s * 1000
    for i in range(n):
        prng = np.random.default_rng([seed, 40_001, i])
        t = t0 + int(prng.integers(0, span))
        win = (t - t0) // (window_s * 1000)
        title = _caption(prng, 5, 15)
        # plant: 'quakeevent' appears with probability rising with window idx
        if prng.random() < 0.05 + 0.10 * win:
            title += " quakeevent"
        ids.append(f"item{i:07d}")
        titles.append(title)
        k = int(prng.integers(0, 4))
        tags_col.append([tags_vocab[int(j)] for j in prng.integers(0, len(tags_vocab), k)])
        users.append(f"user{int(prng.choice(n_users, p=user_w)):04d}")
        shares.append(int(prng.zipf(1.8)))
        ts.append(t)
    return pa.table(
        {
            "id": ids,
            "title": titles,
            "tags": pa.array(tags_col, pa.list_(pa.string())),
            "user_id": users,
            "shares": pa.array(shares, pa.int64()),
            "ts": pa.array(ts, pa.timestamp("ms")),
        }
    )


def gen_audio(n: int, seed: int = 42) -> pa.Table:
    """Deterministic mono PCM-16 WAV clips (stdlib codec — stages/av.py):
    1-3 sine tones + mild noise per clip, row i depends only on (seed, i)."""
    from ..stages.av import encode_wav_pcm16

    ids, blobs, srs, nss, caps = [], [], [], [], []
    for i in range(n):
        rng = np.random.default_rng([seed, 50_000, i])
        sr = 8000
        n_samples = int(rng.integers(sr // 5, sr))  # 0.2 – 1.0 s
        t = np.arange(n_samples, dtype=np.float64) / sr
        x = np.zeros(n_samples, np.float64)
        for _ in range(int(rng.integers(1, 4))):
            freq = float(rng.uniform(80.0, 1200.0))
            amp = float(rng.uniform(0.1, 0.5))
            x += amp * np.sin(2 * np.pi * freq * t + float(rng.uniform(0, 2 * np.pi)))
        x += rng.normal(0, 0.01, n_samples)
        samples = np.clip(x * 12000.0, -32768, 32767).astype(np.int16)
        ids.append(f"clip{i:07d}")
        blobs.append(encode_wav_pcm16(samples, sr))
        srs.append(sr)
        nss.append(n_samples)
        caps.append(_caption(rng))
    return pa.table(
        {
            "clip_id": pa.array(ids, pa.string()),
            "bytes": pa.array(blobs, pa.binary()),
            "sr": pa.array(srs, pa.int32()),
            "n_samples": pa.array(nss, pa.int32()),
            "caption": pa.array(caps, pa.string()),
        }
    )


def gen_videos(n: int, seed: int = 42, dup_frac: float = 0.2) -> pa.Table:
    """Deterministic RVID1 clips (raw zlib frame container — stages/av.py):
    a seeded gradient base frame rolled horizontally per frame with a
    brightness ramp, so frames are related-but-distinct. Row i depends
    only on (seed, i) and the recent-original ring (the images-table
    dup-planting discipline): with probability ``dup_frac`` a clip reuses
    an earlier clip's frames — either verbatim (re-encode at a different
    fps) or truncated to a prefix — planting the near/contained
    duplicates video_dup_pairs mines.

    v3 plants SCENE STRUCTURE with exact integer arithmetic: each
    original is split into 1-4 segments and even/odd segments carry a
    +0 / +96 luma offset. The base is halved (0..127) and the ramp is
    +1/frame, so no pixel ever clips (max 127 + 23 + 96 = 246) —
    np.roll preserves the Rec.601 channel sums exactly, so the sampled
    (every-5th) mean-luma delta is EXACTLY 5000 milli within a segment
    and ≥ 91000 milli across a cut, the margin video_scene_cuts
    thresholds at 48000."""
    from ..stages.av import encode_rvid

    ids, blobs, ws, hs, nfs, fpss, caps = [], [], [], [], [], [], []
    originals: list[np.ndarray] = []
    for i in range(n):
        rng = np.random.default_rng([seed, 60_000, i])
        if i > 0 and rng.random() < dup_frac and originals:
            src = originals[int(rng.integers(0, len(originals)))]
            if rng.random() < 0.5:
                frames = src  # verbatim re-encode
            else:
                k = max(4, int(len(src) * float(rng.uniform(0.5, 0.95))))
                frames = src[:k]  # prefix truncation (contained dup)
            fps = int(rng.integers(10, 31))
            h, w = frames.shape[1], frames.shape[2]
            n_frames = len(frames)
        else:
            w = int(rng.integers(32, 65))
            h = int(rng.integers(32, 65))
            n_frames = int(rng.integers(6, 25))
            fps = int(rng.integers(10, 31))
            base = _image(rng, w, h).astype(np.int64) // 2  # 0..127
            shift = int(rng.integers(1, 5))
            n_seg = int(rng.integers(1, 5))
            cuts = (
                np.sort(
                    rng.choice(
                        np.arange(1, n_frames),
                        size=min(n_seg - 1, n_frames - 1),
                        replace=False,
                    )
                )
                if n_seg > 1
                else np.empty(0, np.int64)
            )
            seg_of = np.searchsorted(cuts, np.arange(n_frames), side="right")
            frames = np.empty((n_frames, h, w, 3), np.uint8)
            for f in range(n_frames):
                off = 96 * (int(seg_of[f]) % 2)
                frames[f] = (
                    np.roll(base, (f * shift) % w, axis=1) + f + off
                ).astype(np.uint8)
            if len(originals) >= 32:
                originals.pop(0)
            originals.append(frames)
        ids.append(f"vid{i:06d}")
        blobs.append(encode_rvid(frames, fps))
        ws.append(w)
        hs.append(h)
        nfs.append(n_frames)
        fpss.append(fps)
        caps.append(_caption(rng))
    return pa.table(
        {
            "video_id": pa.array(ids, pa.string()),
            "bytes": pa.array(blobs, pa.binary()),
            "w": pa.array(ws, pa.int32()),
            "h": pa.array(hs, pa.int32()),
            "n_frames": pa.array(nfs, pa.int32()),
            "fps": pa.array(fpss, pa.int32()),
            "caption": pa.array(caps, pa.string()),
        }
    )


AV_TIERS = {
    # tier: (n_clips, n_videos) — decode cost stays a few seconds at
    # "small" (the driver's sf0.01 tier); binary payloads are modest
    # (clips ≤ 16 KB, videos ≤ ~150 KB compressed gradients)
    "tiny": (40, 16),
    "small": (600, 200),
    "medium": (600, 200),
    "bench": (600, 200),
}


AV_VERSION = 3  # v2: planted near/contained dups; v3: planted scene cuts


def _marker_has(marker: str, want: str) -> bool:
    """True iff the versioned ``_*_DONE`` marker exists and names ``want``."""
    if not os.path.exists(marker):
        return False
    with open(marker) as f:
        return want in f.read()


def ensure_av_tables(tier: str, out_dir: str, seed: int = 42) -> str:
    """Idempotently add audio.parquet / videos.parquet to a fixture tier
    (separate versioned marker so tiers generated before these tables —
    or before the current generation rules — regenerate them, and their
    derived signature caches, without a full tier rebuild)."""
    os.makedirs(out_dir, exist_ok=True)
    marker = os.path.join(out_dir, "_AV_DONE")
    want = f"v={AV_VERSION}"
    if _marker_has(marker, want):
        return out_dir
    n_clips, n_videos = AV_TIERS.get(tier, AV_TIERS["small"])
    pq.write_table(gen_audio(n_clips, seed=seed), os.path.join(out_dir, "audio.parquet"))
    pq.write_table(gen_videos(n_videos, seed=seed), os.path.join(out_dir, "videos.parquet"))
    for stale in ("audio_signatures.parquet", "video_signatures.parquet"):
        try:
            os.remove(os.path.join(out_dir, stale))
        except FileNotFoundError:
            pass
    with open(marker, "w") as f:
        f.write(
            f"{want} tier={tier} seed={seed} clips={n_clips} videos={n_videos}\n"
        )
    return out_dir


TIERS = {
    # name: (frontier seeds, url universe, images, hosts)
    "tiny": dict(n_urls=600, n_seeds=200, n_images=100, n_hosts=12),
    "small": dict(n_urls=30_000, n_seeds=10_000, n_images=5_000, n_hosts=60),
    # medium: scaling-bench tier — enough per-round work that compute
    # dominates per-round orchestration at 32 cpus (image-dense pages)
    "medium": dict(
        n_urls=250_000,
        n_seeds=150_000,
        n_images=8_000,
        n_hosts=150,
        imgs_per_page=16,
    ),
    "bench": dict(n_urls=2_000_000, n_seeds=1_000_000, n_images=50_000, n_hosts=400),
}


def generate_tier(tier: str, out_dir: str, seed: int = 42, force: bool = False) -> str:
    """Write a full fixture tier under ``out_dir`` (idempotent via a DONE
    marker — reruns skip; bench reuses are cheap)."""
    cfg = TIERS[tier]
    os.makedirs(out_dir, exist_ok=True)
    marker = os.path.join(out_dir, "_DONE")
    if os.path.exists(marker) and not force:
        return out_dir
    cfg = dict(cfg)
    img_dims = dict(dim_lo=64, dim_hi=256) if cfg["n_images"] <= 1000 else dict(dim_lo=64, dim_hi=128)
    for k in ("dim_lo", "dim_hi"):
        if k in cfg:
            img_dims[k] = cfg.pop(k)
    images, dupmap = gen_images(cfg["n_images"], seed=seed, **img_dims)
    pq.write_table(images, os.path.join(out_dir, "images.parquet"))
    pq.write_table(dupmap, os.path.join(out_dir, "images_dupmap.parquet"))
    extra = {
        k: v
        for k, v in cfg.items()
        if k not in ("n_urls", "n_seeds", "n_images", "n_hosts")
    }
    web = gen_web(
        cfg["n_urls"],
        cfg["n_seeds"],
        cfg["n_images"],
        seed=seed,
        n_hosts=cfg["n_hosts"],
        **extra,
    )
    for name, tbl in web.items():
        pq.write_table(tbl, os.path.join(out_dir, f"{name}.parquet"))
    items = gen_items(min(cfg["n_seeds"], 20_000), seed=seed)
    pq.write_table(items, os.path.join(out_dir, "items.parquet"))
    with open(marker, "w") as f:
        f.write(f"tier={tier} seed={seed}\n")
    return out_dir


# --------------------------------------------------------------------------
# raw (pre-normalization) URL table — url_canonical_audit's planted input
# --------------------------------------------------------------------------

RAWURL_VERSION = 1
RAWURL_TIERS = {"tiny": 500, "small": 20_000, "medium": 20_000, "bench": 100_000}

_TRACKING_PARAMS = [
    "utm_source=feed",
    "utm_medium=social",
    "utm_campaign=x1",
    "fbclid=Ab3xYz",
    "gclid=q9r8s7",
    "ref=home",
]
_KEPT_PARAMS = ["id={}", "page={}", "sort=asc", "lang=en"]


def gen_raw_urls(n: int, seed: int = 42) -> pa.Table:
    """Messy pre-normalization URLs with each canonicalization defect
    planted independently at a known rate: uppercase scheme/host (~15%/
    10%), explicit :443 default port (~12%), fragments (~20%), tracking
    params + shuffled param order (~0-2 of each), and trailing slashes
    (~15%). ~30% of rows draw their path id from a small pool so
    canonical forms COLLIDE — the URL-seen dedup a crawler's normalizer
    exists to enable. Deterministic per (n, seed)."""
    rng = np.random.default_rng(seed + 1009)
    urls = []
    pool = max(n // 10, 1)
    for i in range(n):
        if rng.random() < 0.3:
            # pooled identity: host derives from the pooled path id so the
            # CANONICAL (host, path) collides across rows — the URL-seen
            # dedup the normalizer exists to enable
            pid = int(rng.integers(0, pool))
            host = f"news{pid % 60}.example{pid % 6}.com"
        else:
            pid = pool + i
            host = f"news{int(rng.integers(0, 60))}.example{int(rng.integers(0, 6))}.com"
        path = f"/p/{pid:07d}"
        scheme = "https"
        r = rng.random()
        if r < 0.10:
            host = host.upper()
        elif r < 0.15:
            host = host.capitalize()
        if rng.random() < 0.10:
            scheme = "HTTPS"
        port = ":443" if rng.random() < 0.12 else ""
        frag = f"#s{int(rng.integers(0, 9))}" if rng.random() < 0.2 else ""
        params = []
        for _ in range(int(rng.integers(0, 3))):
            params.append(
                _KEPT_PARAMS[int(rng.integers(0, len(_KEPT_PARAMS)))].format(
                    int(rng.integers(0, 50))
                )
            )
        for _ in range(int(rng.integers(0, 3))):
            params.append(
                _TRACKING_PARAMS[int(rng.integers(0, len(_TRACKING_PARAMS)))]
            )
        rng.shuffle(params)
        query = ("?" + "&".join(params)) if params else ""
        slash = "/" if rng.random() < 0.15 else ""
        urls.append(f"{scheme}://{host}{port}{path}{slash}{query}{frag}")
    return pa.table(
        {
            "url_id": pa.array(np.arange(n, dtype=np.int64), pa.int64()),
            "raw_url": pa.array(urls, pa.string()),
        }
    )


def ensure_raw_urls(tier: str, out_dir: str, seed: int = 42) -> str:
    """Idempotently add raw_urls.parquet to a fixture tier (the
    ensure_av_tables discipline: separate versioned marker, no full tier
    rebuild)."""
    os.makedirs(out_dir, exist_ok=True)
    marker = os.path.join(out_dir, "_RAWURLS_DONE")
    want = f"v={RAWURL_VERSION}"
    if _marker_has(marker, want):
        return out_dir
    n = RAWURL_TIERS.get(tier, RAWURL_TIERS["small"])
    pq.write_table(
        gen_raw_urls(n, seed=seed), os.path.join(out_dir, "raw_urls.parquet")
    )
    with open(marker, "w") as f:
        f.write(f"{want} tier={tier} seed={seed} n={n}\n")
    return out_dir


# --------------------------------------------------------------------------
# wildcard robots rules (RFC 9309 * / $ patterns) — robots_wildcard_gate
# --------------------------------------------------------------------------

RWILD_VERSION = 1


def robots_pattern_to_regex(p: str) -> str:
    """RFC 9309 rule path → anchored regex, shared VERBATIM by the engine
    (compiled per host) and the oracle (stored in the fixture table and
    fed to DuckDB's RE2): '*' → '.*', a TRAILING '$' anchors the end
    (mid-pattern '$' is a literal), everything else escaped."""
    import re as _re

    anchored = p.endswith("$")
    core = p[:-1] if anchored else p
    esc = "".join(".*" if c == "*" else _re.escape(c) for c in core)
    return "^" + esc + ("$" if anchored else "")


def gen_robots_wildcards(seed: int = 42) -> pa.Table:
    """Per-host RFC 9309 wildcard rule sets over the raw_urls host grid
    (news{0..59}.example{0..5}.com): ~70% of hosts get 1-3 rules drawn
    from digit-parameterized templates, including Allow rules that are
    LONGER than a Disallow they override (the longest-match + allow-wins
    precedence a compliant crawler must implement). Deterministic."""
    rng = np.random.default_rng(seed + 2027)
    hosts, rules, allows, regexes = [], [], [], []
    for h in range(60):
        for e in range(6):
            host = f"news{h}.example{e}.com"
            if rng.random() < 0.3:
                continue  # no robots rules for this host
            n_rules = int(rng.integers(1, 4))
            for _ in range(n_rules):
                kind = int(rng.integers(0, 4))
                d = int(rng.integers(0, 10))
                if kind == 0:
                    rule, allow = f"/p/*{d}$", False  # paths ending in d
                elif kind == 1:
                    rule, allow = f"/p/{d}*", False  # paths starting with d
                elif kind == 2:
                    # disallow a digit prefix BUT allow a longer refinement
                    rule, allow = f"/p/{d}*", False
                    d2 = int(rng.integers(0, 10))
                    hosts.append(host)
                    rules.append(rule)
                    allows.append(allow)
                    regexes.append(robots_pattern_to_regex(rule))
                    rule, allow = f"/p/{d}{d2}*", True
                else:
                    rule, allow = "/p/*?*", False  # any query string
                hosts.append(host)
                rules.append(rule)
                allows.append(allow)
                regexes.append(robots_pattern_to_regex(rule))
    return pa.table(
        {
            "host": pa.array(hosts, pa.string()),
            "rule": pa.array(rules, pa.string()),
            "allow": pa.array(allows, pa.bool_()),
            "rule_regex": pa.array(regexes, pa.string()),
        }
    )


def ensure_robots_wildcards(out_dir: str, seed: int = 42) -> str:
    """Idempotently add robots_wildcards.parquet to a fixture tier (the
    ensure_raw_urls discipline; the rule grid is host-bounded, so every
    tier shares one table shape)."""
    os.makedirs(out_dir, exist_ok=True)
    marker = os.path.join(out_dir, "_RWILD_DONE")
    want = f"v={RWILD_VERSION}"
    if _marker_has(marker, want):
        return out_dir
    pq.write_table(
        gen_robots_wildcards(seed=seed),
        os.path.join(out_dir, "robots_wildcards.parquet"),
    )
    with open(marker, "w") as f:
        f.write(f"{want} seed={seed}\n")
    return out_dir
