"""URL utilities: domain extraction, routing, stable url hashing.

Reference semantics:
- domain = ``new URL(url).getHost()`` (bolts/webpages/URLExpansionBolt.java:67-68)
- social-media routing set (URLExpansionBolt.java:42-47): traffic to these 6
  hosts goes to the "media" stream, everything else to "webpage"
  (URLExpansionBolt.java:76-81).
- max 4 redirect hops (URLExpansionBolt.java:30); failures silently dropped
  (we keep a status column instead of dropping rows — SURVEY §4).
- fetcher skips URLs longer than 300 chars (bolts/FetcherBolt.java:194);
  extraction drops media URLs longer than 500 chars
  (ArticleExtractionBolt.java:70,427-428).
"""

from __future__ import annotations

import sys
from urllib.parse import urlsplit

import numpy as np

SOCIAL_MEDIA_HOSTS = frozenset(
    {
        "vimeo.com",
        "instagram.com",
        "www.youtube.com",
        "twitpic.com",
        "dailymotion.com",
        "www.facebook.com",
    }
)  # URLExpansionBolt.java:42-47

MAX_REDIRECTS = 4  # URLExpansionBolt.java:30
MAX_FETCH_URL_LEN = 300  # FetcherBolt.java:194
MAX_MEDIA_URL_LEN = 500  # ArticleExtractionBolt.java:70

# Multi-label public suffixes we recognise for "registered domain" purposes.
# (The reference has no registered-domain logic at all — partitioning by
# registered domain is a north-rule addition; this tiny suffix set covers the
# synthetic corpus and common real cases without a full PSL dependency.)
_TWO_LABEL_SUFFIXES = frozenset(
    {"co.uk", "ac.uk", "gov.uk", "co.jp", "com.au", "com.br", "co.in", "org.uk"}
)


def host_of(url: str) -> str:
    """Hostname of a URL ('' on parse failure) — URL.getHost() semantics."""
    try:
        return urlsplit(url).hostname or ""
    except ValueError:
        return ""


def registered_domain(host: str) -> str:
    """eTLD+1-ish registered domain — the frontier/politeness partition key.

    ``www.a.example.com`` → ``example.com``; ``a.b.co.uk`` → ``b.co.uk``.
    """
    if not host:
        return ""
    parts = host.lower().split(".")
    if len(parts) <= 2:
        return host.lower()
    if ".".join(parts[-2:]) in _TWO_LABEL_SUFFIXES:
        return ".".join(parts[-3:])
    return ".".join(parts[-2:])


def url_hash64(url: str) -> int:
    """Stable unsigned 64-bit hash of a URL (FNV-1a). Keys the seen-set."""
    h = 0xCBF29CE484222325
    for b in url.encode("utf-8"):
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def utf8_blob(strs) -> tuple[np.ndarray, np.ndarray]:
    """Strings → (one contiguous UTF-8 uint8 buffer, int64 offsets of
    length n+1), the layout Arrow string arrays use. Built with
    ``str.encode`` + ``b"".join``, so no pyarrow (and no pandas import)
    is involved. A None encodes as ''."""
    enc = [b"" if s is None else s.encode("utf-8") for s in strs]
    offsets = np.zeros(len(enc) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, enc), np.int64, len(enc)), out=offsets[1:])
    return np.frombuffer(b"".join(enc), dtype=np.uint8), offsets


def utf8_unblob(data: np.ndarray, offsets: np.ndarray) -> list[str]:
    """Inverse of :func:`utf8_blob`."""
    b = data.tobytes()
    o = offsets.tolist()
    return [b[s:e].decode("utf-8") for s, e in zip(o, o[1:])]


def url_hash64_vec(urls) -> np.ndarray:
    """Vectorized FNV-1a over strings → uint64 ndarray, bit-identical to
    :func:`url_hash64` (a None in a list hashes like ''). Runs over one
    contiguous uint8 buffer + offsets, so the cost is O(total bytes) of
    numpy work with no per-byte Python. Arrow input is hashed in place
    from its own string buffers; anything else goes through
    :func:`utf8_blob`, never ``pa.array`` — pyarrow imports pandas on its
    first ``pa.array`` call, which a fresh frontier shard would pay."""
    # an Arrow array can only exist once pyarrow is imported
    pa = sys.modules.get("pyarrow")
    if pa is not None and isinstance(urls, (pa.Array, pa.ChunkedArray)):
        arr = (
            urls.combine_chunks() if isinstance(urls, pa.ChunkedArray) else urls
        ).cast(pa.large_string())
        n = len(arr)
        if n == 0:
            return np.empty(0, dtype=np.uint64)
        bufs = arr.buffers()
        offsets = np.frombuffer(bufs[1], dtype=np.int64)[arr.offset : arr.offset + n + 1]
        data = np.frombuffer(bufs[2], dtype=np.uint8)
    else:
        data, offsets = utf8_blob(urls)
        n = len(offsets) - 1
    starts = offsets[:-1]
    lengths = offsets[1:] - starts
    h = np.full(n, 0xCBF29CE484222325, dtype=np.uint64)
    prime = np.uint64(0x100000001B3)
    maxlen = int(lengths.max(initial=0))
    idx_all = np.arange(n)
    with np.errstate(over="ignore"):
        j = 0
        active = idx_all
        while j < maxlen:
            active = active[lengths[active] > j]
            b = data[starts[active] + j].astype(np.uint64)
            h[active] = (h[active] ^ b) * prime
            j += 1
    return h


def route_of_host(host: str) -> str:
    """"media" when host is in the reference's hard-coded social set, else
    "webpage" — URLExpansionBolt.java:76-81."""
    return "media" if host in SOCIAL_MEDIA_HOSTS else "webpage"


# --------------------------------------------------------------------------
# URL canonicalization (frontier normalizer — URL-seen dedup key)
# --------------------------------------------------------------------------

import re as _re

_URL_RE = _re.compile(
    r"^([A-Za-z][A-Za-z0-9+.\-]*)://([^/?#]*)([^?#]*)(?:\?([^#]*))?(?:#(.*))?$"
)
_TRACKING_RE = _re.compile(r"(utm_[^=]*|fbclid|gclid|ref)(=|$)")
_DEFAULT_PORTS = {"https": ":443", "http": ":80"}


def canonicalize_url(url: str) -> tuple[str, tuple[bool, ...]]:
    """RFC-3986-flavored crawl normalizer, rule-for-rule SQL-replayable
    (the url_canonical_audit oracle replays every branch in DuckDB):

    1. lowercase scheme + host[:port] (the
       userinfo before the last '@' keeps
       its case)                             → case_fixed
    2. strip the scheme's default port       → port_stripped
    3. drop the fragment                     → fragment_dropped
    4. drop tracking params (utm_*, fbclid,
       gclid, ref) and empty params          → tracking_removed
    5. byte-sort the surviving params        → params_reordered
    6. empty path → '/'; strip ONE trailing
       slash when the path is not just '/'   → slash_stripped

    Returns (canonical, (case_fixed, port_stripped, fragment_dropped,
    tracking_removed, params_reordered, slash_stripped)). Unparseable
    URLs return themselves with all-False flags (audited separately)."""
    m = _URL_RE.match(url)
    if not m:
        return url, (False, False, False, False, False, False)
    scheme, auth, path, query, frag = m.groups()
    hostport = auth.rpartition("@")[2]
    userinfo = auth[: len(auth) - len(hostport)]  # 'user:pw@' or ''
    lscheme, lhost = scheme.lower(), hostport.lower()
    case_fixed = (lscheme != scheme) or (lhost != hostport)
    lauth = userinfo + lhost
    dport = _DEFAULT_PORTS.get(lscheme)
    port_stripped = bool(dport) and lauth.endswith(dport)
    if port_stripped:
        lauth = lauth[: -len(dport)]
    fragment_dropped = frag is not None
    params = [p for p in query.split("&")] if query else []
    kept = [
        p for p in params if p != "" and not _TRACKING_RE.match(p)
    ]
    tracking_removed = len(kept) < len(params)
    skept = sorted(kept)
    params_reordered = len(kept) > 1 and skept != kept
    cpath = path if path else "/"
    slash_stripped = len(cpath) > 1 and cpath.endswith("/")
    if slash_stripped:
        cpath = cpath[:-1]
    canon = f"{lscheme}://{lauth}{cpath}"
    if skept:
        canon += "?" + "&".join(skept)
    return canon, (
        case_fixed,
        port_stripped,
        fragment_dropped,
        tracking_removed,
        params_reordered,
        slash_stripped,
    )
