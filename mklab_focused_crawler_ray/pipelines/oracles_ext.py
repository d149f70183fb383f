"""Extended DuckDB oracles for queries whose inputs are the deterministic
fixture tables (items/urls under the image+web fixture) or whose semantics
need heavier SQL (brute-force set-similarity joins).

The driver's correctness gate runs queries AND oracle SQL at sf0.01, whose
fixture tier is "small"; fixture-backed oracles therefore read
``{fixture_root}/small/*.parquet`` via absolute-path ``read_parquet``
(``extended()`` generates the fixture before building them).

Every SQL string mirrors its Ray pipeline's exact semantics — same regexes
(RE2-compatible), same rounding (integer micro units via
``FLOOR(x*1e6+0.5)``), same tie-breaks — and each pairing is verified
locally by tests/test_queries_oracle.py with the driver's comparison shape.

Reference lineage is carried by the Ray pipelines these mirror
(pipelines/queries_media.py, stages/nlp.py, functions/platforms.py).
"""

from __future__ import annotations

import os

# Lucene EnglishAnalyzer stop set — functions/text.py STOPWORDS
_STOP_SQL = (
    "['a','an','and','are','as','at','be','but','by','for','if','in','into',"
    "'is','it','no','not','of','on','or','such','that','the','their','then',"
    "'there','these','they','this','to','was','will','with']"
)

# functions/text.py WORD_RE (RE2-compatible; group 0 extraction).
# The apostrophe is doubled — this string is spliced into SQL literals.
_WORD_PAT = "[A-Za-z0-9_]+(''[A-Za-z]+)?"

# stages/nlp.py ENTITY_RE
_ENT_PAT = r"\b([A-Z][A-Za-z]*)_(Person|Location|Organization)\b"

# functions/platforms.py PLATFORM_PATTERNS — dispatch order preserved,
# anchored with ^ (Python re.match semantics). Quirky optional-'h' tokens
# (watch? / php?) reproduced verbatim; RE2 treats them identically.
_PLATFORMS = [
    ("instagram", r"^https*://instagram\.com/p/([\w\-]+)/"),
    ("youtube", r"^https*://www\.youtube\.com/watch?.*v=([a-zA-Z0-9_\-]+)(&.+=.+)*"),
    ("vimeo", r"^https*://vimeo\.com/([0-9]+)/*$"),
    ("twitpic", r"^https*://twitpic\.com/([A-Za-z0-9]+)/*.*$"),
    ("dailymotion", r"^https*://www\.dailymotion\.com/video/([A-Za-z0-9]+)_.*$"),
    ("facebook", r"^https*://www\.facebook\.com/photo\.php?.*fbid=([a-zA-Z0-9_\-]+)(&.+=.+)*"),
    ("flickr", r"^https*://flickr\.com/photos/([A-Za-z0-9@]+)/([A-Za-z0-9@]+)/*.*$"),
]

# functions/text.py _LANG_PROFILES (iteration order = tie-break order)
_LANG_PROFILES = [
    ("en", "the and of to in is that it was for on are with as"),
    ("de", "der die das und ist nicht ein eine zu den von mit im"),
    ("fr", "le la les et de des un une est pas que pour dans"),
    ("es", "el la los las y de que en un una es no por con"),
    ("it", "il la di che e un una per non sono con del"),
]

# stages/nlp.py _POS_SUFFIX_RULES with the len(low) > len(suf)+1 guard
_POS_CASE = """CASE
  WHEN regexp_matches(w, '^[0-9]') THEN 'CD'
  WHEN length(lw) > 4 AND lw LIKE '%ing' THEN 'VBG'
  WHEN length(lw) > 3 AND lw LIKE '%ed' THEN 'VBD'
  WHEN length(lw) > 3 AND lw LIKE '%ly' THEN 'RB'
  WHEN length(lw) > 5 AND lw LIKE '%tion' THEN 'NN'
  WHEN length(lw) > 5 AND lw LIKE '%ness' THEN 'NN'
  WHEN length(lw) > 5 AND lw LIKE '%ment' THEN 'NN'
  WHEN length(lw) > 4 AND lw LIKE '%ous' THEN 'JJ'
  WHEN length(lw) > 4 AND lw LIKE '%ful' THEN 'JJ'
  WHEN length(lw) > 4 AND lw LIKE '%ive' THEN 'JJ'
  WHEN length(lw) > 4 AND lw LIKE '%est' THEN 'JJS'
  WHEN length(lw) > 3 AND lw LIKE '%er' THEN 'NN'
  WHEN length(lw) > 2 AND lw LIKE '%s' THEN 'NNS'
  WHEN regexp_matches(w, '^[A-Z]') THEN 'NNP'
  ELSE 'NN' END"""


def _fixture_small_dir() -> str:
    from ..fixtures.generate import fixture_root

    return os.path.join(fixture_root(), "small")


def ensure_small_fixture() -> str:
    """Generate (idempotent, cached) the small fixture tier so fixture-path
    oracle SQL can read it; returns the directory."""
    from ..fixtures.generate import generate_tier

    return generate_tier("small", _fixture_small_dir())


def _platform_sql(urls_path: str) -> str:
    plat_case = "CASE " + " ".join(
        f"WHEN regexp_matches(url, '{pat}') THEN '{name}'"
        for name, pat in _PLATFORMS
    ) + " ELSE '' END"
    id_case = "CASE " + " ".join(
        f"WHEN regexp_matches(url, '{pat}') THEN regexp_extract(url, '{pat}', 1)"
        for name, pat in _PLATFORMS
    ) + " ELSE '' END"
    return (
        f"SELECT url, {plat_case} AS platform, {id_case} AS media_id "
        f"FROM read_parquet('{urls_path}')"
    )


def _langid_sql() -> str:
    cnts = ", ".join(
        "len(list_filter(toks, t -> list_contains(["
        + ",".join(f"'{w}'" for w in words.split())
        + f"], t))) AS c_{lang}"
        for lang, words in _LANG_PROFILES
    )
    m = "greatest(" + ", ".join(f"c_{lang}" for lang, _ in _LANG_PROFILES) + ")"
    pick = "CASE WHEN {m} = 0 THEN 'und' ".format(m=m) + " ".join(
        f"WHEN c_{lang} = {m} THEN '{lang}'" for lang, _ in _LANG_PROFILES
    ) + " ELSE 'und' END"
    return (
        "WITH t AS (SELECT doc_id, "
        f"list_transform(regexp_extract_all(text, '{_WORD_PAT}'), x -> lower(x)) AS toks "
        "FROM documents), "
        f"c AS (SELECT doc_id, {cnts} FROM t) "
        f"SELECT doc_id, {pick} AS lang_pred FROM c"
    )


def _quality_sql(rel: str, id_col: str, text_col: str) -> str:
    """functions/text.quality_features mirrored exactly over any
    (id, text) relation: integer counts, exact double ratios,
    multiplicative CASE chain, micro-unit output."""
    return (
        f"WITH w AS (SELECT {id_col}, {text_col} AS text, "
        f"regexp_extract_all({text_col}, '{_WORD_PAT}') AS words FROM {rel}), "
        f"f AS (SELECT {id_col}, len(words) AS n_words, length(text) AS n_chars, "
        "CASE WHEN len(words) = 0 THEN 0.0 "
        "ELSE CAST(length(array_to_string(words, '')) AS DOUBLE)/len(words) END AS mean_wl, "
        "CAST(length(text) - length(regexp_replace(text, "
        "'[.,;:!?\"''()\\[\\]{}]', '', 'g')) AS DOUBLE)/greatest(1, length(text)) AS punct_ratio, "
        "CAST(len(list_filter(list_transform(words, x -> lower(x)), "
        f"x -> list_contains({_STOP_SQL}, x))) AS DOUBLE)/greatest(1, len(words)) AS stop_ratio, "
        "CAST(length(regexp_replace(text, '[^A-Za-z]', '', 'g')) AS DOUBLE)"
        "/greatest(1, length(text)) AS alpha_ratio FROM w), "
        f"s AS (SELECT {id_col}, n_words, 1.0 "
        "* (CASE WHEN n_words < 10 THEN n_words/10.0 ELSE 1.0 END) "
        "* (CASE WHEN mean_wl >= 3.0 AND mean_wl <= 10.0 THEN 1.0 ELSE 0.5 END) "
        "* (CASE WHEN stop_ratio < 0.05 THEN 0.5 ELSE 1.0 END) "
        "* (CASE WHEN alpha_ratio < 0.5 THEN 0.5 ELSE 1.0 END) "
        "* (CASE WHEN punct_ratio > 0.2 THEN 0.5 ELSE 1.0 END) AS score FROM f) "
        f"SELECT {id_col}, n_words, CAST(FLOOR(score*1000000 + 0.5) AS BIGINT) AS quality_micro FROM s"
    )


def _pagerank_sql(pages_path: str, iters: int, top: int) -> str:
    """Integer-exact PageRank as ``iters`` unrolled CTE stages (DuckDB has
    no aggregate-in-recursive-CTE, so the fixed iteration count unrolls) —
    all-BIGINT arithmetic, so summation order cannot perturb the result."""
    parts = [
        f"nodes AS (SELECT url FROM read_parquet('{pages_path}'))",
        f"e0 AS (SELECT url AS src, unnest(out_links) AS dst FROM read_parquet('{pages_path}'))",
        "e AS (SELECT src, dst FROM e0 WHERE dst IN (SELECT url FROM nodes))",
        "deg AS (SELECT src, COUNT(*) AS d FROM e GROUP BY 1)",
        "r0 AS (SELECT url, CAST(1000000 AS BIGINT) AS r FROM nodes)",
    ]
    for k in range(1, iters + 1):
        parts.append(
            f"r{k} AS (SELECT n.url, "
            f"CAST(150000 + (85 * COALESCE(s{k}.c, 0)) // 100 AS BIGINT) AS r "
            f"FROM nodes n LEFT JOIN ("
            f"SELECT e.dst AS url, SUM(r.r // deg.d) AS c "
            f"FROM e JOIN r{k-1} r ON r.url = e.src "
            f"JOIN deg ON deg.src = e.src GROUP BY 1) s{k} ON s{k}.url = n.url)"
        )
    return (
        "WITH " + ", ".join(parts) + f" SELECT url, r AS rank_micro FROM r{iters} "
        f"ORDER BY rank_micro DESC, url ASC LIMIT {top}"
    )


def _jaccard_pairs_sql(shingle_cte: str, threshold_num: int, threshold_den: int) -> str:
    """Brute-force set-Jaccard self-join over a distinct (doc_id, s) shingle
    relation. Threshold check in exact integer arithmetic:
    i/(na+nb-i) >= num/den  ⟺  i*den >= num*(na+nb-i)."""
    return (
        f"WITH {shingle_cte}, "
        "d AS (SELECT DISTINCT doc_id, s FROM sh), "
        "sz AS (SELECT doc_id, COUNT(*) AS n FROM d GROUP BY doc_id), "
        "inter AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, COUNT(*) AS i "
        "FROM d a JOIN d b ON a.s = b.s AND a.doc_id < b.doc_id GROUP BY 1, 2) "
        "SELECT doc_a, doc_b, "
        "CAST(FLOOR(CAST(i AS DOUBLE)/(sa.n + sb.n - i)*1000000 + 0.5) AS BIGINT) AS jaccard_micro "
        "FROM inter JOIN sz sa ON sa.doc_id = doc_a JOIN sz sb ON sb.doc_id = doc_b "
        f"WHERE i * {threshold_den} >= {threshold_num} * (sa.n + sb.n - i)"
    )


_CHAR5_CTE = (
    "norm AS (SELECT doc_id, regexp_replace(trim(lower(text)), '\\s+', ' ', 'g') AS s0 "
    "FROM documents), "
    "sh AS (SELECT doc_id, unnest(CASE WHEN length(s0) < 5 THEN "
    "(CASE WHEN length(s0) > 0 THEN [s0] ELSE [] END) "
    "ELSE list_transform(range(1, length(s0) - 3), i -> substring(s0, CAST(i AS INT), 5)) END) AS s "
    "FROM norm)"
)

_WORD3_CTE = (
    "toks AS (SELECT doc_id, regexpt AS tk FROM (SELECT doc_id, "
    "regexp_extract_all(lower(text), '[a-z0-9]+') AS regexpt FROM documents)), "
    "sh AS (SELECT doc_id, unnest(CASE WHEN len(tk) < 3 THEN "
    "(CASE WHEN len(tk) > 0 THEN [array_to_string(tk, ' ')] ELSE [] END) "
    "ELSE list_transform(range(1, len(tk) - 1), i -> "
    "tk[CAST(i AS INT)] || ' ' || tk[CAST(i AS INT)+1] || ' ' || tk[CAST(i AS INT)+2]) END) AS s "
    "FROM toks)"
)


_RK_MOD = (1 << 61) - 1  # functions/text.py _RK_MOD
_DRIVER_SF01 = "/root/testdata/sf0.01"


def _fingerprint_sql() -> str:
    """Rabin-Karp winnowing fingerprint (functions/text.py
    rabin_karp_fingerprints k=16 keep=8) as pure SQL: per-window polynomial
    hash folded over HUGEINT char codes mod 2^61-1, keep the 8 smallest
    sorted ascending, comma-joined. ASCII corpora only (ascii()==byte)."""
    fold = (
        "CAST(list_reduce(list_transform(range(1, length(win) + 1), "
        "j -> CAST(ascii(substring(win, CAST(j AS INT), 1)) AS HUGEINT)), "
        f"(acc, x) -> (acc * 257 + x) % {_RK_MOD}) AS BIGINT)"
    )
    return (
        "WITH w AS (SELECT doc_id, unnest(CASE "
        "WHEN length(text) = 0 THEN [] "
        "WHEN length(text) <= 16 THEN [text] "
        "ELSE list_transform(range(1, length(text) - 14), "
        "i -> substring(text, CAST(i AS INT), 16)) END) AS win FROM documents), "
        f"h AS (SELECT doc_id, {fold} AS hv FROM w), "
        "agg AS (SELECT doc_id, array_to_string(list_transform("
        "list_sort(list(hv))[1:8], x -> CAST(x AS VARCHAR)), ',') AS fingerprint "
        "FROM h GROUP BY doc_id) "
        "SELECT d.doc_id, COALESCE(a.fingerprint, '') AS fingerprint "
        "FROM documents d LEFT JOIN agg a USING (doc_id)"
    )


def _event_candidates_sql(tok_expr_cte: str, windows: int = 5) -> str:
    """EventDetectionBolt windowed IDF-shift rule (stages/nlp.py
    candidate_events) with LAG chains: token present in 5 consecutive
    windows (by dense window index), IDF non-increasing oldest→newest,
    IDF-shift non-decreasing. ``tok_expr_cte`` must define
    tok(w, token) [distinct per doc] and nd(w, n)."""
    return (
        f"WITH {tok_expr_cte}, "
        "df AS (SELECT w, token, COUNT(*) AS df FROM tok GROUP BY 1, 2), "
        "wi AS (SELECT w, DENSE_RANK() OVER (ORDER BY w) AS wi FROM nd), "
        "idf AS (SELECT df.w, wi.wi, df.token, "
        "LOG10(CAST(nd.n AS DOUBLE)/df.df) AS idf "
        "FROM df JOIN nd USING (w) JOIN wi USING (w)), "
        "lagd AS (SELECT w, wi, token, idf, "
        "LAG(idf, 1) OVER win AS i1, LAG(idf, 2) OVER win AS i2, "
        "LAG(idf, 3) OVER win AS i3, LAG(idf, 4) OVER win AS i4, "
        "LAG(wi, 1) OVER win AS w1, LAG(wi, 2) OVER win AS w2, "
        "LAG(wi, 3) OVER win AS w3, LAG(wi, 4) OVER win AS w4 "
        "FROM idf WINDOW win AS (PARTITION BY token ORDER BY wi)) "
        'SELECT w AS "window", token FROM lagd '
        "WHERE w1 = wi - 1 AND w2 = wi - 2 AND w3 = wi - 3 AND w4 = wi - 4 "
        "AND idf <= i1 AND i1 <= i2 AND i2 <= i3 AND i3 <= i4 "
        "AND (i3 - i2)/i2 >= (i4 - i3)/i3 "
        "AND (i2 - i1)/i1 >= (i3 - i2)/i2 "
        "AND (i1 - idf)/idf >= (i2 - i1)/i1"
    )


def _values_list(mat) -> str:
    """numpy 2-D matrix → SQL VALUES rows of (idx, DOUBLE[])."""
    rows = []
    for i, row in enumerate(mat):
        arr = ",".join(repr(float(x)) for x in row)
        rows.append(f"({i}, [{arr}]::DOUBLE[])")
    return ", ".join(rows)


def _ann_ivf_sql(emb_path: str, nprobe: int = 4) -> str:
    """IVF top-k with the trained codebook INLINED as literals: the k-means
    training (stages/ann.train_centroids, deterministic seed) is setup, the
    relational probe/assign/top-k is the query. Mirrors ivf_topk defaults
    (nlist=16, nprobe=4, n_queries=5, k=10); ivf_partitioned_topk returns
    the identical result by construction. ``nprobe`` parametrizes the
    probe depth for the recall-curve oracle (queries_ml9)."""
    from ..stages.ann import train_centroids

    cent = train_centroids(emb_path, nlist=16)
    return (
        f"WITH cent(cid, c) AS (SELECT * FROM (VALUES {_values_list(cent)})), "
        f"v AS (SELECT vec_id, list_transform(embedding, x -> CAST(x AS DOUBLE)) AS e "
        f"FROM read_parquet('{emb_path}')), "
        "q AS (SELECT vec_id AS qid, e FROM v WHERE vec_id < 5), "
        "assign AS (SELECT vec_id, cid FROM ("
        "SELECT v.vec_id, cent.cid, list_cosine_similarity(v.e, cent.c) AS cs, "
        "ROW_NUMBER() OVER (PARTITION BY v.vec_id ORDER BY cs DESC, cid ASC) AS rn "
        "FROM v CROSS JOIN cent) WHERE rn = 1), "
        "probes AS (SELECT qid, cid FROM ("
        "SELECT q.qid, cent.cid, list_cosine_similarity(q.e, cent.c) AS cs, "
        "ROW_NUMBER() OVER (PARTITION BY q.qid ORDER BY cs DESC, cid ASC) AS rn "
        f"FROM q CROSS JOIN cent) WHERE rn <= {nprobe}), "
        "s AS (SELECT q.qid AS query_id, v.vec_id, "
        "CAST(FLOOR(list_cosine_similarity(q.e, v.e)*1000000 + 0.5) AS BIGINT) AS cos_micro "
        "FROM q JOIN probes p ON p.qid = q.qid "
        "JOIN assign a ON a.cid = p.cid JOIN v ON v.vec_id = a.vec_id "
        "WHERE v.vec_id != q.qid) "
        "SELECT query_id, vec_id, cos_micro FROM s "
        "QUALIFY ROW_NUMBER() OVER (PARTITION BY query_id "
        "ORDER BY cos_micro DESC, vec_id ASC) <= 10"
    )


def _ann_lsh_sql(emb_path: str) -> str:
    """Hyperplane-LSH top-k with the seeded planes INLINED (lsh_topk
    defaults: n_planes=32, bands=8 → 4 bits/band, seed=42). Candidate iff
    ≥1 band key equal; sign(dot) is normalization-invariant."""
    import numpy as np
    import pyarrow.parquet as pq

    d = len(pq.read_table(emb_path, columns=["embedding"])["embedding"][0])
    rng = np.random.default_rng(42)
    planes = rng.standard_normal((d, 32))  # (d, n_planes) — matches lsh_topk
    bits = [
        "(CASE WHEN list_inner_product(e, ["
        + ",".join(repr(float(x)) for x in planes[:, j])
        + "]::DOUBLE[]) > 0 THEN 1 ELSE 0 END)"
        for j in range(32)
    ]
    keys = [
        "(" + " + ".join(f"{1 << jj} * {bits[b * 4 + jj]}" for jj in range(4)) + ")"
        for b in range(8)
    ]
    key_list = "[" + ", ".join(keys) + "]"
    return (
        f"WITH v AS (SELECT vec_id, list_transform(embedding, x -> CAST(x AS DOUBLE)) AS e "
        f"FROM read_parquet('{emb_path}')), "
        f"sig AS (SELECT vec_id, e, {key_list} AS ks FROM v), "
        "bands AS (SELECT vec_id, unnest(ks) AS key, generate_subscripts(ks, 1) AS b FROM sig), "
        "q AS (SELECT vec_id AS qid, e FROM v WHERE vec_id < 5), "
        "qb AS (SELECT s.vec_id AS qid, b.key, b.b FROM sig s "
        "JOIN bands b ON b.vec_id = s.vec_id WHERE s.vec_id < 5), "
        "cand AS (SELECT DISTINCT qb.qid, bands.vec_id FROM qb "
        "JOIN bands ON bands.b = qb.b AND bands.key = qb.key "
        "WHERE bands.vec_id != qb.qid), "
        "s2 AS (SELECT c.qid AS query_id, c.vec_id, "
        "CAST(FLOOR(list_cosine_similarity(q.e, v.e)*1000000 + 0.5) AS BIGINT) AS cos_micro "
        "FROM cand c JOIN q ON q.qid = c.qid JOIN v ON v.vec_id = c.vec_id) "
        "SELECT query_id, vec_id, cos_micro FROM s2 "
        "QUALIFY ROW_NUMBER() OVER (PARTITION BY query_id "
        "ORDER BY cos_micro DESC, vec_id ASC) <= 10"
    )


def extended(name: str) -> str | None:
    """Oracle ``name`` from one :func:`build_extended_oracles` build over
    the small fixture tier (generated first if missing), memoized per
    fixture root and sf0.01 path: the build runs Ray jobs (ANN codebook
    training), so it runs once, and only when an extended oracle is asked
    for. ``None`` if that build has no ``name`` (its sf0.01 inputs are
    missing)."""
    from .. import cache
    from ..fixtures.generate import fixture_root

    def build() -> dict[str, str]:
        ensure_small_fixture()
        return build_extended_oracles()

    return cache.memo("extended_oracles", (fixture_root(), _DRIVER_SF01), build).get(name)


def build_extended_oracles() -> dict[str, str]:
    fdir = _fixture_small_dir()
    items = os.path.join(fdir, "items.parquet")
    urls = os.path.join(fdir, "urls.parquet")
    images = os.path.join(fdir, "images.parquet")
    items_rel = f"read_parquet('{items}')"

    sql: dict[str, str] = {}

    # pHash near-dup pairs — EXACT band semantics in SQL: candidate iff some
    # 16-bit band is equal (stages/image.phash_band_pairs N_BANDS=4,
    # BAND_BITS=16), kept iff full 64-bit Hamming ≤ 8. Arithmetic >> then
    # & 65535 extracts each band correctly for negative int64 phashes.
    _band_eq = " OR ".join(
        f"((a.phash >> {s}) & 65535) = ((b.phash >> {s}) & 65535)"
        for s in (0, 16, 32, 48)
    )
    sql["image_phash_pairs"] = (
        f"WITH im AS (SELECT image_id, phash FROM read_parquet('{images}')) "
        "SELECT a.image_id AS id_a, b.image_id AS id_b, "
        "CAST(bit_count(xor(a.phash, b.phash)) AS BIGINT) AS hamming "
        "FROM im a JOIN im b ON a.image_id < b.image_id "
        f"WHERE ({_band_eq}) AND bit_count(xor(a.phash, b.phash)) <= 8"
    )

    # connected-component clusters over the SAME band-blocked edge set as
    # image_phash_pairs, min-member-id labels (stages/image.cluster_images):
    # recursive min-label propagation — a (node, label) pair enters cc iff
    # label is a smaller-id node reachable from it, so MIN(label) per node
    # is the component minimum; singletons keep their own id via the seed
    # row. UNION (distinct) bounds the recursion to finite pairs.
    sql["image_clusters"] = (
        "WITH RECURSIVE "
        f"im AS (SELECT image_id, phash FROM read_parquet('{images}')), "
        "edges AS (SELECT a.image_id AS a, b.image_id AS b "
        "FROM im a JOIN im b ON a.image_id < b.image_id "
        f"WHERE ({_band_eq}) AND bit_count(xor(a.phash, b.phash)) <= 8), "
        "sym AS (SELECT a, b FROM edges UNION ALL SELECT b AS a, a AS b FROM edges), "
        "cc AS (SELECT image_id AS node, image_id AS label FROM im "
        "UNION "
        "SELECT s.b AS node, cc.label FROM cc JOIN sym s ON s.a = cc.node "
        "WHERE cc.label < s.b) "
        "SELECT node AS image_id, MIN(label) AS cluster_id FROM cc GROUP BY node"
    )

    # dual-hash agreement: both band joins replayed, the dHash side over
    # the SEQUENTIAL signature table (pins distributed == sequential)
    from .queries_media import dhash_signature_parquet

    _pair_set = (
        "SELECT a.image_id AS id_a, b.image_id AS id_b FROM {rel} a "
        "JOIN {rel} b ON a.image_id < b.image_id "
        f"WHERE ({_band_eq}) AND bit_count(xor(a.phash, b.phash)) <= 8"
    )
    sql["image_dhash_agreement"] = (
        "WITH pp AS ("
        + _pair_set.format(rel=f"read_parquet('{images}')")
        + "), dp AS ("
        + _pair_set.format(
            rel=f"read_parquet('{dhash_signature_parquet(fdir)}')"
        )
        + "), b AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM pp "
        "JOIN dp USING (id_a, id_b)), "
        "np AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM pp), "
        "nd AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM dp) "
        "SELECT np.n AS n_phash_pairs, nd.n AS n_dhash_pairs, "
        "b.n AS n_both, np.n + nd.n - b.n AS n_union, "
        "CASE WHEN np.n + nd.n - b.n = 0 THEN 0 ELSE "
        "b.n * 1000000 // (np.n + nd.n - b.n) END AS jaccard_micro "
        "FROM np CROSS JOIN nd CROSS JOIN b"
    )

    # image dedup eval: pair-counting precision/recall of the pHash
    # clusters vs the planted dupmap — composes the recursive
    # image_clusters CTE (nested WITH is valid in a subquery) with the
    # Rand contingency fold; C(n,2) from counts, never enumerated pairs
    dupmap = os.path.join(fdir, "images_dupmap.parquet")
    sql["image_dedup_eval"] = (
        f"WITH pred AS ({sql['image_clusters']}), "
        f"tm AS (SELECT image_id, dup_of AS t FROM read_parquet('{dupmap}')), "
        "lab AS (SELECT p.image_id, p.cluster_id AS pl, "
        "COALESCE(tm.t, p.image_id) AS tl FROM pred p "
        "LEFT JOIN tm USING (image_id)), "
        # HUGEINT products (int64 n·(n−1) wraps past ~4.3e9-member
        # clusters; the final BIGINT cast fails loudly, engine-matching)
        "pc AS (SELECT CAST(SUM(CAST(n AS HUGEINT) * (n - 1) // 2) AS BIGINT) "
        "AS s FROM (SELECT COUNT(*) AS n FROM lab GROUP BY pl)), "
        "tc AS (SELECT CAST(SUM(CAST(n AS HUGEINT) * (n - 1) // 2) AS BIGINT) "
        "AS s FROM (SELECT COUNT(*) AS n FROM lab GROUP BY tl)), "
        "bc AS (SELECT CAST(SUM(CAST(n AS HUGEINT) * (n - 1) // 2) AS BIGINT) "
        "AS s FROM (SELECT COUNT(*) AS n FROM lab GROUP BY pl, tl)) "
        "SELECT pc.s AS n_pairs_pred, tc.s AS n_pairs_truth, "
        "bc.s AS n_pairs_both, "
        "CASE WHEN pc.s = 0 THEN 0 ELSE bc.s * 1000000 // pc.s END "
        "AS precision_micro, "
        "CASE WHEN tc.s = 0 THEN 0 ELSE bc.s * 1000000 // tc.s END "
        "AS recall_micro "
        "FROM pc CROSS JOIN tc CROSS JOIN bc"
    )

    # pseudo-embedding near-dup pairs: BRUTE-FORCE cosine over the engine's
    # materialized pseudo-embedding table (same shape as the
    # embedding_dup_pairs oracle on the driver table). The embedding VALUES
    # are engine-produced (pixel codec → pseudo_embed, not SQL-expressible;
    # independently covered by image_decode_check + the brute-force pytest),
    # so this oracle checks the LSH-blocked pairing kernel end-to-end: any
    # recall loss or threshold drift diverges from the exhaustive join.
    from .queries_media import pseudo_embeddings_for_fixture

    pseudo = pseudo_embeddings_for_fixture(fdir)
    sql["image_topk_similar"] = (
        # exact cosine top-5 over the engine-materialized pseudo-embedding
        # table — same micro-quantized QUALIFY shape as embedding_top10
        f"WITH q AS (SELECT vec_id AS query_id, list_transform(embedding, x -> CAST(x AS DOUBLE)) AS qe "
        f"FROM read_parquet('{pseudo}') WHERE vec_id < 5), "
        f"v AS (SELECT vec_id, list_transform(embedding, x -> CAST(x AS DOUBLE)) AS ve "
        f"FROM read_parquet('{pseudo}')), "
        "s AS (SELECT q.query_id, v.vec_id, "
        "CAST(FLOOR(list_cosine_similarity(q.qe, v.ve)*1000000 + 0.5) AS BIGINT) AS cos_micro "
        "FROM q CROSS JOIN v WHERE v.vec_id != q.query_id) "
        "SELECT query_id, vec_id, cos_micro FROM s "
        "QUALIFY ROW_NUMBER() OVER (PARTITION BY query_id ORDER BY cos_micro DESC, vec_id ASC) <= 5"
    )
    sql["caption_token_counts"] = (
        f"WITH tok AS (SELECT image_id, unnest(regexp_extract_all(lower(caption), '[a-z0-9]+')) AS token "
        f"FROM read_parquet('{images}')) "
        "SELECT token, COUNT(*) AS tf, COUNT(DISTINCT image_id) AS df FROM tok GROUP BY token"
    )
    sql["image_embed_dup_pairs"] = (
        f"WITH v AS (SELECT vec_id, list_transform(embedding, x -> CAST(x AS DOUBLE)) AS e "
        f"FROM read_parquet('{pseudo}')) "
        "SELECT a.vec_id AS doc_a, b.vec_id AS doc_b FROM v a JOIN v b ON a.vec_id < b.vec_id "
        "WHERE list_cosine_similarity(a.e, b.e) >= 0.995"
    )

    # order-sensitive visual clustering AS SQL: the sequential replay's
    # semantics reduce to a nearest-EARLIER forest (each image attaches to
    # its best predecessor by micro-quantized cosine, ties → smallest id,
    # iff sim ≥ 0.75), then labels are the forest roots — expressible with
    # one QUALIFY top-1 over the id< self-join plus a recursive root walk.
    # Comparison domain caveat: DuckDB cosines are all-double while the
    # engine float32-normalizes first (visual_index module docstring); both
    # are micro-quantized before any decision, and the fixture verifies the
    # domains agree at every decision point (tests + this oracle's hash).
    sql["image_visual_clusters"] = (
        "WITH RECURSIVE "
        f"v AS (SELECT vec_id, list_transform(embedding, x -> CAST(x AS DOUBLE)) AS e "
        f"FROM read_parquet('{pseudo}')), "
        "s AS (SELECT a.vec_id AS id, b.vec_id AS prev, "
        "CAST(FLOOR(list_cosine_similarity(a.e, b.e)*1000000 + 0.5) AS BIGINT) AS sm "
        "FROM v a JOIN v b ON b.vec_id < a.vec_id), "
        "best AS (SELECT id, prev, sm FROM s "
        "QUALIFY ROW_NUMBER() OVER (PARTITION BY id ORDER BY sm DESC, prev ASC) = 1), "
        "par AS (SELECT id, prev FROM best WHERE sm >= 750000), "
        "lab AS (SELECT vec_id AS id, vec_id AS label FROM v "
        "WHERE vec_id NOT IN (SELECT id FROM par) "
        "UNION ALL "
        "SELECT p.id, lab.label FROM par p JOIN lab ON lab.id = p.prev) "
        "SELECT 'img' || lpad(CAST(id AS VARCHAR), 8, '0') AS image_id, "
        "'img' || lpad(CAST(label AS VARCHAR), 8, '0') AS cluster_id FROM lab"
    )

    # decode-invariant check: the fixture guarantees every image decodes,
    # matches its metadata (w/h/phash) and survives a lossy round-trip at
    # ≥ 40 dB — so the oracle is the all-TRUE relation; any Ray-side
    # decode/phash/codec drift flips a boolean and fails the hash compare
    sql["image_decode_check"] = (
        "SELECT image_id, fmt, TRUE AS decode_ok, TRUE AS w_ok, "
        "TRUE AS h_ok, TRUE AS phash_ok, TRUE AS psnr_ok "
        f"FROM read_parquet('{images}')"
    )

    # ItemsRankerBolt shares-score + bounded top-k (stages/nlp.items_ranked)
    sql["items_top100"] = (
        "SELECT id, CAST(FLOOR((1 - EXP(-0.05*shares) + 1)/2*1000000 + 0.5) AS BIGINT) AS score_micro "
        f"FROM {items_rel} ORDER BY score_micro DESC, id ASC LIMIT 100"
    )

    # ItemsCounterBolt tag counts (duplicate tags within an item count each)
    sql["items_tag_counts"] = (
        "SELECT tag, COUNT(*) AS n FROM "
        f"(SELECT unnest(tags) AS tag FROM {items_rel}) GROUP BY tag"
    )

    # Deserialization roundtrip: identity on valid rows (injected malformed
    # rows are dropped by the parser)
    sql["items_json_roundtrip"] = (
        f"SELECT id, title, user_id, CAST(shares AS BIGINT) AS shares FROM {items_rel}"
    )

    # MediaExtractionBolt regex dispatch
    sql["platform_media_extract"] = _platform_sql(urls)

    # language-ID stopword-profile argmax (first-profile-wins ties)
    sql["langid_detect"] = _langid_sql()

    # langid confusion matrix: gold label × the SAME spliced prediction SQL
    sql["langid_confusion"] = (
        "WITH p AS (" + _langid_sql() + ") "
        "SELECT d.lang, p.lang_pred, CAST(COUNT(*) AS BIGINT) AS n_docs "
        "FROM documents d JOIN p USING (doc_id) GROUP BY 1, 2"
    )

    # TokenizationBolt ALL + bigram shingles ('_' separator)
    sql["items_bigrams"] = (
        "WITH t AS (SELECT id, list_filter(list_transform("
        f"regexp_extract_all(title, '{_WORD_PAT}'), x -> lower(x)), "
        f"x -> NOT list_contains({_STOP_SQL}, x)) AS tk FROM {items_rel}) "
        "SELECT id, CASE WHEN len(tk) < 2 THEN '' ELSE array_to_string("
        "list_transform(range(1, len(tk)), i -> tk[CAST(i AS INT)] || '_' || tk[CAST(i AS INT)+1]), ' ') END AS tokens "
        "FROM t"
    )

    # TokenizationBolt NE mode: entity names lowered, deduped by
    # (type, lower(name)) keeping first-occurrence order
    sql["items_ne_tokens"] = (
        f"WITH m AS (SELECT id, unnest(regexp_extract_all(title, '{_ENT_PAT}')) AS mention, "
        f"generate_subscripts(regexp_extract_all(title, '{_ENT_PAT}'), 1) AS pos FROM {items_rel}), "
        "d AS (SELECT id, lower(split_part(mention, '_', 1)) AS tok, "
        "split_part(mention, '_', 2) AS typ, MIN(pos) AS p FROM m GROUP BY 1, 2, 3), "
        "agg AS (SELECT id, array_to_string(list(tok ORDER BY p), ' ') AS tokens FROM d GROUP BY id) "
        f"SELECT i.id, COALESCE(a.tokens, '') AS tokens FROM {items_rel} i LEFT JOIN agg a USING (id)"
    )

    # EntityExtractionBolt exploded (id, name, type, count, ord): dedupe by
    # (type, lower(name)), count mentions, ord = first-occurrence rank.
    # name = the FIRST mention's original casing (Python dict keeps the
    # first-inserted value for the key).
    sql["items_entities"] = (
        f"WITH m AS (SELECT id, unnest(regexp_extract_all(title, '{_ENT_PAT}')) AS mention, "
        f"generate_subscripts(regexp_extract_all(title, '{_ENT_PAT}'), 1) AS pos FROM {items_rel}), "
        "p AS (SELECT id, split_part(mention, '_', 1) AS name0, "
        "upper(split_part(mention, '_', 2)) AS type, lower(split_part(mention, '_', 1)) AS lname, pos FROM m), "
        "d AS (SELECT id, lname, \"type\", MIN(pos) AS p, COUNT(*) AS \"count\", "
        "MIN_BY(name0, pos) AS name FROM p GROUP BY 1, 2, 3) "
        "SELECT id, name, \"type\", CAST(\"count\" AS BIGINT) AS \"count\", "
        "CAST(ROW_NUMBER() OVER (PARTITION BY id ORDER BY p) - 1 AS BIGINT) AS ord FROM d"
    )

    # TokenizationBolt POS mode: 'word#tag' with the suffix-rule tagger
    sql["items_pos_tokens"] = (
        f"WITH w AS (SELECT id, unnest(regexp_extract_all(title, '{_WORD_PAT}')) AS w, "
        f"generate_subscripts(regexp_extract_all(title, '{_WORD_PAT}'), 1) AS pos FROM {items_rel}), "
        "f AS (SELECT id, pos, w, lower(w) AS lw FROM w "
        f"WHERE NOT list_contains({_STOP_SQL}, lower(w))), "
        f"tok AS (SELECT id, pos, lw || '#' || {_POS_CASE} AS t FROM f), "
        "agg AS (SELECT id, array_to_string(list(t ORDER BY pos), ' ') AS tokens FROM tok GROUP BY id) "
        f"SELECT i.id, COALESCE(a.tokens, '') AS tokens FROM {items_rel} i LEFT JOIN agg a USING (id)"
    )

    # brute-force set-similarity joins (exact truth the LSH pipelines must
    # reproduce — verify is exact, and banding recall is 1.0 on this corpus,
    # verified by tests/test_queries_oracle.py at the driver's scale)
    sql["minhash_dup_pairs"] = _jaccard_pairs_sql(_CHAR5_CTE, 1, 2)
    sql["ngram_jaccard_pairs"] = _jaccard_pairs_sql(_WORD3_CTE, 1, 2)
    # AllPairs prefix-filter join: candidates provably complete, so the
    # brute-force truth is the oracle at every scale
    sql["allpairs_jaccard"] = _jaccard_pairs_sql(_WORD3_CTE, 1, 2)

    # quality-score gate (functions/text.quality_features mirrored exactly:
    # integer counts, exact double ratios, multiplicative CASE chain)
    sql["doc_quality"] = _quality_sql("documents", "doc_id", "text")

    # language-interleaved quality curriculum: within-lang rank by
    # (quality desc, doc_id), then the merged order by (rank, lang) —
    # window functions replay the engine's broadcast-count arithmetic
    sql["curriculum_order"] = (
        f"WITH q AS ({sql['doc_quality']}), "
        "d AS (SELECT dd.doc_id, dd.lang, q.quality_micro "
        "FROM documents dd JOIN q ON q.doc_id = dd.doc_id), "
        "r AS (SELECT doc_id, lang, ROW_NUMBER() OVER "
        "(PARTITION BY lang ORDER BY quality_micro DESC, doc_id) AS lang_rank "
        "FROM d) "
        "SELECT doc_id, lang, lang_rank, ROW_NUMBER() OVER "
        "(ORDER BY lang_rank, lang) AS global_ord FROM r"
    )
    # the same gate over the multimodal table's caption column
    sql["caption_quality"] = _quality_sql(
        f"read_parquet('{images}')", "image_id", "caption"
    )

    # storage-format corpus profile over the input_hint table
    sql["image_format_stats"] = (
        "SELECT fmt, COUNT(*) AS n_images, "
        "CAST(SUM(octet_length(bytes)) AS BIGINT) AS total_bytes, "
        "CAST(SUM(CAST(w AS BIGINT)*h) AS BIGINT) AS total_pixels, "
        "CAST(SUM(length(caption)) AS BIGINT) AS caption_chars, "
        "CAST(MIN(w) AS BIGINT) AS min_w, CAST(MAX(w) AS BIGINT) AS max_w "
        f"FROM read_parquet('{images}') GROUP BY fmt"
    )

    # aspect-class × format histogram (4:3 gates, integer cross-multiply)
    sql["image_aspect_stats"] = (
        "SELECT CASE WHEN 3*CAST(w AS BIGINT) > 4*h THEN 'wide' "
        "WHEN 3*CAST(h AS BIGINT) > 4*w THEN 'tall' ELSE 'boxy' END AS aspect, "
        "fmt, COUNT(*) AS n_images, "
        "CAST(SUM(CAST(w AS BIGINT)*h) AS BIGINT) AS total_pixels "
        f"FROM read_parquet('{images}') GROUP BY 1, 2"
    )

    # exact-phash first-wins dedup groups (image-tier StatusCheckBolt gate)
    sql["image_phash_dup_groups"] = (
        "SELECT phash, COUNT(*) AS n_copies, MIN(image_id) AS keeper "
        f"FROM read_parquet('{images}') GROUP BY phash HAVING COUNT(*) > 1"
    )

    # end-to-end multimodal curation gate: first-wins phash dedup + pixel
    # floor + caption-quality keep (the corpus_filter_kept composite on the
    # image tier; constants imported so both sides move together)
    from .queries_media import CAPTION_KEEP_MICRO, MIN_PIXELS

    # page ↔ image cross-table join rollup (hosts in the fixture are clean
    # scheme://host/path, so split_part mirrors functions/urls.host_of)
    sql["page_image_join_stats"] = (
        f"WITH pi AS (SELECT lower(split_part(url, '/', 3)) AS host, "
        f"unnest(image_ids) AS image_id FROM read_parquet('{os.path.join(fdir, 'pages.parquet')}')), "
        f"j AS (SELECT host, CAST(i.w AS BIGINT)*i.h AS px "
        f"FROM pi JOIN read_parquet('{images}') i USING (image_id)) "
        "SELECT host, COUNT(*) AS n_images, CAST(SUM(px) AS BIGINT) AS total_pixels "
        "FROM j GROUP BY host"
    )

    # iterative integer PageRank over the fixture link graph
    from .queries_media import PR_ITERS, PR_TOP

    pages_path = os.path.join(fdir, "pages.parquet")
    sql["pagerank_top20"] = _pagerank_sql(pages_path, PR_ITERS, PR_TOP)

    # HITS hubs/authorities: HITS_ITERS unrolled iterations (DuckDB has no
    # aggregate-in-recursive-CTE), all-BIGINT with an L1 renormalization
    # per half-step — bit-identical to the engine's integer kernel
    from .queries_ml5 import HITS_ITERS, HITS_SCALE, HITS_TOP

    hits_parts = [
        f"nodes AS (SELECT url FROM read_parquet('{pages_path}'))",
        f"e0 AS (SELECT url AS src, unnest(out_links) AS dst "
        f"FROM read_parquet('{pages_path}'))",
        # multi-edges kept: a url listed twice flows mass twice (engine
        # keeps them too)
        "e AS (SELECT e0.src, e0.dst FROM e0 JOIN nodes n ON n.url = e0.dst)",
        f"h0 AS (SELECT url, CAST({HITS_SCALE} AS BIGINT) AS s FROM nodes)",
    ]
    prev_h = "h0"
    for k in range(1, HITS_ITERS + 1):
        hits_parts += [
            f"r{k}a AS (SELECT e.dst AS url, CAST(SUM(h.s) AS BIGINT) AS raw "
            f"FROM e JOIN {prev_h} h ON h.url = e.src GROUP BY e.dst)",
            f"t{k}a AS (SELECT CAST(SUM(raw) AS BIGINT) AS tot FROM r{k}a)",
            f"a{k} AS (SELECT url, raw * {HITS_SCALE} // tot AS s "
            f"FROM r{k}a, t{k}a)",
            f"r{k}h AS (SELECT e.src AS url, CAST(SUM(a.s) AS BIGINT) AS raw "
            f"FROM e JOIN a{k} a ON a.url = e.dst GROUP BY e.src)",
            f"t{k}h AS (SELECT CAST(SUM(raw) AS BIGINT) AS tot FROM r{k}h)",
            f"h{k} AS (SELECT url, raw * {HITS_SCALE} // tot AS s "
            f"FROM r{k}h, t{k}h)",
        ]
        prev_h = f"h{k}"
    sql["hits_top20"] = (
        "WITH " + ", ".join(hits_parts) + " "
        f"SELECT n.url, CAST(COALESCE(a{HITS_ITERS}.s, 0) AS BIGINT) AS auth_micro, "
        f"CAST(COALESCE(h{HITS_ITERS}.s, 0) AS BIGINT) AS hub_micro "
        f"FROM nodes n LEFT JOIN a{HITS_ITERS} ON a{HITS_ITERS}.url = n.url "
        f"LEFT JOIN h{HITS_ITERS} ON h{HITS_ITERS}.url = n.url "
        f"ORDER BY auth_micro DESC, n.url ASC LIMIT {HITS_TOP}"
    )

    # BFS min-hop from the seed frontier over the internal link graph,
    # depth-capped (queries_ml5.HOP_MAX) — recursive CTE; the UNION dedup
    # bounds (url, hop) pairs so cycles terminate
    from .queries_ml5 import HOP_MAX

    seeds_path = os.path.join(fdir, "frontier_seed.parquet")
    sql["seed_hop_distance"] = (
        "WITH RECURSIVE "
        f"p AS (SELECT url, out_links FROM read_parquet('{pages_path}')), "
        "e0 AS (SELECT url AS src, unnest(out_links) AS dst FROM p), "
        "e AS (SELECT DISTINCT e0.src, e0.dst FROM e0 "
        "JOIN p p2 ON p2.url = e0.dst), "
        "s AS (SELECT DISTINCT f.url FROM "
        f"read_parquet('{seeds_path}') f JOIN p ON p.url = f.url), "
        "bfs AS (SELECT url, 0 AS hop FROM s "
        "UNION SELECT e.dst AS url, bfs.hop + 1 AS hop "
        f"FROM bfs JOIN e ON e.src = bfs.url WHERE bfs.hop < {HOP_MAX}) "
        "SELECT url, CAST(MIN(hop) AS BIGINT) AS hop FROM bfs GROUP BY url"
    )

    images_rel = f"read_parquet('{images}')"
    sql["multimodal_filter_kept"] = (
        f"WITH q AS ({_quality_sql(images_rel, 'image_id', 'caption')}), "
        f"k AS (SELECT phash, MIN(image_id) AS keeper FROM {images_rel} GROUP BY phash) "
        f"SELECT i.image_id, i.fmt, q.quality_micro FROM {images_rel} i "
        "JOIN k ON k.phash = i.phash AND k.keeper = i.image_id "
        "JOIN q ON q.image_id = i.image_id "
        f"WHERE CAST(i.w AS BIGINT)*i.h >= {MIN_PIXELS} "
        f"AND q.quality_micro >= {CAPTION_KEEP_MICRO}"
    )

    # thumbnail signatures: the expected table comes from the SEQUENTIAL
    # single-process codec path (thumbnail_signature_parquet) — equality
    # proves the distributed actor-pool pipeline reproduces the reference
    # bytes (r3 'Next round' #7: flipped from no_oracle)
    from .queries_media import thumbnail_signature_parquet

    sql["image_thumbnails"] = (
        "SELECT image_id, thumb_hash, mean_r_x100, mean_g_x100, mean_b_x100 "
        f"FROM read_parquet('{thumbnail_signature_parquet(fdir)}')"
    )

    # blur/sharpness gate — same sequential-signature discipline (the
    # arithmetic is one shared integer kernel; the comparison pins the
    # distributed actor-pool plumbing)
    from .queries_media import blur_signature_parquet

    sql["image_blur_scores"] = (
        "SELECT image_id, n_interior, lap_var_micro "
        f"FROM read_parquet('{blur_signature_parquet(fdir)}')"
    )

    from .queries_media import exposure_signature_parquet

    sql["image_exposure_stats"] = (
        "SELECT image_id, n_pixels, dark_ppm, bright_ppm "
        f"FROM read_parquet('{exposure_signature_parquet(fdir)}')"
    )

    from .queries_media import _junk_gate_sql

    sql["image_junk_gate"] = _junk_gate_sql(fdir)

    # grayscale / flat-color gate — sequential-signature discipline with
    # the module thresholds replayed in SQL (pins gate logic + plumbing)
    from .queries_media import (
        FLAT_MIN_PPM,
        GRAY_MAX_CHROMA_MICRO,
        color_signature_parquet,
    )

    sql["image_color_stats"] = (
        "SELECT image_id, n_pixels, chroma_mean_micro, dominant_bin, "
        "dominant_ppm, "
        f"chroma_mean_micro < {GRAY_MAX_CHROMA_MICRO} AS is_gray, "
        f"dominant_ppm > {FLAT_MIN_PPM} AS is_flat "
        f"FROM read_parquet('{color_signature_parquet(fdir)}')"
    )

    # embedding signatures: same discipline as image_thumbnails — the
    # expected table comes from the SEQUENTIAL single-process codec +
    # pseudo_embed path (embed_signature_parquet); equality proves the
    # distributed actor-pool embed stage reproduces the float32 bytes
    # bit-for-bit (r4 'Next round' #2: flipped from no_oracle)
    from .queries_media import embed_signature_parquet

    sql["image_embed"] = (
        "SELECT image_id, emb_hash, e0_micro, norm_ppm "
        f"FROM read_parquet('{embed_signature_parquet(fdir)}')"
    )

    # audio / video payload stages: same sequential-signature discipline —
    # the expected tables come from the no-Ray stdlib-WAV / RVID1 decode
    # loops (audio_signature_parquet / video_signature_parquet); equality
    # proves the distributed actor-pool stages (batching, actor state,
    # exploded flat-map output) reproduce the reference decode exactly
    from .queries_media import audio_signature_parquet, video_signature_parquet

    sql["audio_clip_stats"] = (
        "SELECT clip_id, sr, n_samples, rms, peak, zero_cross "
        f"FROM read_parquet('{audio_signature_parquet(fdir)}')"
    )
    sql["video_frame_stats"] = (
        "SELECT video_id, frame_idx, frame_hash, mean_lum_milli "
        f"FROM read_parquet('{video_signature_parquet(fdir)}')"
    )

    # scene cuts: window lag over the same SEQUENTIAL signature table —
    # the v3 fixture's planted gap (within-scene delta exactly 5000 milli,
    # cut delta ≥ 91000) makes the 48000 threshold exact, not tuned
    from .queries_media import VIDEO_CUT_THRESH_MILLI

    sql["video_scene_cuts"] = (
        "WITH s AS (SELECT video_id, mean_lum_milli - lag(mean_lum_milli) "
        "OVER (PARTITION BY video_id ORDER BY frame_idx) AS dl "
        f"FROM read_parquet('{video_signature_parquet(fdir)}')) "
        "SELECT video_id, "
        f"CAST(count(*) FILTER (abs(dl) >= {VIDEO_CUT_THRESH_MILLI}) AS BIGINT) "
        "AS n_cuts, CAST(count(*) AS BIGINT) AS n_sampled "
        "FROM s GROUP BY video_id"
    )

    # video near-dup pairs: brute-force Jaccard self-join over the same
    # SEQUENTIAL signature table (fixture plants verbatim-re-encode and
    # prefix-truncation dups); threshold check in exact integer arithmetic
    sql["video_dup_pairs"] = (
        "WITH s AS (SELECT DISTINCT video_id, frame_hash "
        f"FROM read_parquet('{video_signature_parquet(fdir)}')), "
        "sz AS (SELECT video_id, COUNT(*) AS n FROM s GROUP BY 1), "
        "inter AS (SELECT a.video_id AS video_a, b.video_id AS video_b, "
        "COUNT(*) AS i FROM s a JOIN s b ON a.frame_hash = b.frame_hash "
        "AND a.video_id < b.video_id GROUP BY 1, 2) "
        "SELECT video_a, video_b, "
        "CAST(FLOOR(CAST(i AS DOUBLE)/(sa.n + sb.n - i)*1000000 + 0.5) AS BIGINT) "
        "AS jaccard_micro FROM inter "
        "JOIN sz sa ON sa.video_id = video_a "
        "JOIN sz sb ON sb.video_id = video_b "
        "WHERE i * 2 >= sa.n + sb.n - i"
    )

    # caption–image alignment: DuckDB replays the integer dot + per-char
    # normalization + gate over the ENGINE-materialized shifted-micro
    # embeds (pixel decode is not SQL-expressible; same discipline as the
    # simhash signature oracle). Caption histogram is fully SQL-side:
    # 64-bin code-point counts via string_split + ascii.
    from .queries_media import (
        ALIGN_DIM,
        CAPTION_ALIGN_PPM,
        alignment_embeds_for_fixture,
    )

    aemb = alignment_embeds_for_fixture(fdir)
    _align_core = (
        f"e AS (SELECT image_id, img_mic FROM read_parquet('{aemb}')), "
        # the WHERE drops the [''] an empty caption splits into (a char
        # split of non-empty text never yields empty elements)
        f"ch AS (SELECT image_id, c FROM (SELECT image_id, "
        f"unnest(string_split(caption, '')) AS c FROM {images_rel}) "
        "WHERE c <> ''), "
        f"cap AS (SELECT image_id, ascii(c) % {ALIGN_DIM} AS bin, "
        "CAST(COUNT(*) AS BIGINT) AS cnt FROM ch GROUP BY 1, 2), "
        "j AS (SELECT e.image_id, "
        "CAST(SUM(e.img_mic[cap.bin + 1] * cap.cnt) AS BIGINT) AS dot, "
        "CAST(SUM(cap.cnt) AS BIGINT) AS total "
        "FROM e JOIN cap USING (image_id) GROUP BY 1), "
        f"a AS (SELECT i.image_id, CASE WHEN j.total IS NULL OR j.total = 0 "
        "THEN 0 ELSE j.dot // j.total END AS align_ppm "
        f"FROM {images_rel} i LEFT JOIN j USING (image_id))"
    )
    sql["caption_image_alignment"] = (
        f"WITH {_align_core} "
        "SELECT image_id, align_ppm, "
        f"CAST(align_ppm >= {CAPTION_ALIGN_PPM} AS BIGINT) AS aligned FROM a"
    )
    sql["multimodal_filter_aligned"] = (
        f"WITH k AS ({sql['multimodal_filter_kept']}), {_align_core} "
        "SELECT k.image_id, k.fmt, k.quality_micro, a.align_ppm "
        "FROM k JOIN a USING (image_id) "
        f"WHERE a.align_ppm >= {CAPTION_ALIGN_PPM}"
    )

    # image curation funnel: every threshold replayed over the signature
    # tables + the alignment CTE + the MIN-per-phash keeper; decode_ok is
    # SQL-TRUE (the fixture all-decode invariant — an engine decode
    # failure shows up as a count mismatch)
    from .queries_media import (
        FLAT_MIN_PPM as _FLAT,
    )
    from .queries_media import (
        GRAY_MAX_CHROMA_MICRO as _GRAY,
    )
    from .queries_media import (
        JUNK_BLUR_MIN_MICRO,
        JUNK_BRIGHT_MAX_PPM,
        JUNK_DARK_MAX_PPM,
    )

    _fun_junk = (
        f"(b.n_interior <> 0 AND b.lap_var_micro >= {JUNK_BLUR_MIN_MICRO} "
        f"AND e.dark_ppm <= {JUNK_DARK_MAX_PPM} "
        f"AND e.bright_ppm <= {JUNK_BRIGHT_MAX_PPM})"
    )
    _fun_color = (
        f"(c.chroma_mean_micro >= {_GRAY} AND c.dominant_ppm <= {_FLAT})"
    )
    sql["image_curation_funnel"] = (
        f"WITH al AS ({sql['caption_image_alignment']}), "
        f"k AS (SELECT phash, MIN(image_id) AS keeper FROM {images_rel} "
        "GROUP BY phash), "
        f"f AS (SELECT i.image_id, {_fun_junk} AS junk_ok, "
        f"{_fun_color} AS color_ok, k.keeper = i.image_id AS is_rep, "
        f"al.align_ppm >= {CAPTION_ALIGN_PPM} AS align_ok "
        f"FROM {images_rel} i "
        f"JOIN read_parquet('{blur_signature_parquet(fdir)}') b USING (image_id) "
        f"JOIN read_parquet('{exposure_signature_parquet(fdir)}') e USING (image_id) "
        f"JOIN read_parquet('{color_signature_parquet(fdir)}') c USING (image_id) "
        "JOIN k ON k.phash = i.phash JOIN al USING (image_id)) "
        "SELECT CAST(COUNT(*) AS BIGINT) AS n_images, "
        "CAST(COUNT(*) AS BIGINT) AS n_decode_ok, "
        "CAST(SUM(CASE WHEN junk_ok THEN 1 ELSE 0 END) AS BIGINT) "
        "AS n_pass_junk, "
        "CAST(SUM(CASE WHEN junk_ok AND color_ok THEN 1 ELSE 0 END) "
        "AS BIGINT) AS n_pass_color, "
        "CAST(SUM(CASE WHEN junk_ok AND color_ok AND is_rep THEN 1 ELSE 0 "
        "END) AS BIGINT) AS n_dedup_rep, "
        "CAST(SUM(CASE WHEN junk_ok AND color_ok AND is_rep AND align_ok "
        "THEN 1 ELSE 0 END) AS BIGINT) AS n_aligned FROM f"
    )

    # aspect-ratio bucketing: fixed training AR set, integer argmin with
    # list-order ties (the Ray side's np.argmin first-min)
    from .queries_media import AR_BUCKETS

    _ar_vals = ", ".join(
        f"({i}, {w}, {h})" for i, (w, h) in enumerate(AR_BUCKETS)
    )
    sql["image_ar_buckets"] = (
        f"WITH b(i, bw, bh) AS (VALUES {_ar_vals}), "
        "a AS (SELECT image_id, CAST(w AS BIGINT)*1000000//h AS ar_ppm "
        f"FROM {images_rel}), "
        "j AS (SELECT a.image_id, a.ar_ppm, "
        "CAST(b.bw AS BIGINT) AS bucket_w, CAST(b.bh AS BIGINT) AS bucket_h, "
        "abs(a.ar_ppm - CAST(b.bw AS BIGINT)*1000000//b.bh) AS d, b.i "
        "FROM a CROSS JOIN b) "
        "SELECT image_id, ar_ppm, bucket_w, bucket_h FROM j "
        "QUALIFY ROW_NUMBER() OVER (PARTITION BY image_id ORDER BY d, i) = 1"
    )

    # vision-token cost rollup: same argmin bucket assignment as
    # image_ar_buckets, bucket → fixed train dims → patch-grid token sum
    from .queries_ml5 import AR_TARGET_DIMS, VIT_PATCH

    _tc_vals = ", ".join(
        f"({i}, {bw}, {bh}, {tw}, {th})"
        for i, ((bw, bh), (tw, th)) in enumerate(zip(AR_BUCKETS, AR_TARGET_DIMS))
    )
    sql["image_token_cost"] = (
        f"WITH b(i, bw, bh, tw, th) AS (VALUES {_tc_vals}), "
        "a AS (SELECT image_id, caption, CAST(w AS BIGINT)*1000000//h AS ar_ppm "
        f"FROM {images_rel}), "
        "j AS (SELECT a.image_id, a.caption, b.i, "
        "CAST(b.bw AS BIGINT) AS bucket_w, CAST(b.bh AS BIGINT) AS bucket_h, "
        "CAST(b.tw AS BIGINT) AS tw, CAST(b.th AS BIGINT) AS th, "
        "abs(a.ar_ppm - CAST(b.bw AS BIGINT)*1000000//b.bh) AS d "
        "FROM a CROSS JOIN b), "
        "p AS (SELECT * FROM j "
        "QUALIFY ROW_NUMBER() OVER (PARTITION BY image_id ORDER BY d, i) = 1) "
        "SELECT bucket_w, bucket_h, CAST(COUNT(*) AS BIGINT) AS n_images, "
        f"CAST(SUM((tw//{VIT_PATCH})*(th//{VIT_PATCH}) + 1) AS BIGINT) "
        "AS vision_tokens, "
        "CAST(SUM(len(regexp_extract_all(lower(caption), '[a-z0-9]+'))) "
        "AS BIGINT) AS caption_tokens "
        "FROM p GROUP BY 1, 2"
    )

    # multimodal sequence packing: bucket argmin + token pricing (the
    # image_token_cost fragments) feeding the recursive next-fit placement
    # replay (the doc_pack_sequences oracle shape, partitioned by bucket)
    from .queries_ml4 import PACK_MULT as _mm_mult_src
    from .queries_ml5 import MM_CONTEXT_LEN, MM_PACK_SHARDS

    _mm_l = MM_CONTEXT_LEN
    _mm_shards = MM_PACK_SHARDS
    _mm_mult = _mm_mult_src
    sql["image_pack_batches"] = (
        f"WITH RECURSIVE b(i, bw, bh, tw, th) AS (VALUES {_tc_vals}), "
        "a AS (SELECT image_id, caption, CAST(w AS BIGINT)*1000000//h AS ar_ppm "
        f"FROM {images_rel}), "
        "j AS (SELECT a.image_id, a.caption, b.i, "
        "CAST(b.bw AS BIGINT) AS bucket_w, CAST(b.bh AS BIGINT) AS bucket_h, "
        "CAST(b.tw AS BIGINT) AS tw, CAST(b.th AS BIGINT) AS th, "
        "abs(a.ar_ppm - CAST(b.bw AS BIGINT)*1000000//b.bh) AS d "
        "FROM a CROSS JOIN b), "
        "p AS (SELECT * FROM j "
        "QUALIFY ROW_NUMBER() OVER (PARTITION BY image_id ORDER BY d, i) = 1), "
        "base AS (SELECT i AS bi, "
        f"CAST((CAST(substr(image_id, 4) AS BIGINT) * {_mm_mult}) "
        f"% 4294967296 % {_mm_shards} AS BIGINT) AS shard, "
        "image_id, bucket_w, bucket_h, "
        f"(tw//{VIT_PATCH})*(th//{VIT_PATCH}) + 1 + "
        "CAST(len(regexp_extract_all(lower(caption), '[a-z0-9]+')) AS BIGINT) "
        "AS n_tokens FROM p), "
        "base2 AS (SELECT *, ROW_NUMBER() OVER "
        "(PARTITION BY bi, shard ORDER BY image_id) AS rn FROM base), "
        "packed AS ("
        "SELECT bi, shard, rn, image_id, bucket_w, bucket_h, n_tokens, "
        "CAST(0 AS BIGINT) AS seq_id, CAST(0 AS BIGINT) AS off_tokens, "
        "n_tokens AS used FROM base2 WHERE rn = 1 "
        "UNION ALL "
        "SELECT b2.bi, b2.shard, b2.rn, b2.image_id, b2.bucket_w, "
        "b2.bucket_h, b2.n_tokens, "
        f"CASE WHEN p2.used + b2.n_tokens > {_mm_l} THEN p2.seq_id + 1 ELSE p2.seq_id END, "
        f"CASE WHEN p2.used + b2.n_tokens > {_mm_l} THEN 0 ELSE p2.used END, "
        f"CASE WHEN p2.used + b2.n_tokens > {_mm_l} THEN b2.n_tokens "
        "ELSE p2.used + b2.n_tokens END "
        "FROM base2 b2 JOIN packed p2 ON b2.bi = p2.bi AND b2.shard = p2.shard "
        "AND b2.rn = p2.rn + 1) "
        "SELECT image_id, bucket_w, bucket_h, shard, n_tokens, seq_id, "
        "off_tokens FROM packed"
    )



    # cross-modal retrieval: 5 query captions (alphabetically-first image
    # ids) ranked against every image's materialized shifted-micro embed
    from .queries_media import XMODAL_K, XMODAL_QUERIES

    sql["caption_to_image_topk"] = (
        f"WITH e AS (SELECT image_id, img_mic FROM read_parquet('{aemb}')), "
        f"q AS (SELECT image_id AS qid, caption FROM {images_rel} "
        f"ORDER BY image_id LIMIT {XMODAL_QUERIES}), "
        "qch AS (SELECT qid, c FROM (SELECT qid, "
        "unnest(string_split(caption, '')) AS c FROM q) WHERE c <> ''), "
        f"qcap AS (SELECT qid, ascii(c) % {ALIGN_DIM} AS bin, "
        "CAST(COUNT(*) AS BIGINT) AS cnt FROM qch GROUP BY 1, 2), "
        "dots AS (SELECT qc.qid, e.image_id, "
        "CAST(SUM(e.img_mic[qc.bin + 1] * qc.cnt) AS BIGINT) AS dot "
        "FROM qcap qc JOIN e ON true GROUP BY 1, 2), "
        "ranked AS (SELECT qid, image_id, dot, ROW_NUMBER() OVER "
        "(PARTITION BY qid ORDER BY dot DESC, image_id) AS rnk FROM dots) "
        f"SELECT qid, image_id, rnk AS \"rank\", dot FROM ranked WHERE rnk <= {XMODAL_K}"
    )

    # cross-modal recall@k eval: dot/rank/recall arithmetic replayed over
    # the materialized shifted-micro embeds; the rank of the true item is
    # the exact ROW_NUMBER under (dot desc, image_id asc), identical to
    # the engine's 1 + better-than count
    from .queries_media import XRECALL_KS, XRECALL_QUERIES

    _ks_vals = ", ".join(f"({k})" for k in XRECALL_KS)
    sql["crossmodal_recall"] = (
        f"WITH e AS (SELECT image_id, img_mic FROM read_parquet('{aemb}')), "
        f"q AS (SELECT image_id AS qid FROM {images_rel} "
        f"ORDER BY image_id LIMIT {XRECALL_QUERIES}), "
        "ch AS (SELECT image_id, c FROM (SELECT image_id, "
        f"unnest(string_split(caption, '')) AS c FROM {images_rel}) "
        "WHERE c <> ''), "
        f"cap AS (SELECT image_id, ascii(c) % {ALIGN_DIM} AS bin, "
        "CAST(COUNT(*) AS BIGINT) AS cnt FROM ch GROUP BY 1, 2), "
        "qcap AS (SELECT q.qid, cap.bin, cap.cnt FROM q "
        "JOIN cap ON cap.image_id = q.qid), "
        "qe AS (SELECT q.qid, e.img_mic FROM q JOIN e ON e.image_id = q.qid), "
        # caption→image: query caption hist vs every image embed (LEFT
        # JOIN keeps empty-caption queries as all-zero dots)
        "d1 AS (SELECT q.qid, e.image_id, "
        "CAST(COALESCE(SUM(e.img_mic[qc.bin + 1] * qc.cnt), 0) AS BIGINT) AS dot "
        "FROM q CROSS JOIN e LEFT JOIN qcap qc ON qc.qid = q.qid "
        "GROUP BY 1, 2), "
        # image→caption: query image embed vs every caption hist (LEFT
        # JOIN keeps empty-caption corpus rows as zero dots)
        "d2 AS (SELECT qe.qid, i.image_id, "
        "CAST(COALESCE(SUM(qe.img_mic[cap.bin + 1] * cap.cnt), 0) AS BIGINT) AS dot "
        f"FROM qe CROSS JOIN {images_rel} i "
        "LEFT JOIN cap ON cap.image_id = i.image_id GROUP BY 1, 2), "
        "r1 AS (SELECT qid, image_id, ROW_NUMBER() OVER "
        "(PARTITION BY qid ORDER BY dot DESC, image_id) AS rnk FROM d1), "
        "r2 AS (SELECT qid, image_id, ROW_NUMBER() OVER "
        "(PARTITION BY qid ORDER BY dot DESC, image_id) AS rnk FROM d2), "
        "g AS (SELECT 'cap2img' AS direction, qid, rnk FROM r1 "
        "WHERE image_id = qid UNION ALL "
        "SELECT 'img2cap' AS direction, qid, rnk FROM r2 WHERE image_id = qid), "
        f"ks(k) AS (VALUES {_ks_vals}) "
        "SELECT g.direction, CAST(ks.k AS BIGINT) AS k, "
        "CAST(COUNT(*) AS BIGINT) AS n_queries, "
        "CAST(COUNT(*) FILTER (g.rnk <= ks.k) AS BIGINT) AS n_hits, "
        "CAST(COUNT(*) FILTER (g.rnk <= ks.k) AS BIGINT) * 1000000 "
        "// CAST(COUNT(*) AS BIGINT) AS recall_micro "
        "FROM g CROSS JOIN ks GROUP BY 1, 2"
    )


    # inverted-index postings for the 5 alphabetically-first corpus tokens
    # (TextIndexerBolt analogue; engine reads only the probed buckets)
    sql["token_postings"] = (
        "WITH tok AS (SELECT doc_id, unnest(list_distinct("
        "regexp_extract_all(lower(text), '[a-z0-9]+'))) AS token FROM documents), "
        "probes AS (SELECT DISTINCT token FROM tok ORDER BY token LIMIT 5) "
        "SELECT t.token, t.doc_id FROM tok t JOIN probes p USING (token)"
    )

    # embedding-cosine near-dup brute force (threshold 0.95)
    sql["embedding_dup_pairs"] = (
        "WITH v AS (SELECT vec_id, list_transform(embedding, x -> CAST(x AS DOUBLE)) AS e FROM embeddings) "
        "SELECT a.vec_id AS doc_a, b.vec_id AS doc_b FROM v a JOIN v b ON a.vec_id < b.vec_id "
        "WHERE list_cosine_similarity(a.e, b.e) >= 0.95"
    )

    # Rabin-Karp winnowing fingerprints (pure-SQL polynomial fold)
    sql["doc_fingerprints"] = _fingerprint_sql()

    # EventDetection IDF-shift candidates — documents (window = doc_id//50)
    sql["event_candidates"] = _event_candidates_sql(
        "tok AS (SELECT CAST(FLOOR(doc_id/50.0) AS BIGINT) AS w, "
        "unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9]+'))) AS token "
        "FROM documents), "
        "nd AS (SELECT CAST(FLOOR(doc_id/50.0) AS BIGINT) AS w, COUNT(*) AS n "
        "FROM documents GROUP BY 1)"
    )
    # EventDetection over fixture items (60 s windows; tokenize = WORD_RE
    # lower + stopword drop, distinct per title)
    items_tok = (
        "tok AS (SELECT w, unnest(list_distinct(tk)) AS token FROM ("
        "SELECT CAST(FLOOR(epoch_ms(ts)/60000.0) AS BIGINT) AS w, "
        f"list_filter(list_transform(regexp_extract_all(title, '{_WORD_PAT}'), "
        f"x -> lower(x)), x -> NOT list_contains({_STOP_SQL}, x)) AS tk "
        f"FROM {items_rel})), "
        "nd AS (SELECT CAST(FLOOR(epoch_ms(ts)/60000.0) AS BIGINT) AS w, "
        f"COUNT(*) AS n FROM {items_rel} GROUP BY 1)"
    )
    sql["items_event_candidates"] = _event_candidates_sql(items_tok)

    # ANN oracles with inlined deterministic constants, pinned to the
    # driver's correctness scale (sf0.01) via absolute path — the codebook /
    # plane set is a function of that table
    emb01 = os.path.join(_DRIVER_SF01, "embeddings.parquet")
    if os.path.exists(emb01):
        sql["ann_ivf_top10"] = _ann_ivf_sql(emb01)
        sql["ann_ivf_partitioned_top10"] = sql["ann_ivf_top10"]
        sql["ann_lsh_top10"] = _ann_lsh_sql(emb01)

    # SimHash pairing oracle over the engine-materialized signature table at
    # the driver scale (blake2b is not SQL-expressible; the 4×16-bit band
    # blocking + Hamming≤3 verify IS — pigeonhole makes banding lossless, so
    # the exhaustive self-join is the exact expected output)
    if os.path.exists(os.path.join(_DRIVER_SF01, "documents.parquet")):
        from .queries import simhash_parquet_for

        sp = simhash_parquet_for(_DRIVER_SF01)
        sql["simhash_dup_pairs"] = (
            f"WITH s AS (SELECT doc_id, simhash FROM read_parquet('{sp}')) "
            "SELECT a.doc_id AS doc_a, b.doc_id AS doc_b "
            "FROM s a JOIN s b ON a.doc_id < b.doc_id "
            "WHERE bit_count(xor(a.simhash, b.simhash)) <= 3"
        )

        # simhash_docs itself: expected signatures from the SEQUENTIAL
        # independently-coded bit-vote loop (r4 flip from [rows], the
        # image_thumbnails signature-table discipline)
        from .queries_ml5 import simhash_reference_parquet

        srp = simhash_reference_parquet(_DRIVER_SF01)
        sql["simhash_docs"] = (
            f"SELECT doc_id, simhash FROM read_parquet('{srp}')"
        )

    # end-to-end corpus-curation keep decision, composed from the same
    # oracle fragments the individual queries are checked against: quality
    # gate + near-dup-cluster rep keep + 8-gram decontamination. The dup /
    # contam subqueries carry their own (recursive) WITH scopes.
    from .queries import ORACLE_SQL as _base_sql
    from .queries import QUALITY_KEEP_MICRO as _qk

    # keep-BEST dedup canonicalization: per cluster, max quality, tie min id
    sql["dup_cluster_best_rep"] = (
        f"WITH c AS ({_base_sql['dup_clusters']}), q AS ({sql['doc_quality']}) "
        "SELECT cluster_rep, doc_id AS best_doc, quality_micro FROM ("
        "SELECT c.cluster_rep, c.doc_id, q.quality_micro, "
        "ROW_NUMBER() OVER (PARTITION BY c.cluster_rep "
        "ORDER BY q.quality_micro DESC, c.doc_id ASC) AS rn "
        "FROM c JOIN q USING (doc_id)) WHERE rn = 1"
    )

    # percentile-threshold outlier filter (exact P99 per type, same integer
    # rank rule as event_value_quantiles: smallest v with cum ≥ ceil(q·n))
    from .queries import OUTLIER_PCT

    sql["event_value_outliers"] = (
        "WITH e AS (SELECT event_id, event_type, "
        "CAST(FLOOR(value*100 + 0.5) AS BIGINT) AS cents FROM events), "
        "h AS (SELECT event_type, cents, COUNT(*) AS c FROM e GROUP BY 1, 2), "
        "w AS (SELECT event_type, cents, "
        "SUM(c) OVER (PARTITION BY event_type ORDER BY cents) AS cum, "
        f"({OUTLIER_PCT} * SUM(c) OVER (PARTITION BY event_type) + 99) // 100 AS need "
        "FROM h), "
        "t AS (SELECT event_type, MIN(CASE WHEN cum >= need THEN cents END) AS p "
        "FROM w GROUP BY 1) "
        "SELECT e.event_id, e.event_type, e.cents FROM e "
        "JOIN t USING (event_type) WHERE e.cents > t.p"
    )

    sql["corpus_filter_kept"] = (
        f"WITH q AS ({sql['doc_quality']}), l AS ({_langid_sql()}), "
        f"dropn AS (SELECT doc_id FROM ({_base_sql['dup_clusters']}) "
        "WHERE doc_id <> cluster_rep), "
        f"cont AS (SELECT doc_id FROM ({_base_sql['decontam_8gram_hits']})) "
        "SELECT q.doc_id, l.lang_pred, q.quality_micro "
        "FROM q JOIN l ON l.doc_id = q.doc_id "
        f"WHERE q.quality_micro >= {_qk} "
        "AND q.doc_id NOT IN (SELECT doc_id FROM dropn) "
        "AND q.doc_id NOT IN (SELECT doc_id FROM cont)"
    )

    # the end-to-end training-data build manifest: kept docs → split →
    # chunks → next-fit packing keyed by (split, part) — every fragment
    # spliced from the SQL the component queries are checked against
    from .queries_ml3 import SPLIT_MULT, SPLIT_TRAIN_PCT, SPLIT_VAL_PCT
    from .queries_ml4 import PACK_CONTEXT_LEN, PACK_MULT, PACK_PARTS

    _L = PACK_CONTEXT_LEN
    sql["curated_pack_manifest"] = (
        "WITH RECURSIVE "
        # MATERIALIZED is load-bearing: without it DuckDB re-inlines these
        # CTEs into every iteration of the packing recursion, re-running
        # the dup-clusters transitive closure per rn level (observed: the
        # un-hinted query runs minutes, the hinted one ~1 s)
        f"kept AS MATERIALIZED (SELECT doc_id FROM ({sql['corpus_filter_kept']})), "
        f"ch AS (SELECT c.* FROM ({_base_sql['doc_chunks']}) c "
        "JOIN kept USING (doc_id)), "
        "base AS MATERIALIZED (SELECT split, part, doc_id, chunk_idx, n_chunk_tokens, "
        "ROW_NUMBER() OVER (PARTITION BY split, part "
        "ORDER BY doc_id, chunk_idx) AS rn FROM ("
        f"SELECT CASE WHEN (doc_id * {SPLIT_MULT}) % 4294967296 % 100 "
        f"< {SPLIT_TRAIN_PCT} THEN 'train' "
        f"WHEN (doc_id * {SPLIT_MULT}) % 4294967296 % 100 "
        f"< {SPLIT_VAL_PCT} THEN 'val' ELSE 'test' END AS split, "
        f"CAST((doc_id * {PACK_MULT}) % 4294967296 % {PACK_PARTS} AS BIGINT) "
        "AS part, doc_id, chunk_idx, n_chunk_tokens FROM ch)), "
        "packed AS ("
        "SELECT split, part, rn, doc_id, chunk_idx, n_chunk_tokens, "
        "CAST(0 AS BIGINT) AS seq_id, CAST(0 AS BIGINT) AS off_tokens, "
        "n_chunk_tokens AS used FROM base WHERE rn = 1 "
        "UNION ALL "
        "SELECT b.split, b.part, b.rn, b.doc_id, b.chunk_idx, b.n_chunk_tokens, "
        f"CASE WHEN p.used + b.n_chunk_tokens > {_L} THEN p.seq_id + 1 ELSE p.seq_id END, "
        f"CASE WHEN p.used + b.n_chunk_tokens > {_L} THEN 0 ELSE p.used END, "
        f"CASE WHEN p.used + b.n_chunk_tokens > {_L} THEN b.n_chunk_tokens "
        "ELSE p.used + b.n_chunk_tokens END "
        "FROM base b JOIN packed p ON b.split = p.split AND b.part = p.part "
        "AND b.rn = p.rn + 1) "
        "SELECT split, part, doc_id, chunk_idx, n_chunk_tokens, seq_id, "
        "off_tokens FROM packed"
    )

    # per-stage curation funnel, composed from the SAME oracle fragments
    # the individual gate queries are checked against (+ the pii stage)
    from .queries_ml4 import _pii_sql

    sql["curation_funnel"] = (
        f"WITH q AS ({sql['doc_quality']}), "
        f"dropn AS (SELECT doc_id FROM ({_base_sql['dup_clusters']}) "
        "WHERE doc_id <> cluster_rep), "
        f"cont AS (SELECT doc_id FROM ({_base_sql['decontam_8gram_hits']})), "
        f"pii AS (SELECT doc_id, n_redactions FROM ({_pii_sql()})), "
        "tok AS (SELECT doc_id, len(regexp_extract_all(lower(text), "
        "'[a-z0-9]+')) AS nt FROM documents), "
        f"f AS (SELECT q.doc_id, q.quality_micro >= {_qk} AS s1, "
        "q.doc_id NOT IN (SELECT doc_id FROM dropn) AS d1, "
        "q.doc_id NOT IN (SELECT doc_id FROM cont) AS c1, "
        "pii.n_redactions AS nr, tok.nt "
        "FROM q JOIN pii USING (doc_id) JOIN tok USING (doc_id)) "
        "SELECT CAST(COUNT(*) AS BIGINT) AS n_docs, "
        "CAST(SUM(CASE WHEN s1 THEN 1 ELSE 0 END) AS BIGINT) AS n_quality_keep, "
        "CAST(SUM(CASE WHEN s1 AND d1 THEN 1 ELSE 0 END) AS BIGINT) AS n_after_dedup, "
        "CAST(SUM(CASE WHEN s1 AND d1 AND c1 THEN 1 ELSE 0 END) AS BIGINT) AS n_kept, "
        "CAST(SUM(CASE WHEN s1 AND d1 AND c1 AND nr = 0 THEN 1 ELSE 0 END) "
        "AS BIGINT) AS n_pii_clean_kept, "
        "CAST(SUM(CASE WHEN s1 AND d1 AND c1 THEN nt ELSE 0 END) AS BIGINT) "
        "AS kept_tokens FROM f"
    )

    # ANN recall@10 — the builder trains the IVF codebook (a Ray Data job,
    # memoized with the ann_ivf oracles above), so it MUST live on this
    # lazy oracle_sql() path, never in an import-time registry (a Ray job
    # at module import deadlocks workers re-importing the module to
    # unpickle UDFs)
    emb01_r = os.path.join(_DRIVER_SF01, "embeddings.parquet")
    if os.path.exists(emb01_r):
        from .queries_ml9 import _ann_recall_curve_sql, _ann_recall_sql

        sql["ann_recall_at10"] = _ann_recall_sql(emb01_r)
        sql["ann_recall_curve"] = _ann_recall_curve_sql(emb01_r)

    return sql
