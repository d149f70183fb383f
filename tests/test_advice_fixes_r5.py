"""Planted regressions for two clustering / retrieval eval edge cases:

- ``kmeans_nmi``: when floor-rounded MI goes negative (near-independent
  clusterings), the oracle must floor the NMI quotient like Python does,
  not truncate it toward zero.
- ``ann_matryoshka_recall``: an all-zero truncated prefix must score
  cosine 0 on both engine and oracle instead of NaN.
"""

from __future__ import annotations

import os

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

# contingency (centroid, label) → count with floor-rounded MI = −1 micro:
# NMI = floor(2·(−1)·10⁶ / 556418) = −4, a truncating division gives −3
NEG_MI_CELLS = [(0, 0, 181), (0, 1, 90), (1, 0, 341), (1, 1, 170)]


def _embeddings_for_cells(cells) -> pa.Table:
    """Embeddings whose k-means E-step reproduces ``cells`` exactly:
    cluster 1's members are e1, everything else is e0, and centroids
    2..7 duplicate e0 so the (cos desc, centroid asc) tie-break sends
    their members — and themselves — to centroid 0."""
    e0 = [1.0, 0.0, 0.0, 0.0]
    e1 = [0.0, 1.0, 0.0, 0.0]
    members = {
        c: [lab for (cc, lab, n) in cells if cc == c for _ in range(n)]
        for c in (0, 1)
    }
    vec_ids, embs, labels = [], [], []
    # vec 1 is centroid 1 and must be a cluster-1 member; the other
    # centroid ids 0, 2..7 are cluster-0 members
    order = [0] + [1] + [0] * (len(members[0]) + len(members[1]) - 2)
    taken = {0: 0, 1: 0}
    for vid, c in enumerate(order):
        if c == 0 and taken[0] >= len(members[0]):
            c = 1
        vec_ids.append(vid)
        embs.append(e1 if c == 1 else e0)
        labels.append(members[c][taken[c]])
        taken[c] += 1
    return pa.table(
        {
            "vec_id": pa.array(vec_ids, pa.int64()),
            "embedding": pa.array(embs, pa.list_(pa.float32())),
            "label": pa.array(labels, pa.int32()),
        }
    )


def test_kmeans_nmi_oracle_floors_negative_mi():
    from mklab_focused_crawler_ray.pipelines.queries_ml9 import (
        _kmeans_nmi_sql,
        _nmi_row,
    )

    cells = pd.DataFrame(NEG_MI_CELLS, columns=["centroid_id", "label", "cnt"])
    want = _nmi_row(cells).to_pydict()
    assert want["mi_micro"] == [-1] and want["nmi_micro"] == [-4]

    con = duckdb.connect()
    emb = _embeddings_for_cells(NEG_MI_CELLS)
    con.register("embeddings", emb)
    got = con.sql(_kmeans_nmi_sql()).fetchdf()
    assert int(got["n_vecs"].iloc[0]) == sum(n for *_, n in NEG_MI_CELLS)
    for col in want:
        assert int(got[col].iloc[0]) == want[col][0], col


def _ref_top10(emb: np.ndarray, qids: np.ndarray) -> set:
    """Brute-force (query, vec) top-10 under (cos_micro desc, vec_id asc)
    with the zero-norm rule: a zero row has cosine 0 with everything."""
    norm = np.linalg.norm(emb, axis=1, keepdims=True)
    unit = emb / np.where(norm == 0, 1.0, norm)
    cm = np.floor(unit @ unit[qids].T * 1_000_000.0 + 0.5).astype(np.int64)
    ids = np.arange(len(emb))
    out = set()
    for qi, q in enumerate(qids):
        m = ids != q
        vv, cc = ids[m], cm[m, qi]
        out |= {(int(q), int(v)) for v in vv[np.lexsort((vv, -cc))[:10]]}
    return out


def test_matryoshka_zero_prefix_matches_oracle(ray_session, tmp_path):
    from mklab_focused_crawler_ray.pipelines.queries import N_QUERIES
    from mklab_focused_crawler_ray.pipelines.queries_ml9 import (
        MRL_DIM,
        _matryoshka_sql,
        q_ann_matryoshka_recall,
    )

    # queries point along +u in the prefix, the corpus along -u, so every
    # corpus cosine is strongly negative — except vec 17, whose prefix is
    # all zero: its cosine 0 puts it in every truncated top-10 (and its
    # large tail puts it in every full top-10). NaN scoring would instead
    # rank it last and cost each query one hit.
    rng = np.random.default_rng(7)
    u = rng.normal(size=MRL_DIM)
    emb = rng.normal(size=(40, 64)) * 0.05
    emb[:N_QUERIES, :MRL_DIM] += u
    emb[N_QUERIES:, :MRL_DIM] -= u
    emb[17, :MRL_DIM] = 0.0
    emb[17, MRL_DIM:] = rng.normal(size=64 - MRL_DIM)
    emb = emb.astype(np.float32)
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(np.arange(40), pa.int64()),
                "embedding": pa.array(emb.tolist(), pa.list_(pa.float32())),
                "label": pa.array(np.zeros(40, np.int32)),
            }
        ),
        os.path.join(tmp_path, "embeddings.parquet"),
    )
    qids = np.arange(N_QUERIES)
    e64 = emb.astype(np.float64)
    full = _ref_top10(e64, qids)
    trunc = _ref_top10(e64[:, :MRL_DIM], qids)
    assert all((int(q), 17) in trunc and (int(q), 17) in full for q in qids)
    ref_hits = [len({p for p in trunc if p[0] == q} & full) for q in qids]

    got = q_ann_matryoshka_recall(str(tmp_path)).to_pandas()
    got = got.sort_values("query_id")
    con = duckdb.connect()
    con.sql(
        "CREATE VIEW embeddings AS SELECT * FROM read_parquet('"
        + os.path.join(tmp_path, "embeddings.parquet")
        + "')"
    )
    want = con.sql(_matryoshka_sql()).fetchdf().sort_values("query_id")
    assert got["query_id"].tolist() == qids.tolist()
    assert got["n_hits"].tolist() == ref_hits
    assert want["n_hits"].astype(np.int64).tolist() == ref_hits
    assert (
        got["recall_micro"].tolist()
        == want["recall_micro"].astype(np.int64).tolist()
    )
