"""Driver contract for the graft builder (Ray Data target).

The driver calls ``ray.init(...)`` itself BEFORE importing this module:
nothing here (or in the library code these call) invokes ``ray.init`` /
``ray.shutdown``.

- ``entry()``        — flagship document-processing pipeline on sf0.001
- ``queries()``      — one callable per implemented operator/pipeline
                       (SURVEY.md §2 + training-data additions)
- ``oracle_sql()``   — DuckDB-equivalent SQL for every SQL-expressible query
                       (column names match exactly; float outputs are
                       integer micro/cent units computed with identical
                       expressions on both sides)
"""

from __future__ import annotations

import sys
import os
from collections.abc import Callable
from typing import Any

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: documents → language-ID +
    quality features + token counts + SimHash fingerprint, one streaming
    Dataset (read → chained vectorized map_batches)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from mklab_focused_crawler_ray.functions.hashing import simhash64, token_hashes
    from mklab_focused_crawler_ray.functions.text import (
        count_tokens_bpeish,
        count_tokens_ws_arrow,
        lang_quality_batch,
    )
    from mklab_focused_crawler_ray.pipelines.queries import TOKEN_RE

    def enrich(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        # whitespace token count is a pure Arrow kernel; langid + quality are
        # the vectorized batch kernel (one WORD_RE pass per doc, numpy/Arrow
        # for all scoring — bit-identical to the per-row heuristics, pinned
        # by tests/test_text_batch.py); only the BPE-ish regex count and the
        # simhash token pass remain per-doc C regex calls
        nws = count_tokens_ws_arrow(batch["text"])
        lq = lang_quality_batch(texts)
        nbpe = [count_tokens_bpeish(t) for t in texts]
        thl = [token_hashes(TOKEN_RE.findall(t.lower())) for t in texts]
        sims = simhash64(thl).view(np.int64)
        return (
            batch.append_column("lang_pred", pa.array(lq["lang"].tolist(), pa.string()))
            .append_column("quality", pa.array(lq["quality"], pa.float64()))
            .append_column("n_words", pa.array(lq["n_words"], pa.int64()))
            .append_column("n_ws_tokens", nws)
            .append_column("n_bpe_tokens", pa.array(nbpe, pa.int64()))
            .append_column("simhash", pa.array(sims, pa.int64()))
        )

    ds = rd.read_parquet(
        "/root/testdata/sf0.001/documents.parquet",
        columns=["doc_id", "text", "lang", "source"],
    ).map_batches(enrich, batch_format="pyarrow", batch_size=1024)
    return ds


def queries() -> dict[str, Callable[[str], Any]]:
    from mklab_focused_crawler_ray.pipelines.queries import QUERIES

    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    from mklab_focused_crawler_ray.pipelines import registry

    # builders that read fixture tables generate them first (idempotent)
    reg = registry.load()
    built = {name: reg.sql(name) for name in reg.checked()}
    return {name: text for name, text in built.items() if text is not None}
