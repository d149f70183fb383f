"""mklab_focused_crawler_ray — a from-scratch Ray-Data-native rebuild of the
query/data-processing capabilities of MKLab-ITI/mklab-focused-crawler.

Reference (read-only, for semantics only): /root/reference — an Apache Storm
topology (Java). This package re-expresses every operator as idiomatic Ray
Data: ``ray.data.Dataset`` pipelines, ``map_batches`` over zero-copy Arrow
batches, actor pools for stateful stages, explicit partitioning for the
shuffle-shaped state (URL frontier, seen-set, near-dup index).

Layout:
  fixtures/   deterministic synthetic corpus (images+captions, frontier, pages)
  functions/  pure vectorized kernels (scores, hashes, tokenizers, url utils)
  state/      sharded mutable state (frontier actors, cuckoo gate, politeness)
  sources/    table readers (Lance-or-Parquet)
  stages/     Dataset stage callables (expand, fetch, extract, decode, embed,
              dedup, ann, text ops)
  pipelines/  end-to-end drivers (crawl round loop, oracle, testdata queries)
"""

__version__ = "0.1.0"
