"""Focused-relevance scoring — vectorized NumPy ports of the reference's
ranker formulas.

Reference semantics (bolts/webpages/RankerBolt.java:78-92, avgTimeDiff=10 min
at :30; bolts/media/MediaRankerBolt.java:38-50; bolts/items/ItemsRankerBolt.java:39-51):

    sharesScore  = (1 - e^(-0.05 * shares) + 1) / 2            # in [0.5, 1)
    pubTimeScore = (e^(-(now - publicationTime)/600000) + 1)/2  # in (0.5, 1]
    score        = sharesScore * pubTimeScore

These are pure ``map_batches`` kernels; the priority ordering the reference
got from an in-memory PriorityQueue (RankerBolt.java:44-53) becomes a
deterministic sort key ``(score desc, url asc)`` applied per crawl round.
"""

from __future__ import annotations

import numpy as np

AVG_TIME_DIFF_MS = 10 * 60 * 1000  # RankerBolt.java:30 (10 minutes)
SHARES_LAMBDA = 0.05  # RankerBolt.java:80


def shares_score(shares: np.ndarray) -> np.ndarray:
    """(1 - e^(-0.05*shares) + 1) / 2 — RankerBolt.java:78-82."""
    s = np.asarray(shares, dtype=np.float64)
    return (1.0 - np.exp(-SHARES_LAMBDA * s) + 1.0) / 2.0


def pubtime_score(now_ms: int, pub_ms: np.ndarray) -> np.ndarray:
    """(e^(-(now-pub)/600000) + 1) / 2 — RankerBolt.java:84-89.

    ``now_ms`` must be an explicit argument (no wall clock in kernels) so the
    score is reproducible and oracle-comparable. A page published more than
    ~5 days after ``now_ms`` saturates to +inf (``exp`` overflows float64);
    those pages tie and fall to the crawl order's url tie-break.
    """
    age = now_ms - np.asarray(pub_ms, dtype=np.float64)
    with np.errstate(over="ignore"):
        return (np.exp(-age / AVG_TIME_DIFF_MS) + 1.0) / 2.0


def webpage_score(shares: np.ndarray, pub_ms: np.ndarray, now_ms: int) -> np.ndarray:
    """Combined ranker score — RankerBolt.java:91."""
    return shares_score(shares) * pubtime_score(now_ms, pub_ms)
