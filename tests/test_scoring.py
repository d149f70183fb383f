"""Ranker score kernels (functions/scoring.py)."""

import numpy as np
import pytest

from mklab_focused_crawler_ray.functions.scoring import pubtime_score, webpage_score


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_future_dated_pages_saturate_to_inf_without_warning():
    now = 1_700_000_000_000
    day = 86_400_000
    pub = np.array([now - 600_000, now, now + day, now + 10 * day], np.int64)
    s = pubtime_score(now, pub)
    assert s[0] == (np.exp(-1.0) + 1.0) / 2.0 and s[1] == 1.0
    assert np.isfinite(s[2]) and np.isinf(s[3])
    w = webpage_score(np.array([0, 5, 5, 5]), pub, now)
    assert np.isinf(w[3]) and (w[:3] > 0).all()
