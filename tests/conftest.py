import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def pytest_configure(config):
    # Ray's own DataContext setup (ray/data/context.py) still assigns these
    # two deprecated fields; no repo code touches them. Filter exactly those
    # two messages so warnings from this code base stand out.
    for msg in (
        "`use_push_based_shuffle` is deprecated",
        "`use_polars` is deprecated",
    ):
        config.addinivalue_line(
            "filterwarnings", f"ignore:{msg}:DeprecationWarning"
        )


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def tiny_fixture(tmp_path_factory):
    from mklab_focused_crawler_ray.fixtures.generate import generate_tier

    d = str(tmp_path_factory.mktemp("fix") / "tiny")
    generate_tier("tiny", d)
    return d


@pytest.fixture(scope="session")
def tiny_tables(tiny_fixture):
    import pyarrow.parquet as pq

    names = [
        "images",
        "images_dupmap",
        "urls",
        "frontier_seed",
        "pages",
        "redirects",
        "robots",
        "items",
    ]
    return {n: pq.read_table(os.path.join(tiny_fixture, f"{n}.parquet")) for n in names}
