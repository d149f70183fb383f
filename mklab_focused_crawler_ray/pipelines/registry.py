"""The query registry: each driver-facing query states its name, its
DuckDB oracle and its tier once, on the function that computes it::

    @query("lang_counts", "SELECT lang, COUNT(*) AS n FROM documents GROUP BY lang")
    def q_lang_counts(sf_dir: str): ...

``oracle`` is the oracle's SQL, or a zero-argument function that builds
it; a builder runs only when its SQL is asked for, so it may read the
registry (an oracle that splices another) or the fixture tables. It is
``None`` only for a rows-only query. ``small=True`` says the oracle reads
the sf0.01 ('small') fixture tier, or constants trained there, so the
query is checked at sf0.01 whatever tier is asked for.

``REGISTRY`` holds every query; ``query`` is its decorator. :func:`load`
imports the query modules (``queries`` imports the rest), so it returns
the filled registry. ``queries.ORACLE_SQL`` and
``oracles_ext.build_extended_oracles`` are the two views of the oracles
that the benchmark reads.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterator, Mapping
from functools import partial
from typing import Any, Union

from .oracles_ext import extended

# the driver's correctness scale; small-tier queries are checked here
SMALL_SF = "/root/testdata/sf0.01"
TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()

Oracle = Union[str, Callable[[], Union[str, None]], None]


class Registry:
    """Queries by name, each with its oracle and its tier."""

    def __init__(self) -> None:
        self.queries: dict[str, Callable[[str], Any]] = {}
        self.oracles: dict[str, Oracle] = {}
        self.small: set[str] = set()

    def query(self, name: str, oracle: Oracle = None, *, small: bool = False):
        """Register the decorated function as query ``name``; the function
        is returned unchanged."""

        def register(fn: Callable[[str], Any]) -> Callable[[str], Any]:
            if name in self.queries:
                raise ValueError(
                    f"query {name!r} registered twice: {self.queries[name].__qualname__} "
                    f"and {fn.__qualname__}"
                )
            self.queries[name] = fn
            self.oracles[name] = oracle
            if small:
                self.small.add(name)
            return fn

        return register

    def checked(self) -> list[str]:
        """The names of every query with an oracle, sorted. Builds nothing."""
        return sorted(name for name, oracle in self.oracles.items() if oracle is not None)

    def sql(self, name: str) -> str | None:
        """The oracle SQL of query ``name``, built if it has a builder."""
        oracle = self.oracles[name]
        return oracle() if callable(oracle) else oracle

    def tier(self, name: str, sf_dir: str) -> str:
        """The tier query ``name`` is checked at when ``sf_dir`` is asked for."""
        return SMALL_SF if name in self.small else sf_dir

    def check(self, name: str, sf_dir: str) -> int:
        """Run query ``name`` and its DuckDB oracle over the same tier's
        tables and raise AssertionError unless the two frames are equal,
        dtypes included, after sorting the columns by name and the rows by
        every column. The tier is :meth:`tier`. Returns the row count; the
        caller owns the Ray session."""
        import duckdb
        import pandas as pd

        def canon(df: pd.DataFrame) -> pd.DataFrame:
            df = df[sorted(df.columns)]
            return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)

        text = self.sql(name)
        if text is None:
            raise KeyError(f"{name} has no oracle")
        sf = self.tier(name, sf_dir)
        res = self.queries[name](sf)
        got = canon(res.to_pandas() if hasattr(res, "to_pandas") else res)
        con = duckdb.connect()
        try:
            for t in TABLES:
                con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')")
            want = canon(con.execute(text).fetchdf())
        finally:
            con.close()
        if got.shape != want.shape or list(got.columns) != list(want.columns):
            raise AssertionError(
                f"shape {got.shape}{list(got.columns)} vs {want.shape}{list(want.columns)}"
            )
        pd.testing.assert_frame_equal(got, want, check_dtype=True)
        return len(got)


REGISTRY = Registry()
query = REGISTRY.query


def load() -> Registry:
    """:data:`REGISTRY` with every query module imported."""
    from . import queries  # noqa: F401  (importing it imports every query module)

    return REGISTRY


def small_table(table: str) -> str:
    """Absolute path of one table of the small fixture tier, which the
    fixture-path oracles read (generated on first use)."""
    from .queries_media import fixture_dir_for

    return os.path.join(fixture_dir_for(SMALL_SF), f"{table}.parquet")


class OracleView(Mapping[str, str]):
    """Name → SQL of every oracle in ``registry`` except the extended ones
    (``oracles_ext``), each built when it is looked up."""

    def __init__(self, registry: Registry) -> None:
        self.registry = registry

    def __contains__(self, name: object) -> bool:
        oracle = self.registry.oracles.get(name)  # type: ignore[call-overload]
        return oracle is not None and not (isinstance(oracle, partial) and oracle.func is extended)

    def __getitem__(self, name: str) -> str:
        if name not in self:
            raise KeyError(name)
        return self.registry.sql(name)

    def __iter__(self) -> Iterator[str]:
        return (name for name in list(self.registry.oracles) if name in self)

    def __len__(self) -> int:
        return sum(1 for _ in self)
