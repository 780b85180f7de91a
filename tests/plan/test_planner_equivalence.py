"""Planned execution is the legacy evaluator, observably.

Every engine still carries its pre-planner single-pass evaluator behind
``use_planner=False``; this suite treats it as the differential oracle
and asserts the compile -> optimize -> execute pipeline returns **row-
and order-identical** results on all four engines, serially and through
the sharding ``Exchange`` -- over the same randomized worlds the
index-differential harness trusts (:mod:`tests.test_differential_index`).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    ChorelEngine,
    IndexedChorelEngine,
    LorelEngine,
    ParallelExecutor,
    TranslatingChorelEngine,
    TranslationError,
)
from tests.chorel.oracle_translate import TranslatingOracle
from tests.test_differential_index import make_world, world_queries

LOREL_QUERIES = [
    "select root.item",
    "select X, N from root.item X, X.name N",
    "select root.item where root.item.price < 500",
    "select X from root.link X",
    "select root.#.name",
    'select X from root.item X where X.name like "%a%"',
]

RELAXED = settings(max_examples=8, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


def texts(result) -> list[str]:
    """Rows as strings, in engine order -- order identity is asserted."""
    return [str(row) for row in result]


def outcome(engine, query):
    """(rows, error-type) so translation failures compare symmetrically."""
    try:
        return texts(engine.run(query)), None
    except TranslationError as error:
        return None, type(error).__name__


class TestSerialEquivalence:
    @given(seed=st.integers(min_value=0, max_value=99))
    @RELAXED
    def test_chorel_native_and_indexed(self, seed):
        _, history, doem = make_world(seed)
        queries = world_queries(history)
        for engine_cls in (ChorelEngine, IndexedChorelEngine):
            planned = engine_cls(doem, name="root")
            legacy = engine_cls(doem, name="root", use_planner=False)
            for query in queries:
                assert texts(planned.run(query)) == \
                    texts(legacy.run(query)), (engine_cls.__name__, query)

    @given(seed=st.integers(min_value=0, max_value=99))
    @RELAXED
    def test_translating(self, seed):
        _, history, doem = make_world(seed)
        planned = TranslatingChorelEngine(doem, name="root")
        legacy = TranslatingOracle(doem, name="root")
        for query in world_queries(history):
            assert outcome(planned, query) == outcome(legacy, query), query

    @given(seed=st.integers(min_value=0, max_value=99))
    @RELAXED
    def test_lorel(self, seed):
        db, _, _ = make_world(seed)
        planned = LorelEngine(db, name="root")
        legacy = LorelEngine(db, name="root", use_planner=False)
        for query in LOREL_QUERIES:
            assert texts(planned.run(query)) == \
                texts(legacy.run(query)), query

    def test_indexed_pushdown_still_fires_under_planner(self):
        _, history, doem = make_world(7)
        engine = IndexedChorelEngine(doem, name="root")
        for query in world_queries(history):
            engine.run(query)
        assert engine.stats.indexed_queries > 0
        assert engine.stats.fallback_queries > 0


class TestShardedEquivalence:
    """The Exchange operator replays serial enumeration exactly."""

    @given(seed=st.integers(min_value=0, max_value=99),
           workers=st.integers(min_value=2, max_value=4))
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_chorel_sharded_matches_legacy_serial(self, seed, workers):
        _, history, doem = make_world(seed)
        queries = world_queries(history)
        for engine_cls in (ChorelEngine, IndexedChorelEngine):
            planned = engine_cls(doem, name="root")
            legacy = engine_cls(doem, name="root", use_planner=False)
            with ParallelExecutor(planned, max_workers=workers) as executor:
                for query in queries:
                    assert texts(executor.run(query)) == \
                        texts(legacy.run(query)), (engine_cls.__name__, query)

    @given(seed=st.integers(min_value=0, max_value=99))
    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_lorel_sharded_matches_legacy_serial(self, seed):
        db, _, _ = make_world(seed)
        planned = LorelEngine(db, name="root")
        legacy = LorelEngine(db, name="root", use_planner=False)
        with ParallelExecutor(planned, max_workers=3) as executor:
            for query in LOREL_QUERIES:
                assert texts(executor.run(query)) == \
                    texts(legacy.run(query)), query

    @pytest.mark.parametrize("seed", [0, 5, 13])
    def test_translating_sharded(self, seed):
        _, history, doem = make_world(seed)
        planned = TranslatingChorelEngine(doem, name="root")
        legacy = TranslatingOracle(doem, name="root")
        queries = [query for query in world_queries(history)
                   if outcome(legacy, query)[1] is None]
        with ParallelExecutor(planned, max_workers=3) as executor:
            for query in queries:
                assert texts(executor.run(query)) == \
                    texts(legacy.run(query)), query
