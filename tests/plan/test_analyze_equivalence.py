"""ANALYZE observes; it must not perturb.

The property this suite pins: for every engine, serial or sharded
on a thread pool, ``run(query, analyze=True)`` returns rows
**identical and identically ordered** to the uninstrumented run -- and
the collected stats tree is internally consistent (each attached
parent's ``rows_in`` equals its child's ``rows_out``, predicate tallies
cover every judged row).  Randomized worlds come from the same generator
the index-differential harness trusts.
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
)
from tests.plan.test_analyze import children_of, rows_by_op
from tests.plan.test_planner_equivalence import (
    LOREL_QUERIES,
    RELAXED,
    outcome,
    texts,
)
from tests.test_differential_index import make_world, world_queries

CHOREL_ENGINES = (ChorelEngine, IndexedChorelEngine)


def check_stats(engine, query) -> None:
    """The internal-consistency invariants on a collected stats tree."""
    stats = engine.last_compiled.runtime
    assert stats is not None, (type(engine).__name__, query)
    for parent, child in children_of(stats):
        assert parent.rows_in == child.rows_out, \
            (type(engine).__name__, query, parent.op, child.op)
    for op in stats.ops:
        if op.op.startswith("Predicate") and not op.detached:
            assert op.vectorized_rows + op.fallback_rows == op.rows_in, \
                (type(engine).__name__, query, op.op)
        assert op.wall_seconds >= 0.0


class TestSerialAnalyzeEquivalence:
    @given(seed=st.integers(min_value=0, max_value=99))
    @RELAXED
    def test_chorel_native_and_indexed(self, seed):
        _, history, doem = make_world(seed)
        queries = world_queries(history)
        for engine_cls in CHOREL_ENGINES:
            plain = engine_cls(doem, name="root")
            analyzed = engine_cls(doem, name="root")
            for query in queries:
                expected = texts(plain.run(query))
                assert texts(analyzed.run(query, analyze=True)) == \
                    expected, (engine_cls.__name__, query)
                check_stats(analyzed, query)

    @given(seed=st.integers(min_value=0, max_value=99))
    @RELAXED
    def test_lorel(self, seed):
        db, _, _ = make_world(seed)
        plain = LorelEngine(db, name="root")
        analyzed = LorelEngine(db, name="root")
        for query in LOREL_QUERIES:
            expected = texts(plain.run(query))
            assert texts(analyzed.run(query, analyze=True)) == \
                expected, query
            check_stats(analyzed, query)

    @given(seed=st.integers(min_value=0, max_value=99))
    @RELAXED
    def test_translating(self, seed):
        _, history, doem = make_world(seed)
        plain = TranslatingChorelEngine(doem, name="root")
        analyzed = TranslatingChorelEngine(doem, name="root")

        def analyzed_outcome(query):
            from repro import TranslationError
            try:
                return texts(analyzed.run(query, analyze=True)), None
            except TranslationError as error:
                return None, type(error).__name__

        for query in world_queries(history):
            expected = outcome(plain, query)
            assert analyzed_outcome(query) == expected, query
            if expected[1] is None:
                check_stats(analyzed, query)


class TestShardedAnalyzeEquivalence:
    @given(seed=st.integers(min_value=0, max_value=99),
           workers=st.integers(min_value=2, max_value=4))
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_chorel_thread_sharded(self, seed, workers):
        _, history, doem = make_world(seed)
        queries = world_queries(history)
        for engine_cls in CHOREL_ENGINES:
            plain = engine_cls(doem, name="root")
            engine = engine_cls(doem, name="root")
            with ParallelExecutor(engine, max_workers=workers) as executor:
                for query in queries:
                    expected = texts(plain.run(query))
                    assert texts(executor.run(query, analyze=True)) == \
                        expected, (engine_cls.__name__, query)
                    stats = engine.last_compiled.runtime
                    assert stats is not None

    @pytest.mark.parametrize("seed", [1, 8])
    def test_chorel_4_workers(self, seed):
        """Stage stats returned beside each shard's rows keep the rows
        identical and the merged tree populated."""
        _, history, doem = make_world(seed)
        plain = ChorelEngine(doem, name="root")
        engine = ChorelEngine(doem, name="root")
        queries = world_queries(history)
        fanned_out = False
        with ParallelExecutor(engine, max_workers=4) as executor:
            for query in queries:
                expected = texts(plain.run(query, analyze=True))
                serial_stats = plain.last_compiled.runtime
                assert texts(executor.run(query, analyze=True)) == \
                    expected, query
                stats = engine.last_compiled.runtime
                assert stats is not None
                assert stats.ops[0].rows_out == len(expected), query
                assert rows_by_op(stats) == rows_by_op(serial_stats), query
                fanned_out |= any(op.shards > 1 for op in stats.ops)
        assert fanned_out, "no query in the world was sharded"
