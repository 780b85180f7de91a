"""Batched execution is the legacy evaluator, at every batch width.

The batched physical operators (:mod:`repro.plan.batch`) claim row- and
order-identity with the pre-planner evaluator (the ``use_planner=False``
oracle) for *any* batch size -- the equivalence the batched-frontier
argument proves (a level-synchronous expansion in frontier order replays
the concatenation of per-row depth-first enumerations).  The engines all
execute at :data:`~repro.plan.batch.DEFAULT_BATCH_SIZE`; this suite
drives ``ExecutionContext.batch_size`` through ``run_compiled`` instead,
across all four engines, serially and through the sharding ``Exchange``,
over the same randomized worlds the index-differential harness trusts,
at batch widths 1 (degenerate: every batch is a row), 7 (prime, never
aligned with result counts), 64, and whole-world (one batch end to end).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    ChorelEngine,
    IndexedChorelEngine,
    LorelEngine,
    TranslatingChorelEngine,
    TranslationError,
    WorkerPool,
)
from repro.plan import ExecutionContext, run_compiled
from repro.plan.batch import EnvBatch, compile_predicate
from tests.plan.test_planner_equivalence import (
    LOREL_QUERIES,
    RELAXED,
    outcome,
    texts,
)
from tests.test_differential_index import make_world, world_queries

# 1 = per-row degenerate case, 7 = prime (batch boundaries never align
# with operator fan-outs), 64 = mid-size, 1 << 20 = whole-world.
BATCH_SIZES = [1, 7, 64, 1 << 20]

CHOREL_ENGINES = (ChorelEngine, IndexedChorelEngine)

SHARDED = settings(max_examples=6, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


def run_at_width(engine, query, size, pool=None):
    """``engine.run(query)`` with the operators' batch width set to
    ``size``, sharded over ``pool`` when one is given: the context the
    engine builds, its ``batch_size`` overridden, through the same
    ``run_compiled`` every engine executes with."""
    compiled = engine.compile(query)
    translating = isinstance(engine, TranslatingChorelEngine)
    if isinstance(engine, ChorelEngine):
        ctx = engine._execution_context(pool=pool)
    else:
        evaluator = engine.lorel._evaluator if translating \
            else engine._evaluator
        ctx = ExecutionContext(evaluator=evaluator,
                               base_env=engine._base_env(), pool=pool)
    ctx.batch_size = size
    result = run_compiled(compiled, ctx, engine)
    if translating:
        return engine._postprocess(result, compiled.translation)
    return result


def outcome_at_width(engine, query, size, pool=None):
    """(rows, error-type), as :func:`outcome`, at batch width ``size``."""
    try:
        return texts(run_at_width(engine, query, size, pool)), None
    except TranslationError as error:
        return None, type(error).__name__


class TestSerialBatchedEquivalence:
    """batched(size) == legacy, engine by engine."""

    @given(seed=st.integers(min_value=0, max_value=99),
           size=st.sampled_from(BATCH_SIZES))
    @RELAXED
    def test_chorel_native_and_indexed(self, seed, size):
        _, history, doem = make_world(seed)
        queries = world_queries(history)
        for engine_cls in CHOREL_ENGINES:
            batched = engine_cls(doem, name="root")
            legacy = engine_cls(doem, name="root", use_planner=False)
            for query in queries:
                assert texts(run_at_width(batched, query, size)) == \
                    texts(legacy.run(query)), \
                    (engine_cls.__name__, size, query)

    @given(seed=st.integers(min_value=0, max_value=99),
           size=st.sampled_from(BATCH_SIZES))
    @RELAXED
    def test_lorel(self, seed, size):
        db, _, _ = make_world(seed)
        batched = LorelEngine(db, name="root")
        legacy = LorelEngine(db, name="root", use_planner=False)
        for query in LOREL_QUERIES:
            assert texts(run_at_width(batched, query, size)) == \
                texts(legacy.run(query)), (size, query)

    @given(seed=st.integers(min_value=0, max_value=99),
           size=st.sampled_from(BATCH_SIZES))
    @RELAXED
    def test_translating(self, seed, size):
        _, history, doem = make_world(seed)
        batched = TranslatingChorelEngine(doem, name="root")
        legacy = TranslatingChorelEngine(doem, name="root",
                                         use_planner=False)
        for query in world_queries(history):
            assert outcome_at_width(batched, query, size) == \
                outcome(legacy, query), (size, query)

    @pytest.mark.parametrize("engine_cls", [
        LorelEngine, ChorelEngine, IndexedChorelEngine,
        TranslatingChorelEngine])
    @pytest.mark.parametrize("size", [0, -1])
    def test_nonpositive_width_rejected(self, engine_cls, size):
        """There is no row-at-a-time model to select: width 1 is it, and
        the engines take no width at all."""
        db, _, doem = make_world(0)
        source = db if engine_cls is LorelEngine else doem
        with pytest.raises(TypeError, match="batch_size"):
            engine_cls(source, name="root", batch_size=64)
        engine = engine_cls(source, name="root")
        with pytest.raises(ValueError, match="positive"):
            run_at_width(engine, "select X from root.name X", size)


class TestShardedBatchedEquivalence:
    """Exchange over batches replays serial enumeration for any width."""

    @given(seed=st.integers(min_value=0, max_value=99),
           size=st.sampled_from(BATCH_SIZES),
           workers=st.integers(min_value=2, max_value=4))
    @SHARDED
    def test_chorel_thread_sharded(self, seed, size, workers):
        _, history, doem = make_world(seed)
        queries = world_queries(history)
        with WorkerPool(workers) as pool:
            for engine_cls in CHOREL_ENGINES:
                engine = engine_cls(doem, name="root")
                legacy = engine_cls(doem, name="root", use_planner=False)
                for query in queries:
                    assert texts(run_at_width(engine, query, size, pool)) \
                        == texts(legacy.run(query)), \
                        (engine_cls.__name__, size, query)

    @given(seed=st.integers(min_value=0, max_value=99),
           size=st.sampled_from(BATCH_SIZES))
    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_lorel_thread_sharded(self, seed, size):
        db, _, _ = make_world(seed)
        engine = LorelEngine(db, name="root")
        legacy = LorelEngine(db, name="root", use_planner=False)
        with WorkerPool(3) as pool:
            for query in LOREL_QUERIES:
                assert texts(run_at_width(engine, query, size, pool)) == \
                    texts(legacy.run(query)), (size, query)

    # Worlds 5 and 11 have queries whose rows come from several shards,
    # so a merge out of shard order changes the row order they see.
    @pytest.mark.parametrize("seed", [5, 11])
    @pytest.mark.parametrize("size", [7, 1 << 20])
    def test_chorel_4_workers(self, seed, size):
        """Four shards on fixed worlds still replay the serial
        enumeration exactly."""
        _, history, doem = make_world(seed)
        engine = ChorelEngine(doem, name="root")
        legacy = ChorelEngine(doem, name="root", use_planner=False)
        with WorkerPool(4) as pool:
            for query in world_queries(history):
                assert texts(run_at_width(engine, query, size, pool)) == \
                    texts(legacy.run(query)), (size, query)

    @pytest.mark.parametrize("seed", [4, 12])
    def test_translating_sharded(self, seed):
        _, history, doem = make_world(seed)
        engine = TranslatingChorelEngine(doem, name="root")
        legacy = TranslatingChorelEngine(doem, name="root",
                                         use_planner=False)
        queries = [query for query in world_queries(history)
                   if outcome(legacy, query)[1] is None]
        with WorkerPool(3) as pool:
            for query in queries:
                assert texts(run_at_width(engine, query, 7, pool)) == \
                    texts(legacy.run(query)), query


class TestEnvBatch:
    def test_split_preserves_rows_and_order(self):
        rows = [{"i": i} for i in range(10)]
        for size in (1, 3, 10, 99):
            pieces = list(EnvBatch(rows).split(size))
            assert [env for piece in pieces for env in piece.rows] == rows
            assert all(len(piece) <= size for piece in pieces)

    @pytest.mark.parametrize("size", [0, -1])
    def test_split_nonpositive_raises(self, size):
        # At the call, not on first iteration.
        with pytest.raises(ValueError, match="positive"):
            EnvBatch([{"i": 0}, {"i": 1}]).split(size)

    def test_concat_is_split_inverse(self):
        rows = [{"i": i} for i in range(7)]
        assert EnvBatch.concat(list(EnvBatch(rows).split(2))).rows == rows

    def test_column_access(self):
        batch = EnvBatch([{"x": 1}, {"y": 2}, {"x": 3}])
        assert batch.column("x") == [1, None, 3]
        assert len(batch) == 3 and bool(batch)
        assert not EnvBatch([])


class TestCompilePredicate:
    """The vectorized fast path only accepts shapes it can decide."""

    @staticmethod
    def evaluator():
        db, _, _ = make_world(0)
        return LorelEngine(db, name="root")._evaluator

    @staticmethod
    def condition(text: str):
        from repro import parse_query
        return parse_query(f"select root where {text}",
                           allow_annotations=True).where

    def test_pure_comparison_compiles(self):
        pred = compile_predicate(self.condition("X < 5"), self.evaluator())
        assert pred is not None
        from repro.lorel.eval import NodeBinding  # noqa: F401
        assert pred({"X": 3}) is True
        assert pred({"X": 9}) is False

    def test_boolean_composition(self):
        pred = compile_predicate(
            self.condition('X < 5 and not (Y = "b" or X = 2)'),
            self.evaluator())
        assert pred({"X": 3, "Y": "a"}) is True
        assert pred({"X": 2, "Y": "a"}) is False
        assert pred({"X": 3, "Y": "b"}) is False

    def test_unbound_variable_raises_keyerror(self):
        """The row-fallback trigger: unbound names defer to the solver."""
        pred = compile_predicate(self.condition("X < 5"), self.evaluator())
        with pytest.raises(KeyError):
            pred({})

    # What compiles and what stays with the solver (the table of
    # docs/batched-execution.md): a path compiles when every step is a
    # plain label, because such a step can bind nothing.
    COMPILED = [
        "X.price < 5", "X.item.name = \"n03\"", "5 < X.price",
        "X.price = Y.price", "X.a.b.c like \"%x%\"", "X.price = t[0]",
        "not (X.price < 5) and (X.name = \"a\" or Y = 3)",
        "root.item.price < 5",   # unbound start: KeyError per row
    ]
    REFUSED = [
        "X.<add at T>price < 5", "X.price<upd at T> = 5",
        "X.price<at 1Jan97> = 5", "X.# = 5", "X.pri% = 5",
        "X.(price|cost) = 5", "X.next* = 5", "X.next+.name = 5",
        "X<cre at T> = 5",       # the start-anchored "" step
        "X.price",               # the `!= None` existence encoding
        "X.price < 5 and X.<add at T>name = \"a\"",
        "exists Y in X.item : Y.price < 5",
    ]

    def test_compiled_and_refused_shapes(self):
        evaluator = self.evaluator()
        for text in self.COMPILED:
            assert compile_predicate(self.condition(text),
                                     evaluator) is not None, text
        for text in self.REFUSED:
            assert compile_predicate(self.condition(text),
                                     evaluator) is None, text

    def test_path_condition_unbound_start_raises_keyerror(self):
        """A start that is no bound object (a database name, a scalar)
        defers the row to the solver, which resolves or rejects it."""
        pred = compile_predicate(self.condition("root.item.price < 5"),
                                 self.evaluator())
        for env in ({}, {"root": 3}):
            with pytest.raises(KeyError):
                pred(env)

    def test_existence_encoding_rejected(self):
        """`path = None` semantics hang on multiplicity -- solver only."""
        from repro.lorel.ast import Comparison, Literal, VarRef
        cond = Comparison(VarRef("X"), "=", Literal(None))
        assert compile_predicate(cond, self.evaluator()) is None

    def test_like_compiles(self):
        pred = compile_predicate(self.condition('X like "%bc%"'),
                                 self.evaluator())
        assert pred({"X": "abcd"}) is True
        assert pred({"X": "ad"}) is False
