"""The four engine facades share one compile-and-execute path.

For each engine over one generated DOEM (Lorel over its current
snapshot): ``run(q)`` is ``execute(compile(q))`` row for row and in
order, ``last_compiled`` is the plan that ran, and each run writes one
query-log record under the class's ``ENGINE_LABELS`` label.  The
parallel executor compiles each query once -- index-served or sharded
-- and leaves the engine's accounting as ``engine.run`` would.
"""

from __future__ import annotations

import pytest

from repro import (
    ChorelEngine,
    IndexedChorelEngine,
    LorelEngine,
    ParallelExecutor,
    TranslatingChorelEngine,
    current_snapshot,
)
from repro.errors import TranslationError
from repro.obs.querylog import ENGINE_LABELS, query_log
from tests.plan.test_planner_equivalence import LOREL_QUERIES
from tests.test_differential_index import make_world, world_queries

SEED = 3
INDEXED_QUERY = "select T from root.item.price<changed at T>"
SHARDED_QUERY = "select X, N from root.# X, X.name N"


@pytest.fixture(scope="module")
def world():
    _, history, doem = make_world(SEED)
    return history, doem


def engines_and_queries(world):
    history, doem = world
    chorel = world_queries(history) + [INDEXED_QUERY]
    return [
        (LorelEngine(current_snapshot(doem), name="root"), LOREL_QUERIES),
        (ChorelEngine(doem, name="root"), chorel),
        (IndexedChorelEngine(doem, name="root"), chorel),
        (TranslatingChorelEngine(doem, name="root"), chorel),
    ]


def texts(result) -> list[str]:
    return [str(row) for row in result]


def answered(engine, query):
    """The query's rows through ``run``, or ``None`` where the backend
    refuses it (cross-time shapes have no Lorel translation)."""
    try:
        return texts(engine.run(query))
    except TranslationError:
        return None


@pytest.mark.parametrize("position", range(4),
                         ids=["lorel", "chorel", "indexed", "translate"])
def test_run_is_execute_of_compile(world, position):
    engine, queries = engines_and_queries(world)[position]
    label = ENGINE_LABELS[type(engine).__name__]
    log = query_log()
    ran = 0
    for query in queries:
        log.reset()
        rows = answered(engine, query)
        if rows is None:
            continue
        ran += 1
        [record] = log.recent()
        assert record.engine == label
        assert record.fingerprint == engine.last_compiled.fingerprint
        assert record.rows == len(rows)
        log.reset()
        compiled = engine.compile(query)
        assert engine.last_compiled is compiled
        assert texts(engine.execute(compiled)) == rows, query
        [record] = log.recent()
        assert record.engine == label
    assert ran >= len(queries) // 2


@pytest.mark.parametrize("position", range(4),
                         ids=["lorel", "chorel", "indexed", "translate"])
def test_last_compiled_is_the_plan_that_ran(world, position):
    engine, queries = engines_and_queries(world)[position]
    for query in queries:
        try:
            result = engine.run(query, analyze=True)
        except TranslationError:
            continue
        runtime = engine.last_compiled.runtime
        assert runtime is not None, query
        assert runtime.result_rows == len(result), query
        assert runtime.fingerprint == engine.last_compiled.fingerprint


class CountingCompiles:
    """Counts ``IndexedChorelEngine._compile`` calls."""

    def __init__(self, monkeypatch) -> None:
        self.calls = 0
        original = IndexedChorelEngine._compile

        def counted(engine, *args, **kwargs):
            self.calls += 1
            return original(engine, *args, **kwargs)

        monkeypatch.setattr(IndexedChorelEngine, "_compile", counted)


@pytest.mark.parametrize("query, indexed", [(INDEXED_QUERY, True),
                                            (SHARDED_QUERY, False)],
                         ids=["index-served", "sharded"])
def test_parallel_run_compiles_once(world, monkeypatch, query, indexed):
    _, doem = world
    serial = IndexedChorelEngine(doem, name="root")
    expected = texts(serial.run(query))
    engine = IndexedChorelEngine(doem, name="root")
    counter = CountingCompiles(monkeypatch)
    log = query_log()
    log.reset()
    with ParallelExecutor(engine, max_workers=2) as executor:
        assert texts(executor.run(query)) == expected
    assert counter.calls == 1
    [record] = log.recent()
    assert record.indexed is indexed
    assert (record.shards > 0) is not indexed
    assert (engine.last_plan is not None) is indexed
    assert engine.stats.indexed_queries == serial.stats.indexed_queries
    assert engine.stats.fallback_queries == serial.stats.fallback_queries
