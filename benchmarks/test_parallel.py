"""Experiment bench-parallel -- timings of the parallel execution layer.

pytest-benchmark timings of the sharded path, the concurrent QSS polling
cycle and ``run_many`` on small worlds; every timed run also asserts the
rows it returned.  The figures carry no performance claim and nothing
gates on them (the end-to-end numbers are ``benchmarks/pipeline``'s);
the bench-scale *equivalence* sweep the retired ``BENCH_parallel`` gate
ran lives in ``tests/parallel/test_bench_scale.py``.
"""

from __future__ import annotations

import pytest

from repro import ChorelEngine, IndexedChorelEngine, ParallelExecutor
from tests.test_differential_index import make_world, world_queries

SHARD_WORKERS = 4


def exact_rows(result):
    return [str(row) for row in result]


@pytest.mark.parametrize("width", (1, 2, 4))
def test_sharded_run_wall_time(benchmark, width):
    """Per-width timing of the sharded path (identical rows asserted)."""
    _, history, doem = make_world(5, nodes=48, steps=6, set_size=10)
    engine = ChorelEngine(doem, name="root")
    queries = world_queries(history)
    expected = [exact_rows(engine.run(query)) for query in queries]
    with ParallelExecutor(engine, max_workers=width) as executor:
        got = benchmark(
            lambda: [exact_rows(executor.run(query)) for query in queries])
    assert got == expected


def test_concurrent_qss_wall_time(benchmark):
    """A multi-subscription polling cycle through the concurrent server."""
    from repro import QSSServer, Wrapper
    from tests.parallel.test_qss_concurrent import ScriptedSource, subscription

    def cycle():
        server = QSSServer(start="1Dec96", deliver_empty=True,
                           max_poll_workers=4)
        for i in range(6):
            server.register_wrapper(f"s{i}", Wrapper(ScriptedSource(),
                                                     name="guide"))
            server.subscribe(subscription(f"sub{i}"), f"s{i}")
        with server:
            return len(server.run_until("8Dec96"))

    delivered = benchmark(cycle)
    assert delivered == 6 * 7  # six subscriptions, seven daily polls


def test_indexed_engine_parallel_consistency(benchmark):
    """The indexed engine under run_many keeps its pushdown accounting."""
    _, history, doem = make_world(9, nodes=32, steps=5, set_size=8)
    queries = world_queries(history)
    engine = IndexedChorelEngine(doem, name="root")
    expected = [exact_rows(engine.run(query)) for query in queries]

    def batch():
        return engine.run_many(queries, max_workers=SHARD_WORKERS)

    results = benchmark(batch)
    assert [exact_rows(result) for result in results] == expected
    assert engine.stats.indexed_queries > 0
