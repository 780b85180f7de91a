"""The tentpole property: parallel evaluation == serial evaluation.

Randomized worlds (random OEM database + random valid history), the
differential harness's query templates, and every pool width from 1 to 4:
``ParallelExecutor.run`` must return rows *identical and identically
ordered* to the serial engine.  Exact-order equality (not set equality)
is the point -- the deterministic merge is what makes the parallel layer
safe to substitute anywhere.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro import ChorelEngine, IndexedChorelEngine, ParallelExecutor
from tests.test_differential_index import make_world, world_queries

POOL_SIZES = (1, 2, 3, 4)


def exact_rows(result) -> list[str]:
    """Order-preserving row signature (sorted() would hide merge bugs)."""
    return [str(row) for row in result]


@pytest.fixture(scope="module")
def worlds():
    """A few prebuilt worlds; building them per example would dominate."""
    built = {}
    for seed in (0, 5, 11, 17):
        _, history, doem = make_world(seed)
        built[seed] = (ChorelEngine(doem, name="root"),
                       IndexedChorelEngine(doem, name="root"),
                       world_queries(history))
    return built


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_sharded_run_matches_serial(worlds, data):
    seed = data.draw(st.sampled_from(sorted(worlds)), label="world")
    naive, indexed, queries = worlds[seed]
    query = data.draw(st.sampled_from(queries), label="query")
    workers = data.draw(st.sampled_from(POOL_SIZES), label="workers")
    engine = data.draw(st.sampled_from([naive, indexed]), label="engine")
    serial = exact_rows(engine.run(query))
    with ParallelExecutor(engine, max_workers=workers) as executor:
        assert exact_rows(executor.run(query)) == serial


class TestEndToEnd:
    """Deterministic (non-hypothesis) sweeps for the CI bench baseline."""

    @pytest.mark.parametrize("seed", range(8))
    def test_every_template_every_width(self, seed):
        _, history, doem = make_world(seed)
        engine = ChorelEngine(doem, name="root")
        queries = world_queries(history)
        serial = [exact_rows(engine.run(query)) for query in queries]
        for workers in POOL_SIZES:
            with ParallelExecutor(engine, max_workers=workers) as executor:
                assert [exact_rows(executor.run(query))
                        for query in queries] == serial, (seed, workers)

    def test_indexed_pushdown_still_taken(self):
        """Plan-eligible queries keep going through the annotation index."""
        _, history, doem = make_world(3)
        engine = IndexedChorelEngine(doem, name="root")
        engine.reset_counters()
        with ParallelExecutor(engine, max_workers=2) as executor:
            for query in world_queries(history):
                executor.run(query)
        assert engine.stats.indexed_queries > 0
        assert engine.stats.fallback_queries > 0

    @pytest.mark.parametrize("query", [
        "select X from root.<add at 3Jan97>item X",              # pinned
        "select T, X from root.<add at T>item X "
        "where T >= 2Jan97 and T <= 5Jan97",                     # folded
        "select T from root.item.price<changed at T in [2Jan97..5Jan97]>",
        "select T from root.item.price<changed at T>",
    ])
    def test_one_served_by_the_index_predicate(self, query):
        """Every entry point agrees on what "served by the index" means:
        the pushdown split, the stored plan and the query log's flag."""
        from repro.obs.querylog import query_log
        _, _, doem = make_world(3)
        observed = []
        for how in ("run", "executor"):
            engine = IndexedChorelEngine(doem, name="root")
            query_log().reset()
            if how == "run":
                rows = exact_rows(engine.run(query))
            else:
                with ParallelExecutor(engine, max_workers=2) as executor:
                    rows = exact_rows(executor.run(query))
            [record] = query_log().recent()
            observed.append((rows, engine.stats.as_dict(),
                             engine.last_plan.describe(),
                             engine.last_range_plan is engine.last_plan,
                             record.indexed))
        assert observed[0] == observed[1]
        assert observed[0][1]["pushdown_rate"] == 1.0
        assert observed[0][4] is True

    def test_sharded_counters_equal_serial(self):
        """Sharding changes where work happens, never how much of it is
        counted: the planner/evaluator counter totals of a sharded run
        equal a serial run's."""
        from repro.obs.metrics import registry as metrics_registry

        def counted(fn) -> dict[str, int]:
            def families() -> dict[str, int]:
                counters = metrics_registry().typed_snapshot()["counters"]
                return {name: value for name, value in counters.items()
                        if name.startswith(("repro.plan.", "repro.view."))}
            before = families()
            fn()
            return {name: value - before.get(name, 0)
                    for name, value in families().items()
                    if value != before.get(name, 0)}

        _, history, doem = make_world(9)
        queries = world_queries(history)
        serial_engine = ChorelEngine(doem, name="root")
        serial = counted(lambda: [serial_engine.run(q) for q in queries])
        sharded_engine = ChorelEngine(doem, name="root")
        sharded_before = metrics_registry().snapshot().get(
            "repro.parallel.sharded_queries", 0)
        with ParallelExecutor(sharded_engine, max_workers=2) as executor:
            sharded = counted(lambda: [executor.run(q) for q in queries])
        assert metrics_registry().snapshot()[
            "repro.parallel.sharded_queries"] > sharded_before, \
            "workload never fanned out; the property was not exercised"
        assert sharded == serial
        assert sharded, "no planner/evaluator counters moved"

    def test_shard_spans_nest_under_fanout(self):
        """Each shard's ``parallel.shard`` span nests under the
        dispatching ``parallel.fanout`` span."""
        from repro.obs.trace import get_tracer
        _, history, doem = make_world(9)
        engine = ChorelEngine(doem, name="root")
        fanout = None
        with ParallelExecutor(engine, max_workers=2) as executor:
            for query in world_queries(history):
                with get_tracer().capture() as cap:
                    executor.run(query)
                fanout = cap.find("parallel.fanout")
                if fanout is not None:
                    break
        assert fanout is not None, "no query in the workload fanned out"
        assert [child.name for child in fanout.children] == \
            ["parallel.shard"] * fanout.attrs["shards"]
        assert all("rows" in child.attrs for child in fanout.children)

    def test_context_manager_shuts_its_pool_down(self):
        _, history, doem = make_world(2)
        engine = ChorelEngine(doem, name="root")
        with ParallelExecutor(engine, max_workers=3) as executor:
            for query in world_queries(history):
                executor.run(query)
            pool = executor.pool
            assert pool.max_workers == 3
        with pytest.raises(RuntimeError):
            pool.submit(len, ())
