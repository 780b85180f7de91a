"""Bench-scale equivalence: what the retired ``BENCH_parallel`` gate proved.

Two :func:`repro.sources.generators.large_world` worlds of ~20k nodes
each (several hundred times the property-test worlds), big enough that
every shard carries hundreds of rows.  Three loops, no timings:

* every rewrite pass in ``RULE_NAMES`` fires on the rule probes, and the
  planned engine agrees with the legacy evaluator row for row;
* thread-sharded ``ParallelExecutor.run`` == serial, in order;
* ``run_many`` on a shared thread pool == serial, in order.

``slow``-marked: tier-1 skips it, CI's ``slow`` job runs it with
``-m "slow or not slow"``.
"""

from __future__ import annotations

import pytest

from repro import ChorelEngine, IndexedChorelEngine, ParallelExecutor
from repro.parallel import WorkerPool
from repro.plan.rules import RULE_NAMES, plan_metrics
from repro.sources import large_world

WORLD_SEEDS = (0, 3)
WORLD = dict(items=4000, extra_links=1600, steps=8, churn=400)
SHARD_WORKERS = 4
POLLING = {0: "4Jan97"}

# Between them the probes make every rewrite pass do work:
#   1. pinned literal        -> index-selection, interval [t, t]
#   2. polling-time t[0]     -> virtual-at-expansion (+ selection)
#   3. range on T            -> index-selection via interval folding
#   4. path-then-pure where  -> predicate-reorder (pure conjunct hoisted)
#   5. <changed ... in [..]> -> index-selection, two-kind range scan
RULE_QUERIES = (
    "select X from root.<add at 3Jan97>item X",
    "select X from root.<add at t[0]>item X",
    "select T, X from root.<add at T>item X where T >= 2Jan97 and T <= 5Jan97",
    "select R, T from root.item R, R.price<upd at T> P "
    "where R.info.a < 50 and T >= 3Jan97",
    "select X, T from root.item.price<changed at T in [2Jan97..5Jan97]> X",
)

# First from-item binds cheaply (one label lookup), the predicate walks
# paths per row -- the shape where Exchange ships rows to workers.
HEAVY_QUERIES = (
    "select R from root.item R where R.#.a < 10",
    "select R from root.item R where exists S in R.link: S.price < R.price",
    "select R, L from root.item R, R.link L, L.link M "
    "where M.info.a < R.info.a and L.price < 700",
    "select R, T from root.item R, R.price<upd at T> P "
    "where R.info.a < 50 and T >= 3Jan97",
    'select R from root.item R where R.name like "%a%" and R.price < 800',
    "select X from root.# X where X.price >= 900",
)


def exact_rows(result) -> list[str]:
    return [str(row) for row in result]


@pytest.mark.slow
def test_bench_scale_equivalence():
    worlds = [large_world(seed=seed, **WORLD) for seed in WORLD_SEEDS]

    metrics = plan_metrics()
    fired_before = {name: metrics[f"rules_fired.{name}"].value
                    for name in RULE_NAMES}
    for _, _, doem in worlds:
        indexed = IndexedChorelEngine(doem, name="root")
        legacy = IndexedChorelEngine(doem, name="root", use_planner=False)
        for engine in (indexed, legacy):
            engine.set_polling_times(POLLING)
        for query in RULE_QUERIES:
            assert exact_rows(indexed.run(query)) == \
                exact_rows(legacy.run(query)), query
    for name in RULE_NAMES:
        assert metrics[f"rules_fired.{name}"].value > fired_before[name], \
            f"rule {name} never fired on the probe workload"

    engines = [ChorelEngine(doem, name="root") for _, _, doem in worlds]
    expected = [[exact_rows(engine.run(query)) for query in HEAVY_QUERIES]
                for engine in engines]

    for engine, rows in zip(engines, expected):
        with ParallelExecutor(engine,
                              max_workers=SHARD_WORKERS) as executor:
            for query, serial_rows in zip(HEAVY_QUERIES, rows):
                assert exact_rows(executor.run(query)) == serial_rows, query

    pool = WorkerPool(SHARD_WORKERS)
    try:
        for engine, rows in zip(engines, expected):
            results = ParallelExecutor(engine, pool=pool).run_many(
                HEAVY_QUERIES)
            assert [exact_rows(result) for result in results] == rows
    finally:
        pool.shutdown()
