"""Experiment bench-parallel -- the parallel execution layer.

Measures what :mod:`repro.parallel` buys and, more importantly for CI,
*proves what it preserves*: every timed run is also an equivalence check
against the serial engine, and the counts land in
``benchmarks/artifacts/BENCH_parallel.json`` (a metrics-registry JSON
export).  The CI bench-regression job compares the deterministic
equivalence counters in that artifact against the committed baseline
(``benchmarks/baselines/BENCH_parallel_baseline.json``) -- a divergence
means the parallel layer stopped evaluating the same workload, or
stopped agreeing with the serial engine.

The main benchmark runs at *bench scale*: two
:func:`repro.sources.generators.large_world` worlds of ~20k nodes each
(several hundred times the property-test worlds), big enough that
process-pool sharding amortizes its per-task overhead.  On a multi-core
machine the sharded pass must beat the serial pass outright --
``wall.ratio`` (sharded seconds / serial seconds) is recorded in the
artifact together with ``wall.cpus``, and ``check_bench_baseline.py``
fails the build when a machine with two or more cores reports a ratio
at or above 1.0.  Wall times themselves are recorded for inspection but
never compared across machines.

The rule-probe queries are chosen so every rewrite pass does work on
this workload; the baseline check also fails if any single
``plan.rules_fired.*`` counter stays at zero.
"""

from __future__ import annotations

import os
from time import perf_counter

import pytest

from repro import ChorelEngine, IndexedChorelEngine, ParallelExecutor
from repro import metrics_registry
from repro.parallel import WorkerPool
from repro.plan.rules import RULE_NAMES
from repro.sources import large_world
from tests.test_differential_index import make_world, world_queries

from test_index_ablation import metrics_json

# Bench-scale worlds: ~20k nodes / ~3.2k history ops each, several
# hundred times the 32-node worlds the property tests sweep.
WORLD_SEEDS = (0, 3)
WORLD = dict(items=4000, extra_links=1600, steps=8, churn=400)
SHARD_WORKERS = 4
POLLING = {0: "4Jan97"}

# One probe per rewrite rule (the pinned/virtual/range trio needs the
# indexed engine; the reorder probe fires on any planner engine):
#   1. pinned literal      -> annotation-literal-pushdown + index-selection
#   2. polling-time t[0]   -> virtual-at-expansion (+ pushdown + selection)
#   3. range on T          -> index-selection via interval folding
#   4. path-then-pure where-> predicate-reorder (pure conjunct hoisted)
#   5. <changed ... in [..]>-> time-range-strategy (cross-time range scan)
RULE_QUERIES = (
    "select X from root.<add at 3Jan97>item X",
    "select X from root.<add at t[0]>item X",
    "select T, X from root.<add at T>item X where T >= 2Jan97 and T <= 5Jan97",
    "select R, T from root.item R, R.price<upd at T> P "
    "where R.info.a < 50 and T >= 3Jan97",
    "select X, T from root.item.price<changed at T in [2Jan97..5Jan97]> X",
)

# The timed workload: first from-item binds cheaply (one label lookup),
# the predicate walks paths per row -- exactly the shape where Exchange
# ships rows to workers and the per-row walk dominates the pickling.
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


def exact_rows(result):
    return [str(row) for row in result]


def plan_counters():
    """The ``repro.plan`` counter family, flattened to plain numbers.

    Histograms (compile latency, batch width) contribute only their
    observation *count* -- the one deterministic part of a series.
    """
    values = {}
    for name, value in metrics_registry().snapshot("repro.plan").items():
        short = name.removeprefix("repro.plan.")
        if isinstance(value, dict):  # histogram snapshot
            values[f"{short}.count"] = value["count"]
        else:
            values[short] = value
    return values


@pytest.mark.slow
def test_parallel_bench(benchmark, artifact_dir):
    """Serial vs. process-sharded vs. batched at bench scale."""
    worlds = [large_world(seed=seed, **WORLD) for seed in WORLD_SEEDS]
    plan_before = plan_counters()
    counts = {"rules_compared": 0, "rules_mismatches": 0,
              "sharded_compared": 0, "sharded_mismatches": 0,
              "batch_compared": 0, "batch_mismatches": 0}

    # -- rule probes: every rewrite pass must do work, and the planned
    # engine must agree with the legacy evaluator row for row.
    for _, _, doem in worlds:
        indexed = IndexedChorelEngine(doem, name="root")
        legacy = IndexedChorelEngine(doem, name="root", use_planner=False)
        for engine in (indexed, legacy):
            engine.set_polling_times(POLLING)
        for query in RULE_QUERIES:
            counts["rules_compared"] += 1
            if exact_rows(indexed.run(query)) != exact_rows(legacy.run(query)):
                counts["rules_mismatches"] += 1
    rule_deltas = {name: value - plan_before.get(name, 0)
                   for name, value in plan_counters().items()
                   if name.startswith("rules_fired.")}
    for name in RULE_NAMES:
        assert rule_deltas.get(f"rules_fired.{name}", 0) > 0, \
            f"rule {name} never fired on the probe workload"

    # -- the timed passes.  Warm runs first: compile caches, path-closure
    # memos, and (for the sharded pass) the forked workers themselves are
    # set up before the clock starts, so the ratio compares steady-state
    # throughput, not pool spin-up.
    engines = [ChorelEngine(doem, name="root") for _, _, doem in worlds]
    for engine in engines:
        for query in HEAVY_QUERIES:
            engine.run(query)

    started = perf_counter()
    serial_results = [[engine.run(query) for query in HEAVY_QUERIES]
                      for engine in engines]
    serial_seconds = perf_counter() - started
    expected = [[exact_rows(result) for result in results]
                for results in serial_results]

    sharded_seconds = 0.0
    for engine, rows in zip(engines, expected):
        with ParallelExecutor(engine, processes=True,
                              max_workers=SHARD_WORKERS) as executor:
            for query in HEAVY_QUERIES:  # warm the forked workers
                executor.run(query)
            started = perf_counter()
            results = [executor.run(query) for query in HEAVY_QUERIES]
            sharded_seconds += perf_counter() - started
        for result, serial_rows in zip(results, rows):
            counts["sharded_compared"] += 1
            if exact_rows(result) != serial_rows:
                counts["sharded_mismatches"] += 1

    pool = WorkerPool(SHARD_WORKERS, metrics_prefix="bench.pool")
    started = perf_counter()
    batch_results = [ParallelExecutor(engine, pool=pool).run_many(
        HEAVY_QUERIES) for engine in engines]
    batch_seconds = perf_counter() - started
    for results, rows in zip(batch_results, expected):
        for result, serial_rows in zip(results, rows):
            counts["batch_compared"] += 1
            if exact_rows(result) != serial_rows:
                counts["batch_mismatches"] += 1

    # Planner counters across all passes -- captured *before* the
    # pytest-benchmark call below, whose rep count varies by machine and
    # would make the deltas non-deterministic.
    plan_deltas = {name: value - plan_before.get(name, 0)
                   for name, value in plan_counters().items()}

    # The timed figure CI displays: one serial heavy query, steady state.
    benchmark(lambda: engines[0].run(HEAVY_QUERIES[1]))

    assert counts["rules_mismatches"] == 0
    assert counts["sharded_mismatches"] == 0
    assert counts["batch_mismatches"] == 0

    pool_stats = {name.split(".")[-1]: value
                  for name, value in pool.stats().items()
                  if isinstance(value, (int, float))}
    assert pool_stats["submitted"] > 0
    assert pool_stats["completed"] > 0
    pool.shutdown()

    assert serial_seconds > 0 and sharded_seconds > 0
    artifact = metrics_json(
        "bench_parallel",
        params={"worlds": len(worlds),
                "items": WORLD["items"],
                "steps": WORLD["steps"],
                "rule_queries": len(RULE_QUERIES) * len(worlds),
                "queries": len(HEAVY_QUERIES) * len(worlds),
                "shard_workers": SHARD_WORKERS},
        equivalence=counts,
        wall={"serial_seconds": round(serial_seconds, 6),
              "sharded_seconds": round(sharded_seconds, 6),
              "batch_seconds": round(batch_seconds, 6),
              "ratio": round(sharded_seconds / serial_seconds, 6),
              "cpus": os.cpu_count() or 1},
        plan=plan_deltas,
        pool=pool_stats)
    path = artifact_dir / "BENCH_parallel.json"
    path.write_text(artifact + "\n", encoding="utf-8")
    print(f"\n===== artifact BENCH_parallel ({path}) =====")
    print(artifact)


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
