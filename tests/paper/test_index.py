"""bench-index: annotation indexes, the paper's Section 7 future work.

"Designing indexes on annotations (based on their types and timestamps)
and studying the use of such indexes."  The goldens pin what the
indexes touch, as a registry JSON export of their counters:

* ``index_hits_steps*`` -- a built ``TimestampIndex`` answering QSS's
  "which objects were created after t[-1]?";
* ``index_hits_engine_entries*`` -- on an append-only feed, annotations
  the naive engine visits against a warm ``IndexedChorelEngine`` (same
  rows: ``tests/test_differential_index.py``);
* ``index_hits_snapshot_steps*`` -- a 4-slot ``SnapshotCache`` probed
  at every history timestamp, twice in ascending order.
"""

import pytest

from repro import (
    AddArc,
    ChangeSet,
    ChorelEngine,
    CreNode,
    IndexedChorelEngine,
    OEMDatabase,
    OEMHistory,
    SnapshotCache,
    TimestampIndex,
    build_doem,
    parse_timestamp,
    random_database,
    random_history,
)
from repro.obs.metrics import MetricsRegistry
from tests.paper import assert_artifact

SCALES = (10, 40)
ENTRIES = (60, 240)
EXP_IDS = (*(f"index_hits_steps{steps}" for steps in SCALES),
           *(f"index_hits_engine_entries{entries}" for entries in ENTRIES),
           *(f"index_hits_snapshot_steps{steps}" for steps in SCALES))


def metrics_json(exp_id, **series):
    """Counters as a registry JSON export: gauges named
    ``<exp_id>.<series>.<field>`` in a scratch registry, so the values
    do not depend on what else the process ran."""
    scratch = MetricsRegistry()
    for prefix, values in series.items():
        for name, value in values.items():
            scratch.gauge(f"{exp_id}.{prefix}.{name}").set(value)
    return scratch.export_json()


def make_doem(steps):
    db = random_database(seed=4242, nodes=80)
    history = random_history(db, seed=4242, steps=steps, set_size=10)
    return build_doem(db, history), history


def make_append_log(entries):
    """One ``item`` arc added under the root per day: the naive engine
    visits every ``add`` annotation on them, the index bisects to the
    tail."""
    history = OEMHistory()
    when = parse_timestamp("1Jan97")
    for i in range(entries):
        history.append(when, ChangeSet(
            [CreNode(f"i{i}", i), AddArc("root", "item", f"i{i}")]))
        when = when.plus(days=1)
    return build_doem(OEMDatabase(), history), history


@pytest.mark.parametrize("steps", SCALES)
def test_indexed_lookup(steps):
    doem, history = make_doem(steps)
    index = TimestampIndex(doem)
    times = history.timestamps()
    index.between("cre", times[len(times) // 2])   # builds the index
    index.stats.reset()
    hits = index.between("cre", times[len(times) // 2])
    assert_artifact(f"index_hits_steps{steps}", metrics_json(
        "bench_index.lookup",
        params={"steps": steps},
        cre={"total": index.count("cre"), "hits": len(hits)},
        index=index.stats.as_dict()))


@pytest.mark.parametrize("entries", ENTRIES)
def test_annotation_visit_reduction(entries):
    doem, history = make_append_log(entries)
    query = ("select T, X from root.<add at T>item X "
             f"where T > {history.timestamps()[-6]}")
    naive = ChorelEngine(doem, name="root")
    naive.run(query)
    indexed = IndexedChorelEngine(doem, name="root")
    indexed.run(query)   # builds the indexes
    indexed.reset_counters()
    rows = indexed.run(query)
    assert_artifact(f"index_hits_engine_entries{entries}", metrics_json(
        "bench_index.engine",
        params={"entries": entries, "rows": len(rows)},
        naive={"annotation_visits": naive.annotation_visits},
        indexed={"annotation_visits": indexed.annotation_visits},
        index=indexed.index.stats.as_dict(),
        path_index=indexed.paths.stats.as_dict(),
        engine=indexed.stats.as_dict()))


@pytest.mark.parametrize("steps", SCALES)
def test_snapshot_cache_time_travel(steps):
    doem, history = make_doem(steps)
    times = history.timestamps()
    cache = SnapshotCache(doem, capacity=4)
    for when in times + times:
        cache.snapshot_at(when)
    assert_artifact(f"index_hits_snapshot_steps{steps}", metrics_json(
        "bench_index.snapshot",
        params={"steps": steps, "probes": 2 * len(times), "capacity": 4},
        cache=cache.stats.as_dict()))
