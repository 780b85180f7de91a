"""The range kernel against its reference, as ordered row lists.

``repro.plan.physical.execute_range_plan`` looks the path's prefix set up
once per query, groups ``<last-change>`` events before checking them and
sorts only the events it keeps.  ``tests/plan/oracle_range.py`` is the
per-event verifier it replaced.  Every ``RangePlan`` shape index selection
builds must give the same rows *in the same order* from both: over
``make_world`` seeds, over one bench-scale world, and after change sets
are folded into a live DOEM (the path index then drops only some of its
memo, and the QSS filter reads the new tick).  The kernel skips the
dedup set when index selection marks the rows distinct by construction
(``RangePlan.distinct_rows``); the select lists without the subject and
the hand-built worlds below are the shapes where that decision could
drop or keep a row the oracle does not.
"""

from __future__ import annotations

import random

import pytest

from repro import IndexedChorelEngine, build_doem, parse_timestamp
from repro.doem.annotations import Add, Cre, Rem, Upd
from repro.doem.build import apply_change_set
from repro.doem.model import DOEMDatabase
from repro.oem.changes import AddArc, CreNode, UpdNode
from repro.oem.history import ChangeSet, OEMHistory
from repro.oem.model import OEMDatabase
from repro.oem.values import COMPLEX
from repro.sources import large_database, large_history
from tests.plan.oracle_range import range_rows
from tests.test_differential_index import make_world

# One template per RangePlan shape; {a}/{m}/{b} are each world's first,
# middle and last history timestamps, {np}.{nl} a node-position path and
# {ap}.{al} / {rl} arc-position labels (see ``labels``).
TEMPLATES = {
    "pinned upd": "select root.{np}.{nl}<upd at {m}>",
    "pinned add": "select X from root.<add at {m}>{rl} X",
    "pinned changed": "select X from root.{np}.{nl}<changed at {m}> X",
    "changed node": "select X, T from root.{np}.{nl}"
                    "<changed at T in [{a}..{b}]> X",
    "changed arc": "select X, T from root.{ap}.<changed at T in [{a}..{m}]>"
                   "{al} X",
    "upd from/to": "select T, OV, NV from root.{np}.{nl}"
                   "<upd at T from OV to NV> where T > {a}",
    "cre interval": "select N, T from root.{np}.{nl}<cre at T> N "
                    "where T > {a} and T <= {b}",
    "add interval": "select R, T from root.<add at T in [{a}..{b}]>{rl} R",
    "rem": "select X, T from root.{ap}.<rem at T>{al} X",
    "qss upd filter": "select root.{np}.{nl}<upd at T> where T > t[-1]",
    "qss add filter": "select X, T from root.{ap}.<add at T>{al} X "
                      "where T > t[-1] and T <= t[0]",
    "last-change node": "select X, T from root.{np}.{nl}<last-change at T> X",
    "last-change arc": "select X, T from root.<last-change at T>{rl} X",
    "last-change deep arc": "select X, T from root.{ap}."
                            "<last-change at T>{al} X",
    "last-change in": "select X, T from root.{np}.{nl}"
                      "<last-change at T in [{a}..{m}]> X",
    "last-change arc in": "select X, T from root.{ap}."
                          "<last-change at T in [{m}..{b}]>{al} X",
    "versions": "select X, T from root.{np}.{nl}<at T in [{a}..{b}]> X",
    # Select lists that decide whether rows are distinct by construction:
    # without the subject, rows repeat and must be deduplicated.
    "versions T": "select T from root.{np}.{nl}<at T in [{a}..{b}]>",
    "versions X": "select X from root.{np}.{nl}<at T in [{a}..{b}]> X",
    "versions T, X": "select T, X from root.{np}.{nl}<at T in [{a}..{b}]> X",
    "versions from middle": "select X, T from root.{np}.{nl}"
                            "<at T in [{m}..{b}]> X",
    "versions no low": "select X, T from root.{np}.{nl}<at T in [..{m}]> X",
    "last-change T": "select T from root.{np}.{nl}<last-change at T>",
    "last-change X": "select X from root.{np}.{nl}<last-change at T> X",
    "last-change T, X": "select T, X from root.{np}.{nl}<last-change at T> X",
    "last-change arc X": "select X from root.{ap}.<last-change at T>{al} X",
    "upd X from/to": "select X, T, OV, NV from root.{np}.{nl}"
                     "<upd at T from OV to NV> X where T > {a}",
}
BENCH_LABELS = {"np": "item", "nl": "price", "ap": "item", "al": "link",
                "rl": "item"}


def labels(doem, rng) -> dict[str, str]:
    """Labels under which this world's annotations sit, so that every
    shape has events to find: ``root.np.nl`` reaches annotated nodes,
    ``root.ap -al->`` and ``root -rl->`` are annotated arcs."""
    graph, root = doem.graph, doem.graph.root
    node_paths = [(up.label, arc.label)
                  for node, _ in doem.annotated_nodes()
                  for arc in graph.in_arcs(node)
                  for up in graph.in_arcs(arc.source) if up.source == root]
    arc_paths = [(up.label, arc.label) for arc, _ in doem.annotated_arcs()
                 for up in graph.in_arcs(arc.source) if up.source == root]
    root_arcs = [arc.label for arc, _ in doem.annotated_arcs()
                 if arc.source == root]
    np_, nl = rng.choice(sorted(set(node_paths)) or [("item", "price")])
    ap, al = rng.choice(sorted(set(arc_paths)) or [("item", "link")])
    rl = rng.choice(sorted(set(root_arcs)) or ["item"])
    return {"np": np_, "nl": nl, "ap": ap, "al": al, "rl": rl}


def queries(history, names: dict[str, str]) -> dict[str, str]:
    times = history.timestamps()
    a, m, b = times[0], times[len(times) // 2], times[-1]
    return {shape: text.format(a=a, m=m, b=b, **names)
            for shape, text in TEMPLATES.items()}


def polled(engine, history) -> None:
    """``t[-1]`` the middle of the history, ``t[0]`` its end."""
    times = history.timestamps()
    engine.set_polling_times({-1: times[len(times) // 2], 0: times[-1]})


def check(engine, text: str) -> int:
    """Assert kernel == oracle, row for row; return the row count."""
    expected = [row.items for row in range_rows(engine, text)]
    served = engine.run(text)
    assert engine.last_plan is not None, f"not index-served: {text}"
    assert [row.items for row in served] == expected, text
    analyzed = engine.run(text, analyze=True)
    assert [row.items for row in analyzed] == expected, text
    return len(expected)


def test_every_shape_matches_the_oracle_on_generated_worlds():
    rows_by_shape = dict.fromkeys(TEMPLATES, 0)
    for seed in range(60):
        _, history, doem = make_world(seed)
        if len(history.timestamps()) < 2:
            continue
        engine = IndexedChorelEngine(doem, name="root")
        polled(engine, history)
        names = labels(doem, random.Random(seed))
        for shape, text in queries(history, names).items():
            rows_by_shape[shape] += check(engine, text)
    # Not vacuous: every shape answered something on some world.
    assert all(rows_by_shape.values()), rows_by_shape


@pytest.fixture(scope="module")
def bench_world():
    """~12k annotations: 500 items, 40 daily change sets of ~300 ops."""
    db = large_database(seed=0, items=500)
    history = large_history(db, seed=0, steps=40, churn=300)
    return db, history


def test_every_shape_matches_the_oracle_at_bench_scale(bench_world):
    db, history = bench_world
    doem = build_doem(db, history)
    assert doem.annotation_count() > 10_000
    engine = IndexedChorelEngine(doem, name="root")
    polled(engine, history)
    for shape, text in queries(history, BENCH_LABELS).items():
        assert check(engine, text), shape


def test_kernel_matches_the_oracle_as_the_doem_grows(bench_world):
    db, history = bench_world
    changes = list(history)
    head = OEMHistory()
    for when, change_set in changes[:-3]:
        head.append(when, change_set)
    doem = build_doem(db, head)
    engine = IndexedChorelEngine(doem, name="root")
    texts = queries(history, BENCH_LABELS)
    for when, change_set in changes[-3:]:
        previous = doem.last_timestamp()
        apply_change_set(doem, when, change_set)
        engine.set_polling_times({-1: previous, 0: when})
        for shape in ("qss upd filter", "qss add filter", "last-change node",
                      "last-change deep arc", "changed arc", "versions"):
            check(engine, texts[shape])


def test_last_change_keeps_the_newest_event_of_either_kind():
    """An arc added, removed and added again, and (hand-built) a node
    updated before its ``cre``: the newest event wins, whatever its kind
    and wherever the scan met it."""
    graph = OEMDatabase(root="root")
    graph.create_node("a", COMPLEX)
    graph.add_arc("root", "item", "a")
    graph.create_node("p", 5)
    graph.add_arc("a", "price", "p")
    doem = DOEMDatabase(graph)
    for annotation in (Add("1Jan97"), Rem("2Jan97"), Add("3Jan97")):
        doem.annotate_arc("root", "item", "a", annotation)
    doem.annotate_node("p", Upd("1Jan97", 4))
    doem.annotate_node("p", Cre("2Jan97"))
    engine = IndexedChorelEngine(doem, name="root")
    for text, newest in (
            ("select X, T from root.<last-change at T>item X", "3Jan97"),
            ("select X, T from root.item.price<last-change at T> X",
             "2Jan97")):
        assert check(engine, text) == 1, text
        assert engine.run(text).first()["last-change-time"] == \
            parse_timestamp(newest), text


def edge_world():
    """Three prices: ``p0`` in the origin, ``p1`` created at 3Jan97 (the
    low bound below), ``p2`` created after it; and one node ``t`` that
    two items link in one change set."""
    db = OEMDatabase(root="root")
    for item in ("a", "b"):
        db.create_node(item, COMPLEX)
        db.add_arc("root", "item", item)
    db.create_node("p0", 1)
    db.add_arc("a", "price", "p0")
    history = OEMHistory()
    for when, ops in (
            ("1Jan97", [UpdNode("p0", 2)]),
            ("3Jan97", [CreNode("p1", 10), AddArc("a", "price", "p1"),
                        UpdNode("p0", 3)]),
            ("5Jan97", [CreNode("p2", 20), AddArc("b", "price", "p2"),
                        CreNode("t", 7), AddArc("a", "link", "t"),
                        AddArc("b", "link", "t")]),
            ("7Jan97", [UpdNode("p1", 11)])):
        history.append(parse_timestamp(when), ChangeSet(ops))
    return IndexedChorelEngine(build_doem(db, history), name="root")


def versions_of(engine, text) -> list[tuple[str, str]]:
    return [(str(row["price"]), str(row["at-time"])) for row in
            engine.run(text)]


@pytest.mark.parametrize("interval, expected", [
    # p0 existed at the bound (its upd there is the same version), p1
    # was created exactly at it, p2 after it.
    ("[3Jan97..7Jan97]", [("&p0", "3Jan97"), ("&p1", "3Jan97"),
                          ("&p1", "7Jan97"), ("&p2", "5Jan97")]),
    # No low bound: no anchor, one version per event.
    ("[..7Jan97]", [("&p0", "1Jan97"), ("&p0", "3Jan97"),
                    ("&p1", "3Jan97"), ("&p1", "7Jan97"),
                    ("&p2", "5Jan97")]),
])
def test_version_anchor_at_and_after_the_low_bound(interval, expected):
    engine = edge_world()
    text = f"select X, T from root.item.price<at T {interval}> X"
    assert check(engine, text) == len(expected)
    assert engine.last_plan.distinct_rows
    assert versions_of(engine, text) == expected
    # Without the subject the versions' times repeat and are deduplicated
    # in first-seen order.
    text = f"select T from root.item.price<at T {interval}>"
    assert not engine.compile(text).index_plan.distinct_rows
    assert check(engine, text) == len(dict.fromkeys(t for _, t in expected))


def test_arc_last_change_of_two_sources_linking_one_target():
    """``a -link-> t`` and ``b -link-> t`` are two subjects with one row."""
    engine = edge_world()
    for text in ("select X, T from root.item.<last-change at T>link X",
                 "select X from root.item.<last-change at T>link X"):
        assert not engine.compile(text).index_plan.distinct_rows, text
        assert check(engine, text) == 1, text
        assert engine.run(text).objects() == ["t"], text
