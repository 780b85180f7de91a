"""Row order is part of each engine's contract (docs/query-planner.md).

Index-served rows come in the range kernel's global order: change
events by ``(time, kind, subject)``, versions (``<at T in [a..b]>``)
node by node in identifier order, each node's versions in time order.
Engines that walk paths -- ``ChorelEngine``, the translating engine and
every engine with ``use_planner=False`` -- return path order: the live
arcs in data order, each node's annotations in time order.  The rows
themselves are the same multiset on every engine.

The generated world's churn updates prices all over the data order, so
time order is not path order here (the multiset test checks they differ);
the equivalence suites compare engines over worlds where they coincide.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import (ChorelEngine, IndexedChorelEngine, POS_INF,
                   TranslatingChorelEngine, parse_timestamp)
from repro.sources.generators import large_world

CHANGED = "select X, T from root.item.price<changed at T in [2Jan97..5Jan97]> X"
UPDATED = "select X, T from root.item.price<upd at T> X where T > 2Jan97"
VERSIONS = "select X, T from root.item.price<at T in [2Jan97..5Jan97]> X"


@pytest.fixture(scope="module")
def doem():
    return large_world(seed=0, items=60, extra_links=10, steps=5,
                       churn=20)[2]


def rows(result):
    """``(node, time)`` per row, in the order the engine returned them."""
    return [(row.items[0][1].node, row.items[1][1]) for row in result]


def indexed_rows(doem, query):
    engine = IndexedChorelEngine(doem, name="root")
    found = rows(engine.run(query))
    assert engine.last_plan is not None, query
    return found


def path_engines(doem, query):
    engines = {
        "native": ChorelEngine(doem, name="root"),
        "native-oracle": ChorelEngine(doem, name="root", use_planner=False),
        "indexed-oracle": IndexedChorelEngine(doem, name="root",
                                              use_planner=False),
    }
    if query == UPDATED:  # the one shape here with a Lorel translation
        engines["translate"] = TranslatingChorelEngine(doem, name="root")
    return {name: rows(engine.run(query)) for name, engine in engines.items()}


def walked_updates(doem, after):
    """Path order spelled out for UPDATED: live ``item`` arcs from the
    root in data order, then their live ``price`` arcs, then each price's
    updates in time order."""
    found = []
    for _, item in doem.live_children(doem.graph.root, POS_INF, "item"):
        for _, price in doem.live_children(item, POS_INF, "price"):
            found += [(price, when) for when, _, _ in doem.upd_triples(price)
                      if when > after]
    return found


@pytest.mark.parametrize("query", [CHANGED, UPDATED])
def test_index_served_events_come_in_time_kind_subject_order(doem, query):
    found = indexed_rows(doem, query)

    def kind(node, when):
        return 0 if when in doem.cre_times(node) else 1
    assert found == sorted(found, key=lambda row: (row[1], kind(*row),
                                                   row[0]))


def test_index_served_versions_come_node_by_node(doem):
    found = indexed_rows(doem, VERSIONS)
    assert found == sorted(found)


@pytest.mark.parametrize("query", [CHANGED, UPDATED, VERSIONS])
def test_path_walking_engines_return_path_order(doem, query):
    found = path_engines(doem, query)
    walked = found.pop("native-oracle")
    for name, other in found.items():
        assert other == walked, name
    if query == UPDATED:
        assert walked == walked_updates(doem, parse_timestamp("2Jan97"))


@pytest.mark.parametrize("query", [CHANGED, UPDATED, VERSIONS])
def test_same_rows_on_every_engine_in_different_orders(doem, query):
    indexed = indexed_rows(doem, query)
    walked = path_engines(doem, query)
    assert indexed != walked["native"]  # the world tells the orders apart
    for name, other in walked.items():
        assert Counter(other) == Counter(indexed), name
