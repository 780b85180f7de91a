"""Translated rows over the encoding view equal those over the encoding
built.

:class:`~tests.chorel.oracle_translate.MaterialisedTranslatingEngine`
runs the same translation over ``encode_doem(doem).oem``; the engine
runs it over an :class:`~repro.doem.encoding.EncodingView`.  Both must
give the same rows in the same order, through the planner at batch
widths 1, 7 and 64 and depth-first, on every shape the time-column pass
serves, on the shapes it leaves alone, and on the paper's guide.
"""

from __future__ import annotations

import pytest

from repro import CreNode, TranslatingChorelEngine, build_doem
from repro.doem.build import apply_change_set
from repro.lorel.result import ObjectRef
from tests.chorel.oracle_translate import (
    MaterialisedOracle,
    MaterialisedTranslatingEngine,
    TranslatingOracle,
)
from tests.chorel.test_translate import EQUIVALENCE_QUERIES
from tests.chorel.test_translate_intervals import (
    polling,
    served_queries,
    world,
)
from tests.conftest import make_guide_db, make_guide_history
from tests.plan.test_batched_equivalence import run_at_width

WIDTHS = (1, 7, 64)

GUIDE_QUERIES = EQUIVALENCE_QUERIES + [
    # The encoding's own labels, reached by name.
    "select X from guide.&orphan X",
    "select T from guide.restaurant.&price-history.&add T",
    "select V from guide.restaurant.price.&val V",
    "select X from guide.% X",
    "select X from guide.#.&cre X",
]


def engines(doem, name, times=None):
    made = (TranslatingChorelEngine(doem, name=name),
            MaterialisedTranslatingEngine(doem, name=name),
            TranslatingOracle(doem, name=name),
            MaterialisedOracle(doem, name=name))
    for engine in made:
        engine.set_polling_times(times or {})
    return made


def mapped(engine, result) -> list[str]:
    """The rows as text, a derived object shown by its value: the view's
    ids and the built encoding's differ, DOEM identifiers do not."""
    graph, value = engine.doem.graph, engine.view.value
    return [str([(label, ("derived", value(item.node))
                  if isinstance(item, ObjectRef)
                  and not graph.has_node(item.node) else str(item))
                 for label, item in row.items])
            for row in result]


def assert_same_rows(made, query) -> list[str]:
    view, built, view_oracle, built_oracle = made
    expected = mapped(built_oracle, built_oracle.run(query))
    assert mapped(view_oracle, view_oracle.run(query)) == expected, query
    for width in WIDTHS:
        for engine in (built, view):
            assert mapped(engine, run_at_width(engine, query, width)) \
                == expected, (width, query)
    return expected


@pytest.mark.parametrize("seed", (0, 1, 2, 5, 8))
def test_served_shapes(seed):
    history, doem = world(seed)
    made = engines(doem, "root", polling(history))
    queries = served_queries(history, doem)
    answered = sum(bool(assert_same_rows(made, query)) for query in queries)
    assert answered >= len(queries) // 3


def test_the_guide():
    doem = build_doem(make_guide_db(), make_guide_history())
    apply_change_set(doem, "9Jan97", [CreNode("stray", "lost")])
    made = engines(doem, "guide", {-1: "2Jan97", 0: "5Jan97"})
    assert assert_same_rows(made, "select X from guide.&orphan X")
    for query in GUIDE_QUERIES:
        assert_same_rows(made, query)


def test_a_moved_doem():
    """Both engines follow the fold: a new view, a new encoding."""
    history = make_guide_history()
    doem = build_doem(make_guide_db(), history.prefix("5Jan97"))
    made = engines(doem, "guide")
    query = "select R, T from guide.restaurant.<rem at T>parking R"
    assert not assert_same_rows(made, query)
    for when, change_set in history.entries()[len(history.prefix("5Jan97")):]:
        apply_change_set(doem, when, change_set)
    assert assert_same_rows(made, query)
