"""Golden-file tests for the optimizer's EXPLAIN output.

One golden per planner behavior worth pinning -- index selection over a
bounded interval, the ``<upd ... from ... to ...>`` row shape, the
degenerate literal-pin interval, predicate reordering, filter fusion
(the polling query's selective ``where`` tested inside its walk), the wildcard
fallback that must *not* select the index, virtual ``<at t[0]>``
expansion against the polling table, and the cross-time range rewrite
(a narrow, a wide and an open-ended range, all index scans, plus the
``VersionJoin`` terminal for ``<at [a..b]>``), and the translating
backend's time-column scan (``translated_*``).  A rule change that
alters the optimized tree or the pass-firing report shows up as a
reviewable diff, not a silent plan shift.

To update a golden intentionally, delete it and re-run with
``REGEN_GOLDENS=1``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import (
    ChorelEngine,
    IndexedChorelEngine,
    TranslatingChorelEngine,
    build_doem,
)
from tests.conftest import make_guide_db, make_guide_history
from tests.goldens import assert_golden

GOLDENS = Path(__file__).resolve().parent / "goldens"

# name -> (query, polling_times)
CASES = {
    "indexed_add_interval": (
        "select guide.<add at T>restaurant where T < 4Jan97", None),
    "indexed_upd_from_to": (
        "select T, OV, NV from guide.restaurant.price"
        "<upd at T from OV to NV> where T >= 1Jan97", None),
    "literal_pin": (
        "select guide.<add at 5Jan97>restaurant", None),
    "predicate_reorder": (
        'select N from guide.restaurant R, R.name N '
        'where guide.restaurant.price < 20.5 and N = "Janta"', None),
    # The QSS polling-query shape: the name test rides on the walk.
    "filter_fusion": (
        'select guide.restaurant where guide.restaurant.name = "Janta"',
        None),
    "wildcard_fallback": (
        "select guide.#.comment<cre at T>", None),
    "virtual_at_polling": (
        "select guide.<add at t[0]>restaurant", {0: "5Jan97"}),
    # Cross-time range rewrite: every width takes the merged
    # timestamp-index scan.
    "range_narrow_index": (
        "select T from guide.restaurant.price"
        "<changed at T in [1Jan97..5Jan97]>", None),
    "range_wide": (
        "select X, T from guide.restaurant"
        "<changed at T in [1Jan97..1Mar97]> X", None),
    "range_last_change": (
        "select X, T from guide.restaurant <last-change at T> X", None),
    "range_versions_join": (
        "select X from guide.restaurant.price <at [1Jan97..9Jan97]> X",
        None),
    # The translated pipeline-benchmark shape: one day of updates.
    "translated_time_column": (
        "select guide.restaurant.price<upd at T> "
        "where T > 31Dec96 and T <= 1Jan97", None),
}


@pytest.fixture(scope="module")
def doem():
    return build_doem(make_guide_db(), make_guide_history())


def planned_engine(name: str, doem):
    if name.startswith("translated_"):
        return TranslatingChorelEngine(doem, name="guide")
    return IndexedChorelEngine(doem, name="guide")


def explain(name: str, doem) -> str:
    query, polling = CASES[name]
    engine = planned_engine(name, doem)
    if polling:
        engine.set_polling_times(polling)
    compiled = engine.compile(query)
    return f"query:\n{query}\n\nexplain:\n{compiled.explain()}\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_explain_matches_golden(name, doem):
    assert_golden(GOLDENS / f"{name}.txt", explain(name, doem))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_queries_still_evaluate(name, doem):
    """The pinned plans are executable, and agree with the naive engine."""
    query, polling = CASES[name]
    naive = ChorelEngine(doem, name="guide")
    indexed = planned_engine(name, doem)
    if polling:
        naive.set_polling_times(polling)
        indexed.set_polling_times(polling)
    assert sorted(map(str, indexed.run(query))) == \
        sorted(map(str, naive.run(query)))


def test_every_case_has_a_golden():
    # analyze_*.txt belong to the EXPLAIN ANALYZE suite
    # (test_analyze_goldens.py), which keeps its own completeness check.
    stems = {path.stem for path in GOLDENS.glob("*.txt")
             if not path.stem.startswith("analyze_")}
    assert stems == set(CASES), \
        "keep one golden file per pinned planner behavior"
