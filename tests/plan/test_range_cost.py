"""The range kernel's cost follows its answer, not the history.

On a world of ~12k annotations, one ``<last-change at T>`` execution and
one 31-day ``<changed ... in [a..b]>`` execution each make at most two
``PathIndex.nodes`` lookups (the path's prefix set, looked up once; a
per-event verifier makes one per candidate event), and build no
``upd_triples`` list and no ``arc_annotations`` tuple: an event is checked
by one set membership and a direct liveness read, and an ``upd`` reads its
old/new pair from the node's annotation list -- only when the select list
names it.  A bench-shaped 10-day version query reads no node's ``cre``
times (the anchor is one index scan) and hashes no ``Timestamp``: its
rows are distinct by construction, so no dedup set is built.
"""

from __future__ import annotations

import pytest

from repro import IndexedChorelEngine, build_doem
from repro.doem.model import DOEMDatabase
from repro.lore.indexes import PathIndex
from repro.sources import large_database, large_history
from repro.timestamps import Timestamp

COUNTED = ((PathIndex, "nodes"), (DOEMDatabase, "upd_triples"),
           (DOEMDatabase, "arc_annotations"), (DOEMDatabase, "cre_times"),
           (DOEMDatabase, "upd_pair"), (Timestamp, "__hash__"))


@pytest.fixture(scope="module")
def engine():
    db = large_database(seed=0, items=500)
    history = large_history(db, seed=0, steps=40, churn=300)
    doem = build_doem(db, history)
    assert 11_000 <= doem.annotation_count() <= 13_000
    return IndexedChorelEngine(doem, name="root")


def counted_run(engine, text, monkeypatch) -> tuple[int, dict]:
    """Rows and per-method call counts of one execution of ``text``."""
    engine.run(text)  # warm: the path sets are memoized from here on
    calls = dict.fromkeys((name for _, name in COUNTED), 0)
    for owner, name in COUNTED:
        original = getattr(owner, name)

        def wrapper(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
    rows = len(engine.run(text))
    monkeypatch.undo()
    assert engine.last_plan is not None, text
    return rows, calls


@pytest.mark.parametrize("text", [
    "select X, T from root.item.price<last-change at T> X",
    "select X, T from root.item.price"
    "<changed at T in [6Jan97..6Feb97]> X",
])
def test_range_execution_costs_its_answer(engine, text, monkeypatch):
    rows, calls = counted_run(engine, text, monkeypatch)
    assert rows > 500, rows  # a wide answer, so a per-event cost shows
    assert calls["nodes"] <= 2, calls
    assert calls["upd_triples"] == 0, calls
    assert calls["arc_annotations"] == 0, calls


def test_version_query_reads_no_cre_and_hashes_no_timestamp(engine,
                                                            monkeypatch):
    text = "select X, T from root.item.price<at T in [20Jan97..29Jan97]> X"
    rows, calls = counted_run(engine, text, monkeypatch)
    assert rows > 500, rows
    assert calls["nodes"] <= 2, calls
    assert calls["cre_times"] == 0, calls
    assert calls["__hash__"] == 0, calls


def test_upd_pair_is_read_only_when_selected(engine, monkeypatch):
    _, calls = counted_run(
        engine, "select X, T from root.item.price<last-change at T> X",
        monkeypatch)
    assert calls["upd_pair"] == 0, calls
    rows, calls = counted_run(
        engine, "select X, T, OV, NV from root.item.price"
        "<upd at T from OV to NV> X where T > 20Jan97", monkeypatch)
    assert rows > 500, rows
    assert calls["upd_pair"] == rows, calls  # one per kept event
