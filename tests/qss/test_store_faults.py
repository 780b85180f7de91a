"""A store fault fails the poll and leaves no trace (docs/qss.md,
"Durability").

Example 6.1's durable world (``tests/qss/test_durable_restart.py``) runs
once per fault: one ``OSError`` at the k-th segment write (half a frame
reaches the file first) or, in a separate run, at the k-th segment fsync,
for every k the uninterrupted run reaches -- the history's creation and
each poll's append.  Under ``on_error="raise"`` the failed call is made
again; under ``"skip"`` the next poll takes the changes up.  Either way
the served DOEM is the one a restarted server rebuilds from the store,
every restaurant is in it once and every created one is notified once.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import QSSServer, Wrapper, current_snapshot
from repro.store import close_store, open_store
from tests.qss.test_durable_restart import ScriptedGuideSource, \
    example61_subscription
from tests.store.test_append_faults import arm

DEADLINES = ["31Dec96", "1Jan97", "2Jan97", "3Jan97", "4Jan97"]
RESTAURANTS = {"Bangkok Cuisine": 1, "Janta": 1, "Hakata": 1}


def names(db):
    """The names of the restaurants under the root of ``db``."""
    return [db.value(name)
            for _, _, restaurant in db.out_arcs(db.root)
            for _, label, name in db.out_arcs(restaurant) if label == "name"]


def serve(path, on_error, monkeypatch, step, k=None):
    """Run the world with the fault armed; returns the server, what it
    delivered and the calls of ``step`` it made."""
    server = QSSServer(start="30Dec96 10:00am", deliver_empty=True,
                       store=str(path), on_error=on_error)
    server.register_wrapper("guide", Wrapper(ScriptedGuideSource(),
                                             name="guide"))
    delivered = []
    server.subscribe(example61_subscription(), "guide",
                     deliver=delivered.append)
    with monkeypatch.context() as patched:
        calls = arm(patched, step, k)
        for deadline in DEADLINES + DEADLINES[-1:]:  # room for one retry
            try:
                server.run_until(deadline)
            except OSError:
                assert on_error == "raise"
    return server, delivered, calls


@pytest.mark.parametrize("on_error", ["raise", "skip"])
@pytest.mark.parametrize("step", ["write", "fsync"])
def test_one_store_fault_leaves_no_trace(tmp_path, monkeypatch, step,
                                         on_error):
    clean, _, counted = serve(tmp_path / "clean", on_error, monkeypatch,
                              step)
    clean.close()
    close_store(tmp_path / "clean")
    # The origin's write and fsync, then one per non-empty poll.
    assert len(counted) == 3

    for k in range(1, len(counted) + 1):
        path = tmp_path / f"{step}-{k}"
        server, delivered, calls = serve(path, on_error, monkeypatch, step,
                                         k)
        assert len(calls) > k, k
        doem = server.doems.doem("Restaurants")
        assert Counter(names(current_snapshot(doem))) == RESTAURANTS, k
        notified = Counter(name for notification in delivered
                           for name in names(notification.answer))
        assert notified == RESTAURANTS, k
        server.close()
        close_store(path)

        store = open_store(path, "ro")
        assert len(store.names()) == 1, k
        store.log(store.names()[0])  # reopens
        close_store(path)
        restarted = QSSServer(start="4Jan97", store=str(path))
        rebuilt = restarted.doems.doem("Restaurants")
        assert rebuilt.same_as(doem), k
        assert rebuilt.annotation_count() == doem.annotation_count(), k
        restarted.close()
        close_store(path)
