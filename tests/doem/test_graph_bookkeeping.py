"""A DOEM graph's copy-on-write bookkeeping does not grow with the graph.

An :class:`~repro.oem.model.OEMDatabase` notes which nodes' containers
it owns (``_owned``, after a copy) and which nodes may have become
unreachable (``_suspects``, until ``collect_garbage``).  A DOEM graph is
never collected and keeps every node it ever had, so both sets would
grow with it poll after poll.  ``repro.doem.build`` keeps them empty: the
graph owns its containers from the start and drains its suspects after
each change set -- without ever writing the database it was built from.
"""

from __future__ import annotations

import pytest

from repro import QSSServer, RestaurantGuideSource, Subscription, Wrapper
from repro.doem.build import apply_change_set, build_doem
from repro.oem.changes import AddArc, CreNode
from repro.sources.generators import random_database, random_history
from repro.store import close_store
from tests.oem.oracle_model import deep_copy


def serve(path, start: str, until: str) -> QSSServer:
    server = QSSServer(start=start, store=path)
    server.register_wrapper("guide", Wrapper(RestaurantGuideSource(
        seed=13, events_per_day=4.0), name="guide"))
    server.subscribe(Subscription(
        name="S", frequency="every day at 6:00pm",
        polling_query="select guide.restaurant",
        filter_query="select S.restaurant<cre at T> where T > t[-1]"),
        "guide")
    server.run_until(until)
    return server


def assert_no_bookkeeping(graph) -> None:
    assert len(graph) > 300, "the graph grew"
    assert not graph._suspects
    # None: every container the graph's own; else only the origin's root
    # can still be shared.
    assert graph._owned is None or graph._owned <= {"answer"}


@pytest.mark.parametrize("stored", [False, True])
def test_eighty_polls_leave_no_bookkeeping(tmp_path, stored):
    path = str(tmp_path / "st") if stored else None
    server = serve(path, "1Dec96", "20Feb97")
    assert len(server.doems.doem("S").timestamps()) >= 40
    assert_no_bookkeeping(server.doems.doem("S").graph)
    server.close()
    if stored:
        close_store(path)
        # A restart rebuilds the DOEM from the log, then polls on.
        again = serve(path, "20Feb97", "1Mar97")
        assert_no_bookkeeping(again.doems.doem("S").graph)
        again.close()
        close_store(path)


@pytest.mark.parametrize("seed", range(8))
def test_build_doem_never_writes_its_origin(seed):
    origin = random_database(seed=seed, nodes=40)
    history = random_history(origin, seed=seed, steps=6)
    before = deep_copy(origin)
    doem = build_doem(origin, history)
    assert origin.same_as(before)
    assert not doem.graph._suspects and doem.graph._owned is None
    # Nor does a later fold, and writing the origin leaves the DOEM alone.
    apply_change_set(doem, history.timestamps()[-1].plus(days=1),
                     [CreNode("late", 1), AddArc(origin.root, "late", "late")])
    assert origin.same_as(before)
    assert not doem.graph._suspects and doem.graph._owned is None
    rebuilt = build_doem(before, history)
    apply_change_set(rebuilt, history.timestamps()[-1].plus(days=1),
                     [CreNode("late", 1), AddArc(origin.root, "late", "late")])
    for victim in list(origin.nodes())[1:]:
        for _, label, target in list(origin.out_arcs(victim)):
            origin.remove_arc(victim, label, target)
    origin.collect_garbage()
    assert doem.graph.same_as(rebuilt.graph)
