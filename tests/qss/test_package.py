"""Notification packaging reads the held polling result, not a fresh
walk of the DOEM -- and answers exactly what the walk answered."""

from __future__ import annotations

import pytest

from repro import (
    COMPLEX,
    OEMDatabase,
    QSSServer,
    Subscription,
    Wrapper,
    parse_timestamp,
)
from repro.doem.snapshot import current_snapshot
from repro.lorel.result import ObjectRef
from repro.store import close_store

# Restaurants listed from each date on.  Janta -> Zao reads as a rename;
# Hakata leaving on 2Jan97 is a removal whose target dies.
TIMELINE = [("30Dec96", ["Bangkok", "Janta", "Hakata"]),
            ("1Jan97", ["Bangkok", "Hakata", "Zao"]),
            ("2Jan97", ["Bangkok", "Zao"]),
            ("3Jan97", ["Bangkok", "Zao", "Hakata"])]


class TimelineSource:
    def __init__(self) -> None:
        self.now = None

    def advance(self, when) -> None:
        self.now = parse_timestamp(when)

    def export(self) -> OEMDatabase:
        names: list[str] = []
        for date, listed in TIMELINE:
            if self.now is not None and self.now >= parse_timestamp(date):
                names = listed
        db = OEMDatabase(root="guide")
        for index, name in enumerate(names):
            node = db.create_node(f"r{index}", COMPLEX)
            db.add_arc("guide", "restaurant", node)
            db.add_arc(node, "name", db.create_node(f"a{index}", name))
        return db


def subscription(name: str, hour: int, filter_query: str) -> Subscription:
    return Subscription(
        name=name, frequency=f"every day at {hour}:00am",
        polling_query="select guide.restaurant",
        filter_query=filter_query.format(name=name), polling_name=name)


REMOVED = "select {name}.<rem at T>restaurant where T > t[-1]"
CREATED = "select {name}.restaurant<cre at T> where T > t[-1]"


def walked_package(server: QSSServer, name: str, filtered) -> OEMDatabase:
    """``QSSServer._package`` as it was: materialise the DOEM's tip."""
    doem = server.doems.doem(name)
    snapshot = current_snapshot(doem)
    for row in filtered:
        for _, value in row.items:
            if isinstance(value, ObjectRef) and \
                    not snapshot.has_node(value.node):
                snapshot.create_node(value.node,
                                     doem.graph.value(value.node))
    return filtered.as_oem(snapshot, root="notification")


@pytest.fixture
def packaged(monkeypatch):
    """Every ``(answer, what the walk answers, rows)`` a test's polls package."""
    seen = []
    package = QSSServer._package

    def checked(self, name, filtered):
        answer = package(self, name, filtered)
        seen.append((answer, walked_package(self, name, filtered),
                     len(filtered)))
        # The held result is still the tip: no value-only node leaked in.
        assert self.doems.previous_result(name).same_as(
            current_snapshot(self.doems.doem(name)))
        return answer

    monkeypatch.setattr(QSSServer, "_package", checked)
    return seen


def make_server(**options) -> QSSServer:
    server = QSSServer(start="30Dec96", deliver_empty=True, **options)
    server.register_wrapper("guide", Wrapper(TimelineSource(), name="guide"))
    return server


def assert_same_answers(packaged, polls: int, dead_rows: int) -> None:
    assert len(packaged) == polls
    for answer, walked, _ in packaged:
        assert answer.same_as(walked), (answer.describe(), walked.describe())
    assert sum(rows for _, _, rows in packaged) >= dead_rows


@pytest.mark.parametrize("cache", [True, False])
def test_dead_targets_of_a_rem_filter(packaged, cache):
    server = make_server(cache_previous_result=cache)
    server.subscribe(subscription("Gone", 6, REMOVED), "guide")
    notifications = server.run_until("4Jan97")
    assert_same_answers(packaged, polls=5, dead_rows=1)
    # Hakata's object left the result on 2Jan97 and is packaged value-only.
    gone = notifications[3]
    assert len(gone.result) == 1
    (node,) = gone.answer.children("notification", "restaurant")
    assert not gone.answer.has_children(node)
    assert not server.doems.previous_result("Gone").has_node(node)


def test_shared_doem_alias(packaged):
    server = make_server(share_by_polling_query=True)
    server.subscribe(subscription("A", 6, REMOVED), "guide")
    server.subscribe(subscription("B", 7, CREATED), "guide")
    assert server.doems.shared_with("A") == ["B"]
    server.run_until("4Jan97")
    assert_same_answers(packaged, polls=10, dead_rows=2)


def test_after_a_restart(packaged, tmp_path):
    path = tmp_path / "st"
    try:
        first = make_server(store=str(path))
        first.subscribe(subscription("Gone", 6, REMOVED), "guide")
        first.run_until("1Jan97 12:00pm")
        first.close()
        # The restarted server holds no polling result until its first poll.
        second = QSSServer(start="1Jan97 12:00pm", deliver_empty=True,
                           store=str(path))
        source = TimelineSource()
        second.register_wrapper("guide", Wrapper(source, name="guide"))
        second.subscribe(subscription("Gone", 6, REMOVED), "guide")
        second.run_until("4Jan97")
        second.close()
    finally:
        close_store(path)
    assert_same_answers(packaged, polls=5, dead_rows=1)
