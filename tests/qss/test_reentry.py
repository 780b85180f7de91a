"""An object that leaves a polling result and comes back, under
``differ="ids"`` (docs/qss.md, "Stable identifiers").

Section 2.2 never reuses the identifier of a deleted node, so the
returning object is a new DOEM object: ``creNode`` under the first of
``n``, ``n~1``, ``n~2``, ... that is live in ``R_{i-1}`` or unknown to the
DOEM graph, and ``Ot(D)`` between its exit and its return shows no node
for it.
"""

from __future__ import annotations

import pytest

from repro import (
    COMPLEX,
    OEMDatabase,
    QSSServer,
    Subscription,
    Wrapper,
    parse_timestamp,
    snapshot_at,
)
from repro.errors import QSSError
from repro.lorel.result import ObjectRef


class ReturningSource:
    """Janta (``r0``) stays; Hakata (``r1``) is unlinked on 2Jan97,
    relinked on 4Jan97, unlinked on 6Jan97 and relinked on 8Jan97, under
    the same identifiers each time.  ``extra`` nodes join from 5Jan97."""

    AWAY = [("2Jan97", "4Jan97"), ("6Jan97", "8Jan97")]

    def __init__(self, extra=()):
        self.now = None
        self.extra = list(extra)

    def advance(self, when):
        self.now = parse_timestamp(when)

    def away(self):
        return any(parse_timestamp(left) <= self.now < parse_timestamp(back)
                   for left, back in self.AWAY)

    def export(self):
        db = OEMDatabase(root="guide")
        rows = [("r0", "Janta", 10), ("r1", "Hakata", 20)]
        if self.now >= parse_timestamp("5Jan97"):
            rows += [(node, node, 1) for node in self.extra]
        for node, name, price in rows:
            db.create_node(node, COMPLEX)
            if node != "r1" or not self.away():
                db.add_arc("guide", "restaurant", node)
            db.add_arc(node, "name", db.create_node(f"{node}_nm", name))
            db.add_arc(node, "price", db.create_node(f"{node}_pr", price))
        return db


def serve(source, **config):
    server = QSSServer(start="1Jan97", on_error="skip", **config)
    server.doems.differ = "ids"
    server.register_wrapper("guide", Wrapper(source, name="guide"))
    server.subscribe(Subscription(
        name="S", frequency="every day at 9:00am",
        polling_query="select guide.restaurant",
        filter_query="select S.restaurant<cre at T> where T > t[-1]"),
        "guide")
    return server


def created(notifications):
    """Polling day -> the restaurants its notification reports created."""
    return {str(n.polling_time).split()[0]: sorted(
        value.node for row in n.result for _, value in row.items
        if isinstance(value, ObjectRef)) for n in notifications}


@pytest.mark.parametrize("cache", [True, False])
def test_a_returning_object_is_created_afresh(cache):
    server = serve(ReturningSource(), cache_previous_result=cache)
    notifications = server.run_until("9Jan97")
    assert server.error_log == []
    assert created(notifications) == {"1Jan97": ["r0", "r1"],
                                      "4Jan97": ["r1~1"],
                                      "8Jan97": ["r1~2"]}
    doem = server.doems.doem("S")
    for day, live in [("1Jan97", {"r1"}), ("3Jan97", set()),
                      ("4Jan97", {"r1~1"}), ("5Jan97", {"r1~1"}),
                      ("7Jan97", set()), ("8Jan97", {"r1~2"})]:
        snapshot = snapshot_at(doem, parse_timestamp(f"{day} 10:00am"))
        hakata = {node for node in snapshot.nodes()
                  if node.split("~")[0] == "r1"}
        assert hakata == live, day
        assert "r0" in snapshot, day
    current = server.doems.previous_result("S")
    assert current.value("r1_nm~2") == "Hakata"
    assert current.has_arc("r1~2", "price", "r1_pr~2")


def test_the_returning_object_keeps_its_new_identifier():
    """Between its returns the object stays ``r1~1``: a quiet poll after
    the return creates nothing."""
    server = serve(ReturningSource())
    server.run_until("6Jan97")
    change_set = server.doems.incorporate(
        "S", "5Jan97 11:00am", server.queries.poll(
            server.subscriptions.get("S"), "5Jan97 11:00am"))
    assert len(change_set) == 0
    assert "r1~1" in server.doems.previous_result("S")


def test_a_source_identifier_with_the_separator_is_refused():
    server = serve(ReturningSource(extra=["r~9"]))
    server.run_until("6Jan97")
    (when, name, error), = server.error_log
    assert (str(when).split()[0], name) == ("5Jan97", "S")
    assert isinstance(error, QSSError) and "'r~9'" in str(error)


def test_the_root_is_renamed_by_the_same_rename():
    """A wrapper whose result root is not ``answer`` is aligned to the
    DOEM's root; the result's own nodes keep their identifiers."""
    from repro.qss.managers import DOEMManager

    manager = DOEMManager(differ="ids")
    source = ReturningSource()
    for day in ("1Jan97", "2Jan97", "4Jan97"):
        source.advance(day)
        manager.incorporate("S", day, source.export())
    kept = manager.previous_result("S")
    assert kept.root == "answer" and "guide" not in kept
    assert set(kept.children("answer", "restaurant")) == {"r0", "r1~1"}
