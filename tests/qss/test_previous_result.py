"""``R_{i-1}`` under ``differ="ids"`` is the aligned polling result itself.

The manager keeps the result it diffed against as the next poll's
previous result instead of rebuilding it (copy + apply).  Over a 30-poll
stream whose source keeps its identifiers (and reuses those of collected
nodes, so returning identifiers are renamed too), each poll checks that
the kept result is ``U(R_{i-1})``, that nothing after the diff -- filter,
packaging, delivery, the source moving on -- writes it, and that the
recomputed-previous strategy notifies the same.
"""

from __future__ import annotations

import pytest

from repro import QSSServer, Subscription, Wrapper, parse_timestamp
from repro.oem.serialize import dumps, loads
from repro.sources.generators import random_change_set, random_database

DAYS = 30


class EvolvingSource:
    """A random database changed by one random set per day; identifiers
    are kept, and those of collected nodes may be minted again."""

    def __init__(self, seed):
        self.db = random_database(seed=seed, nodes=40, extra_arc_ratio=0.4)
        self.seed = seed
        self.day = 0

    def advance(self, when):
        while parse_timestamp("1Jan97").plus(days=self.day + 1) \
                <= parse_timestamp(when):
            self.day += 1
            random_change_set(self.db, seed=self.seed * 1000 + self.day,
                              size=8).apply_to(self.db)

    def export(self):
        return self.db.copy()


def state(db):
    """What must not move: values, arcs, their count."""
    return db.root, dict(zip(db.nodes(), map(db.value, db.nodes()))), \
        {(source, label, target) for source in db.nodes()
         for label, targets in db.out_map(source).items()
         for target in targets}, db.arc_count()


def serve(seed, cache, checks=None):
    server = QSSServer(start="1Jan97", deliver_empty=True,
                       cache_previous_result=cache)
    server.doems.differ = "ids"
    server.register_wrapper("src", Wrapper(EvolvingSource(seed), name="root"))
    delivered = []

    def deliver(notification):
        if checks is not None:
            checks(notification)
        delivered.append((str(notification.polling_time), sorted(
            str(row.items) for row in notification.result)))

    for label in ("a", "b"):
        server.subscribe(Subscription(
            name=f"S{label}", frequency="every day at 9:00am",
            polling_query=f"select root.{label}",
            filter_query=f"select S{label}.<add at T>{label} "
                         f"where T > t[-1]"), "src", deliver=deliver)
    return server, delivered


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_kept_result_is_u_of_the_previous_one(seed):
    manager = None
    kept = {}  # name -> state of the kept result after its poll
    renamed = []

    def checks(notification):
        # After filter and packaging, before the next poll.
        name = notification.subscription
        assert state(manager._previous[name]) == kept[name]

    server, _ = serve(seed, cache=True, checks=checks)
    manager = server.doems
    incorporate = manager.incorporate

    def checked(name, when, result):
        if name in kept:  # nothing wrote it since (the source moved on)
            assert state(manager._previous[name]) == kept[name]
        before = loads(dumps(manager.previous_result(name)))
        change_set = incorporate(name, when, result)
        change_set.apply_to(before)
        assert manager._previous[name].same_as(before)
        kept[name] = state(manager._previous[name])
        renamed.extend(node for node in manager._previous[name].nodes()
                       if "~" in node)
        return change_set

    manager.incorporate = checked
    server.run_until(parse_timestamp("1Jan97").plus(days=DAYS))
    assert server.subscriptions.get("Sa").poll_count == DAYS
    assert server.error_log == []
    if seed == 1:
        assert renamed, "no returning identifier: the rename is unexercised"


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_recomputing_the_previous_result_notifies_the_same(seed):
    end = parse_timestamp("1Jan97").plus(days=DAYS)
    cached, cached_delivered = serve(seed, cache=True)
    cached.run_until(end)
    recomputed, recomputed_delivered = serve(seed, cache=False)
    recomputed.run_until(end)
    assert any(rows for _, rows in cached_delivered)
    assert recomputed_delivered == cached_delivered
    for name in ("Sa", "Sb"):
        assert recomputed.doems.doem(name).same_as(cached.doems.doem(name))
