"""A restart between two calls is invisible; a crash inside one repeats,
never loses (the restart contract of docs/qss.md, "Durability").

Each world is run once without interruption and then once per cut:
``k`` calls, ``close()``, ``close_store``, a new server over the same
path with the wrapper registered and the subscriptions made again, the
remaining calls.  The source is the outside world -- it outlives the
server, so both runs see the same sequence of exports.  Everything is
on the simulated clock; nothing here reads the wall clock.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import (
    COMPLEX,
    OEMDatabase,
    QSSServer,
    RestaurantGuideSource,
    Subscription,
    Wrapper,
    parse_timestamp,
)
from repro.store import ChangeLogStore, close_store


class Example61Source:
    """Example 6.1's guide: Hakata opens on 1Jan97, Janta's price moves
    on 2Jan97; every other poll is quiet."""

    def __init__(self):
        self.now = None

    def advance(self, when):
        self.now = parse_timestamp(when)

    def export(self):
        db = OEMDatabase(root="guide")
        atoms = iter(range(1000))
        names = ["Bangkok Cuisine", "Janta"]
        if self.now >= parse_timestamp("1Jan97"):
            names.append("Hakata")
        for index, name in enumerate(names):
            price = 10 * (index + 1)
            if name == "Janta" and self.now >= parse_timestamp("2Jan97"):
                price = 25
            node = db.create_node(f"r{index}", COMPLEX)
            db.add_arc("guide", "restaurant", node)
            for label, value in (("name", name), ("price", price)):
                db.add_arc(node, label,
                           db.create_node(f"a{next(atoms)}", value))
        return db


def subscriptions():
    """Two subscriptions on one polling query and different schedules:
    one DOEM under ``share_by_polling_query``, two without."""
    return [
        Subscription.from_definitions(
            name="Restaurants", frequency="every night at 11:30pm",
            polling="define polling query Restaurants as "
                    "select guide.restaurant",
            filter_="define filter query NewRestaurants as "
                    "select Restaurants.restaurant<cre at T> "
                    "where T > t[-1]"),
        Subscription(
            name="Prices", frequency="every day at 8:00am",
            polling_query="select guide.restaurant",
            filter_query="select OV, NV from Prices.restaurant.price"
                         "<upd at T from OV to NV> where T > t[-1]"),
    ]


WORLDS = {
    # name: (source factory, first clock, last deadline)
    "example61": (Example61Source, "30Dec96 10:00am", "4Jan97"),
    "seeded-guide": (lambda: RestaurantGuideSource(
        seed=13, initial_restaurants=6, events_per_day=2.5),
        "1Dec96", "7Dec96"),
}

CONFIGS = {
    "every-poll": dict(deliver_empty=True),
    "silent-when-empty": dict(deliver_empty=False),
    "shared": dict(deliver_empty=True, share_by_polling_query=True),
    "shared-silent": dict(deliver_empty=False, share_by_polling_query=True),
    "compacting": dict(deliver_empty=True, compact_keep_polls=2),
    "recomputed-previous": dict(deliver_empty=True,
                                cache_previous_result=False),
}


def deadlines(world):
    """One ``run_until`` per polling instant, then one to the end."""
    _, start, end = WORLDS[world]
    last = parse_timestamp(end)
    instants = {when for subscription in subscriptions()
                for when in subscription.frequency.polling_times(start, 12)
                if when < last}
    return sorted(instants) + [last]


class Service:
    """The source, the store path and whichever server is up."""

    def __init__(self, world, path, config):
        factory, self.start, _ = WORLDS[world]
        self.source = factory()
        self.path = path
        self.config = config
        self.delivered = []
        self.server = None
        self.up(self.start)

    def up(self, clock):
        self.server = QSSServer(start=clock, store=str(self.path),
                                **self.config)
        self.server.register_wrapper("guide",
                                     Wrapper(self.source, name="guide"))
        for subscription in subscriptions():
            self.server.subscribe(subscription, "guide",
                                  deliver=self.deliver)

    def deliver(self, notification):
        self.delivered.append((
            notification.subscription, notification.polling_time,
            notification.poll_index,
            tuple(sorted(str(row.items) for row in notification.result))))

    def restart(self):
        clock = self.server.clock
        self.server.close()
        close_store(self.path)
        self.up(clock)

    def crash(self, clock):
        """The process is gone: no ``close()``, nothing recorded since
        the last call that returned.  Time went on meanwhile."""
        close_store(self.path)
        self.up(clock)

    def doems(self):
        return {s.name: self.server.doems.doem(s.name)
                for s in subscriptions()}

    def polling_times(self):
        return {s.name: self.server.subscriptions.get(s.name).polling_times
                for s in subscriptions()}


def run(world, path, config, cut=None):
    service = Service(world, path, config)
    calls = deadlines(world)
    for index, deadline in enumerate(calls):
        if index == cut:
            service.restart()
        service.server.run_until(deadline)
    if cut == len(calls):
        service.restart()
    return service


@pytest.fixture
def paths(tmp_path):
    made = []

    def make():
        made.append(tmp_path / f"st{len(made)}")
        return made[-1]
    yield make
    for path in made:
        close_store(path)


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("world", WORLDS)
def test_restart_at_every_cut_is_invisible(world, config, paths):
    reference = run(world, paths(), CONFIGS[config])
    assert reference.delivered, "a run that notifies nobody checks nothing"
    if CONFIGS[config]["deliver_empty"]:
        assert any(not rows for *_, rows in reference.delivered), \
            "no quiet poll: the cut after one is not exercised"
    for cut in range(len(deadlines(world)) + 1):
        restarted = run(world, paths(), CONFIGS[config], cut)
        assert restarted.delivered == reference.delivered, cut
        assert restarted.polling_times() == reference.polling_times(), cut
        for name, doem in reference.doems().items():
            assert restarted.doems()[name].same_as(doem), (cut, name)


def test_the_compacting_run_forgets_identifiers(paths):
    """The compacting configuration only tests identifier minting across
    a restart if compaction really drops nodes -- whose identifiers an
    uninterrupted server must then not keep reserved on its own."""
    full = run("seeded-guide", paths(), CONFIGS["every-poll"])
    compacted = run("seeded-guide", paths(), CONFIGS["compacting"])
    for name, doem in full.doems().items():
        assert len(compacted.doems()[name].graph) < len(doem.graph), name


@pytest.mark.parametrize("config", ["every-poll", "shared-silent"])
@pytest.mark.parametrize("world", WORLDS)
def test_crash_inside_a_call_repeats_but_never_loses(world, config, paths,
                                                     monkeypatch):
    """The manifest write of the ``j``-th call raises and the server is
    abandoned.  Every row the uninterrupted run delivers is delivered;
    what is delivered twice comes from polls after the last recorded
    state; the stored histories are the uninterrupted run's."""
    reference = run(world, paths(), CONFIGS[config])
    wanted = Counter((name, row) for name, _, _, rows in reference.delivered
                     for row in rows)
    calls = deadlines(world)
    record = ChangeLogStore.record_subscriptions

    class Crash(Exception):
        pass

    for j in range(len(calls) - 1):  # the last call polls nothing
        writes = []

        def failing(store, records):
            writes.append(records)
            if len(writes) == j + 1:
                raise Crash(j)
            record(store, records)

        monkeypatch.setattr(ChangeLogStore, "record_subscriptions", failing)
        service = Service(world, paths(), CONFIGS[config])
        recorded = {}
        crashed = False
        for deadline in calls:
            try:
                service.server.run_until(deadline)
            except Crash:
                crashed = True
                recorded = service.server.store.subscriptions()
                service.crash(deadline)
        assert crashed, j
        monkeypatch.setattr(ChangeLogStore, "record_subscriptions", record)

        got = Counter((name, row) for name, _, _, rows in service.delivered
                      for row in rows)
        assert not wanted - got, (j, wanted - got)
        since = {name: parse_timestamp(r["polling_times"][-1])
                 for name, r in recorded.items()}
        repeatable = {(name, row)
                      for name, when, _, rows in reference.delivered
                      if name not in since or when > since[name]
                      for row in rows}
        assert set(got - wanted) <= repeatable, (j, got - wanted)
        for name, doem in reference.doems().items():
            assert service.doems()[name].same_as(doem), (j, name)
