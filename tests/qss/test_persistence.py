"""The Figure 7 stores across a restart: one change-log store holds both.

What ``save_server`` / ``load_server`` checked, on the mechanism that
replaced them: a store-backed server records its subscriptions before
each call returns, and a new server over the same store resumes one by
subscribing it again (docs/qss.md, "Durability").
"""

import pytest

from repro import (
    COMPLEX,
    OEMDatabase,
    QSSServer,
    Subscription,
    Wrapper,
    parse_timestamp,
)
from repro.errors import SubscriptionError
from repro.store import close_store, open_store


class ScriptedSource:
    """A source whose content is keyed by date thresholds."""

    def __init__(self):
        self.now = None

    def advance(self, when):
        self.now = parse_timestamp(when)

    def export(self):
        db = OEMDatabase(root="guide")
        names = ["Janta"]
        if self.now is not None and self.now >= parse_timestamp("1Jan97"):
            names.append("Hakata")
        if self.now is not None and self.now >= parse_timestamp("5Jan97"):
            names.append("Zibibbo")
        for index, name in enumerate(names):
            node = db.create_node(f"r{index}", COMPLEX)
            db.add_arc("guide", "restaurant", node)
            atom = db.create_node(f"a{index}", name)
            db.add_arc(node, "name", atom)
        return db


def subscription(name="S", hour=9):
    return Subscription(
        name=name, frequency=f"every day at {hour}:00am",
        polling_query="select guide.restaurant",
        filter_query=f"select {name}.restaurant<cre at T> where T > t[-1]")


def make_server(start="30Dec96", subscribe=True, **kwargs):
    server = QSSServer(start=start, deliver_empty=True, **kwargs)
    server.register_wrapper("guide", Wrapper(ScriptedSource(), name="guide"))
    if subscribe:
        server.subscribe(subscription(), "guide")
    return server


@pytest.fixture
def path(tmp_path):
    yield tmp_path / "st"
    close_store(tmp_path / "st")


def stop(server, path):
    server.close()
    close_store(path)


class TestSaveLoad:
    def test_restart_continues_timeline(self, path):
        """Stop after Hakata, restart, observe only Zibibbo -- the DOEM
        history and the t[-1] schedule both survived."""
        server = make_server(store=path)
        first_half = server.run_until("2Jan97")
        # polls at 30Dec/31Dec/1Jan 9am: initial Janta, nothing, Hakata
        assert [len(n.result) for n in first_half] == [1, 0, 1]
        stop(server, path)

        restored = make_server(start="2Jan97", store=path)
        second_half = restored.run_until("6Jan97")
        # 2Jan .. 4Jan: nothing; 5Jan: Zibibbo appears
        assert [len(n.result) for n in second_half] == [0, 0, 0, 1]
        assert [n.poll_index for n in second_half] == [4, 5, 6, 7]

    def test_clock_and_schedule_survive(self, path):
        server = make_server(store=path)
        server.run_until("2Jan97")
        original = server.subscriptions.get("S")
        stop(server, path)
        # The clock is the caller's (``start=``); the schedule follows
        # the later of it and the last recorded poll.
        revived = make_server(start=server.clock, store=path) \
            .subscriptions.get("S")
        assert revived.next_poll == original.next_poll
        assert revived.polling_times == original.polling_times
        close_store(path)
        late = make_server(start="4Jan97 10:00am", store=path) \
            .subscriptions.get("S")
        assert late.next_poll == parse_timestamp("5Jan97 9:00am")
        assert late.polling_times == original.polling_times

    def test_doem_history_survives_exactly(self, path):
        server = make_server(store=path)
        server.run_until("2Jan97")
        stop(server, path)
        restored = make_server(start="2Jan97", store=path)
        assert restored.doems.doem("S").same_as(server.doems.doem("S"))

    def test_sharing_structure_survives(self, path):
        def shared_server(start):
            server = make_server(start, subscribe=False, store=path,
                                 share_by_polling_query=True)
            for name, hour in (("A", 6), ("B", 7)):
                server.subscribe(subscription(name, hour), "guide")
            return server

        server = shared_server("30Dec96")
        server.run_until("31Dec96")
        stop(server, path)
        restored = shared_server("31Dec96")
        assert restored.doems.doem("A") is restored.doems.doem("B")
        assert restored.doems.doem("A").same_as(server.doems.doem("A"))
        for name in "AB":
            assert restored.subscriptions.get(name).polling_times == \
                server.subscriptions.get(name).polling_times

    def test_the_store_knows_the_subscriptions(self, path):
        """The loop docs/qss.md shows: resume everything recorded, from
        the records alone."""
        server = make_server(store=path)
        server.subscribe(subscription("Other", hour=7), "guide")
        server.run_until("2Jan97")
        stop(server, path)

        restored = make_server(start="2Jan97", subscribe=False, store=path)
        for r in restored.store.subscriptions().values():
            restored.subscribe(Subscription(
                r["name"], r["frequency"], r["polling_query"],
                r["filter_query"], r["polling_name"], r["user"]),
                r["wrapper"])
        for state in server.subscriptions.states():
            revived = restored.subscriptions.get(state.subscription.name)
            assert revived.polling_times == state.polling_times
            assert revived.next_poll == state.next_poll
            assert revived.record() == state.record()

    def test_requires_durable_store(self, path):
        """Without a store nothing is recorded and nothing resumes."""
        server = make_server()
        server.run_until("2Jan97")
        server.close()
        assert make_server(start="2Jan97") \
            .subscriptions.get("S").polling_times == []
        # ... and a subscription that has not polled is not recorded.
        idle = make_server(store=path)
        idle.close()
        assert idle.store.subscriptions() == {}
        assert not (path / "SUBSCRIPTIONS").exists()

    def test_missing_state_raises(self, path):
        """A name neither subscribed nor recorded cannot be cancelled."""
        server = make_server(store=path)
        server.run_until("2Jan97")
        with pytest.raises(SubscriptionError):
            server.unsubscribe("Nobody")
        assert list(open_store(path).subscriptions()) == ["S"]
