"""QSS + durable store: restart a server without re-polling sources."""

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
from repro.errors import SubscriptionError
from repro.store import close_store, is_store, open_store, sanitize_name
from repro.timestamps import Timestamp


class ScriptedGuideSource:
    """Example 2.2's timeline: Hakata appears on 1Jan97."""

    def __init__(self):
        self.now: Timestamp | None = None

    def advance(self, when):
        self.now = parse_timestamp(when)

    def export(self):
        db = OEMDatabase(root="guide")
        counter = [0]

        def atom(value):
            counter[0] += 1
            return db.create_node(f"a{counter[0]}", value)

        names = ["Bangkok Cuisine", "Janta"]
        if self.now is not None and self.now >= parse_timestamp("1Jan97"):
            names.append("Hakata")
        for index, name in enumerate(names):
            node = db.create_node(f"r{index}", COMPLEX)
            db.add_arc("guide", "restaurant", node)
            db.add_arc(node, "name", atom(name))
            db.add_arc(node, "price", atom(10 * (index + 1)))
        return db


def example61_subscription(frequency="every night at 11:30pm"):
    return Subscription.from_definitions(
        name="Restaurants", frequency=frequency,
        polling="define polling query Restaurants as "
                "select guide.restaurant",
        filter_="define filter query NewRestaurants as "
                "select Restaurants.restaurant<cre at T> where T > t[-1]")


@pytest.fixture
def store_path(tmp_path):
    path = tmp_path / "qss-store"
    yield path
    close_store(path)


def run_first_server(store_path, until="2Jan97"):
    server = QSSServer(start="30Dec96 10:00am", deliver_empty=True,
                       store=str(store_path))
    server.register_wrapper("guide", Wrapper(ScriptedGuideSource(),
                                             name="guide"))
    server.subscribe(example61_subscription(), "guide")
    notifications = server.run_until(until)
    return server, notifications


class TestDurableRestart:
    def test_server_persists_polled_changes(self, store_path):
        server, notifications = run_first_server(store_path)
        assert len(notifications) == 3
        assert is_store(store_path)
        server.close()
        store = open_store(store_path, "ro")
        assert store.names(), "polled change sets must land in the store"
        # Only non-empty change sets are persisted: 30Dec96 (initial
        # snapshot) and 1Jan97 (Hakata); the quiet 31Dec96 poll is not.
        log = store.log(store.names()[0])
        assert len(log) == 2

    def test_restart_recovers_doem_without_polling(self, store_path):
        first, _ = run_first_server(store_path)
        key = next(iter(first.doems._doems))
        original = first.doems.doem(key)
        first.close()
        close_store(store_path)

        # A second server over the same store, with *no* wrapper
        # registered: any poll attempt would fail, so equality proves
        # the DOEM was rebuilt purely from the log.
        second = QSSServer(start="2Jan97", store=str(store_path))
        recovered = second.doems.doem(key)
        assert recovered.timestamps() == original.timestamps()
        assert recovered.same_as(original)
        second.close()

    def test_restarted_server_keeps_answering(self, store_path):
        """Polls resume on top of the recovered history."""
        first, _ = run_first_server(store_path)
        key = next(iter(first.doems._doems))
        first.close()
        close_store(store_path)

        second = QSSServer(start="2Jan97", deliver_empty=True,
                           store=str(store_path))
        second.register_wrapper("guide", Wrapper(ScriptedGuideSource(),
                                                 name="guide"))
        second.subscribe(example61_subscription(), "guide")
        notifications = second.run_until("3Jan97")
        assert notifications
        # The recovered history plus the new poll's (empty) delta: the
        # DOEM still spans the pre-restart timestamps.
        doem = second.doems.doem(key)
        assert parse_timestamp("30Dec96 11:30pm") in doem.timestamps()
        second.close()

    def test_restart_after_compacting_every_entry(self, store_path):
        """A horizon past the last poll leaves a log with an origin and no
        entries: the restart still rebuilds the served state from it."""
        from repro import current_snapshot
        first, _ = run_first_server(store_path)
        key = next(iter(first.doems._doems))
        first.doems.compact_before(key, "2Jan97")
        served = current_snapshot(first.doems.doem(key))
        assert len(first.store.log(sanitize_name(key))) == 0
        first.close()
        close_store(store_path)

        second = QSSServer(start="2Jan97", store=str(store_path))
        assert current_snapshot(second.doems.doem(key)).same_as(served)
        second.close()

    def test_store_key_is_sanitized(self, store_path):
        server, _ = run_first_server(store_path)
        key = next(iter(server.doems._doems))
        server.close()
        store = open_store(store_path, "ro")
        assert sanitize_name(key) in store.names()

    def test_compaction_reaches_the_store(self, store_path):
        server, _ = run_first_server(store_path)
        key = next(iter(server.doems._doems))
        log = server.store.log(sanitize_name(key))
        generation_before = log.info()["generation"]
        server.doems.compact_before(key, "31Dec96")
        assert server.store.log(sanitize_name(key)) is log
        assert log.info()["generation"] > generation_before
        server.close()


def restart(store_path, start="2Jan97", **kwargs):
    """A second server over the same store, wrapper handed over again."""
    close_store(store_path)
    server = QSSServer(start=start, deliver_empty=True,
                       store=str(store_path), **kwargs)
    server.register_wrapper("guide", Wrapper(ScriptedGuideSource(),
                                             name="guide"))
    return server


class TestResume:
    """Subscribing a recorded name again *is* the resume (docs/qss.md)."""

    def test_restart_continues_the_polling_timeline(self, store_path):
        first, before = run_first_server(store_path)
        assert [len(n.result) for n in before] == [2, 0, 1]
        times = list(first.subscriptions.get("Restaurants").polling_times)
        first.close()

        second = restart(store_path)
        state = second.subscribe(example61_subscription(), "guide")
        assert state.polling_times == times
        assert state.next_poll == parse_timestamp("2Jan97 11:30pm")
        (notification,) = second.run_until("3Jan97")
        # Nothing was created since the 1Jan97 poll: t[-1] is that poll,
        # not negative infinity, and the poll is the fourth, not the first.
        assert notification.polling_time == parse_timestamp("2Jan97 11:30pm")
        assert len(notification.result) == 0
        assert notification.poll_index == 4
        second.close()

    def test_unsubscribe_deletes_the_history(self, store_path):
        server, _ = run_first_server(store_path)
        server.unsubscribe("Restaurants")
        assert server.store.names() == []
        assert server.store.subscriptions() == {}
        # A different subscription under the cancelled one's name starts
        # from an empty DOEM, not from the other query's history.
        server.subscribe(Subscription(
            name="Restaurants", frequency="every night at 11:30pm",
            polling_query="select guide.restaurant.name",
            filter_query="select Restaurants.name<cre at T> "
                         "where T > t[-1]"), "guide")
        assert server.doems.doem("Restaurants").timestamps() == []
        (notification,) = server.run_until("3Jan97")
        assert len(notification.result) == 3
        assert server.doems.doem("Restaurants").timestamps() == \
            [parse_timestamp("2Jan97 11:30pm")]
        server.close()

    def test_unsubscribe_of_a_name_only_the_store_knows(self, store_path):
        first, _ = run_first_server(store_path)
        first.close()
        second = restart(store_path)
        second.unsubscribe("Restaurants")
        assert second.store.names() == []
        assert second.store.subscriptions() == {}
        with pytest.raises(SubscriptionError):
            second.unsubscribe("Restaurants")
        second.close()

    def test_unequal_definition_is_refused(self, store_path):
        first, _ = run_first_server(store_path)
        first.close()
        second = restart(store_path)
        with pytest.raises(SubscriptionError) as refused:
            second.subscribe(example61_subscription("every 2 hours"),
                             "guide")
        assert "every night at 11:30pm" in str(refused.value)
        assert "every 2 hours" in str(refused.value)
        assert "Restaurants" not in [
            s.subscription.name for s in second.subscriptions.states()]
        # The recorded one is untouched and still resumable.
        state = second.subscribe(example61_subscription(), "guide")
        assert state.poll_count == 3
        second.close()

    def test_sharers_resume_their_own_polling_times(self, store_path):
        def subscribe_both(server):
            for name, hour in (("Early", 6), ("Late", 7)):
                server.subscribe(Subscription(
                    name=name, frequency=f"every day at {hour}:00am",
                    polling_query="select guide.restaurant",
                    filter_query=f"select {name}.restaurant<cre at T> "
                                 f"where T > t[-1]"), "guide")

        first = restart(store_path, start="30Dec96",
                        share_by_polling_query=True)
        subscribe_both(first)
        first.run_until("2Jan97")
        recorded = {name: list(first.subscriptions.get(name).polling_times)
                    for name in ("Early", "Late")}
        assert recorded["Early"] != recorded["Late"]
        (history,) = first.store.names()
        first.close()

        second = restart(store_path, share_by_polling_query=True)
        subscribe_both(second)
        for name, times in recorded.items():
            assert second.subscriptions.get(name).polling_times == times
        assert second.doems.doem("Early") is second.doems.doem("Late")
        second.unsubscribe("Early")
        assert second.store.names() == [history]
        assert list(second.store.subscriptions()) == ["Late"]
        second.unsubscribe("Late")
        assert second.store.names() == []
        second.close()
