"""Cross-module integration scenarios.

Each test exercises a pipeline several modules long, the way a downstream
user would: evolving sources -> wrappers -> diff -> DOEM -> Chorel -> QSS,
plus persistence through the change-log store.
"""

import pytest

from repro import (
    COMPLEX,
    ChorelEngine,
    LibrarySource,
    OEMDatabase,
    QSC,
    QSSServer,
    RestaurantGuideSource,
    Subscription,
    TranslatingChorelEngine,
    Wrapper,
    build_doem,
    current_snapshot,
    encoded_history,
    oem_diff,
    original_snapshot,
    parse_timestamp,
    plan_update,
)
from repro.doem.build import apply_change_set
from repro.qss.subscription import polling_time_mapping
from repro.store import ChangeLogStore


class TestGuideEndToEnd:
    """Evolving guide -> QSS -> Chorel filters, over real differencing."""

    def _server(self, events_per_day=3.0, seed=1997):
        source = RestaurantGuideSource(seed=seed,
                                       events_per_day=events_per_day)
        server = QSSServer(start="1Dec96", deliver_empty=True)
        server.register_wrapper("guide", Wrapper(source, name="guide"))
        return server, source

    def test_new_restaurant_subscription(self):
        server, source = self._server()
        client = QSC(server)
        client.subscribe(
            name="AllRestaurants", frequency="every day at 11:30pm",
            polling_query="define polling query AllRestaurants as "
                          "select guide.restaurant",
            filter_query="define filter query New as "
                         "select AllRestaurants.restaurant<cre at T> "
                         "where T > t[-1]",
            wrapper="guide")
        server.run_until("8Dec96")
        assert client.inbox, "a week of evolution must produce polls"
        # First poll reports every restaurant as created.
        assert len(client.inbox[0].result) >= 5
        # Later polls report only genuinely new entries: cross-check the
        # source's own event log.
        opened = sum(1 for _, event in source.event_log
                     if event.startswith("open"))
        later_creations = sum(len(n.result) for n in client.inbox[1:])
        assert later_creations <= opened + 2  # diff may split a rename

    def test_price_change_subscription(self):
        server, _ = self._server(events_per_day=6.0)
        client = QSC(server)
        client.subscribe(
            name="Prices", frequency="every day at 11:00pm",
            polling_query="select guide.restaurant",
            filter_query="select OV, NV from "
                         "Prices.restaurant.price<upd at T from OV to NV> "
                         "where T > t[-1]",
            wrapper="guide")
        server.run_until("14Dec96")
        changes = [row for notification in client.inbox
                   for row in notification.result]
        assert changes, "two weeks at 6 events/day must change some price"
        for row in changes:
            assert row["old-value"] != row["new-value"]

    def test_doem_history_accumulates(self):
        server, _ = self._server(events_per_day=4.0)
        subscription = Subscription(
            name="S", frequency="every day at 6:00pm",
            polling_query="select guide.restaurant",
            filter_query="select S.restaurant<cre at T> where T > t[-1]")
        server.subscribe(subscription, "guide")
        server.run_until("10Dec96")
        doem = server.doems.doem("S")
        assert len(doem.timestamps()) >= 5
        # The DOEM's current snapshot mirrors what the wrapper saw at the
        # last poll (re-polling at that same instant is a source no-op).
        state = server.subscriptions.get("S")
        fresh = server.queries.poll(state, state.polling_times[-1])
        assert current_snapshot(doem).isomorphic_to(fresh)


class TestLibraryScenario:
    """The Section 1.1 motivating example: popular books returning."""

    def test_popular_book_notification(self):
        source = LibrarySource(seed=3, books=6, events_per_day=8.0)
        server = QSSServer(start="1Dec96")
        server.register_wrapper("library", Wrapper(source, name="library"))
        subscription = Subscription(
            name="Books", frequency="every day at 7:00am",
            polling_query="select library.book",
            filter_query="select B, T from Books.book B, "
                         "B.status<upd at T from OV to NV> "
                         'where T > t[-1] and NV = "in" and OV = "out"')
        server.subscribe(subscription, "library")
        notifications = server.run_until("1Jan97")
        returned = [row for n in notifications for row in n.result]
        assert returned, "a month of circulation must return some book"

        # Popularity ("checked out twice in the past month") is answerable
        # from the DOEM history alone -- the legacy source never said so.
        doem = server.doems.doem("Books")
        engine = ChorelEngine(doem, name="Books")
        month_ago = server.clock.plus(days=-31)
        result = engine.run(
            f'select B, T from Books.book B, '
            f'B.status<upd at T from OV to NV> '
            f'where NV = "out" and T > {month_ago}')
        checkouts_by_book = {}
        for row in result:
            node = row["book"].node
            checkouts_by_book[node] = checkouts_by_book.get(node, 0) + 1
        assert any(count >= 2 for count in checkouts_by_book.values())


class TestManualPipeline:
    """Wrapper-free pipeline: diff + DOEM fold + both Chorel backends."""

    def test_three_snapshot_fold(self, guide_db, guide_history):
        snapshots = guide_history.replay(guide_db)
        times = guide_history.timestamps()
        from repro import DOEMDatabase
        doem = DOEMDatabase(snapshots[0].copy())
        reserved = set(snapshots[0].nodes())
        for when, (previous, current) in zip(
                times, zip(snapshots, snapshots[1:])):
            changes = oem_diff(current_snapshot(doem), current,
                               reserved_ids=reserved)
            apply_change_set(doem, when, changes)
            reserved.update(changes.created_nodes())
        # The folded DOEM answers the same Chorel queries as the directly
        # built one -- modulo node identity, so compare value-level facts.
        engine = ChorelEngine(doem, name="guide")
        added = engine.run("select N from guide.<add at T>restaurant R, "
                           "R.name N where T >= 1Jan97")
        values = [doem.graph.value(row.scalar().node) for row in added]
        assert values == ["Hakata"]
        removed = engine.run(
            "select R from guide.restaurant R where R.<rem at T>parking")
        assert len(removed) == 1

    def test_update_language_feeds_doem_and_chorel(self, figure3_db):
        from repro import DOEMDatabase
        doem = DOEMDatabase(figure3_db.copy())
        changes = plan_update(
            current_snapshot(doem),
            'update guide.restaurant.price := 35 '
            'where guide.restaurant.name = "Bangkok Cuisine"')
        apply_change_set(doem, "10Jan97", changes)
        for engine in (ChorelEngine(doem, name="guide"),
                       TranslatingChorelEngine(doem, name="guide")):
            result = engine.run(
                "select OV, NV from guide.restaurant.price"
                "<upd at T from OV to NV> where T = 10Jan97")
            row = result.first()
            assert (row["old-value"], row["new-value"]) == (20, 35)


class TestPersistenceAcrossRestart:
    """A DOEM database survives through the store as ``(O0, H)``."""

    def test_store_and_requery(self, tmp_path, guide_doem):
        with ChangeLogStore(tmp_path / "st") as store:
            store.put_history("Restaurants", original_snapshot(guide_doem),
                              encoded_history(guide_doem))

        # "restart": a fresh handle over the same directory
        with ChangeLogStore(tmp_path / "st", "ro") as store:
            restored = store.get_doem("Restaurants")
        assert restored.same_as(guide_doem)
        engine = ChorelEngine(restored, name="guide")
        engine.set_polling_times(polling_time_mapping(
            [parse_timestamp("31Dec96"), parse_timestamp("6Jan97")]))
        result = engine.run("select Restaurants.restaurant"  # wrong name
                            if False else
                            "select guide.restaurant.comment<cre at T> "
                            "where T > t[-1]")
        assert len(result) == 1
