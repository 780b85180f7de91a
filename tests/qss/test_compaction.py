"""Tests for the QSS retention policy (automatic DOEM compaction)."""

import pytest

from repro import (
    QSSServer,
    RestaurantGuideSource,
    Subscription,
    Wrapper,
    snapshot_at,
    snapshot_cache,
)
from repro.errors import QSSError
from repro.store import ChangeLogStore, CheckpointPolicy


def make_server(keep=None, **kwargs):
    server = QSSServer(start="1Dec96", deliver_empty=True,
                       compact_keep_polls=keep, **kwargs)
    source = RestaurantGuideSource(seed=13, initial_restaurants=8,
                                   events_per_day=3.0)
    server.register_wrapper("guide", Wrapper(source, name="guide"))
    server.subscribe(Subscription(
        name="S", frequency="every day at 6:00pm",
        polling_query="select guide.restaurant",
        filter_query="select S.restaurant<cre at T> where T > t[-1]"),
        "guide")
    return server


class TestRetentionPolicy:
    def test_history_bounded(self):
        server = make_server(keep=3)
        server.run_until("20Dec96")
        doem = server.doems.doem("S")
        # at most the last 3 polling instants survive in annotations
        assert len(doem.timestamps()) <= 3

    def test_unbounded_grows(self):
        server = make_server(keep=None)
        server.run_until("20Dec96")
        assert len(server.doems.doem("S").timestamps()) > 3

    def test_notifications_identical_to_unbounded(self):
        """Filter queries look back one poll; keep>=1 must not change them."""
        outputs = {}
        for keep in (None, 2):
            server = make_server(keep=keep)
            notifications = server.run_until("15Dec96")
            outputs[keep] = [(str(n.polling_time), len(n.result))
                             for n in notifications]
        assert outputs[None] == outputs[2]

    def test_space_actually_saved(self):
        bounded = make_server(keep=2)
        unbounded = make_server(keep=None)
        bounded.run_until("25Dec96")
        unbounded.run_until("25Dec96")
        assert bounded.doems.doem("S").annotation_count() < \
            unbounded.doems.doem("S").annotation_count()

    def test_incompatible_with_sharing(self):
        with pytest.raises(QSSError):
            QSSServer(compact_keep_polls=2, share_by_polling_query=True)

    def test_bad_keep_value(self):
        with pytest.raises(QSSError):
            QSSServer(compact_keep_polls=0)

    def test_manual_compaction_of_shared_doem_refused(self):
        server = QSSServer(start="1Dec96", share_by_polling_query=True,
                           deliver_empty=True)
        source = RestaurantGuideSource(seed=13)
        server.register_wrapper("guide", Wrapper(source, name="guide"))
        for name, hour in (("A", 6), ("B", 7)):
            server.subscribe(Subscription(
                name=name, frequency=f"every day at {hour}:00am",
                polling_query="select guide.restaurant",
                filter_query=f"select {name}.restaurant<cre at T> "
                             f"where T > t[-1]", polling_name=name),
                "guide")
        server.run_until("3Dec96")
        with pytest.raises(QSSError):
            server.doems.compact_before("A", "2Dec96")


class TestRetentionWithAStore:
    def test_compacted_doem_reads_the_store_s_checkpoints(self, tmp_path):
        """After a retention compaction the served DOEM is the log's: a
        miss of its snapshot cache loads a durable checkpoint."""
        with ChangeLogStore(tmp_path / "st", policy=CheckpointPolicy(
                replay_budget=1, size_weight=0.0, min_sets=1)) as store:
            server = make_server(keep=2, store=store)
            server.run_until("10Dec96")
            doem = server.doems.doem("S")
            probe = server.subscriptions.get("S").polling_times[-2]
            cache = snapshot_cache(doem)
            assert cache.snapshot_at(probe).same_as(snapshot_at(doem, probe))
            assert cache.stats.store_hits > 0
            assert len(doem.timestamps()) <= 2
            server.close()
