"""Tests for the QSS internal managers, including the space strategies."""

import pytest

from repro import (
    COMPLEX,
    OEMDatabase,
    StaticSource,
    Subscription,
    Wrapper,
    parse_timestamp,
)
from repro.doem.snapshot import current_snapshot
from repro.qss.managers import DOEMManager, QueryManager, SubscriptionManager
from repro.errors import QSSError, SubscriptionError


def small_db(names):
    db = OEMDatabase(root="guide")
    for index, name in enumerate(names):
        node = db.create_node(f"r{index}", COMPLEX)
        db.add_arc("guide", "restaurant", node)
        atom = db.create_node(f"a{index}", name)
        db.add_arc(node, "name", atom)
    return db


def subscription(name="S"):
    return Subscription(
        name=name, frequency="every day at 9:00am",
        polling_query="select guide.restaurant",
        filter_query=f"select {name}.restaurant<cre at T> where T > t[-1]")


class TestSubscriptionManager:
    def test_add_schedules_first_poll(self):
        manager = SubscriptionManager()
        state = manager.add(subscription(), "w", "30Dec96 10:00am")
        assert state.next_poll == parse_timestamp("31Dec96 9:00am")

    def test_due_filtering(self):
        manager = SubscriptionManager()
        manager.add(subscription("A"), "w", "30Dec96")
        assert manager.due("30Dec96 8:00am") == []
        assert len(manager.due("30Dec96 10:00am")) == 1

    def test_record_poll_advances(self):
        manager = SubscriptionManager()
        state = manager.add(subscription(), "w", "30Dec96")
        manager.record_poll(state, state.next_poll)
        assert state.poll_count == 1
        assert state.next_poll == parse_timestamp("31Dec96 9:00am")

    def test_remove_and_get(self):
        manager = SubscriptionManager()
        manager.add(subscription(), "w", "30Dec96")
        assert manager.get("S").wrapper_name == "w"
        manager.remove("S")
        with pytest.raises(SubscriptionError):
            manager.get("S")


class TestQueryManager:
    def test_poll_advances_and_packages(self):
        manager = QueryManager()
        source = StaticSource(small_db(["Janta"]))
        manager.register_wrapper("guide", Wrapper(source, name="guide"))
        state_manager = SubscriptionManager()
        state = state_manager.add(subscription(), "guide", "30Dec96")
        result = manager.poll(state, "31Dec96 9:00am")
        assert result.root == "answer"
        assert len(list(result.children("answer", "restaurant"))) == 1
        assert source.now == parse_timestamp("31Dec96 9:00am")

    def test_unknown_wrapper(self):
        with pytest.raises(QSSError):
            QueryManager().wrapper("missing")


class TestDOEMManagerStrategies:
    """Both space strategies must produce identical DOEM histories."""

    @staticmethod
    def _packaged(snapshot: OEMDatabase) -> OEMDatabase:
        wrapped = OEMDatabase(root="answer")
        mapping = {snapshot.root: "answer"}
        for node in snapshot.nodes():
            if node != snapshot.root:
                mapping[node] = wrapped.create_node(node, snapshot.value(node))
        for arc in snapshot.arcs():
            wrapped.add_arc(mapping[arc.source], arc.label,
                            mapping[arc.target])
        return wrapped

    def _run_polls(self, manager: DOEMManager):
        snapshots = [small_db(["Janta"]),
                     small_db(["Janta", "Hakata"]),
                     small_db(["Hakata"])]
        times = ["30Dec96", "31Dec96", "1Jan97"]
        for when, snapshot in zip(times, snapshots):
            manager.incorporate("S", when, self._packaged(snapshot))
        return manager.doem("S")

    def test_cached_and_recomputed_agree(self):
        cached = self._run_polls(DOEMManager(cache_previous_result=True))
        recomputed = self._run_polls(DOEMManager(cache_previous_result=False))
        assert current_snapshot(cached).isomorphic_to(
            current_snapshot(recomputed))
        assert cached.annotation_count() == recomputed.annotation_count()

    def test_first_poll_creates_everything(self):
        manager = DOEMManager()
        doem = self._run_polls(manager)
        # Janta was created at t1 and deleted at t3; Hakata created at t2.
        cre_times = sorted(str(t) for _, annotations in doem.annotated_nodes()
                           for t in [a.at for a in annotations
                                     if type(a).__name__ == "Cre"])
        assert len(cre_times) >= 2

    def test_state_size_accounting(self):
        manager = DOEMManager(cache_previous_result=True)
        self._run_polls(manager)
        sizes = manager.state_size("S")
        assert sizes["doem_nodes"] > 0
        assert sizes["cached_nodes"] > 0
        lean = DOEMManager(cache_previous_result=False)
        self._run_polls(lean)
        assert lean.state_size("S")["cached_nodes"] == 0
        # Under share_by_polling_query the cache is keyed by the DOEM's
        # alias key, not the subscription name: same polls, same sizes.
        aliased = DOEMManager(cache_previous_result=True)
        aliased.set_alias("S", "w::select guide.restaurant")
        self._run_polls(aliased)
        assert aliased.state_size("S") == sizes

    def test_redundant_poll_is_folded_only_at_a_later_time(self, monkeypatch):
        """An empty change set at a time the DOEM already covers is not
        applied; at a later one it is, and leaves no annotation."""
        from repro.doem import build
        manager = DOEMManager()
        doem = self._run_polls(manager)          # newest annotation: 1Jan97
        assert doem.last_timestamp() == parse_timestamp("1Jan97")
        before, fingerprint = doem.copy(), doem.fingerprint()
        applied = []
        real = build.apply_change_set
        monkeypatch.setattr(
            build, "apply_change_set",
            lambda *args: applied.append(args[1]) or real(*args))
        unchanged = self._packaged(small_db(["Hakata"]))
        assert not manager.incorporate("S", "1Jan97", unchanged)
        assert not manager.incorporate("S", "31Dec96", unchanged)
        assert applied == []
        assert not manager.incorporate("S", "2Jan97", unchanged)
        assert applied == [parse_timestamp("2Jan97")]
        assert doem.same_as(before) and doem.fingerprint() == fingerprint
        assert doem.last_timestamp() == parse_timestamp("1Jan97")

    def test_identifiers_never_reused(self):
        manager = DOEMManager()
        doem = self._run_polls(manager)  # Janta died at the third poll
        dead = set(doem.graph.nodes()) - set(current_snapshot(doem).nodes())
        assert dead
        # The next poll creates objects; none may take a dead identifier.
        created = manager.incorporate(
            "S", "2Jan97", self._packaged(small_db(["Hakata", "Zibibbo"]))
        ).created_nodes()
        assert created and not set(created) & dead

    def test_drop(self):
        manager = DOEMManager()
        self._run_polls(manager)
        manager.drop("S")
        assert manager.doem("S").annotation_count() == 0

    def test_diff_stats_recorded(self):
        manager = DOEMManager()
        self._run_polls(manager)
        assert manager.last_diff_stats["S"].total > 0
