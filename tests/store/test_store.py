"""ChangeLogStore and HistoryLog: the durable change-log behind Ot(D)."""

from __future__ import annotations

import json

import pytest

from repro import (
    OEMDatabase,
    build_doem,
    parse_timestamp,
    random_database,
    random_history,
    snapshot_at,
)
from repro.errors import (
    InvalidChangeError,
    InvalidHistoryError,
    StoreError,
    StoreLockedError,
)
from repro.oem.history import AddArc, ChangeSet, CreNode, UpdNode
from repro.sources.generators import demo_world
from repro.store import (
    ChangeLogStore,
    CheckpointPolicy,
    HistoryLog,
    is_store,
    sanitize_name,
)


def make_world(seed: int = 7, *, nodes: int = 20, steps: int = 5):
    db = random_database(seed=seed, nodes=nodes)
    history = random_history(db, seed=seed, steps=steps, set_size=6)
    return db, history


def sample_times(history):
    times = history.timestamps()
    probes = list(times)
    probes.append(times[0].plus(days=-1))
    probes.append(times[-1].plus(days=1))
    for left, right in zip(times, times[1:]):
        probes.append(parse_timestamp((left.ticks + right.ticks) // 2))
    return probes


class TestHistoryLog:
    def test_round_trips_a_history(self, tmp_path):
        db, history = make_world()
        log = HistoryLog(tmp_path / "h", origin=db)
        log.extend(history)
        assert len(log) == len(history)
        assert log.timestamps() == history.timestamps()
        for stored, original in zip(log.entries(), history.entries()):
            assert stored[0] == original[0]
        assert log.origin().same_as(db)
        log.close()

        reopened = HistoryLog(tmp_path / "h", "ro")
        assert reopened.timestamps() == history.timestamps()
        assert reopened.tip().same_as(history.apply_to(db.copy()))
        reopened.close()

    def test_entries_between_is_the_history_s(self, tmp_path):
        db, history = make_world()
        with HistoryLog(tmp_path / "h", origin=db) as log:
            log.extend(history)
            probes = sample_times(history)
            for after in probes:
                for until in probes:
                    assert log.entries_between(after, until) == \
                        history.entries_between(after, until) == \
                        [entry for entry in history.entries()
                         if after < entry[0] <= until]

    def test_snapshot_at_matches_in_memory(self, tmp_path):
        db, history = make_world()
        log = HistoryLog(tmp_path / "h", origin=db,
                         policy=CheckpointPolicy(replay_budget=4,
                                                 size_weight=0.0,
                                                 min_sets=1))
        log.extend(history)
        assert log.checkpoints(), "tiny budget must force checkpoints"
        for when in sample_times(history):
            expected = history.snapshot_at(db, when)
            assert log.snapshot_at(when).same_as(expected), when
        log.close()
        # And a log that never checkpoints -- every Ot(D) replayed from
        # the origin -- agrees too.
        plain = HistoryLog(tmp_path / "plain", origin=db,
                           policy=CheckpointPolicy.disabled())
        plain.extend(history)
        assert not plain.checkpoints()
        for when in sample_times(history):
            assert plain.snapshot_at(when).same_as(
                history.snapshot_at(db, when)), when
        assert plain.stats.snapshots_from_checkpoint == 0
        plain.close()

    def test_checkpointed_probes_of_a_long_log(self, tmp_path):
        """The equivalence half of the retired ``BENCH_store`` gate:
        240 days of ``demo_world``, a checkpoint every ~12 operations,
        and every probe across the expensive half equals the in-memory
        ground truth while actually resolving from checkpoints."""
        db, history = demo_world(days=240)
        log = HistoryLog(tmp_path / "h", origin=db,
                         policy=CheckpointPolicy(replay_budget=12,
                                                 size_weight=0.0,
                                                 min_sets=1),
                         fsync_policy="roll")
        log.extend(history)
        assert log.checkpoints()
        times = history.timestamps()
        late = times[len(times) // 2:]
        probes = late[::max(1, len(late) // 8)][:8]
        for when in probes:
            assert log.snapshot_at(when).same_as(
                history.snapshot_at(db, when)), when
        stats = log.stats.as_dict()
        assert stats["snapshots_from_checkpoint"] > 0
        # Bounded replay: far fewer sets than eight folds from the origin.
        assert stats["replayed_sets"] < len(probes) * len(times) // 2
        log.close()

    def test_append_validates_order_and_conflicts(self, tmp_path):
        log = HistoryLog(tmp_path / "h", origin=OEMDatabase(root="r"))
        when = parse_timestamp("5Jan97")
        log.append(when, ChangeSet([CreNode("a", 1), AddArc("r", "x", "a")]))
        with pytest.raises(InvalidHistoryError):
            log.append(when, ChangeSet([UpdNode("a", 2)]))
        with pytest.raises(InvalidChangeError):
            # Invalid against the tip: node does not exist.
            log.append(when.plus(days=1), ChangeSet([UpdNode("ghost", 2)]))
        # The failed appends left nothing behind.
        assert len(log) == 1
        log.close()

    def test_segment_rolls(self, tmp_path):
        db, history = demo_world(days=40)
        log = HistoryLog(tmp_path / "h", origin=db, segment_bytes=512,
                         policy=CheckpointPolicy.disabled())
        log.extend(history)
        assert len(log.segments()) > 1
        stats = log.stats.as_dict()
        assert stats["segment_rolls"] >= 1
        log.close()
        reopened = HistoryLog(tmp_path / "h", "ro", segment_bytes=512)
        assert reopened.timestamps() == history.timestamps()
        reopened.close()

    def test_checkpoint_is_idempotent(self, tmp_path):
        db, history = demo_world(days=10)
        log = HistoryLog(tmp_path / "h", origin=db,
                         policy=CheckpointPolicy.disabled())
        log.extend(history)
        first = log.write_checkpoint()
        second = log.write_checkpoint()
        assert first is not None
        assert second == first
        assert len(log.checkpoints()) == 1
        log.close()

    def test_ro_mode_refuses_writes(self, tmp_path):
        db, history = demo_world(days=3)
        with HistoryLog(tmp_path / "h", origin=db) as log:
            log.extend(history)
        ro = HistoryLog(tmp_path / "h", "ro")
        with pytest.raises(StoreError):
            ro.append(parse_timestamp("1Mar97"), ChangeSet([CreNode("z", 1)]))
        ro.close()


class TestCompaction:
    def test_horizonless_compaction_preserves_every_ot(self, tmp_path):
        db, history = make_world(seed=11)
        log = HistoryLog(tmp_path / "h", origin=db,
                         policy=CheckpointPolicy(replay_budget=4,
                                                 size_weight=0.0,
                                                 min_sets=1))
        log.extend(history)
        probes = sample_times(history)
        before = [log.snapshot_at(when) for when in probes]
        summary = log.compact()
        assert summary["generation"] >= 2
        for when, expected in zip(probes, before):
            assert log.snapshot_at(when).same_as(expected), when
        log.close()
        reopened = HistoryLog(tmp_path / "h", "ro")
        for when, expected in zip(probes, before):
            assert reopened.snapshot_at(when).same_as(expected), when
        reopened.close()

    def test_horizon_compaction_promotes_origin(self, tmp_path):
        db, history = make_world(seed=3)
        times = history.timestamps()
        horizon = times[len(times) // 2]
        log = HistoryLog(tmp_path / "h", origin=db)
        log.extend(history)
        # The entry at the horizon itself is folded into the new origin.
        kept = [when for when in times if when >= horizon]
        folded = [when for when in times if when <= horizon]
        expected = {when: log.snapshot_at(when) for when in kept}
        summary = log.compact(before=horizon)
        assert summary["dropped_sets"] == len(folded)
        assert log.timestamps() == [when for when in kept if when > horizon]
        assert log.origin().same_as(expected[horizon])
        for when in kept:
            assert log.snapshot_at(when).same_as(expected[when]), when
        log.close()


class TestChangeLogStore:
    def test_marker_and_layout(self, tmp_path):
        root = tmp_path / "store"
        store = ChangeLogStore(root)
        assert is_store(root)
        marker = json.loads((root / ".doemstore").read_text())
        assert marker["format"] == 1
        assert store.names() == []
        store.close()

    def test_refuses_foreign_directory(self, tmp_path):
        (tmp_path / "unrelated.txt").write_text("hello")
        with pytest.raises(StoreError):
            ChangeLogStore(tmp_path)

    def test_ro_open_requires_store(self, tmp_path):
        with pytest.raises(StoreError):
            ChangeLogStore(tmp_path / "missing", "ro")

    def test_put_history_and_read_back(self, tmp_path):
        db, history = make_world(seed=5)
        with ChangeLogStore(tmp_path / "s") as store:
            store.put_history("world", db, history)
            assert "world" in store
            assert store.names() == ["world"]
        with ChangeLogStore(tmp_path / "s", "ro") as store:
            doem = store.get_doem("world")
            assert doem.same_as(build_doem(db, history))
            for when in sample_times(history):
                assert store.snapshot_at("world", when).same_as(
                    history.snapshot_at(db, when)), when

    def test_single_writer_lock(self, tmp_path):
        store = ChangeLogStore(tmp_path / "s")
        with pytest.raises(StoreLockedError):
            ChangeLogStore(tmp_path / "s")
        # Readers never contend for the lock.
        reader = ChangeLogStore(tmp_path / "s", "ro")
        reader.close()
        store.close()
        # Releasing the lock frees the next writer.
        ChangeLogStore(tmp_path / "s").close()

    def test_stale_lock_is_stolen(self, tmp_path):
        store = ChangeLogStore(tmp_path / "s")
        store.close()
        # A dead pid in LOCK (e.g. a crashed CLI one-shot) must not wedge
        # the store forever.
        (tmp_path / "s" / "LOCK").write_text("999999999")
        fresh = ChangeLogStore(tmp_path / "s")
        fresh.close()

    def test_info_totals(self, tmp_path):
        db, history = demo_world(days=8)
        with ChangeLogStore(tmp_path / "s") as store:
            store.put_history("demo", db, history)
            store.checkpoint("demo")
            info = store.info()
        assert info["change_sets"] == len(history)
        assert info["checkpoints"] == 1
        assert info["histories"]["demo"]["change_sets"] == len(history)

    def test_bad_names_are_refused(self, tmp_path):
        with ChangeLogStore(tmp_path / "s") as store:
            with pytest.raises(StoreError):
                store.create("../escape", OEMDatabase(root="r"))


class TestSanitizeName:
    def test_clean_names_pass_through(self):
        for name in ("demo", "guide-2.1", "A_b-c.d"):
            assert sanitize_name(name) == name

    def test_dirty_names_are_slugged_deterministically(self):
        alias = "guide::select guide.restaurant"
        first = sanitize_name(alias)
        assert first == sanitize_name(alias)
        assert first != sanitize_name("guide::select guide.member")
        assert "/" not in first and ":" not in first
        # The slug is itself a valid store name.
        assert sanitize_name(first) == first
