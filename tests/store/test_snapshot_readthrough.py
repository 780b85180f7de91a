"""SnapshotCache as a read-through view over durable checkpoints."""

from __future__ import annotations

from repro import SnapshotCache, parse_timestamp, snapshot_at
from repro.sources.generators import demo_world
from repro.store import CheckpointPolicy, HistoryLog


def build(tmp_path, days=20, budget=4):
    db, history = demo_world(days=days)
    log = HistoryLog(tmp_path / "h", origin=db,
                     policy=CheckpointPolicy(replay_budget=budget,
                                             size_weight=0.0, min_sets=1))
    log.extend(history)
    return db, history, log


class TestReadThrough:
    def test_miss_is_served_from_durable_checkpoint(self, tmp_path):
        db, history, log = build(tmp_path)
        assert log.checkpoints()
        doem = log.get_doem()
        cache = SnapshotCache(doem)
        cache.attach_store(log)

        when = history.timestamps()[-1]
        result = cache.snapshot_at(when)
        assert result.same_as(history.snapshot_at(db, when))
        assert cache.stats.store_hits == 1
        # A checkpoint load is its own counter, not a cache hit.
        assert cache.stats.hit_rate == 0.0
        # A repeat is now an exact in-memory hit.
        cache.snapshot_at(when)
        assert cache.stats.exact_hits == 1
        assert cache.stats.hit_rate == 0.5
        assert cache.stats.as_dict()["store_hits"] == 1
        log.close()

    def test_detached_cache_still_correct(self, tmp_path):
        db, history, log = build(tmp_path)
        doem = log.get_doem()
        cache = SnapshotCache(doem)  # no attach_store
        when = history.timestamps()[len(history) // 2]
        assert cache.snapshot_at(when).same_as(
            history.snapshot_at(db, when))
        assert cache.stats.store_hits == 0
        log.close()

    def test_every_probe_time_agrees_with_direct_walk(self, tmp_path):
        db, history, log = build(tmp_path, days=14, budget=3)
        doem = log.get_doem()
        cache = SnapshotCache(doem, capacity=2)  # force evictions
        cache.attach_store(log)
        times = history.timestamps()
        probes = list(times)
        probes.append(times[0].plus(days=-1))
        probes.append(times[-1].plus(days=1))
        for left, right in zip(times, times[1:]):
            probes.append(parse_timestamp((left.ticks + right.ticks) // 2))
        for when in probes:
            assert cache.snapshot_at(when).same_as(
                snapshot_at(doem, when)), when
        log.close()

    def test_in_memory_base_preferred_when_newer(self, tmp_path):
        """A warmer LRU entry beats an older durable checkpoint."""
        db, history, log = build(tmp_path, days=20, budget=6)
        doem = log.get_doem()
        cache = SnapshotCache(doem)
        cache.attach_store(log)
        times = history.timestamps()
        # Warm the cache at the final time, then ask just past it: the
        # exact/incremental path should win, not the store.
        cache.snapshot_at(times[-1])
        hits_before = cache.stats.store_hits
        result = cache.snapshot_at(times[-1].plus(days=1))
        assert result.same_as(history.snapshot_at(db, times[-1]))
        assert cache.stats.store_hits == hits_before
        log.close()

    def test_durable_miss_replays_the_log_not_the_annotations(
            self, tmp_path, monkeypatch):
        """After every poll the cache starts empty; serving the miss must
        not cost a walk over every annotation the history ever made."""
        import repro.doem.extract as extract
        db, history, log = build(tmp_path)
        doem = log.get_doem()
        cache = SnapshotCache(doem)
        cache.attach_store(log)

        def forbidden(_doem):
            raise AssertionError("H(D) re-derived from the annotations")

        monkeypatch.setattr(extract, "encoded_history", forbidden)
        for when in history.timestamps()[-3:]:
            assert cache.snapshot_at(when).same_as(snapshot_at(doem, when))
        assert cache.stats.store_hits >= 1
        assert cache.stats.replayed_sets >= 1
        log.close()
