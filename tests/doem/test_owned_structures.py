"""One timestamp index, one path index and one snapshot cache per DOEM.

A :class:`~repro.doem.model.DOEMDatabase` makes each derived structure
on first request and keeps it current itself (``annotate_node`` /
``annotate_arc`` insert into the index, ``DOEMApplier.apply`` hands each
append to the cache and the path index).  Every engine over the
database reads the same structures, none of them holds the database,
so dropping the database frees it and them by reference counting; and a
database rebuilt from a change log reads snapshots through that log.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro import (POS_INF, AnnotationIndex, IndexedChorelEngine,
                   OEMDatabase, OEMHistory, build_doem, snapshot_at,
                   snapshot_cache)
from repro.doem.build import apply_change_set
from repro.qss.managers import DOEMManager
from repro.sources.generators import demo_world, large_world
from repro.store import ChangeLogStore, CheckpointPolicy, HistoryLog

QUERY = "select T from root.<add at T>item where T > 3Jan97"


def kinds_equal(index, doem):
    rebuilt = AnnotationIndex(doem)
    for kind in ("cre", "upd", "add", "rem"):
        assert sorted(map(str, index.between(kind))) == \
            sorted(map(str, rebuilt.between(kind))), kind


@pytest.fixture
def stored(tmp_path):
    """A demo history in a store that checkpoints every few sets."""
    db, history = demo_world(days=20)
    store = ChangeLogStore(tmp_path / "st", policy=CheckpointPolicy(
        replay_budget=4, size_weight=0.0, min_sets=1))
    log = store.put_history("demo", db, history)
    assert len(log.checkpoints()) > 1
    yield store, log, history
    store.close()


def before_last_checkpoint(log):
    """A probe time past the first checkpoint, before the last one."""
    return log.checkpoints()[-1].at.plus(hours=-1)


class TestOneOfEach:
    def test_engines_share_the_database_indexes(self):
        _, _, doem = large_world(seed=1, items=40, steps=4, churn=10)
        first = IndexedChorelEngine(doem, name="root")
        second = IndexedChorelEngine(doem, name="root")
        assert first.index is second.index is doem.timestamp_index()
        assert first.paths is second.paths is doem.path_index()
        assert doem.snapshot_cache() is snapshot_cache(doem)
        assert first.index.stats.rebuilds == 1  # built once, for both
        assert list(first.run(QUERY)) == list(second.run(QUERY))
        assert first.stats.indexed_queries == second.stats.indexed_queries \
            == 1  # per engine
        assert first.paths.stats.lookups == 2  # per database

    def test_owned_index_incremental_equals_rebuilt(self):
        db, history = demo_world(days=12)
        entries = list(history)
        doem = build_doem(db, OEMHistory())
        index = doem.timestamp_index()  # made while still empty
        for when, change_set in entries:
            apply_change_set(doem, when, change_set)
        assert index.stats.rebuilds == 1
        assert index.stats.inserts == doem.annotation_count()
        kinds_equal(index, doem)


class TestDroppedDatabaseIsFreed:
    def test_reference_counting_frees_database_and_structures(self,
                                                              tmp_path):
        """A log owns its DOEM (and the DOEM's cache holds the log only
        weakly): dropping the log frees both, and the structures."""
        db, history = demo_world(days=20)
        log = HistoryLog(tmp_path / "h", origin=db, policy=CheckpointPolicy(
            replay_budget=4, size_weight=0.0, min_sets=1))
        log.extend(history)
        gc.collect()
        gc.disable()
        try:
            doem = log.get_doem()
            engine = IndexedChorelEngine(doem, name="root")
            engine.run(QUERY)
            snapshot_cache(doem).snapshot_at(history.timestamps()[3])
            snapshot_cache(doem).attach_store(log)  # idempotent
            refs = [weakref.ref(doem), weakref.ref(engine.index),
                    weakref.ref(engine.paths),
                    weakref.ref(snapshot_cache(doem))]
            del doem, engine
            assert refs[0]() is log.get_doem()  # the log keeps it
            log.close()
            del log
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            gc.enable()

    def test_a_dropped_database_without_a_log_is_freed(self):
        db, history = demo_world(days=20)
        gc.collect()
        gc.disable()
        try:
            doem = build_doem(db, history)
            engine = IndexedChorelEngine(doem, name="root")
            engine.run(QUERY)
            snapshot_cache(doem).snapshot_at(history.timestamps()[3])
            refs = [weakref.ref(doem), weakref.ref(engine.index),
                    weakref.ref(engine.paths),
                    weakref.ref(snapshot_cache(doem))]
            del doem, engine
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            gc.enable()


class TestLoggedDatabasesReadThroughTheirLog:
    def test_get_doem_reads_store_checkpoints(self, stored):
        _, log, _ = stored
        doem = log.get_doem()
        probe = before_last_checkpoint(log)
        cache = snapshot_cache(doem)
        assert cache.snapshot_at(probe).same_as(snapshot_at(doem, probe))
        assert cache.stats.store_hits > 0

    def test_doem_manager_after_restart_reads_store_checkpoints(
            self, stored, tmp_path):
        store, log, _ = stored
        probe = before_last_checkpoint(log)
        store.close()
        with ChangeLogStore(tmp_path / "st") as reopened:
            doem = DOEMManager(store=reopened).doem("demo")
            cache = snapshot_cache(doem)
            assert cache.snapshot_at(probe).same_as(snapshot_at(doem, probe))
            assert cache.stats.store_hits > 0

    def test_a_failed_append_keeps_the_read_through_exact(self, tmp_path,
                                                           monkeypatch):
        """The manager appends a poll to the log before it folds it into
        the DOEM: when the append fails, the DOEM holds no set its log
        lacks, and the cache reading the log's checkpoints stays exact."""
        def answer(items):
            db = OEMDatabase(root="answer")
            for item in range(items):
                db.add_arc("answer", "item", db.create_node(f"x{item}", item))
            return db
        with ChangeLogStore(tmp_path / "st", policy=CheckpointPolicy(
                replay_budget=1, size_weight=0.0, min_sets=1)) as store:
            manager = DOEMManager(store=store, differ="ids")
            manager.incorporate("s", "1Jan97", answer(1))
            manager.incorporate("s", "2Jan97", answer(2))
            log = store.log("s")
            assert log.checkpoints()

            def full_disk(*args, **kwargs):
                raise OSError("no space left")
            monkeypatch.setattr(log, "append", full_disk)
            with pytest.raises(OSError):
                manager.incorporate("s", "3Jan97", answer(3))
            doem = manager.doem("s")
            assert doem.last_timestamp() == log.last_timestamp()
            for when in ("3Jan97", POS_INF):
                assert snapshot_cache(doem).snapshot_at(when).same_as(
                    snapshot_at(doem, when)), when
