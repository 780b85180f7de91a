"""The subscription manifest and ``drop``: the store side of a QSS restart.

The store owns the file (``<root>/SUBSCRIPTIONS``), its atomic rewrite,
its corruption check and its lines in ``fsck`` / ``info``; what a record
*means* is :mod:`repro.qss`'s business (tests/qss/test_durable_restart.py,
tests/qss/test_restart_invisible.py).
"""

from __future__ import annotations

import inspect

import pytest

import repro.store.log
import repro.store.store
from repro.cli import main as cli
from repro.errors import StoreCorruptionError, StoreError
from repro.sources.generators import demo_world
from repro.store import ChangeLogStore
from repro.store.segment import MAGIC
from repro.timestamps import parse_timestamp

RECORDS = {
    "Restaurants": {
        "name": "Restaurants", "frequency": "every night at 11:30pm",
        "polling_query": "select guide.restaurant",
        "filter_query": "select Restaurants.restaurant<cre at T> "
                        "where T > t[-1]",
        "polling_name": "Restaurants", "user": "local", "wrapper": "guide",
        "doem_key": "Restaurants",
        "polling_times": [parse_timestamp("30Dec96 11:30pm").ticks,
                          parse_timestamp("31Dec96 11:30pm").ticks]},
    "Idle": {"name": "Idle", "wrapper": "guide", "doem_key": "Idle",
             "polling_times": []},
}


@pytest.fixture
def store(tmp_path):
    with ChangeLogStore(tmp_path / "st") as handle:
        yield handle


def manifest(store):
    return store.path / "SUBSCRIPTIONS"


class TestManifest:
    def test_a_store_that_never_served_has_none(self, store):
        assert store.subscriptions() == {}
        assert not manifest(store).exists()
        assert store.fsck()["ok"]

    def test_round_trip_through_a_fresh_handle(self, store):
        store.record_subscriptions(RECORDS)
        assert store.subscriptions() == RECORDS
        store.close()
        with ChangeLogStore(store.path, "ro") as reader:
            assert reader.subscriptions() == RECORDS

    def test_rewrite_replaces_and_leaves_no_temporary(self, store):
        store.record_subscriptions(RECORDS)
        store.record_subscriptions({"Idle": RECORDS["Idle"]})
        assert list(store.subscriptions()) == ["Idle"]
        assert sorted(entry.name for entry in store.path.iterdir()) == \
            [".doemstore", "LOCK", "SUBSCRIPTIONS"]

    def test_writes_are_counted(self, store):
        before = store.stats()
        store.record_subscriptions(RECORDS)
        after = store.stats()
        assert after["fsyncs"] - before["fsyncs"] == 2
        assert after["bytes_written"] - before["bytes_written"] == \
            manifest(store).stat().st_size
        # Added polls go to the journal: its creation fsyncs the file and
        # the directory, every later record the file alone.
        journal = store.path / "SUBSCRIPTIONS.polls"
        times = RECORDS["Restaurants"]["polling_times"]
        for added, fsyncs in ((1, 2), (2, 1), (3, 1)):
            before, size = store.stats(), \
                journal.stat().st_size if journal.exists() else 0
            store.record_subscriptions({**RECORDS, "Restaurants": dict(
                RECORDS["Restaurants"],
                polling_times=times + [times[-1] + day * 86_400
                                       for day in range(1, added + 1)])})
            after = store.stats()
            assert after["fsyncs"] - before["fsyncs"] == fsyncs
            frame = journal.stat().st_size - max(size, len(MAGIC))
            assert after["bytes_written"] - before["bytes_written"] == frame
        assert manifest(store).stat().st_size == \
            after["bytes_written"] - journal.stat().st_size + len(MAGIC)

    @pytest.mark.parametrize("damage", [
        lambda text: text[:len(text) // 2],          # torn
        lambda text: "not json at all",
        lambda text: '{"format": 1}',                 # no records
        lambda text: '{"subscriptions": {"S": 3}}',   # a record that is not one
        lambda text: '{"subscriptions": [1, 2]}',
    ])
    def test_unreadable_manifest(self, store, damage):
        store.record_subscriptions(RECORDS)
        manifest(store).write_text(damage(manifest(store).read_text()))
        # fsck reads the disk, not what this writer remembers writing.
        report = store.fsck()
        assert not report["ok"]
        assert any("SUBSCRIPTIONS" in line for line in report["problems"])
        # Not repairable from anything else in the store: still reported.
        assert not store.fsck(repair=True)["ok"]
        store.close()
        for mode in ("ro", "rw"):
            with ChangeLogStore(store.path, mode) as fresh:
                with pytest.raises(StoreCorruptionError) as refused:
                    fresh.subscriptions()
                assert "SUBSCRIPTIONS" in str(refused.value)

    def test_a_reader_sees_what_the_writer_recorded_since(self, store):
        reader = ChangeLogStore(store.path, "ro")
        assert reader.subscriptions() == {}
        store.record_subscriptions(RECORDS)
        assert reader.subscriptions() == RECORDS
        reader.close()

    def test_fsck_cli_prints_the_manifest_problem(self, store, capsys):
        manifest(store).write_text("{")
        store.close()
        assert cli(["store", "fsck", str(store.path)]) == 1
        out = capsys.readouterr().out
        assert "problem:" in out and "SUBSCRIPTIONS" in out
        assert "store: PROBLEMS FOUND" in out

    def test_read_only_open_reads_but_never_writes(self, store):
        store.record_subscriptions(RECORDS)
        store.close()
        before = manifest(store).read_bytes()
        with ChangeLogStore(store.path, "ro") as reader:
            assert reader.subscriptions() == RECORDS
            with pytest.raises(StoreError):
                reader.record_subscriptions({})
            with pytest.raises(StoreError):
                reader.drop("anything")
            reader.info()
            reader.fsck()
        assert manifest(store).read_bytes() == before
        assert not (store.path / "LOCK").exists()

    def test_info_lists_the_recorded_subscriptions(self, store, capsys):
        store.record_subscriptions(RECORDS)
        listed = store.info()["subscriptions"]
        assert listed == {
            "Idle": {"wrapper": "guide", "doem_key": "Idle", "polls": 0,
                     "last_poll": None},
            "Restaurants": {"wrapper": "guide", "doem_key": "Restaurants",
                            "polls": 2, "last_poll": "31Dec96 23:30"}}
        store.close()
        assert cli(["store", "info", str(store.path)]) == 0
        text = capsys.readouterr().out
        assert "2 subscription(s)" in text
        assert "subscription Restaurants: wrapper guide" in text
        assert "2 poll(s), last 31Dec96 23:30" in text
        assert cli(["store", "info", str(store.path), "--json"]) == 0
        assert '"polls": 2' in capsys.readouterr().out
        assert cli(["top", "--once", "--store", str(store.path)]) == 0
        assert "2 subscription(s)" in capsys.readouterr().out


class TestDrop:
    def test_removes_the_directory_and_the_cached_handle(self, store):
        origin, history = demo_world(days=5)
        log = store.put_history("h", origin, history)
        store.create("other", origin)
        store.drop("h")
        assert store.names() == ["other"]
        assert not (store.path / "h").exists()
        with pytest.raises(StoreError):
            store.log("h")
        with pytest.raises(StoreError):
            log.append(history.timestamps()[-1].plus(days=1), [])
        # The name starts over: nothing of the old history comes back.
        assert len(store.create("h", origin)) == 0
        assert store.log("h").checkpoints() == ()

    def test_unknown_and_unsafe_names(self, store):
        for name in ("nope", "../st", ".doemstore"):
            with pytest.raises(StoreError):
                store.drop(name)
        assert (store.path / ".doemstore").exists()

    def test_an_interrupted_drop_is_swept_by_the_next_writer(self, store):
        origin, history = demo_world(days=5)
        store.put_history("h", origin, history)
        store.close()
        # What a crash between the rename and the removal leaves behind.
        (store.path / "h").rename(store.path / ".dropped-h")
        with ChangeLogStore(store.path, "ro") as reader:
            assert reader.names() == []
            assert (store.path / ".dropped-h").exists()
        with ChangeLogStore(store.path) as writer:
            assert writer.names() == []
            assert not (store.path / ".dropped-h").exists()


def test_one_function_replaces_files_atomically():
    """tmp + fsync + rename + directory fsync lives in ``atomic_write``
    alone: ``CURRENT`` and the manifest both go through it."""
    sources = {module: inspect.getsource(module)
               for module in (repro.store.log, repro.store.store,
                              repro.store.checkpoint, repro.store.segment,
                              repro.store.records)}
    assert sum(text.count("os.replace(") for text in sources.values()) == 1
    assert "os.replace(" in inspect.getsource(repro.store.log.atomic_write)
    # Its definition and CURRENT's writer; the manifest's writer.
    assert sources[repro.store.log].count("atomic_write(") == 2
    assert sources[repro.store.store].count("atomic_write(") == 1
