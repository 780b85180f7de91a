"""Named OEM and DOEM databases in the change-log store.

What the deleted ``LoreStore`` checked, on the one mechanism left: a
named OEM database is a history with zero change sets (``create`` /
``log.tip()``); a DOEM database is ``(O0(D), H(D))`` (``put_history`` /
``get_doem``), which Section 3.2 makes interchangeable with a feasible
``D``.  ``TestInMemory`` reads through the handle that wrote,
``TestDurable`` through a fresh one after a close.
"""

import pytest

from repro import (
    encode_doem,
    encoded_history,
    original_snapshot,
)
from repro.errors import StoreError
from repro.store import ChangeLogStore


def put_doem(store, name, doem):
    return store.put_history(name, original_snapshot(doem),
                             encoded_history(doem))


@pytest.fixture
def store(tmp_path):
    with ChangeLogStore(tmp_path / "st") as handle:
        yield handle


def reopened(store):
    store.close()
    return ChangeLogStore(store.path, "ro")


class TestInMemory:
    def test_put_get_oem(self, store, guide_db):
        log = store.create("guide", guide_db)
        assert len(log) == 0
        assert store.log("guide") is log
        assert log.tip().same_as(guide_db)

    def test_put_get_doem(self, store, guide_doem):
        put_doem(store, "history", guide_doem)
        assert store.get_doem("history").same_as(guide_doem)

    def test_missing_raises(self, store):
        with pytest.raises(StoreError):
            store.log("nope")
        with pytest.raises(StoreError):
            store.get_doem("nope")

    def test_names(self, store, guide_db, guide_doem):
        store.create("a", guide_db)
        put_doem(store, "b", guide_doem)
        assert store.names() == ["a", "b"]
        assert "a" in store and "zzz" not in store

    def test_delete(self, store, guide_db):
        store.create("a", guide_db)
        store.drop("a")
        assert store.names() == []
        assert "a" not in store
        # The name is free again, for a different database.
        other = guide_db.copy()
        other.update_value(next(n for n in other.nodes()
                                if other.value(n) == "Janta"), "Hakata")
        assert store.create("a", other).tip().same_as(other)

    def test_illegal_names(self, store, guide_db):
        for bad in ["", "a/b", "a b", ".hidden", "../up"]:
            with pytest.raises(StoreError):
                store.create(bad, guide_db)
        assert store.names() == []


class TestDurable:
    def test_oem_survives_reload(self, store, guide_db):
        store.create("guide", guide_db)
        with reopened(store) as fresh:
            assert fresh.log("guide").tip().same_as(guide_db)
            assert len(fresh.log("guide")) == 0

    def test_doem_survives_reload_via_encoding(self, store, guide_doem):
        """``(O0, H)`` is the stored form; the reloaded DOEM is the same
        database and therefore has the same Section 5.1 encoding."""
        put_doem(store, "history", guide_doem)
        with reopened(store) as fresh:
            restored = fresh.get_doem("history")
        assert restored.same_as(guide_doem)
        assert encode_doem(restored).oem.isomorphic_to(
            encode_doem(guide_doem).oem)

    def test_names_from_disk(self, store, guide_db, guide_doem):
        store.create("plain", guide_db)
        put_doem(store, "annotated", guide_doem)
        with reopened(store) as fresh:
            assert fresh.names() == ["annotated", "plain"]

    def test_delete_removes_files(self, store, guide_doem):
        put_doem(store, "d", guide_doem)
        store.drop("d")
        with reopened(store) as fresh:
            assert fresh.names() == []
        assert sorted(entry.name for entry in store.path.iterdir()) == \
            [".doemstore"]

    def test_random_doem_round_trips(self, store):
        from repro import build_doem, random_database, random_history
        db = random_database(seed=7, nodes=25)
        doem = build_doem(db, random_history(db, seed=7, steps=4))
        put_doem(store, "rand", doem)
        with reopened(store) as fresh:
            assert fresh.get_doem("rand").same_as(doem)
