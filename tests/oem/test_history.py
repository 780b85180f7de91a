"""Tests for change sets and OEM histories (Section 2.2)."""

import pytest

from repro import (
    COMPLEX,
    AddArc,
    ChangeSet,
    CreNode,
    OEMDatabase,
    OEMHistory,
    RemArc,
    UpdNode,
    parse_timestamp,
)
from repro.errors import InvalidChangeError, InvalidHistoryError


@pytest.fixture
def db():
    base = OEMDatabase(root="r")
    base.create_node("a", COMPLEX)
    base.create_node("x", 1)
    base.add_arc("r", "child", "a")
    base.add_arc("a", "val", "x")
    return base


class TestChangeSetConflicts:
    def test_add_and_rem_same_arc_rejected(self):
        with pytest.raises(InvalidHistoryError):
            ChangeSet([AddArc("p", "l", "c"), RemArc("p", "l", "c")])

    def test_two_updates_same_node_rejected(self):
        with pytest.raises(InvalidHistoryError):
            ChangeSet([UpdNode("n", 1), UpdNode("n", 2)])

    def test_two_creates_same_node_rejected(self):
        with pytest.raises(InvalidHistoryError):
            ChangeSet([CreNode("n", 1), CreNode("n", 2)])

    def test_create_then_update_same_node_rejected(self):
        with pytest.raises(InvalidHistoryError):
            ChangeSet([CreNode("n", 1), UpdNode("n", 2)])

    def test_duplicate_operation_rejected(self):
        with pytest.raises(InvalidHistoryError):
            ChangeSet([AddArc("p", "l", "c"), AddArc("p", "l", "c")])

    def test_disjoint_operations_fine(self):
        changes = ChangeSet([AddArc("p", "l", "c"), RemArc("p", "l", "d"),
                             UpdNode("m", 1), CreNode("q", 2)])
        assert len(changes) == 4


class TestCanonicalOrder:
    def test_phases(self):
        changes = ChangeSet([
            AddArc("p", "l", "c"),
            UpdNode("n", 1),
            RemArc("p", "l", "d"),
            CreNode("c", COMPLEX),
        ])
        kinds = [type(op).__name__ for op in changes.canonical_order()]
        assert kinds == ["CreNode", "RemArc", "UpdNode", "AddArc"]

    def test_order_is_deterministic(self):
        ops = [AddArc("p", "a", "c1"), AddArc("p", "b", "c2"),
               CreNode("c1", 1), CreNode("c2", 2)]
        assert ChangeSet(ops).canonical_order() == \
            ChangeSet(list(reversed(ops))).canonical_order()

    def test_create_then_link(self, db):
        # A node created and linked in one set must survive GC.
        changes = ChangeSet([AddArc("a", "kid", "new"),
                             CreNode("new", 7)])
        doomed = changes.apply_to(db)
        assert doomed == set()
        assert db.value("new") == 7

    def test_unlinked_creation_is_garbage(self, db):
        changes = ChangeSet([CreNode("orphan", 7)])
        doomed = changes.apply_to(db)
        assert doomed == {"orphan"}
        assert "orphan" not in db

    def test_remove_then_retype(self, db):
        # Removing 'a's subobject and making 'a' atomic in one set works
        # because rem precedes upd canonically.
        changes = ChangeSet([UpdNode("a", 5), RemArc("a", "val", "x")])
        changes.apply_to(db)
        assert db.value("a") == 5
        assert "x" not in db  # x became unreachable

    def test_retype_then_extend(self, db):
        # Making 'x' complex and giving it a child in one set works
        # because upd precedes add canonically.
        changes = ChangeSet([AddArc("x", "kid", "k"), CreNode("k", 1),
                             UpdNode("x", COMPLEX)])
        changes.apply_to(db)
        assert db.is_complex("x")
        assert db.has_arc("x", "kid", "k")

    def test_is_valid_for(self, db):
        assert ChangeSet([UpdNode("x", 2)]).is_valid_for(db)
        assert not ChangeSet([UpdNode("zzz", 2)]).is_valid_for(db)
        # Validation must not mutate.
        assert db.value("x") == 1

    def test_apply_invalid_raises(self, db):
        with pytest.raises(InvalidChangeError):
            ChangeSet([AddArc("a", "val", "x")]).apply_to(db)  # arc exists

    def test_equality_is_order_insensitive(self):
        a = ChangeSet([UpdNode("n", 1), AddArc("p", "l", "c")])
        b = ChangeSet([AddArc("p", "l", "c"), UpdNode("n", 1)])
        assert a == b and hash(a) == hash(b)

    def test_created_nodes(self):
        changes = ChangeSet([CreNode("a", 1), CreNode("b", 2),
                             AddArc("r", "l", "a")])
        assert changes.created_nodes() == {"a", "b"}

    def test_filter(self):
        changes = ChangeSet([CreNode("a", 1), AddArc("r", "l", "a")])
        assert len(changes.filter(CreNode)) == 1
        assert len(changes.filter(RemArc)) == 0


class TestHistory:
    def test_timestamps_strictly_increase(self):
        history = OEMHistory()
        history.append("1Jan97", [UpdNode("x", 1)])
        with pytest.raises(InvalidHistoryError):
            history.append("1Jan97", [UpdNode("x", 2)])
        with pytest.raises(InvalidHistoryError):
            history.append("31Dec96", [UpdNode("x", 2)])

    def test_timestamp_coercion(self):
        history = OEMHistory([("1Jan97", [UpdNode("x", 1)]),
                              ("1997-01-05", [UpdNode("x", 2)])])
        t1, t2 = history.timestamps()
        assert t1 == parse_timestamp("1Jan97")
        assert t2 == parse_timestamp("5Jan97")

    def test_infinite_timestamp_rejected(self):
        from repro import POS_INF
        with pytest.raises(InvalidHistoryError):
            OEMHistory([(POS_INF, [UpdNode("x", 1)])])

    def test_apply_and_replay(self, db):
        history = OEMHistory([
            ("1Jan97", [UpdNode("x", 2)]),
            ("2Jan97", [UpdNode("x", 3)]),
        ])
        snapshots = history.replay(db)
        assert [snap.value("x") for snap in snapshots] == [1, 2, 3]
        # replay leaves the base untouched
        assert db.value("x") == 1

    def test_snapshot_at(self, db):
        history = OEMHistory([
            ("1Jan97", [UpdNode("x", 2)]),
            ("5Jan97", [UpdNode("x", 3)]),
        ])
        assert history.snapshot_at(db, "31Dec96").value("x") == 1
        assert history.snapshot_at(db, "1Jan97").value("x") == 2
        assert history.snapshot_at(db, "3Jan97").value("x") == 2
        assert history.snapshot_at(db, "9Jan97").value("x") == 3

    def test_prefix(self, db):
        history = OEMHistory([
            ("1Jan97", [UpdNode("x", 2)]),
            ("5Jan97", [UpdNode("x", 3)]),
        ])
        clipped = history.prefix("2Jan97")
        assert len(clipped) == 1

    def test_entries_between(self):
        """``after < t <= until``, for bounds on, between and beyond the
        entries -- the run a replay from one snapshot to another applies."""
        from repro import NEG_INF, POS_INF
        history = OEMHistory([(f"{day}Jan97", [UpdNode("x", day)])
                              for day in (1, 3, 5, 7, 9)])
        entries = list(history.entries())
        bounds = [NEG_INF, POS_INF] + [parse_timestamp(f"{day}Jan97")
                                       for day in range(1, 11)]
        for after in bounds:
            for until in bounds:
                assert list(history.entries_between(after, until)) == \
                    [entry for entry in entries if after < entry[0] <= until]
        assert OEMHistory().entries_between(NEG_INF, POS_INF) == []

    def test_is_valid_for(self, db):
        good = OEMHistory([("1Jan97", [UpdNode("x", 2)])])
        bad = OEMHistory([("1Jan97", [UpdNode("ghost", 2)])])
        assert good.is_valid_for(db)
        assert not bad.is_valid_for(db)

    def test_operation_count(self, guide_history):
        assert guide_history.operation_count() == 8

    def test_deleted_ids_affect_later_sets(self, db):
        # After 'a' (and 'x') become unreachable at t1, touching them at
        # t2 is invalid.
        history = OEMHistory([
            ("1Jan97", [RemArc("r", "child", "a")]),
            ("2Jan97", [UpdNode("x", 9)]),
        ])
        assert not history.is_valid_for(db)


class TestExample23:
    """The full Example 2.3 history against the Figure 2 database."""

    def test_history_is_valid(self, guide_db, guide_history):
        assert guide_history.is_valid_for(guide_db)

    def test_final_state_matches_figure3(self, guide_db, guide_history):
        final = guide_history.apply_to(guide_db.copy())
        assert final.value("n1") == 20
        assert final.value("n3") == "Hakata"
        assert final.has_arc("n2", "comment", "n5")
        assert not final.has_arc("r2", "parking", "n7")
        # The parking object n7 survives through Bangkok's arc.
        assert final.has_node("n7")
        final.check()
