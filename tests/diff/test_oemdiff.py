"""Tests for change inference: U(A) isomorphic to B."""

import pytest

from repro import (
    AddArc,
    COMPLEX,
    CreNode,
    OEMDatabase,
    RemArc,
    UpdNode,
    apply_diff,
    oem_diff,
    random_database,
    random_change_set,
)
from repro.diff.oemdiff import DiffStats
from repro.errors import DiffError
from repro.sources.base import scramble_ids


def check_diff(old, new):
    """The central contract: applying the diff reproduces the new snapshot."""
    change_set = oem_diff(old, new)
    result = apply_diff(old, change_set)
    assert result.isomorphic_to(new), change_set
    return change_set


class TestBasicEdits:
    def test_identical_snapshots_empty_diff(self, guide_db):
        change_set = oem_diff(guide_db, guide_db.copy())
        assert len(change_set) == 0

    def test_scrambled_identical_snapshot_empty_diff(self, guide_db):
        change_set = oem_diff(guide_db, scramble_ids(guide_db, salt=5))
        assert len(change_set) == 0

    def test_value_update(self, guide_db):
        new = scramble_ids(guide_db, salt=1)
        target = [n for n in new.nodes() if new.value(n) == 10][0]
        new.update_value(target, 20)
        change_set = check_diff(guide_db, new)
        assert change_set.operations() == (UpdNode("n1", 20),)

    def test_insertion(self, guide_db):
        new = scramble_ids(guide_db, salt=2)
        node = new.create_node("hk", COMPLEX)
        new.add_arc("guide", "restaurant", node)
        name = new.create_node("hkn", "Hakata")
        new.add_arc(node, "name", name)
        change_set = check_diff(guide_db, new)
        stats = DiffStats(change_set)
        assert (stats.creates, stats.additions, stats.removals) == (2, 2, 0)

    def test_deletion(self, guide_db):
        new = scramble_ids(guide_db, salt=3)
        # remove Janta (r2's image) entirely
        target = [arc.target for arc in new.arcs()
                  if arc.label == "name" and new.value(arc.target) == "Janta"]
        parent = [arc.source for arc in new.arcs()
                  if arc.target == target[0]][0]
        for arc in list(new.in_arcs(parent)):
            new.remove_arc(*arc)
        new.collect_garbage()
        change_set = check_diff(guide_db, new)
        stats = DiffStats(change_set)
        assert stats.removals >= 1 and stats.creates == 0

    def test_arc_rewiring(self, guide_db):
        new = scramble_ids(guide_db, salt=4)
        # drop Janta's parking arc only (Figure 3's t3 change)
        janta = [arc.source for arc in new.arcs()
                 if arc.label == "name" and new.value(arc.target) == "Janta"][0]
        lot = next(iter(new.children(janta, "parking")))
        new.remove_arc(janta, "parking", lot)
        change_set = check_diff(guide_db, new)
        assert RemArc("r2", "parking", "n7") in change_set.operations()

    def test_type_flip_atomic_to_complex(self):
        old = OEMDatabase(root="r")
        old.create_node("x", "flat address")
        old.add_arc("r", "address", "x")
        new = OEMDatabase(root="r")
        new.create_node("y", COMPLEX)
        new.add_arc("r", "address", "y")
        new.create_node("s", "Lytton")
        new.add_arc("y", "street", "s")
        check_diff(old, new)

    def test_type_flip_complex_to_atomic(self):
        old = OEMDatabase(root="r")
        old.create_node("y", COMPLEX)
        old.add_arc("r", "address", "y")
        old.create_node("s", "Lytton")
        old.add_arc("y", "street", "s")
        new = OEMDatabase(root="r")
        new.create_node("x", "flat address")
        new.add_arc("r", "address", "x")
        check_diff(old, new)

    def test_empty_to_populated(self, guide_db):
        """R0 = empty: QSS's first poll creates everything."""
        empty = OEMDatabase(root="guide")
        change_set = check_diff(empty, guide_db)
        stats = DiffStats(change_set)
        assert stats.creates == len(guide_db) - 1
        assert stats.removals == 0 and stats.updates == 0

    def test_populated_to_empty(self, guide_db):
        empty = OEMDatabase(root="guide")
        change_set = check_diff(guide_db, empty)
        assert DiffStats(change_set).creates == 0


class TestIdentifierDiscipline:
    def test_reserved_ids_avoided(self, guide_db):
        new = scramble_ids(guide_db, salt=6)
        node = new.create_node("fresh", 1)
        new.add_arc("guide", "extra", node)
        reserved = {f"d{i}" for i in range(1, 50)}
        change_set = oem_diff(guide_db, new, reserved_ids=reserved)
        created = change_set.created_nodes()
        assert created and not (created & reserved)

    def test_id_factory(self, guide_db):
        new = scramble_ids(guide_db, salt=7)
        node = new.create_node("fresh", 1)
        new.add_arc("guide", "extra", node)
        counter = iter(range(1000, 2000))
        change_set = oem_diff(guide_db, new,
                              id_factory=lambda: f"q{next(counter)}")
        assert change_set.created_nodes() == {"q1000"}

    def test_colliding_factory_rejected(self, guide_db):
        new = scramble_ids(guide_db, salt=8)
        node = new.create_node("fresh", 1)
        new.add_arc("guide", "extra", node)
        with pytest.raises(DiffError):
            oem_diff(guide_db, new, id_factory=lambda: "n1")

    def test_factory_repeating_itself_rejected(self, guide_db):
        new = scramble_ids(guide_db, salt=8)
        for extra in ("fresh", "fresher"):
            new.add_arc("guide", "extra", new.create_node(extra, 1))
        with pytest.raises(DiffError):
            oem_diff(guide_db, new, id_factory=lambda: "unused-but-twice")


class TestRandomizedContract:
    """Property-style sweep: diff random snapshot pairs, apply, compare."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_evolution(self, seed):
        old = random_database(seed=seed, nodes=25)
        new = old.copy()
        random_change_set(new, seed=seed + 100, size=8).apply_to(new)
        scrambled = scramble_ids(new, salt=seed)
        check_diff(old, scrambled)

    @pytest.mark.parametrize("seed", range(4))
    def test_multi_step_evolution(self, seed):
        db = random_database(seed=seed + 50, nodes=20)
        current = db.copy()
        for step in range(3):
            previous = current.copy()
            random_change_set(current, seed=seed * 10 + step,
                              size=6, id_prefix=f"s{step}_").apply_to(current)
            check_diff(previous, scramble_ids(current, salt=step))


class TestBenchmarkScaleContract:
    """What the pipeline benchmark could only approximate while
    ``isomorphic_to`` recursed: the law itself, at its size."""

    def test_scrambled_poll_of_a_5001_node_source(self):
        from repro.sources.generators import large_database, large_history
        source = large_database(seed=3, items=1000)
        assert len(source) == 5001
        previous = scramble_ids(source, salt=1)
        for _, change_set in large_history(source, seed=3, steps=1,
                                           churn=200):
            change_set.apply_to(source)
        polled = scramble_ids(source, salt=2)
        inferred = oem_diff(previous, polled)
        assert 0 < len(inferred) < 400
        assert apply_diff(previous, inferred).isomorphic_to(polled)
