"""Tests for the OEM database model (Definition 2.1 semantics)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import COMPLEX, OEMDatabase, random_database, random_history
from repro.errors import (
    DuplicateNodeError,
    InvalidChangeError,
    OEMError,
    UnknownNodeError,
)


@pytest.fixture
def tiny():
    db = OEMDatabase(root="r")
    db.create_node("a", COMPLEX)
    db.create_node("x", 1)
    db.add_arc("r", "child", "a")
    db.add_arc("a", "val", "x")
    return db


class TestNodes:
    def test_root_exists(self):
        db = OEMDatabase(root="top")
        assert db.root == "top"
        assert db.has_node("top")
        assert db.is_complex("top")

    def test_create_and_value(self, tiny):
        assert tiny.value("x") == 1
        assert tiny.value("a") is COMPLEX
        assert tiny.is_atomic("x") and not tiny.is_atomic("a")

    def test_duplicate_id_rejected(self, tiny):
        with pytest.raises(DuplicateNodeError):
            tiny.create_node("a", 5)

    def test_unknown_node(self, tiny):
        with pytest.raises(UnknownNodeError):
            tiny.value("zzz")

    def test_len_and_contains(self, tiny):
        assert len(tiny) == 3
        assert "a" in tiny and "zzz" not in tiny

    def test_new_node_id_is_fresh(self, tiny):
        minted = {tiny.new_node_id() for _ in range(100)}
        assert len(minted) == 100
        assert not (minted & set(tiny.nodes()))

    def test_update_value(self, tiny):
        tiny.update_value("x", "hello")
        assert tiny.value("x") == "hello"

    def test_update_value_complex_with_children_stays_complex(self, tiny):
        with pytest.raises(InvalidChangeError):
            tiny.update_value("a", 5)  # 'a' still has a subobject

    def test_update_childless_complex_to_atomic(self, tiny):
        tiny.remove_arc("a", "val", "x")
        tiny.update_value("a", 5)
        assert tiny.value("a") == 5

    def test_update_atomic_to_complex(self, tiny):
        tiny.update_value("x", COMPLEX)
        assert tiny.is_complex("x")


class TestArcs:
    def test_has_arc(self, tiny):
        assert tiny.has_arc("r", "child", "a")
        assert not tiny.has_arc("r", "other", "a")

    def test_add_arc_to_atomic_parent_rejected(self, tiny):
        with pytest.raises(InvalidChangeError):
            tiny.add_arc("x", "l", "a")

    def test_add_duplicate_arc_rejected(self, tiny):
        with pytest.raises(InvalidChangeError):
            tiny.add_arc("r", "child", "a")

    def test_add_arc_unknown_endpoint(self, tiny):
        with pytest.raises(UnknownNodeError):
            tiny.add_arc("r", "l", "zzz")
        with pytest.raises(UnknownNodeError):
            tiny.add_arc("zzz", "l", "a")

    def test_same_label_multiple_children(self, tiny):
        tiny.create_node("b", 2)
        tiny.add_arc("a", "val", "b")
        assert sorted(tiny.children("a", "val")) == ["b", "x"]

    def test_same_child_multiple_labels(self, tiny):
        tiny.add_arc("r", "alias", "a")
        assert sorted(arc.label for arc in tiny.in_arcs("a")) == \
            ["alias", "child"]

    def test_remove_arc(self, tiny):
        tiny.remove_arc("a", "val", "x")
        assert not tiny.has_arc("a", "val", "x")
        assert not tiny.has_children("a")

    def test_remove_missing_arc_rejected(self, tiny):
        with pytest.raises(InvalidChangeError):
            tiny.remove_arc("r", "nope", "a")

    def test_arc_count(self, tiny):
        assert tiny.arc_count() == 2

    def test_out_labels_and_parents(self, tiny):
        assert list(tiny.out_labels("a")) == ["val"]
        assert list(tiny.parents("a")) == ["r"]

    def test_self_loop(self, tiny):
        tiny.add_arc("a", "self", "a")
        assert tiny.has_arc("a", "self", "a")
        assert "a" in tiny.children("a", "self")


class TestReachability:
    def test_all_reachable(self, tiny):
        assert tiny.reachable() == {"r", "a", "x"}
        assert tiny.unreachable_nodes() == set()

    def test_unreachable_after_removal(self, tiny):
        tiny.remove_arc("r", "child", "a")
        assert tiny.unreachable_nodes() == {"a", "x"}

    def test_collect_garbage(self, tiny):
        tiny.remove_arc("r", "child", "a")
        doomed = tiny.collect_garbage()
        assert doomed == {"a", "x"}
        assert len(tiny) == 1 and tiny.arc_count() == 0

    def test_gc_keeps_cyclic_reachable(self):
        db = OEMDatabase(root="r")
        db.create_node("a", COMPLEX)
        db.create_node("b", COMPLEX)
        db.add_arc("r", "to", "a")
        db.add_arc("a", "to", "b")
        db.add_arc("b", "back", "a")     # cycle a <-> b
        assert db.collect_garbage() == set()

    def test_gc_collects_unreachable_cycle(self):
        db = OEMDatabase(root="r")
        db.create_node("a", COMPLEX)
        db.create_node("b", COMPLEX)
        db.add_arc("r", "to", "a")
        db.add_arc("a", "to", "b")
        db.add_arc("b", "back", "a")
        db.remove_arc("r", "to", "a")
        # The a<->b cycle keeps each node individually referenced, but
        # neither is root-reachable: both must die.
        assert db.collect_garbage() == {"a", "b"}

    def test_check_passes_on_valid(self, tiny):
        tiny.check()

    def test_check_rejects_unreachable(self, tiny):
        tiny.remove_arc("r", "child", "a")
        with pytest.raises(OEMError):
            tiny.check()


class TestCopyAndEquality:
    def test_copy_is_deep(self, tiny):
        clone = tiny.copy()
        clone.update_value("x", 99)
        assert tiny.value("x") == 1
        clone.create_node("extra", 5)
        assert "extra" not in tiny

    def test_same_as(self, tiny):
        assert tiny.same_as(tiny.copy())

    def test_same_as_detects_value_change(self, tiny):
        other = tiny.copy()
        other.update_value("x", 2)
        assert not tiny.same_as(other)

    def test_same_as_detects_arc_change(self, tiny):
        other = tiny.copy()
        other.create_node("y", 3)
        other.add_arc("a", "val", "y")
        assert not tiny.same_as(other)

    def test_copy_mints_fresh_ids(self, tiny):
        clone = tiny.copy()
        assert clone.new_node_id() not in set(clone.nodes())


def recount(db):
    return sum(1 for _ in db.arcs())


class TestArcCounter:
    """``arc_count()`` is a maintained counter, never an iteration."""

    @given(seed=st.integers(min_value=0, max_value=10_000),
           nodes=st.integers(min_value=2, max_value=40),
           steps=st.integers(min_value=1, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_counter_equals_recount_through_change_sets(self, seed, nodes,
                                                        steps):
        db = random_database(seed=seed, nodes=nodes)
        assert db.arc_count() == recount(db)
        history = random_history(db, seed=seed, steps=steps, set_size=8)
        for _, change_set in history:
            # Without GC first: arcs into unreachable nodes still count.
            change_set.apply_to(db, collect_garbage=False)
            assert db.arc_count() == recount(db)
            db.collect_garbage()
            assert db.arc_count() == recount(db)
            clone = db.copy()
            assert clone.arc_count() == recount(clone) == db.arc_count()
            db.check()

    def test_copy_counts_independently(self, tiny):
        clone = tiny.copy()
        clone.remove_arc("a", "val", "x")
        assert (tiny.arc_count(), clone.arc_count()) == (2, 1)

    def test_delete_node_drops_its_arcs_from_the_count(self, tiny):
        tiny._delete_node("a")
        assert tiny.arc_count() == recount(tiny) == 0

    def test_failed_mutations_leave_the_count_alone(self, tiny):
        with pytest.raises(InvalidChangeError):
            tiny.add_arc("r", "child", "a")  # already present
        with pytest.raises(InvalidChangeError):
            tiny.remove_arc("r", "nope", "a")
        assert tiny.arc_count() == recount(tiny) == 2

    def test_check_catches_a_drifted_counter(self, tiny):
        tiny._arc_count += 1
        with pytest.raises(OEMError, match="arc counter"):
            tiny.check()

    def test_arc_count_does_not_iterate(self, tiny):
        class NoIteration(dict):
            def __iter__(self):
                raise AssertionError("arc_count() walked the graph")
            values = items = keys = __iter__

        tiny._out = NoIteration(tiny._out)
        assert tiny.arc_count() == 2


class TestIsomorphism:
    def test_isomorphic_to_renamed_copy(self, tiny):
        other = OEMDatabase(root="R")
        other.create_node("A", COMPLEX)
        other.create_node("X", 1)
        other.add_arc("R", "child", "A")
        other.add_arc("A", "val", "X")
        assert tiny.isomorphic_to(other)
        assert other.isomorphic_to(tiny)

    def test_not_isomorphic_different_value(self, tiny):
        other = tiny.copy()
        other.update_value("x", 2)
        assert not tiny.isomorphic_to(other)

    def test_not_isomorphic_different_shape(self, tiny):
        other = tiny.copy()
        other.create_node("y", 1)
        other.add_arc("a", "val", "y")
        assert not tiny.isomorphic_to(other)

    def test_isomorphic_with_symmetric_twins(self):
        # Two indistinguishable siblings exercise the backtracking search.
        def build(prefix):
            db = OEMDatabase(root="r")
            for index in range(2):
                node = db.create_node(f"{prefix}{index}", COMPLEX)
                db.add_arc("r", "twin", node)
                leaf = db.create_node(f"{prefix}leaf{index}", 7)
                db.add_arc(node, "v", leaf)
            return db
        assert build("a").isomorphic_to(build("b"))

    def test_isomorphic_with_cycles(self, guide_db):
        import repro.oem.serialize as ser
        clone = ser.loads(ser.dumps(guide_db))
        assert guide_db.isomorphic_to(clone)

    @staticmethod
    def chains(lengths, seed):
        """Chains of complex nodes under one root, created in a shuffled
        order.  Nodes more than six arcs from both ends of a chain refine
        to one signature, so the search must guess, and take guesses back."""
        import random
        names = [(chain, index) for chain, length in enumerate(lengths)
                 for index in range(length)]
        random.Random(seed).shuffle(names)
        db = OEMDatabase(root="r")
        for chain, index in names:
            db.create_node(f"s{seed}c{chain}_{index}", COMPLEX)
        for chain, length in enumerate(lengths):
            db.add_arc("r", "chain", f"s{seed}c{chain}_0")
            for index in range(length - 1):
                db.add_arc(f"s{seed}c{chain}_{index}", "next",
                           f"s{seed}c{chain}_{index + 1}")
        return db

    @pytest.mark.parametrize("seed", range(4))
    def test_search_backtracks_out_of_wrong_guesses(self, seed):
        assert self.chains([14, 16], seed).isomorphic_to(
            self.chains([16, 14], seed + 100))

    @pytest.mark.parametrize("seed", range(4))
    def test_exhausted_search_is_not_isomorphic(self, seed):
        # Same signature multiset (two middles of 2 + 4 against 3 + 3
        # nodes), so only the search can tell them apart.
        assert not self.chains([14, 16], seed).isomorphic_to(
            self.chains([15, 15], seed + 100))


class TestPresentation:
    def test_describe_contains_values(self, tiny):
        text = tiny.describe()
        assert "child" in text and "val" in text and "= 1" in text

    def test_describe_handles_cycles(self, guide_db):
        text = guide_db.describe()
        assert "shared" in text  # the cyclic/shared parking object

    def test_repr(self, tiny):
        assert "nodes=3" in repr(tiny)
