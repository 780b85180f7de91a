"""Tests for the ECA trigger language (Section 7 future work)."""

import pytest

from repro import (
    COMPLEX,
    Activation,
    AddArc,
    CreNode,
    DOEMDatabase,
    Event,
    OEMDatabase,
    QueryError,
    RemArc,
    Rule,
    TriggerManager,
    UpdNode,
    parse_timestamp,
)
from tests.conftest import make_guide_db, make_guide_history


@pytest.fixture
def manager():
    return TriggerManager(DOEMDatabase(make_guide_db()), name="guide")


class TestEventMatching:
    def test_kind_matching(self):
        assert Event("update").matches(UpdNode("n", 5))
        assert not Event("update").matches(CreNode("n", 5))
        assert Event("add").matches(AddArc("p", "l", "c"))
        assert Event("remove").matches(RemArc("p", "l", "c"))

    def test_label_pattern(self):
        event = Event("add", label="comment%")
        assert event.matches(AddArc("p", "comment", "c"))
        assert event.matches(AddArc("p", "comments", "c"))
        assert not event.matches(AddArc("p", "name", "c"))

    def test_value_pattern(self):
        event = Event("update", value="2%")
        assert event.matches(UpdNode("n", 20))
        assert event.matches(UpdNode("n", "2nd"))
        assert not event.matches(UpdNode("n", 30))

    def test_old_value_pattern(self):
        event = Event("update", old_value="10")
        assert event.matches(UpdNode("n", 20), old_value=10)
        assert not event.matches(UpdNode("n", 20), old_value=15)

    def test_bad_combinations_rejected(self):
        with pytest.raises(QueryError):
            Event("nonsense")
        with pytest.raises(QueryError):
            Event("update", label="x")
        with pytest.raises(QueryError):
            Event("add", value="x")
        with pytest.raises(QueryError):
            Event("create", old_value="x")

    def test_str(self):
        assert "add" in str(Event("add", label="price"))


class TestRuleFiring:
    def test_unconditional_rule(self, manager):
        fired = []
        manager.on("any-update", Event("update"), fired.append)
        manager.fold("1Jan97", [UpdNode("n1", 20)])
        assert len(fired) == 1
        activation = fired[0]
        assert activation.subject == "n1"
        assert activation.at == parse_timestamp("1Jan97")
        assert "any-update" in str(activation)

    def test_condition_filters(self, manager):
        fired = []
        manager.on("big-price", Event("update"), fired.append,
                   condition="select NEW where NEW > 50")
        manager.fold("1Jan97", [UpdNode("n1", 20)])
        assert fired == []
        manager.fold("2Jan97", [UpdNode("n1", 60)])
        assert len(fired) == 1

    def test_condition_navigates_from_parent(self, manager):
        fired = []
        manager.on("janta-comment", Event("add", label="comment"),
                   fired.append,
                   condition='select N from PARENT.name N where N = "Janta"')
        manager.fold("1Jan97", [CreNode("c1", "nice"),
                                AddArc("r2", "comment", "c1")])   # Janta
        manager.fold("2Jan97", [CreNode("c2", "nice"),
                                AddArc("r1", "comment", "c2")])   # Bangkok
        assert len(fired) == 1
        assert fired[0].subject == "c1"

    def test_condition_sees_history(self, manager):
        """Conditions are Chorel: they can consult past annotations."""
        fired = []
        manager.on("second-update", Event("update"), fired.append,
                   condition="select T1, T2 from NEW<upd at T1>, "
                             "NEW<upd at T2> where T1 < T2")
        manager.fold("1Jan97", [UpdNode("n1", 20)])
        assert fired == []            # only one update so far
        manager.fold("2Jan97", [UpdNode("n1", 30)])
        assert len(fired) == 1        # now there are two

    def test_condition_pins_to_event_time_via_t0(self, manager):
        """t[0] in a condition is the fold timestamp, so a rule can look
        at exactly the update that fired it (not older ones)."""
        rows = []
        manager.on("hike", Event("update"),
                   lambda a: rows.append(a.condition_rows.first()),
                   condition="select OV, NV from "
                             "NEW<upd at T from OV to NV> "
                             "where NV > OV and T = t[0]")
        manager.fold("1Jan97", [UpdNode("n1", 20)])
        manager.fold("2Jan97", [UpdNode("n1", 30)])
        assert [(r["old-value"], r["new-value"]) for r in rows] == \
            [(10, 20), (20, 30)]

    def test_condition_rows_passed_to_action(self, manager):
        seen_rows = []
        manager.on("with-rows", Event("add", label="restaurant"),
                   lambda a: seen_rows.extend(a.condition_rows),
                   condition="select N from NEW.name N")
        manager.fold("1Jan97", [CreNode("r9", COMPLEX),
                                CreNode("r9n", "Zibibbo"),
                                AddArc("guide", "restaurant", "r9"),
                                AddArc("r9", "name", "r9n")])
        assert len(seen_rows) == 1

    def test_disabled_rule_does_not_fire(self, manager):
        fired = []
        rule = manager.on("off", Event("update"), fired.append)
        rule.enabled = False
        manager.fold("1Jan97", [UpdNode("n1", 20)])
        assert fired == []
        rule.enabled = True
        manager.fold("2Jan97", [UpdNode("n1", 30)])
        assert len(fired) == 1

    def test_multiple_rules_fire_in_registration_order(self, manager):
        order = []
        manager.on("first", Event("update"), lambda a: order.append("first"))
        manager.on("second", Event("update"), lambda a: order.append("second"))
        manager.fold("1Jan97", [UpdNode("n1", 20)])
        assert order == ["first", "second"]

    def test_fired_count_tracked(self, manager):
        rule = manager.on("counting", Event("update"), lambda a: None)
        manager.fold("1Jan97", [UpdNode("n1", 20)])
        manager.fold("2Jan97", [UpdNode("n1", 30)])
        assert rule.fired_count == 2

    def test_rem_event_bindings(self, manager):
        fired = []
        manager.on("lost", Event("remove", label="parking"), fired.append)
        manager.fold("8Jan97", [RemArc("r2", "parking", "n7")])
        assert fired[0].bindings == {"NEW": "n7", "PARENT": "r2"}


class TestManagerMechanics:
    def test_duplicate_rule_name_rejected(self, manager):
        manager.on("dup", Event("update"), lambda a: None)
        with pytest.raises(QueryError):
            manager.on("dup", Event("create"), lambda a: None)

    def test_remove_rule(self, manager):
        manager.on("gone", Event("update"), lambda a: None)
        manager.remove_rule("gone")
        assert manager.rules() == []
        with pytest.raises(QueryError):
            manager.remove_rule("gone")

    def test_fold_is_deferred_set_level(self, manager):
        """Conditions see the post-set state, not intermediate states."""
        fired = []
        manager.on("sees-comment", Event("add", label="restaurant"),
                   fired.append,
                   condition="select C from NEW.comment C")
        # The restaurant AND its comment arrive in one set; the condition
        # must see the comment even though addArc(restaurant) canonically
        # precedes addArc(comment).
        manager.fold("1Jan97", [
            CreNode("rx", COMPLEX), CreNode("cx", "hello"),
            AddArc("guide", "restaurant", "rx"),
            AddArc("rx", "comment", "cx")])
        assert len(fired) == 1

    def test_replay_history_reproduces_running_example(self, manager):
        kinds = []
        for kind in ("create", "update", "add", "remove"):
            manager.on(kind, Event(kind),
                       lambda a, k=kind: kinds.append(k))
        manager.replay_history(make_guide_history())
        assert kinds.count("update") == 1
        assert kinds.count("create") == 3
        assert kinds.count("add") == 3
        assert kinds.count("remove") == 1

    def test_activations_log(self, manager):
        manager.on("log", Event("update"), lambda a: None)
        manager.fold("1Jan97", [UpdNode("n1", 20)])
        assert len(manager.activations) == 1

    def test_empty_manager_from_scratch(self):
        manager = TriggerManager(root="top")
        fired = []
        manager.on("creation", Event("create"), fired.append)
        manager.fold("1Jan97", [CreNode("a", 1), AddArc("top", "x", "a")])
        assert len(fired) == 1
        assert manager.doem.graph.value("a") == 1


class TestOneEngine:
    """A manager folds through one engine for its whole life."""

    CONDITIONS = {
        "update": "select OV, NV from NEW<upd at T from OV to NV> "
                  "where T = t[0]",
        "add": "select N from PARENT.name N",
        "create": "select NEW where NEW != 0",
        "remove": "select P from PARENT.price P",
    }

    @staticmethod
    def replay(manager, history):
        for index, (kind, condition) in enumerate(
                TestOneEngine.CONDITIONS.items()):
            manager.on(f"rule{index}", Event(kind), lambda a: None,
                       condition=condition)
        return [(a.rule.name, a.at, a.operation, a.bindings,
                 [str(row) for row in a.condition_rows])
                for a in manager.replay_history(history)]

    def test_thirty_sets_one_engine(self, monkeypatch):
        from repro import random_database, random_history
        from repro.triggers import manager as module

        db = random_database(seed=7, nodes=30)
        history = random_history(db, seed=7, steps=30, set_size=6)
        assert len(history) == 30

        class FreshPerFold(TriggerManager):
            """The manager as it was: a new engine for every fold."""

            def fold(self, when, changes):
                self._engine = module.ChorelEngine(self.doem)
                return super().fold(when, changes)

        expected = self.replay(FreshPerFold(DOEMDatabase(db.copy())),
                               history)
        built = []

        class Counted(module.ChorelEngine):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(module, "ChorelEngine", Counted)
        got = self.replay(TriggerManager(DOEMDatabase(db.copy())), history)
        assert len(built) == 1
        assert got == expected
        assert {name for name, *_ in got} == {f"rule{i}" for i in range(4)}

    def test_renamed_manager_keeps_resolving(self, manager):
        """``name`` may be reassigned between folds (the paper suite
        does); conditions then resolve the new name."""
        fired = []
        manager.name = "Guide"
        manager.on("named", Event("update"), fired.append,
                   condition="select Guide.restaurant")
        manager.fold("1Jan97", [UpdNode("n1", 20)])
        assert len(fired) == 1
