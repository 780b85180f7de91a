"""Tests for the Lorel update language (updates compile to change ops)."""

import pytest

from repro import AddArc, COMPLEX, CreNode, QueryError, RemArc, UpdNode
from repro.lorel.update import parse_update, plan_update
from repro.errors import ParseError


class TestParsing:
    def test_update(self):
        statement = parse_update('update guide.restaurant.price := 25')
        assert statement.kind == "update"
        assert statement.value == 25

    def test_insert_atomic(self):
        statement = parse_update('insert guide.restaurant.comment := "good"')
        assert statement.kind == "insert"
        assert statement.value == "good"

    def test_remove(self):
        statement = parse_update(
            'remove guide.restaurant.parking '
            'where guide.restaurant.name = "Janta"')
        assert statement.kind == "remove"
        assert statement.where is not None

    def test_link(self):
        statement = parse_update(
            "link guide.restaurant.annex := PATH guide.restaurant")
        assert statement.kind == "link"
        assert statement.target_path is not None

    def test_missing_assignment_rejected(self):
        with pytest.raises(ParseError):
            parse_update("update guide.x 25")

    def test_unknown_verb_rejected(self):
        with pytest.raises(ParseError):
            parse_update("destroy guide.x")

    def test_brace_spec_rejected_in_text(self):
        # Complex specs are not textual: pass a mapping to plan_update.
        with pytest.raises(QueryError):
            parse_update("insert guide.r := { name: 1 }")


class TestPlanning:
    def test_update_targets_by_where(self, figure3_db):
        changes = plan_update(
            figure3_db,
            'update guide.restaurant.price := 25 '
            'where guide.restaurant.name = "Janta"')
        assert changes.operations() == (UpdNode("pr2", 25),)

    def test_update_all_matches(self, figure3_db):
        changes = plan_update(figure3_db,
                              "update guide.restaurant.price := 5")
        updated = {op.node for op in changes.filter(UpdNode)}
        assert updated == {"n1", "pr2"}

    def test_insert_atomic(self, figure3_db):
        changes = plan_update(
            figure3_db,
            'insert guide.restaurant.comment := "closed mondays" '
            'where guide.restaurant.name = "Hakata"')
        assert len(changes.filter(CreNode)) == 1
        assert len(changes.filter(AddArc)) == 1
        parent = changes.filter(AddArc)[0].source
        assert parent == "n2"  # Hakata

    def test_insert_complex_mapping(self, figure3_db):
        changes = plan_update(
            figure3_db,
            parse_update('insert guide.restaurant := 0'),
            value={"name": "Zibibbo", "price": 30,
                   "address": {"street": "Kipling"}})
        changes.apply_to(figure3_db)
        found = [node for node in figure3_db.nodes()
                 if figure3_db.value(node) == "Zibibbo"]
        assert len(found) == 1
        figure3_db.check()

    def test_remove(self, figure3_db):
        changes = plan_update(
            figure3_db,
            'remove guide.restaurant.parking '
            'where guide.restaurant.name = "Bangkok Cuisine"')
        assert changes.operations() == (RemArc("r1", "parking", "n7"),)

    def test_link(self, figure3_db):
        changes = plan_update(
            figure3_db,
            'link guide.restaurant.sister := PATH guide.restaurant '
            'where guide.restaurant.name = "Hakata"')
        # Hakata gets a sister arc to itself (single match on both sides).
        assert changes.operations() == (AddArc("n2", "sister", "n2"),)

    def test_planning_twice_leaves_the_database_alone(self, figure3_db):
        """Planning reads: one database state, equal change sets, and
        nothing minted until a plan is applied."""
        statement = ('insert guide.restaurant.comment := "open late" '
                     'where guide.restaurant.name = "Hakata"')
        value = {"name": "Zibibbo", "address": {"street": "Kipling"}}
        first = plan_update(figure3_db, statement)
        second = plan_update(figure3_db, statement)
        assert first.operations() == second.operations()
        nested = [plan_update(figure3_db, 'insert guide.restaurant := 0',
                              value=value) for _ in range(2)]
        assert nested[0].operations() == nested[1].operations()
        created = [op.node for op in nested[0].filter(CreNode)]
        assert len(set(created)) == len(created) == 4
        assert figure3_db.new_node_id() == first.filter(CreNode)[0].node
        first.apply_to(figure3_db)
        third = plan_update(figure3_db, statement)
        assert {op.node for op in third.filter(CreNode)}.isdisjoint(
            op.node for op in first.filter(CreNode))

    def test_plan_then_apply_round_trip(self, figure3_db):
        changes = plan_update(
            figure3_db,
            'update guide.restaurant.price := 99 '
            'where guide.restaurant.name = "Bangkok Cuisine"')
        changes.apply_to(figure3_db)
        assert figure3_db.value("n1") == 99

    def test_plan_into_doem(self, guide_db, guide_history):
        """Planned updates fold into a DOEM database like any change set."""
        from repro import build_doem
        from repro.doem.build import apply_change_set
        doem = build_doem(guide_db, guide_history)
        from repro.doem.snapshot import current_snapshot
        snapshot = current_snapshot(doem)
        changes = plan_update(
            snapshot,
            'update guide.restaurant.price := 30 '
            'where guide.restaurant.name = "Bangkok Cuisine"')
        apply_change_set(doem, "9Jan97", changes)
        assert doem.graph.value("n1") == 30
        assert len(doem.node_annotations("n1")) == 2  # two upd annotations


class TestPlanningErrors:
    def test_update_needs_value(self, figure3_db):
        statement = parse_update("update guide.restaurant.price := 1")
        object.__setattr__(statement, "value", None)
        with pytest.raises(QueryError):
            plan_update(figure3_db, statement)

    def test_wildcard_final_step_rejected(self, figure3_db):
        with pytest.raises(QueryError):
            plan_update(figure3_db, "update guide.restaurant.# := 1")

    def test_update_with_mapping_rejected(self, figure3_db):
        statement = parse_update("update guide.restaurant.price := 1")
        with pytest.raises(QueryError):
            plan_update(figure3_db, statement, value={"nested": 1})

    def test_empty_path_rejected(self, figure3_db):
        from repro.lorel.ast import PathExpr
        from repro.lorel.update import UpdateStatement
        statement = UpdateStatement("update", PathExpr("guide", ()), 1)
        with pytest.raises(QueryError):
            plan_update(figure3_db, statement)
