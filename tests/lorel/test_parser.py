"""Tests for the Lorel/Chorel parser and pretty-printer."""

import pytest

from repro import ParseError, format_query, parse_query, parse_timestamp
from repro.lorel.parser import MAX_CONDITION_DEPTH
from repro.lorel.ast import (
    And,
    Comparison,
    ExistsCond,
    LikeCond,
    Literal,
    Not,
    Or,
    PathExpr,
    TimeVar,
    VarRef,
)
from repro.lorel.parser import parse_definition


class TestSelectFromWhere:
    def test_minimal(self):
        query = parse_query("select guide.restaurant")
        assert len(query.select) == 1
        path = query.select[0].expr
        assert isinstance(path, PathExpr)
        assert path.start == "guide"
        assert [step.label for step in path.steps] == ["restaurant"]

    def test_from_with_variables(self):
        query = parse_query("select N from guide.restaurant R, R.name N")
        assert [item.var for item in query.from_items] == ["R", "N"]
        assert query.from_items[1].path.start == "R"

    def test_where_comparison(self):
        query = parse_query(
            "select guide.restaurant where guide.restaurant.price < 20.5")
        assert isinstance(query.where, Comparison)
        assert query.where.op == "<"
        assert query.where.right == Literal(20.5)

    def test_select_as_label(self):
        query = parse_query('select N as restaurant-name from guide.name N')
        assert query.select[0].label == "restaurant-name"

    def test_multi_item_select(self):
        query = parse_query("select N, T, NV from guide.x N")
        assert len(query.select) == 3

    def test_and_or_not_precedence(self):
        query = parse_query(
            "select x where a = 1 and b = 2 or not c = 3")
        assert isinstance(query.where, Or)
        assert isinstance(query.where.left, And)
        assert isinstance(query.where.right, Not)

    def test_parenthesized_condition(self):
        query = parse_query("select x where a = 1 and (b = 2 or c = 3)")
        assert isinstance(query.where, And)
        assert isinstance(query.where.right, Or)

    def test_like(self):
        query = parse_query('select x where guide.name like "%Lytton%"')
        assert isinstance(query.where, LikeCond)
        assert query.where.pattern == "%Lytton%"

    def test_exists(self):
        query = parse_query(
            "select N from g.r R where exists P in R.price : P = 10")
        assert isinstance(query.where, ExistsCond)
        assert query.where.var == "P"

    def test_bare_path_is_existence_test(self):
        query = parse_query("select x where guide.restaurant.price")
        assert isinstance(query.where, Comparison)
        assert query.where.right == Literal(None)
        assert query.where.op == "!="

    def test_timestamp_literal(self):
        query = parse_query("select x where T < 4Jan97")
        assert query.where.right == Literal(parse_timestamp("4Jan97"))

    def test_timevar(self):
        query = parse_query("select x where T > t[-1]")
        assert query.where.right == TimeVar(-1)

    def test_wildcards_and_patterns(self):
        query = parse_query('select g.#.name where g.# like "%x%"')
        assert query.select[0].expr.steps[0].label == "#"

    def test_percent_label_pattern(self):
        query = parse_query("select g.%name%")
        assert query.select[0].expr.steps[0].label == "%name%"

    def test_quoted_label(self):
        query = parse_query('select g."label with spaces"')
        assert query.select[0].expr.steps[0].label == "label with spaces"

    def test_amp_label(self):
        query = parse_query("select X.&val from g.r X")
        assert query.select[0].expr.steps[0].label == "&val"

    def test_contextual_keywords_as_labels(self):
        query = parse_query("select g.add.at.to")
        assert [step.label for step in query.select[0].expr.steps] == \
            ["add", "at", "to"]


class TestAnnotationExpressions:
    def test_arc_annotation_minimal(self):
        query = parse_query("select guide.<add>restaurant")
        step = query.select[0].expr.steps[0]
        assert step.arc_annotation.kind == "add"
        assert step.arc_annotation.at_var is None

    def test_arc_annotation_with_time(self):
        query = parse_query("select guide.<add at T>restaurant")
        assert query.select[0].expr.steps[0].arc_annotation.at_var == "T"

    def test_arc_annotation_with_literal_time(self):
        query = parse_query("select guide.<add at 5Jan97>restaurant")
        annotation = query.select[0].expr.steps[0].arc_annotation
        assert annotation.at_literal == parse_timestamp("5Jan97")

    def test_node_annotation_cre(self):
        query = parse_query("select g.comment<cre at T>")
        annotation = query.select[0].expr.steps[0].node_annotation
        assert annotation.kind == "cre" and annotation.at_var == "T"

    def test_node_annotation_upd_full(self):
        query = parse_query("select g.price<upd at T from OV to NV>")
        annotation = query.select[0].expr.steps[0].node_annotation
        assert (annotation.at_var, annotation.from_var, annotation.to_var) \
            == ("T", "OV", "NV")

    def test_node_annotation_upd_partial(self):
        query = parse_query("select g.price<upd to NV>")
        annotation = query.select[0].expr.steps[0].node_annotation
        assert annotation.at_var is None and annotation.to_var == "NV"

    def test_virtual_at_annotation(self):
        query = parse_query("select g.price<at T>")
        annotation = query.select[0].expr.steps[0].node_annotation
        assert annotation.kind == "at" and annotation.at_var == "T"

    def test_virtual_at_with_timevar(self):
        query = parse_query("select g.<at t[-1]>restaurant")
        annotation = query.select[0].expr.steps[0].arc_annotation
        assert annotation.at_literal == TimeVar(-1)

    def test_both_annotations_on_one_step(self):
        query = parse_query("select g.<add at T1>price<upd at T2>")
        step = query.select[0].expr.steps[0]
        assert step.arc_annotation.kind == "add"
        assert step.node_annotation.kind == "upd"

    def test_cre_before_label_rejected(self):
        with pytest.raises(ParseError):
            parse_query("select g.<cre at T>price")

    def test_add_after_label_rejected(self):
        with pytest.raises(ParseError):
            parse_query("select g.price<add at T>")

    def test_lorel_dialect_rejects_annotations(self):
        with pytest.raises(ParseError):
            parse_query("select guide.<add>restaurant",
                        allow_annotations=False)

    def test_canonicalization(self):
        from repro.lorel.ast import AnnotationExpr, FreshNames
        fresh = FreshNames()
        canon = AnnotationExpr("add").canonical(fresh)
        assert canon.at_var is not None
        canon_upd = AnnotationExpr("upd", from_var="X").canonical(fresh)
        assert canon_upd.at_var and canon_upd.to_var and \
            canon_upd.from_var == "X"


class TestDefinitions:
    def test_polling_definition(self):
        definition = parse_definition(
            "define polling query LyttonRestaurants as "
            "select guide.restaurant "
            'where guide.restaurant.address.# like "%Lytton%"')
        assert definition.kind == "polling"
        assert definition.name == "LyttonRestaurants"

    def test_filter_definition(self):
        definition = parse_definition(
            "define filter query NewOnLytton as "
            "select LyttonRestaurants.restaurant<cre at T> "
            "where T > t[-1]")
        assert definition.kind == "filter"
        assert definition.query.where is not None

    def test_bad_kind_rejected(self):
        with pytest.raises(ParseError):
            parse_definition("define weird query X as select y")


class TestErrors:
    def test_missing_select(self):
        with pytest.raises(ParseError):
            parse_query("from g.x")

    def test_trailing_tokens(self):
        with pytest.raises(ParseError):
            parse_query("select g.x nonsense extra")

    def test_dangling_dot(self):
        with pytest.raises(ParseError):
            parse_query("select g.")

    def test_unclosed_annotation(self):
        with pytest.raises(ParseError):
            parse_query("select g.<add at T restaurant")

    def test_error_carries_position(self):
        try:
            parse_query("select g where ()")
        except ParseError as error:
            assert error.position is not None
        else:  # pragma: no cover
            pytest.fail("expected ParseError")


class TestPrettyRoundTrip:
    QUERIES = [
        "select guide.restaurant",
        "select guide.restaurant where guide.restaurant.price < 20.5",
        "select N, T, NV from guide.restaurant.price<upd at T to NV>, "
        "guide.restaurant.name N where T >= 1Jan97 and NV > 15",
        'select N from guide.restaurant R, R.name N where '
        'R.<add at T>price = "moderate" and T >= 1Jan97',
        "select guide.<add at 5Jan97>restaurant",
        'select x where a like "%y%" or not b = 2',
        "select R from g.r R where exists P in R.price : P = 10",
        "select Restaurants.restaurant<cre at T> where T > t[-1]",
    ]

    @pytest.mark.parametrize("text", QUERIES)
    def test_round_trip(self, text):
        query = parse_query(text)
        assert parse_query(format_query(query)) == query
        assert parse_query(str(query)) == query


class TestNestingDepth:
    """Conditions nest at most ``MAX_CONDITION_DEPTH`` deep; past it the
    parser raises ``ParseError``, never ``RecursionError``."""

    @staticmethod
    def nested(depth: int, prefix: str = "(", suffix: str = ")") -> str:
        return ("select X from g.a X where " + prefix * depth + "X = 1"
                + suffix * depth)

    def test_300_parentheses_parse(self):
        assert MAX_CONDITION_DEPTH == 300
        assert parse_query(self.nested(300)) == parse_query(self.nested(0))
        assert parse_query(self.nested(300, "not ", "")).where is not None

    @pytest.mark.parametrize("depth", [301, 600, 5000])
    def test_deeper_is_a_parse_error(self, depth):
        with pytest.raises(ParseError, match="nest deeper than 300"):
            parse_query(self.nested(depth))
        with pytest.raises(ParseError, match="nest deeper than 300"):
            parse_query(self.nested(depth, "not ", ""))

    def test_and_or_keep_their_precedence(self):
        query = parse_query("select x where a = 1 and b = 2 or c = 3 and "
                            "d = 4 or e = 5")
        assert query.where == parse_query(
            "select x where ((a = 1 and b = 2) or (c = 3 and d = 4)) "
            "or e = 5").where
