"""Unit tests for the plan layer: lowering, rewrite rules, EXPLAIN.

Each rewrite rule is exercised in isolation through
``compile_query(..., rules=[...])`` so a failure names the pass, not the
pipeline; the engine-level pipelines are covered by the equivalence and
golden suites next door.
"""

import pytest

from repro import (
    ChorelEngine,
    IndexedChorelEngine,
    LorelEngine,
    parse_timestamp,
)
from repro.lorel.ast import (
    And,
    AnnotationExpr,
    Comparison,
    Literal,
    PathExpr,
    PathStep,
    Query,
    SelectItem,
    TimeVar,
    VarRef,
)
from repro.obs.metrics import registry as metrics_registry
from repro.plan import (
    DeltaProject,
    Exchange,
    IndexSelection,
    PathExpand,
    Predicate,
    PredicateReorder,
    Project,
    Scan,
    TimeRangeScan,
    VirtualAtExpansion,
    compile_query,
    default_rules,
    insert_exchange,
    render,
)
from repro.plan.rules import RULE_NAMES, fold_interval, plan_metrics
from repro.plan.stats import RangePlan
from repro.timestamps import NEG_INF, POS_INF
from tests.conftest import make_guide_db


@pytest.fixture
def chorel(guide_doem):
    return ChorelEngine(guide_doem, name="guide")


@pytest.fixture
def indexed(guide_doem):
    return IndexedChorelEngine(guide_doem, name="guide")


def chain_shapes(root):
    """Node class names from the root down the primary chain."""
    names = []
    node = root
    while node is not None:
        names.append(type(node).__name__)
        kids = node.children()
        node = kids[0] if kids else None
    return names


class TestLowering:
    def test_chain_shape(self, chorel):
        compiled = chorel._compile(chorel.parse(
            'select N from guide.restaurant R, R.name N where N = "Janta"'))
        assert chain_shapes(compiled.root) == [
            "Project", "Predicate", "PathExpand", "PathExpand", "Scan"]

    def test_no_where_no_predicate(self, chorel):
        compiled = chorel._compile(chorel.parse("select guide.restaurant"))
        assert chain_shapes(compiled.root) == [
            "Project", "PathExpand", "Scan"]

    def test_render_is_indented_tree(self, chorel):
        compiled = chorel._compile(chorel.parse(
            "select R from guide.restaurant R"))
        text = render(compiled.root)
        lines = text.splitlines()
        assert lines[0].startswith("Project [")
        assert lines[1].startswith("  PathExpand ")
        assert lines[-1].strip() == "Scan"

    def test_compile_counter_and_histogram(self, chorel):
        before = plan_metrics()["compiled"].value
        chorel._compile(chorel.parse("select guide.restaurant"))
        assert plan_metrics()["compiled"].value == before + 1
        histogram = metrics_registry().histogram(
            "repro.plan.compile_seconds")
        assert histogram.count > 0

    def test_compile_seconds_recorded(self, chorel):
        compiled = chorel._compile(chorel.parse("select guide.restaurant"))
        assert compiled.compile_seconds >= 0.0


class TestVirtualAtExpansion:
    def test_expands_string_literal_in_programmatic_ast(self):
        engine = LorelEngine(make_guide_db(), name="guide")
        step = PathStep("restaurant",
                        arc_annotation=AnnotationExpr("add",
                                                      at_literal="5Jan97"))
        query = Query(select=(SelectItem(PathExpr("guide", (step,))),))
        compiled = compile_query(query, engine._evaluator,
                                 rules=[VirtualAtExpansion()])
        report = compiled.passes[0]
        assert report.fired
        expand = compiled.root.child
        annotation = expand.item.path.steps[-1].arc_annotation
        assert annotation.at_literal == parse_timestamp("5Jan97")

    def test_resolves_polling_time_variable(self, chorel):
        chorel.set_polling_times({0: "5Jan97"})
        compiled = chorel._compile(chorel.parse(
            "select guide.<add at t[0]>restaurant"))
        report = {r.name: r for r in compiled.passes}["virtual-at-expansion"]
        assert report.fired
        node = compiled.root
        while not isinstance(node, PathExpand):
            node = node.children()[0]
        annotation = node.item.path.steps[-1].arc_annotation
        assert annotation.at_literal == parse_timestamp("5Jan97")

    def test_leaves_resolved_timestamps_alone(self, chorel):
        compiled = chorel._compile(chorel.parse(
            "select guide.<add at 5Jan97>restaurant"))
        report = {r.name: r for r in compiled.passes}["virtual-at-expansion"]
        assert not report.fired  # the lexer already produced a Timestamp


class TestAnnotationLiteralPushdown:
    """A pinned annotation time is pushed into the scan interval."""

    def rule_reports(self, engine, text):
        compiled = engine._compile(engine.parse(text))
        reports = {r.name: r for r in compiled.passes}
        return compiled, reports["index-selection"]

    def test_literal_pin_collapses_interval(self, indexed):
        compiled, report = self.rule_reports(
            indexed, "select guide.<add at 5Jan97>restaurant")
        assert report.fired
        plan = compiled.index_plan
        assert plan is not None
        assert plan.kinds == ("add",)
        assert plan.low == plan.high == parse_timestamp("5Jan97")
        assert plan.include_low and plan.include_high

    def test_pin_intersects_the_annotation_range(self, indexed):
        compiled, _ = self.rule_reports(
            indexed,
            "select guide.<add at 5Jan97 in [1Jan97..8Jan97]>restaurant")
        plan = compiled.index_plan
        assert plan.low == plan.high == parse_timestamp("5Jan97")
        compiled, _ = self.rule_reports(
            indexed,
            "select guide.<add at 9Jan97 in [1Jan97..8Jan97]>restaurant")
        plan = compiled.index_plan
        assert plan.high < plan.low  # empty: the pin is outside the range

    def test_wildcard_produces_no_candidate(self, indexed):
        compiled, report = self.rule_reports(
            indexed, "select guide.#.comment<cre at T>")
        assert not report.fired
        assert compiled.index_plan is None


class TestIndexSelection:
    def test_selects_index_scan_when_index_present(self, indexed):
        compiled = indexed._compile(indexed.parse(
            "select guide.<add at T>restaurant where T < 4Jan97"))
        assert isinstance(compiled.root, DeltaProject)
        assert isinstance(compiled.root.child, TimeRangeScan)
        assert compiled.root.plan is compiled.root.child.plan
        report = {r.name: r for r in compiled.passes}["index-selection"]
        assert report.fired
        assert report.note == compiled.index_plan.describe()

    def test_no_index_means_no_selection(self, chorel):
        compiled = chorel._compile(chorel.parse(
            "select guide.<add at T>restaurant where T < 4Jan97"))
        assert compiled.index_plan is None
        report = {r.name: r for r in compiled.passes}["index-selection"]
        assert not report.fired

    def test_unfoldable_where_falls_back(self, indexed):
        compiled = indexed._compile(indexed.parse(
            'select N from guide.restaurant R, R.name N '
            'where R.<add at T>comment = "need info"'))
        assert compiled.index_plan is None


class TestFoldInterval:
    def plan(self):
        return RangePlan(kinds=("add",), labels=("restaurant",),
                         root_name="guide", at_var="T")

    def ts(self, text):
        return parse_timestamp(text)

    def test_bounds_and_inclusivity(self):
        plan = self.plan()
        condition = And(Comparison(VarRef("T"), ">", Literal(self.ts("1Jan97"))),
                        Comparison(VarRef("T"), "<=", Literal(self.ts("8Jan97"))))
        assert fold_interval(condition, plan, {})
        assert plan.low == self.ts("1Jan97") and not plan.include_low
        assert plan.high == self.ts("8Jan97") and plan.include_high

    def test_flipped_operand_order(self):
        plan = self.plan()
        condition = Comparison(Literal(self.ts("5Jan97")), "<=", VarRef("T"))
        assert fold_interval(condition, plan, {})
        assert plan.low == self.ts("5Jan97") and plan.include_low
        assert plan.high is POS_INF

    def test_equality_is_degenerate_interval(self):
        plan = self.plan()
        assert fold_interval(
            Comparison(VarRef("T"), "=", Literal(self.ts("5Jan97"))), plan, {})
        assert plan.low == plan.high == self.ts("5Jan97")

    def test_equality_never_widens_an_exclusive_bound(self):
        plan = self.plan()
        when = Literal(self.ts("5Jan97"))
        condition = And(Comparison(VarRef("T"), ">", when),
                        Comparison(VarRef("T"), "=", when))
        assert fold_interval(condition, plan, {})
        # (5Jan97, 5Jan97] is empty, as T > t and T = t must be.
        assert plan.low == plan.high == self.ts("5Jan97")
        assert not plan.include_low

    def test_foreign_variable_refuses(self):
        plan = self.plan()
        assert not fold_interval(
            Comparison(VarRef("U"), ">", Literal(self.ts("5Jan97"))), plan, {})
        assert plan.low is NEG_INF

    def test_polling_time_variable_resolves(self):
        plan = self.plan()
        polling = {0: self.ts("5Jan97")}
        assert fold_interval(
            Comparison(VarRef("T"), ">=", TimeVar(0)), plan, polling)
        assert plan.low == self.ts("5Jan97")


class TestPredicateReorder:
    def test_pure_filter_hoisted(self, chorel):
        # Without filter-fusion, which moves the price test into the walk.
        compiled = compile_query(
            chorel.parse('select N from guide.restaurant R, R.name N '
                         'where guide.restaurant.price < 20.5 '
                         'and N = "Janta"'),
            chorel._evaluator, context=chorel._compile_context(None),
            rules=[rule for rule in default_rules()
                   if rule.name != "filter-fusion"])
        report = {r.name: r for r in compiled.passes}["predicate-reorder"]
        assert report.fired
        assert report.note == "hoisted 1 pure filter(s)"
        predicate = compiled.root.child
        assert isinstance(predicate, Predicate)
        condition = predicate.condition
        # The pure N = "Janta" conjunct now leads the conjunction.
        assert isinstance(condition, And)
        assert str(condition.left) == 'N = "Janta"'

    def test_already_ordered_does_not_fire(self, chorel):
        compiled = chorel._compile(chorel.parse(
            'select N from guide.restaurant R, R.name N '
            'where N = "Janta" and guide.restaurant.price < 20.5'))
        report = {r.name: r for r in compiled.passes}["predicate-reorder"]
        assert not report.fired

    def test_where_bound_variables_are_not_pure(self, chorel):
        # OV is bound by the where clause's own annotation walk, so the
        # OV-conjunct must stay behind the path conjunct that binds it.
        compiled = chorel._compile(chorel.parse(
            "select R from guide.restaurant R "
            "where R.price<upd from OV> != 30 and OV = 10"))
        report = {r.name: r for r in compiled.passes}["predicate-reorder"]
        assert not report.fired

    def test_reorder_preserves_results(self, chorel, guide_doem):
        query = ('select N from guide.restaurant R, R.name N '
                 'where guide.restaurant.price < 20.5 and N = "Janta"')
        legacy = ChorelEngine(guide_doem, name="guide", use_planner=False)
        assert list(map(str, chorel.run(query))) == \
            list(map(str, legacy.run(query)))


class TestRuleIsolation:
    """compile_query(rules=[...]) isolates a single pass."""

    def test_single_rule_pipeline_reports_one_pass(self, chorel):
        parsed = chorel.parse("select guide.restaurant")
        compiled = compile_query(parsed, chorel._evaluator,
                                 context=chorel._compile_context(None),
                                 rules=[PredicateReorder()])
        assert [r.name for r in compiled.passes] == ["predicate-reorder"]

    def test_selection_alone_is_sufficient(self, indexed):
        parsed = indexed.parse("select guide.<add at T>restaurant")
        compiled = compile_query(parsed, indexed._evaluator,
                                 context=indexed._compile_context(None),
                                 rules=[IndexSelection()])
        assert compiled.index_plan is not None


class TestExchange:
    def test_insert_exchange_shape(self, chorel):
        compiled = chorel._compile(chorel.parse(
            'select N from guide.restaurant R, R.name N where N != "x"'))
        rewritten = insert_exchange(compiled.root)
        assert isinstance(rewritten, Project)
        exchange = rewritten.child
        assert isinstance(exchange, Exchange)
        assert chain_shapes(exchange.child) == ["PathExpand", "Scan"]
        # Detached stages: the second PathExpand, then the Predicate.
        assert [type(stage).__name__ for stage in exchange.stages] == \
            ["PathExpand", "Predicate"]
        assert all(not stage.children() for stage in exchange.stages)

    def test_single_item_query_has_empty_stages(self, chorel):
        compiled = chorel._compile(chorel.parse("select guide.restaurant"))
        rewritten = insert_exchange(compiled.root)
        assert isinstance(rewritten.child, Exchange)
        assert rewritten.child.stages == ()

    def test_indexed_plan_is_not_exchanged(self, indexed):
        compiled = indexed._compile(indexed.parse(
            "select guide.<add>restaurant"))
        assert insert_exchange(compiled.root) is None

    def test_exchange_render(self, chorel):
        compiled = chorel._compile(chorel.parse(
            "select N from guide.restaurant R, R.name N"))
        text = render(insert_exchange(compiled.root))
        assert "Exchange stages=1" in text


class TestExplain:
    def test_explain_lists_every_pass(self, indexed):
        compiled = indexed._compile(indexed.parse(
            "select guide.<add at 5Jan97>restaurant"))
        text = compiled.explain()
        lines = text.splitlines()
        assert lines[0] == "DeltaProject add"
        assert lines[1].startswith("  TimeRangeScan range-scan add over ")
        assert [line.split()[0] for line in lines[lines.index("passes:") + 1:]] \
            == list(RULE_NAMES) == [rule.name for rule in default_rules()]
        fired = [line for line in lines
                 if line.strip().startswith("index-selection")]
        assert fired and "fired" in fired[0]

    def test_engine_compile_sets_last_compiled(self, chorel):
        compiled = chorel.compile("select guide.restaurant")
        assert chorel.last_compiled is compiled

    def test_scan_describe(self):
        assert Scan().describe() == "Scan"
        assert render(Scan()) == "Scan"
