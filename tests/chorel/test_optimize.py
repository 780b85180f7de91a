"""Tests for the index-accelerated Chorel engine (Section 7 future work).

The contract: :class:`IndexedChorelEngine` returns exactly what the
normal engine returns, using the annotation index when the query shape
allows and falling back otherwise.
"""

import pytest

from repro import (
    ChorelEngine,
    IndexedChorelEngine,
    build_doem,
    random_database,
    random_history,
)
from tests.conftest import make_guide_db, make_guide_history


@pytest.fixture
def engines(guide_doem):
    return (ChorelEngine(guide_doem, name="guide"),
            IndexedChorelEngine(guide_doem, name="guide"))


INDEXABLE = [
    "select guide.<add at T>restaurant where T < 4Jan97",
    "select guide.<add>restaurant",
    "select R, T from guide.<add at T>restaurant R",
    "select guide.restaurant.comment<cre at T> where T > 3Jan97",
    "select guide.restaurant.comment<cre at T> "
    "where T > 3Jan97 and T <= 5Jan97",
    "select T, OV, NV from guide.restaurant.price<upd at T from OV to NV> "
    "where T >= 1Jan97",
    "select P, T from guide.restaurant.<rem at T>parking P",
    "select guide.<add at T>restaurant where T = 1Jan97",
    "select guide.<add at T>restaurant where 1Jan97 <= T",
    "select guide.<add at 5Jan97>restaurant",        # literal pin: [t, t]
    "select guide.<rem at 8Jan97>restaurant",        # literal pin, no hits
    # The same pass serves the range family: one stored plan for all.
    "select guide.<add at T in [1Jan97..5Jan97]>restaurant",
    "select guide.<add at 5Jan97 in [1Jan97..8Jan97]>restaurant",
    "select T from guide.restaurant.price<changed at T>",
    "select guide.restaurant.price<changed at 1Jan97>",
    "select R, T from guide.restaurant<last-change at T> R",
    "select P from guide.restaurant.price<at [1Jan97..9Jan97]> P",
]

FALLBACK = [
    'select N from guide.restaurant R, R.name N '
    'where R.<add at T>comment = "need info"',
    "select guide.restaurant where guide.restaurant.price < 20.5",
    "select guide.#.comment<cre at T>",              # wildcard prefix
    "select guide.restaurant.price<at 2Jan97> P "
    .replace("select guide", "select P from guide"),  # virtual annotation
]


class TestEquivalence:
    @pytest.mark.parametrize("query", INDEXABLE)
    def test_indexed_matches_normal(self, engines, query):
        normal, indexed = engines
        expected = sorted(map(str, normal.run(query)))
        actual = sorted(map(str, indexed.run(query)))
        assert actual == expected
        assert indexed.last_plan is not None, "should have used the index"

    @pytest.mark.parametrize("query", FALLBACK)
    def test_fallback_matches_normal(self, engines, query):
        normal, indexed = engines
        expected = sorted(map(str, normal.run(query)))
        actual = sorted(map(str, indexed.run(query)))
        assert actual == expected
        assert indexed.last_plan is None, "should have fallen back"

    def test_contradictory_interval_is_empty(self, engines):
        _, indexed = engines
        result = indexed.run("select guide.<add at T>restaurant "
                             "where T = 1Jan97 and T = 5Jan97")
        assert len(result) == 0
        assert indexed.last_plan is not None

    def test_randomized_equivalence(self):
        queries = [
            "select root.<add at T>item where T >= 2Jan97",
            "select root.item.name<cre at T>",
            "select X, T from root.item.<rem at T>link X",
            "select T, OV, NV from root.item.price"
            "<upd at T from OV to NV> where T > 1Jan97",
        ]
        for seed in range(5):
            db = random_database(seed=seed + 500, nodes=25)
            history = random_history(db, seed=seed + 500, steps=4)
            doem = build_doem(db, history)
            normal = ChorelEngine(doem, name="root")
            indexed = IndexedChorelEngine(doem, name="root")
            for query in queries:
                assert sorted(map(str, normal.run(query))) == \
                    sorted(map(str, indexed.run(query))), (seed, query)


class TestPlanDetails:
    def test_interval_folding(self, engines):
        _, indexed = engines
        indexed.run("select guide.restaurant.comment<cre at T> "
                    "where T > 3Jan97 and T <= 5Jan97")
        plan = indexed.last_plan
        assert not plan.include_low and plan.include_high
        assert "3Jan97" in plan.describe() and "5Jan97" in plan.describe()

    def test_one_stored_plan(self, engines):
        """Single-time and range queries land on the same attribute;
        ``last_range_plan`` only aliases it for the pipeline benchmark."""
        _, indexed = engines
        for query, kinds in (
                ("select guide.<add at 5Jan97>restaurant", ("add",)),
                ("select T from guide.restaurant.price<changed at T>",
                 ("cre", "upd"))):
            indexed.run(query)
            assert indexed.last_plan.kinds == kinds
            assert indexed.last_range_plan is indexed.last_plan
            assert indexed.last_plan is indexed.last_compiled.index_plan
        indexed.run("select guide.restaurant")
        assert indexed.last_plan is indexed.last_range_plan is None
        with pytest.raises(AttributeError):
            indexed.last_range_plan = None

    def test_timevar_bounds_resolve_via_polling_times(self, guide_doem):
        indexed = IndexedChorelEngine(guide_doem, name="guide")
        indexed.set_polling_times({0: "6Jan97", -1: "2Jan97"})
        result = indexed.run("select guide.restaurant.comment<cre at T> "
                             "where T > t[-1] and T <= t[0]")
        assert indexed.last_plan is not None
        assert len(result) == 1  # "need info", created 5Jan97

    def test_unresolvable_timevar_falls_back(self, engines, guide_doem):
        indexed = IndexedChorelEngine(guide_doem, name="guide")
        # no polling times set -> the bound is not a literal -> fallback,
        # which then raises like the normal engine does.
        from repro import EvaluationError
        with pytest.raises(EvaluationError):
            indexed.run("select guide.restaurant.comment<cre at T> "
                        "where T > t[-1]")

    def test_attached_index_follows_folded_changes(self, guide_doem):
        """The TimestampIndex is attached: no refresh_index() needed."""
        from repro.doem.build import apply_change_set
        from repro.oem.changes import UpdNode
        indexed = IndexedChorelEngine(guide_doem, name="guide")
        before = indexed.run(
            "select T, NV from guide.restaurant.price<upd at T to NV> "
            "where T > 1Jan97")
        assert len(before) == 0
        apply_change_set(guide_doem, "9Jan97", [UpdNode("n1", 25)])
        after = indexed.run(
            "select T, NV from guide.restaurant.price<upd at T to NV> "
            "where T > 1Jan97")
        assert len(after) == 1

    def test_refresh_index_still_equivalent(self, guide_doem):
        """refresh_index() (full rebuild) must agree with the live index."""
        from repro.doem.build import apply_change_set
        from repro.oem.changes import UpdNode
        indexed = IndexedChorelEngine(guide_doem, name="guide")
        apply_change_set(guide_doem, "9Jan97", [UpdNode("n1", 25)])
        live = indexed.index.between("upd")
        indexed.refresh_index()
        assert indexed.index.between("upd") == live

    def test_label_partition_narrow_scan(self, guide_doem):
        indexed = IndexedChorelEngine(guide_doem, name="guide")
        indexed.run("select guide.<add at T>restaurant")
        # Only the restaurant-labelled add entries were visited, not the
        # name/comment adds the same history performed.
        assert indexed.index.stats.visited == 1
        assert indexed.index.count("add") > 1

    def test_pushdown_stats(self, engines):
        _, indexed = engines
        indexed.run("select guide.<add at T>restaurant")
        indexed.run("select guide.restaurant where "
                    "guide.restaurant.price < 20.5")
        assert indexed.stats.indexed_queries == 1
        assert indexed.stats.fallback_queries == 1
        assert indexed.stats.pushdown_rate == 0.5
        indexed.reset_counters()
        assert indexed.stats.total == 0
        assert indexed.annotation_visits == 0

    def test_reset_clears_every_counter_family(self, engines):
        """Reset symmetry: the indexed engine zeroes *all* its counter
        sources -- the view, the annotation index, the path index, and
        the pushdown split -- not just the base engine's view counter.
        """
        _, indexed = engines
        indexed.run("select guide.<add at T>restaurant")
        indexed.run("select guide.restaurant where "
                    "guide.restaurant.price < 20.5")
        assert indexed.index.stats.lookups > 0
        assert indexed.index.stats.visited > 0
        assert indexed.paths.stats.lookups > 0
        assert indexed.stats.total > 0
        assert indexed.annotation_visits > 0
        indexed.reset_counters()
        assert indexed.annotation_visits == 0
        assert indexed.view.annotation_visits == 0
        assert indexed.index.stats.lookups == 0
        assert indexed.index.stats.visited == 0
        assert indexed.paths.stats.lookups == 0
        assert indexed.stats.total == 0

    def test_reset_stats_alias(self, engines):
        """``reset_stats`` (the registry-era name) is ``reset_counters``
        on both engines, so either spelling fully resets either engine.
        """
        normal, indexed = engines
        query = "select T from guide.restaurant.price<upd at T>"
        normal.run(query)
        indexed.run(query)
        assert normal.annotation_visits > 0
        assert indexed.annotation_visits > 0
        normal.reset_stats()
        indexed.reset_stats()
        assert normal.annotation_visits == 0
        assert indexed.annotation_visits == 0
        assert indexed.index.stats.visited == 0

    def test_bindings_disable_fast_path(self, engines, guide_doem):
        _, indexed = engines
        result = indexed.run("select N from NEW.name N",
                             bindings={"NEW": "r1"})
        assert len(result) == 1
        assert indexed.last_plan is None

    def test_dead_final_arc_excluded_for_cre(self, guide_doem):
        """A created node whose incoming arc was later removed must not
        be found by `label<cre at T>` -- matching the native engine."""
        from repro.doem.build import apply_change_set
        from repro.oem.changes import RemArc, AddArc
        # keep n5 alive through another arc, then remove its comment arc
        apply_change_set(guide_doem, "9Jan97",
                         [AddArc("guide", "note", "n5")])
        apply_change_set(guide_doem, "10Jan97",
                         [RemArc("n2", "comment", "n5")])
        normal = ChorelEngine(guide_doem, name="guide")
        indexed = IndexedChorelEngine(guide_doem, name="guide")
        query = "select guide.restaurant.comment<cre at T>"
        assert sorted(map(str, normal.run(query))) == \
            sorted(map(str, indexed.run(query))) == []


class TestFreshnessCheckIsConstantTime:
    """The range kernel asks ``PathIndex`` once per verified event, and
    each ask compares ``DOEMDatabase.fingerprint()``; that token must not
    cost a pass over the graph (it once cost 98% of a wide query)."""

    def test_wide_range_query_makes_no_full_graph_pass(self):
        from repro.sources import large_world

        class NoFullPass(dict):
            """Point lookups work; walking every node's arcs raises."""

            def _refuse(self, *args):
                raise AssertionError("a full pass over the graph's arcs")
            __iter__ = keys = values = items = _refuse

        _, _, doem = large_world(seed=1, items=40, extra_links=10, steps=5,
                                 churn=12)
        query = "select X, T from root.item.price<changed at T> X"
        expected = sorted(map(str, ChorelEngine(
            doem, name="root", use_planner=False).run(query)))
        assert expected, "the probe must verify some events"
        indexed = IndexedChorelEngine(doem, name="root")
        graph = doem.graph
        graph._out = NoFullPass(graph._out)
        assert sorted(map(str, indexed.run(query))) == expected
        assert indexed.last_plan is not None
        assert indexed.paths.stats.rebuilds == 1
        with pytest.raises(AssertionError):
            list(graph.arcs())  # the guard does trip on a real walk
