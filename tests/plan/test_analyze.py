"""EXPLAIN ANALYZE: per-operator stats and fingerprints.

The collector (:mod:`repro.plan.analyze`) claims that an analyzed
execution returns identical rows while accounting every operator -- rows
and batches in/out, wall time, vectorized-vs-fallback predicate rows --
and that the stats tree is *internally consistent*: what a parent pulls
in is exactly what its child emitted.  This suite pins those claims and
the fingerprint's stability.
"""

from __future__ import annotations

import pytest

from repro import (
    ChorelEngine,
    IndexedChorelEngine,
    LorelEngine,
    ParallelExecutor,
    TranslatingChorelEngine,
    WorkerPool,
    build_doem,
)
from repro.plan.analyze import plan_fingerprint
from tests.conftest import make_guide_db, make_guide_history

CHAIN_QUERY = ("select T, R from guide.<add at T>restaurant R "
               "where T >= 1Jan97")
INDEXED_QUERY = "select guide.<add at T>restaurant where T < 4Jan97"


@pytest.fixture()
def doem():
    return build_doem(make_guide_db(), make_guide_history())


def analyzed_stats(engine, query):
    result = engine.run(query, analyze=True)
    return result, engine.last_compiled.runtime


def op_rows(stats) -> list[tuple[str, int, int]]:
    """``(operator, rows_in, rows_out)`` per node, in preorder."""
    return [(op.op, op.rows_in, op.rows_out) for op in stats.ops]


def children_of(stats):
    """(parent, child) OpStats pairs: each parent's direct child is the
    next op one level deeper."""
    pairs = []
    for index, op in enumerate(stats.ops):
        for later in stats.ops[index + 1:]:
            if later.depth == op.depth + 1:
                pairs.append((op, later))
            if later.depth <= op.depth:
                break
    return pairs


class TestOperatorAccounting:
    def test_rows_flow_is_consistent(self, doem):
        """child.rows_out == parent.rows_in, measured on a real run."""
        engine = ChorelEngine(doem, name="guide")
        result, stats = analyzed_stats(engine, CHAIN_QUERY)
        assert stats.ops, "no operators collected"
        pairs = children_of(stats)
        assert pairs, "chain query should have parent/child operators"
        for parent, child in pairs:
            assert parent.rows_in == child.rows_out, (parent.op, child.op)
        # The root operator's output is the result itself.
        assert stats.ops[0].rows_out == len(result)

    def test_identical_rows(self, doem):
        plain = ChorelEngine(doem, name="guide")
        analyzed = ChorelEngine(doem, name="guide")
        expected = [str(row) for row in plain.run(CHAIN_QUERY)]
        result = analyzed.run(CHAIN_QUERY, analyze=True)
        assert [str(row) for row in result] == expected
        assert analyzed.last_compiled.runtime.result_rows == len(expected)

    def test_predicate_rows_are_tallied(self, doem):
        engine = ChorelEngine(doem, name="guide")
        _, stats = analyzed_stats(engine, CHAIN_QUERY)
        predicates = [op for op in stats.ops
                      if op.op.startswith("Predicate")]
        assert predicates
        for op in predicates:
            assert op.vectorized_rows + op.fallback_rows == op.rows_in, op.op

    def test_every_engine_collects(self, doem):
        engines = [ChorelEngine(doem, name="guide"),
                   IndexedChorelEngine(doem, name="guide"),
                   TranslatingChorelEngine(doem, name="guide"),
                   LorelEngine(make_guide_db(), name="guide")]
        queries = [CHAIN_QUERY, CHAIN_QUERY, CHAIN_QUERY,
                   "select guide.restaurant.name"]
        for engine, query in zip(engines, queries):
            result = engine.run(query, analyze=True)
            stats = engine.last_compiled.runtime
            assert stats is not None, type(engine).__name__
            assert stats.ops[0].rows_out == len(result) or \
                stats.result_rows == len(result)
            assert "rows" in stats.render()
            # The compile/execute split is read off the plan, not
            # derived from span names.
            assert engine.last_compiled.compile_seconds > 0.0
            assert stats.execute_seconds > 0.0

    def test_indexed_pushdown_is_accounted(self, doem):
        engine = IndexedChorelEngine(doem, name="guide")
        result, stats = analyzed_stats(engine, INDEXED_QUERY)
        assert engine.last_compiled.index_plan is engine.last_plan
        # Single-time queries get the scan-vs-verify split: the scan
        # counts the events it emitted, the terminal the rows it kept.
        project, scan = stats.ops
        assert project.op.startswith("DeltaProject add")
        assert scan.op.startswith("TimeRangeScan ")
        assert scan.rows_out == project.rows_in
        assert project.rows_out == len(result)

    def test_uninstrumented_run_leaves_no_runtime(self, doem):
        engine = ChorelEngine(doem, name="guide")
        engine.run(CHAIN_QUERY)
        assert engine.last_compiled.runtime is None
        with pytest.raises(ValueError, match="analyze=True"):
            engine.last_compiled.explain(analyze=True)

    def test_analyze_needs_the_planner(self, doem):
        legacy = ChorelEngine(doem, name="guide", use_planner=False)
        with pytest.raises(ValueError, match="planner"):
            legacy.run(CHAIN_QUERY, analyze=True)

    def test_profile_argument_is_gone(self, doem):
        """ANALYZE is the one per-query observation on every engine."""
        for engine in (ChorelEngine(doem, name="guide"),
                       IndexedChorelEngine(doem, name="guide"),
                       TranslatingChorelEngine(doem, name="guide"),
                       LorelEngine(make_guide_db(), name="guide")):
            with pytest.raises(TypeError, match="profile"):
                engine.run("select guide.restaurant", profile=True)
            assert not hasattr(engine, "last_profile")


class TestFingerprint:
    def test_stable_across_compiles(self, doem):
        first = ChorelEngine(doem, name="guide").compile(CHAIN_QUERY)
        second = ChorelEngine(doem, name="guide").compile(CHAIN_QUERY)
        assert first.fingerprint
        assert first.fingerprint == second.fingerprint

    def test_distinguishes_queries(self, doem):
        engine = ChorelEngine(doem, name="guide")
        assert engine.compile(CHAIN_QUERY).fingerprint != \
            engine.compile("select guide.restaurant.name").fingerprint

    def test_matches_lowered_tree_hash(self, doem):
        engine = ChorelEngine(doem, name="guide")
        compiled = engine.compile(CHAIN_QUERY)
        assert len(compiled.fingerprint) == 12
        assert compiled.fingerprint in compiled.explain(analyze=False) or \
            compiled.fingerprint  # explain() need not print it; length pins

    def test_fingerprint_survives_sharding(self, doem):
        """The Exchange rewrite happens at execution; the fingerprint is a
        compile-time property, so serial and sharded agree."""
        serial = ChorelEngine(doem, name="guide")
        serial.run(CHAIN_QUERY, analyze=True)
        sharded = ChorelEngine(doem, name="guide")
        with ParallelExecutor(sharded, max_workers=2) as executor:
            executor.run(CHAIN_QUERY)
        assert serial.last_compiled.fingerprint == \
            sharded.last_compiled.fingerprint

    def test_plan_fingerprint_is_render_hash(self, doem):
        engine = ChorelEngine(doem, name="guide")
        compiled = engine.compile(CHAIN_QUERY)
        assert plan_fingerprint(compiled.root) != ""


class TestPooledAnalyze:
    """An analyzed run is never sharded: with a pool on the context,
    ANALYZE describes the serial plan."""

    def analyzed_with_pool(self, engine, workers):
        compiled = engine.compile(CHAIN_QUERY)
        with WorkerPool(workers) as pool:
            result = engine.execute(compiled, pool=pool, analyze=True)
        return result, compiled.runtime

    @pytest.mark.parametrize("workers", [2, 4])
    def test_runs_the_serial_plan(self, doem, workers):
        plain = ChorelEngine(doem, name="guide").run(CHAIN_QUERY)
        serial = ChorelEngine(doem, name="guide")
        _, serial_stats = analyzed_stats(serial, CHAIN_QUERY)
        engine = ChorelEngine(doem, name="guide")
        result, stats = self.analyzed_with_pool(engine, workers)
        assert [str(r) for r in result] == [str(r) for r in plain]
        assert not any(op.op.startswith("Exchange") for op in stats.ops)
        assert op_rows(stats) == op_rows(serial_stats)

    def test_to_dict_round_trips(self, doem):
        engine = ChorelEngine(doem, name="guide")
        _, stats = self.analyzed_with_pool(engine, 2)
        payload = stats.to_dict()
        assert payload["fingerprint"] == engine.last_compiled.fingerprint
        assert payload["rows"] == payload["ops"][0]["rows_out"]
        import json
        json.dumps(payload)  # JSON-clean
