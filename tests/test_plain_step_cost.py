"""A plain path step costs a dictionary lookup: counted guards, no clock.

On the pipeline benchmark's 5,001-node world: a ``where`` over plain
paths never reaches the solver, a selective one is tested inside the
walk that binds its variable (one ``expand_step`` call per from-step at
most, and an environment only for a kept row), a plain step over a DOEM
builds no
``Arc`` and asks ``arc_live_at`` nothing for the arcs that bear no
annotation, an answer adopts its closure's containers instead of
re-adding them arc by arc, and ``subgraph`` costs the closure it
extracts.  What was replaced is patched to raise, so a change that brings
it back fails here before any benchmark runs.
"""

from __future__ import annotations

import pytest

from repro import (
    ChorelEngine, LorelEngine, OEMDatabase, QSSServer, StaticSource,
    Subscription, Wrapper, build_doem)
from repro.doem import model as doem_model
from repro.doem.model import DOEMDatabase
from repro.lorel import eval as eval_module
from repro.lorel.eval import Evaluator
from repro.plan import physical as physical_module
from repro.lorel.result import ObjectRef, QueryResult, Row
from repro.sources.generators import _WORDS, large_database, large_history
from repro.timestamps import POS_INF

from tests.oem.oracle_model import subgraph as scanned_subgraph

POLLING = 'select root.item where root.item.name = "{}"'
SCAN = "select I from root.item I where I.price > 900"


@pytest.fixture(scope="module")
def world() -> OEMDatabase:
    db = large_database(seed=0, items=1000, extra_links=200)
    assert len(db) == 5001
    db.collect_garbage()
    return db


@pytest.fixture
def forbid_solver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a where clause went to the solver")
    monkeypatch.setattr(Evaluator, "solve", refuse)


@pytest.fixture
def counted(monkeypatch):
    """``Evaluator.expand_step`` calls, and environment dicts built by the
    evaluator and the operators (their ``dict(...)`` calls)."""
    calls = {"expand_step": 0, "envs": 0}

    def expand_step(self, *args, _real=Evaluator.expand_step):
        calls["expand_step"] += 1
        return _real(self, *args)
    monkeypatch.setattr(Evaluator, "expand_step", expand_step)

    class Env(dict):
        def __init__(self, *args, **kwargs):
            calls["envs"] += 1
            super().__init__(*args, **kwargs)
    for module in (eval_module, physical_module):
        monkeypatch.setattr(module, "dict", Env, raising=False)
    return calls


def analyzed(engine, query: str):
    """The ``where`` is tested in the walk: no ``Predicate`` is left."""
    result = engine.run(query, analyze=True)
    report = engine.last_compiled.explain(analyze=True)
    assert "Predicate" not in report, report
    assert f"tested 1000/kept {len(result)})" in report, report
    return result


def test_the_polling_query_never_solves(world, forbid_solver):
    engine = LorelEngine(world, name="root")
    result = analyzed(engine, POLLING.format(_WORDS[3]))
    assert 0 < len(result) < 1000


def test_the_value_scan_never_solves(world, forbid_solver):
    over_oem = analyzed(LorelEngine(world, name="root"), SCAN)
    assert 0 < len(over_oem) < 1000
    doem = build_doem(world, large_history(world, seed=0, steps=3,
                                           churn=100))
    engine = ChorelEngine(doem, name="root")
    result = engine.run(SCAN, analyze=True)
    report = engine.last_compiled.explain(analyze=True)
    assert "Predicate" not in report, report
    assert f"/kept {len(result)})" in report, report


@pytest.mark.parametrize("query", [POLLING.format(_WORDS[3]), SCAN])
def test_a_selective_where_costs_a_test_per_candidate(world, counted, query):
    """One from-step: at most one ``expand_step`` call, and environments
    for the base row and the kept rows only -- none for the ~900 items
    the test drops."""
    result = LorelEngine(world, name="root").run(query)
    assert 0 < len(result) < 1000
    assert counted["expand_step"] <= 1, counted
    assert counted["envs"] <= len(result) + 1, counted


def test_a_selective_where_over_a_doem_costs_the_same(world, counted):
    doem = build_doem(world, large_history(world, seed=0, steps=3,
                                           churn=100))
    counted.update(expand_step=0, envs=0)
    result = ChorelEngine(doem, name="root").run(SCAN)
    assert 0 < len(result) < 1000
    assert counted["expand_step"] <= 1, counted
    assert counted["envs"] <= len(result) + 1, counted


def test_a_fan_out_tick_never_solves(world, forbid_solver):
    server = QSSServer(start="1Jan97")
    server.doems.differ = "ids"
    server.register_wrapper(
        "w", Wrapper(StaticSource(world.copy(), stable_ids=True),
                     name="root"))
    notified: list = []
    for index in range(16):
        name = f"s{index}"
        server.subscribe(Subscription(
            name, "every day", POLLING.format(_WORDS[index % len(_WORDS)]),
            f"select {name}.item.price<upd at T> where T > t[-1]"),
            "w", deliver=notified.append)
    try:
        server.run_until("3Jan97")
        assert not server.error_log
        assert all(server.doems.doem(f"s{index}").annotation_count() > 0
                   for index in range(16))
    finally:
        server.close()


def test_a_plain_step_over_a_doem_builds_no_arc(world, monkeypatch):
    doem = DOEMDatabase(world.copy())

    def refuse(*args, **kwargs):
        raise AssertionError("per-arc work for an unannotated arc")
    monkeypatch.setattr(doem_model, "Arc", refuse)
    monkeypatch.setattr(DOEMDatabase, "arc_live_at", refuse)
    monkeypatch.setattr(DOEMDatabase, "arc_annotations", refuse)
    assert len(list(doem.live_children("root", POS_INF, "item"))) == 1000
    assert len(list(doem.live_children("i7", "3Jan97"))) == \
        len(list(world.out_arcs("i7")))
    assert len(ChorelEngine(doem, name="root").run(SCAN)) > 0


def test_an_answer_adopts_its_closure(world, monkeypatch):
    export = world.copy()
    items = sorted(export.children("root", "item"))[:300]
    result = QueryResult(
        [Row((("item", ObjectRef(item)),)) for item in items]
        + [Row((("count", len(items)),))])
    calls = {"create_node": 0, "add_arc": 0}
    for name in calls:
        def counted(self, *args, _real=getattr(OEMDatabase, name),
                    _name=name):
            calls[_name] += 1
            return _real(self, *args)
        monkeypatch.setattr(OEMDatabase, name, counted)
    answer = result.as_oem(export)
    monkeypatch.undo()
    # The root, one scalar; one arc from the root per row.
    assert calls == {"create_node": 2, "add_arc": len(items) + 1}
    copied = set(answer.nodes()) & set(export.nodes())
    assert len(copied) > 4 * len(items)
    assert all(answer._out[node] is export._out[node] for node in copied)
    assert answer._owned == set(answer.nodes()) - copied
    assert not copied & export._owned
    assert answer._suspects == set()
    answer.check()


def test_subgraph_costs_the_closure(world, monkeypatch):
    expected = scanned_subgraph(world, "i7", new_root="seven")

    def refuse(*args, **kwargs):
        raise AssertionError("a scan of every arc of the database")
    monkeypatch.setattr(OEMDatabase, "arcs", refuse)
    monkeypatch.setattr(OEMDatabase, "reachable", refuse)
    extracted = world.subgraph("i7", new_root="seven")
    monkeypatch.undo()
    assert extracted.same_as(expected)
    assert 1 < len(extracted) < 50
    assert all(extracted._out[node] is world._out[node]
               for node in extracted.nodes() if node != "seven")
    extracted.check()
