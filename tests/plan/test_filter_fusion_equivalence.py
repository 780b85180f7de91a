"""A ``where`` conjunct tested inside its walk keeps the oracle's rows.

The ``filter-fusion`` rule moves ``X.l1...lk op literal`` into the
``PathExpand`` that binds ``X``; the walk then tests each node it reaches
before it builds a binding or an environment.  The depth-first evaluator
(``use_planner=False``) stays the definition: ordered row lists must be
its, at batch widths 1, 7 and 64, serial and thread-sharded, over a plain
OEM view, the native DOEM current view, ``Ot(D)`` snapshots and the
Section 5.1 encoding.  The random worlds have atomic items, missing,
multi-valued and complex test targets and paths of one to three steps;
the conjuncts use every comparison operator and literals of every atomic
type.  The shapes the rule must leave in the ``Predicate`` are pinned
too.  Deterministic per seed; no clock.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    COMPLEX, ChorelEngine, LorelEngine, OEMDatabase, WorkerPool, build_doem,
    encode_doem, parse_timestamp, snapshot_at)
from repro.lorel.ast import (
    And, AnnotationExpr, Comparison, FromItem, Literal, Not, Or, PathExpr,
    PathStep, Query, SelectItem, VarRef)
from repro.plan.ir import PathExpand, Predicate
from repro.sources.generators import random_history
from tests.plan.test_batched_equivalence import run_at_width
from tests.plan.test_planner_equivalence import texts

SEEDS = st.integers(0, 10 ** 6)
WIDTHS = (1, 7, 64)
OPS = ("=", "==", "!=", "<>", "<", "<=", ">", ">=")
ATOMS = [0, 3, 10, 2.5, -1.5, True, False, "n03", "abc", "10", "2.5",
         "true", "1Jan97", "3Jan97", "1997-01-02", parse_timestamp("2Jan97")]
LABELS = ("name", "price", "info", "code")
BACKENDS = ("oem", "doem", "snapshot", "encoding")


def random_world(rng: random.Random) -> OEMDatabase:
    """``root.item`` objects -- some atomic -- with zero, one or two
    children per label (an atom, or a complex object with its own
    labelled children two levels down) and ``sub`` objects alike."""
    db = OEMDatabase(root="root")
    counter = iter(range(1, 10 ** 6))

    def grow(parent: str, depth: int) -> None:
        for label in LABELS:
            for _ in range(rng.choice((0, 1, 1, 1, 2))):
                complex_ = depth < 2 and rng.random() < 0.3
                child = db.create_node(
                    f"n{next(counter)}",
                    COMPLEX if complex_ else rng.choice(ATOMS))
                db.add_arc(parent, label, child)
                if complex_:
                    grow(child, depth + 1)

    for _ in range(rng.randrange(8, 16)):
        atomic = rng.random() < 0.15
        item = db.create_node(f"n{next(counter)}",
                              rng.choice(ATOMS) if atomic else COMPLEX)
        db.add_arc("root", "item", item)
        if atomic:
            continue
        grow(item, 0)
        for _ in range(rng.choice((0, 1, 2))):
            sub = db.create_node(f"n{next(counter)}", COMPLEX)
            db.add_arc(item, "sub", sub)
            grow(sub, 1)
    return db


def engines(backend: str, seed: int):
    """``(planned engine, oracle engine)`` over one backend's world."""
    rng = random.Random(seed)
    db = random_world(rng)
    if backend == "oem":
        source, engine_cls = db, LorelEngine
    else:
        doem = build_doem(db, random_history(db, seed=seed, steps=3,
                                             set_size=6))
        if backend == "doem":
            source, engine_cls = doem, ChorelEngine
        elif backend == "snapshot":
            times = doem.timestamps()
            source = snapshot_at(doem, rng.choice(times) if times
                                 else parse_timestamp("1Jan97"))
            engine_cls = LorelEngine
        else:
            source, engine_cls = encode_doem(doem).oem, LorelEngine
    return (engine_cls(source, name="root"),
            engine_cls(source, name="root", use_planner=False))


def conjunct(rng: random.Random, var: str, tail: tuple) -> Comparison:
    steps = tuple(PathStep(rng.choice(LABELS))
                  for _ in range(rng.randrange(1, 4))) + tail
    return Comparison(PathExpr(var, steps), rng.choice(OPS),
                      Literal(rng.choice(ATOMS)))


def random_query(rng: random.Random, backend: str) -> Query:
    """One from-item or two (``X.sub Y``), one or two fusable conjuncts
    on either variable, now and then beside one the rule must keep.  The
    encoding keeps an object's value under its ``&val`` label."""
    tail = (PathStep("&val"),) if backend == "encoding" else ()
    items = [FromItem(PathExpr("root", (PathStep("item"),)), "X")]
    names = ["X"]
    if rng.random() < 0.5:
        items.append(FromItem(PathExpr("X", (PathStep("sub"),)), "Y"))
        names.append("Y")
    parts = [conjunct(rng, rng.choice(names), tail)
             for _ in range(rng.randrange(1, 3))]
    if rng.random() < 0.3:
        parts.insert(rng.randrange(len(parts) + 1),
                     Or(conjunct(rng, "X", tail),
                        conjunct(rng, names[-1], tail)))
    where = parts[0]
    for part in parts[1:]:
        where = And(where, part)
    select = tuple(SelectItem(VarRef(name)) for name in names)
    return Query(select, tuple(items), where)


def fused(engine, query) -> int:
    """How many conjuncts the compiled plan tests inside a walk."""
    node, count = engine.compile(query).root, 0
    while node is not None:
        if isinstance(node, PathExpand):
            count += len(node.test)
        node = getattr(node, "child", None)
    return count


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=25, deadline=None)
@given(seed=SEEDS)
def test_fused_rows_are_the_oracle_rows(backend, seed):
    planned, oracle = engines(backend, seed)
    rng = random.Random(seed + 1)
    for _ in range(4):
        query = random_query(rng, backend)
        assert fused(planned, query) > 0, query
        expected = texts(oracle.run(query))
        for width in WIDTHS:
            assert texts(run_at_width(planned, query, width)) == expected, \
                (backend, width, str(query))


@pytest.mark.parametrize("backend", BACKENDS)
def test_the_generator_keeps_and_drops(backend):
    """Items kept and items dropped both occur, so the property above
    compares more than empty results."""
    kept = dropped = 0
    for seed in range(30):
        planned, oracle = engines(backend, seed)
        rng = random.Random(seed + 1)
        everything = len(oracle.run("select X from root.item X"))
        for _ in range(4):
            rows = len(planned.run(random_query(rng, backend)))
            kept += rows
            dropped += everything - rows
    assert kept > 20 and dropped > 20, (kept, dropped)


@pytest.mark.parametrize("seed", [3, 8])
def test_thread_sharded_fused_walks(seed):
    """The Exchange carries the test onto its source and its stages."""
    planned, oracle = engines("doem", seed)
    rng = random.Random(seed)
    with WorkerPool(3) as pool:
        for _ in range(6):
            query = random_query(rng, "doem")
            assert texts(run_at_width(planned, query, 7, pool)) == \
                texts(oracle.run(query)), str(query)


def test_analyze_counts_candidates_tested_and_kept():
    planned, _ = engines("oem", 5)
    query = 'select X from root.item X where X.price > 2'
    result = planned.run(query, analyze=True)
    stats = planned.last_compiled.runtime
    walk = next(op for op in stats.ops if op.op.startswith("PathExpand"))
    assert walk.pred_counts["tested"] == \
        len(planned.run("select X from root.item X"))
    assert walk.pred_counts["kept"] == walk.rows_out == len(result)
    assert not any(op.op.startswith("Predicate") for op in stats.ops)


# ---------------------------------------------------------------------------
# Where the rule must not fire
# ---------------------------------------------------------------------------

AT = AnnotationExpr(kind="at", at_literal=parse_timestamp("2Jan97"))
NAME = PathExpr("X", (PathStep("name"),))
KEPT = {
    "under or": Or(Comparison(NAME, "=", Literal("n03")),
                   Comparison(NAME, "=", Literal(3))),
    "under not": Not(Comparison(NAME, "=", Literal("n03"))),
    "existence": Comparison(NAME, "=", Literal(None)),
    "pattern step": Comparison(PathExpr("X", (PathStep("na%"),)), "=",
                               Literal("n03")),
    "annotated step": Comparison(
        PathExpr("X", (PathStep("name", node_annotation=AT),)), "=",
        Literal("n03")),
    "two paths": Comparison(NAME, "=", PathExpr("X", (PathStep("code"),))),
    "a bare variable": Comparison(VarRef("X"), "=", Literal("n03")),
}


def plain_query(where) -> Query:
    return Query((SelectItem(VarRef("X")),),
                 (FromItem(PathExpr("root", (PathStep("item"),)), "X"),),
                 where)


@pytest.mark.parametrize("shape", sorted(KEPT))
@pytest.mark.parametrize("seed", [1, 2])
def test_the_rule_keeps_these_in_the_predicate(shape, seed):
    planned, oracle = engines("doem", seed)
    query = plain_query(KEPT[shape])
    assert fused(planned, query) == 0
    root = planned.compile(query).root
    assert isinstance(root.child, Predicate)
    assert texts(planned.run(query)) == texts(oracle.run(query))


def test_an_annotated_binder_keeps_the_predicate():
    """``<at T>`` on the walk binding ``X``: its bindings carry the time,
    so the conjunct stays in the ``Predicate``, which reads as of then."""
    planned, oracle = engines("doem", 4)
    query = Query((SelectItem(VarRef("X")),), (FromItem(PathExpr(
        "root", (PathStep("item", node_annotation=AT),)), "X"),),
        Comparison(NAME, "!=", Literal("n03")))
    assert fused(planned, query) == 0
    assert texts(planned.run(query)) == texts(oracle.run(query))


def test_a_trigger_pre_binding_keeps_the_predicate():
    planned, oracle = engines("doem", 6)
    query = plain_query(Comparison(NAME, "!=", Literal("zz")))
    item = next(iter(planned.run("select X from root.item X"))).items[0][1]
    bindings = {"X": item.node}
    assert not any(isinstance(node, PathExpand) and node.test
                   for node in _chain(planned.compile(query, bindings)))
    assert fused(planned, query) == 1  # without the pre-binding it fires
    assert texts(planned.run(query, bindings=bindings)) == \
        texts(oracle.run(query, bindings=bindings))


def _chain(compiled):
    node = compiled.root
    while node is not None:
        yield node
        node = getattr(node, "child", None)
