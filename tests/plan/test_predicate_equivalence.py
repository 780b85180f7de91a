"""A compiled ``where`` over plain paths keeps the solver's rows.

``compile_predicate`` turns a path of plain steps into a frontier walk
and a comparison into *exists* over the values reached; the solver
(``Evaluator.solve``) stays the definition.  Random conditions -- plain
paths of zero to three steps on either or both sides, ``and``/``or``/
``not``, ``like``, literals of every atomic type (booleans, numeric and
timestamp-like strings among them), polling-time variables -- over random
cyclic graphs with multi-valued and missing paths, atomic objects mid-path
and complex objects at the end, from bindings with and without an
``<at T>`` context, scalar-bound and unbound starts: the rows kept must be
the solver's (and no error raised that it does not raise), over a plain
OEM view, the native DOEM view and the Section 5.1 encoding.
Deterministic per seed; no clock.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import COMPLEX, OEMDatabase, build_doem, parse_timestamp
from repro.doem.encoding import encode_doem
from repro.errors import ReproError
from repro.lorel.ast import (
    And, Comparison, LikeCond, Literal, Not, Or, PathExpr, PathStep,
    TimeVar, VarRef)
from repro.lorel.eval import TIMEVARS_KEY, Evaluator, NodeBinding
from repro.lorel.views import DOEMView, OEMView
from repro.plan.batch import compile_predicate, filter_rows
from repro.sources.generators import random_history
from repro.timestamps import POS_INF

SEEDS = st.integers(0, 10 ** 6)
LABELS = ("a", "b", "c")
OPS = ("=", "==", "!=", "<>", "<", "<=", ">", ">=")
ATOMS = [0, 3, 10, 9, 2.5, True, False, "n03", "abc", "10", "9", "2.5",
         "true", "1Jan97", "3Jan97", "1997-01-02",
         parse_timestamp("2Jan97"), parse_timestamp("3Jan97")]
PATTERNS = ["%", "n0_", "%a%", "1%", "%97", "tr%"]
TIMES = [None, None, parse_timestamp("31Dec96"), parse_timestamp("1Jan97"),
         parse_timestamp("2Jan97"), parse_timestamp("3Jan97 12:00"),
         POS_INF]
VIEWS = ("oem", "doem", "encoding")
# Mostly bound objects; now and then a scalar, a database name, nothing.
STARTS = ["X"] * 6 + ["Y"] * 4 + ["S", "root", "U"]


def random_graph(rng: random.Random, nodes: int = 14) -> OEMDatabase:
    """Cyclic, shared, with several targets under one label and atomic
    objects of every type (so some paths dead-end mid-way)."""
    db = OEMDatabase(root="root")
    complexes = ["root"]
    for index in range(1, nodes):
        node = f"n{index}"
        value = COMPLEX if rng.random() < 0.55 else rng.choice(ATOMS)
        db.create_node(node, value)
        db.add_arc(rng.choice(complexes), rng.choice(LABELS), node)
        if value is COMPLEX:
            complexes.append(node)
    everything = list(db.nodes())
    for _ in range(nodes // 2):
        arc = (rng.choice(complexes), rng.choice(LABELS),
               rng.choice(everything))
        if not db.has_arc(*arc):
            db.add_arc(*arc)
    return db


def make_view(kind: str, seed: int):
    """``(view, labels to draw steps from, nodes to bind)``."""
    rng = random.Random(seed)
    db = random_graph(rng)
    if kind == "oem":
        return OEMView(db), LABELS + ("zz",), sorted(db.nodes())
    doem = build_doem(db, random_history(db, seed=seed, steps=3, set_size=5))
    if kind == "doem":
        return (DOEMView(doem), LABELS + ("zz",),
                sorted(doem.graph.nodes()))
    encoded = encode_doem(doem).oem
    labels = sorted({arc.label for arc in encoded.arcs()})
    return OEMView(encoded), tuple(labels), sorted(encoded.nodes())


def random_operand(rng: random.Random, labels):
    roll = rng.random()
    if roll < 0.55:
        steps = tuple(PathStep(rng.choice(labels))
                      for _ in range(rng.randrange(0, 4)))
        return PathExpr(rng.choice(STARTS), steps)
    if roll < 0.8:
        return Literal(rng.choice(ATOMS))
    if roll < 0.92:
        return VarRef(rng.choice(["X", "Y", "S", "S", "S", "U"]))
    return TimeVar(rng.choice([0, -1]))


def random_condition(rng: random.Random, labels, depth: int = 0):
    roll = rng.random()
    if depth < 3 and roll < 0.3:
        return rng.choice([And, Or])(
            random_condition(rng, labels, depth + 1),
            random_condition(rng, labels, depth + 1))
    if depth < 3 and roll < 0.4:
        return Not(random_condition(rng, labels, depth + 1))
    if roll < 0.5:
        return LikeCond(random_operand(rng, labels), rng.choice(PATTERNS))
    return Comparison(random_operand(rng, labels), rng.choice(OPS),
                      random_operand(rng, labels))


def random_env(rng: random.Random, nodes) -> dict:
    """``X``/``Y`` objects (maybe as of a time), ``S`` a scalar, ``U`` and
    (usually) ``root`` unbound; polling times present more often than not."""
    env: dict = {"S": rng.choice(ATOMS)}
    for name in ("X", "Y"):
        if rng.random() < 0.9:
            env[name] = NodeBinding(rng.choice(nodes), rng.choice(TIMES))
    if rng.random() < 0.1:
        env["root"] = NodeBinding(rng.choice(nodes))
    if rng.random() < 0.8:
        env[TIMEVARS_KEY] = {0: parse_timestamp("3Jan97"),
                             -1: parse_timestamp("2Jan97")}
    return env


def solved(evaluator: Evaluator, condition, env: dict):
    """The solver's verdict for one row, or the type of its error."""
    try:
        return next(evaluator.solve(condition, env), None) is not None
    except ReproError as exc:
        return type(exc)


def check_seed(kind: str, seed: int, tally: dict | None = None) -> None:
    """Row by row, through the closure and through the operator's loop.

    Where the solver *raises*, the closure may instead have decided the
    row: ``(A or B) and C`` stops at a true ``A``, while the solver, ``C``
    failing, goes on to enumerate ``B`` and meets the error there (so it
    is, and was, for an unbound variable in ``B``).  It never raises
    anything else, and never where the solver does not.
    """
    view, labels, nodes = make_view(kind, seed)
    evaluator = Evaluator(view)
    rng = random.Random(seed + 1)
    for _ in range(6):
        condition = random_condition(rng, labels)
        pred = compile_predicate(condition, evaluator)
        assert pred is not None, condition
        for _ in range(8):
            env = random_env(rng, nodes)
            verdict = solved(evaluator, condition, env)
            try:
                compiled = pred(env)
            except KeyError:
                compiled = "fallback"   # filter_rows asks the solver
            except ReproError as exc:
                compiled = type(exc)
            try:
                kept = filter_rows(evaluator, condition, [env], pred)
            except ReproError as exc:
                kept = type(exc)
            if isinstance(verdict, bool):
                assert compiled == "fallback" or compiled is verdict, \
                    (condition, env)
                assert kept == ([env] if verdict else []), (condition, env)
            else:
                assert compiled in ("fallback", verdict, True, False), \
                    (condition, env)
                assert kept in (verdict, [env], []), (condition, env)
            if tally is not None:
                key = compiled if compiled == "fallback" else verdict
                tally[key] = tally.get(key, 0) + 1


@pytest.mark.parametrize("kind", VIEWS)
@settings(max_examples=60, deadline=None)
@given(seed=SEEDS)
def test_compiled_predicate_is_the_solver(kind, seed):
    check_seed(kind, seed)


@pytest.mark.parametrize("kind", VIEWS)
def test_the_generator_reaches_every_outcome(kind):
    """Kept rows, dropped rows, solver fallbacks and typed errors all
    occur, so the property above compares more than ``False is False``."""
    tally: dict = {}
    for seed in range(40):
        check_seed(kind, seed, tally)
    assert tally[True] > 50 and tally[False] > 50, tally
    assert tally["fallback"] > 20, tally
    assert any(isinstance(key, type) for key in tally), tally


def test_an_at_context_governs_the_first_hop_only():
    """``<at T>`` on the start reads ``children_at`` for one hop and
    ``value_at`` for none; below that the walk is current -- exactly as
    ``_step_matches`` hands on a context-free binding."""
    from repro import AddArc, ChangeSet, CreNode, OEMHistory, UpdNode
    db = OEMDatabase(root="root")
    db.add_arc("root", "a", db.create_node("n1", COMPLEX))
    db.add_arc("n1", "b", db.create_node("n2", 1))
    history = OEMHistory()
    history.append(parse_timestamp("2Jan97"), ChangeSet([
        CreNode("n3", 7), AddArc("root", "a", "n3"), UpdNode("n2", 2)]))
    evaluator = Evaluator(DOEMView(build_doem(db, history)))
    early, late = parse_timestamp("1Jan97"), parse_timestamp("3Jan97")

    def rows(text_path, op, literal, at):
        condition = Comparison(text_path, op, Literal(literal))
        env = {"R": NodeBinding("root", at), "N": NodeBinding("n2", at)}
        pred = compile_predicate(condition, evaluator)
        assert pred(env) is solved(evaluator, condition, env)
        return pred(env)

    hop = PathExpr("R", (PathStep("a"),))
    assert rows(hop, "=", 7, early) is False      # n3 not yet a child
    assert rows(hop, "=", 7, late) is True
    assert rows(PathExpr("N"), "=", 1, early) is True     # value_at
    assert rows(PathExpr("N"), "=", 2, early) is False
    deep = PathExpr("R", (PathStep("a"), PathStep("b")))
    assert rows(deep, "=", 2, early) is True      # second hop is current
