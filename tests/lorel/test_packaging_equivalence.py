"""An answer that adopts its closure's containers is the answer rebuilt
node by node.

``tests/oem/oracle_model.py`` keeps ``QueryResult.as_oem`` as it stood:
recursive, every node through ``create_node`` and every arc through
``add_arc``.  The production walk must build the same database -- by
``same_as``, node for node in the same order, arc for arc, in-arc sets
included, ``check()`` clean -- with identifiers preserved or minted, when
a source node is named like the answer's root or like an identifier the
answer mints (``a1``, ``row1``), for multi-item rows, scalars, shared and
cyclic closures; raise what it raised; and share structure without
sharing fate: writing the answer, the export it was selected from or
that export's source leaves the other two as they were (the rule-based
machine in ``tests/oem/test_equivalence.py`` draws such writes at random;
the orders are spelled out here).  Depth is not the interpreter's stack.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    COMPLEX, OEMDatabase, QSSServer, StaticSource, Wrapper, parse_timestamp)
from repro.errors import OEMError
from repro.lorel.result import ObjectRef, QueryResult, Row
from repro.qss.wrapper import Mediator

from tests.oem.oracle_model import as_oem as oracle_as_oem, deep_copy

SEEDS = st.integers(0, 10 ** 6)
LABELS = ("a", "b", "c")
# Identifiers an answer uses itself: its root, the scalars and renamed
# nodes it mints (a<k>), its multi-item rows (row<k>).
CONTESTED = ["answer", "a1", "a2", "a3", "row1", "row2"]


def contested_graph(rng: random.Random, nodes: int = 16) -> OEMDatabase:
    """Cyclic and shared, some nodes named like what an answer mints."""
    names = CONTESTED + [f"n{index}" for index in range(nodes)]
    rng.shuffle(names)
    db = OEMDatabase(root="root")
    complexes = ["root"]
    for node in names[:nodes]:
        value = COMPLEX if rng.random() < 0.6 else rng.randrange(50)
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


def random_result(rng: random.Random, db: OEMDatabase) -> QueryResult:
    nodes = sorted(db.nodes())
    times = [None, None, None, parse_timestamp("1Jan97")]
    rows = []
    for _ in range(rng.randrange(6)):
        rows.append(Row(tuple(
            (rng.choice(LABELS),
             ObjectRef(rng.choice(nodes), rng.choice(times))
             if rng.random() < 0.7 else rng.choice([7, "text", True, 2.5]))
            for _ in range(rng.choice([1, 1, 1, 2, 3])))))
    return QueryResult(rows)


def packaged(package, *args, **kwargs):
    try:
        return package(*args, **kwargs)
    except OEMError as exc:
        return type(exc)


def assert_same_database(answer: OEMDatabase, expected: OEMDatabase) -> None:
    assert answer.same_as(expected)
    assert list(answer.nodes()) == list(expected.nodes())
    assert list(answer.arcs()) == list(expected.arcs())
    assert answer.arc_count() == expected.arc_count()
    for node in answer.nodes():
        assert set(answer.in_arcs(node)) == set(expected.in_arcs(node))
    answer.check()
    assert answer._suspects == set()
    assert answer.collect_garbage() == set()
    assert answer.new_node_id("a") == expected.new_node_id("a")


@settings(max_examples=200, deadline=None)
@given(SEEDS, st.booleans(), st.sampled_from(["answer", "notification",
                                              "n3", "a1"]))
def test_as_oem_is_the_recursive_rebuild(seed, preserve_ids, root):
    rng = random.Random(seed)
    source = contested_graph(rng)
    result = random_result(rng, source)
    before = deep_copy(source)
    expected = packaged(oracle_as_oem, result, deep_copy(source), root=root,
                        preserve_ids=preserve_ids)
    answer = packaged(result.as_oem, source, root=root,
                      preserve_ids=preserve_ids)
    if isinstance(expected, type):
        assert answer is expected
    else:
        assert_same_database(answer, expected)
    assert source.same_as(before)
    source.check()


def test_collisions_are_renamed_as_before():
    """The spelled-out cases: a node named like the root, like a scalar
    minted before it was reached, like a row."""
    source = OEMDatabase(root="root")
    for node, value in [("answer", COMPLEX), ("a1", 5), ("row1", COMPLEX),
                        ("leaf", 6)]:
        source.create_node(node, value)
    for arc in [("root", "x", "answer"), ("answer", "y", "a1"),
                ("answer", "z", "row1"), ("row1", "back", "answer"),
                ("row1", "y", "leaf")]:
        source.add_arc(*arc)
    result = QueryResult([
        Row((("s", 1),)),                                   # mints a1
        Row((("x", ObjectRef("answer")), ("t", 2))),        # mints row2 ...
        Row((("r", ObjectRef("row1")),))])
    expected = oracle_as_oem(result, deep_copy(source))
    answer = result.as_oem(source)
    assert_same_database(answer, expected)
    assert "answer" in answer and answer.root == "answer"
    renamed = set(answer.nodes()) - set(source.nodes())
    assert len(renamed) >= 4          # row, two scalars, `answer`, `a1`
    # Only `leaf` kept its name below nodes that kept theirs.
    assert answer._out["leaf"] is source._out["leaf"]


def test_an_unknown_object_is_a_typed_error():
    from repro.errors import UnknownNodeError
    result = QueryResult([Row((("x", ObjectRef("gone")),))])
    with pytest.raises(UnknownNodeError):
        result.as_oem(OEMDatabase(root="root"))


# ---------------------------------------------------------------------------
# Shared structure, separate fates
# ---------------------------------------------------------------------------

def three_generations(seed: int = 4):
    """A source, the export a wrapper takes of it, the answer packaged
    from the export -- and a twin of each that shares nothing."""
    rng = random.Random(seed)
    source = contested_graph(rng, nodes=20)
    export = source.copy()
    items = sorted(set(export.nodes()) - {"root"})[:6]
    result = QueryResult([Row((("item", ObjectRef(node)),))
                          for node in items])
    answer = result.as_oem(export)
    family = [source, export, answer]
    return family, [deep_copy(db) for db in family]


@pytest.mark.parametrize("writer", [0, 1, 2], ids=["source", "export",
                                                   "answer"])
def test_writing_one_leaves_the_other_two(writer):
    family, twins = three_generations()
    db = family[writer]
    shared = sorted(set(family[0].nodes()) & set(family[2].nodes()))
    parent = next(node for node in shared if db.is_complex(node)
                  and node != db.root)
    for arc in list(db.out_arcs(parent)):
        db.remove_arc(*arc)
    db.add_arc(parent, "new", db.create_node("fresh", 1))
    db.add_arc(db.root, "kept", parent)
    db.collect_garbage()
    db.check()
    for index, (other, twin) in enumerate(zip(family, twins)):
        if index != writer:
            assert other.same_as(twin)
            assert list(other.arcs()) == list(twin.arcs())
            other.check()
    assert not db.same_as(twins[writer])


def test_a_pickled_answer_owns_everything():
    family, _ = three_generations()
    answer = family[2]
    assert answer._owned is not None and answer.root in answer._owned
    replica = pickle.loads(pickle.dumps(answer))
    assert replica._owned is None
    assert replica.same_as(answer)
    assert all(replica._out[node] is not answer._out[node]
               for node in replica.nodes())


# ---------------------------------------------------------------------------
# Depth is not the interpreter's stack
# ---------------------------------------------------------------------------

def chain(length: int, close: bool) -> OEMDatabase:
    """``root -item-> c0 -next-> c1 ... `` (``close``: back to ``c0``)."""
    db = OEMDatabase(root="root")
    db.add_arc("root", "item", db.create_node("c0", COMPLEX))
    for index in range(1, length):
        db.add_arc(f"c{index - 1}", "next",
                   db.create_node(f"c{index}", COMPLEX))
    db.add_arc(f"c{length - 1}", "tail", db.create_node("end", length))
    if close:
        db.add_arc(f"c{length - 1}", "next", "c0")
    db.collect_garbage()
    return db


DEEP = [pytest.param(5000, False, id="5000-deep-chain"),
        pytest.param(2000, True, id="2000-node-cycle")]


@pytest.mark.parametrize("length, close", DEEP)
def test_a_deep_answer_through_the_wrapper(length, close):
    db = chain(length, close)
    answer = Wrapper(StaticSource(db, stable_ids=True)).poll(
        "select root.item")
    assert len(answer) == length + 2
    assert answer.value("end") == length
    assert answer.has_arc("answer", "item", "c0")
    assert answer.has_arc(f"c{length - 1}", "next", "c0") is close
    answer.check()


@pytest.mark.parametrize("length, close", DEEP)
def test_a_deep_answer_through_the_mediator(length, close):
    mediator = Mediator({"deep": StaticSource(chain(length, close),
                                              stable_ids=True)})
    answer = mediator.poll("select med.deep.item")
    assert len(answer) == length + 2
    answer.check()


@pytest.mark.parametrize("length, close", DEEP)
def test_a_deep_notification_through_the_server(length, close):
    server = QSSServer(start="1Jan97")
    try:
        previous = chain(length, close)
        server.doems._previous["deep"] = previous
        notification = server._package("deep", QueryResult(
            [Row((("item", ObjectRef("c0")),))]))
        assert notification.root == "notification"
        assert len(notification) == length + 2
        notification.check()
        assert previous.same_as(chain(length, close))
    finally:
        server.close()
