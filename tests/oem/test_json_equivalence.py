"""The JSON bridge against the recursive pair it replaced.

``oracle_json.py`` keeps the recursive ``to_json`` and ``from_json``.
Over random JSON values and random databases (sharing and cycles
included) the production pair returns the same JSON value -- key order,
array fan-out, shared subtrees repeated -- builds the same database, node
identifiers and arc order included, or raises the same error.  Neither
direction recurses on the depth of the data.
"""

from __future__ import annotations

import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import COMPLEX, OEMDatabase
from repro.errors import SerializationError
from repro.oem.serialize import from_json, to_json
from repro.sources.generators import random_database
from tests.oem import oracle_json as oracle

SCALARS = (st.none() | st.booleans() | st.integers(-10**12, 10**12)
           | st.floats(allow_nan=False) | st.text(max_size=6)
           | st.sampled_from(["@1Jan97", "@31Dec96 11:30pm", "@nonsense",
                              "@"]))
JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=40)


def outcome(function, *args):
    """What ``function(*args)`` does, in comparable form."""
    try:
        value = function(*args)
    except Exception as exc:
        return (type(exc).__name__, str(exc))
    if isinstance(value, OEMDatabase):
        return ("db", value.root,
                [(node, type(value.value(node)).__name__, value.value(node))
                 for node in value.nodes()],
                list(value.arcs()))
    # json.dumps keeps key order; repr keeps the int/float/bool types.
    return ("json", json.dumps(value), repr(value))


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_from_json_builds_what_the_recursive_reader_built(value):
    assert outcome(from_json, value) == outcome(oracle.from_json, value)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_a_tree_exports_as_the_recursive_writer_exported_it(value):
    try:
        db = oracle.from_json(value, "r")
    except Exception:
        return
    assert outcome(to_json, db) == outcome(oracle.to_json, db)
    for node in list(db.nodes())[:5]:
        assert outcome(to_json, db, node) == outcome(oracle.to_json, db, node)


@pytest.mark.parametrize("seed", range(60))
def test_shared_and_cyclic_databases(seed):
    """Sharing repeats a subtree; the first cycle in depth-first order
    raises with the same message.  Low extra-arc ratios leave some
    databases acyclic, so both outcomes are covered."""
    db = random_database(seed=seed, nodes=25,
                         extra_arc_ratio=(seed % 6) / 20)
    assert outcome(to_json, db) == outcome(oracle.to_json, db)
    for node in db.nodes():
        if db.is_complex(node):
            assert outcome(to_json, db, node) == \
                outcome(oracle.to_json, db, node)


def test_both_outcomes_are_covered():
    results = {outcome(to_json, random_database(
        seed=seed, nodes=25, extra_arc_ratio=(seed % 6) / 20))[0]
        for seed in range(60)}
    assert results == {"json", "SerializationError"}


def test_a_shared_subtree_is_repeated():
    db = OEMDatabase(root="r")
    db.create_node("s", COMPLEX)
    db.create_node("v", 7)
    db.add_arc("s", "v", "v")
    for label in ("a", "b", "b"):
        node = db.create_node(db.new_node_id(), COMPLEX)
        db.add_arc("r", label, node)
        db.add_arc(node, "shared", "s")
    expected = {"a": {"shared": {"v": 7}},
                "b": [{"shared": {"v": 7}}, {"shared": {"v": 7}}]}
    assert to_json(db) == oracle.to_json(db) == expected


def chain(depth: int) -> dict:
    value: object = "bottom"
    for level in range(depth):
        value = {"next": value, "level": level}
    return value


def test_a_100000_deep_chain_round_trips():
    depth = 100_000
    assert depth > 10 * sys.getrecursionlimit()
    value = chain(depth)
    db = from_json(value)
    assert len(db) == 2 * depth + 1  # the outermost object is the root
    exported = to_json(db)
    for level in reversed(range(depth)):  # compared without recursion
        assert list(exported) == ["level", "next"]
        assert exported["level"] == level
        exported = exported["next"]
    assert exported == "bottom"


def test_a_deep_cycle_is_refused_without_recursion():
    db = from_json(chain(5_000))
    bottom = next(node for node in db.nodes() if db.value(node) == "bottom")
    parent = next(iter(db.in_arcs(bottom))).source
    db.add_arc(parent, "loop", db.root)
    with pytest.raises(SerializationError, match=f"&{db.root} "):
        to_json(db)
