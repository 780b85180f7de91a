"""The per-node id differ against the set-based one it replaced.

``repro.diff.iddiff.id_diff`` compares each node of the new snapshot with
its namesake in the old one; ``oracle_iddiff.id_diff`` (the parent's
code, kept verbatim) subtracts sets of every node and every arc.  Over
random snapshot pairs -- value updates, complex <-> atomic turns, rewires,
deleted subtrees, cycles, shared and unshared containers -- both must
infer the same operations as a multiset, the production one in its
documented order, and never by walking :meth:`OEMDatabase.arcs`.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro import COMPLEX, OEMDatabase, apply_diff
from repro.diff.iddiff import id_diff
from repro.oem.changes import AddArc, CreNode, RemArc, UpdNode
from repro.oem.history import ChangeSet
from repro.oem.serialize import dumps, loads
from repro.sources.generators import (
    LABELS,
    large_database,
    random_change_set,
    random_database,
)

from . import oracle_iddiff as oracle

_RANK = {CreNode: 0, UpdNode: 1, AddArc: 2, RemArc: 3}


def turned(db: OEMDatabase, rng: random.Random, count: int) -> None:
    """Turn ``count`` complex nodes atomic (their arcs cut first) and as
    many atomic nodes complex, each with a child under a random label."""
    nodes = list(db.nodes())
    complexes = [node for node in nodes
                 if db.is_complex(node) and node != db.root]
    for node in rng.sample(complexes, min(count, len(complexes))):
        for arc in list(db.out_arcs(node)):
            db.remove_arc(*arc)
        db.update_value(node, rng.randrange(1000))
    atoms = [node for node in db.nodes() if not db.is_complex(node)]
    for node in rng.sample(atoms, min(count, len(atoms))):
        db.update_value(node, COMPLEX)
        db.add_arc(node, rng.choice(LABELS), rng.choice(nodes))


def pair(seed: int, flavour: str) -> tuple[OEMDatabase, OEMDatabase]:
    """An (old, new) pair of one seeded random world.

    ``shared``: ``new`` is ``old.copy()`` changed through the mutators, so
    every untouched node's map is the same object on both sides;
    ``rebuilt``: ``new`` is parsed back from text, so no map is shared;
    ``turned``: complex <-> atomic turns on top of a random set.  Every
    flavour ends with a collection, so subtrees cut by the set are gone.
    """
    rng = random.Random(seed)
    old = random_database(seed=seed, nodes=rng.randrange(5, 60),
                          extra_arc_ratio=rng.choice([0.0, 0.3, 0.8]))
    new = old.copy()
    random_change_set(new, seed=seed + 1,
                      size=rng.randrange(1, 16)).apply_to(new)
    if flavour == "turned":
        turned(new, rng, rng.randrange(1, 4))
    new.collect_garbage()
    if flavour == "rebuilt":
        new = loads(dumps(new))
    return old, new


def expected_order(old: OEMDatabase, new: OEMDatabase, ops) -> list:
    """``ops`` in the documented order: creates, updates, adds, removes,
    each by the node's place in ``new``, arcs in their map's data order."""
    place = {node: index for index, node in enumerate(new.nodes())}

    def arc_place(db, arc):
        flat = [(label, target) for label, targets
                in db.out_map(arc.source).items() for target in targets]
        return flat.index((arc.label, arc.target))

    def key(op):
        if isinstance(op, (CreNode, UpdNode)):
            return _RANK[type(op)], place[op.node], 0
        side = new if isinstance(op, AddArc) else old
        return _RANK[type(op)], place[op.source], arc_place(side, op)
    return sorted(ops, key=key)


def refuse_arcs(self):
    raise AssertionError("id_diff walked OEMDatabase.arcs()")


def check(old: OEMDatabase, new: OEMDatabase, monkeypatch) -> list:
    """``id_diff(old, new)``'s operations, checked against the oracle's
    and the documented order; ``arcs()`` raises while it runs."""
    wanted = list(oracle.id_diff(old, new))
    with monkeypatch.context() as patch:
        patch.setattr(OEMDatabase, "arcs", refuse_arcs)
        got = list(id_diff(old, new))
    assert Counter(got) == Counter(wanted)
    assert got == expected_order(old, new, got)
    return got


@pytest.mark.parametrize("flavour", ["shared", "rebuilt", "turned"])
@pytest.mark.parametrize("seed", range(40))
def test_per_node_diff_is_the_set_diff(seed, flavour, monkeypatch):
    old, new = pair(seed, flavour)
    got = check(old, new, monkeypatch)
    assert apply_diff(old, ChangeSet(got)).same_as(new)


def test_the_pairs_cover_every_kind(monkeypatch):
    """The generated pairs exercise every operation kind, a complex <->
    atomic turn and a cut that drops a subtree."""
    kinds, turns, dropped = Counter(), 0, 0
    for seed in range(40):
        for flavour in ("shared", "rebuilt", "turned"):
            old, new = pair(seed, flavour)
            ops = check(old, new, monkeypatch)
            kinds.update(type(op) for op in ops)
            turns += sum(1 for op in ops if isinstance(op, UpdNode)
                         and (op.value is COMPLEX) != old.is_complex(op.node))
            dropped += len(set(old.nodes()) - set(new.nodes())) > 0
    assert all(kinds[kind] for kind in _RANK), kinds
    assert turns and dropped


def test_identical_and_unrelated_snapshots(monkeypatch):
    db = large_database(seed=2, items=200, extra_links=40)
    assert check(db, db.copy(), monkeypatch) == []
    assert check(db, loads(dumps(db)), monkeypatch) == []
    assert len(check(OEMDatabase(root=db.root), db, monkeypatch)) \
        == len(db) - 1 + db.arc_count()
    assert len(check(db, OEMDatabase(root=db.root), monkeypatch)) \
        == sum(map(len, db.out_map(db.root).values()))


def test_cycles_through_the_root(monkeypatch):
    old = OEMDatabase(root="r")
    for node in ("a", "b"):
        old.create_node(node, COMPLEX)
    old.add_arc("r", "x", "a")
    old.add_arc("a", "y", "b")
    old.add_arc("b", "back", "r")
    new = old.copy()
    new.remove_arc("b", "back", "r")
    new.add_arc("b", "loop", "b")
    new.add_arc("a", "up", "r")
    assert check(old, new, monkeypatch) == [
        AddArc("a", "up", "r"), AddArc("b", "loop", "b"),
        RemArc("b", "back", "r")]
