"""Shared-structure copies and suspect-driven collection change nothing.

``oracle_model.py`` holds the deep copy and the full walk that
``OEMDatabase.copy()`` and ``unreachable_nodes()`` replaced, and the
arc-scanning ``subgraph`` and node-by-node ``as_oem`` that adopting a
closure's containers replaced.  Two parts:
(a) *aliasing* -- a family of databases copied, extracted and packaged
from one another at random points, each shadowed by a twin that shares
nothing with anybody, stays equal to its twins whatever is written to
whichever member (the answer, the export it was selected from, or that
export's source);
(b) *collection* -- ``unreachable_nodes()`` is the oracle's answer after
arbitrary mutation sequences, on the shapes the suspect rule has to get
right.  Both run twice: with the production ``FULL_WALK_SHARE`` and with
1, where the full-walk fallback never fires and the suspects alone have
to be exact.  (c) Ownership and suspects are sets: ``PYTHONHASHSEED``
reaches nothing a caller can observe.
"""

from __future__ import annotations

import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule,
    run_state_machine_as_test)

from repro import (
    COMPLEX, AddArc, ChangeSet, CreNode, OEMDatabase, RemArc, UpdNode)
from repro.doem.model import DOEMDatabase
from repro.errors import OEMError
from repro.lorel.result import ObjectRef, QueryResult, Row
from repro.oem import model
from repro.sources.generators import random_change_set, random_database

from . import oracle_model
from .oracle_model import deep_copy, unreachable

ROOT = Path(__file__).resolve().parents[2]
LABELS = ("a", "b", "c")
SEEDS = st.integers(0, 10 ** 6)


@pytest.fixture(params=[model.FULL_WALK_SHARE, 1],
                ids=["production-share", "never-fall-back"])
def full_walk_share(request, monkeypatch):
    monkeypatch.setattr(model, "FULL_WALK_SHARE", request.param)


both_shares = pytest.mark.usefixtures("full_walk_share")


def outcome(action, db):
    """What ``action(db)`` returned, or the type of what it raised."""
    try:
        return action(db)
    except OEMError as exc:
        return type(exc)


def assert_same(db: OEMDatabase, twin: OEMDatabase) -> None:
    """``db`` is its twin in everything a caller can observe."""
    assert db.same_as(twin)
    assert list(db.nodes()) == list(twin.nodes())
    assert db.arc_count() == twin.arc_count()
    assert list(db.arcs()) == list(twin.arcs())
    incoming = set()
    for node in db.nodes():
        assert set(db.in_arcs(node)) == set(twin.in_arcs(node))
        incoming.update(db.in_arcs(node))
    assert incoming == set(db.arcs())
    stranded = unreachable(twin)
    assert db.unreachable_nodes() == stranded
    if stranded:
        with pytest.raises(OEMError):
            db.check()
    else:
        db.check()


# ---------------------------------------------------------------------------
# (a) aliasing
# ---------------------------------------------------------------------------

class Family(RuleBasedStateMachine):
    """``members[i]`` is ``(database, twin)``: the database came out of
    ``copy()`` (or ``subgraph``, a DOEM copy, a pickle) of an earlier
    member and shares whatever it has not written; the twin came out of
    ``deep_copy`` and receives the same steps."""

    def __init__(self):
        super().__init__()
        self.members: list[tuple[OEMDatabase, OEMDatabase]] = []
        self.minted = 0

    @initialize(seed=SEEDS)
    def first(self, seed):
        db = random_database(seed=seed, nodes=12, extra_arc_ratio=0.5)
        self.members.append((db, deep_copy(db)))

    def pick(self, index: int) -> tuple[OEMDatabase, OEMDatabase]:
        return self.members[index % len(self.members)]

    def step(self, index: int, action) -> None:
        db, twin = self.pick(index)
        assert outcome(action, db) == outcome(action, twin)

    def fresh(self) -> str:
        """An identifier (or identifier prefix) no member uses yet."""
        self.minted += 1
        return f"m{self.minted}_"

    def random_ops(self, index: int, seed: int, size: int) -> list:
        """A change set valid for the member (none if nothing in it is
        complex: the generator needs a parent to hang new nodes on)."""
        db = self.pick(index)[0]
        if not any(db.is_complex(node) for node in db.nodes()):
            return []
        return list(random_change_set(db, seed=seed, size=size,
                                      id_prefix=self.fresh()))

    # -- growing the family -------------------------------------------------

    @precondition(lambda self: len(self.members) < 6)
    @rule(index=SEEDS, how=st.sampled_from(["copy", "doem", "pickle"]))
    def clone(self, index, how):
        db, twin = self.pick(index)
        if how == "copy":
            clone = db.copy()
        elif how == "doem":
            clone = DOEMDatabase(db).copy().graph
        else:
            clone = pickle.loads(pickle.dumps(db))
            assert clone._owned is None
        self.members.append((clone, deep_copy(twin)))

    @precondition(lambda self: len(self.members) < 6)
    @rule(index=SEEDS, seed=SEEDS)
    def subgraph(self, index, seed):
        db, twin = self.pick(index)
        node = random.Random(seed).choice(sorted(db.nodes()))
        root = self.fresh()
        extracted = db.subgraph(node, new_root=root)
        assert extracted.same_as(oracle_model.subgraph(twin, node, root))
        assert extracted._suspects == set()
        self.members.append((extracted, deep_copy(extracted)))

    @precondition(lambda self: len(self.members) < 6)
    @rule(index=SEEDS, seed=SEEDS, preserve_ids=st.booleans())
    def package(self, index, seed, preserve_ids):
        """An answer selected from a member joins the family: identifiers
        kept or minted, its root sometimes named like a node it copies."""
        db, twin = self.pick(index)
        rng = random.Random(seed)
        nodes = sorted(db.nodes())
        rows = [Row(tuple(
            (rng.choice(LABELS),
             ObjectRef(rng.choice(nodes)) if rng.random() < 0.7
             else rng.randrange(5))
            for _ in range(rng.choice([1, 1, 2, 3]))))
            for _ in range(rng.randrange(4))]
        result = QueryResult(rows)
        root = rng.choice(["answer", self.fresh(), rng.choice(nodes)])
        answer = outcome(lambda source: result.as_oem(
            source, root=root, preserve_ids=preserve_ids), db)
        reference = outcome(lambda source: oracle_model.as_oem(
            result, source, root=root, preserve_ids=preserve_ids), twin)
        if isinstance(reference, type):
            assert answer is reference
            return
        assert answer._suspects == set()
        self.members.append((answer, reference))

    # -- writing one member -------------------------------------------------

    @rule(index=SEEDS, seed=SEEDS)
    def create_node(self, index, seed):
        value = random.Random(seed).choice([COMPLEX, 7, "text"])
        node = self.fresh()
        self.step(index, lambda db: db.create_node(node, value))

    @rule(index=SEEDS, seed=SEEDS)
    def update_value(self, index, seed):
        rng = random.Random(seed)
        node = rng.choice(sorted(self.pick(index)[0].nodes()))
        value = rng.choice([COMPLEX, rng.randrange(100)])
        self.step(index, lambda db: db.update_value(node, value))

    @rule(index=SEEDS, seed=SEEDS)
    def add_arc(self, index, seed):
        rng = random.Random(seed)
        nodes = sorted(self.pick(index)[0].nodes())
        arc = (rng.choice(nodes), rng.choice(LABELS), rng.choice(nodes))
        self.step(index, lambda db: db.add_arc(*arc))

    @rule(index=SEEDS, seed=SEEDS)
    def remove_arc(self, index, seed):
        arcs = sorted(self.pick(index)[0].arcs())
        if arcs:
            arc = random.Random(seed).choice(arcs)
            self.step(index, lambda db: db.remove_arc(*arc))

    @rule(index=SEEDS, seed=SEEDS)
    def delete_node(self, index, seed):
        db = self.pick(index)[0]
        nodes = sorted(set(db.nodes()) - {db.root})
        if nodes:
            node = random.Random(seed).choice(nodes)
            self.step(index, lambda db: db._delete_node(node))

    @rule(index=SEEDS)
    def collect_garbage(self, index):
        self.step(index, lambda db: db.collect_garbage())
        assert self.pick(index)[0].collect_garbage() == set()

    @rule(index=SEEDS, seed=SEEDS, collect=st.booleans())
    def apply_change_set(self, index, seed, collect):
        change_set = ChangeSet(self.random_ops(index, seed, 8))
        self.step(index, lambda db: change_set.apply_to(
            db, collect_garbage=collect))

    @rule(index=SEEDS, seed=SEEDS)
    def failing_change_set(self, index, seed):
        """Valid operations, then one whose target does not exist: the
        member is left partial, its relatives untouched."""
        ops = self.random_ops(index, seed, 4)
        ops.append(AddArc(self.pick(index)[0].root, "zz", "no-such-node"))
        self.step(index, lambda db: ChangeSet(ops).apply_to(db))

    @rule(index=SEEDS)
    def mint_identifier(self, index):
        self.step(index, lambda db: db.new_node_id())

    # -- every member, after every step --------------------------------------

    @invariant()
    def every_member_is_its_twin(self):
        for db, twin in self.members:
            assert_same(db, twin)


@both_shares
def test_family_of_copies():
    run_state_machine_as_test(Family, settings=settings(
        max_examples=60, stateful_step_count=40, deadline=None))


@both_shares
def test_clone_and_source_diverge_both_ways():
    """The four orders the family machine draws at random, spelled out."""
    source = random_database(seed=3, nodes=20, extra_arc_ratio=0.5)
    before = deep_copy(source)
    clone = source.copy()
    grandclone = clone.copy()
    clone.add_arc(clone.root, "new", clone.create_node("c1", 1))
    assert source.same_as(before) and grandclone.same_as(before)
    arc = sorted(source.arcs())[0]
    source.remove_arc(*arc)
    assert grandclone.same_as(before)
    assert clone.has_arc(*arc) and not source.has_arc(*arc)
    for db in (source, clone, grandclone):
        db.collect_garbage()
        db.check()


# ---------------------------------------------------------------------------
# (b) collection
# ---------------------------------------------------------------------------

def collected(seed: int, nodes: int = 60) -> OEMDatabase:
    """A random cyclic graph with shared subobjects, collected once."""
    db = random_database(seed=seed, nodes=nodes, extra_arc_ratio=0.6)
    assert db.collect_garbage() == set()
    return db


def assert_collects_like_oracle(db: OEMDatabase) -> None:
    expected = unreachable(db)
    assert db.unreachable_nodes() == expected
    assert db.collect_garbage() == expected
    assert db.collect_garbage() == set()
    db.check()


@both_shares
@settings(max_examples=150, deadline=None)
@given(SEEDS, st.integers(1, 12))
def test_arbitrary_removals(seed, removals):
    rng = random.Random(seed)
    db = collected(seed)
    for _ in range(removals):
        arcs = sorted(db.arcs())
        if arcs:
            db.remove_arc(*rng.choice(arcs))
        assert db.unreachable_nodes() == unreachable(db)
    assert_collects_like_oracle(db)


@both_shares
@settings(max_examples=100, deadline=None)
@given(SEEDS, st.integers(1, 6))
def test_change_sets_on_a_copy(seed, steps):
    """The poll cycle's shape: copy, apply, collect, again."""
    current = collected(seed)
    for step in range(steps):
        change_set = random_change_set(current, seed=seed + step, size=10,
                                       id_prefix=f"s{step}_")
        updated = current.copy()
        change_set.apply_to(updated, collect_garbage=False)
        assert updated.unreachable_nodes() == unreachable(updated)
        assert_collects_like_oracle(updated)
        assert current.unreachable_nodes() == set()
        current = updated


@both_shares
def test_created_and_never_linked():
    db = collected(1)
    db.create_node("orphan", COMPLEX)
    db.create_node("leaf", 1)
    db.add_arc("orphan", "a", "leaf")
    assert_collects_like_oracle(db)
    assert "orphan" not in db and "leaf" not in db


@both_shares
def test_last_arc_into_a_cycle():
    db = OEMDatabase(root="r")
    for node in "abcd":
        db.create_node(node, COMPLEX)
    for arc in [("r", "x", "a"), ("a", "x", "b"), ("b", "x", "c"),
                ("c", "x", "a"), ("r", "y", "d"), ("c", "y", "d")]:
        db.add_arc(*arc)
    db.collect_garbage()
    db.remove_arc("r", "x", "a")
    assert db.unreachable_nodes() == {"a", "b", "c"}
    assert_collects_like_oracle(db)
    assert sorted(db.nodes()) == ["d", "r"] and db.arc_count() == 1


@both_shares
def test_shared_subobject_survives_through_its_other_parent():
    db = OEMDatabase(root="r")
    for node in ("p", "q", "shared", "below"):
        db.create_node(node, COMPLEX)
    for arc in [("r", "x", "p"), ("r", "x", "q"), ("p", "s", "shared"),
                ("q", "s", "shared"), ("shared", "s", "below")]:
        db.add_arc(*arc)
    db.collect_garbage()
    db.remove_arc("p", "s", "shared")
    assert_collects_like_oracle(db)
    assert "below" in db
    db.remove_arc("r", "x", "q")
    assert db.unreachable_nodes() == {"q", "shared", "below"}
    assert_collects_like_oracle(db)


@both_shares
@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_garbage_left_behind_is_collected_two_sets_later(seed):
    db = collected(seed)
    rng = random.Random(seed)
    victim = rng.choice(sorted(set(db.nodes()) - {db.root}))
    ChangeSet([RemArc(*arc) for arc in db.in_arcs(victim)]) \
        .apply_to(db, collect_garbage=False)
    left_behind = unreachable(db)
    assert victim in left_behind
    live = sorted(set(db.nodes()) - left_behind)
    atoms = [node for node in live if db.is_atomic(node)]
    ChangeSet([UpdNode(node, "later") for node in atoms[:1]]) \
        .apply_to(db, collect_garbage=False)
    assert db.unreachable_nodes() == left_behind
    doomed = ChangeSet([CreNode("late", 1), AddArc(db.root, "a", "late")]) \
        .apply_to(db)
    assert doomed == left_behind
    assert_collects_like_oracle(db)


@both_shares
def test_copies_inherit_the_suspects():
    db = collected(5)
    victim = sorted(set(db.nodes()) - {db.root})[0]
    for arc in list(db.in_arcs(victim)):
        db.remove_arc(*arc)
    clone = db.copy()
    assert clone.unreachable_nodes() == unreachable(db) != set()
    assert_collects_like_oracle(clone)
    assert_collects_like_oracle(db)


# ---------------------------------------------------------------------------
# (c) PYTHONHASHSEED does not reach the databases
# ---------------------------------------------------------------------------

HASHSEED_SCRIPT = """
import hashlib
from repro import build_doem, dumps
from repro.sources.generators import (
    random_change_set, random_database, random_history)
digest = hashlib.sha256()
for seed in (2, 7, 18):
    origin = random_database(seed=seed, nodes=60, extra_arc_ratio=0.6)
    current = origin.copy()
    for step in range(6):
        updated = current.copy()
        random_change_set(updated, seed=seed + step, size=12,
                          id_prefix=f"s{step}_").apply_to(updated)
        digest.update(dumps(updated).encode())
        digest.update(repr([list(db.nodes()) + list(db.arcs())
                            + [db.new_node_id()]
                            for db in (current, updated)]).encode())
        current = updated
    doem = build_doem(origin, random_history(origin, seed=seed, steps=6,
                                             set_size=12))
    digest.update(repr(list(doem.graph.nodes())
                       + sorted(doem._dead_nodes)).encode())
print(digest.hexdigest())
"""


def test_databases_identical_across_hash_seeds():
    outputs = set()
    for hash_seed in ("0", "1", "12345"):
        environment = dict(os.environ, PYTHONHASHSEED=hash_seed,
                           PYTHONPATH=os.pathsep.join(
                               [str(ROOT / "src"), str(ROOT)]))
        done = subprocess.run([sys.executable, "-c", HASHSEED_SCRIPT],
                              cwd=ROOT, env=environment, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.add(done.stdout.strip())
    assert len(outputs) == 1, outputs
