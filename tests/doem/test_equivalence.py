"""The liveness a DOEM database keeps between change sets is the full
walk's answer.

``oracle_build.py`` holds the walk ``repro.doem.build`` used to run
around every set.  Three parts: (a) after every set of a history the
kept dead-node set equals the oracle's, and the database built is the
oracle-built one; (b) whatever moves the database behind the applier's
back -- an annotation from outside, ``decode``, a copy, a failed set --
makes the next set start from the full walk and agree again, and
``compact`` (a ``build_doem``) keeps the walk's set or none; (c) the newest annotation time the database keeps is
``timestamps()[-1]``; (d) ``live_children`` read by label from the
adjacency yields the pairs, in the order, of the per-arc loop the oracle
keeps.  (a) and (b) run with the production ``FULL_WALK_SHARE`` and with
1, where only the suspect rule is left.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    COMPLEX, AddArc, ChangeSet, CreNode, DOEMDatabase, OEMDatabase, RemArc,
    UpdNode, build_doem, compact, current_snapshot, decode_doem, encode_doem,
    parse_timestamp)
from repro.doem import model as doem_model
from repro.doem.annotations import Add, Rem, sort_key
from repro.doem.build import DOEMApplier, apply_change_set
from repro.errors import InvalidChangeError, ReproError
from repro.lorel.views import DOEMView
from repro.oem import model
from repro.sources.generators import (
    large_database, large_history, random_change_set, random_database,
    random_history)
from repro.store import ChangeLogStore
from repro.timestamps import NEG_INF, POS_INF

from . import oracle_build as oracle

SEEDS = st.integers(0, 10 ** 6)


@pytest.fixture(params=[model.FULL_WALK_SHARE, 1],
                ids=["production-share", "never-fall-back"])
def full_walk_share(request, monkeypatch):
    monkeypatch.setattr(model, "FULL_WALK_SHARE", request.param)


def assert_liveness_kept(doem: DOEMDatabase) -> None:
    assert doem._dead_as_of == doem.fingerprint()
    assert doem._dead_nodes == oracle.dead_nodes(doem)


def fold_checked(origin: OEMDatabase, history) -> DOEMDatabase:
    """``build_doem`` set by set, the kept liveness checked after each."""
    doem = DOEMDatabase(origin.copy())
    applier = DOEMApplier(doem)
    for when, change_set in history:
        applier.apply(when, change_set)
        assert_liveness_kept(doem)
    return doem


def next_set(doem: DOEMDatabase, seed: int) -> ChangeSet:
    """A random change set valid for the database's current snapshot."""
    return random_change_set(current_snapshot(doem), seed=seed, size=8,
                             id_prefix=f"n{seed}_",
                             reserved_ids=doem.graph.nodes())


# ---------------------------------------------------------------------------
# (a) set by set
# ---------------------------------------------------------------------------

both_shares = pytest.mark.usefixtures("full_walk_share")


@both_shares
@settings(max_examples=120, deadline=None)
@given(SEEDS, st.sampled_from([10, 30, 80]), st.integers(1, 10))
def test_random_histories(seed, nodes, steps):
    origin = random_database(seed=seed, nodes=nodes, extra_arc_ratio=0.5)
    history = random_history(origin, seed=seed, steps=steps, set_size=10)
    doem = fold_checked(origin, history)
    assert doem.same_as(oracle.build_doem(origin, history))
    assert build_doem(origin, history).same_as(doem)


@both_shares
def test_large_history():
    origin = large_database(seed=1, items=300, extra_links=60)
    history = large_history(origin, seed=1, steps=8, churn=120)
    assert fold_checked(origin, history).same_as(
        oracle.build_doem(origin, history))


@both_shares
def test_removals_and_readditions():
    """A shared child loses one parent, regains it, loses both; a cycle
    is cut off; a node is created and never linked."""
    graph = OEMDatabase(root="r")
    for node in ("p", "q", "c", "below", "x", "y"):
        graph.create_node(node, COMPLEX)
    for arc in [("r", "k", "p"), ("r", "k", "q"), ("p", "s", "c"),
                ("q", "s", "c"), ("c", "s", "below"), ("r", "k", "x"),
                ("x", "n", "y"), ("y", "n", "x")]:
        graph.add_arc(*arc)
    doem = DOEMDatabase(graph)
    steps = [
        ([RemArc("p", "s", "c")], set()),
        ([AddArc("p", "s", "c"), CreNode("stray", 1)], {"stray"}),
        ([RemArc("q", "s", "c")], {"stray"}),
        ([RemArc("p", "s", "c"), RemArc("r", "k", "x")],
         {"stray", "c", "below", "x", "y"}),
    ]
    for day, (ops, dead) in enumerate(steps, start=1):
        apply_change_set(doem, f"{day}Jan97", ops)
        assert_liveness_kept(doem)
        assert doem._dead_nodes == dead
    with pytest.raises(InvalidChangeError):
        apply_change_set(doem, "9Jan97", [AddArc("r", "k", "c")])


# ---------------------------------------------------------------------------
# (b) moved behind the applier's back
# ---------------------------------------------------------------------------

def world(seed: int):
    origin = random_database(seed=seed, nodes=40, extra_arc_ratio=0.5)
    history = random_history(origin, seed=seed, steps=5, set_size=10)
    return origin, history, build_doem(origin, history)


def assert_next_set_agrees(doem: DOEMDatabase, seed: int) -> None:
    twin = doem.copy()
    change_set = next_set(doem, seed)
    when = doem.last_timestamp().plus(days=1) if doem.last_timestamp() \
        else parse_timestamp("1Jan97")
    apply_change_set(doem, when, change_set)
    assert_liveness_kept(doem)
    oracle.FullWalkApplier(twin).apply(when, change_set)
    assert doem.same_as(twin)


@both_shares
@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_annotated_from_outside(seed):
    _, _, doem = world(seed)
    kept = doem._dead_as_of
    rng = random.Random(seed)
    live = sorted(set(doem.graph.nodes()) - doem._dead_nodes)
    source = rng.choice([n for n in live if doem.graph.is_complex(n)])
    target = rng.choice(live)
    if not doem.graph.has_arc(source, "outside", target):
        doem.graph.add_arc(source, "outside", target)
    doem.annotate_arc(source, "outside", target,
                      Add(doem.last_timestamp().plus(hours=1)))
    assert doem._dead_as_of == kept != doem.fingerprint()
    assert_next_set_agrees(doem, seed)


@both_shares
@settings(max_examples=40, deadline=None)
@given(SEEDS, st.integers(0, 5))
def test_after_compact(seed, keep):
    _, history, doem = world(seed)
    times = history.timestamps()
    compacted = compact(doem, times[min(keep, len(times) - 1)])
    # Compaction is build_doem: when later sets ran through the applier,
    # the dead-node set they kept is the full walk's.
    if compacted._dead_as_of == compacted.fingerprint():
        assert compacted._dead_nodes == oracle.dead_nodes(compacted)
    assert_next_set_agrees(compacted, seed)


@both_shares
@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_after_decode(seed):
    _, _, doem = world(seed)
    decoded = decode_doem(encode_doem(doem))
    assert decoded._dead_as_of != decoded.fingerprint()
    assert_next_set_agrees(decoded, seed)


@both_shares
@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_copy_and_failed_set(seed):
    _, _, doem = world(seed)
    clone = doem.copy()
    assert clone.same_as(doem)
    ops = list(next_set(doem, seed)) + [UpdNode("no-such-node", 1)]
    with pytest.raises(InvalidChangeError):
        apply_change_set(doem, doem.last_timestamp().plus(days=1), ops)
    assert doem._dead_as_of != doem.fingerprint() or len(ops) == 1
    assert_next_set_agrees(clone, seed)
    # The half-applied database is no valid history's; its liveness is
    # still the walk's.
    DOEMApplier(doem)._mark_dead_nodes()
    assert_liveness_kept(doem)


# ---------------------------------------------------------------------------
# (c) the newest annotation time
# ---------------------------------------------------------------------------

def assert_last_timestamp(doem: DOEMDatabase) -> None:
    times = doem.timestamps()
    assert doem.last_timestamp() == (times[-1] if times else None)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, steps=st.integers(0, 6))
def test_last_timestamp(seed, steps, tmp_path_factory):
    origin = random_database(seed=seed, nodes=25, extra_arc_ratio=0.3)
    history = random_history(origin, seed=seed, steps=steps, set_size=6)
    doem = build_doem(origin, history)
    assert_last_timestamp(DOEMDatabase(origin.copy()))
    assert_last_timestamp(doem)
    assert_last_timestamp(doem.copy())
    assert_last_timestamp(decode_doem(encode_doem(doem)))
    for when in history.timestamps():
        assert_last_timestamp(compact(doem, when))
    path = tmp_path_factory.mktemp("store")
    with ChangeLogStore(path) as store:
        store.put_history("h", origin, history)
    with ChangeLogStore(path, mode="ro") as store:
        restarted = store.get_doem("h")
    assert restarted.last_timestamp() == doem.last_timestamp()
    assert_last_timestamp(restarted)


def test_last_timestamp_of_out_of_order_annotations():
    doem = DOEMDatabase(OEMDatabase(root="r"))
    doem.graph.create_node("a", COMPLEX)
    doem.graph.add_arc("r", "k", "a")
    doem.annotate_arc("r", "k", "a", Add(parse_timestamp("5Jan97")))
    doem.annotate_arc("r", "k", "a", Add(parse_timestamp("2Jan97")))
    assert doem.last_timestamp() == parse_timestamp("5Jan97")
    assert_last_timestamp(doem)


# ---------------------------------------------------------------------------
# (d) live_children, read by label
# ---------------------------------------------------------------------------

def flickering(seed: int) -> DOEMDatabase:
    """A random cyclic graph whose arcs were removed and re-added at will:
    original arcs (first annotation a ``rem``, or none at all) and arcs
    added later (first an ``add``), one to four annotations each."""
    rng = random.Random(seed)
    doem = DOEMDatabase(random_database(seed=seed, nodes=25,
                                        extra_arc_ratio=0.8))
    for arc in sorted(doem.graph.arcs()):
        if rng.random() < 0.4:
            continue
        kinds = [Add, Rem] if rng.random() < 0.5 else [Rem, Add]
        day = rng.randrange(1, 4)
        for index in range(rng.randrange(1, 5)):
            doem.annotate_arc(*arc, kinds[index % 2](f"{day}Jan97"))
            day += rng.randrange(1, 3)
    return doem


def listed(children, *args):
    try:
        return list(children(*args))
    except ReproError as exc:
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_live_children_is_the_per_arc_loop(seed):
    doem = flickering(seed)
    times = [NEG_INF, POS_INF, "2Jan97", parse_timestamp("1Jan97").ticks]
    for when in doem.timestamps():     # before, at and after every one
        times += [when.plus(seconds=-1), when, when.plus(seconds=1)]
    labels = [None, "zz", *sorted({arc.label for arc in doem.graph.arcs()})]
    for node in [*sorted(doem.graph.nodes()), "no-such-node"]:
        for label in labels:
            for when in times:
                assert listed(doem.live_children, node, when, label) == \
                    listed(oracle.live_children, doem, node, when, label), \
                    (node, when, label)


def test_live_children_on_a_folded_history():
    """... and on what the applier builds, dead arcs on atomic nodes and all."""
    origin, history, doem = world(7)
    assert any(first and isinstance(first[0], Rem)
               for _, first in doem.annotated_arcs())
    for node in doem.graph.nodes():
        for when in [*doem.timestamps(), POS_INF, NEG_INF]:
            assert list(doem.live_children(node, when)) == \
                list(oracle.live_children(doem, node, when))
    assert listed(doem.live_children, "root", "not a time") is \
        listed(oracle.live_children, doem, "root", "not a time")


# ---------------------------------------------------------------------------
# (e) the current view's O(1) liveness read
# ---------------------------------------------------------------------------

DRAWN_ARCS = st.lists(st.tuples(st.sampled_from([Add, Rem]),
                                st.integers(0, 5)), max_size=6)


@settings(max_examples=300, deadline=None)
@given(DRAWN_ARCS)
def test_the_current_liveness_read_is_the_walk(drawn):
    """At ``POS_INF`` only the last annotation decides, so the one-read
    test equals the full walk there; every finite cutoff still walks."""
    first = parse_timestamp("1Jan97")
    annotations = sorted((kind(first.plus(days=day)) for kind, day in drawn),
                         key=sort_key)
    assert doem_model.live_now(annotations) is \
        oracle.arc_live_at(annotations, POS_INF)
    cutoffs = [NEG_INF, POS_INF, first.plus(days=-1)]
    for annotation in annotations:
        cutoffs += [annotation.at.plus(seconds=-1), annotation.at,
                    annotation.at.plus(seconds=1)]
    for cutoff in cutoffs:
        assert doem_model._live_at(annotations, cutoff) is \
            oracle.arc_live_at(annotations, cutoff), cutoff


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_current_readers_are_the_walk(seed):
    """``live_parents``, ``live_nodes`` and the view's ``child_values``
    read liveness at ``POS_INF`` as the per-arc loop does."""
    doem = flickering(seed)
    nodes = sorted(doem.graph.nodes())
    now = {node: list(oracle.live_children(doem, node, POS_INF))
           for node in nodes}
    reached, frontier = {doem.graph.root}, [doem.graph.root]
    while frontier:
        for _, child in now[frontier.pop()]:
            if child not in reached:
                reached.add(child)
                frontier.append(child)
    assert doem.live_nodes() == reached
    view = DOEMView(doem)
    for label in sorted({arc.label for arc in doem.graph.arcs()}):
        for node in nodes:
            assert sorted(doem.live_parents(node, label)) == sorted(
                parent for parent in nodes
                if (label, node) in now[parent])
        expected = [(position, doem.graph.value(child))
                    for position, node in enumerate(nodes)
                    if doem.graph.value(node) is COMPLEX
                    for name, child in now[node] if name == label]
        assert view.child_values(nodes, label) == expected
