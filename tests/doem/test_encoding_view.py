"""The Section 5.1 encoding read as a view equals the encoding built.

:class:`~repro.doem.encoding.EncodingView` answers from the DOEM's own
records; :func:`~repro.doem.encoding.encode_doem` materialises the same
encoding as a second database and is the oracle.  The view's derived ids
differ from the oracle's generated ones, so the comparison walks both
from the root, pairing ids as it goes: every object reached must have
the same value, the same labels and the same children by label, in the
same order, and the pairing must be one to one and cover the oracle.

A view is the encoding as of its ``tau``: after more change sets are
folded in, an old view still equals the encoding of the database built
from the history up to ``tau``.
"""

from __future__ import annotations

import gc
import random
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    COMPLEX,
    AddArc,
    ChangeSet,
    CreNode,
    OEMDatabase,
    RemArc,
    TranslatingChorelEngine,
    UpdNode,
    build_doem,
    compact,
    encode_doem,
    large_world,
    random_database,
    random_history,
)
from repro.doem.build import apply_change_set, empty_doem
from repro.doem.encoding import EncodingView
from repro.errors import ReproError
from repro.lorel.views import OEMView
from repro.timestamps import NEG_INF, POS_INF, parse_timestamp


def assert_view_is_encoding(view: EncodingView, encoded) -> dict:
    """Walk ``view`` and ``encoded.oem`` in step; returns the pairing
    (oracle id -> view id)."""
    oem = encoded.oem
    root = view.doem.graph.root
    pairing, back = {oem.root: root}, {root: oem.root}
    queue = [oem.root]
    while queue:
        built = queue.pop()
        seen = pairing[built]
        assert view.has_node(seen), seen
        assert view.value(seen) == oem.value(built), (seen, built)
        labels = list(oem.out_labels(built))
        assert view.labels(seen) == labels, (seen, built)
        for label in labels:
            children = view.children(seen, label)
            expected = list(oem.children(built, label))
            assert len(children) == len(expected), (seen, label)
            assert [value for _, value in view.child_values([seen], label)] \
                == [oem.value(child) for child in expected]
            for child, oracle in zip(children, expected):
                # Encoding objects keep their ids; derived ones never
                # take a DOEM identifier.
                if type(child) is str:
                    assert child == oracle
                else:
                    assert oracle not in encoded.object_ids
                if oracle in pairing:
                    assert pairing[oracle] == child, (oracle, child)
                else:
                    assert child not in back, (child, oracle)
                    pairing[oracle] = child
                    back[child] = oracle
                    queue.append(oracle)
    assert len(pairing) == len(oem)
    built_view = OEMView(oem)
    for built, seen in pairing.items():
        for label in oem.out_labels(built):
            for child in oem.children(built, label):
                assert {back[parent] for parent
                        in view.parents(pairing[child], label)} \
                    == set(built_view.parents(child, label))
    for label, column in encoded.time_columns.items():
        for low, high in ((NEG_INF, POS_INF), *_windows(column)):
            expected = column.between(low, high, False, True)
            found = view.time_columns[label].between(low, high, False, True)
            assert sorted((str(when), str(back[atom])) for when, atom in found) \
                == sorted((str(when), str(atom)) for when, atom in expected)
    return pairing


def _windows(column):
    whens = sorted(set(column.whens))
    return [(whens[index - 1], whens[index])
            for index in range(1, len(whens), max(1, len(whens) // 3))]


def hostile_history(origin: OEMDatabase, seed: int, steps: int):
    """A random history, then sets that remove and re-add an arc, make an
    atom complex, and orphan a node (its id stays in the DOEM)."""
    history = random_history(origin, seed=seed, steps=steps, set_size=8)
    current = history.apply_to(origin.copy())
    rng = random.Random(seed)
    times = history.timestamps()
    when = times[-1].plus(days=1) if times else parse_timestamp("1Jan97")

    def shared_arcs():
        return [arc for arc in current.arcs()
                if sum(1 for _ in current.in_arcs(arc.target)) > 1]

    def attempt(ops):
        nonlocal current, when
        change_set, applied = ChangeSet(ops), current.copy()
        try:
            change_set.apply_to(applied)
        except ReproError:  # the arc's target went with the removal
            return
        history.append(when, change_set)
        current, when = applied, when.plus(days=1)

    arcs = shared_arcs()
    if arcs:
        arc = rng.choice(arcs)
        attempt([RemArc(*arc)])
        attempt([AddArc(*arc)])
    atoms = sorted(node for node in current.nodes()
                   if not current.is_complex(node))
    if atoms:
        atom = rng.choice(atoms)
        attempt([UpdNode(atom, COMPLEX), CreNode(f"z{seed}", 7),
                 AddArc(atom, "part", f"z{seed}")])
    victims = sorted(node for node in current.nodes()
                     if node != current.root)
    if victims:
        victim = rng.choice(victims)
        attempt([RemArc(*arc) for arc in current.in_arcs(victim)])
    return history


SEEDS = st.integers(0, 10 ** 6)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(SEEDS, st.sampled_from([6, 15, 30]), st.integers(0, 6))
def test_view_is_the_encoding(seed, nodes, steps):
    origin = random_database(seed=seed, nodes=nodes)
    history = hostile_history(origin, seed, steps)
    doem = build_doem(origin, history)
    assert_view_is_encoding(EncodingView(doem), encode_doem(doem))
    times = history.timestamps()
    if len(times) > 2:
        compacted = compact(doem, times[len(times) // 2])
        assert_view_is_encoding(EncodingView(compacted),
                                encode_doem(compacted))


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(SEEDS, st.integers(1, 6), st.data())
def test_an_old_view_keeps_its_time(seed, steps, data):
    origin = random_database(seed=seed, nodes=15)
    history = hostile_history(origin, seed, steps)
    times = history.timestamps()
    cut = data.draw(st.integers(0, len(times) - 1))
    doem = build_doem(origin, history.prefix(times[cut]))
    view = EncodingView(doem)
    assert view.tau == times[cut]
    for when, change_set in history.entries()[cut + 1:]:
        apply_change_set(doem, when, change_set)
    assert_view_is_encoding(
        view, encode_doem(build_doem(origin, history.prefix(times[cut]))))
    assert_view_is_encoding(EncodingView(doem), encode_doem(doem))


def test_a_doem_without_history_is_viewed_at_infinity():
    origin = random_database(seed=3, nodes=20)
    doem = empty_doem(origin)
    view = EncodingView(doem)
    assert view.tau is POS_INF
    assert_view_is_encoding(view, encode_doem(doem))


def test_orphans_hang_off_the_root(guide_doem):
    """A node created and never linked is reached through ``&orphan``;
    an old view, made before it, has no orphan."""
    before = EncodingView(guide_doem)
    apply_change_set(guide_doem, "9Jan97", [CreNode("stray", 1)])
    view = EncodingView(guide_doem)
    assert_view_is_encoding(view, encode_doem(guide_doem))
    assert view.children("guide", "&orphan") == ["stray"]
    assert view.labels("guide")[-1] == "&orphan"
    assert view.parents("stray", "&orphan") == ["guide"]
    assert before.children("guide", "&orphan") == []
    assert "&orphan" not in before.labels("guide")
    assert not before.has_node("stray")


def test_the_view_is_built_lazily():
    """A view costs nothing until read; the orphan walk is made once."""
    _, _, doem = large_world(seed=0, items=200, steps=4, churn=40)
    view = EncodingView(doem)
    assert view._orphans is None
    view.children(doem.graph.root, "item")
    assert view._orphans is None
    first = view.children(doem.graph.root, "&orphan")
    assert view._orphans is not None
    assert view.children(doem.graph.root, "&orphan") == first


def test_the_engine_keeps_no_encoding():
    """A translating engine over a 12-step ``large_world`` keeps under
    half a megabyte (the materialised encoding kept 18 MB).  The DOEM's
    own timestamp index is made before the count: every indexed engine
    over the database shares it."""
    _, history, doem = large_world(seed=0, items=1000, steps=12, churn=200)
    doem.timestamp_index()
    times = history.timestamps()
    query = (f"select root.item.price<upd at T> "
             f"where T > {times[4]} and T <= {times[5]}")
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        engine = TranslatingChorelEngine(doem, name="root")
        assert engine.run(query)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= 512 * 1024, kept
    del engine


@pytest.mark.parametrize("seed", [0, 1])
def test_the_large_world_view_is_the_encoding(seed):
    _, _, doem = large_world(seed=seed, items=120, steps=5, churn=40)
    assert_view_is_encoding(EncodingView(doem), encode_doem(doem))
