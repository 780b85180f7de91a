"""What an append can reach is all it invalidates.

Section 3.2 builds ``Ot(D)`` from the annotations at or before ``t``, so
a change set folded in at ``ta``, later than all history, cannot change
any ``Ot(D)`` with ``t < ta``; and a label-path set over live arcs
depends only on arcs with its own labels.  ``DOEMApplier.apply`` tells
the database's listeners about such an append (fingerprint before and
after, the time, the set): ``SnapshotCache`` then drops only the
checkpoints at ``t >= ta`` and ``PathIndex`` only the paths through a
label the set adds or removes.  Anything else that moves the database
-- ``touch()``, a raw graph edit, an out-of-order set, its contents
swapped for a compacted or decoded form -- still drops everything.

The differential part interleaves appends with lookups at random times
(the infinities and the append instants included) over the worlds of
``tests/test_differential_index.py`` and compares, after every step,
the cache against :func:`snapshot_at` and the engine's path index
against a fresh one.
"""

from __future__ import annotations

import random

import pytest

from repro import (
    NEG_INF, POS_INF, AddArc, IndexedChorelEngine, PathIndex, RemArc,
    SnapshotCache, compact, current_snapshot, decode_doem, encode_doem,
    random_change_set, snapshot_at)
from repro.doem.build import apply_change_set
from repro.errors import DOEMError

from repro.sources.generators import LABELS

from ..test_differential_index import WORLD_SEEDS, make_world, world_queries

# The world's queries ask single labels; these reach deeper.
DEEP_PATHS = [(first, second) for first in LABELS for second in LABELS] \
    + [("item", "link", "name"), ("a", "b", "c")]


def next_set(doem, seed, prefix):
    """A valid, non-empty change set for the current snapshot."""
    for attempt in range(20):
        change_set = random_change_set(
            current_snapshot(doem), seed=seed * 31 + attempt, size=5,
            id_prefix=f"{prefix}{attempt}_",
            reserved_ids=set(doem.graph.nodes()))
        if change_set:
            return change_set
    raise AssertionError("no non-empty change set found")


def assert_cache_exact(cache, doem, times):
    for when in times:
        assert cache.snapshot_at(when).same_as(snapshot_at(doem, when)), when


def assert_paths_exact(paths, doem, used):
    fresh = PathIndex(doem)
    for path in used:
        assert paths.nodes(path) == fresh.nodes(path), path


class TestAppendKeepsWhatItCannotReach:

    @pytest.mark.parametrize("seed", [1, 8, 15])
    def test_earlier_checkpoints_survive(self, seed):
        _, history, doem = make_world(seed)
        cache = SnapshotCache(doem, capacity=8)
        times = history.timestamps()
        when = times[-1].plus(days=1)
        before = [NEG_INF, times[0], times[-1]]
        at_or_after = [when, when.plus(hours=3), POS_INF]
        assert_cache_exact(cache, doem, before + at_or_after)
        apply_change_set(doem, when, next_set(doem, seed, "a"))
        assert cache.stats.invalidations == len(at_or_after)
        assert len(cache) == len(before)
        hits = cache.stats.exact_hits
        assert_cache_exact(cache, doem, before)
        assert cache.stats.exact_hits == hits + len(before)
        # Recomputed, from the surviving checkpoint at times[-1]:
        incremental = cache.stats.incremental
        assert_cache_exact(cache, doem, at_or_after)
        assert cache.stats.incremental == incremental + len(at_or_after)
        assert cache.stats.exact_hits == hits + len(before)

    def test_history_is_extended_not_rederived(self, monkeypatch):
        _, history, doem = make_world(4)
        cache = SnapshotCache(doem, capacity=4)
        times = history.timestamps()
        assert_cache_exact(cache, doem, [times[0], POS_INF])
        derived = cache._history
        assert derived is not None

        import repro.doem.extract as extract

        def refuse(_doem):
            raise AssertionError("encoded_history re-derived after append")
        monkeypatch.setattr(extract, "encoded_history", refuse)
        when = times[-1]
        for step in range(3):
            when = when.plus(days=1)
            apply_change_set(doem, when, next_set(doem, step, f"h{step}"))
            assert_cache_exact(cache, doem, [when, POS_INF])
        assert cache._history is derived

    def test_append_at_infinity_does_not_fail_the_fold(self):
        """``OEMHistory`` holds finite times only: an append at ``POS_INF``
        drops the cache's extended history instead of raising out of
        ``apply`` with the set half-noticed."""
        _, history, doem = make_world(2)
        cache = SnapshotCache(doem, capacity=4)
        times = history.timestamps()[:2]
        assert_cache_exact(cache, doem, times)
        assert cache._history is not None
        apply_change_set(doem, POS_INF, next_set(doem, 2, "inf"))
        assert cache._history is None
        hits = cache.stats.exact_hits
        assert_cache_exact(cache, doem, times)
        assert cache.stats.exact_hits == hits + len(times)

    def test_untouched_paths_survive(self):
        _, _, doem = make_world(6)
        engine = IndexedChorelEngine(doem, name="root")
        paths = engine.paths
        for path in [("item",), ("item", "name"), ("item", "price"),
                     ("item", "link")]:
            paths.nodes(path)
        change_set = next_set(doem, 6, "p")
        touched = {op.label for op in change_set
                   if isinstance(op, (AddArc, RemArc))}
        kept = [path for path in paths._memo if touched.isdisjoint(path)]
        assert 1 < len(kept) < len(paths._memo)
        apply_change_set(doem, doem.last_timestamp().plus(days=1),
                         change_set)
        assert sorted(paths._memo) == sorted(kept)
        assert paths.stats.rebuilds == 1
        assert_paths_exact(paths, doem, [("item",), ("item", "name"),
                                         ("item", "price"), ("item", "link")])
        assert paths.stats.rebuilds == 1


def arc_free_label(doem):
    used = {label for node in doem.graph.nodes()
            for label in doem.graph.out_labels(node)}
    label = "zz"
    while label in used:
        label += "z"
    return label


def raw_edit(doem):
    """An unannotated arc from the root: live at every time."""
    target = next(node for node in doem.graph.nodes()
                  if node != doem.graph.root)
    doem.graph.add_arc(doem.graph.root, arc_free_label(doem), target)


def swap_for(doem, other):
    """Replace the database's contents in place, listeners kept."""
    listeners = doem._listeners
    doem.__dict__.update(other.__dict__)
    doem._listeners = listeners


def compacted(doem):
    swap_for(doem, compact(doem, doem.timestamps()[1]))


def decoded(doem):
    swap_for(doem, decode_doem(encode_doem(doem)))


class TestEverythingElseWipes:
    """Each of these moves the database outside a tracked append; the
    next lookup must drop every checkpoint and the whole path memo --
    also when a tracked append follows before that lookup."""

    @pytest.mark.parametrize("move", [
        pytest.param(lambda doem: doem.touch(), id="touch"),
        pytest.param(raw_edit, id="raw-graph-edit"),
        pytest.param(compacted, id="compact"),
        pytest.param(decoded, id="decode"),
    ])
    @pytest.mark.parametrize("then_append", [False, True],
                             ids=["alone", "then-append"])
    def test_untracked_move_clears_everything(self, move, then_append):
        _, history, doem = make_world(3)
        label = arc_free_label(doem)
        cache = SnapshotCache(doem, capacity=8)
        paths = PathIndex(doem)
        times = history.timestamps()
        probes = [NEG_INF, times[0], times[-1]]
        used = [("item",), ("item", "name"), (label,)]
        assert_cache_exact(cache, doem, probes)
        assert_paths_exact(paths, doem, used)
        fingerprint = doem.fingerprint()
        move(doem)
        assert doem.fingerprint() != fingerprint
        if then_append:
            apply_change_set(doem, doem.last_timestamp().plus(days=1),
                             next_set(doem, 3, "w"))
        exact = cache.stats.exact_hits
        assert_cache_exact(cache, doem, probes)
        assert cache.stats.exact_hits == exact
        assert cache.stats.invalidations == len(probes)
        assert_paths_exact(paths, doem, used)
        assert paths.stats.rebuilds == 2

    def test_out_of_order_append_clears_everything(self):
        _, history, doem = make_world(5, steps=5)
        times = history.timestamps()
        cache = SnapshotCache(doem, capacity=8)
        paths = PathIndex(doem)
        probes = [NEG_INF, times[0], times[-1], POS_INF]
        used = [("item",), ("item", "link"), ("item", "name")]
        assert_cache_exact(cache, doem, probes)
        assert_paths_exact(paths, doem, used)
        # A set at the newest time already held: later than nothing.
        change_set = next_set(doem, 5, "o")
        apply_change_set(doem, times[-1], change_set)
        exact = cache.stats.exact_hits
        assert_cache_exact(cache, doem, probes)
        assert cache.stats.exact_hits == exact
        assert cache.stats.invalidations == len(probes)
        assert_paths_exact(paths, doem, used)
        assert paths.stats.rebuilds == 2


class TestAppendDifferential:

    @pytest.mark.parametrize("seed", WORLD_SEEDS)
    def test_interleaved_appends_and_lookups(self, seed):
        rng = random.Random(seed)
        _, history, doem = make_world(seed)
        queries = world_queries(history)
        cache = SnapshotCache(doem, capacity=4)
        engine = IndexedChorelEngine(doem, name="root")
        times = history.timestamps()
        appends = [times[-1].plus(days=day) for day in range(1, 5)]
        pool = [NEG_INF, POS_INF, *times, *appends,
                *(when.plus(hours=5) for when in times + appends)]
        used: set[tuple[str, ...]] = set()
        for step, when in enumerate(appends):
            for probe in rng.sample(pool, 5):
                assert cache.snapshot_at(probe).same_as(
                    snapshot_at(doem, probe)), (seed, step, probe)
            for query in queries:
                engine.run(query)
            for path in DEEP_PATHS:
                engine.paths.nodes(path)
            used.update(engine.paths._memo)
            # A checkpoint at the append instant itself must not survive.
            assert cache.snapshot_at(when).same_as(snapshot_at(doem, when))
            apply_change_set(doem, when,
                             next_set(doem, seed + step, f"d{step}"))
            assert_paths_exact(engine.paths, doem, sorted(used))
            for probe in [*pool, *rng.sample(pool, 3)]:
                assert cache.snapshot_at(probe).same_as(
                    snapshot_at(doem, probe)), (seed, step, probe)
        assert any(len(path) == 1 for path in used), seed
        assert cache.stats.exact_hits > 0, seed


def test_capacity_below_one_is_a_repro_error():
    _, _, doem = make_world(0)
    with pytest.raises(DOEMError):
        SnapshotCache(doem, capacity=0)
