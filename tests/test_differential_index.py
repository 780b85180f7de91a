"""Differential harness: the indexed engine is trusted *because* this passes.

The annotation-index pushdown (:class:`repro.IndexedChorelEngine`) and the
checkpoint snapshot cache (:class:`repro.SnapshotCache`) are fast paths
over the same semantics the naive implementations define.  This harness
generates randomized worlds (random OEM database + random valid history,
via :mod:`repro.sources.generators`) and asserts, pair by pair:

* every Chorel query answered by the indexed engine produces exactly the
  rows the naive engine produces -- across well over 200 randomized
  history/query pairs, covering all four annotation kinds, bounded and
  unbounded intervals, literal pins, and deliberately non-indexable
  shapes that must fall back;
* ``Ot(D)`` served by the snapshot cache equals ``Ot(D)`` computed
  directly, for every sampled ``t`` (exact history timestamps, midpoints,
  before-first, after-last, and both infinities), under random access
  orders and a small capacity that forces evictions;
* both equivalences survive *incremental* growth: folding more change
  sets into a live DOEM database must keep the attached index and the
  cache (which drops only what the append can reach) in agreement with
  the naive paths.
"""

from __future__ import annotations

import random

import pytest

from repro import (
    NEG_INF,
    POS_INF,
    AnnotationIndex,
    ChorelEngine,
    IndexedChorelEngine,
    SnapshotCache,
    build_doem,
    random_change_set,
    random_database,
    random_history,
    snapshot_at,
    snapshot_cache,
)
from repro.doem.build import apply_change_set
from repro.sources.generators import LABELS

WORLD_SEEDS = range(20)

# Query templates over the generator's label vocabulary; {low}/{mid}/{high}
# are formatted with timestamps drawn from each world's own history.
QUERY_TEMPLATES = [
    # add / rem arc annotations, bounded and unbounded
    "select root.<add at T>item where T > {mid}",
    "select R, T from root.<add at T>{label} R where T <= {mid}",
    "select root.<add>link",
    "select X, T from root.item.<rem at T>link X",
    "select root.<rem at T>{label} where T > {low} and T <= {high}",
    # cre / upd node annotations
    "select root.item.name<cre at T> where T <= {high}",
    "select N, T from root.{label}.name<cre at T> N where T > {low}",
    "select T, OV, NV from root.item.price<upd at T from OV to NV> "
    "where T > {low}",
    "select root.item.price<upd at T> where T = {mid}",
    # literal pin (degenerate interval pushdown)
    "select root.<add at {mid}>item",
    # shapes the planner must refuse (fallback differential)
    "select root.#.price<upd at T> where T > {mid}",
    "select root.item where root.item.price < 500",
]


def make_world(seed: int, *, nodes: int = 24, steps: int = 4,
               set_size: int = 6):
    db = random_database(seed=seed, nodes=nodes)
    history = random_history(db, seed=seed, steps=steps, set_size=set_size)
    return db, history, build_doem(db, history)


def world_queries(history) -> list[str]:
    times = history.timestamps()
    if not times:
        return []
    low, mid, high = times[0], times[len(times) // 2], times[-1]
    rng = random.Random(hash((str(low), len(times))))
    return [template.format(low=low, mid=mid, high=high,
                            label=rng.choice(LABELS))
            for template in QUERY_TEMPLATES]


def rows(result) -> list[str]:
    return sorted(map(str, result))


class TestEngineDifferential:
    """Indexed vs. naive Chorel over randomized history/query pairs."""

    @pytest.mark.parametrize("seed", WORLD_SEEDS)
    def test_indexed_engine_matches_naive(self, seed):
        _, history, doem = make_world(seed)
        queries = world_queries(history)
        assert queries, "every generated world must produce a history"
        naive = ChorelEngine(doem, name="root")
        indexed = IndexedChorelEngine(doem, name="root")
        for query in queries:
            assert rows(naive.run(query)) == rows(indexed.run(query)), \
                (seed, query)
        # The harness is only meaningful if the fast path actually ran.
        assert indexed.stats.indexed_queries > 0, seed
        assert indexed.stats.fallback_queries > 0, seed

    def test_pair_budget(self):
        """The acceptance floor: >= 200 history/query differential pairs."""
        total = sum(len(world_queries(make_world(seed)[1]))
                    for seed in WORLD_SEEDS)
        assert total >= 200, total

    @pytest.mark.parametrize("seed", [3, 11, 17])
    def test_equivalence_survives_incremental_growth(self, seed):
        """Fold extra change sets into a live engine pair; still identical."""
        _, history, doem = make_world(seed)
        naive = ChorelEngine(doem, name="root")
        indexed = IndexedChorelEngine(doem, name="root")
        queries = world_queries(history)
        reserved = set(doem.graph.nodes())
        when = history.timestamps()[-1]
        from repro import current_snapshot
        for round_number in range(3):
            when = when.plus(days=1)
            change_set = random_change_set(
                current_snapshot(doem), seed=seed * 97 + round_number,
                size=5, id_prefix=f"x{round_number}_", reserved_ids=reserved)
            if change_set:
                apply_change_set(doem, when, change_set)
                reserved.update(change_set.created_nodes())
            for query in queries:
                assert rows(naive.run(query)) == rows(indexed.run(query)), \
                    (seed, round_number, query)

    @pytest.mark.parametrize("seed", [2, 9])
    def test_live_index_matches_rebuilt(self, seed):
        """Incremental inserts == from-scratch rebuild, per kind."""
        _, history, doem = make_world(seed)
        indexed = IndexedChorelEngine(doem, name="root")
        when = history.timestamps()[-1].plus(days=1)
        from repro import current_snapshot
        change_set = random_change_set(current_snapshot(doem),
                                      seed=seed + 1, size=8, id_prefix="y_",
                                      reserved_ids=set(doem.graph.nodes()))
        apply_change_set(doem, when, change_set)
        rebuilt = AnnotationIndex(doem)
        for kind in ("cre", "upd", "add", "rem"):
            assert sorted(str(entry) for entry
                          in indexed.index.between(kind)) == \
                sorted(str(entry) for entry in rebuilt.between(kind)), kind


class TestSnapshotCacheDifferential:
    """Cached Ot(D) vs. direct Ot(D) for every sampled t."""

    @staticmethod
    def sample_times(history) -> list[object]:
        times = history.timestamps()
        samples = [NEG_INF, POS_INF, times[0].plus(hours=-1),
                   times[-1].plus(days=2)]
        samples.extend(times)
        samples.extend(when.plus(hours=7) for when in times)
        return samples

    @pytest.mark.parametrize("seed", WORLD_SEEDS)
    def test_cached_equals_direct(self, seed):
        _, history, doem = make_world(seed)
        cache = SnapshotCache(doem, capacity=3)  # small: force evictions
        samples = self.sample_times(history)
        random.Random(seed).shuffle(samples)
        for when in samples:
            assert cache.snapshot_at(when).same_as(
                snapshot_at(doem, when)), (seed, when)
        stats = cache.stats
        assert stats.lookups == len(samples)
        assert stats.exact_hits + stats.incremental + stats.full \
            == stats.lookups

    @pytest.mark.parametrize("seed", [1, 8, 15])
    def test_cache_invalidates_on_growth(self, seed):
        """Growth at ``when`` invalidates the checkpoints at or after it
        and keeps the earlier ones (Ot(D) for t < when cannot change):
        the database's own cache, which hears of the growth."""
        _, history, doem = make_world(seed)
        cache = snapshot_cache(doem)
        cache.capacity = 4
        last = history.timestamps()[-1]
        for probe in (last, POS_INF):
            assert cache.snapshot_at(probe).same_as(snapshot_at(doem, probe))
        from repro import current_snapshot
        change_set = random_change_set(current_snapshot(doem),
                                      seed=seed + 5, size=4, id_prefix="z_",
                                      reserved_ids=set(doem.graph.nodes()))
        assert change_set
        when = last.plus(days=1)
        apply_change_set(doem, when, change_set)
        assert cache.stats.invalidations == 1  # the POS_INF checkpoint
        exact_hits = cache.stats.exact_hits
        for probe in (last, when, POS_INF):
            assert cache.snapshot_at(probe).same_as(
                snapshot_at(doem, probe)), (seed, probe)
        assert cache.stats.exact_hits == exact_hits + 1  # `last` survived
        assert cache.stats.invalidations == 1

    def test_returned_snapshots_are_isolated(self):
        """Mutating a served snapshot must not poison the cache."""
        _, history, doem = make_world(0)
        cache = SnapshotCache(doem, capacity=4)
        when = history.timestamps()[0]
        first = cache.snapshot_at(when)
        first._values[first.root] = "corrupted"
        again = cache.snapshot_at(when)
        assert again.same_as(snapshot_at(doem, when))

    def test_incremental_path_actually_used(self):
        """Ascending probes reuse the previous checkpoint, not O0 replay."""
        _, history, doem = make_world(4, steps=6)
        cache = SnapshotCache(doem, capacity=8)
        for when in history.timestamps():
            assert cache.snapshot_at(when).same_as(snapshot_at(doem, when))
        assert cache.stats.full == 1          # only the first probe
        assert cache.stats.incremental >= 4
        # each incremental step replays exactly the one new change set
        assert cache.stats.replayed_sets == cache.stats.incremental
