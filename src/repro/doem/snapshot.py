"""Snapshot extraction from a DOEM database (Section 3.2).

A DOEM database represents an entire history; three extraction functions
recover individual states:

* :func:`original_snapshot` -- ``O0(D)``, the state before the first
  change set;
* :func:`snapshot_at` -- ``Ot(D)``, the state at an arbitrary time ``t``;
* :func:`current_snapshot` -- the state now (``t = +infinity``).

All three return fresh, fully valid OEM databases whose node identifiers
coincide with the DOEM database's, so results can be compared against
replayed histories directly (the round-trip property tests rely on this).

For workloads that ask for many snapshots of the same database (time
travel, ``<at T>`` queries, QSS polling), :class:`SnapshotCache` keeps an
LRU set of checkpoint snapshots and serves each ``Ot(D)`` incrementally
from the nearest earlier checkpoint -- replaying only the change sets in
``(checkpoint, t]`` instead of walking the whole annotation graph per
call.  :func:`cached_snapshot_at` is the drop-in cached counterpart of
:func:`snapshot_at`, with one cache attached per DOEM database.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict

from ..errors import DOEMError
from ..obs.events import emit_event
from ..obs.metrics import CounterField, registry as metrics_registry
from ..obs.trace import span
from ..oem.model import OEMDatabase
from ..timestamps import NEG_INF, POS_INF, Timestamp, parse_timestamp
from .model import DOEMDatabase

__all__ = ["snapshot_at", "original_snapshot", "current_snapshot",
           "SnapshotCache", "SnapshotCacheStats", "snapshot_cache",
           "cached_snapshot_at"]


def snapshot_at(doem: DOEMDatabase, when: object) -> OEMDatabase:
    """``Ot(D)``: the snapshot of the encoded history at time ``when``.

    Implements the preorder traversal of Section 3.2: starting at the
    root, each node's value is computed from its ``upd`` annotations and
    the traversal follows only arcs that were present at time ``when``.
    Nodes not reached (not yet created, or unreachable at that time) are
    absent from the result, exactly as OEM's reachability semantics
    demand.
    """
    with span("doem.snapshot"):
        cutoff = parse_timestamp(when)
        graph = doem.graph
        result = OEMDatabase(root=graph.root,
                             root_value=_value_at(doem, graph.root, cutoff))
        visited = {graph.root}
        frontier = [graph.root]
        pending_arcs: list[tuple[str, str, str]] = []
        while frontier:
            node = frontier.pop()
            for label, child in doem.live_children(node, cutoff):
                if not doem.node_existed_at(child, cutoff):
                    # A live arc to a not-yet-created node cannot arise
                    # from a valid history; guard anyway for hand-built
                    # databases.
                    continue
                if child not in visited:
                    visited.add(child)
                    result.create_node(child, _value_at(doem, child, cutoff))
                    frontier.append(child)
                pending_arcs.append((node, label, child))
        for source, label, target in pending_arcs:
            result.add_arc(source, label, target)
        return result


def _value_at(doem: DOEMDatabase, node_id: str, cutoff: Timestamp) -> object:
    """The node's value at the cutoff (Section 3.2, step 1)."""
    return doem.value_at(node_id, cutoff)


def original_snapshot(doem: DOEMDatabase) -> OEMDatabase:
    """``O0(D)``: the snapshot before any recorded change.

    Per Section 3.2 this contains exactly the nodes without a ``cre``
    annotation; the arcs are those with no annotations or whose earliest
    annotation is a ``rem``.  Implemented as the snapshot "just before the
    first timestamp", which coincides with that description for feasible
    databases and extends it sensibly to infeasible ones.
    """
    return snapshot_at(doem, NEG_INF)


def current_snapshot(doem: DOEMDatabase) -> OEMDatabase:
    """The snapshot "now": all recorded changes applied."""
    return snapshot_at(doem, POS_INF)


# ----------------------------------------------------------------------
# Snapshot caching
# ----------------------------------------------------------------------


class SnapshotCacheStats:
    """Counters describing how a :class:`SnapshotCache` earned its keep.

    ``lookups = exact_hits + incremental + full + store_hits``;
    ``replayed_sets`` is the number of change sets applied on the
    incremental path (the work a full replay from ``O0(D)`` would
    multiply many times over).

    Counters are registered in the global metrics registry under
    ``repro.snapshot_cache``; the attributes remain the API.
    """

    _FIELDS = ("lookups", "exact_hits", "incremental", "full",
               "replayed_sets", "evictions", "invalidations", "store_hits")

    lookups = CounterField()
    exact_hits = CounterField()
    incremental = CounterField()
    full = CounterField()
    replayed_sets = CounterField()
    evictions = CounterField()
    invalidations = CounterField()
    store_hits = CounterField()

    def __init__(self) -> None:
        self._metrics = metrics_registry().group("repro.snapshot_cache",
                                                 self._FIELDS)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups the in-memory cache served (exact or base).

        A lookup that loaded a durable checkpoint (``store_hits``) is a
        miss here -- it read and decoded a full snapshot from disk -- and
        keeps its own counter; counting it as a hit read 1.0 wherever a
        checkpoint precedes every probe.
        """
        if not self.lookups:
            return 0.0
        return (self.exact_hits + self.incremental) / self.lookups

    def reset(self) -> None:
        self._metrics.reset()

    def as_dict(self) -> dict:
        """Raw counters plus the hit rate, for artifacts and tests."""
        values = {name: getattr(self, name) for name in self._FIELDS}
        values["hit_rate"] = self.hit_rate
        return values

    def describe(self) -> str:
        return (f"lookups={self.lookups} exact_hits={self.exact_hits} "
                f"incremental={self.incremental} full={self.full} "
                f"hit_rate={self.hit_rate:.2f} "
                f"replayed_sets={self.replayed_sets} "
                f"evictions={self.evictions} "
                f"invalidations={self.invalidations} "
                f"store_hits={self.store_hits}")


class SnapshotCache:
    """An LRU checkpoint cache making repeated ``Ot(D)`` calls cheap.

    The cache keeps up to ``capacity`` checkpoint snapshots keyed by their
    timestamp.  A lookup at time ``t``:

    1. returns a copy of the checkpoint at exactly ``t`` when present;
    2. otherwise finds the latest checkpoint at some ``t0 <= t``, copies
       it, and replays only the encoded change sets in ``(t0, t]``
       (Section 3.2 guarantees ``Ot`` equals the replayed prefix, the
       invariant the differential harness re-proves on random histories);
    3. with no usable checkpoint, falls back to the direct annotation
       walk of :func:`snapshot_at`.

    Results of 2 and 3 are themselves cached (LRU eviction).  The cache
    listens for the append notice of :class:`~repro.doem.build.DOEMApplier`:
    a change set at ``ta`` later than all history cannot change any
    ``Ot(D)`` with ``t < ta`` (Section 3.2), so only checkpoints at
    ``t >= ta`` are dropped.  Any other change of the database's
    fingerprint drops everything at the next lookup, so it is always safe
    to keep one around while folding new history in.

    Thread safety: every lookup/maintenance path runs under one reentrant
    lock, so concurrent ``snapshot_at`` calls from the parallel query
    executor serialize on the cache (each call still returns its own
    private copy).  The lock is per cache, not global -- caches of
    distinct DOEM databases never contend.
    """

    def __init__(self, doem: DOEMDatabase, capacity: int = 8) -> None:
        if capacity < 1:
            raise DOEMError("SnapshotCache capacity must be >= 1")
        self.doem = doem
        self.capacity = capacity
        self.stats = SnapshotCacheStats()
        self._checkpoints: OrderedDict[Timestamp, OEMDatabase] = OrderedDict()
        self._history = None  # lazily extracted encoded history
        self._fingerprint: object = None
        self._store_log = None  # durable checkpoints (attach_store)
        self._lock = threading.RLock()
        doem.add_annotation_listener(self)

    def attach_store(self, log) -> None:
        """Serve misses through a durable log's checkpoints.

        ``log`` is the :class:`~repro.store.HistoryLog` this DOEM
        database was built from.  After a miss of the in-memory LRU (or
        right after an invalidation empties it), the cache loads the
        log's nearest materialized checkpoint and replays the bounded
        suffix, instead of falling back to the full annotation walk --
        the read-through that turns the cache into a view over the
        store's checkpoints.
        """
        with self._lock:
            self._store_log = log

    # -- freshness -------------------------------------------------------

    def _ensure_fresh(self) -> None:
        fingerprint = self.doem.fingerprint()
        if fingerprint != self._fingerprint:
            self.stats.invalidations += len(self._checkpoints)
            self._checkpoints.clear()
            self._history = None
            self._fingerprint = fingerprint

    def _on_append(self, before: object, after: object, when: Timestamp,
                   change_set) -> None:
        # DOEMDatabase listener hook: a change set at `when`, later than
        # all history, moved the fingerprint from `before` to `after`.
        with self._lock:
            if self._fingerprint != before:
                return  # already stale: the next lookup drops everything
            stale = [t for t in self._checkpoints if t >= when]
            for t in stale:
                del self._checkpoints[t]
            self.stats.invalidations += len(stale)
            if change_set and self._history is not None:
                if when.is_finite:
                    self._history.append(when, change_set)
                else:  # OEMHistory holds finite times only: re-derive
                    self._history = None
            self._fingerprint = after

    def _encoded_history(self):
        """``H(D)``, as something with ``entries_between(after, until)``."""
        if self._store_log is not None:
            # The log's entries are H(D) of the database it built: no
            # re-deriving it from every annotation after each poll.
            return self._store_log
        if self._history is None:
            from .extract import encoded_history
            self._history = encoded_history(self.doem)
        return self._history

    # -- the cache proper ------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._checkpoints)

    def _store(self, when: Timestamp, snapshot: OEMDatabase) -> None:
        self._checkpoints[when] = snapshot
        self._checkpoints.move_to_end(when)
        while len(self._checkpoints) > self.capacity:
            evicted, _ = self._checkpoints.popitem(last=False)
            self.stats.evictions += 1
            emit_event("cache_eviction", level="info",
                       cache="snapshot", checkpoint=str(evicted),
                       capacity=self.capacity)

    def snapshot_at(self, when: object) -> OEMDatabase:
        """``Ot(D)`` via the cache; equal to :func:`snapshot_at`'s answer."""
        with span("doem.snapshot.cached"):
            with self._lock:
                return self._snapshot_at(when)

    def _snapshot_at(self, when: object) -> OEMDatabase:
        cutoff = parse_timestamp(when)
        self._ensure_fresh()
        self.stats.lookups += 1

        cached = self._checkpoints.get(cutoff)
        if cached is not None:
            self.stats.exact_hits += 1
            self._checkpoints.move_to_end(cutoff)
            return cached.copy()

        base_time = None
        for candidate in self._checkpoints:
            if candidate <= cutoff and (base_time is None
                                        or candidate > base_time):
                base_time = candidate
        durable = None
        if self._store_log is not None:
            nearest = self._store_log.nearest_checkpoint(cutoff)
            if nearest is not None and (base_time is None
                                        or nearest[0] > base_time):
                durable = nearest
        if durable is not None:
            self.stats.store_hits += 1
            base_time, snapshot = durable
        elif base_time is not None:
            self.stats.incremental += 1
            self._checkpoints.move_to_end(base_time)
            snapshot = self._checkpoints[base_time].copy()
        else:
            self.stats.full += 1
            snapshot = snapshot_at(self.doem, cutoff)
            # Built node by node, so all suspects: collected here once
            # (which deletes nothing), its copies start clean.
            snapshot.collect_garbage()
        if base_time is not None:
            with span("doem.snapshot.replay"):
                replay = self._encoded_history().entries_between(base_time,
                                                                 cutoff)
                for _, change_set in replay:
                    change_set.apply_to(snapshot)
                self.stats.replayed_sets += len(replay)
        self._store(cutoff, snapshot)
        return snapshot.copy()


_CACHES: "weakref.WeakKeyDictionary[DOEMDatabase, SnapshotCache]" = \
    weakref.WeakKeyDictionary()
_CACHES_LOCK = threading.Lock()


def snapshot_cache(doem: DOEMDatabase, capacity: int = 8) -> SnapshotCache:
    """The per-database :class:`SnapshotCache` (created on first use)."""
    with _CACHES_LOCK:
        cache = _CACHES.get(doem)
        if cache is None or cache.capacity != capacity:
            cache = SnapshotCache(doem, capacity=capacity)
            _CACHES[doem] = cache
        return cache


def cached_snapshot_at(doem: DOEMDatabase, when: object) -> OEMDatabase:
    """Drop-in cached variant of :func:`snapshot_at`."""
    return snapshot_cache(doem).snapshot_at(when)
