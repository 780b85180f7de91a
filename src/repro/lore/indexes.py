"""Indexes over DOEM annotations and label paths.

The paper's future-work list asks for "indexes on annotations (based on
their types and timestamps) ... to achieve a more efficient translation
of Chorel queries" (Section 7).  These are the indexes the planner
reads:

* :class:`AnnotationIndex` -- (annotation kind, timestamp range) ->
  annotated nodes/arcs, the structure the QSS filter queries (``T >
  t[-1]``) want; :class:`TimestampIndex` is its incrementally
  maintained variant;
* :class:`PathIndex` -- memoized label-path reachability.
"""

from __future__ import annotations

import bisect
import threading
from typing import Iterable

from ..doem.annotations import Add, Annotation, Cre, Rem, Upd
from ..doem.model import DOEMDatabase
from ..obs.metrics import CounterField, registry as metrics_registry
from ..oem.changes import AddArc, RemArc
from ..oem.model import OEMDatabase
from ..timestamps import NEG_INF, POS_INF, Timestamp, parse_timestamp

__all__ = ["AnnotationIndex", "TimestampIndex", "PathIndex", "IndexStats"]


class IndexStats:
    """Hit-rate counters shared by the incremental indexes.

    * ``lookups`` -- queries answered by the index;
    * ``hits`` -- lookups that found at least one entry (``misses`` is the
      complement);
    * ``visited`` -- entries the index actually touched to answer its
      lookups -- the number ``tests/paper/test_index.py`` compares
      against the naive engine's full annotation scans;
    * ``inserts`` -- incremental maintenance events;
    * ``rebuilds`` -- full from-scratch (re)constructions.

    The counters live in the process-global
    :class:`~repro.obs.metrics.MetricsRegistry` under ``prefix`` (family
    sums across instances appear in metrics dumps); the attributes here
    are thin views, so the original ``stats.lookups += 1`` API is
    unchanged.
    """

    _FIELDS = ("lookups", "hits", "visited", "inserts", "rebuilds")

    lookups = CounterField()
    hits = CounterField()
    visited = CounterField()
    inserts = CounterField()
    rebuilds = CounterField()

    def __init__(self, prefix: str = "repro.index") -> None:
        self._metrics = metrics_registry().group(prefix, self._FIELDS)

    def inc(self, field: str, amount: int = 1) -> None:
        """Atomically increment one counter (safe from worker threads,
        unlike the ``stats.field += 1`` read-modify-write)."""
        self._metrics[field].inc(amount)

    @property
    def misses(self) -> int:
        return self.lookups - self.hits

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that produced at least one entry."""
        return self.hits / self.lookups if self.lookups else 0.0

    def reset(self) -> None:
        self._metrics.reset()

    def as_dict(self) -> dict:
        """Raw counters plus derived rates, for artifacts and tests."""
        values = {name: getattr(self, name) for name in self._FIELDS}
        values["misses"] = self.misses
        values["hit_rate"] = self.hit_rate
        return values

    def describe(self) -> str:
        return (f"lookups={self.lookups} hits={self.hits} "
                f"misses={self.misses} hit_rate={self.hit_rate:.2f} "
                f"visited={self.visited} inserts={self.inserts} "
                f"rebuilds={self.rebuilds}")


class AnnotationIndex:
    """Timestamp-ordered index over DOEM annotations, by kind.

    Answers the workhorse question of QSS filter queries -- "which
    annotations of kind K fall in the time interval (lo, hi]?" -- in
    O(log n + answers) instead of a full graph scan.
    """

    _NODE_KINDS = {"cre": Cre, "upd": Upd}
    _ARC_KINDS = {"add": Add, "rem": Rem}

    def __init__(self, doem: DOEMDatabase | None = None) -> None:
        # kind -> sorted list of (ticks-ordering key, timestamp, subject),
        # with a parallel key array per kind so interval lookups bisect in
        # O(log n) instead of materializing the keys on every call.
        self._entries: dict[str, list[tuple[tuple, Timestamp, object]]] = {}
        self._keys: dict[str, list[tuple]] = {}
        if doem is not None:
            self.rebuild(doem)

    @staticmethod
    def _order_key(when: Timestamp) -> tuple:
        return when._order_key()  # stable total order incl. infinities

    def rebuild(self, doem: DOEMDatabase) -> None:
        """Re-scan the DOEM database and rebuild all four kind lists."""
        buckets: dict[str, list[tuple[tuple, Timestamp, object]]] = {
            kind: [] for kind in ("cre", "upd", "add", "rem")}
        for node, annotations in doem.annotated_nodes():
            for annotation in annotations:
                kind = "cre" if isinstance(annotation, Cre) else "upd"
                buckets[kind].append(
                    (self._order_key(annotation.at), annotation.at, node))
        for arc, annotations in doem.annotated_arcs():
            for annotation in annotations:
                kind = "add" if isinstance(annotation, Add) else "rem"
                buckets[kind].append(
                    (self._order_key(annotation.at), annotation.at, arc))
        self._entries = {kind: sorted(items, key=lambda e: (e[0], str(e[2])))
                         for kind, items in buckets.items()}
        self._keys = {kind: [entry[0] for entry in items]
                      for kind, items in self._entries.items()}

    def count(self, kind: str) -> int:
        """Number of annotations of ``kind`` in the index."""
        return len(self._entries.get(kind, ()))

    def between(self, kind: str, low: object = NEG_INF,
                high: object = POS_INF, *, include_low: bool = False,
                include_high: bool = True) -> list[tuple[Timestamp, object]]:
        """Annotations of ``kind`` with timestamps in the interval.

        The default bounds ``(low, high]`` match the QSS predicate shape
        ``T > t[-1] and T <= t[0]``.  Subjects are node ids for
        ``cre``/``upd`` and :class:`~repro.oem.model.Arc` for
        ``add``/``rem``.
        """
        if kind not in self._entries:
            raise KeyError(f"unknown annotation kind {kind!r}")
        return self._slice(self._keys[kind], self._entries[kind], low, high,
                           include_low, include_high)

    @classmethod
    def _slice(cls, keys: list[tuple],
               items: list[tuple[tuple, Timestamp, object]], low: object,
               high: object, include_low: bool,
               include_high: bool) -> list[tuple[Timestamp, object]]:
        low_ts, high_ts = parse_timestamp(low), parse_timestamp(high)
        start = bisect.bisect_left(keys, cls._order_key(low_ts)) \
            if include_low else bisect.bisect_right(keys, cls._order_key(low_ts))
        end = bisect.bisect_right(keys, cls._order_key(high_ts)) \
            if include_high else bisect.bisect_left(keys, cls._order_key(high_ts))
        return [(when, subject) for _, when, subject in items[start:end]]

    def created_since(self, low: object) -> list[str]:
        """Node ids created strictly after ``low`` (QSS's common ask)."""
        return [node for _, node in self.between("cre", low)]


class TimestampIndex(AnnotationIndex):
    """An incrementally maintained annotation-kind x timestamp index.

    The same (kind, interval) -> subjects contract as
    :class:`AnnotationIndex`, plus:

    * **incremental maintenance** -- :meth:`attach` registers the index as
      an annotation listener on a :class:`~repro.doem.model.DOEMDatabase`,
      so every annotation folded in by the appliers of
      :mod:`repro.doem.build` is inserted in O(log n) without rebuilds;
    * **label partitioning** -- arc annotations (``add``/``rem``) are
      additionally bucketed by arc label, so ``<add at T>item`` predicates
      scan only the ``item`` entries (pass ``label=`` to :meth:`between`);
    * **hit-rate counters** -- :attr:`stats` records lookups, hits, and
      entries visited, the numbers the ``index_hits_*`` paper goldens
      pin (``tests/paper/test_index.py``).

    ``TimestampIndex(doem)`` rebuilds *and* attaches; pass
    ``attach=False`` for a detached snapshot-in-time index.

    Thread safety: maintenance (``rebuild``/``insert``) and lookups
    (``between``) serialize on one reentrant lock per index, so the
    parallel query executor may scan while history folding inserts
    concurrently -- each lookup sees a consistent entry list.
    """

    def __init__(self, doem: DOEMDatabase | None = None, *,
                 attach: bool = True) -> None:
        self.stats = IndexStats()
        self._source: DOEMDatabase | None = None
        self._lock = threading.RLock()
        # (kind, arc label) -> parallel (keys, entries) lists
        self._by_label: dict[tuple[str, str],
                             tuple[list[tuple],
                                   list[tuple[tuple, Timestamp, object]]]] = {}
        super().__init__(None)
        self._entries = {kind: [] for kind in ("cre", "upd", "add", "rem")}
        self._keys = {kind: [] for kind in self._entries}
        if doem is not None:
            self.rebuild(doem)
            if attach:
                self.attach(doem)

    # -- maintenance -----------------------------------------------------

    def rebuild(self, doem: DOEMDatabase) -> None:
        with self._lock:
            super().rebuild(doem)
            for kind in ("cre", "upd", "add", "rem"):
                self._entries.setdefault(kind, [])
                self._keys.setdefault(kind, [])
            self._by_label = {}
            for kind in ("add", "rem"):
                for entry in self._entries[kind]:
                    keys, entries = self._label_bucket(kind, entry[2].label)
                    keys.append(entry[0])
                    entries.append(entry)
            self.stats.rebuilds += 1

    def _label_bucket(self, kind: str, label: str):
        bucket = self._by_label.get((kind, label))
        if bucket is None:
            bucket = ([], [])
            self._by_label[(kind, label)] = bucket
        return bucket

    def attach(self, doem: DOEMDatabase) -> None:
        """Follow ``doem``: future annotations are inserted automatically."""
        if self._source is not None:
            self.detach()
        self._source = doem
        doem.add_annotation_listener(self)

    def detach(self) -> None:
        """Stop following the attached database (the entries remain)."""
        if self._source is not None:
            self._source.remove_annotation_listener(self)
            self._source = None

    def insert(self, subject: object, annotation: Annotation) -> None:
        """Insert one annotation's entry, keeping the kind list sorted."""
        if isinstance(annotation, Cre):
            kind = "cre"
        elif isinstance(annotation, Upd):
            kind = "upd"
        elif isinstance(annotation, Add):
            kind = "add"
        else:
            kind = "rem"
        key = self._order_key(annotation.at)
        entry = (key, annotation.at, subject)
        with self._lock:
            keys = self._keys[kind]
            # Insert after equal keys so arrival order breaks ties,
            # matching one stable interval scan; `between` output order
            # within a single timestamp is not part of the contract.
            position = bisect.bisect_right(keys, key)
            keys.insert(position, key)
            self._entries[kind].insert(position, entry)
            if kind in ("add", "rem"):
                label_keys, label_entries = self._label_bucket(
                    kind, subject.label)
                label_position = bisect.bisect_right(label_keys, key)
                label_keys.insert(label_position, key)
                label_entries.insert(label_position, entry)
        self.stats.inc("inserts")

    def _on_annotation(self, subject_kind: str, subject: object,
                       annotation: Annotation) -> None:
        # DOEMDatabase listener hook (see add_annotation_listener).
        self.insert(subject, annotation)

    # -- counted lookups -------------------------------------------------

    def between(self, kind: str, low: object = NEG_INF,
                high: object = POS_INF, *, include_low: bool = False,
                include_high: bool = True,
                label: str | None = None) -> list[tuple[Timestamp, object]]:
        """Annotations of ``kind`` in the interval, optionally by label.

        ``label`` narrows ``add``/``rem`` lookups to one arc label using
        the label partition (it is ignored for node kinds, whose subjects
        carry no label).
        """
        with self._lock:
            if label is not None and kind in ("add", "rem"):
                keys, items = self._by_label.get((kind, label), ((), ()))
                result = self._slice(keys, items, low, high,
                                     include_low, include_high)
            else:
                result = super().between(kind, low, high,
                                         include_low=include_low,
                                         include_high=include_high)
        self.stats.inc("lookups")
        self.stats.inc("visited", len(result))
        if result:
            self.stats.inc("hits")
        return result


class PathIndex:
    """A label-path index over the current snapshot of a database.

    Maps a label sequence ``(l1, ..., ln)`` to the set of nodes reachable
    from the root via a live ``l1 ... ln`` arc path -- the reachability
    question Lorel path evaluation and the indexed Chorel engine's hit
    verification both ask.  Path sets are computed on first use (one
    breadth-first layer per label) and memoized.  Over a DOEM database
    the index listens for the append notice of
    :class:`~repro.doem.build.DOEMApplier`: a path set over live arcs
    depends only on arcs with its own labels, so an appended change set
    drops just the paths through a label one of its ``addArc``/``remArc``
    operations names (``creNode``/``updNode`` cannot change a path set).
    Any other fingerprint change drops the whole memo at the next lookup,
    so results stay exact across incremental history folding.

    Lookups serialize on one reentrant lock per index (memoization
    mutates on reads), so concurrent hit verification from the parallel
    executor's workers is safe.
    """

    def __init__(self, source: OEMDatabase | DOEMDatabase) -> None:
        self.source = source
        self.stats = IndexStats(prefix="repro.path_index")
        self._memo: dict[tuple[str, ...], frozenset[str]] = {}
        self._fingerprint: object = None
        self._lock = threading.RLock()
        if isinstance(source, DOEMDatabase):
            source.add_annotation_listener(self)

    # -- source adaptation ----------------------------------------------

    def _root(self) -> str:
        if isinstance(self.source, DOEMDatabase):
            return self.source.graph.root
        return self.source.root

    def _children(self, node: str, label: str) -> Iterable[str]:
        if isinstance(self.source, DOEMDatabase):
            return (child for _, child
                    in self.source.live_children(node, POS_INF, label))
        return self.source.children(node, label)

    def _current_fingerprint(self) -> object:
        if isinstance(self.source, DOEMDatabase):
            return self.source.fingerprint()
        return (len(self.source), self.source.arc_count())

    def _ensure_fresh(self) -> None:
        fingerprint = self._current_fingerprint()
        if fingerprint != self._fingerprint:
            self._memo.clear()
            self._fingerprint = fingerprint
            self.stats.rebuilds += 1

    def _on_append(self, before: object, after: object, when: Timestamp,
                   change_set) -> None:
        # DOEMDatabase listener hook (see DOEMApplier.apply).
        with self._lock:
            if self._fingerprint != before:
                return  # already stale: the next lookup drops everything
            touched = {op.label for op in change_set
                       if isinstance(op, (AddArc, RemArc))}
            if touched:
                self._memo = {path: nodes
                              for path, nodes in self._memo.items()
                              if touched.isdisjoint(path)}
            self._fingerprint = after

    # -- lookups ---------------------------------------------------------

    def nodes(self, labels: Iterable[str]) -> frozenset[str]:
        """Nodes reachable from the root via the exact label path."""
        path = tuple(labels)
        with self._lock:
            self._ensure_fresh()
            self.stats.inc("lookups")
            cached = self._memo.get(path)
            if cached is not None:
                self.stats.inc("hits")
                return cached
            # Reuse the longest memoized prefix, then extend layer by layer.
            prefix_len = len(path)
            while prefix_len > 0 and path[:prefix_len] not in self._memo:
                prefix_len -= 1
            frontier = self._memo[path[:prefix_len]] if prefix_len \
                else frozenset((self._root(),))
            self._memo.setdefault((), frozenset((self._root(),)))
            for position in range(prefix_len, len(path)):
                layer: set[str] = set()
                for node in frontier:
                    layer.update(self._children(node, path[position]))
                self.stats.inc("visited", len(layer))
                frontier = frozenset(layer)
                self._memo[path[:position + 1]] = frontier
            return frontier

    def contains(self, node: str, labels: Iterable[str]) -> bool:
        """Is ``node`` reachable from the root via the label path?"""
        return node in self.nodes(labels)
