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
import weakref
from array import array
from typing import Iterable

from ..doem.annotations import Add, Annotation, Cre, Upd
from ..doem.model import DOEMDatabase
from ..obs.metrics import CounterField, registry as metrics_registry
from ..oem.changes import AddArc, RemArc
from ..timestamps import (NEG_INF, POS_INF, Timestamp, order_tick,
                          parse_timestamp)

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


_KINDS = ("cre", "upd", "add", "rem")


class _Column:
    """One time-ordered run of index entries, stored by column.

    Ticks sit in an ``array('q')`` (eight bytes an entry, and what
    lookups bisect); the timestamps and subjects beside them are
    references to objects the DOEM database already holds.  Annotations
    arrive in time order, so an insert is almost always an append.
    """

    __slots__ = ("ticks", "whens", "subjects")

    def __init__(self, entries: list[tuple[int, Timestamp, object]] = ()
                 ) -> None:
        """A column of ``(tick, when, subject)`` entries, already sorted."""
        self.ticks = array("q", [entry[0] for entry in entries])
        self.whens: list[Timestamp] = [entry[1] for entry in entries]
        self.subjects: list[object] = [entry[2] for entry in entries]

    def __len__(self) -> int:
        return len(self.ticks)

    def insert(self, when: Timestamp, subject: object) -> None:
        """Add one entry after every entry with the same time."""
        tick = order_tick(when)
        ticks = self.ticks
        if not ticks or ticks[-1] <= tick:
            ticks.append(tick)
            self.whens.append(when)
            self.subjects.append(subject)
            return
        position = bisect.bisect_right(ticks, tick)
        ticks.insert(position, tick)
        self.whens.insert(position, when)
        self.subjects.insert(position, subject)

    def between(self, low: object, high: object, include_low: bool,
                include_high: bool) -> list[tuple[Timestamp, object]]:
        ticks = self.ticks
        low_tick = order_tick(parse_timestamp(low))
        high_tick = order_tick(parse_timestamp(high))
        start = bisect.bisect_left(ticks, low_tick) if include_low \
            else bisect.bisect_right(ticks, low_tick)
        end = bisect.bisect_right(ticks, high_tick) if include_high \
            else bisect.bisect_left(ticks, high_tick)
        return list(zip(self.whens[start:end], self.subjects[start:end]))


class AnnotationIndex:
    """Timestamp-ordered index over DOEM annotations, by kind.

    Answers the workhorse question of QSS filter queries -- "which
    annotations of kind K fall in the time interval (lo, hi]?" -- in
    O(log n + answers) instead of a full graph scan.
    """

    def __init__(self, doem: DOEMDatabase | None = None) -> None:
        self._columns: dict[str, _Column] = {kind: _Column()
                                             for kind in _KINDS}
        if doem is not None:
            self.rebuild(doem)

    def rebuild(self, doem: DOEMDatabase) -> None:
        """Re-scan the DOEM database and rebuild all four kind columns."""
        found: dict[str, list[tuple[int, Timestamp, object]]] = {
            kind: [] for kind in _KINDS}
        for node, annotations in doem.annotated_nodes():
            for annotation in annotations:
                kind = "cre" if isinstance(annotation, Cre) else "upd"
                found[kind].append((order_tick(annotation.at), annotation.at, node))
        for arc, annotations in doem.annotated_arcs():
            for annotation in annotations:
                kind = "add" if isinstance(annotation, Add) else "rem"
                found[kind].append((order_tick(annotation.at), annotation.at, arc))
        self._columns = {
            kind: _Column(sorted(entries, key=lambda e: (e[0], str(e[2]))))
            for kind, entries in found.items()}

    def count(self, kind: str) -> int:
        """Number of annotations of ``kind`` in the index."""
        return len(self._columns.get(kind, ()))

    def between(self, kind: str, low: object = NEG_INF,
                high: object = POS_INF, *, include_low: bool = False,
                include_high: bool = True) -> list[tuple[Timestamp, object]]:
        """Annotations of ``kind`` with timestamps in the interval.

        The default bounds ``(low, high]`` match the QSS predicate shape
        ``T > t[-1] and T <= t[0]``.  Subjects are node ids for
        ``cre``/``upd`` and :class:`~repro.oem.model.Arc` for
        ``add``/``rem``.
        """
        if kind not in self._columns:
            raise KeyError(f"unknown annotation kind {kind!r}")
        return self._columns[kind].between(low, high, include_low,
                                           include_high)

    def created_since(self, low: object) -> list[str]:
        """Node ids created strictly after ``low`` (QSS's common ask)."""
        return [node for _, node in self.between("cre", low)]


class TimestampIndex(AnnotationIndex):
    """An incrementally maintained annotation-kind x timestamp index.

    The same (kind, interval) -> subjects contract as
    :class:`AnnotationIndex`, plus:

    * **incremental maintenance** -- the index a
      :class:`~repro.doem.model.DOEMDatabase` owns
      (:meth:`~repro.doem.model.DOEMDatabase.timestamp_index`) is handed
      every annotation its ``annotate_node``/``annotate_arc`` attach, so
      what the appliers of :mod:`repro.doem.build` fold in is inserted
      (in time order: an append) without rebuilds;
    * **label partitioning** -- arc annotations (``add``/``rem``) are
      additionally bucketed by arc label, so ``<add at T>item`` predicates
      scan only the ``item`` entries (pass ``label=`` to :meth:`between`);
    * **hit-rate counters** -- :attr:`stats` records lookups, hits, and
      entries visited, the numbers the ``index_hits_*`` paper goldens
      pin (``tests/paper/test_index.py``).

    ``TimestampIndex(doem)`` alone is a snapshot-in-time index: only the
    database's own index is kept current.  Neither holds the database.

    An entry costs its column slots: eight bytes of ticks plus two
    references, and as much again in the label partition for an arc
    annotation (``tests/lore/test_index_memory.py`` holds the budget).

    Thread safety: maintenance (``rebuild``/``insert``) and lookups
    (``between``) serialize on one reentrant lock per index.  Lookups
    come from the range kernel, which runs on the driving thread (the
    parallel executor never shards an index scan), and history is folded
    between runs, never during one (``docs/parallel.md``).
    """

    def __init__(self, doem: DOEMDatabase | None = None) -> None:
        self.stats = IndexStats()
        self._lock = threading.RLock()
        # (kind, arc label) -> the column of that label's entries
        self._by_label: dict[tuple[str, str], _Column] = {}
        super().__init__(None)
        if doem is not None:
            self.rebuild(doem)

    # -- maintenance -----------------------------------------------------

    def rebuild(self, doem: DOEMDatabase) -> None:
        with self._lock:
            super().rebuild(doem)
            by_label: dict[tuple[str, str], list] = {}
            for kind in ("add", "rem"):
                column = self._columns[kind]
                for entry in zip(column.ticks, column.whens, column.subjects):
                    by_label.setdefault((kind, entry[2].label), []).append(
                        entry)
            self._by_label = {key: _Column(entries)
                              for key, entries in by_label.items()}
            self.stats.rebuilds += 1

    def _label_column(self, kind: str, label: str) -> _Column:
        column = self._by_label.get((kind, label))
        if column is None:
            column = self._by_label[(kind, label)] = _Column()
        return column

    def insert(self, subject: object, annotation: Annotation) -> None:
        """Insert one annotation's entry, keeping the kind column sorted."""
        if isinstance(annotation, Cre):
            kind = "cre"
        elif isinstance(annotation, Upd):
            kind = "upd"
        elif isinstance(annotation, Add):
            kind = "add"
        else:
            kind = "rem"
        when = annotation.at
        with self._lock:
            # After equal times, so arrival order breaks ties; `between`
            # output order within a single timestamp is not part of the
            # contract.
            self._columns[kind].insert(when, subject)
            if kind in ("add", "rem"):
                self._label_column(kind, subject.label).insert(when, subject)
        self.stats.inc("inserts")

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
                column = self._by_label.get((kind, label))
                result = [] if column is None else column.between(
                    low, high, include_low, include_high)
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
    """A label-path index over the current snapshot of a DOEM database.

    Maps a label sequence ``(l1, ..., ln)`` to the set of nodes reachable
    from the root via a live ``l1 ... ln`` arc path -- the reachability
    question Lorel path evaluation and the indexed Chorel engine's hit
    verification both ask.  Path sets are computed on first use (one
    breadth-first layer per label) and memoized.  The index a database
    owns (:meth:`~repro.doem.model.DOEMDatabase.path_index`) hears the
    append notice of :class:`~repro.doem.build.DOEMApplier`: a path set
    over live arcs depends only on arcs with its own labels, so an
    appended change set drops just the paths through a label one of its
    ``addArc``/``remArc`` operations names (``creNode``/``updNode``
    cannot change a path set).  Any other fingerprint change drops the
    whole memo at the next lookup, so results stay exact across
    incremental history folding.  The index holds its database weakly.

    Lookups serialize on one reentrant lock per index (memoization
    mutates on reads).  Its one reader is the range kernel on the driving
    thread: the parallel executor's shards run ``PathExpand`` and
    ``Predicate`` stages only, and QSS poll workers run ``Wrapper.poll``.
    """

    def __init__(self, doem: DOEMDatabase) -> None:
        self._doem = weakref.ref(doem)
        self.stats = IndexStats(prefix="repro.path_index")
        self._memo: dict[tuple[str, ...], frozenset[str]] = {}
        self._fingerprint: object = None
        self._lock = threading.RLock()

    def _ensure_fresh(self, doem: DOEMDatabase) -> None:
        fingerprint = doem.fingerprint()
        if fingerprint != self._fingerprint:
            self._memo.clear()
            self._fingerprint = fingerprint
            self.stats.rebuilds += 1

    def _on_append(self, before: object, after: object, when: Timestamp,
                   change_set) -> None:
        # From DOEMApplier.apply (see its append notice).
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
        doem = self._doem()
        with self._lock:
            self._ensure_fresh(doem)
            self.stats.inc("lookups")
            cached = self._memo.get(path)
            if cached is not None:
                self.stats.inc("hits")
                return cached
            # Reuse the longest memoized prefix, then extend layer by layer.
            prefix_len = len(path)
            while prefix_len > 0 and path[:prefix_len] not in self._memo:
                prefix_len -= 1
            root = frozenset((doem.graph.root,))
            frontier = self._memo[path[:prefix_len]] if prefix_len \
                else root
            self._memo.setdefault((), root)
            for position in range(prefix_len, len(path)):
                label = path[position]
                layer: set[str] = set()
                for node in frontier:
                    layer.update(child for _, child
                                 in doem.live_children(node, POS_INF, label))
                self.stats.inc("visited", len(layer))
                frontier = frozenset(layer)
                self._memo[path[:position + 1]] = frontier
            return frontier

    def contains(self, node: str, labels: Iterable[str]) -> bool:
        """Is ``node`` reachable from the root via the label path?"""
        return node in self.nodes(labels)
