"""The DOEM database (Definition 3.1).

``D = (O, fN, fA)`` where ``O`` is an OEM database, ``fN`` maps each node
to a finite set of node annotations, and ``fA`` maps each arc to a finite
set of arc annotations.

The underlying OEM graph of a DOEM database is *not* any single snapshot:
removed arcs stay in the graph bearing ``rem`` annotations, and node values
are the **current** values (old values live in ``upd`` annotations).  The
snapshot-extraction functions in :mod:`repro.doem.snapshot` derive any
state from this one structure.
"""

from __future__ import annotations

import threading
from typing import Iterable, Iterator, Sequence

from ..errors import DOEMError, UnknownNodeError
from ..oem.model import Arc, OEMDatabase
from ..timestamps import POS_INF, Timestamp, parse_timestamp
from .annotations import Add, Annotation, ArcAnnotation, Cre, NodeAnnotation, Rem, Upd, sort_key

__all__ = ["DOEMDatabase"]

_MAKING = threading.Lock()  # racing first requests get one structure


def live_now(annotations: Sequence[ArcAnnotation] | None) -> bool:
    """:func:`_live_at` at ``POS_INF`` in one read: every annotation is at
    or before it, so the last one decides."""
    return not annotations or isinstance(annotations[-1], Add)


def _live_at(annotations: Sequence[ArcAnnotation], cutoff: Timestamp) -> bool:
    """:meth:`DOEMDatabase.arc_live_at`'s rule over one arc's annotations."""
    if cutoff is POS_INF:
        return live_now(annotations)
    latest: ArcAnnotation | None = None
    for annotation in annotations:
        if annotation.at <= cutoff:
            latest = annotation
        else:
            break
    if latest is not None:
        return isinstance(latest, Add)
    return not annotations or isinstance(annotations[0], Rem)


class DOEMDatabase:
    """An OEM graph plus node and arc annotation maps.

    The class wraps (and owns) an :class:`~repro.oem.model.OEMDatabase`;
    use :func:`repro.doem.build.build_doem` to construct one from an OEM
    database and a valid history, or build manually for tests.
    """

    def __init__(self, graph: OEMDatabase | None = None) -> None:
        self.graph = graph if graph is not None else OEMDatabase()
        self._node_annotations: dict[str, list[NodeAnnotation]] = {}
        self._arc_annotations: dict[Arc, list[ArcAnnotation]] = {}
        self._generation = 0
        # What timestamp_index, path_index, snapshot_cache made (or None).
        self._index = self._paths = self._cache = None
        self._last_timestamp: Timestamp | None = None
        # Kept between change sets for repro.doem.build: the nodes deleted
        # from the current snapshot, as of which fingerprint() (None: never).
        self._dead_nodes: set[str] = set()
        self._dead_as_of: tuple[int, int, int] | None = None

    # ------------------------------------------------------------------
    # Change tracking (incremental index / cache maintenance)
    # ------------------------------------------------------------------

    def fingerprint(self) -> tuple[int, int, int]:
        """A cheap staleness token: (generation, node count, arc count).

        The node/arc counts catch most untracked raw-graph mutations, so
        pull-based caches stay correct even for hand-built databases.
        """
        return (self._generation, len(self.graph), self.graph.arc_count())

    def touch(self) -> None:
        """Record an untracked mutation (bump the generation counter)."""
        self._generation += 1

    # ------------------------------------------------------------------
    # Derived structures: one of each per database
    # ------------------------------------------------------------------

    # Each is made on first request and holds the database weakly, so
    # dropping the database frees it and them.

    def _owned(self, attribute: str, make):
        with _MAKING:
            if getattr(self, attribute) is None:
                setattr(self, attribute, make(self))
        return getattr(self, attribute)

    def timestamp_index(self):
        """The :class:`~repro.lore.indexes.TimestampIndex` every indexed
        engine over this database reads; :meth:`annotate_node` and
        :meth:`annotate_arc` insert each later annotation into it."""
        from ..lore.indexes import TimestampIndex
        return self._owned("_index", TimestampIndex)

    def path_index(self):
        """The :class:`~repro.lore.indexes.PathIndex`; it hears each
        append of :class:`~repro.doem.build.DOEMApplier`."""
        from ..lore.indexes import PathIndex
        return self._owned("_paths", PathIndex)

    def snapshot_cache(self):
        """The :class:`~repro.doem.snapshot.SnapshotCache`; it hears each
        append, and reads through the log of a database from
        :meth:`repro.store.HistoryLog.get_doem`."""
        from .snapshot import SnapshotCache
        return self._owned("_cache", SnapshotCache)

    # ------------------------------------------------------------------
    # Annotation accessors (fN and fA of Definition 3.1)
    # ------------------------------------------------------------------

    def node_annotations(self, node_id: str) -> tuple[NodeAnnotation, ...]:
        """``fN(n)``: the annotations on node ``n``, in canonical order."""
        if not self.graph.has_node(node_id):
            raise UnknownNodeError(node_id)
        return tuple(self._node_annotations.get(node_id, ()))

    def arc_annotations(self, source: str, label: str, target: str) -> tuple[ArcAnnotation, ...]:
        """``fA(a)``: the annotations on arc ``(source, label, target)``."""
        arc = Arc(source, label, target)
        if not self.graph.has_arc(*arc):
            raise DOEMError(f"no such arc: {arc}")
        return tuple(self._arc_annotations.get(arc, ()))

    def annotate_node(self, node_id: str, annotation: NodeAnnotation) -> None:
        """Attach a ``cre`` or ``upd`` annotation to a node."""
        if not isinstance(annotation, (Cre, Upd)):
            raise DOEMError(f"{annotation} is not a node annotation")
        if not self.graph.has_node(node_id):
            raise UnknownNodeError(node_id)
        self._annotate(self._node_annotations.setdefault(node_id, []),
                       annotation)
        if self._index is not None:
            self._index.insert(node_id, annotation)

    def annotate_arc(self, source: str, label: str, target: str,
                     annotation: ArcAnnotation) -> None:
        """Attach an ``add`` or ``rem`` annotation to an arc."""
        if not isinstance(annotation, (Add, Rem)):
            raise DOEMError(f"{annotation} is not an arc annotation")
        arc = Arc(source, label, target)
        if not self.graph.has_arc(*arc):
            raise DOEMError(f"no such arc: {arc}")
        self._annotate(self._arc_annotations.setdefault(arc, []), annotation)
        if self._index is not None:
            self._index.insert(arc, annotation)

    def _annotate(self, annotations: list, annotation: Annotation) -> None:
        annotations.append(annotation)
        # A fold in time order appends after the last: nothing to sort.
        if len(annotations) > 1 and not annotations[-2].at < annotation.at:
            annotations.sort(key=sort_key)
        self._generation += 1
        if self._last_timestamp is None or self._last_timestamp < annotation.at:
            self._last_timestamp = annotation.at

    # ------------------------------------------------------------------
    # Derived accessors used by Chorel's annotation functions (Sec. 4.2.1)
    # ------------------------------------------------------------------

    def cre_times(self, node_id: str) -> list[Timestamp]:
        """``creFun(n)``: timestamps of ``cre`` annotations (empty or singleton)."""
        return [a.at for a in self.node_annotations(node_id)
                if isinstance(a, Cre)]

    def upd_triples(self, node_id: str) -> list[tuple[Timestamp, object, object]]:
        """``updFun(n)``: ``(time, old value, new value)`` triples.

        The new value is implicit in DOEM (Section 4.2): it is the old
        value of the temporally next ``upd`` annotation, or the node's
        current value when no later update exists.
        """
        updates = [a for a in self.node_annotations(node_id)
                   if isinstance(a, Upd)]
        triples: list[tuple[Timestamp, object, object]] = []
        for index, annotation in enumerate(updates):
            if index + 1 < len(updates):
                new_value = updates[index + 1].old_value
            else:
                new_value = self.graph.value(node_id)
            triples.append((annotation.at, annotation.old_value, new_value))
        return triples

    def upd_pair(self, node_id: str,
                 when: Timestamp) -> tuple[object, object] | None:
        """The node's :meth:`upd_triples` pair at ``when`` (or ``None``),
        walking back from the newest update: a recent one costs a step."""
        new_value = self.graph.value(node_id)
        pair = None
        for annotation in reversed(self._node_annotations.get(node_id, ())):
            if not isinstance(annotation, Upd):
                continue
            if annotation.at == when:
                pair = (annotation.old_value, new_value)
            elif pair is not None:
                break
            new_value = annotation.old_value
        return pair

    def add_pairs(self, source: str, label: str) -> list[tuple[Timestamp, str]]:
        """``addFun(n, l)``: ``(time, child)`` pairs for ``add`` annotations."""
        pairs: list[tuple[Timestamp, str]] = []
        for target in self.graph.children(source, label):
            for annotation in self.arc_annotations(source, label, target):
                if isinstance(annotation, Add):
                    pairs.append((annotation.at, target))
        return pairs

    def rem_pairs(self, source: str, label: str) -> list[tuple[Timestamp, str]]:
        """``remFun(n, l)``: ``(time, child)`` pairs for ``rem`` annotations."""
        pairs: list[tuple[Timestamp, str]] = []
        for target in self.graph.children(source, label):
            for annotation in self.arc_annotations(source, label, target):
                if isinstance(annotation, Rem):
                    pairs.append((annotation.at, target))
        return pairs

    # ------------------------------------------------------------------
    # Liveness: which nodes/arcs belong to the snapshot at time t
    # ------------------------------------------------------------------

    def arc_live_at(self, source: str, label: str, target: str,
                    when: object) -> bool:
        """Was the arc present in the snapshot at time ``when``?

        The latest annotation with timestamp <= t decides: ``add`` means
        present, ``rem`` means absent.  With no annotation <= t the arc is
        present iff it existed *originally* -- i.e. it has no annotations
        at all, or its earliest annotation is a ``rem`` (the same rule the
        paper states for ``O0(D)`` in Section 3.2; the paper's literal
        phrasing for ``Ot(D)`` would wrongly include arcs added after ``t``
        between pre-existing nodes, so we use the original-arc rule for the
        no-earlier-annotation case).
        """
        cutoff = parse_timestamp(when)
        return _live_at(self.arc_annotations(source, label, target), cutoff)

    def value_at(self, node_id: str, when: object) -> object:
        """``v_t(n)``: the node's value at time ``when`` (Section 3.2).

        If there are no updates after ``t``, the value is the current
        value; otherwise it is the old value stored by the earliest update
        whose timestamp exceeds ``t``.
        """
        cutoff = parse_timestamp(when)
        for annotation in self.node_annotations(node_id):
            if isinstance(annotation, Upd) and annotation.at > cutoff:
                return annotation.old_value
        return self.graph.value(node_id)

    def node_existed_at(self, node_id: str, when: object) -> bool:
        """Had the node been created by time ``when``?

        True when the node has no ``cre`` annotation (it belongs to the
        original snapshot) or its creation timestamp is <= ``when``.
        Note: *existence* is necessary but not sufficient for membership
        in the snapshot -- the node must also be reachable at that time.
        """
        cutoff = parse_timestamp(when)
        times = self.cre_times(node_id)
        if not times:
            return True
        return times[0] <= cutoff

    def live_children(self, node_id: str, when: object,
                      label: str | None = None) -> Iterator[tuple[str, str]]:
        """Iterate ``(label, child)`` over arcs from ``node_id`` live at
        ``when``, read by label from the graph's adjacency in data order."""
        labels = (label,) if label is not None \
            else tuple(self.graph.out_labels(node_id))
        cutoff = parse_timestamp(when)
        annotated = self._arc_annotations
        for name in labels:
            for target in self.graph.targets(node_id, name):
                annotations = annotated.get((node_id, name, target))
                if not annotations or _live_at(annotations, cutoff):
                    yield name, target

    def live_parents(self, node_id: str, label: str) -> Iterator[str]:
        """Sources of the ``label`` arcs into ``node_id`` that are live
        now: :meth:`live_children` read backward, at ``POS_INF``."""
        annotated = self._arc_annotations
        for arc in self.graph.in_arcs(node_id):
            if arc.label == label:
                if live_now(annotated.get(arc)):
                    yield arc.source

    def live_nodes(self) -> set[str]:
        """The nodes of the current snapshot: what the root reaches
        through arcs live now.  One walk of the whole graph."""
        live = {self.graph.root}
        frontier = [self.graph.root]
        while frontier:
            for _, child in self.live_children(frontier.pop(), POS_INF):
                if child not in live:
                    live.add(child)
                    frontier.append(child)
        return live

    def timestamps(self) -> list[Timestamp]:
        """Every distinct timestamp occurring in any annotation, sorted."""
        times: set[Timestamp] = set()
        for annotations in self._node_annotations.values():
            times.update(a.at for a in annotations)
        for annotations in self._arc_annotations.values():
            times.update(a.at for a in annotations)
        return sorted(times)

    def last_timestamp(self) -> Timestamp | None:
        """``timestamps()[-1]`` (``None`` without annotations), kept
        current by every annotation instead of recomputed from all."""
        return self._last_timestamp

    def annotation_count(self) -> int:
        """Total number of annotations in the database."""
        return (sum(len(v) for v in self._node_annotations.values())
                + sum(len(v) for v in self._arc_annotations.values()))

    def annotated_arcs(self) -> Iterator[tuple[Arc, tuple[ArcAnnotation, ...]]]:
        """Iterate over ``(arc, annotations)`` for arcs with annotations."""
        for arc, annotations in self._arc_annotations.items():
            yield arc, tuple(annotations)

    def annotated_nodes(self) -> Iterator[tuple[str, tuple[NodeAnnotation, ...]]]:
        """Iterate over ``(node, annotations)`` for nodes with annotations."""
        for node_id, annotations in self._node_annotations.items():
            yield node_id, tuple(annotations)

    def timeline(self, node_id: str) -> list[tuple[Timestamp, str]]:
        """A chronological account of everything that happened to one object.

        The paper's result UI "display[s] both the value and the history
        of the object"; this is that history, as ``(time, event)`` pairs:
        the object's creation and value updates, plus additions/removals
        of its incoming and outgoing arcs.  Events at one instant sort
        deterministically by text.
        """
        from ..oem.values import value_repr

        if not self.graph.has_node(node_id):
            raise UnknownNodeError(node_id)
        events: list[tuple[Timestamp, str]] = []
        updates = [a for a in self.node_annotations(node_id)
                   if isinstance(a, Upd)]
        for annotation in self.node_annotations(node_id):
            if isinstance(annotation, Cre):
                initial = updates[0].old_value if updates \
                    else self.graph.value(node_id)
                events.append((annotation.at,
                               f"created with value {value_repr(initial)}"))
        for when, old, new in self.upd_triples(node_id):
            events.append((when, f"value {value_repr(old)} -> "
                                 f"{value_repr(new)}"))
        for arc in self.graph.out_arcs(node_id):
            for annotation in self.arc_annotations(*arc):
                verb = "gained" if isinstance(annotation, Add) else "lost"
                events.append((annotation.at,
                               f"{verb} {arc.label!r} subobject "
                               f"&{arc.target}"))
        for arc in self.graph.in_arcs(node_id):
            for annotation in self.arc_annotations(*arc):
                verb = "linked from" if isinstance(annotation, Add) \
                    else "unlinked from"
                events.append((annotation.at,
                               f"{verb} &{arc.source} via {arc.label!r}"))
        events.sort(key=lambda event: (event[0], event[1]))
        return events

    # ------------------------------------------------------------------
    # Copying and comparison
    # ------------------------------------------------------------------

    def copy(self) -> "DOEMDatabase":
        """An independent copy (annotation lists are copied, the graph as
        :meth:`OEMDatabase.copy <repro.oem.model.OEMDatabase.copy>` does)."""
        clone = DOEMDatabase(self.graph.copy())
        clone._node_annotations = {k: list(v)
                                   for k, v in self._node_annotations.items()}
        clone._arc_annotations = {k: list(v)
                                  for k, v in self._arc_annotations.items()}
        clone._last_timestamp = self._last_timestamp
        return clone

    def same_as(self, other: "DOEMDatabase") -> bool:
        """Exact equality: identical graphs and identical annotation maps."""
        if not self.graph.same_as(other.graph):
            return False
        mine = {k: tuple(v) for k, v in self._node_annotations.items() if v}
        theirs = {k: tuple(v) for k, v in other._node_annotations.items() if v}
        if mine != theirs:
            return False
        mine_arcs = {k: tuple(v) for k, v in self._arc_annotations.items() if v}
        theirs_arcs = {k: tuple(v) for k, v in other._arc_annotations.items() if v}
        return mine_arcs == theirs_arcs

    def __repr__(self) -> str:
        return (f"<DOEMDatabase nodes={len(self.graph)} "
                f"arcs={self.graph.arc_count()} "
                f"annotations={self.annotation_count()}>")

    def describe(self, max_depth: int = 6) -> str:
        """Readable rendering of the graph with annotations inline."""
        lines = [repr(self)]
        for node_id, annotations in sorted(self._node_annotations.items()):
            if annotations:
                tags = ", ".join(str(a) for a in annotations)
                lines.append(f"  &{node_id}: {tags}")
        for arc, annotations in sorted(self._arc_annotations.items()):
            if annotations:
                tags = ", ".join(str(a) for a in annotations)
                lines.append(f"  {arc}: {tags}")
        return "\n".join(lines)
