"""Encoding DOEM databases in plain OEM (Section 5.1), and decoding back.

The paper implements DOEM "on top of" Lore by storing an OEM encoding of
each DOEM database and translating Chorel to Lorel over that encoding.
For each object ``o`` of the DOEM database there is an encoding object
``o'`` (we reuse the same identifier, which makes cross-backend result
comparison trivial) with these subobjects:

* ``&val`` -- an atomic node holding the current value when ``o`` is
  atomic; a self-loop when ``o`` is complex;
* ``&cre`` -- an atomic timestamp subobject per ``cre`` annotation;
* ``&upd`` -- one complex subobject per ``upd`` annotation, with
  ``&time``, ``&ov`` (old value) and ``&nv`` (new value, stored
  redundantly "for efficiency and ease of translation");
* ``l`` -- a direct arc to ``p'`` for every arc ``(o, l, p)`` in the
  **current snapshot** (so plain Lorel queries default to the current
  state);
* ``&l-history`` -- one history object per arc ``(o, l, p)`` of the DOEM
  graph (live or removed), with ``&target`` and one ``&add``/``&rem``
  atomic timestamp subobject per annotation.

Values that are the reserved value C (an old/new value may be complex)
are encoded as childless complex nodes.  Objects left with no incoming
arcs (conceptually deleted but historically relevant) hang off the root
via ``&orphan`` arcs so the encoding is a *legal* OEM database.

Beside it sits Lore's value index over the time atoms: one time-ordered
column per reserved time label, filled as the atoms are emitted.

:class:`EncodingView` is the same encoding as a view: every object of it
is a function of one DOEM node, arc or annotation, so the view answers
from the DOEM's own records and builds nothing.  :func:`encode_doem`
materialises it; it stays for the ``H(D)`` round trip through
:func:`decode_doem` and as the view's oracle.

User labels must not start with ``&`` -- the paper reserves that prefix
for the encoding.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..errors import EncodingError
from ..lore.indexes import _Column
from ..lorel.views import DataView
from ..oem.model import Arc, OEMDatabase
from ..oem.values import COMPLEX
from ..timestamps import POS_INF, Timestamp, order_tick
from .annotations import Add, Cre, Rem, Upd
from .model import DOEMDatabase, _live_at

__all__ = ["EncodedDOEM", "EncodingView", "encode_doem", "decode_doem",
           "history_label", "label_from_history"]

VAL = "&val"
CRE = "&cre"
UPD = "&upd"
TIME = "&time"
OV = "&ov"
NV = "&nv"
TARGET = "&target"
ADD = "&add"
REM = "&rem"
ORPHAN = "&orphan"
# The tag of a history object's id; never a label.
HISTORY = "&history"


def history_label(label: str) -> str:
    """The ``&l-history`` label for a user label ``l``."""
    return f"&{label}-history"


def label_from_history(label: str) -> str | None:
    """Invert :func:`history_label`; None when ``label`` is not one."""
    if label.startswith("&") and label.endswith("-history"):
        return label[1:-len("-history")]
    return None


@dataclass
class EncodedDOEM:
    """The OEM encoding of a DOEM database.

    ``oem`` is the encoding itself; ``object_ids`` is the set of encoding
    objects ``o'`` (one per DOEM object, same identifiers), distinguishing
    them from auxiliary nodes (values, update records, history objects).
    ``time_columns`` maps each time label to the ``lore.indexes._Column``
    of its atoms, in time order (emission order within one time).
    """

    oem: OEMDatabase
    object_ids: set[str] = field(default_factory=set)
    time_columns: dict[str, _Column] = field(default_factory=dict)

    def is_encoding_object(self, node_id: str) -> bool:
        """True when ``node_id`` encodes a DOEM object (not an auxiliary)."""
        return node_id in self.object_ids


def encode_doem(doem: DOEMDatabase) -> EncodedDOEM:
    """Encode ``doem`` as a plain OEM database per Section 5.1."""
    for node_id in doem.graph.nodes():
        for label in doem.graph.out_labels(node_id):
            if label.startswith("&"):
                raise EncodingError(
                    f"user label {label!r} starts with '&', which is "
                    f"reserved for the DOEM encoding")

    source = doem.graph
    encoded = OEMDatabase(root=source.root)
    object_ids: set[str] = set()

    # Pass 1: one complex encoding object per DOEM object.
    for node_id in source.nodes():
        if node_id != source.root:
            encoded.create_node(node_id, COMPLEX)
        object_ids.add(node_id)

    def fresh(prefix: str) -> str:
        return encoded.create_node(encoded.new_node_id(prefix), COMPLEX)

    def atom(prefix: str, value: object) -> str:
        node = encoded.new_node_id(prefix)
        if value is COMPLEX:
            # The reserved value C encodes as a childless complex node.
            encoded.create_node(node, COMPLEX)
        else:
            encoded.create_node(node, value)  # type: ignore[arg-type]
        return node

    timed: dict[str, list] = {label: [] for label in (CRE, TIME, ADD, REM)}

    def time_atom(label: str, prefix: str, when: Timestamp) -> str:
        node = atom(prefix, when)
        timed[label].append((order_tick(when), when, node))
        return node

    # Pass 2: values and node annotations.
    for node_id in source.nodes():
        value = source.value(node_id)
        if value is COMPLEX:
            encoded.add_arc(node_id, VAL, node_id)  # self-loop marks complex
        else:
            encoded.add_arc(node_id, VAL, atom("v", value))
        for annotation in doem.node_annotations(node_id):
            if isinstance(annotation, Cre):
                encoded.add_arc(node_id, CRE,
                                time_atom(CRE, "c", annotation.at))
            else:
                record = fresh("u")
                encoded.add_arc(node_id, UPD, record)
                encoded.add_arc(record, TIME,
                                time_atom(TIME, "t", annotation.at))
                encoded.add_arc(record, OV, atom("o", annotation.old_value))
        # The redundant &nv subobjects, chained from the upd triples.
        for when, _old, new in doem.upd_triples(node_id):
            record = _find_upd_record(encoded, node_id, when)
            encoded.add_arc(record, NV, atom("n", new))

    # Pass 3: arcs -- direct arcs for the current snapshot, plus history
    # objects for every arc.
    for arc in source.arcs():
        annotations = doem.arc_annotations(*arc)
        if doem.arc_live_at(arc.source, arc.label, arc.target, POS_INF):
            encoded.add_arc(arc.source, arc.label, arc.target)
        record = fresh("h")
        encoded.add_arc(arc.source, history_label(arc.label), record)
        encoded.add_arc(record, TARGET, arc.target)
        for annotation in annotations:
            kind = ADD if isinstance(annotation, Add) else REM
            encoded.add_arc(record, kind, time_atom(kind, "a", annotation.at))

    # Pass 4: keep conceptually-deleted objects reachable.  One global
    # reachability pass, then incremental closure per attached orphan
    # (attaching X may make other would-be orphans reachable through it).
    reachable = encoded.reachable()
    for node_id in sorted(object_ids):
        if node_id in reachable:
            continue
        encoded.add_arc(encoded.root, ORPHAN, node_id)
        stack = [node_id]
        reachable.add(node_id)
        while stack:
            current = stack.pop()
            for child in encoded.children(current):
                if child not in reachable:
                    reachable.add(child)
                    stack.append(child)

    encoded.check()
    # A stable sort: the atoms of one time stay in emission order.
    columns = {label: _Column(sorted(entries, key=lambda entry: entry[0]))
               for label, entries in timed.items()}
    return EncodedDOEM(oem=encoded, object_ids=object_ids,
                       time_columns=columns)


def _find_upd_record(encoded: OEMDatabase, node_id: str,
                     when: Timestamp) -> str:
    """Locate the ``&upd`` record of ``node_id`` whose ``&time`` equals ``when``."""
    for record in encoded.children(node_id, UPD):
        for time_node in encoded.children(record, TIME):
            if encoded.value(time_node) == when:
                return record
    raise EncodingError(
        f"no &upd record at {when} under {node_id!r}")  # pragma: no cover


def decode_doem(encoded: EncodedDOEM) -> DOEMDatabase:
    """Invert :func:`encode_doem`, recovering the DOEM database.

    Raises :class:`~repro.errors.EncodingError` on malformed encodings
    (missing ``&val``, a history object without ``&target``, ...).  The
    direct (current-snapshot) arcs are not consulted except for a
    consistency check; all arc information comes from the ``&l-history``
    objects, as the translation scheme intends.
    """
    oem = encoded.oem
    object_ids = encoded.object_ids
    if oem.root not in object_ids:
        raise EncodingError("encoding root is not an encoding object")

    graph = OEMDatabase(root=oem.root)
    doem = DOEMDatabase(graph)

    def decoded_value(value_node: str) -> object:
        if oem.is_complex(value_node):
            return COMPLEX
        return oem.value(value_node)

    # Nodes first (all complex for now -- a DOEM graph may hold an atomic
    # node with lingering removed arcs, so values are set after arcs).
    values: dict[str, object] = {}
    for node_id in sorted(object_ids):
        val_children = list(oem.children(node_id, VAL))
        if len(val_children) != 1:
            raise EncodingError(
                f"object {node_id!r} must have exactly one &val subobject")
        val_node = val_children[0]
        if val_node == node_id:
            value = COMPLEX
        else:
            value = decoded_value(val_node)
            if value is COMPLEX:
                raise EncodingError(
                    f"&val of atomic object {node_id!r} is complex")
        values[node_id] = value
        if node_id != graph.root:
            graph.create_node(node_id, COMPLEX)

    # Node annotations.
    for node_id in sorted(object_ids):
        for cre_node in oem.children(node_id, CRE):
            doem.annotate_node(node_id, Cre(_timestamp(oem, cre_node)))
        for record in oem.children(node_id, UPD):
            times = [_timestamp(oem, t) for t in oem.children(record, TIME)]
            olds = [decoded_value(o) for o in oem.children(record, OV)]
            if len(times) != 1 or len(olds) != 1:
                raise EncodingError(
                    f"malformed &upd record under {node_id!r}")
            doem.annotate_node(node_id, Upd(times[0], olds[0]))

    # Arcs from history objects; then annotations.
    for node_id in sorted(object_ids):
        for label in list(oem.out_labels(node_id)):
            base = label_from_history(label)
            if base is None:
                continue
            for record in oem.children(node_id, label):
                targets = list(oem.children(record, TARGET))
                if len(targets) != 1:
                    raise EncodingError(
                        f"history object under {node_id!r} lacks a single "
                        f"&target")
                target = targets[0]
                if target not in object_ids:
                    raise EncodingError(
                        f"history &target {target!r} is not an encoding object")
                graph.add_arc(node_id, base, target)
                for add_node in oem.children(record, ADD):
                    doem.annotate_arc(node_id, base, target,
                                      Add(_timestamp(oem, add_node)))
                for rem_node in oem.children(record, REM):
                    doem.annotate_arc(node_id, base, target,
                                      Rem(_timestamp(oem, rem_node)))

    # Now set the node values, bypassing the no-children check exactly the
    # way build_doem does when an update turns a complex object atomic
    # while removed arcs linger in the graph.
    for node_id, value in values.items():
        graph._values[node_id] = value

    # Consistency: every direct (non-&) arc must be live in the decoding.
    for arc in oem.arcs():
        if arc.source in object_ids and not arc.label.startswith("&"):
            if not doem.arc_live_at(arc.source, arc.label, arc.target, POS_INF):
                raise EncodingError(
                    f"direct arc {arc} is not live in the decoded history")

    return doem


def _timestamp(oem: OEMDatabase, node_id: str) -> Timestamp:
    value = oem.value(node_id)
    if not isinstance(value, Timestamp):
        raise EncodingError(
            f"expected a timestamp value at {node_id!r}, found {value!r}")
    return value


# The time labels, and the annotation kind of the index column each reads.
_TIME_KINDS = {CRE: "cre", TIME: "upd", ADD: "add", REM: "rem"}
_ARC_KINDS = {ADD: Add, REM: Rem}


def _up(node: tuple) -> tuple[object, str]:
    """A derived object's one parent, and the label it hangs under."""
    subject, tag = node[0], node[1]
    if tag in (TIME, OV, NV):
        return (subject, UPD, node[2]), tag
    if tag in (ADD, REM):
        return (subject, HISTORY), tag
    if tag == HISTORY:
        return subject.source, history_label(subject.label)
    return subject, tag  # &val, &cre and &upd hang under their object


class EncodingView(DataView):
    """The encoding of a DOEM database as of one time, read in place.

    ``tau`` is the database's last timestamp when the view is made
    (``POS_INF`` for a database without history).  Annotations after it
    are invisible, and so are nodes created and arcs first added after
    it: the view answers as :func:`encode_doem` of the database built
    from the history up to ``tau`` would -- the same values and the same
    children, in the same order -- however far the database has moved
    since.

    An encoding object keeps its DOEM node's identifier.  A derived
    object's id is a tuple, its subject (a node id, or the arc of a
    history object) and then a tag, so it never equals a DOEM identifier:

    * ``(n, "&val")`` -- the atom holding an atomic ``n``'s value;
    * ``(n, "&cre", i)``, ``(n, "&upd", i)``, and ``(n, "&time", i)``,
      ``(n, "&ov", i)``, ``(n, "&nv", i)`` below the latter -- for ``n``'s
      ``i``-th annotation;
    * ``(arc, "&history")`` -- the ``&l-history`` object of ``arc``; and
      ``(arc, "&add", j)``/``(arc, "&rem", j)`` -- for its ``j``-th
      annotation.

    The view keeps nothing per node.  ``time_columns`` read the
    database's own :class:`~repro.lore.indexes.TimestampIndex`, and the
    ``&orphan`` list is one walk, made the first time a query reads it.
    """

    def __init__(self, doem: DOEMDatabase,
                 names: dict[str, str] | None = None) -> None:
        root = doem.graph.root
        super().__init__({root: root} if names is None else names)
        self.doem = doem
        # The database's newest time, kept as the object: it is replaced
        # only by a strictly later one, so while it is this object no
        # annotation is after tau and the reads below filter nothing.
        self._last = doem.last_timestamp()
        self.tau = POS_INF if self._last is None else self._last
        self.time_columns = {label: _TimeColumn(self, label)
                             for label in _TIME_KINDS}
        self._orphans: list[str] | None = None
        self._orphans_lock = threading.Lock()

    # -- the DOEM's records as of tau ------------------------------------

    def _upto(self, annotations) -> list:
        """The annotations at or before ``tau``: a prefix, lists being in
        time order."""
        if not annotations:
            return []
        if self.doem._last_timestamp is self._last:
            return annotations
        end, tau = len(annotations), self.tau
        while end and tau < annotations[end - 1].at:
            end -= 1
        return annotations if end == len(annotations) else annotations[:end]

    def _created(self, node: str) -> bool:
        annotations = self.doem._node_annotations.get(node)
        return (not annotations or type(annotations[0]) is not Cre
                or self.doem._last_timestamp is self._last
                or not self.tau < annotations[0].at)

    def _arc_exists(self, annotations) -> bool:
        return (not annotations or type(annotations[0]) is Rem
                or self.doem._last_timestamp is self._last
                or not self.tau < annotations[0].at)

    def _live(self, annotations) -> bool:
        if not annotations:
            return True
        if self.doem._last_timestamp is self._last \
                or not self.tau < annotations[-1].at:
            return type(annotations[-1]) is Add
        return _live_at(annotations, self.tau)

    def _value_at(self, node: str) -> object:
        annotations = self.doem._node_annotations.get(node)
        if annotations and self.doem._last_timestamp is not self._last \
                and self.tau < annotations[-1].at:
            for annotation in annotations:
                if type(annotation) is Upd and self.tau < annotation.at:
                    return annotation.old_value
        return self.doem.graph._values[node]

    def _new_value(self, node: str, index: int) -> object:
        """The value upd ``index`` set: the next update's old value, or
        the current one (whether or not that next update is after tau)."""
        annotations = self.doem._node_annotations[node]
        for later in annotations[index + 1:]:
            if type(later) is Upd:
                return later.old_value
        return self.doem.graph._values[node]

    def _orphan_ids(self) -> list[str]:
        with self._orphans_lock:
            if self._orphans is None:
                self._orphans = self._find_orphans()
            return self._orphans

    def _find_orphans(self) -> list[str]:
        """Pass 4 of :func:`encode_doem`: the objects no arc existing at
        ``tau`` reaches from the root, each attached in id order with
        what it reaches."""
        graph, annotated = self.doem.graph, self.doem._arc_annotations
        reached: set[str] = set()

        def reach(start: str) -> None:
            reached.add(start)
            stack = [start]
            while stack:
                node = stack.pop()
                for label, targets in graph.out_map(node).items():
                    for target in targets:
                        if target not in reached and self._arc_exists(
                                annotated.get((node, label, target))):
                            reached.add(target)
                            stack.append(target)

        reach(graph.root)
        orphans = []
        for node in sorted(graph.nodes()):
            if node not in reached and self._created(node):
                orphans.append(node)
                reach(node)
        return orphans

    # -- DataView --------------------------------------------------------

    def children(self, node, label: str) -> list:
        if type(node) is not tuple:
            return self._object_children(node, label)
        subject, tag = node[0], node[1]
        if tag == UPD:
            return [(subject, label, node[2])] if label in (TIME, OV, NV) \
                else []
        if tag == HISTORY:
            if label == TARGET:
                return [subject.target]
            kind = _ARC_KINDS.get(label)
            annotations = self._upto(self.doem._arc_annotations.get(subject))
            return [(subject, label, index)
                    for index, annotation in enumerate(annotations)
                    if type(annotation) is kind]
        return []

    def _object_children(self, node: str, label: str) -> list:
        doem = self.doem
        annotated = doem._arc_annotations
        if label[0] != "&":
            return [target for target in doem.graph.targets(node, label)
                    if self._live(annotated.get((node, label, target)))]
        if label == VAL:
            return [node] if self._value_at(node) is COMPLEX \
                else [(node, VAL)]
        if label in (CRE, UPD):
            kind = Cre if label == CRE else Upd
            annotations = self._upto(doem._node_annotations.get(node))
            return [(node, label, index)
                    for index, annotation in enumerate(annotations)
                    if type(annotation) is kind]
        if label == ORPHAN:
            return list(self._orphan_ids()) if node == doem.graph.root \
                else []
        base = label_from_history(label)
        if base is None:
            return []
        return [(Arc(node, base, target), HISTORY)
                for target in doem.graph.targets(node, base)
                if self._arc_exists(annotated.get((node, base, target)))]

    def children_in(self, node, label: str, keep) -> list:
        if type(node) is tuple or label[0] == "&":
            return super().children_in(node, label, keep)
        # Membership first: most of a wide level is not kept.
        annotated = self.doem._arc_annotations
        return [target for target in self.doem.graph.targets(node, label)
                if target in keep
                and self._live(annotated.get((node, label, target)))]

    def parents(self, node, label: str) -> list:
        if type(node) is tuple:
            parent, via = _up(node)
            return [parent] if via == label else []
        doem = self.doem
        annotated = doem._arc_annotations
        if label == VAL:
            return [node] if self._value_at(node) is COMPLEX else []
        if label == ORPHAN:
            return [doem.graph.root] if node in self._orphan_ids() else []
        if label == TARGET:
            return [(arc, HISTORY) for arc in doem.graph.in_arcs(node)
                    if self._arc_exists(annotated.get(arc))]
        if label.startswith("&"):
            return []
        return [arc.source for arc in doem.graph.in_arcs(node)
                if arc.label == label and self._live(annotated.get(arc))]

    def labels(self, node) -> list[str]:
        if type(node) is tuple:
            tag = node[1]
            if tag == UPD:
                return [TIME, OV, NV]
            if tag != HISTORY:
                return []
            labels = [TARGET]
            for annotation in self._upto(
                    self.doem._arc_annotations.get(node[0])):
                label = ADD if type(annotation) is Add else REM
                if label not in labels:
                    labels.append(label)
            return labels
        doem = self.doem
        labels = [VAL]
        for annotation in self._upto(doem._node_annotations.get(node)):
            label = CRE if type(annotation) is Cre else UPD
            if label not in labels:
                labels.append(label)
        # Pass 3's order: per label, the direct arc and the history object
        # come in as the first live and the first existing arc do.
        graph, annotated = doem.graph, doem._arc_annotations
        for label in graph.out_labels(node):
            direct = history = False
            for target in graph.targets(node, label):
                annotations = annotated.get((node, label, target))
                if not self._arc_exists(annotations):
                    continue
                if not direct and self._live(annotations):
                    labels.append(label)
                    direct = True
                if not history:
                    labels.append(history_label(label))
                    history = True
                if direct:
                    break
        if node == graph.root and self._orphan_ids():
            labels.append(ORPHAN)
        return labels

    def value(self, node) -> object:
        if type(node) is not tuple:
            return COMPLEX
        subject, tag = node[0], node[1]
        if tag == UPD or tag == HISTORY:
            return COMPLEX
        if tag == TIME or tag == CRE:
            return self.doem._node_annotations[subject][node[2]].at
        if tag == OV:
            return self.doem._node_annotations[subject][node[2]].old_value
        if tag == NV:
            return self._new_value(subject, node[2])
        if tag == VAL:
            return self._value_at(subject)
        return self.doem._arc_annotations[subject][node[2]].at  # &add, &rem

    def child_values(self, nodes: list, label: str) -> list[tuple]:
        value, children = self.value, self.children
        return [(position, value(child))
                for position, node in enumerate(nodes)
                for child in children(node, label)]

    def has_node(self, node) -> bool:
        if type(node) is not tuple:
            return self.doem.graph.has_node(node) and self._created(node)
        parent, label = _up(node)
        return self.has_node(parent) and node in self.children(parent, label)

    # The encoding is a plain OEM database: its history is explicit, and
    # every time is "now".
    def children_at(self, node, label: str, when: Timestamp) -> list:
        return self.children(node, label)

    def value_at(self, node, when: Timestamp) -> object:
        return self.value(node)


class _TimeColumn:
    """One time label's atoms in time order, as of a view's ``tau``: the
    database's own index column, each subject mapped to its atoms."""

    def __init__(self, view: EncodingView, label: str) -> None:
        self.view, self.label = view, label
        self.kind = _TIME_KINDS[label]

    def between(self, low: object, high: object, include_low: bool,
                include_high: bool) -> list[tuple[Timestamp, object]]:
        doem, tau, label = self.view.doem, self.view.tau, self.label
        if label in _ARC_KINDS:
            records, kind = doem._arc_annotations, _ARC_KINDS[label]
        else:
            records = doem._node_annotations
            kind = Cre if label == CRE else Upd
        moved = doem._last_timestamp is not self.view._last
        found = []
        for when, subject in doem.timestamp_index().between(
                self.kind, low, high, include_low=include_low,
                include_high=include_high):
            if moved and tau < when:
                break
            # The index holds each annotation's own time object, and a
            # change set annotates a subject at most once per kind.
            found.extend((when, (subject, label, index))
                         for index, annotation in enumerate(records[subject])
                         if annotation.at is when and type(annotation) is kind)
        return found
