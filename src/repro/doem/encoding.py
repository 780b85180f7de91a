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

User labels must not start with ``&`` -- the paper reserves that prefix
for the encoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import EncodingError
from ..lore.indexes import _Column
from ..oem.model import Arc, OEMDatabase
from ..oem.values import COMPLEX
from ..timestamps import POS_INF, Timestamp, order_tick
from .annotations import Add, Cre, Rem, Upd
from .model import DOEMDatabase

__all__ = ["EncodedDOEM", "encode_doem", "decode_doem",
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
