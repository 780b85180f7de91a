"""Constructing the DOEM database ``D(O, H)`` (Section 3.1).

Starting from the OEM database ``O`` with empty annotation sets, each
timestamped change set of the history is *folded into* the graph:

* ``updNode`` performs the update **and** attaches ``upd(t, old value)``;
* ``creNode`` creates the node and attaches ``cre(t)``;
* ``addArc`` adds the arc and attaches ``add(t)`` (re-adding a previously
  removed arc annotates the existing, dead arc);
* ``remArc`` does **not** remove the arc -- it attaches ``rem(t)``.

"This representation directly stores the changes themselves, not the
before and after images of the changes, and thus takes the snapshot-delta
approach."

Because removed arcs linger, operation validity is checked against the
*conceptual current snapshot* (liveness via annotations), not against the
raw DOEM graph.

Index and cache maintenance: every operation the applier folds in ends in
an ``annotate_node``/``annotate_arc`` call, which bumps the database's
generation counter and notifies attached listeners -- this is how a
:class:`~repro.lore.indexes.TimestampIndex` stays current without
rebuilds.  Raw graph mutations additionally call
:meth:`~repro.doem.model.DOEMDatabase.touch` so the fingerprint moves even
mid-operation.  A change set later than every annotation ends in one
append notice carrying the fingerprints before and after it:
:class:`~repro.doem.snapshot.SnapshotCache` then drops only checkpoints
at or after the append and :class:`~repro.lore.indexes.PathIndex` only
paths through a label the set adds or removes.  Anything else that moves
the fingerprint (``touch``, raw edits, out-of-order sets) leaves them
stale, and they drop everything at their next lookup.
"""

from __future__ import annotations

from typing import Iterable

from ..errors import InvalidChangeError
from ..oem.changes import AddArc, ChangeOp, CreNode, RemArc, UpdNode
from ..oem.history import ChangeSet, OEMHistory
from ..oem.model import OEMDatabase, stranded
from ..oem.values import COMPLEX
from ..timestamps import POS_INF, Timestamp
from .annotations import Add, Cre, Rem, Upd
from .model import DOEMDatabase

__all__ = ["build_doem", "apply_change_set", "DOEMApplier"]


class DOEMApplier:
    """Folds change sets into a DOEM database, one :meth:`apply` each.

    Which nodes are deleted from the current snapshot is kept on the
    database with the fingerprint it holds for, so every applier -- each
    poll's :func:`apply_change_set`, a trigger manager's long-lived one --
    continues where the last stopped, and a database changed behind their
    back (by hand, ``decode``, ``compact``) is walked afresh.
    """

    def __init__(self, doem: DOEMDatabase) -> None:
        self.doem = doem

    # -- liveness helpers (current conceptual snapshot) -----------------

    def _node_is_live(self, node_id: str) -> bool:
        return self.doem.graph.has_node(node_id) \
            and node_id not in self.doem._dead_nodes

    def _arc_is_live(self, source: str, label: str, target: str) -> bool:
        if not self.doem.graph.has_arc(source, label, target):
            return False
        return self.doem.arc_live_at(source, label, target, POS_INF)

    def _live_children_exist(self, node_id: str) -> bool:
        return any(True for _ in self.doem.live_children(node_id, POS_INF))

    # -- the four operations --------------------------------------------

    def _apply_op(self, op: ChangeOp, when: Timestamp) -> None:
        graph = self.doem.graph
        if isinstance(op, CreNode):
            if graph.has_node(op.node):
                raise InvalidChangeError(
                    f"creNode: identifier {op.node!r} already used "
                    f"(identifiers of deleted nodes are not reused)")
            graph.create_node(op.node, op.value)
            self.doem.touch()
            self.doem.annotate_node(op.node, Cre(when))
        elif isinstance(op, UpdNode):
            if not self._node_is_live(op.node):
                raise InvalidChangeError(f"updNode: node {op.node!r} is not live")
            if op.value is not COMPLEX and self._live_children_exist(op.node):
                raise InvalidChangeError(
                    f"updNode({op.node}): object still has live subobjects")
            old_value = graph.value(op.node)
            graph._values[op.node] = op.value  # bypass child check: dead arcs linger
            self.doem.touch()
            self.doem.annotate_node(op.node, Upd(when, old_value))
        elif isinstance(op, AddArc):
            if not self._node_is_live(op.source):
                raise InvalidChangeError(f"addArc: parent {op.source!r} is not live")
            if not self._node_is_live(op.target):
                raise InvalidChangeError(f"addArc: child {op.target!r} is not live")
            if not graph.is_complex(op.source):
                raise InvalidChangeError(f"addArc: parent {op.source!r} is atomic")
            if self._arc_is_live(*op.arc):
                raise InvalidChangeError(f"addArc: arc {op.arc} already present")
            if not graph.has_arc(*op.arc):
                graph.add_arc(*op.arc)
                self.doem.touch()
            self.doem.annotate_arc(op.source, op.label, op.target, Add(when))
        elif isinstance(op, RemArc):
            if not self._arc_is_live(*op.arc):
                raise InvalidChangeError(f"remArc: arc {op.arc} is not present")
            self.doem.annotate_arc(op.source, op.label, op.target, Rem(when))
        else:  # pragma: no cover - exhaustiveness guard
            raise InvalidChangeError(f"unknown change operation: {op!r}")

    def apply(self, when: Timestamp, change_set: ChangeSet) -> None:
        """Fold one timestamped change set into the DOEM database.

        Operations run in the canonical order (cre -> rem -> upd -> add);
        afterwards, nodes unreachable in the *current snapshot* are marked
        dead (Section 2.2's deletion rule), though their history stays in
        the graph.  Only what the set's ``remArc`` targets and created
        nodes reach through live arcs is examined (``stranded``): a dead
        node never revives, since ``addArc`` to one is refused.

        A set later than every annotation held ends in an append notice
        to the database's listeners (``_on_append``, with the fingerprint
        before and after): nothing at an earlier time changed.
        """
        doem = self.doem
        before = doem.fingerprint()
        newest = doem.last_timestamp()
        if doem._dead_as_of != before:
            self._mark_dead_nodes()
        dead = doem._dead_nodes
        suspects = []
        for op in change_set.canonical_order():
            self._apply_op(op, when)
            if isinstance(op, CreNode):
                suspects.append(op.node)
            elif isinstance(op, RemArc):
                suspects.append(op.target)
        doomed = stranded(
            suspects, doem.graph.root,
            lambda node: (child for _, child
                          in doem.live_children(node, POS_INF)),
            lambda node: (arc.source for arc in doem.graph.in_arcs(node)
                          if arc.source not in dead
                          and doem.arc_live_at(*arc, POS_INF)),
            len(doem.graph))
        if doomed is None:
            self._mark_dead_nodes()
        else:
            dead |= doomed
            doem._dead_as_of = doem.fingerprint()
        if newest is None or newest < when:
            doem._notify("_on_append", before, doem.fingerprint(), when,
                         change_set)

    def _mark_dead_nodes(self) -> None:
        """Mark nodes unreachable through live arcs as conceptually deleted:
        the full walk, where no liveness was kept or too much is suspect."""
        doem = self.doem
        doem._dead_nodes = set(doem.graph.nodes()) - doem.live_nodes()
        doem._dead_as_of = doem.fingerprint()


def apply_change_set(doem: DOEMDatabase, when: object,
                     change_set: ChangeSet | Iterable[ChangeOp]) -> DOEMDatabase:
    """Fold one change set into ``doem`` (convenience wrapper)."""
    from ..timestamps import parse_timestamp
    if not isinstance(change_set, ChangeSet):
        change_set = ChangeSet(change_set)
    DOEMApplier(doem).apply(parse_timestamp(when), change_set)
    return doem


def build_doem(origin: OEMDatabase, history: OEMHistory) -> DOEMDatabase:
    """Construct ``D(O, H)`` for an OEM database and a valid history.

    ``origin`` is copied; the result owns its own graph.  Raises
    :class:`~repro.errors.InvalidChangeError` if the history is not valid
    for ``origin``.
    """
    doem = DOEMDatabase(origin.copy())
    applier = DOEMApplier(doem)
    for when, change_set in history:
        applier.apply(when, change_set)
    return doem
