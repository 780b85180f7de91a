"""Reference liveness: the walk ``repro.doem.build`` ran after (and, in
``apply_change_set``, also before) every change set, until the dead-node
set moved onto the database and was updated from each set's suspects.
Kept as the oracle of ``test_equivalence.py``.

``dead_nodes`` walks every live arc from the root -- one annotation
lookup per arc of the graph, dead ones included -- and is the definition
of what ``DOEMDatabase._dead_nodes`` must hold after a set.
``FullWalkApplier`` folds the four operations exactly as production does
(``_apply_op`` is not what changed) but trusts nothing kept between
sets.  ``live_children`` is the per-arc loop ``DOEMDatabase.
live_children`` ran until it read its label's targets from the adjacency:
an ``Arc`` per out-arc of every label, and per arc the annotation tuple
copied, ``when`` parsed again and (``arc_live_at``) every annotation
walked, ``POS_INF`` included.  Do not optimise this file.
"""

from __future__ import annotations

from repro.doem.annotations import Add, Rem
from repro.doem.build import DOEMApplier
from repro.doem.model import DOEMDatabase
from repro.oem.history import ChangeSet, OEMHistory
from repro.oem.model import OEMDatabase
from repro.timestamps import POS_INF, Timestamp, parse_timestamp

from tests.oem.oracle_model import deep_copy

__all__ = ["dead_nodes", "FullWalkApplier", "build_doem", "live_children",
           "arc_live_at"]


def arc_live_at(annotations, cutoff: Timestamp) -> bool:
    """The liveness rule walked over one arc's whole annotation list."""
    latest = None
    for annotation in annotations:
        if annotation.at <= cutoff:
            latest = annotation
        else:
            break
    if latest is not None:
        return isinstance(latest, Add)
    return not annotations or isinstance(annotations[0], Rem)


def live_children(doem: DOEMDatabase, node_id: str, when: object,
                  label: str | None = None):
    """``(label, child)`` over the arcs from ``node_id`` live at ``when``."""
    for arc in doem.graph.out_arcs(node_id):
        if label is not None and arc.label != label:
            continue
        cutoff = parse_timestamp(when)
        annotations = doem.arc_annotations(arc.source, arc.label, arc.target)
        if arc_live_at(annotations, cutoff):
            yield (arc.label, arc.target)


def dead_nodes(doem: DOEMDatabase) -> set[str]:
    """The nodes of the graph the current snapshot does not contain."""
    graph = doem.graph
    live = {graph.root}
    frontier = [graph.root]
    while frontier:
        node = frontier.pop()
        for arc in graph.out_arcs(node):
            if doem.arc_live_at(*arc, POS_INF) and arc.target not in live:
                live.add(arc.target)
                frontier.append(arc.target)
    return set(graph.nodes()) - live


class FullWalkApplier(DOEMApplier):
    """The applier with the unconditional walks around every set."""

    def apply(self, when: Timestamp, change_set: ChangeSet) -> None:
        self.doem._dead_nodes = dead_nodes(self.doem)
        for op in change_set.canonical_order():
            self._apply_op(op, when)
        self.doem._dead_nodes = dead_nodes(self.doem)


def build_doem(origin: OEMDatabase, history: OEMHistory) -> DOEMDatabase:
    """``D(O, H)`` over a deep copy, one full walk per change set."""
    doem = DOEMDatabase(deep_copy(origin))
    applier = FullWalkApplier(doem)
    for when, change_set in history:
        applier.apply(when, change_set)
    return doem
