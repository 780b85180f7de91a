"""Reference liveness: the walk ``repro.doem.build`` ran after (and, in
``apply_change_set``, also before) every change set, until the dead-node
set moved onto the database and was updated from each set's suspects.
Kept as the oracle of ``test_equivalence.py``.

``dead_nodes`` walks every live arc from the root -- one annotation
lookup per arc of the graph, dead ones included -- and is the definition
of what ``DOEMDatabase._dead_nodes`` must hold after a set.
``FullWalkApplier`` folds the four operations exactly as production does
(``_apply_op`` is not what changed) but trusts nothing kept between
sets.  Do not optimise this file.
"""

from __future__ import annotations

from repro.doem.build import DOEMApplier
from repro.doem.model import DOEMDatabase
from repro.oem.history import ChangeSet, OEMHistory
from repro.oem.model import OEMDatabase
from repro.timestamps import POS_INF, Timestamp

from tests.oem.oracle_model import deep_copy

__all__ = ["dead_nodes", "FullWalkApplier", "build_doem"]


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
