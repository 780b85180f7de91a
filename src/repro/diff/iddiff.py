"""Identifier-based differencing: the fast path for cooperative sources.

OEMdiff's matcher exists because autonomous sources expose no stable
object identity (Section 6).  But when a source *does* preserve
identifiers between polls -- a wrapped relational system, an export with
primary keys -- differencing degenerates to set comparison: no matching,
no similarity scoring, strictly linear.

:func:`id_diff` computes ``U`` with ``U(old) == new`` **exactly** (same
identifiers, not just isomorphic), under the assumption that equal ids
denote the same object.  The QSS :class:`~repro.qss.managers.DOEMManager`
accepts ``differ="ids"`` to use it; ``tests/paper/test_diff.py`` counts
its operations against the matcher's.
"""

from __future__ import annotations

from ..errors import DiffError
from ..oem.changes import AddArc, ChangeOp, CreNode, RemArc, UpdNode
from ..oem.history import ChangeSet
from ..oem.model import OEMDatabase

__all__ = ["id_diff"]


def id_diff(old_db: OEMDatabase, new_db: OEMDatabase) -> ChangeSet:
    """Infer the change set between two snapshots sharing identifiers.

    Preconditions: the roots have equal identifiers, and no identifier of
    a node *deleted* from ``old_db`` is recycled for an unrelated object
    in ``new_db`` (the paper's id-discipline).  Violations surface as
    value updates or arc rewires rather than errors -- equal ids are
    trusted, that is the contract.
    """
    if old_db.root != new_db.root:
        raise DiffError(
            f"id_diff requires matching roots "
            f"({old_db.root!r} != {new_db.root!r}); use oem_diff for "
            f"sources without stable identifiers")

    ops: list[ChangeOp] = []
    old_nodes = set(old_db.nodes())
    new_nodes = set(new_db.nodes())

    for node in new_nodes - old_nodes:
        ops.append(CreNode(node, new_db.value(node)))
    for node in old_nodes & new_nodes:
        if old_db.value(node) != new_db.value(node):
            ops.append(UpdNode(node, new_db.value(node)))

    old_arcs = set(old_db.arcs())
    new_arcs = set(new_db.arcs())
    for arc in new_arcs - old_arcs:
        ops.append(AddArc(*arc))
    for arc in old_arcs - new_arcs:
        # Arcs inside a fully deleted subtree die by unreachability, but
        # distinguishing them from rewires requires reachability math
        # that costs more than emitting the removal; emit unless the
        # source endpoint itself disappeared (then GC handles the rest).
        if arc.source in new_nodes:
            ops.append(RemArc(*arc))

    return ChangeSet(ops)
