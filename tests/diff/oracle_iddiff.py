"""The reference id differ: ``repro.diff.iddiff.id_diff`` as it stood
before the per-node rewrite, kept verbatim as the oracle of
``test_iddiff_equivalence.py``.

It builds sets of every node and every arc of both snapshots and
subtracts them.  The production differ must return the same operations
as a multiset (its order is its own, documented one).  Do not optimise
this file; change it only together with a deliberate change of ``U``.
"""

from __future__ import annotations

from repro.errors import DiffError
from repro.oem.changes import AddArc, ChangeOp, CreNode, RemArc, UpdNode
from repro.oem.history import ChangeSet
from repro.oem.model import OEMDatabase

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
