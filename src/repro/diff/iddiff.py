"""Identifier-based differencing: the fast path for cooperative sources.

OEMdiff's matcher exists because autonomous sources expose no stable
object identity (Section 6).  But when a source *does* preserve
identifiers between polls -- a wrapped relational system, an export with
primary keys -- differencing degenerates to comparing each node with its
namesake: no matching, no similarity scoring.

:func:`id_diff` computes ``U`` with ``U(old) == new`` **exactly** (same
identifiers, not just isomorphic), under the assumption that equal ids
denote the same object.  It costs a value and a ``label -> targets`` map
comparison per node of ``new`` (a map shared with ``old`` compares by
identity) plus the arcs of the nodes whose map differs.  QSS uses it under
``DOEMManager(differ="ids")``, which reserves ``~`` in source identifiers
(docs/qss.md); ``tests/paper/test_diff.py`` counts its operations against
the matcher's.
"""

from __future__ import annotations

from ..errors import DiffError, UnknownNodeError
from ..oem.changes import AddArc, CreNode, RemArc, UpdNode
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

    The operations come out as creates, updates, adds, removes, each in
    ``new_db``'s node order (arcs in data order), whatever the hash seed.
    No ``remArc`` leaves a node missing from ``new_db``: its arcs die with
    it by unreachability.
    """
    if old_db.root != new_db.root:
        raise DiffError(
            f"id_diff requires matching roots "
            f"({old_db.root!r} != {new_db.root!r}); use oem_diff for "
            f"sources without stable identifiers")

    creates, updates, adds, removes = [], [], [], []
    for node in new_db.nodes():
        value, by_label = new_db.value(node), new_db.out_map(node)
        try:
            had = old_db.out_map(node)
        except UnknownNodeError:
            creates.append(CreNode(node, value))
            had = {}
        else:
            if old_db.value(node) != value:
                updates.append(UpdNode(node, value))
            if by_label is had or by_label == had:
                continue
        for label, targets in by_label.items():
            old_targets = had.get(label, ())
            adds.extend(AddArc(node, label, target) for target in targets
                        if target not in old_targets)
        for label, targets in had.items():
            new_targets = by_label.get(label, ())
            removes.extend(RemArc(node, label, target) for target in targets
                           if target not in new_targets)
    return ChangeSet(creates + updates + adds + removes)
