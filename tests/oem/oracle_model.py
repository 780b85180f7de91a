"""Reference copy, collection, extraction and packaging: ``OEMDatabase``
and ``QueryResult.as_oem`` as they stood before copies and answers shared
structure and collections started from suspects, kept as the oracle of
``test_equivalence.py`` and ``tests/lorel/test_packaging_equivalence.py``.

``deep_copy`` duplicates every adjacency container, so its result shares
nothing with the source whatever either side does next; ``unreachable``
is the unconditional breadth-first walk from the root.  Both are the
definition of what the production methods must return.  They read the
adjacency maps and nothing else: the ownership and suspect bookkeeping
of the production class is exactly what they must not depend on.
``subgraph`` scans every arc of the database and ``as_oem`` rebuilds each
selected subtree node by node, recursively (so neither is for deep
inputs): their results own every container.  Do not optimise this file.
"""

from __future__ import annotations

import copy
import itertools
from collections import deque

from repro.errors import UnknownNodeError
from repro.lorel.result import ObjectRef, QueryResult
from repro.oem.model import OEMDatabase
from repro.oem.values import COMPLEX

__all__ = ["deep_copy", "unreachable", "subgraph", "as_oem"]


def deep_copy(db: OEMDatabase) -> OEMDatabase:
    """A copy of ``db`` that owns every container from the start."""
    clone = OEMDatabase.__new__(OEMDatabase)
    clone._values = dict(db._values)
    clone._out = {node: {label: dict(targets)
                         for label, targets in by_label.items()}
                  for node, by_label in db._out.items()}
    clone._in = {node: set(arcs) for node, arcs in db._in.items()}
    clone._arc_count = db._arc_count
    clone._counter = itertools.count(next(copy.copy(db._counter)))
    clone._root = db._root
    clone._owned = None
    clone._suspects = set(db._suspects)
    return clone


def unreachable(db: OEMDatabase) -> set[str]:
    """``N`` minus the breadth-first closure of the root."""
    seen = {db.root}
    frontier = deque([db.root])
    while frontier:
        node = frontier.popleft()
        for by_label in db._out[node].values():
            for child in by_label:
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
    return set(db._values) - seen


def subgraph(db: OEMDatabase, node_id: str,
             new_root: str | None = None) -> OEMDatabase:
    """The reachable closure of ``node_id``, one scan of ``db.arcs()``."""
    if node_id not in db._values:
        raise UnknownNodeError(node_id)
    members = db.reachable(node_id)
    root_id = new_root or node_id
    extracted = OEMDatabase(root=root_id, root_value=db.value(node_id))
    for member in members:
        if member != node_id:
            extracted.create_node(member, db.value(member))
    for arc in db.arcs():
        if arc.source in members and arc.target in members:
            source = root_id if arc.source == node_id else arc.source
            target = root_id if arc.target == node_id else arc.target
            extracted.add_arc(source, arc.label, target)
    return extracted


def as_oem(result: QueryResult, source: OEMDatabase, root: str = "answer",
           preserve_ids: bool = True) -> OEMDatabase:
    """``result`` packaged through ``create_node`` / ``add_arc`` alone."""
    answer = OEMDatabase(root=root)
    copied: dict[str, str] = {}

    def copy_object(node: str) -> str:
        if node in copied:
            return copied[node]
        new_id = node if (preserve_ids and node not in answer) \
            else answer.new_node_id("a")
        answer.create_node(new_id, source.value(node))
        copied[node] = new_id
        for arc in source.out_arcs(node):
            answer.add_arc(new_id, arc.label, copy_object(arc.target))
        return new_id

    def attach(parent: str, label: str, value: object) -> None:
        if isinstance(value, ObjectRef):
            answer.add_arc(parent, label, copy_object(value.node))
        else:
            node = answer.create_node(answer.new_node_id("a"), value)
            answer.add_arc(parent, label, node)

    for row in result.rows:
        if len(row.items) == 1:
            label, value = row.items[0]
            attach(answer.root, label, value)
        else:
            row_node = answer.create_node(answer.new_node_id("row"), COMPLEX)
            answer.add_arc(answer.root, "row", row_node)
            for label, value in row.items:
                attach(row_node, label, value)
    return answer
