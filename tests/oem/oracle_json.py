"""The reference JSON bridge: ``repro.oem.serialize``'s ``to_json`` and
``from_json`` as they stood before the explicit-stack rewrite, kept
verbatim as the oracle of ``test_json_equivalence.py``.

Both recurse once per nesting level, so a deep enough chain raises
``RecursionError``; otherwise they define what the production pair must
do: the same JSON value (key order, array fan-out, shared subtrees
repeated), the same database (node identifiers and arc order), or the
same ``SerializationError``.  Do not optimise this file.
"""

from __future__ import annotations

from repro.errors import SerializationError
from repro.oem.model import OEMDatabase
from repro.oem.values import COMPLEX, is_atomic_value
from repro.timestamps import Timestamp, parse_timestamp

__all__ = ["to_json", "from_json"]


def to_json(db: OEMDatabase, node_id: str | None = None) -> object:
    """Export the tree under ``node_id`` (default: root) as a JSON value.

    Sharing collapses into repeated subtrees; a cycle raises
    :class:`~repro.errors.SerializationError` since JSON cannot express it.
    Multiple same-labeled children become JSON arrays.
    """
    start = db.root if node_id is None else node_id
    on_stack: set[str] = set()

    def walk(node: str) -> object:
        if node in on_stack:
            raise SerializationError(
                f"cycle through &{node} cannot be represented as JSON")
        value = db.value(node)
        if value is not COMPLEX:
            if isinstance(value, Timestamp):
                return f"@{value}"
            return value
        on_stack.add(node)
        result: dict[str, object] = {}
        for label in sorted(db.out_labels(node)):
            kids = [walk(child) for child in db.children(node, label)]
            result[label] = kids[0] if len(kids) == 1 else kids
        on_stack.discard(node)
        return result

    return walk(start)


def from_json(value: object, root: str = "root") -> OEMDatabase:
    """Import a JSON value as a tree-shaped OEM database.

    Objects become complex nodes, arrays fan out same-labeled arcs (the
    array must appear as an object member), and scalars become atomic
    nodes.  A top-level scalar becomes a single ``value``-labeled child of
    the root, keeping the root complex as Definition 2.1 requires of
    parents.
    """
    db = OEMDatabase(root=root)

    def attach(parent: str, label: str, item: object) -> None:
        if isinstance(item, dict):
            node = db.create_node(db.new_node_id(), COMPLEX)
            db.add_arc(parent, label, node)
            for key, child in item.items():
                if isinstance(child, list):
                    for element in child:
                        attach(node, key, element)
                else:
                    attach(node, key, child)
        elif isinstance(item, list):
            for element in item:
                attach(parent, label, element)
        elif item is None:
            node = db.create_node(db.new_node_id(), "")
            db.add_arc(parent, label, node)
        elif isinstance(item, str) and item.startswith("@"):
            node = db.create_node(db.new_node_id(), parse_timestamp(item[1:]))
            db.add_arc(parent, label, node)
        elif is_atomic_value(item):
            node = db.create_node(db.new_node_id(), item)  # type: ignore[arg-type]
            db.add_arc(parent, label, node)
        else:
            raise SerializationError(f"cannot import JSON value {item!r}")

    if isinstance(value, dict):
        for key, child in value.items():
            if isinstance(child, list):
                for element in child:
                    attach(db.root, key, element)
            else:
                attach(db.root, key, child)
    else:
        attach(db.root, "value", value)
    return db
