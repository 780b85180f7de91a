"""Query results: rows of labeled values, packagable as an OEM database.

Lore packages every query answer as an OEM object (Example 4.4 shows the
``answer`` object for a three-item select).  :class:`QueryResult` keeps the
rows in their raw, convenient Python shape and offers :meth:`QueryResult.as_oem`
to build the answer database -- including the *recursive subobject
closure* that QSS polling relies on: "the result of a polling query
includes (recursively) all subobjects of the objects in the query answer,
and ... the result is 'packaged' as an OEM database" (Section 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from ..oem.model import OEMDatabase
from ..oem.values import COMPLEX, Value, value_repr

__all__ = ["ObjectRef", "Row", "QueryResult"]


@dataclass(frozen=True)
class ObjectRef:
    """A selected *object* (as opposed to a scalar annotation value).

    ``at`` carries the virtual-annotation time context when the object was
    selected through ``<at T>`` (None = current).
    """

    node: str
    at: object = None

    def __str__(self) -> str:
        return f"&{self.node}"


@dataclass(frozen=True)
class Row:
    """One result row: a tuple of ``(label, value)`` pairs.

    Values are :class:`ObjectRef` for selected objects and plain Python
    values (int, float, str, bool, Timestamp) for scalars.
    """

    items: tuple[tuple[str, object], ...]

    def __getitem__(self, label: str) -> object:
        for key, value in self.items:
            if key == label:
                return value
        raise KeyError(label)

    def get(self, label: str, default: object = None) -> object:
        """The first value under ``label``, or ``default``."""
        for key, value in self.items:
            if key == label:
                return value
        return default

    def labels(self) -> list[str]:
        """The labels of this row, in select-clause order."""
        return [key for key, _ in self.items]

    def values(self) -> list[object]:
        """The values of this row, in select-clause order."""
        return [value for _, value in self.items]

    def scalar(self) -> object:
        """The single value of a one-item row (raises otherwise)."""
        if len(self.items) != 1:
            raise ValueError(f"row has {len(self.items)} items, not 1")
        return self.items[0][1]

    def __str__(self) -> str:
        body = ", ".join(f"{key}: {value}" for key, value in self.items)
        return "{" + body + "}"


class QueryResult:
    """An ordered, duplicate-free collection of result rows."""

    def __init__(self, rows: Sequence[Row] = ()) -> None:
        self.rows: list[Row] = []
        self._seen: set[tuple] = set()
        for row in rows:
            self.add(row)

    def add(self, row: Row) -> None:
        """Append ``row`` unless an identical row is already present.

        Lorel results have set semantics; duplicates arise naturally from
        multiple derivations of the same binding.
        """
        key = row.items
        if key not in self._seen:
            self._seen.add(key)
            self.rows.append(row)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def first(self) -> Row:
        """The first row (raises IndexError when empty)."""
        return self.rows[0]

    def column(self, label: str) -> list[object]:
        """All values under ``label`` across rows (missing rows skipped)."""
        sentinel = object()
        values = [row.get(label, sentinel) for row in self.rows]
        return [value for value in values if value is not sentinel]

    def objects(self) -> list[str]:
        """Node ids of every :class:`ObjectRef` in the result, row order."""
        found: list[str] = []
        for row in self.rows:
            for _, value in row.items:
                if isinstance(value, ObjectRef):
                    found.append(value.node)
        return found

    def scalars(self) -> list[object]:
        """The single-column scalar values (for one-item selects)."""
        return [row.scalar() for row in self.rows]

    def __str__(self) -> str:
        if not self.rows:
            return "(empty result)"
        return "\n".join(str(row) for row in self.rows)

    # ------------------------------------------------------------------

    def as_oem(self, source: OEMDatabase,
               root: str = "answer",
               preserve_ids: bool = True) -> OEMDatabase:
        """Package the result as an OEM ``answer`` database.

        Selected objects are copied out of ``source`` together with the
        recursive closure of their subobjects (cycles included); scalars
        become atomic subobjects.  Each row hangs off the answer root: a
        one-item row directly under its label, a multi-item row under a
        ``row`` complex object whose children carry the item labels (the
        shape of Example 4.4's answer object).

        ``preserve_ids`` keeps the source node identifiers in the copy
        (handy for joining results back to the database); pass False to
        mint fresh ones, e.g. when simulating an autonomous source that
        does not expose stable identifiers.  With identifiers kept, answer
        and ``source`` share a copied node's arcs until either writes that
        node (docs/model.md, "What copies and collections cost").
        """
        answer = OEMDatabase(root=root)
        ids: dict[str, str] = {}

        def attach(parent: str, label: str, value: object) -> None:
            if isinstance(value, ObjectRef):
                node = answer.adopt_closure(source, value.node, ids,
                                            preserve_ids)
            else:
                node = answer.create_node(answer.new_node_id("a"), value)
            answer.add_arc(parent, label, node)

        for row in self.rows:
            if len(row.items) == 1:
                label, value = row.items[0]
                attach(answer.root, label, value)
            else:
                row_node = answer.create_node(answer.new_node_id("row"), COMPLEX)
                answer.add_arc(answer.root, "row", row_node)
                for label, value in row.items:
                    attach(row_node, label, value)
        answer.share_adopted(source, ids if preserve_ids else {})
        return answer
