"""A Lorel-style update language compiling to basic change operations.

Section 2.1: "users will typically request 'higher-level' changes based on
the Lorel update language [AQM+96]; the basic change operations defined
here reflect the actual changes at the database level."  This module is
that bridge: declarative update statements are *planned* against a
database into a :class:`~repro.oem.history.ChangeSet` of creNode /
updNode / addArc / remArc operations, which can then be applied to an OEM
database or folded into a DOEM database with a timestamp.

Supported statements::

    update guide.restaurant.price := 25
        where guide.restaurant.name = "Janta"     -- updNode per match

    insert guide.restaurant.comment := "good"     -- creNode + addArc
        where guide.restaurant.name = "Janta"

    insert guide.restaurant := { name: "Hakata", price: 30 }

    remove guide.restaurant.parking               -- remArc per match
        where guide.restaurant.name = "Janta"

    link   guide.restaurant.annex := PATH guide.restaurant
        where ...                                 -- addArc to existing obj

The targets of ``update``/``remove`` and the parents of ``insert``/``link``
are found by evaluating the path's prefix as a Lorel query, so the full
where-clause machinery (coercion, patterns, wildcards in the prefix) is
available.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Mapping

from ..errors import ParseError, QueryError
from ..oem.changes import AddArc, ChangeOp, CreNode, RemArc, UpdNode
from ..oem.history import ChangeSet
from ..oem.model import OEMDatabase
from ..oem.values import COMPLEX, is_atomic_value
from .ast import Comparison, Condition, FromItem, Literal, PathExpr, Query, SelectItem, VarRef
from .engine import LorelEngine
from .parser import Parser
from .tokens import TokenKind

__all__ = ["UpdateStatement", "parse_update", "plan_update"]


@dataclass(frozen=True)
class UpdateStatement:
    """A parsed update statement.

    ``kind`` is ``update | insert | remove | link``; ``path`` locates the
    affected arcs/objects; ``value`` is an atomic literal or a nested
    mapping (for complex inserts); ``target_path`` is set for ``link``;
    ``where`` is an optional condition sharing prefixes with ``path``.
    """

    kind: str
    path: PathExpr
    value: object = None
    target_path: PathExpr | None = None
    where: Condition | None = None


class _UpdateParser(Parser):
    """Extends the query parser with the update-statement forms."""

    def parse_update(self) -> UpdateStatement:
        token = self._peek()
        kind = token.text.lower()
        if kind not in ("update", "insert", "remove", "link"):
            raise self._error("expected update/insert/remove/link")
        self._advance()
        path = self._path_expr()

        value: object = None
        target_path: PathExpr | None = None
        if kind in ("update", "insert", "link"):
            assign = self._peek()
            if not (assign.kind is TokenKind.COLON
                    and self._peek(1).kind is TokenKind.OP
                    and self._peek(1).text == "="):
                raise self._error("expected ':=' after the target path")
            self._advance()
            self._advance()
            if kind == "link":
                if not self._peek().is_keyword("query") and \
                        self._peek().text.upper() != "PATH":
                    raise self._error("expected 'PATH <path>' after ':='")
                self._advance()
                target_path = self._path_expr()
            else:
                value = self._value_spec()

        where = None
        if self._accept_keyword("where"):
            where = self._or_condition()
        if self._peek().kind is not TokenKind.EOF:
            raise self._error(f"trailing input: {self._peek().text!r}")
        return UpdateStatement(kind, path, value, target_path, where)

    def _value_spec(self) -> object:
        """An atomic literal or a ``{ label: value, ... }`` object spec."""
        token = self._peek()
        if token.kind in (TokenKind.INT, TokenKind.REAL, TokenKind.STRING,
                          TokenKind.TIMESTAMP):
            self._advance()
            return token.value
        if token.is_keyword("true") or token.is_keyword("false"):
            self._advance()
            return token.text.lower() == "true"
        if token.text == "{":
            raise self._error(
                "brace object specs must be passed as a Python mapping via "
                "plan_update(..., value=...); the textual form accepts only "
                "atomic literals")
        raise self._error("expected a literal value")


def parse_update(text: str) -> UpdateStatement:
    """Parse an update statement (annotation expressions rejected)."""
    return _UpdateParser(text, allow_annotations=False).parse_update()


def plan_update(db: OEMDatabase, statement: UpdateStatement | str,
                engine: LorelEngine | None = None,
                value: object = None) -> ChangeSet:
    """Plan an update statement against ``db`` into a change set.

    ``engine`` defaults to a fresh :class:`LorelEngine` over ``db``
    (named after its root).  ``value`` overrides the statement's value --
    this is how nested mappings (complex object specs) are supplied.
    The returned change set has **not** been applied, and ``db`` is left
    untouched: planning twice on one state gives equal change sets.
    """
    if isinstance(statement, str):
        statement = parse_update(statement)
    if engine is None:
        engine = LorelEngine(db)
    if value is None:
        value = statement.value

    if not statement.path.steps:
        raise QueryError("update path must have at least one step")
    prefix = PathExpr(statement.path.start, statement.path.steps[:-1])
    last_label = statement.path.steps[-1].label
    if "%" in last_label or last_label == "#":
        raise QueryError("the final step of an update path must be a "
                         "plain label")

    ops: list[ChangeOp] = []
    fresh_ids = db.next_node_ids()

    def materialize(parent: str, label: str, spec: object) -> None:
        """creNode/addArc plans for an atomic or nested-mapping spec."""
        if isinstance(spec, Mapping):
            node = next(fresh_ids)
            ops.append(CreNode(node, COMPLEX))
            ops.append(AddArc(parent, label, node))
            for key, child in spec.items():
                children = child if isinstance(child, (list, tuple)) else [child]
                for element in children:
                    materialize(node, key, element)
        elif is_atomic_value(spec):
            node = next(fresh_ids)
            ops.append(CreNode(node, spec))
            ops.append(AddArc(parent, label, node))
        else:
            raise QueryError(f"cannot materialize update value {spec!r}")

    if statement.kind == "insert":
        parents = _match_objects(engine, prefix, statement.where)
        if value is None:
            raise QueryError("insert needs a value")
        for parent in parents:
            materialize(parent, last_label, value)

    elif statement.kind == "update":
        if value is None:
            raise QueryError("update needs a value")
        if not is_atomic_value(value) and value is not COMPLEX:
            raise QueryError("update assigns an atomic value; use insert "
                             "for complex specs")
        targets = _match_objects(engine, statement.path, statement.where)
        seen: set[str] = set()
        for node in targets:
            if node not in seen:
                seen.add(node)
                ops.append(UpdNode(node, value))

    elif statement.kind == "remove":
        parents = _match_objects(engine, prefix, statement.where)
        for parent in parents:
            for child in engine.db.children(parent, last_label):
                op = RemArc(parent, last_label, child)
                if op not in ops:
                    ops.append(op)

    elif statement.kind == "link":
        if statement.target_path is None:
            raise QueryError("link needs 'PATH <path>'")
        parents = _match_objects(engine, prefix, statement.where)
        targets = _match_objects(engine, statement.target_path, statement.where)
        for parent in parents:
            for target in targets:
                op = AddArc(parent, last_label, target)
                if op not in ops and not db.has_arc(parent, last_label, target):
                    ops.append(op)

    else:  # pragma: no cover
        raise QueryError(f"unknown update kind {statement.kind!r}")

    return ChangeSet(ops)


def _match_objects(engine: LorelEngine, path: PathExpr,
                   where: Condition | None) -> list[str]:
    """Node ids matched by ``path`` under ``where`` (select-query reuse)."""
    if not path.steps:
        entry = engine.view.resolve_name(path.start)
        if entry is None:
            raise QueryError(f"unknown name {path.start!r}")
        return [entry]
    query = Query(select=(SelectItem(path),), from_items=(), where=where)
    return engine.run(query).objects()
