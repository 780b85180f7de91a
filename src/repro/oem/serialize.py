"""A textual interchange format for OEM databases, plus JSON import/export.

OEM was designed for data *exchange* [PGMW95], so the library ships a
round-trippable textual syntax close to the one the Lore papers use::

    &root {
      restaurant: &n1 {
        name: &n2 "Janta"
        price: &n3 10
        parking: &n7
      }
      restaurant: &n4 { ... }
    }

* ``&id`` introduces an object identifier; the second and later mentions of
  an id are back-references, which is how sharing and cycles serialize.
* Complex objects are ``{ label: object ... }`` blocks (labels repeat for
  multiple same-labeled arcs); atomic objects are literals: integers,
  reals, double-quoted strings, ``true``/``false``, and timestamps written
  ``@1Jan97``.

:func:`dumps`/:func:`loads` write and parse this format; :func:`to_json`
and :func:`from_json` bridge to plain JSON trees (losing sharing, which is
fine for tree-shaped data such as parsed HTML).
"""

from __future__ import annotations

import json
import re

from ..errors import SerializationError
from ..timestamps import Timestamp, parse_timestamp
from .model import OEMDatabase
from .values import COMPLEX, is_atomic_value

__all__ = ["dumps", "loads", "to_json", "from_json"]

_BARE_LABEL = re.compile(r"^[A-Za-z&_][A-Za-z0-9_\-&]*$")
_BARE_ID = re.compile(r"^[A-Za-z0-9_\-]+$")


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------

def _quote_label(label: str) -> str:
    if _BARE_LABEL.match(label):
        return label
    return json.dumps(label)


def _quote_id(node_id: str) -> str:
    if _BARE_ID.match(node_id):
        return f"&{node_id}"
    return "&" + json.dumps(node_id)


def _atomic_literal(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Timestamp):
        return f"@{value}"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value)
    raise SerializationError(f"cannot serialize atomic value {value!r}")


def dumps(db: OEMDatabase, indent: int = 2) -> str:
    """Serialize ``db`` to the textual OEM format.

    Every node reachable from the root is emitted exactly once in full;
    later occurrences are back-references (``&id`` with no body), which
    preserves shared subobjects and cycles.  One line per object, each
    nested ``indent`` spaces deeper than its parent.  The walk keeps its
    own stack, so any depth serializes.
    """
    emitted: set[str] = set()
    pad = " " * indent
    lines: list[str] = []

    def open_object(node_id: str, prefix: str):
        """Write the object's first line; its sorted arcs if it has a body."""
        head = prefix + _quote_id(node_id)
        if node_id in emitted:
            lines.append(head)
            return None
        emitted.add(node_id)
        value = db.value(node_id)
        if value is not COMPLEX:
            lines.append(f"{head} {_atomic_literal(value)}")
            return None
        arcs = sorted(db.out_arcs(node_id))
        if not arcs:
            lines.append(f"{head} {{}}")
            return None
        lines.append(f"{head} {{")
        return iter(arcs)

    arcs = open_object(db.root, "")
    stack = [] if arcs is None else [arcs]
    while stack:
        arc = next(stack[-1], None)
        if arc is None:
            stack.pop()
            lines.append(f"{pad * len(stack)}}}")
            continue
        arcs = open_object(arc.target, f"{pad * len(stack)}"
                                       f"{_quote_label(arc.label)}: ")
        if arcs is not None:
            stack.append(arcs)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_SPACE = re.compile(r"(?:[ \t\r\n]+|#[^\n]*)*")  # comments run to end of line
_QUOTED = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"', re.DOTALL)
_ID_TOKEN = re.compile(r"[A-Za-z0-9_\-]+")
_LABEL_TOKEN = re.compile(r"[A-Za-z&_][A-Za-z0-9_\-&]*")
_TIMESTAMP_TOKEN = re.compile(r"[A-Za-z0-9:\- ]+")
_NUMBER_TOKEN = re.compile(r"[-+]?[0-9][0-9_]*(\.[0-9]+)?([eE][-+]?[0-9]+)?")


class _Reader:
    """A cursor over the serialized text.  Tokens are matched in place;
    the line and column are worked out only for an error."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def error(self, message: str, pos: int | None = None) \
            -> SerializationError:
        pos = min(self.pos if pos is None else pos, len(self.text))
        line_start = self.text.rfind("\n", 0, pos) + 1
        return SerializationError(message, self.text.count("\n", 0, pos) + 1,
                                  pos - line_start + 1)

    def skip_space(self) -> None:
        self.pos = _SPACE.match(self.text, self.pos).end()

    def peek(self) -> str:
        return self.text[self.pos:self.pos + 1]

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}, found {self.peek()!r}")
        self.pos += 1

    def read_quoted(self) -> str:
        """The string literal that starts at the cursor's ``"``."""
        match = _QUOTED.match(self.text, self.pos)
        if match is None:
            raise self.error("unterminated string literal", len(self.text))
        self.pos = match.end()
        try:
            return json.loads(match.group())
        except json.JSONDecodeError as exc:
            raise self.error(f"bad string literal: {exc}") from exc

    def read(self, token: re.Pattern) -> str:
        match = token.match(self.text, self.pos)
        if not match:
            raise self.error("unexpected character")
        self.pos = match.end()
        return match.group()

    def read_atomic(self):
        ch = self.peek()
        if ch == '"':
            return self.read_quoted()
        if ch == "@":
            self.pos += 1
            return parse_timestamp(self.read(_TIMESTAMP_TOKEN).strip())
        if self.text.startswith("true", self.pos):
            self.pos += 4
            return True
        if self.text.startswith("false", self.pos):
            self.pos += 5
            return False
        start = self.pos
        raw = self.read(_NUMBER_TOKEN)
        try:
            return float(raw) if any(m in raw for m in ".eE") else int(raw)
        except ValueError as exc:
            raise self.error(f"bad number literal {raw!r}", start) from exc


def loads(text: str, root_hint: str | None = None) -> OEMDatabase:
    """Parse the textual OEM format back into an :class:`OEMDatabase`.

    The first object in the text becomes the root.  ``root_hint`` is only
    used when the text's root id must be overridden (rare; tests).  Time
    is linear in the text, and any depth parses: the objects whose
    ``{ ... }`` body is open are kept on a list, not on the call stack.
    """
    reader = _Reader(text)
    reader.skip_space()
    if reader.peek() != "&":
        raise reader.error("OEM text must start with an object id (&...)")

    db: OEMDatabase | None = None  # created once the root id is known
    defined: set[str] = set()
    # (object, parent, label) per open body; the arc from the parent is
    # added when the body closes, as a recursive reader would.
    open_bodies: list[tuple[str, str | None, str | None]] = []

    def read_id() -> str:
        reader.expect("&")
        if reader.peek() == '"':
            return reader.read_quoted()
        return reader.read(_ID_TOKEN)

    def ensure_node(node_id: str) -> None:
        nonlocal db
        if db is None:
            root_id = root_hint or node_id
            db = OEMDatabase(root=root_id)
            defined.add(root_id)
        elif node_id not in db:
            db.create_node(node_id, COMPLEX)

    def attached(node_id: str, parent: str | None, label: str | None) -> None:
        """``node_id`` is read in full: hang it under its parent."""
        if parent is None:
            return
        db.add_arc(parent, label, node_id)
        reader.skip_space()
        if reader.peek() == ",":
            reader.pos += 1
            reader.skip_space()

    def read_object(parent: str | None, label: str | None) -> None:
        node_id = read_id()
        ensure_node(node_id)
        reader.skip_space()
        ch = reader.peek()
        if ch == "{":
            if node_id in defined and db.has_children(node_id):
                raise reader.error(f"object &{node_id} defined twice")
            defined.add(node_id)
            reader.pos += 1
            reader.skip_space()
            open_bodies.append((node_id, parent, label))
            return
        # At the end of the text ``ch`` is "", which ``in "+-"`` accepts:
        # the number reader then reports the missing value.
        if ch == '"' or ch == "@" or ch.isdigit() or ch in "+-" \
                or text.startswith(("true", "false"), reader.pos):
            value = reader.read_atomic()
            defined.add(node_id)
            db.update_value(node_id, value)
        # otherwise: a bare back-reference; nothing more to read.
        attached(node_id, parent, label)

    read_object(None, None)
    while open_bodies:
        node_id = open_bodies[-1][0]
        if reader.peek() == "}":
            reader.pos += 1
            attached(*open_bodies.pop())
            continue
        if reader.peek() == '"':
            label = reader.read_quoted()
        else:
            label = reader.read(_LABEL_TOKEN)
        reader.skip_space()
        reader.expect(":")
        reader.skip_space()
        read_object(node_id, label)
    reader.skip_space()
    if reader.pos != len(text):
        raise reader.error("trailing text after root object")
    return db


# ---------------------------------------------------------------------------
# JSON bridge
# ---------------------------------------------------------------------------

def to_json(db: OEMDatabase, node_id: str | None = None) -> object:
    """Export the tree under ``node_id`` (default: root) as a JSON value.

    Sharing collapses into repeated subtrees; a cycle raises
    :class:`~repro.errors.SerializationError` since JSON cannot express it.
    Multiple same-labeled children become JSON arrays.  Walks with an
    explicit stack: any depth, at the default recursion limit.
    """
    start = db.root if node_id is None else node_id
    on_stack: set[str] = set()
    # One frame per complex node on the path from ``start``: the node, its
    # object, its labels still to export, and the current label, its
    # values so far and its children still to visit.
    frames: list[list] = []

    def visit(node: str) -> object:
        """``node``'s JSON value; a complex node's object is filled in
        as its frame is worked off."""
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
        frames.append([node, result, iter(sorted(db.out_labels(node))),
                       None, [], iter(())])
        return result

    top = visit(start)
    while frames:
        frame = frames[-1]
        node, result, labels, label, kids, children = frame
        child = next(children, None)
        if child is not None:
            kids.append(visit(child))
            continue
        if label is not None:
            result[label] = kids[0] if len(kids) == 1 else kids
        label = next(labels, None)
        if label is None:
            on_stack.discard(node)
            frames.pop()
        else:
            frame[3:] = [label, [], iter(db.children(node, label))]
    return top


def from_json(value: object, root: str = "root") -> OEMDatabase:
    """Import a JSON value as a tree-shaped OEM database.

    Objects become complex nodes, arrays fan out same-labeled arcs (the
    array must appear as an object member), and scalars become atomic
    nodes.  A top-level scalar becomes a single ``value``-labeled child of
    the root, keeping the root complex as Definition 2.1 requires of
    parents.  Nodes are made in document order, from an explicit stack.
    """
    db = OEMDatabase(root=root)
    # (parent, label, item) still to attach, the next on top.
    if isinstance(value, dict):
        pending = [(db.root, key, child)
                   for key, child in reversed(value.items())]
    else:
        pending = [(db.root, "value", value)]
    while pending:
        parent, label, item = pending.pop()
        if isinstance(item, list):
            pending.extend((parent, label, element)
                           for element in reversed(item))
            continue
        if isinstance(item, dict):
            node_value = COMPLEX
        elif item is None:
            node_value = ""
        elif isinstance(item, str) and item.startswith("@"):
            node_value = parse_timestamp(item[1:])
        elif is_atomic_value(item):
            node_value = item
        else:
            raise SerializationError(f"cannot import JSON value {item!r}")
        node = db.create_node(db.new_node_id(), node_value)  # type: ignore[arg-type]
        db.add_arc(parent, label, node)
        if isinstance(item, dict):
            pending.extend((node, key, child)
                           for key, child in reversed(item.items()))
    return db
