"""The reference text codec: ``repro.oem.serialize``'s ``dumps`` and
``loads`` as they stood before the linear rewrite, kept verbatim as the
oracle of ``test_serialize_equivalence.py``.

Both recurse once per nesting level (raising the interpreter's recursion
limit for the duration), and the reader copies the rest of the text for
every token it matches -- quadratic, and the definition of what the
production codec must do: ``dumps`` writes the same bytes, ``loads``
builds the same database or fails at the same line and column.  Do not
optimise this file.
"""

from __future__ import annotations

import contextlib
import json
import re
import sys
from typing import Iterator

from repro.errors import SerializationError
from repro.oem.model import OEMDatabase
from repro.oem.values import COMPLEX
from repro.timestamps import Timestamp, parse_timestamp

__all__ = ["dumps", "loads"]

_BARE_LABEL = re.compile(r"^[A-Za-z&_][A-Za-z0-9_\-&]*$")
_BARE_ID = re.compile(r"^[A-Za-z0-9_\-]+$")


@contextlib.contextmanager
def _recursion_headroom(extra: int):
    """Temporarily raise the recursion limit for deep (chain-shaped) graphs.

    The writer and parser recurse per nesting level; pathological but
    legal databases (a 10,000-node chain) would otherwise hit Python's
    default limit mid-serialization.
    """
    current = sys.getrecursionlimit()
    wanted = extra + 200
    if wanted > current:
        sys.setrecursionlimit(wanted)
    try:
        yield
    finally:
        sys.setrecursionlimit(current)


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
    preserves shared subobjects and cycles.
    """
    emitted: set[str] = set()
    pad = " " * indent

    def render(node_id: str, depth: int) -> Iterator[str]:
        head = _quote_id(node_id)
        if node_id in emitted:
            yield head
            return
        emitted.add(node_id)
        value = db.value(node_id)
        if value is not COMPLEX:
            yield f"{head} {_atomic_literal(value)}"
            return
        arcs = sorted(db.out_arcs(node_id))
        if not arcs:
            yield f"{head} {{}}"
            return
        yield f"{head} {{"
        for arc in arcs:
            parts = list(render(arc.target, depth + 1))
            first = f"{pad * (depth + 1)}{_quote_label(arc.label)}: {parts[0]}"
            yield first
            yield from parts[1:]
        yield f"{pad * depth}}}"

    lines: list[str] = []
    with _recursion_headroom(len(db) * 3):
        for piece in render(db.root, 0):
            lines.append(piece)
    # Join nested renderings that were produced as flat line lists: the
    # recursive generator already carries correct indentation in bodies.
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

class _Reader:
    """Minimal cursor over the serialized text with line/column tracking."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def _location(self) -> tuple[int, int]:
        consumed = self.text[:self.pos]
        line = consumed.count("\n") + 1
        column = len(consumed) - (consumed.rfind("\n") + 1) + 1
        return line, column

    def error(self, message: str) -> SerializationError:
        line, column = self._location()
        return SerializationError(message, line, column)

    def skip_space(self) -> None:
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in " \t\r\n":
                self.pos += 1
            elif ch == "#":  # comment to end of line
                newline = self.text.find("\n", self.pos)
                self.pos = len(self.text) if newline < 0 else newline
            else:
                break

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}, found {self.peek()!r}")
        self.pos += 1

    def read_quoted(self) -> str:
        start = self.pos
        if self.peek() != '"':
            raise self.error("expected a quoted string")
        self.pos += 1
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch == "\\":
                self.pos += 2
                continue
            if ch == '"':
                self.pos += 1
                try:
                    return json.loads(self.text[start:self.pos])
                except json.JSONDecodeError as exc:
                    raise self.error(f"bad string literal: {exc}") from exc
            self.pos += 1
        raise self.error("unterminated string literal")

    def read_while(self, pattern: str) -> str:
        match = re.match(pattern, self.text[self.pos:])
        if not match:
            raise self.error("unexpected character")
        self.pos += match.end()
        return match.group(0)


def loads(text: str, root_hint: str | None = None) -> OEMDatabase:
    """Parse the textual OEM format back into an :class:`OEMDatabase`.

    The first object in the text becomes the root.  ``root_hint`` is only
    used when the text's root id must be overridden (rare; tests).
    """
    reader = _Reader(text)
    reader.skip_space()
    if reader.peek() != "&":
        raise reader.error("OEM text must start with an object id (&...)")

    db: list[OEMDatabase] = []  # created lazily once the root id is known
    defined: set[str] = set()

    def read_id() -> str:
        reader.expect("&")
        if reader.peek() == '"':
            return reader.read_quoted()
        return reader.read_while(r"[A-Za-z0-9_\-]+")

    def ensure_node(node_id: str) -> None:
        if not db:
            root_id = root_hint or node_id
            db.append(OEMDatabase(root=root_id))
            defined.add(root_id)
            return
        if node_id not in db[0]:
            db[0].create_node(node_id, COMPLEX)

    def read_object() -> str:
        node_id = read_id()
        ensure_node(node_id)
        reader.skip_space()
        ch = reader.peek()
        if ch == "{":
            if node_id in defined and db[0].has_children(node_id):
                raise reader.error(f"object &{node_id} defined twice")
            defined.add(node_id)
            reader.expect("{")
            reader.skip_space()
            while reader.peek() != "}":
                label = read_label()
                reader.skip_space()
                reader.expect(":")
                reader.skip_space()
                child = read_object()
                db[0].add_arc(node_id, label, child)
                reader.skip_space()
                if reader.peek() == ",":
                    reader.pos += 1
                    reader.skip_space()
            reader.expect("}")
        elif ch == '"' or ch == "@" or ch.isdigit() or ch in "+-" \
                or reader.text.startswith(("true", "false"), reader.pos):
            value = read_atomic()
            defined.add(node_id)
            db[0].update_value(node_id, value)
        # otherwise: a bare back-reference; nothing more to read.
        return node_id

    def read_label() -> str:
        if reader.peek() == '"':
            return reader.read_quoted()
        return reader.read_while(r"[A-Za-z&_][A-Za-z0-9_\-&]*")

    def read_atomic():
        ch = reader.peek()
        if ch == '"':
            return reader.read_quoted()
        if ch == "@":
            reader.pos += 1
            raw = reader.read_while(r"[A-Za-z0-9:\- ]+").strip()
            return parse_timestamp(raw)
        if reader.text.startswith("true", reader.pos):
            reader.pos += 4
            return True
        if reader.text.startswith("false", reader.pos):
            reader.pos += 5
            return False
        raw = reader.read_while(r"[-+]?[0-9][0-9_]*(\.[0-9]+)?([eE][-+]?[0-9]+)?")
        if any(marker in raw for marker in ".eE"):
            return float(raw)
        return int(raw)

    with _recursion_headroom(text.count("{") * 2):
        read_object()
    reader.skip_space()
    if reader.pos != len(reader.text):
        raise reader.error("trailing text after root object")
    if not db:
        raise SerializationError("empty OEM text")
    return db[0]
