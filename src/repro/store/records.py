"""Record payloads: the JSON wire form of origins and change sets.

Two record kinds appear in a history log:

* ``origin`` -- the first record of every segment generation: the
  textual OEM serialization of ``O0`` (or, after horizon compaction,
  of the promoted checkpoint state), unindented.  Everything the log
  encodes is a delta against this snapshot.
* ``changeset`` -- one timestamped change set: the timestamp's ticks
  plus the four basic operations in list form.

Operations encode positionally (``["cre", node, value]``,
``["upd", node, value]``, ``["add"|"rem", source, label, target]``);
values reuse JSON scalars directly, with two tagged escapes for the
value-domain members JSON lacks: ``{"$ts": ticks}`` for timestamps and
``{"$c": 1}`` for the reserved complex value.  The encoding is pure
data -- decoding rebuilds the frozen :mod:`repro.oem.changes` dataclasses
and re-runs :class:`~repro.oem.history.ChangeSet`'s conflict checks, so
a hand-edited (or bit-flipped-but-CRC-colliding) record still cannot
smuggle an invalid set into replay.
"""

from __future__ import annotations

import json

from ..errors import StoreCorruptionError
from ..oem.changes import AddArc, ChangeOp, CreNode, RemArc, UpdNode
from ..oem.history import ChangeSet
from ..oem.model import OEMDatabase
from ..oem.serialize import dumps, loads
from ..oem.values import COMPLEX
from ..timestamps import Timestamp

__all__ = ["encode_origin", "encode_change_set", "decode_record",
           "encode_value", "decode_value"]


def encode_value(value: object) -> object:
    """One atomic-or-complex node value as a JSON value."""
    if value is COMPLEX:
        return {"$c": 1}
    if isinstance(value, Timestamp):
        return {"$ts": value.ticks}
    return value


def decode_value(value: object) -> object:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, dict):
        if "$c" in value:
            return COMPLEX
        if "$ts" in value:
            return Timestamp(int(value["$ts"]))
        raise StoreCorruptionError(f"unknown tagged value {value!r}")
    return value


def _encode_op(op: ChangeOp) -> list:
    if isinstance(op, CreNode):
        return ["cre", op.node, encode_value(op.value)]
    if isinstance(op, UpdNode):
        return ["upd", op.node, encode_value(op.value)]
    if isinstance(op, AddArc):
        return ["add", op.source, op.label, op.target]
    if isinstance(op, RemArc):
        return ["rem", op.source, op.label, op.target]
    raise StoreCorruptionError(f"unknown change operation {op!r}")


def _decode_op(item: object) -> ChangeOp:
    try:
        kind = item[0]
        if kind == "cre":
            return CreNode(item[1], decode_value(item[2]))
        if kind == "upd":
            return UpdNode(item[1], decode_value(item[2]))
        if kind == "add":
            return AddArc(item[1], item[2], item[3])
        if kind == "rem":
            return RemArc(item[1], item[2], item[3])
    except (IndexError, TypeError, KeyError) as exc:
        raise StoreCorruptionError(f"malformed operation {item!r}") from exc
    raise StoreCorruptionError(f"unknown operation kind {item!r}")


def encode_origin(db: OEMDatabase) -> bytes:
    """The origin record: the snapshot every later delta builds on."""
    return json.dumps({"kind": "origin", "oem": dumps(db, indent=0)},
                      separators=(",", ":")).encode("utf-8")


def encode_change_set(when: Timestamp, change_set: ChangeSet) -> bytes:
    """One timestamped change set as a record payload."""
    return json.dumps(
        {"kind": "changeset", "at": when.ticks,
         "ops": [_encode_op(op) for op in change_set.canonical_order()]},
        separators=(",", ":")).encode("utf-8")


def load_json(data: bytes | str, what: str) -> object:
    """``json.loads`` for every JSON file and record of the store.

    Whatever fails to parse -- bad UTF-8, bad JSON, or nesting deeper
    than the decoder's recursion allows -- raises
    :class:`~repro.errors.StoreCorruptionError` naming ``what``.
    """
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        return json.loads(data)
    except (ValueError, RecursionError) as exc:
        raise StoreCorruptionError(f"{what}: {exc}") from exc


def decode_record(payload: bytes) -> tuple[str, object]:
    """Decode one payload to ``("origin", OEMDatabase)`` or
    ``("changeset", (Timestamp, ChangeSet))``.

    Structural problems raise :class:`~repro.errors.StoreCorruptionError`
    -- the caller (recovery, fsck) maps them to the record's position.
    """
    record = load_json(payload, "undecodable record")
    if not isinstance(record, dict):
        raise StoreCorruptionError("record is not a JSON object")
    kind = record.get("kind")
    if kind == "origin":
        try:
            return "origin", loads(record["oem"])
        except Exception as exc:
            raise StoreCorruptionError(
                f"origin snapshot failed to parse: {exc}") from exc
    if kind == "changeset":
        try:
            when = Timestamp(int(record["at"]))
            ops = [_decode_op(item) for item in record["ops"]]
            return "changeset", (when, ChangeSet(ops))
        except StoreCorruptionError:
            raise
        except Exception as exc:
            raise StoreCorruptionError(
                f"change-set record failed to decode: {exc}") from exc
    raise StoreCorruptionError(f"unknown record kind {kind!r}")
