"""Materialized snapshot checkpoints and the hybrid spacing policy.

A checkpoint is ``Ot(D)`` written down: the full OEM snapshot at one
history timestamp, so a time-travel query at ``t' >= t`` loads it and
replays only the change sets in ``(t, t']`` instead of the whole log.
"On Graph Deltas for Historical Queries" frames the storage/query
trade-off this machinery navigates: deltas are cheap to store and
expensive to query, snapshots the reverse, and the right policy
materializes a snapshot whenever the accumulated delta chain exceeds a
query-time replay budget.

**File format** (``ckpt-<seq>.oem``): one JSON header line --
``{"format": 2, "at": <ticks>, "seq": <n>, "crc": <crc32-of-body>,``
``"nodes": <count>, "anchor": <crc32>}`` -- followed by the textual OEM
serialization of the snapshot, written unindented (the grammar ignores
whitespace, so older indented bodies read the same).

A checkpoint is valid only with the change sets it folds: ``anchor`` is
the CRC-32 of the frame of the last of them, the log's entry at ``at``
(:meth:`CheckpointRef.anchored`).  After a torn tail is cut, or a tail
written again differently, a checkpoint whose entry the log no longer
holds is *stale*: an open never indexes it.  Format-1 files, written
before the anchor, carry none; their time must still be a kept entry's.
The time, not a count of entries, names the position: it survives a
horizon compaction, which renumbers the entries it keeps.

The body CRC makes a torn or bit-rotten checkpoint detected when a log
opens (header and CRC only: :func:`scan_checkpoints` parses no body)
and simply skipped.  A body is parsed only by a lookup that needs it
(and by fsck); one that passes its CRC and still fails to parse is
skipped there.  Either way a
bad checkpoint never corrupts an answer, it only costs a longer replay
from the next older one (or the origin).

**Spacing policy** (:class:`CheckpointPolicy`): a checkpoint is due
when the operations appended since the last one exceed
``max(replay_budget, size_weight * snapshot_nodes)``.  The first term
is the query-time promise -- no lookup ever replays more than about
``replay_budget`` operations past a checkpoint.  The second term is the
hybrid correction from the graph-deltas analysis: materializing a big
snapshot costs proportionally to its size, so for large databases the
spacing stretches until the replay work saved is worth the snapshot
written.  ``min_sets`` stops degenerate one-set checkpointing when
single change sets are larger than the budget.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path

from ..errors import StoreCorruptionError
from ..oem.model import OEMDatabase
from ..oem.serialize import dumps, loads
from .records import load_json
from ..timestamps import Timestamp

__all__ = ["CheckpointPolicy", "CheckpointRef", "write_checkpoint",
           "read_checkpoint", "scan_checkpoints", "CHECKPOINT_FORMAT",
           "STALE"]

CHECKPOINT_FORMAT = 2
_FORMATS = (1, CHECKPOINT_FORMAT)  # 1: no anchor
STALE = "stale: folds an entry the log does not hold"
_PREFIX = "ckpt-"
_SUFFIX = ".oem"


@dataclass(frozen=True)
class CheckpointPolicy:
    """When to materialize a snapshot checkpoint (see module docstring).

    ``replay_budget`` -- the query-time budget: target maximum number of
    change *operations* between a checkpoint and any later query time.
    ``size_weight`` -- the hybrid term: effective budget grows to
    ``size_weight * snapshot_nodes`` for large snapshots, so checkpoint
    cost stays proportionate to the replay work it saves.
    ``min_sets`` -- never checkpoint more often than every ``min_sets``
    change sets.  A ``replay_budget`` of 0 disables checkpointing.
    """

    replay_budget: int = 512
    size_weight: float = 0.25
    min_sets: int = 2

    @property
    def enabled(self) -> bool:
        return self.replay_budget > 0

    def effective_budget(self, snapshot_nodes: int) -> int:
        """The op budget in force for a snapshot of the given size."""
        return max(self.replay_budget,
                   int(self.size_weight * snapshot_nodes))

    def due(self, ops_since: int, sets_since: int,
            snapshot_nodes: int) -> bool:
        """Is a checkpoint due after the accumulated delta chain?"""
        if not self.enabled or sets_since < self.min_sets:
            return False
        return ops_since >= self.effective_budget(snapshot_nodes)

    @classmethod
    def disabled(cls) -> "CheckpointPolicy":
        """A policy that never checkpoints (pure delta log)."""
        return cls(replay_budget=0)


@dataclass(frozen=True)
class CheckpointRef:
    """One durable checkpoint: where it is, what time it captures and
    the CRC of the entry it folds last (``None`` in format 1)."""

    at: Timestamp
    seq: int
    path: Path
    anchor: int | None = None

    @property
    def name(self) -> str:
        return self.path.name

    def anchored(self, crcs: dict[Timestamp, int]) -> bool:
        """Does the log hold the entry this checkpoint folds last?
        ``crcs`` maps each kept entry's time to its frame's CRC."""
        crc = crcs.get(self.at)
        return crc is not None and self.anchor in (None, crc)


def checkpoint_path(directory: Path, seq: int) -> Path:
    return directory / f"{_PREFIX}{seq:06d}{_SUFFIX}"


def write_checkpoint(directory: Path, seq: int, at: Timestamp, anchor: int,
                     snapshot: OEMDatabase) -> tuple[CheckpointRef, int]:
    """Write one checkpoint file of the state at the entry ``at``, whose
    frame's CRC is ``anchor``; returns its ref and byte size.

    The body is written before the file is visible under its final name
    only in spirit -- a checkpoint is advisory, so a torn write is not a
    durability problem: the CRC check at load time rejects it and
    resolution falls back to the previous checkpoint.
    """
    body = dumps(snapshot, indent=0).encode("utf-8")
    header = json.dumps({"format": CHECKPOINT_FORMAT, "at": at.ticks,
                         "seq": seq, "crc": zlib.crc32(body),
                         "nodes": len(snapshot), "anchor": anchor},
                        separators=(",", ":")).encode("utf-8")
    path = checkpoint_path(directory, seq)
    with open(path, "wb") as handle:
        handle.write(header + b"\n" + body)
        handle.flush()
        os.fsync(handle.fileno())
    ref = CheckpointRef(at=at, seq=seq, path=path, anchor=anchor)
    return ref, len(header) + 1 + len(body)


def _verified_body(path: Path) -> tuple[Timestamp, int | None, bytes]:
    """One checkpoint file's time, anchor and body, header and CRC checked.

    Raises :class:`~repro.errors.StoreCorruptionError` on a missing or
    bad header, an unknown format or a checksum mismatch.  The body is
    not parsed.
    """
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise StoreCorruptionError(f"checkpoint {path.name}: {exc}") from exc
    newline = raw.find(b"\n")
    if newline < 0:
        raise StoreCorruptionError(f"checkpoint {path.name}: no header line")
    bad = f"checkpoint {path.name}: bad header"
    header = load_json(raw[:newline], bad)
    try:
        form = header.get("format")
        at = Timestamp(int(header["at"])) if form in _FORMATS else None
        anchor = int(header["anchor"]) if form == CHECKPOINT_FORMAT \
            else None
    except (ValueError, AttributeError, KeyError, TypeError) as exc:
        raise StoreCorruptionError(f"{bad}: {exc}") from exc
    if form not in _FORMATS:
        raise StoreCorruptionError(
            f"checkpoint {path.name}: unknown format {form!r}")
    body = raw[newline + 1:]
    if zlib.crc32(body) != header.get("crc"):
        raise StoreCorruptionError(
            f"checkpoint {path.name}: checksum mismatch")
    return at, anchor, body


def read_checkpoint(path: Path) -> tuple[Timestamp, OEMDatabase]:
    """Load and verify one checkpoint file.

    Raises :class:`~repro.errors.StoreCorruptionError` on any integrity
    failure (missing header, bad CRC, unparseable body); callers treat
    that as "this checkpoint does not exist".
    """
    at, _, body = _verified_body(path)
    try:
        snapshot = loads(body.decode("utf-8"))
    except Exception as exc:
        raise StoreCorruptionError(
            f"checkpoint {path.name}: body failed to parse: {exc}") from exc
    return at, snapshot


def scan_checkpoints(directory: Path) -> tuple[list[CheckpointRef], list[str]]:
    """Index every checkpoint in ``directory`` whose header and CRC hold.

    Returns ``(refs sorted by time then seq, problems)``; a checkpoint
    that fails those checks lands in ``problems`` and is excluded from
    the index -- the degradation is more replay, never a wrong answer.
    Bodies are not parsed here: a body that passes its CRC and still
    fails to parse is found when a lookup loads it (or by fsck).
    """
    refs: list[CheckpointRef] = []
    problems: list[str] = []
    for path in sorted(directory.glob(f"{_PREFIX}*{_SUFFIX}")):
        try:
            seq = int(path.name[len(_PREFIX):-len(_SUFFIX)])
        except ValueError:
            problems.append(f"checkpoint {path.name}: unparseable name")
            continue
        try:
            at, anchor, _ = _verified_body(path)
        except StoreCorruptionError as exc:
            problems.append(str(exc))
            continue
        refs.append(CheckpointRef(at=at, seq=seq, path=path, anchor=anchor))
    refs.sort(key=lambda ref: (ref.at, ref.seq))
    return refs, problems
