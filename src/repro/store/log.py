"""The per-history change log: segments + checkpoints + recovery.

A :class:`HistoryLog` is one OEM history made durable inside a single
directory::

    <dir>/CURRENT                  {"generation": g} -- the live generation
    <dir>/seg-<gen>-<idx>.log      append-only segments of generation g
    <dir>/ckpt-<seq>.oem           materialized snapshot checkpoints

The first record of a generation's first segment is the *origin* (the
``O0`` snapshot the deltas build on); every later record is one
timestamped change set.  Appends go to the newest segment, which rolls
at ``segment_bytes``; the fsync policy is ``"always"`` (fsync after
every append -- a record is durable when :meth:`append` returns) or
``"roll"`` (fsync only at segment rolls and :meth:`flush`, trading the
tail of the current segment for throughput).

**Time travel.**  ``Ot(D)`` resolves as nearest-checkpoint-load plus
bounded delta replay: :meth:`snapshot_at` finds the newest checkpoint at
``t0 <= t``, loads it, and replays only the change sets in ``(t0, t]``
-- never the whole log.  The :class:`~.checkpoint.CheckpointPolicy`
bounds how many operations that replay can span.  An open reads the
segments and only the header and CRC of each checkpoint, and indexes
only those anchored to a kept entry (:mod:`.checkpoint`); a checkpoint's
body is parsed by the first lookup that loads it (and by fsck).

**The DOEM.**  An open scans the segments once: it decodes each record,
checks each change set by applying it to the tip, and records it into
the log's own DOEM without checking it again (:meth:`get_doem`).  Each
append does the same once its record is durable.

**Recovery.**  Every open and :func:`fsck_log` apply the store's one
recovery rule (:mod:`.segment`) to the *last* segment: a torn tail is
cut by a writer, skipped by a reader, and reported (and with
``repair=True`` cut) by fsck; damage an open refuses -- bad magic with
bytes after it, any damage in an interior segment -- raises
:class:`~repro.errors.StoreCorruptionError` and is never repaired.

**Compaction.**  :meth:`compact` rewrites the live segments into a new
generation and atomically swaps ``CURRENT`` -- with no horizon it only
consolidates (every ``Ot`` still resolves exactly); with ``before=t`` it
promotes the state at the greatest entry ``<= t`` to the new origin and
drops the records and checkpoints before it (the checkpoints before
``CURRENT`` moves), so history at or after the horizon stays exact while
earlier times collapse onto the new origin.
"""

from __future__ import annotations

import json
import os
import zlib
from collections import OrderedDict
from pathlib import Path

from ..doem.build import empty_doem, record_change_set, refuse_reused
from ..doem.model import DOEMDatabase
from ..errors import InvalidHistoryError, OEMError, StoreCorruptionError, \
    StoreError
from ..obs.events import emit_event
from ..obs.metrics import CounterField, registry as metrics_registry
from ..oem.changes import CreNode
from ..oem.history import ChangeSet, OEMHistory, entries_between
from ..oem.model import OEMDatabase
from ..timestamps import NEG_INF, Timestamp, parse_timestamp
from .checkpoint import STALE, CheckpointPolicy, CheckpointRef, \
    read_checkpoint, scan_checkpoints, write_checkpoint
from .records import decode_record, encode_change_set, encode_origin, \
    load_json
from .segment import FRAME_HEADER, HEADER_SIZE, SegmentScan, \
    SegmentWriter, append_frame, close_quietly, fsck_file, \
    fsync_dir as _fsync_dir, reopen

__all__ = ["HistoryLog", "StoreStats", "fsck_log", "atomic_write",
           "DEFAULT_SEGMENT_BYTES", "FSYNC_POLICIES"]

DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024
FSYNC_POLICIES = ("always", "roll")

_CURRENT = "CURRENT"
_SEG_PREFIX = "seg-"
_SEG_SUFFIX = ".log"

# Parsed checkpoints kept in memory per log: time-travel workloads probe
# a handful of distinct cutoffs repeatedly, and re-parsing the same
# checkpoint file per query would erase most of the checkpoint win.
_CKPT_CACHE_SLOTS = 8


class StoreStats:
    """Counters for the durable store, family ``repro.store``.

    One instance per :class:`HistoryLog` (the store shares each log's
    stats); the registry sums live instances, so ``repro.store.appends``
    in a metrics dump is the process-wide total.
    """

    _FIELDS = ("appends", "ops_appended", "bytes_written", "fsyncs",
               "segment_rolls", "checkpoints_written", "checkpoint_loads",
               "checkpoints_skipped", "snapshot_queries",
               "snapshots_from_checkpoint", "snapshots_from_origin",
               "replayed_sets", "compactions", "recovered_tails")

    appends = CounterField()
    ops_appended = CounterField()
    bytes_written = CounterField()
    fsyncs = CounterField()
    segment_rolls = CounterField()
    checkpoints_written = CounterField()
    checkpoint_loads = CounterField()
    checkpoints_skipped = CounterField()
    snapshot_queries = CounterField()
    snapshots_from_checkpoint = CounterField()
    snapshots_from_origin = CounterField()
    replayed_sets = CounterField()
    compactions = CounterField()
    recovered_tails = CounterField()

    def __init__(self) -> None:
        self._metrics = metrics_registry().group("repro.store", self._FIELDS)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self._FIELDS}


def _segment_path(directory: Path, generation: int, index: int) -> Path:
    return directory / f"{_SEG_PREFIX}{generation:04d}-{index:06d}{_SEG_SUFFIX}"


def _segment_key(path: Path) -> tuple[int, int] | None:
    stem = path.name[len(_SEG_PREFIX):-len(_SEG_SUFFIX)]
    generation, _, index = stem.partition("-")
    try:
        return int(generation), int(index)
    except ValueError:
        return None


def _list_segments(directory: Path, generation: int) -> list[Path]:
    found = []
    for path in directory.glob(f"{_SEG_PREFIX}*{_SEG_SUFFIX}"):
        key = _segment_key(path)
        if key is not None and key[0] == generation:
            found.append((key[1], path))
    return [path for _, path in sorted(found)]


def _read_current(directory: Path) -> int:
    path = directory / _CURRENT
    what = f"{path}: unreadable CURRENT manifest"
    try:
        return int(load_json(path.read_bytes(), what)["generation"])
    except FileNotFoundError:
        raise
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise StoreCorruptionError(f"{what}: {exc}") from exc


def atomic_write(path: Path, text: str) -> int:
    """Durably replace ``path`` with ``text``; returns the bytes written.

    tmp + fsync + rename + directory fsync: a crash leaves the old
    content or the new, never a mixture.  Every small document the
    store rewrites in place goes through here -- a log's ``CURRENT``
    and the store's subscription manifest.
    """
    data = text.encode("utf-8")
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_dir(path.parent)
    return len(data)


def _write_current(directory: Path, generation: int) -> None:
    atomic_write(directory / _CURRENT, json.dumps({"generation": generation}))


class HistoryLog:
    """One durable OEM history (see module docstring).

    Construct directly over a directory; the :class:`~.store.ChangeLogStore`
    is the usual owner.  ``mode`` is ``"rw"`` (recover the tail, accept
    appends) or ``"ro"`` (never writes -- a torn tail is skipped in
    memory, left on disk).  A missing ``CURRENT`` means a fresh log,
    which requires ``mode="rw"`` and an ``origin`` database.
    """

    def __init__(self, directory: str | os.PathLike, mode: str = "rw", *,
                 origin: OEMDatabase | None = None,
                 policy: CheckpointPolicy | None = None,
                 fsync_policy: str = "always",
                 segment_bytes: int = DEFAULT_SEGMENT_BYTES) -> None:
        if mode not in ("rw", "ro"):
            raise StoreError(f"unknown log mode {mode!r}")
        if fsync_policy not in FSYNC_POLICIES:
            raise StoreError(f"unknown fsync policy {fsync_policy!r} "
                             f"(one of {FSYNC_POLICIES})")
        self.directory = Path(directory)
        self.mode = mode
        self.policy = policy if policy is not None else CheckpointPolicy()
        self.fsync_policy = fsync_policy
        self.segment_bytes = segment_bytes
        self.stats = StoreStats()
        self._writer: SegmentWriter | None = None
        self._entries: list[tuple[Timestamp, ChangeSet]] = []
        self._ckpt_cache: OrderedDict[int, OEMDatabase] = OrderedDict()
        self.checkpoint_problems: list[str] = []
        self.recovered_tail: str | None = None

        if (self.directory / _CURRENT).exists():
            self._load()
        else:
            if mode != "rw":
                raise StoreError(f"{self.directory}: no log here "
                                 f"(CURRENT missing)")
            if origin is None:
                raise StoreError(f"{self.directory}: creating a log "
                                 f"requires an origin database")
            self._initialize(origin)

    # -- construction and recovery ---------------------------------------

    def _initialize(self, origin: OEMDatabase) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        self.generation = 1
        self._origin = origin.copy()
        self._start(self._origin)
        self._doem_as_of = self._doem.fingerprint()
        self._tip_crc: int | None = None
        writer = SegmentWriter(_segment_path(self.directory, 1, 1))
        try:
            written = append_frame(writer, encode_origin(self._origin))
            _write_current(self.directory, 1)
        except BaseException:
            close_quietly(writer)
            raise
        self.stats.bytes_written += written
        self.stats.fsyncs += 1
        self._segments = [writer.path]
        self._writer = writer
        self._checkpoints: list[CheckpointRef] = []
        self._ckpt_seq = 0
        self._ops_since_ckpt = 0
        self._sets_since_ckpt = 0

    def _load(self) -> None:
        """Read the live generation in one scan: decode each record, check
        each change set on the tip and record it into the DOEM (see
        :meth:`get_doem`); then index the checkpoints that fold a kept
        entry."""
        self.generation = _read_current(self.directory)
        self._segments = _list_segments(self.directory, self.generation)
        if not self._segments:
            raise StoreCorruptionError(
                f"{self.directory}: CURRENT points at generation "
                f"{self.generation} but no segments exist")
        origin: OEMDatabase | None = None
        crcs: dict[Timestamp, int] = {}  # each entry's frame CRC
        for position, path in enumerate(self._segments):
            scan = SegmentScan(path)
            for payload in scan:
                try:
                    kind, value = decode_record(payload)
                except StoreCorruptionError as exc:
                    raise StoreCorruptionError(
                        f"{path.name}: {exc}") from exc
                if kind == "origin":
                    if origin is not None:
                        raise StoreCorruptionError(
                            f"{path.name}: second origin record")
                    origin = value
                    self._start(origin)
                else:
                    when, change_set = value
                    if origin is None:
                        raise StoreCorruptionError(
                            f"{path.name}: change set precedes the origin")
                    if self._entries and when <= self._entries[-1][0]:
                        raise StoreCorruptionError(
                            f"{path.name}: timestamps out of order "
                            f"({when} after {self._entries[-1][0]})")
                    try:
                        self._fold(when, change_set)
                    except OEMError as exc:  # unknown node, invalid op...
                        raise StoreCorruptionError(
                            f"{path.name}: change set at {when} does not "
                            f"apply: {exc}") from exc
                    self._entries.append((when, change_set))
                    crcs[when] = scan.crc
            scan.refuse(last=position == len(self._segments) - 1)
        if origin is None:
            raise StoreCorruptionError(
                f"{self._segments[0].name}: no origin record")
        self._origin = origin
        self._doem_as_of = self._doem.fingerprint()
        self._tip_crc = crcs[self._entries[-1][0]] if self._entries else None
        self.recovered_tail = scan.torn
        self._writer = reopen(scan, writable=self.mode == "rw",
                              log=self.directory.name, stats=self.stats)

        refs, self.checkpoint_problems = scan_checkpoints(self.directory)
        self._checkpoints = []
        for ref in refs:
            if ref.anchored(crcs):
                self._checkpoints.append(ref)
                continue
            if self.mode == "rw":
                ref.path.unlink(missing_ok=True)
            self.checkpoint_problems.append(
                f"checkpoint {ref.name}: {STALE}; "
                f"{'deleted' if self.mode == 'rw' else 'skipped'}")
        self._ckpt_seq = max((ref.seq for ref in refs), default=0)
        last_ckpt = self._checkpoints[-1].at if self._checkpoints else None
        self._ops_since_ckpt = 0
        self._sets_since_ckpt = 0
        for when, change_set in self._entries:
            if last_ckpt is None or when > last_ckpt:
                self._ops_since_ckpt += len(change_set)
                self._sets_since_ckpt += 1

    def _start(self, origin: OEMDatabase) -> None:
        """The tip and the DOEM at ``origin``, before any entry."""
        self._tip = origin.copy()
        self._doem = empty_doem(origin)
        self._doem.snapshot_cache().attach_store(self)

    def _fold(self, when: Timestamp, change_set: ChangeSet) -> None:
        """Check one set on the tip -- the only check of each operation --
        and record it into the DOEM with the nodes it deleted."""
        deleted = change_set.apply_to(self._tip)
        record_change_set(self._doem, when, change_set, deleted)

    def _refold(self) -> None:
        """The tip and the DOEM again, from the origin and every entry."""
        self._start(self._origin)
        for when, change_set in self._entries:
            self._fold(when, change_set)
        self._doem_as_of = self._doem.fingerprint()

    # -- views ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def origin(self) -> OEMDatabase:
        """A copy of the generation's base snapshot."""
        return self._origin.copy()

    def tip(self) -> OEMDatabase:
        """A copy of the current (latest) snapshot."""
        return self._tip.copy()

    def tip_view(self) -> OEMDatabase:
        """The current snapshot itself, never edited: do not write it."""
        return self._tip

    def tip_nodes(self) -> int:
        return len(self._tip)

    def entries(self) -> tuple[tuple[Timestamp, ChangeSet], ...]:
        return tuple(self._entries)

    def entries_between(self, after: Timestamp, until: Timestamp):
        """The entries with ``after < t <= until``, bisected."""
        return entries_between(self._entries, after, until)

    def timestamps(self) -> list[Timestamp]:
        return [when for when, _ in self._entries]

    def last_timestamp(self) -> Timestamp | None:
        return self._entries[-1][0] if self._entries else None

    def history(self) -> OEMHistory:
        """The log's entries as an in-memory :class:`OEMHistory`."""
        history = OEMHistory()
        for when, change_set in self._entries:
            history.append(when, change_set)
        return history

    def get_doem(self) -> DOEMDatabase:
        """``D(O, H)``: the log's own annotated DOEM database.

        It is folded as the log is read and appended to: each change set
        is checked once, on the tip, and then only recorded into the DOEM
        (:func:`~repro.doem.build.record_change_set`).  The log records
        only into the DOEM it left: one whose fingerprint moved behind the
        log's back (folded into by hand, say) is rebuilt from the log
        here or at the next append.  Its snapshot cache reads its misses
        through this log's checkpoints.
        """
        if self._doem.fingerprint() != self._doem_as_of:
            self._refold()
        return self._doem

    def checkpoints(self) -> tuple[CheckpointRef, ...]:
        return tuple(self._checkpoints)

    def segments(self) -> tuple[Path, ...]:
        return tuple(self._segments)

    # -- appending ---------------------------------------------------------

    def _require_writer(self) -> SegmentWriter:
        if self.mode != "rw":
            raise StoreError(f"{self.directory}: log opened read-only")
        if self._writer is None:
            raise StoreError(f"{self.directory}: log is closed")
        return self._writer

    def append(self, when: object, change_set: ChangeSet) -> Timestamp:
        """Durably append one timestamped change set, all or nothing.

        The set is validated against the tip snapshot *before* any bytes
        are written, so an invalid set can never land in the log (nor one
        creating an identifier the DOEM ever held); once it is durable it
        is recorded into the log's DOEM (:meth:`get_doem`).  A
        failed roll, write or fsync cuts the segment back to where the
        frame began and re-raises (if even that fails, the log closes).
        With the ``"always"`` fsync policy the record is on stable storage
        when this returns; a due checkpoint failing then is only noted in
        ``checkpoint_problems``.
        """
        writer = self._require_writer()
        timestamp = parse_timestamp(when)
        if not isinstance(change_set, ChangeSet):
            change_set = ChangeSet(change_set)
        last = self.last_timestamp()
        if last is not None and timestamp <= last:
            raise InvalidHistoryError(
                f"history timestamps must be strictly increasing: "
                f"{timestamp} does not follow {last}")
        doem = self.get_doem()
        new_tip = self._tip.copy()
        deleted = change_set.apply_to(new_tip)  # each raises if invalid
        for op in change_set.filter(CreNode):
            refuse_reused(doem.graph, op.node)

        payload = encode_change_set(timestamp, change_set)
        rolls = (writer.size + FRAME_HEADER.size + len(payload)
                 > self.segment_bytes and writer.size > HEADER_SIZE)
        if rolls:
            writer.fsync()  # seal the active segment
            index = _segment_key(self._segments[-1])[1] + 1
            writer = SegmentWriter(_segment_path(
                self.directory, self.generation, index))
        try:
            written = append_frame(writer, payload, created=rolls,
                                   sync=self.fsync_policy == "always")
        except BaseException:
            if self._writer.closed:  # not even cut back: a reopen recovers
                self._writer = None
            raise
        if self.fsync_policy == "always":
            self.stats.fsyncs += 1
        if rolls:
            close_quietly(self._writer)  # sealed by the fsync above
            self._writer = writer
            self._segments.append(writer.path)
            self.stats.fsyncs += 1
            self.stats.segment_rolls += 1

        self._entries.append((timestamp, change_set))
        self._tip = new_tip
        self._tip_crc = zlib.crc32(payload)
        record_change_set(doem, timestamp, change_set, deleted)
        self._doem_as_of = doem.fingerprint()
        self.stats.appends += 1
        self.stats.ops_appended += len(change_set)
        self.stats.bytes_written += written
        self._ops_since_ckpt += len(change_set)
        self._sets_since_ckpt += 1
        if self.policy.due(self._ops_since_ckpt, self._sets_since_ckpt,
                           len(self._tip)):
            try:
                self.write_checkpoint()
            except OSError as exc:
                self.checkpoint_problems.append(
                    f"checkpoint at {timestamp} not written: {exc}")
        return timestamp

    def extend(self, history: OEMHistory) -> int:
        """Append every entry of ``history``; returns how many landed."""
        count = 0
        for when, change_set in history:
            self.append(when, change_set)
            count += 1
        return count

    def flush(self) -> None:
        """fsync the active segment (a no-op on read-only logs)."""
        if self.mode == "rw" and self._writer is not None:
            self._writer.fsync()
            self.stats.fsyncs += 1

    def close(self) -> None:
        if self._writer is not None:
            self._writer.fsync()
            self._writer.close()
            self._writer = None

    def __enter__(self) -> "HistoryLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- checkpoints -------------------------------------------------------

    def write_checkpoint(self) -> CheckpointRef | None:
        """Materialize the tip as a checkpoint (idempotent per time)."""
        self._require_writer()
        at = self.last_timestamp()
        if at is None:
            return None  # the origin is already the tip
        if self._checkpoints and self._checkpoints[-1].at == at:
            return self._checkpoints[-1]
        self._ckpt_seq += 1
        ref, size = write_checkpoint(self.directory, self._ckpt_seq, at,
                                     self._tip_crc, self._tip)
        self._checkpoints.append(ref)
        self._checkpoints.sort(key=lambda r: (r.at, r.seq))
        self._ops_since_ckpt = 0
        self._sets_since_ckpt = 0
        self.stats.checkpoints_written += 1
        self.stats.bytes_written += size
        self.stats.fsyncs += 1
        emit_event("checkpoint_written", level="info",
                   log=str(self.directory.name), seq=ref.seq,
                   at=str(at), nodes=len(self._tip), bytes=size)
        return ref

    def _load_checkpoint(self, ref: CheckpointRef) -> OEMDatabase | None:
        cached = self._ckpt_cache.get(ref.seq)
        if cached is not None:
            self._ckpt_cache.move_to_end(ref.seq)
            return cached.copy()
        try:
            _, snapshot = read_checkpoint(ref.path)
        except StoreCorruptionError as exc:
            self.stats.checkpoints_skipped += 1
            self.checkpoint_problems.append(str(exc))
            return None
        self.stats.checkpoint_loads += 1
        # Decoded node by node, so all suspects: collected here once (which
        # deletes nothing), its copies start clean.
        snapshot.collect_garbage()
        self._ckpt_cache[ref.seq] = snapshot
        while len(self._ckpt_cache) > _CKPT_CACHE_SLOTS:
            self._ckpt_cache.popitem(last=False)
        return snapshot.copy()

    def nearest_checkpoint(self, when: object) \
            -> tuple[Timestamp, OEMDatabase] | None:
        """The newest durable checkpoint at or before ``when``, loaded.

        Unreadable checkpoints are skipped (falling back to the next
        older); returns ``None`` when no usable checkpoint precedes
        ``when``.
        """
        cutoff = parse_timestamp(when)
        for ref in reversed(self._checkpoints):
            if ref.at <= cutoff:
                snapshot = self._load_checkpoint(ref)
                if snapshot is not None:
                    return ref.at, snapshot
        return None

    # -- time travel -------------------------------------------------------

    def snapshot_at(self, when: object) -> OEMDatabase:
        """``Ot(D)`` by nearest-checkpoint load + bounded delta replay."""
        cutoff = parse_timestamp(when)
        self.stats.snapshot_queries += 1
        nearest = self.nearest_checkpoint(cutoff)
        if nearest is None:
            base_time, snapshot = NEG_INF, self._origin.copy()
            self.stats.snapshots_from_origin += 1
        else:
            base_time, snapshot = nearest
            self.stats.snapshots_from_checkpoint += 1
        replay = self.entries_between(base_time, cutoff)
        for _, change_set in replay:
            change_set.apply_to(snapshot)
        self.stats.replayed_sets += len(replay)
        return snapshot

    # -- compaction --------------------------------------------------------

    def compact(self, before: object | None = None) -> dict:
        """Rewrite the live generation; returns a summary dict.

        Without ``before``, this consolidates every segment into one new
        generation -- every ``Ot`` resolves exactly as before.  With
        ``before=t``, the state at the greatest entry ``<= t`` becomes
        the new origin: times at or after that base stay exact, earlier
        times collapse onto it, and superseded segments and checkpoints
        are deleted.
        """
        self._require_writer()
        old_segments = list(self._segments)
        old_count = len(self._entries)
        if before is None:
            new_origin = self._origin
            kept = self._entries
            base_time: Timestamp | None = None
        else:
            covered = self.entries_between(NEG_INF, parse_timestamp(before))
            if not covered:
                return {"generation": self.generation, "dropped_sets": 0,
                        "dropped_segments": 0, "dropped_checkpoints": 0}
            base_time = covered[-1][0]
            new_origin = self.snapshot_at(base_time)
            kept = self._entries[len(covered):]
        # Checkpoints before the new origin go before the commit: the new
        # generation lacks the sets that would replay from them.  They are
        # advisory, so one deleted by a compaction that then fails costs
        # the old generation replay, never a wrong answer.
        stale = [] if base_time is None else \
            [ref for ref in self._checkpoints if ref.at <= base_time]
        for ref in stale:
            ref.path.unlink(missing_ok=True)
            self._checkpoints.remove(ref)
            self._ckpt_cache.pop(ref.seq, None)

        # Write the consolidated generation, rolling at segment_bytes, over
        # what a failed attempt left; the old one stays live until CURRENT.
        # (The directory fsync before the commit makes the deletions above
        # durable first.)
        new_generation = self.generation + 1
        for path in _list_segments(self.directory, new_generation):
            path.unlink()
        new_segments: list[Path] = []
        writer: SegmentWriter | None = None
        index = 0

        def _next_writer() -> SegmentWriter:
            nonlocal writer, index
            if writer is not None:
                writer.fsync()
                writer.close()
            index += 1
            path = _segment_path(self.directory, new_generation, index)
            writer = SegmentWriter(path)
            new_segments.append(path)
            return writer

        try:
            writer = _next_writer()
            written = writer.append(encode_origin(new_origin))
            for when, change_set in kept:
                payload = encode_change_set(when, change_set)
                if writer.size + FRAME_HEADER.size + len(payload) \
                        > self.segment_bytes:
                    writer = _next_writer()
                written += writer.append(payload)
            writer.fsync()
            _fsync_dir(self.directory)
            # The atomic commit point: CURRENT now names the new generation.
            _write_current(self.directory, new_generation)
        except BaseException:
            close_quietly(writer)
            try:  # a failed directory fsync comes after the rename
                moved = _read_current(self.directory) != self.generation
            except (OSError, StoreError):
                moved = True
            if moved:  # CURRENT may name the new generation: a reopen decides
                close_quietly(self._writer)
                self._writer = None
            raise
        self.stats.bytes_written += written
        self.stats.fsyncs += len(new_segments)
        close_quietly(self._writer)  # its segment is deleted below
        self._writer = writer
        self.generation = new_generation
        self._entries = list(kept)
        self._segments = new_segments
        if before is not None:  # a new origin: fold the kept entries onto it
            self._origin = new_origin.copy()
            self._refold()

        for path in old_segments:
            path.unlink(missing_ok=True)
        _fsync_dir(self.directory)
        self.stats.compactions += 1
        summary = {"generation": new_generation,
                   "dropped_sets": old_count - len(kept),
                   "dropped_segments": len(old_segments),
                   "dropped_checkpoints": len(stale),
                   "segments": len(new_segments)}
        emit_event("store_compacted", level="info",
                   log=str(self.directory.name), **summary)
        return summary

    # -- integrity ---------------------------------------------------------

    def fsck(self, repair: bool = False) -> dict:
        """Re-scan this log's files from disk; see :func:`fsck_log`."""
        if repair:
            # Repair rewrites the tail under the writer's feet; route it
            # through a clean close/reopen so the in-memory state agrees.
            self.close()
            report = fsck_log(self.directory, repair=True)
            self._entries = []
            self._ckpt_cache.clear()
            self._load()
            return report
        return fsck_log(self.directory)

    def info(self) -> dict:
        """A point-in-time description (the ``repro store info`` payload)."""
        seg_bytes = sum(path.stat().st_size for path in self._segments
                        if path.exists())
        return {"generation": self.generation,
                "segments": len(self._segments),
                "segment_bytes": seg_bytes,
                "change_sets": len(self._entries),
                "operations": sum(len(cs) for _, cs in self._entries),
                "checkpoints": len(self._checkpoints),
                "checkpoint_times": [str(ref.at) for ref in self._checkpoints],
                "first_timestamp": str(self._entries[0][0])
                if self._entries else None,
                "last_timestamp": str(self._entries[-1][0])
                if self._entries else None,
                "tip_nodes": len(self._tip),
                "recovered_tail": self.recovered_tail,
                "checkpoint_problems": list(self.checkpoint_problems)}


def fsck_log(directory: str | os.PathLike, repair: bool = False) -> dict:
    """Verify one log directory record-by-record, without loading it.

    Returns a report dict with per-segment record counts, the torn-tail
    diagnosis, checkpoint problems, and ``ok`` (no problem left
    unrepaired).  The segments are checked by the recovery rule
    (:func:`~.segment.fsck_file`): ``repair=True`` cuts a torn tail in the
    last segment back to the last durable record, starts again a last
    segment no longer than its magic, and deletes unreadable checkpoints,
    stale ones (:meth:`~.checkpoint.CheckpointRef.anchored`: they fold an
    entry the durable records do not hold) and stray generations.  What
    an open refuses -- bad magic with bytes after it, damage in an
    interior segment, a first segment without its origin record -- is
    reported, never repaired: the files stay byte for byte as they were.
    """
    directory = Path(directory)
    report: dict = {"path": str(directory), "segments": [], "problems": [],
                    "repaired": [], "ok": True}
    try:
        generation = _read_current(directory)
    except FileNotFoundError:
        report["problems"].append("CURRENT missing: not a history log")
        report["ok"] = False
        return report
    except StoreCorruptionError as exc:
        report["problems"].append(str(exc))
        report["ok"] = False
        return report
    report["generation"] = generation

    segments = _list_segments(directory, generation)
    if not segments:
        report["problems"].append(
            f"generation {generation} has no segments")
        report["ok"] = False
    crcs: dict[Timestamp, int] = {}  # each kept entry's frame CRC
    known = bool(segments)  # are the kept entries known?  Not past damage
    for position, path in enumerate(segments):
        last = position == len(segments) - 1
        scan = SegmentScan(path)
        problems: list[str] = []
        kinds = []
        for payload in scan:
            try:
                kind, value = decode_record(payload)
            except StoreCorruptionError as exc:
                problems.append(f"{path.name}: {exc}")
                continue
            kinds.append(kind)
            if kind == "changeset":
                crcs[value[0]] = scan.crc
        if position == 0 and kinds[:1] != ["origin"] and not scan.damaged:
            problems.append(f"{path.name}: no origin record")
        if problems or scan.damaged or (scan.torn and not last):
            known = False  # an open refuses it
        problem, repaired = fsck_file(
            scan, repair=repair and not problems, last=last)
        report["segments"].append({"segment": path.name,
                                   "records": scan.records,
                                   "good_bytes": scan.good_bytes,
                                   "torn": scan.torn})
        report["problems"].extend(problems)
        if problem is not None:
            report["problems"].append(problem)
        if repaired is not None:
            report["repaired"].append(repaired)
        if problems or (problem is not None and repaired is None):
            report["ok"] = False

    refs, ckpt_problems = scan_checkpoints(directory)
    report["checkpoints"] = 0
    for ref in refs:  # the check tool parses every body an open skips
        if known and not ref.anchored(crcs):
            ckpt_problems.append(f"checkpoint {ref.name}: {STALE}")
            continue
        try:
            read_checkpoint(ref.path)
            report["checkpoints"] += 1
        except StoreCorruptionError as exc:
            ckpt_problems.append(str(exc))
    for problem in ckpt_problems:
        report["problems"].append(problem)
        if repair:
            # The problem string leads with "checkpoint <name>: ...".
            name = problem.split(":", 1)[0].removeprefix("checkpoint ")
            target = directory / name
            if target.exists():
                target.unlink()
                report["repaired"].append(f"{name}: deleted")
        else:
            report["ok"] = False
    # Stray generations (left by an interrupted compaction) are advisory.
    strays = sorted({key[0] for path in directory.glob(
        f"{_SEG_PREFIX}*{_SEG_SUFFIX}")
        if (key := _segment_key(path)) is not None} - {generation})
    if strays:
        report["problems"].append(
            f"stray segment generation(s) {strays} (interrupted "
            f"compaction); live generation is {generation}")
        if repair:
            for path in directory.glob(f"{_SEG_PREFIX}*{_SEG_SUFFIX}"):
                key = _segment_key(path)
                if key is not None and key[0] != generation:
                    path.unlink()
                    report["repaired"].append(f"{path.name}: deleted")
    return report
