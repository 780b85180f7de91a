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
bounds how many operations that replay can span.

**Recovery.**  Opening for writing truncates a torn tail in the *last*
segment back to the last durable record (counted and logged as a
``store_recovered`` event); corruption anywhere else -- an interior
segment, an interior record -- is not silently repairable and raises
:class:`~repro.errors.StoreCorruptionError`.  :func:`fsck_log` performs
the same analysis without loading the history, reporting (and with
``repair=True`` fixing) what it finds.

**Compaction.**  :meth:`compact` rewrites the live segments into a new
generation and atomically swaps ``CURRENT`` -- with no horizon it only
consolidates (every ``Ot`` still resolves exactly); with ``before=t`` it
promotes the state at the greatest entry ``<= t`` to the new origin and
drops the records and checkpoints before it, so history at or after the
horizon stays exact while earlier times collapse onto the new origin.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from pathlib import Path

from ..errors import InvalidChangeError, InvalidHistoryError, \
    StoreCorruptionError, StoreError
from ..obs.events import emit_event
from ..obs.metrics import CounterField, registry as metrics_registry
from ..oem.history import ChangeSet, OEMHistory, entries_between
from ..oem.model import OEMDatabase
from ..timestamps import NEG_INF, Timestamp, parse_timestamp
from .checkpoint import CheckpointPolicy, CheckpointRef, read_checkpoint, \
    scan_checkpoints, write_checkpoint
from .records import decode_record, encode_change_set, encode_origin
from .segment import FRAME_HEADER, HEADER_SIZE, SegmentScan, SegmentWriter

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


def _fsync_dir(directory: Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _read_current(directory: Path) -> int:
    path = directory / _CURRENT
    try:
        manifest = json.loads(path.read_text("utf-8"))
        return int(manifest["generation"])
    except FileNotFoundError:
        raise
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise StoreCorruptionError(
            f"{path}: unreadable CURRENT manifest: {exc}") from exc


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
        self._tip = origin.copy()
        path = _segment_path(self.directory, 1, 1)
        writer = SegmentWriter(path)
        written = writer.append(encode_origin(self._origin))
        writer.fsync()
        self.stats.bytes_written += written
        self.stats.fsyncs += 1
        self._segments = [path]
        self._writer = writer
        self._checkpoints: list[CheckpointRef] = []
        self._ckpt_seq = 0
        self._ops_since_ckpt = 0
        self._sets_since_ckpt = 0
        _write_current(self.directory, 1)

    def _load(self) -> None:
        self.generation = _read_current(self.directory)
        self._segments = _list_segments(self.directory, self.generation)
        if not self._segments:
            raise StoreCorruptionError(
                f"{self.directory}: CURRENT points at generation "
                f"{self.generation} but no segments exist")
        origin: OEMDatabase | None = None
        last_scan: SegmentScan | None = None
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
                    self._tip = origin.copy()
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
                        change_set.apply_to(self._tip)
                    except (InvalidChangeError, InvalidHistoryError) as exc:
                        raise StoreCorruptionError(
                            f"{path.name}: change set at {when} does not "
                            f"apply: {exc}") from exc
                    self._entries.append((when, change_set))
            if scan.torn is not None and position < len(self._segments) - 1:
                raise StoreCorruptionError(
                    f"{path.name}: interior segment is corrupt "
                    f"({scan.torn}) with later segments present")
            last_scan = scan
        if origin is None:
            raise StoreCorruptionError(
                f"{self._segments[0].name}: no origin record")
        self._origin = origin

        if self.mode == "rw":
            assert last_scan is not None
            if last_scan.torn is not None:
                self.recovered_tail = last_scan.torn
                self.stats.recovered_tails += 1
                emit_event("store_recovered", level="warning",
                           log=str(self.directory.name),
                           segment=self._segments[-1].name,
                           reason=last_scan.torn,
                           truncated_to=last_scan.good_bytes)
            self._writer = SegmentWriter(self._segments[-1],
                                         resume_at=last_scan.good_bytes)
        elif last_scan is not None and last_scan.torn is not None:
            # Read-only: note the torn tail but leave the bytes alone.
            self.recovered_tail = last_scan.torn

        self._checkpoints, self.checkpoint_problems = \
            scan_checkpoints(self.directory)
        self._ckpt_seq = max((ref.seq for ref in self._checkpoints),
                             default=0)
        last_ckpt = self._checkpoints[-1].at if self._checkpoints else None
        self._ops_since_ckpt = 0
        self._sets_since_ckpt = 0
        for when, change_set in self._entries:
            if last_ckpt is None or when > last_ckpt:
                self._ops_since_ckpt += len(change_set)
                self._sets_since_ckpt += 1

    # -- views ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def origin(self) -> OEMDatabase:
        """A copy of the generation's base snapshot."""
        return self._origin.copy()

    def tip(self) -> OEMDatabase:
        """A copy of the current (latest) snapshot."""
        return self._tip.copy()

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

    def get_doem(self):
        """``D(O, H)``: the full annotated DOEM database.

        DOEM construction is inherently a full fold of the history --
        annotations encode every change -- so this replays the whole
        generation; checkpoints accelerate :meth:`snapshot_at`, not this.
        """
        from ..doem.build import build_doem
        return build_doem(self._origin, self.history())

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
        """Durably append one timestamped change set.

        The set is validated against the tip snapshot *before* any bytes
        are written, so an invalid set can never land in the log.  With
        the ``"always"`` fsync policy the record is on stable storage
        when this returns.
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
        new_tip = self._tip.copy()
        change_set.apply_to(new_tip)  # raises InvalidChangeError if invalid

        payload = encode_change_set(timestamp, change_set)
        frame_size = FRAME_HEADER.size + len(payload)
        if (writer.size + frame_size > self.segment_bytes
                and writer.size > HEADER_SIZE):
            writer = self._roll()
        written = writer.append(payload)
        if self.fsync_policy == "always":
            writer.fsync()
            self.stats.fsyncs += 1

        self._entries.append((timestamp, change_set))
        self._tip = new_tip
        self.stats.appends += 1
        self.stats.ops_appended += len(change_set)
        self.stats.bytes_written += written
        self._ops_since_ckpt += len(change_set)
        self._sets_since_ckpt += 1
        if self.policy.due(self._ops_since_ckpt, self._sets_since_ckpt,
                           len(self._tip)):
            self.write_checkpoint()
        return timestamp

    def extend(self, history: OEMHistory) -> int:
        """Append every entry of ``history``; returns how many landed."""
        count = 0
        for when, change_set in history:
            self.append(when, change_set)
            count += 1
        return count

    def _roll(self) -> SegmentWriter:
        """Seal the active segment and start the next one."""
        writer = self._require_writer()
        writer.close()
        self.stats.fsyncs += 1
        self.stats.segment_rolls += 1
        key = _segment_key(self._segments[-1])
        assert key is not None
        path = _segment_path(self.directory, self.generation, key[1] + 1)
        self._writer = SegmentWriter(path)
        self._segments.append(path)
        _fsync_dir(self.directory)
        return self._writer

    def flush(self) -> None:
        """fsync the active segment (a no-op on read-only logs)."""
        if self.mode == "rw" and self._writer is not None:
            self._writer.fsync()
            self.stats.fsyncs += 1

    def close(self) -> None:
        if self._writer is not None:
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
                                     self._tip)
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

        new_generation = self.generation + 1
        self._writer.close()
        self._writer = None

        # Write the consolidated generation, rolling at segment_bytes.
        new_segments: list[Path] = []
        writer: SegmentWriter | None = None
        index = 0

        def _next_writer() -> SegmentWriter:
            nonlocal writer, index
            if writer is not None:
                writer.close()
            index += 1
            path = _segment_path(self.directory, new_generation, index)
            writer = SegmentWriter(path)
            new_segments.append(path)
            return writer

        writer = _next_writer()
        written = writer.append(encode_origin(new_origin))
        for when, change_set in kept:
            payload = encode_change_set(when, change_set)
            if writer.size + FRAME_HEADER.size + len(payload) \
                    > self.segment_bytes:
                writer = _next_writer()
            written += writer.append(payload)
        writer.close()
        _fsync_dir(self.directory)
        self.stats.bytes_written += written
        self.stats.fsyncs += len(new_segments)

        # The atomic commit point: CURRENT now names the new generation.
        _write_current(self.directory, new_generation)

        dropped_ckpts = 0
        if base_time is not None:
            survivors = []
            for ref in self._checkpoints:
                if ref.at < base_time:
                    ref.path.unlink(missing_ok=True)
                    dropped_ckpts += 1
                else:
                    survivors.append(ref)
            self._checkpoints = survivors
            self._ckpt_cache.clear()
        for path in old_segments:
            path.unlink(missing_ok=True)
        _fsync_dir(self.directory)

        self.generation = new_generation
        self._origin = new_origin.copy() if before is not None else self._origin
        self._entries = list(kept)
        self._segments = new_segments
        self._writer = SegmentWriter(new_segments[-1])
        self.stats.compactions += 1
        summary = {"generation": new_generation,
                   "dropped_sets": old_count - len(kept),
                   "dropped_segments": len(old_segments),
                   "dropped_checkpoints": dropped_ckpts,
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
    diagnosis, checkpoint problems, and ``ok`` (no problems found).
    ``repair=True`` truncates a torn tail in the last segment back to
    the last durable record and deletes unreadable checkpoints; interior
    corruption (a bad record with good segments after it) is reported
    but never auto-repaired.
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
    for position, path in enumerate(segments):
        scan = SegmentScan(path)
        decode_errors: list[str] = []
        for payload in scan:
            try:
                decode_record(payload)
            except StoreCorruptionError as exc:
                decode_errors.append(f"{path.name}: {exc}")
        entry = {"segment": path.name, "records": scan.records,
                 "good_bytes": scan.good_bytes, "torn": scan.torn}
        report["segments"].append(entry)
        report["problems"].extend(decode_errors)
        if decode_errors:
            report["ok"] = False
        if scan.torn is not None:
            last = position == len(segments) - 1
            if last:
                report["problems"].append(
                    f"{path.name}: torn tail ({scan.torn}); "
                    f"last durable record ends at {scan.good_bytes}")
                if repair:
                    with open(path, "r+b") as handle:
                        handle.truncate(scan.good_bytes)
                        os.fsync(handle.fileno())
                    report["repaired"].append(
                        f"{path.name}: truncated to {scan.good_bytes}")
                else:
                    report["ok"] = False
            else:
                report["problems"].append(
                    f"{path.name}: interior corruption ({scan.torn}) -- "
                    f"not auto-repairable")
                report["ok"] = False

    refs, ckpt_problems = scan_checkpoints(directory)
    report["checkpoints"] = len(refs)
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
