"""The durable store: named history logs under one root directory.

Layout::

    <root>/.doemstore            marker ({"format": 1}) -- "this is a store"
    <root>/LOCK                  single-writer pid file (rw opens only)
    <root>/SUBSCRIPTIONS         the subscription manifest's snapshot
    <root>/SUBSCRIPTIONS.polls   its journal: polls recorded since the
                                 snapshot (QSS servers, both files)
    <root>/<name>/               one :class:`~.log.HistoryLog` per history

**Single writer.**  Opening a store ``"rw"`` takes ``LOCK`` with
``O_CREAT | O_EXCL``; a second writer in another process gets
:class:`~repro.errors.StoreLockedError` (a lock left by a dead process
is detected via its recorded pid and stolen).  Read-only opens never
touch the lock -- the log format is append-only with self-validating
frames, so a reader sees a consistent durable prefix at worst.

**One handle per process.**  :func:`open_store` keeps a process-level
cache keyed by the store's real path, so the CLI's ``--store`` paths and
a QSS server in the same process observe the *same* live handle (and
therefore the same in-memory tips and stats) instead of each loading an
independent copy -- the shared-handle fix for ``repro
explain/analyze/top`` against a served history.  A cached read-only
handle is transparently upgraded when a writer asks for ``"rw"``.
"""

from __future__ import annotations

import errno
import json
import os
import re
import shutil
import threading
import zlib
from pathlib import Path

from ..errors import StoreCorruptionError, StoreError, StoreLockedError
from ..obs.trace import span
from ..oem.history import OEMHistory
from ..oem.model import OEMDatabase
from ..timestamps import Timestamp
from .checkpoint import CheckpointPolicy
from .log import DEFAULT_SEGMENT_BYTES, HistoryLog, StoreStats, \
    atomic_write, fsck_log
from .records import load_json
from .segment import FRAME_HEADER, HEADER_SIZE, SegmentScan, SegmentWriter, \
    append_frame, close_quietly, fsck_file, reopen

__all__ = ["ChangeLogStore", "StoreLock", "open_store", "close_store",
           "is_store", "sanitize_name", "MARKER", "STORE_FORMAT"]

MARKER = ".doemstore"
STORE_FORMAT = 1
_LOCK_FILE = "LOCK"
_SUBSCRIPTIONS = "SUBSCRIPTIONS"
_POLLS = "SUBSCRIPTIONS.polls"
_DROPPED = ".dropped-"

_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*\Z")


def sanitize_name(name: str) -> str:
    """A filesystem-safe history name for an arbitrary string.

    Valid names pass through unchanged; anything else (QSS alias keys
    like ``wrapper::query`` for instance) becomes a slug of its safe
    characters plus a CRC-32 suffix, so distinct keys stay distinct.
    """
    if _NAME_RE.match(name):
        return name
    slug = re.sub(r"[^A-Za-z0-9._-]+", "-", name).strip("-.") or "history"
    return f"{slug[:48]}-{zlib.crc32(name.encode('utf-8')):08x}"


def is_store(path: str | os.PathLike) -> bool:
    """Does ``path`` hold a change-log store (its marker file)?"""
    return (Path(path) / MARKER).is_file()


def _added_polls(old: dict[str, dict],
                 new: dict[str, dict]) -> dict[int, list[str]] | None:
    """The polls ``new`` adds to ``old``, as names by tick.

    ``None`` unless ``new`` only extends polling times: the same names,
    the same definitions, each old list a prefix of its new list, and
    the added ticks integers in order (grouping by tick keeps each
    name's order).  ``{}`` when nothing was added.
    """
    if old.keys() != new.keys():
        return None
    polls: dict[int, list[str]] = {}
    for name, record in new.items():
        before = old[name]
        times, had = record.get("polling_times"), before.get("polling_times")
        if not (isinstance(times, list) and isinstance(had, list)) \
                or len(times) < len(had) or times[:len(had)] != had \
                or record.keys() != before.keys() \
                or any(record[field] != before[field] for field in record
                       if field != "polling_times"):
            return None
        added = times[len(had):]
        if any(type(tick) is not int for tick in added) \
                or any(a > b for a, b in zip(added, added[1:])):
            return None
        for tick in added:
            polls.setdefault(tick, []).append(name)
    return polls


class StoreLock:
    """The store's single-writer pid file.

    Acquired with ``O_CREAT | O_EXCL`` so exactly one process can hold
    it; the holder's pid is recorded, and a lock whose pid no longer
    names a live process is treated as stale and stolen (one retry).
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self._held = False

    def acquire(self) -> None:
        for attempt in (1, 2):
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except OSError as exc:
                if exc.errno != errno.EEXIST:
                    raise
                holder = self._holder_pid()
                if holder is not None and self._alive(holder):
                    raise StoreLockedError(
                        f"{self.path.parent}: store is locked by "
                        f"pid {holder}") from None
                if attempt == 2:
                    raise StoreLockedError(
                        f"{self.path.parent}: stale lock could not be "
                        f"reclaimed") from None
                self.path.unlink(missing_ok=True)  # stale: steal it
                continue
            with os.fdopen(fd, "w") as handle:
                handle.write(str(os.getpid()))
            self._held = True
            return

    def _holder_pid(self) -> int | None:
        try:
            return int(self.path.read_text("utf-8").strip())
        except (OSError, ValueError):
            return None

    @staticmethod
    def _alive(pid: int) -> bool:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except PermissionError:
            return True
        return True

    def release(self) -> None:
        if self._held:
            self.path.unlink(missing_ok=True)
            self._held = False


class ChangeLogStore:
    """Durable named OEM histories (see module docstring).

    ``mode="rw"`` takes the single-writer lock and recovers torn tails
    on open; ``mode="ro"`` reads the durable prefix without locking.
    Checkpoint policy, fsync policy, and segment size apply to every
    log opened through this handle.
    """

    def __init__(self, path: str | os.PathLike, mode: str = "rw", *,
                 policy: CheckpointPolicy | None = None,
                 fsync_policy: str = "always",
                 segment_bytes: int = DEFAULT_SEGMENT_BYTES) -> None:
        if mode not in ("rw", "ro"):
            raise StoreError(f"unknown store mode {mode!r}")
        self.path = Path(path)
        self.mode = mode
        self.policy = policy if policy is not None else CheckpointPolicy()
        self.fsync_policy = fsync_policy
        self.segment_bytes = segment_bytes
        self._logs: dict[str, HistoryLog] = {}
        # The manifest as this writer last read or wrote it: the records,
        # the snapshot's generation and size, and the open journal.
        self._manifest: dict[str, dict] | None = None
        self._manifest_generation = 0
        self._snapshot_bytes = 0
        self._journal: SegmentWriter | None = None
        self._manifest_stats = StoreStats()
        self._lock = threading.RLock()
        self._closed = False

        marker = self.path / MARKER
        if marker.is_file():
            what = f"{marker}: unreadable store marker"
            try:
                manifest = load_json(marker.read_bytes(), what)
            except OSError as exc:
                raise StoreCorruptionError(f"{what}: {exc}") from exc
            if not isinstance(manifest, dict):
                raise StoreCorruptionError(f"{what}: not a JSON object")
            if manifest.get("format") != STORE_FORMAT:
                raise StoreError(
                    f"{self.path}: store format "
                    f"{manifest.get('format')!r} is not supported")
        elif mode == "rw":
            if self.path.exists() and any(self.path.iterdir()):
                raise StoreError(
                    f"{self.path}: directory exists, is not empty, and "
                    f"is not a store (no {MARKER})")
            self.path.mkdir(parents=True, exist_ok=True)
            marker.write_text(json.dumps({"format": STORE_FORMAT}) + "\n",
                              encoding="utf-8")
        else:
            raise StoreError(f"{self.path}: not a change-log store "
                             f"(no {MARKER})")

        self._write_lock = StoreLock(self.path / _LOCK_FILE)
        if mode == "rw":
            self._write_lock.acquire()
            for doomed in self.path.glob(_DROPPED + "*"):
                shutil.rmtree(doomed)  # a drop() that a crash cut short

    # -- naming -----------------------------------------------------------

    def _check_name(self, name: str) -> str:
        if not _NAME_RE.match(name):
            raise StoreError(
                f"invalid history name {name!r} (use sanitize_name())")
        return name

    def names(self) -> list[str]:
        """Every history in the store, sorted."""
        if not self.path.is_dir():
            return []
        return sorted(entry.name for entry in self.path.iterdir()
                      if _NAME_RE.match(entry.name)
                      and (entry / "CURRENT").exists())

    def __contains__(self, name: str) -> bool:
        return (self.path / name / "CURRENT").exists()

    # -- logs -------------------------------------------------------------

    def log(self, name: str, *, origin: OEMDatabase | None = None) \
            -> HistoryLog:
        """The named history's log, opened (and cached) on first use.

        ``origin`` creates the history when it does not exist yet
        (rw mode only); without it, a missing history is an error.
        """
        self._check_name(name)
        with self._lock:
            if self._closed:
                raise StoreError(f"{self.path}: store is closed")
            log = self._logs.get(name)
            if log is None:
                exists = name in self
                if not exists and origin is None:
                    raise StoreError(
                        f"{self.path}: no history named {name!r} "
                        f"(have {self.names()})")
                if not exists and self.mode != "rw":
                    raise StoreError(
                        f"{self.path}: read-only open cannot create "
                        f"history {name!r}")
                log = HistoryLog(self.path / name, self.mode,
                                 origin=None if exists else origin,
                                 policy=self.policy,
                                 fsync_policy=self.fsync_policy,
                                 segment_bytes=self.segment_bytes)
                self._logs[name] = log
            return log

    def create(self, name: str, origin: OEMDatabase) -> HistoryLog:
        """Create a new named history from its origin snapshot."""
        if name in self:
            raise StoreError(f"{self.path}: history {name!r} already exists")
        return self.log(name, origin=origin)

    def put_history(self, name: str, origin: OEMDatabase,
                    history: OEMHistory) -> HistoryLog:
        """Create a history and append every entry of ``history``."""
        log = self.create(name, origin)
        log.extend(history)
        return log

    def drop(self, name: str) -> None:
        """Delete the named history: its directory and its cached log.

        Renamed aside before it is removed, so a crash leaves the whole
        history or none of it under ``name``; the next writer sweeps up.
        """
        self._require_writer()
        if self._check_name(name) not in self:
            raise StoreError(f"{self.path}: no history named {name!r}")
        with self._lock:
            log = self._logs.pop(name, None)
        if log is not None:
            log.close()
        doomed = self.path / (_DROPPED + name)
        os.rename(self.path / name, doomed)
        shutil.rmtree(doomed)

    # -- the subscription manifest ----------------------------------------

    def subscriptions(self) -> dict[str, dict]:
        """The recorded subscriptions by name: Figure 7's Subscription Store.

        The snapshot document at the store root with the polls its
        journal recorded since replayed onto it.  :mod:`repro.qss`
        defines the record fields and decides when to record; this layer
        keeps the two files atomic and checked.  The writer holds the
        lock, so what it last read or wrote is what is on disk; a
        read-only handle reads both files on every call.
        """
        with self._lock:
            return dict(self._load_manifest())

    def _load_manifest(self) -> dict[str, dict]:
        if self._manifest is None or self.mode == "ro":
            records, generation, size = self._read_snapshot()
            scan = self._replay_journal(records, generation)
            self._close_journal()
            if scan is not None:
                self._journal = reopen(scan, writable=self.mode == "rw",
                                       log=_SUBSCRIPTIONS,
                                       stats=self._manifest_stats)
            self._manifest, self._manifest_generation, self._snapshot_bytes \
                = records, generation, size
        return self._manifest

    def _forget_manifest(self) -> None:
        """Drop what this handle holds of the manifest; the next call
        reads the disk again (after a write whose outcome is unknown)."""
        self._close_journal()
        self._manifest = None

    def _close_journal(self) -> None:
        close_quietly(self._journal)
        self._journal = None

    def _read_snapshot(self) -> tuple[dict[str, dict], int, int]:
        """The snapshot's records, generation and size in bytes.

        A snapshot written before the journal existed has no generation
        and reads as generation 0.
        """
        path = self.path / _SUBSCRIPTIONS
        what = f"{path}: unreadable subscription manifest"
        try:
            data = path.read_bytes()
            document = load_json(data, what)
            records = document["subscriptions"]
            generation = document.get("g", 0)
            if type(generation) is not int:
                raise TypeError("the generation is not an integer")
            if not all(isinstance(record, dict)
                       for record in records.values()):
                raise TypeError("a subscription record is not an object")
        except FileNotFoundError:
            return {}, 0, 0
        except (OSError, ValueError, KeyError, TypeError,
                AttributeError) as exc:
            raise StoreCorruptionError(f"{what}: {exc}") from exc
        return records, generation, len(data)

    def _replay_journal(self, records: dict[str, dict],
                        generation: int) -> SegmentScan | None:
        """Append the journal's polls of ``generation`` to ``records``.

        Records of another generation are skipped: they belong to a
        snapshot rewritten since (a crash before the journal was cut) or
        to one this reader has not seen yet.  Reads the durable prefix;
        returns the scan, or ``None`` when there is no journal.
        """
        path = self.path / _POLLS
        if not path.exists():
            return None
        scan = SegmentScan(path)
        for payload in scan:
            try:
                entry = load_json(payload, "undecodable")
                if entry["g"] != generation:
                    continue
                for tick, names in entry["polls"].items():
                    for name in names:
                        records[name]["polling_times"].append(int(tick))
            except (StoreCorruptionError, ValueError, KeyError, TypeError,
                    AttributeError) as exc:
                raise StoreCorruptionError(
                    f"{path}: unreadable journal record at "
                    f"{scan.good_bytes}: {exc}") from exc
        return scan

    def record_subscriptions(self, records: dict[str, dict]) -> None:
        """Durably make ``records`` the recorded subscriptions.

        When ``records`` only adds polling times to the recorded names,
        the new ticks are appended to the journal as one record and
        fsync'd; otherwise -- a name added or dropped, a definition
        changed -- or when the journal would outgrow the snapshot, the
        snapshot is rewritten atomically under the next generation and
        the journal cut back to its magic.
        """
        self._require_writer()
        with self._lock:
            current = self._load_manifest()
            polls = _added_polls(current, records)
            if polls == {}:
                return  # nothing new to make durable
            payload = None
            if polls is not None:
                payload = json.dumps(
                    {"g": self._manifest_generation,
                     "polls": {str(tick): polls[tick]
                               for tick in sorted(polls)}},
                    separators=(",", ":")).encode("utf-8")
                size = self._journal.size if self._journal is not None \
                    else HEADER_SIZE
                if size + FRAME_HEADER.size + len(payload) \
                        > self._snapshot_bytes:
                    payload = None
            with span("store.subscriptions",
                      mode="rewrite" if payload is None else "append"):
                if payload is None:
                    self._rewrite_snapshot(records)
                else:
                    self._append_polls(payload)
            self._manifest = dict(records)

    def _append_polls(self, payload: bytes) -> None:
        """One journal record, fsync'd, all or nothing (a log's append);
        creating the journal also fsyncs the directory."""
        created = self._journal is None
        journal = SegmentWriter(self.path / _POLLS) if created \
            else self._journal
        try:
            written = append_frame(journal, payload, created=created)
        except BaseException:
            if not created and journal.closed:
                self._forget_manifest()  # a reread recovers the torn tail
            raise
        self._journal = journal
        self._manifest_stats.bytes_written += written
        self._manifest_stats.fsyncs += 2 if created else 1

    def _rewrite_snapshot(self, records: dict[str, dict]) -> None:
        generation = self._manifest_generation + 1
        document = {"format": STORE_FORMAT, "g": generation,
                    "subscriptions": records}
        try:
            written = atomic_write(self.path / _SUBSCRIPTIONS,
                                   json.dumps(document, separators=(",", ":")))
        except BaseException:
            self._forget_manifest()  # the rename may have happened
            raise
        self._manifest_stats.bytes_written += written
        self._manifest_stats.fsyncs += 2  # the file, then its directory
        self._manifest_generation, self._snapshot_bytes = generation, written
        if self._journal is not None:
            # Its records are of the old generation: dead, and skipped
            # by every reader even if this cut never reaches the disk.
            try:
                self._journal.truncate(HEADER_SIZE)
            except OSError:
                self._close_journal()  # the next append starts it afresh

    def _require_writer(self) -> None:
        if self.mode != "rw":
            raise StoreError(f"{self.path}: store opened read-only")

    # -- convenience pass-throughs ---------------------------------------

    def snapshot_at(self, name: str, when: object) -> OEMDatabase:
        return self.log(name).snapshot_at(when)

    def get_doem(self, name: str):
        return self.log(name).get_doem()

    def checkpoint(self, name: str):
        return self.log(name).write_checkpoint()

    def compact(self, name: str, before: object | None = None) -> dict:
        return self.log(name).compact(before)

    # -- maintenance ------------------------------------------------------

    def fsck(self, repair: bool = False) -> dict:
        """Verify (optionally repair) every history; see :func:`fsck_log`.

        Runs from the on-disk state; open logs are reloaded after a
        repairing pass so in-memory views stay consistent.  The
        subscription manifest is checked at the store level, its journal
        by the segments' recovery rule (:func:`~.segment.fsck_file`): a
        torn tail is cut back to its durable prefix, a journal no longer
        than its magic started again.  An unreadable snapshot, a journal
        record that does not decode, or bad magic with bytes after it is
        never repaired: ``ok`` stays false and the files as they were.
        """
        problems, repaired = self._fsck_manifest(repair)
        ok = len(problems) == len(repaired)
        reports = []
        for name in self.names():
            with self._lock:
                log = self._logs.get(name)
            if log is not None:
                report = log.fsck(repair=repair)
            else:
                report = fsck_log(self.path / name, repair=repair)
            report["name"] = name
            reports.append(report)
            ok = ok and report["ok"]
        return {"path": str(self.path), "ok": ok, "problems": problems,
                "repaired": repaired, "histories": reports}

    def _fsck_manifest(self, repair: bool) -> tuple[list[str], list[str]]:
        """The manifest's problems and its repairs (one per problem
        repaired)."""
        problems: list[str] = []
        try:
            records, generation, _ = self._read_snapshot()
        except StoreCorruptionError as exc:
            problems.append(str(exc))
            records, generation = {}, None  # still decode the journal
        try:
            scan = self._replay_journal(records, generation)
        except StoreCorruptionError as exc:
            problems.append(str(exc))
            scan = None
        if scan is None:
            return problems, []
        with self._lock:
            if repair:
                self._forget_manifest()
            problem, repaired = fsck_file(scan, repair=repair)
        if problem is not None:
            problems.append(problem)
        return problems, [] if repaired is None else [repaired]

    def info(self) -> dict:
        """Per-history descriptions, the recorded subscriptions, totals."""
        histories = {}
        for name in self.names():
            histories[name] = self.log(name).info()
        subscriptions = {
            name: {"wrapper": record.get("wrapper"),
                   "doem_key": record.get("doem_key"),
                   "polls": len(times := record.get("polling_times") or []),
                   "last_poll": str(Timestamp(times[-1])) if times else None}
            for name, record in sorted(self.subscriptions().items())}
        return {"path": str(self.path), "mode": self.mode,
                "histories": histories,
                "subscriptions": subscriptions,
                "change_sets": sum(h["change_sets"]
                                   for h in histories.values()),
                "checkpoints": sum(h["checkpoints"]
                                   for h in histories.values())}

    def stats(self) -> dict:
        """Summed counters across every open log in this handle, plus
        the manifest's own writes (snapshot and journal)."""
        totals = {field: 0 for field in StoreStats._FIELDS}
        with self._lock:
            every = [self._manifest_stats,
                     *(log.stats for log in self._logs.values())]
        for stats in every:
            for field, value in stats.as_dict().items():
                totals[field] += value
        return totals

    def flush(self) -> None:
        """fsync every open log's active segment."""
        with self._lock:
            logs = list(self._logs.values())
        for log in logs:
            log.flush()

    def close(self) -> None:
        """Flush and close every log, then release the writer lock."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            logs = list(self._logs.values())
            self._logs.clear()
        for log in logs:
            log.close()
        self._forget_manifest()
        if self.mode == "rw":
            self._write_lock.release()
        _evict_handle(self)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "ChangeLogStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"<ChangeLogStore {self.path} mode={self.mode} "
                f"histories={len(self.names())}>")


# ---------------------------------------------------------------------------
# The process-level handle cache (the shared-handle bugfix)
# ---------------------------------------------------------------------------

_HANDLES: dict[str, ChangeLogStore] = {}
# Reentrant: ChangeLogStore.close() evicts its own cache entry, and the
# rw-upgrade path in open_store closes the stale handle under this lock.
_HANDLES_LOCK = threading.RLock()


def open_store(path: str | os.PathLike, mode: str = "rw",
               **kwargs) -> ChangeLogStore:
    """The process's shared handle for the store at ``path``.

    Repeated opens of the same real path return one live
    :class:`ChangeLogStore`; a cached read-only handle is upgraded in
    place when a writer asks for ``"rw"`` (a cached writer serves
    read-only requests as-is).  Keyword arguments configure the handle
    only when it is first created (or upgraded).
    """
    key = os.path.realpath(path)
    with _HANDLES_LOCK:
        cached = _HANDLES.get(key)
        if cached is not None and not cached.closed:
            if mode == "rw" and cached.mode == "ro":
                cached.close()  # upgrade: reopen with the writer lock
            else:
                return cached
        store = ChangeLogStore(path, mode, **kwargs)
        _HANDLES[key] = store
        return store


def close_store(path: str | os.PathLike) -> None:
    """Close (and evict) the cached handle for ``path``, if any."""
    key = os.path.realpath(path)
    with _HANDLES_LOCK:
        store = _HANDLES.pop(key, None)
    if store is not None:
        store.close()


def _evict_handle(store: ChangeLogStore) -> None:
    with _HANDLES_LOCK:
        for key, cached in list(_HANDLES.items()):
            if cached is store:
                del _HANDLES[key]
