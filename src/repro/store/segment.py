"""Append-only segment files: length-prefixed, checksummed records.

A segment is the unit of the durable change log.  The on-disk layout is
deliberately boring -- the format a recovery tool can re-derive from one
paragraph of documentation::

    +----------+----------------------------------------------+
    | 8 bytes  | magic ``DOEMSEG1``                           |
    +----------+----------------------------------------------+
    | 4 bytes  | record length N (big-endian, payload only)   |
    | 4 bytes  | CRC-32 of the payload                        |
    | N bytes  | payload (UTF-8 JSON, :mod:`..store.records`) |
    +----------+  ... repeated until end of file ...          |

The history segments and the subscription journal are both this
format, written and recovered by this module alone.  A record is
*durable* once its frame is on stable storage; :func:`append_frame` is
the one all-or-nothing append.  :class:`SegmentScan` reads a file back:
the first frame with a short header or payload, an implausible length or
a CRC mismatch starts the *torn tail* -- a crash mid-append and a flipped
bit in the final record look alike.  One **recovery rule** holds for
every file and entry point (:func:`reopen` for opens, :func:`fsck_file`
for fsck):

* a torn tail: a writer cuts it, a reader skips it, ``--repair`` cuts it;
* a file no longer than its magic (a creation or roll cut short): a
  writer or ``--repair`` starts it again, a reader reads nothing;
* bad magic with bytes after it, or damage in a file with later ones in
  its chain: every open raises :class:`~repro.errors.StoreCorruptionError`
  and ``--repair`` leaves it alone -- acknowledged records may follow.
"""

from __future__ import annotations

import os
import struct
import zlib
from contextlib import suppress
from pathlib import Path

from ..errors import StoreCorruptionError, StoreError
from ..obs.events import emit_event

__all__ = ["MAGIC", "HEADER_SIZE", "FRAME_HEADER", "SegmentWriter",
           "SegmentScan", "frame_record", "append_frame", "reopen",
           "fsck_file", "fsync_dir", "close_quietly"]

MAGIC = b"DOEMSEG1"
HEADER_SIZE = len(MAGIC)
FRAME_HEADER = struct.Struct(">II")  # (payload length, CRC-32)

# A single record larger than this is a framing error, not data: it
# guards the scanner against interpreting garbage as a gigantic length
# and allocating unbounded memory.
MAX_RECORD_BYTES = 1 << 28


def frame_record(payload: bytes) -> bytes:
    """The on-disk frame for one payload: header + bytes."""
    if len(payload) > MAX_RECORD_BYTES:
        raise StoreError(f"record of {len(payload)} bytes exceeds the "
                         f"{MAX_RECORD_BYTES}-byte frame limit")
    return FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def fsync_dir(directory: Path) -> None:
    """Make the entries of ``directory`` durable (a created file's name)."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class SegmentWriter:
    """Appends framed records to one segment file.

    Without ``resume_at`` the segment starts empty: whatever a failed
    earlier attempt left at ``path`` is overwritten (and if writing the
    magic fails, the file is deleted).  With it, an existing segment is
    cut back to ``resume_at``, the durable prefix a :class:`SegmentScan`
    established.  :meth:`close` does not fsync.
    """

    def __init__(self, path: str | os.PathLike,
                 resume_at: int | None = None) -> None:
        self.path = Path(path)
        if resume_at is None:
            self._file = open(self.path, "wb")
            try:
                self._file.write(MAGIC)
                self._file.flush()
            except BaseException:
                self.discard()
                raise
            self.size = HEADER_SIZE
        else:
            self._file = open(self.path, "r+b")
            self.truncate(resume_at)

    @property
    def closed(self) -> bool:
        return self._file.closed

    def append(self, payload: bytes) -> int:
        """Append one framed record; returns the bytes written."""
        frame = frame_record(payload)
        self._file.write(frame)
        self._file.flush()
        self.size += len(frame)
        return len(frame)

    def truncate(self, size: int) -> None:
        """Cut the segment back to ``size`` bytes and append from there."""
        self._file.seek(size)
        self._file.truncate()
        self.size = size

    def fsync(self) -> None:
        """Force the segment's bytes to stable storage."""
        self._file.flush()
        os.fsync(self._file.fileno())

    def close(self) -> None:
        """Close the file; :meth:`fsync` first to make its bytes durable."""
        self._file.close()

    def discard(self) -> None:
        """Close the file and delete it."""
        self._file.close()
        self.path.unlink(missing_ok=True)


def close_quietly(writer: SegmentWriter | None) -> None:
    """Close an abandoned writer; a failure of its own adds nothing."""
    if writer is not None:
        with suppress(OSError):
            writer.close()


def append_frame(writer: SegmentWriter, payload: bytes, *,
                 sync: bool = True, created: bool = False) -> int:
    """Append one frame, all or nothing; returns the bytes written.

    The frame is written and (``sync``) fsync'd, and the directory too
    if the writer was ``created`` for it; or the file is cut back to where
    the frame began, or deleted if created, and the error re-raised.  If
    even that fails, the writer is closed and a reopen recovers.
    """
    start = writer.size
    try:
        written = writer.append(payload)
        if sync:
            writer.fsync()
        if created:
            fsync_dir(writer.path.parent)
    except BaseException:
        try:
            if created:
                writer.discard()
            else:
                writer.truncate(start)
        except OSError:
            close_quietly(writer)
        raise
    return written


class SegmentScan:
    """Reads a segment, separating the durable prefix from a torn tail.

    Iterate to receive payloads in order; after iteration finishes,

    * ``good_bytes`` is the end offset of the last intact record (the
      truncation point for recovery; 0 when the magic is not intact),
    * ``records`` is how many intact records were read (and during
      iteration, ``crc`` is the CRC-32 of the payload just yielded),
    * ``torn`` is ``None`` for a clean segment, else a one-line reason
      (``"truncated header at 412"``, ``"checksum mismatch at 96"``),
    * ``damaged`` says the magic is bad with bytes after it: damage no
      recovery may cut, since acknowledged records may follow.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self.good_bytes = 0
        self.records = 0
        self.crc = 0
        self.torn: str | None = None
        self.damaged = False

    def refuse(self, last: bool = True) -> None:
        """Raise :class:`StoreCorruptionError` if the recovery rule refuses
        the file read: bad magic with bytes after it, or -- ``last`` False,
        later files following it -- any damage at all."""
        if self.damaged:
            raise StoreCorruptionError(
                f"{self.path.name}: bad segment magic with bytes after it")
        if self.torn is not None and not last:
            raise StoreCorruptionError(
                f"{self.path.name}: interior segment is corrupt "
                f"({self.torn}) with later segments present")

    def __iter__(self):
        with open(self.path, "rb") as handle:
            magic = handle.read(HEADER_SIZE)
            if magic != MAGIC:
                self.torn = "bad segment magic"
                self.damaged = bool(handle.read(1))
                return
            offset = HEADER_SIZE
            self.good_bytes = offset
            while True:
                header = handle.read(FRAME_HEADER.size)
                if not header:
                    return  # clean end of file
                if len(header) < FRAME_HEADER.size:
                    self.torn = f"truncated header at {offset}"
                    return
                length, checksum = FRAME_HEADER.unpack(header)
                if length > MAX_RECORD_BYTES:
                    self.torn = f"implausible record length at {offset}"
                    return
                payload = handle.read(length)
                if len(payload) < length:
                    self.torn = f"truncated record at {offset}"
                    return
                if zlib.crc32(payload) != checksum:
                    self.torn = f"checksum mismatch at {offset}"
                    return
                offset += FRAME_HEADER.size + length
                self.good_bytes = offset
                self.records += 1
                self.crc = checksum
                yield payload


def reopen(scan: SegmentScan, *, writable: bool, log: str,
           stats) -> SegmentWriter | None:
    """Open the last file of a chain, read to its end by ``scan``, by the
    recovery rule: refused damage raises, a reader gets ``None``, a
    writer a :class:`SegmentWriter` past the durable prefix.  A cut or
    restart is counted in ``stats.recovered_tails`` and logged as a
    ``store_recovered`` event of ``log``."""
    scan.refuse()
    if not writable:
        return None
    if scan.torn is not None:
        stats.recovered_tails += 1
        emit_event("store_recovered", level="warning", log=log,
                   segment=scan.path.name, reason=scan.torn,
                   truncated_to=scan.good_bytes)
    if scan.good_bytes:
        return SegmentWriter(scan.path, resume_at=scan.good_bytes)
    writer = SegmentWriter(scan.path)
    try:
        fsync_dir(scan.path.parent)
    except BaseException:
        writer.close()
        raise
    return writer


def fsck_file(scan: SegmentScan, *, repair: bool = False,
              last: bool = True) -> tuple[str | None, str | None]:
    """``(problem, repaired)`` for a file read to its end by ``scan``, by
    the recovery rule: each ``None`` or one line.  Refused damage is
    never repaired; the file stays byte for byte as it was."""
    if scan.torn is None:
        return None, None
    try:
        scan.refuse(last)
    except StoreCorruptionError as exc:
        return f"{exc} -- not auto-repairable", None
    problem = (f"{scan.path.name}: torn tail ({scan.torn}); last durable "
               f"record ends at {scan.good_bytes}")
    if not repair:
        return problem, None
    writer = SegmentWriter(scan.path, resume_at=scan.good_bytes or None)
    try:
        writer.fsync()
    finally:
        writer.close()
    return problem, f"{scan.path.name}: cut to {writer.size} bytes"
