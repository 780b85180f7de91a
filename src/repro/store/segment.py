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

Records are only ever appended; a record is *durable* once its bytes
and the frame before it are on stable storage.  :class:`SegmentWriter`
appends frames and fsyncs according to the log's policy (always, or at
segment rolls); :class:`SegmentScan` reads a segment back and classifies
its tail:

* a frame whose header is complete and whose payload matches its CRC is
  a good record;
* anything else -- a truncated header, a length running past the end of
  the file, a checksum mismatch -- marks the *torn tail*: scanning stops
  and ``good_bytes`` records the offset of the last durable record's
  end, which is exactly where crash recovery truncates.

The scan cannot distinguish "the process died mid-append" from "the disk
flipped a bit in the final record"; both are resolved the same way, by
dropping everything from the first bad frame on.  Corruption *before*
the tail (an interior record with a bad checksum while good frames
follow) is still reported the same way -- the log layer decides whether
that is a recoverable tail (last segment) or hard corruption (an interior
segment, :class:`~repro.errors.StoreCorruptionError`).
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path

from ..errors import StoreError

__all__ = ["MAGIC", "HEADER_SIZE", "FRAME_HEADER", "SegmentWriter",
           "SegmentScan", "frame_record"]

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


class SegmentWriter:
    """Appends framed records to one segment file.

    Without ``resume_at`` the segment starts empty: whatever a failed
    earlier attempt left at ``path`` is overwritten.  With it, an
    existing segment is cut back to ``resume_at`` (the durable prefix
    established by a prior :class:`SegmentScan`) -- the crash-recovery
    contract: a torn tail is discarded the moment the log is opened for
    writing.
    """

    def __init__(self, path: str | os.PathLike,
                 resume_at: int | None = None) -> None:
        self.path = Path(path)
        if resume_at is None:
            self._file = open(self.path, "wb")
            self._file.write(MAGIC)
            self._file.flush()
            self.size = HEADER_SIZE
        else:
            self._file = open(self.path, "r+b")
            self.truncate(resume_at)

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


class SegmentScan:
    """Reads a segment, separating the durable prefix from a torn tail.

    Iterate to receive payloads in order; after iteration finishes,

    * ``good_bytes`` is the end offset of the last intact record (the
      truncation point for recovery),
    * ``records`` is how many intact records were read,
    * ``torn`` is ``None`` for a clean segment, else a one-line reason
      (``"truncated header at 412"``, ``"checksum mismatch at 96"``).
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self.good_bytes = 0
        self.records = 0
        self.torn: str | None = None

    def __iter__(self):
        with open(self.path, "rb") as handle:
            magic = handle.read(HEADER_SIZE)
            if magic != MAGIC:
                self.torn = "bad segment magic"
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
                yield payload
