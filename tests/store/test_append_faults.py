"""One ``OSError`` at each step of a write leaves the log as it was.

The all-or-nothing contract of docs/storage.md ("Faults"): after a failed
append, history creation or compaction the live segments' bytes,
``len(log)``, the tip and ``info()`` are unchanged, the next append
lands, and a reopened log holds what the one in memory does.  A due
checkpoint that fails after its record is durable is noted, not raised.
"""

from __future__ import annotations

import pytest

from repro.errors import StoreError
from repro.sources.generators import demo_world
from repro.store import CheckpointPolicy, HistoryLog
from repro.store import log as log_module
from repro.store.segment import SegmentWriter, frame_record

TINY_SEGMENTS = 512  # bytes: every few appends roll


class Injected(OSError):
    pass


def arm(monkeypatch, step, k=1):
    """The ``k``-th call from now of one history segment step (``seg-*``
    files; the subscription journal is left alone) raises (none with
    ``k=None``); returns the list of calls, which grows with each.

    ``"write"`` puts half the frame in the file first, ``"flush"`` all
    of it (the flush failed after the bytes left), ``"fsync"`` flushes.
    """
    calls = []
    real = getattr(SegmentWriter, "fsync" if step == "fsync" else "append")

    def append(writer, payload):
        if not writer.path.name.startswith("seg-"):
            return real(writer, payload)
        calls.append(step)
        if len(calls) != k:
            return real(writer, payload)
        frame = frame_record(payload)
        writer._file.write(frame if step == "flush"
                           else frame[:len(frame) // 2])
        writer._file.flush()
        raise Injected(step)

    def fsync(writer):
        if not writer.path.name.startswith("seg-"):
            return real(writer)
        calls.append(step)
        if len(calls) != k:
            return real(writer)
        writer._file.flush()
        raise Injected(step)

    monkeypatch.setattr(SegmentWriter, "fsync" if step == "fsync"
                        else "append", fsync if step == "fsync" else append)
    return calls


def make_log(tmp_path, *, segment_bytes=1 << 20, policy=None, days=6):
    """A log holding all of a demo history but its last entry, which it
    returns for the test to append."""
    db, history = demo_world(days=days)
    entries = list(history)
    log = HistoryLog(tmp_path / "h", origin=db, segment_bytes=segment_bytes,
                     policy=policy or CheckpointPolicy.disabled())
    for when, change_set in entries[:-1]:
        log.append(when, change_set)
    return log, entries[-1]


def state(log):
    return ({path.name: path.read_bytes() for path in log.segments()},
            len(log), log.tip(), log.info())


def assert_unchanged(log, before):
    segments, length, tip, info = before
    assert {path.name: path.read_bytes()
            for path in log.segments()} == segments
    assert len(log) == length
    assert log.tip().same_as(tip)
    assert log.info() == info


def assert_reopens(log):
    reopened = HistoryLog(log.directory, "ro")
    assert reopened.recovered_tail is None
    assert reopened.entries() == log.entries()
    assert reopened.origin().same_as(log.origin())
    assert reopened.tip().same_as(log.tip())


@pytest.mark.parametrize("step", ["write", "flush", "fsync"])
def test_failed_append_leaves_the_log_as_it_was(tmp_path, monkeypatch, step):
    log, (when, change_set) = make_log(tmp_path)
    before = state(log)
    with monkeypatch.context() as patched:
        arm(patched, step)
        with pytest.raises(Injected):
            log.append(when, change_set)
    assert_unchanged(log, before)
    log.append(when, change_set)
    assert len(log) == before[1] + 1
    assert_reopens(log)
    log.close()


@pytest.mark.parametrize("step,k", [("write", 1), ("flush", 1),
                                    ("fsync", 1), ("fsync", 2)])
def test_failed_roll_leaves_no_segment_behind(tmp_path, monkeypatch, step,
                                              k):
    """``fsync`` 1 seals the active segment, 2 syncs the new record."""
    log, (when, change_set) = make_log(tmp_path)
    log.segment_bytes = log.segments()[-1].stat().st_size  # the next rolls
    segments = len(log.segments())
    before = state(log)
    with monkeypatch.context() as patched:
        arm(patched, step, k)
        with pytest.raises(Injected):
            log.append(when, change_set)
    assert_unchanged(log, before)
    assert sorted(log.directory.glob("seg-*.log")) == list(log.segments())
    log.append(when, change_set)
    assert len(log.segments()) == segments + 1, "the retry rolls"
    assert_reopens(log)
    log.close()


def test_failed_checkpoint_is_noted_not_raised(tmp_path, monkeypatch):
    log, (when, change_set) = make_log(
        tmp_path, policy=CheckpointPolicy(replay_budget=1, min_sets=1))
    checkpoints = log.checkpoints()

    def failing(*args):
        raise Injected("checkpoint")

    monkeypatch.setattr(log_module, "write_checkpoint", failing)
    assert log.append(when, change_set) == when
    assert log.checkpoints() == checkpoints
    assert str(when) in log.checkpoint_problems[-1]
    monkeypatch.undo()
    assert_reopens(log)
    log.close()


@pytest.mark.parametrize("step", ["write", "fsync"])
def test_failed_creation_can_be_made_again(tmp_path, monkeypatch, step):
    """A leftover first segment does not give the history a second
    origin: a segment the log starts begins empty."""
    db, history = demo_world(days=3)
    with monkeypatch.context() as patched:
        arm(patched, step)
        with pytest.raises(Injected):
            HistoryLog(tmp_path / "h", origin=db)
    assert list((tmp_path / "h").glob("seg-*.log"))  # something was left
    log = HistoryLog(tmp_path / "h", origin=db)
    log.extend(history)
    assert_reopens(log)
    log.close()


@pytest.mark.parametrize("fault", ["origin-write", "later-write", "commit"])
def test_failed_compaction_leaves_the_old_generation_live(
        tmp_path, monkeypatch, fault):
    log, (when, change_set) = make_log(tmp_path, segment_bytes=TINY_SEGMENTS,
                                       days=10)
    cutoff = log.timestamps()[len(log) // 2]
    before = state(log)
    with monkeypatch.context() as patched:
        if fault == "commit":
            def failing(*args):
                raise Injected("CURRENT")
            patched.setattr(log_module, "_write_current", failing)
        else:
            arm(patched, "write", 1 if fault == "origin-write" else 3)
        with pytest.raises(Injected):
            log.compact(before=cutoff)
    assert_unchanged(log, before)
    log.append(when, change_set)  # the old generation takes appends
    assert_reopens(log)
    entries = log.entries()
    log.compact(before=cutoff)    # and a later attempt succeeds
    assert log.entries() == tuple(entry for entry in entries
                                  if entry[0] > cutoff)
    assert sorted(log.directory.glob("seg-*.log")) == list(log.segments())
    assert_reopens(log)
    log.close()


def test_compaction_committed_before_its_failure_closes_the_log(
        tmp_path, monkeypatch):
    """The directory fsync after the ``CURRENT`` rename fails: the new
    generation is named, so the log takes no more appends into the old
    one, and opening it again follows ``CURRENT``."""
    log, (when, change_set) = make_log(tmp_path, segment_bytes=TINY_SEGMENTS,
                                       days=10)
    cutoff = log.timestamps()[len(log) // 2]
    kept = tuple(entry for entry in log.entries() if entry[0] > cutoff)
    real = log_module._fsync_dir

    def failing(directory):
        if (directory / "CURRENT").read_text() != '{"generation": 1}':
            raise Injected("directory fsync")
        real(directory)

    with monkeypatch.context() as patched:
        patched.setattr(log_module, "_fsync_dir", failing)
        with pytest.raises(Injected):
            log.compact(before=cutoff)
    with pytest.raises(StoreError, match="closed"):
        log.append(when, change_set)
    reopened = HistoryLog(log.directory)
    assert reopened.generation == 2
    assert reopened.entries() == kept
    reopened.append(when, change_set)
    reopened.close()


def test_a_log_that_cannot_cut_back_closes(tmp_path, monkeypatch):
    """The frame is half written and the truncate fails too: the log
    closes, and opening it again recovers the durable prefix."""
    log, (when, change_set) = make_log(tmp_path)
    entries = log.entries()

    def failing(writer, size):
        raise Injected("truncate")

    with monkeypatch.context() as patched:
        arm(patched, "write")
        patched.setattr(SegmentWriter, "truncate", failing)
        with pytest.raises(Injected):
            log.append(when, change_set)
    with pytest.raises(StoreError, match="closed"):
        log.append(when, change_set)
    reopened = HistoryLog(log.directory)
    assert reopened.recovered_tail is not None
    assert reopened.entries() == entries
    reopened.append(when, change_set)
    reopened.close()


def test_a_retried_compaction_ignores_what_a_failed_one_left(tmp_path,
                                                             monkeypatch):
    """The failed attempt wrote more of the next generation than the
    retry does: none of the extra segments may join it."""
    log, _ = make_log(tmp_path, segment_bytes=TINY_SEGMENTS, days=10)
    times = log.timestamps()

    def failing(*args):
        raise Injected("CURRENT")

    with monkeypatch.context() as patched:
        patched.setattr(log_module, "_write_current", failing)
        with pytest.raises(Injected):
            log.compact(before=times[0])  # keeps nearly every entry
    log.compact(before=times[-2])         # keeps one
    assert len(log.segments()) == 1
    assert_reopens(log)
    log.close()
