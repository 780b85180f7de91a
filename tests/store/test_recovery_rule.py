"""The recovery rule, swept over damage to the store's append-only files.

One rule holds for the history segments and the subscription journal,
from every entry point -- read-write open, read-only open, ``fsck`` and
``fsck --repair`` (docs/storage.md, "Crash recovery"):

* a torn tail, or a file no longer than its magic, gives every entry
  point the same durable prefix: a writer cuts the tail (or starts the
  file again), a reader skips it, ``--repair`` does what the writer does;
* bad magic with bytes after it is refused by every open, reported by
  ``fsck`` and left byte for byte as it was by ``--repair``: the frames
  after it may be acknowledged records, each behind its own CRC.

The newest file of a 3-segment history and a journal of four polls are
cut at every byte offset and have one bit flipped at sampled offsets of
the magic, the frame headers and the payloads.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest

from repro.cli import main as cli
from repro.errors import StoreCorruptionError
from repro.oem.changes import AddArc, CreNode
from repro.oem.history import ChangeSet
from repro.sources.generators import demo_world
from repro.store import ChangeLogStore, CheckpointPolicy, HistoryLog, \
    fsck_log
from repro.store.checkpoint import STALE
from repro.store.segment import FRAME_HEADER, HEADER_SIZE, MAGIC
from tests.store.test_subscription_journal import DAY, RECORDS, T0, polled

REFUSED = "refused"
JOURNAL = "SUBSCRIPTIONS.polls"
_cases = itertools.count()


def frames(data: bytes) -> list[tuple[int, int]]:
    """(start, end) of each frame of an intact file."""
    spans, offset = [], HEADER_SIZE
    while offset < len(data):
        length, _ = FRAME_HEADER.unpack_from(data, offset)
        end = offset + FRAME_HEADER.size + length
        spans.append((offset, end))
        offset = end
    return spans


def damages(data: bytes):
    """``(label, damaged bytes, whole frames kept or None if refused)``:
    every cut, then one flipped bit at sampled offsets."""
    spans = frames(data)
    for size in range(len(data) + 1):
        kept = sum(end <= size for _, end in spans)
        yield f"cut at {size}", data[:size], kept
    offsets = list(range(HEADER_SIZE))
    for start, end in spans:
        offsets += range(start, start + FRAME_HEADER.size)
        body = start + FRAME_HEADER.size
        offsets += sorted({body, (body + end) // 2, end - 1})
    for offset in offsets:
        flipped = bytearray(data)
        flipped[offset] ^= 1 << (offset % 8)
        kept = None if offset < HEADER_SIZE else \
            sum(end <= offset for _, end in spans)
        yield f"bit flipped at {offset}", bytes(flipped), kept


def lay_out(tmp_path: Path, files: dict[str, bytes]) -> Path:
    directory = tmp_path / f"case-{next(_cases)}"
    directory.mkdir()
    for name, data in files.items():
        (directory / name).write_bytes(data)
    return directory


def contents(directory: Path, files: dict[str, bytes]) -> dict[str, bytes]:
    return {name: (directory / name).read_bytes() for name in files}


# -- the history ------------------------------------------------------------

@pytest.fixture(scope="module")
def history(tmp_path_factory):
    """A 3-segment log's files and entries, and its newest segment."""
    directory = tmp_path_factory.mktemp("history") / "h"
    db, entries = demo_world(days=9)
    log = HistoryLog(directory, origin=db, segment_bytes=350,
                     policy=CheckpointPolicy.disabled())
    log.extend(entries)
    log.close()
    files = {path.name: path.read_bytes()
             for path in sorted(directory.iterdir())}
    segments = sorted(name for name in files if name.startswith("seg-"))
    assert len(segments) == 3
    newest = segments[-1]
    assert len(frames(files[newest])) >= 3
    return files, log.entries(), newest


def open_log(directory: Path, mode: str):
    try:
        log = HistoryLog(directory, mode)
    except StoreCorruptionError:
        return REFUSED
    entries = log.entries()
    log.close()
    return entries


def assert_history_rule(tmp_path, files, newest, expected):
    reader, writer, repaired = (lay_out(tmp_path, files) for _ in range(3))
    seen = {"ro": open_log(reader, "ro"), "rw": open_log(writer, "rw")}
    report = fsck_log(reader)
    repair = fsck_log(repaired, repair=True)
    assert contents(reader, files) == files, "a reader wrote"
    if expected == REFUSED:
        assert seen == {"ro": REFUSED, "rw": REFUSED}
        assert not report["ok"] and not repair["ok"]
        assert not repair["repaired"]
        assert contents(repaired, files) == files
        assert contents(writer, files) == files
        assert not fsck_log(repaired)["ok"]
        return
    assert seen == {"ro": expected, "rw": expected}
    assert repair["ok"]
    assert report["ok"] == (not repair["repaired"])
    for directory in (writer, repaired):
        assert fsck_log(directory)["ok"]
        assert open_log(directory, "ro") == expected


def test_the_history_rule_under_every_cut_and_sampled_flip(tmp_path,
                                                           history):
    files, entries, newest = history
    before = len(entries) - len(frames(files[newest]))
    cases = 0
    for label, data, kept in damages(files[newest]):
        expected = REFUSED if kept is None else entries[:before + kept]
        try:
            assert_history_rule(tmp_path, {**files, newest: data}, newest,
                                expected)
        except AssertionError as exc:
            raise AssertionError(f"{newest}, {label}: {exc}") from exc
        cases += 1
    assert cases > len(files[newest])


# -- checkpoints and the entries they fold ----------------------------------

@pytest.fixture(scope="module")
def checkpointed(tmp_path_factory):
    """A one-segment ``roll`` log checkpointed after each of its 6 sets."""
    directory = tmp_path_factory.mktemp("checkpointed") / "h"
    db, history = demo_world(days=6)
    log = HistoryLog(directory, origin=db, fsync_policy="roll",
                     policy=CheckpointPolicy(replay_budget=1,
                                             size_weight=0.0, min_sets=1))
    log.extend(history)
    log.close()
    assert len(log.checkpoints()) == len(history) == 6
    files = {path.name: path.read_bytes()
             for path in sorted(directory.iterdir())}
    (segment,) = [name for name in files if name.startswith("seg-")]
    return db, history, files, segment


def replayed(db, entries, when):
    """``Ot`` replayed from the origin over ``entries``."""
    snapshot = db.copy()
    for at, change_set in entries:
        if at <= when:
            change_set.apply_to(snapshot)
    return snapshot


def stale(report: dict) -> int:
    return sum(STALE in problem for problem in report["problems"])


def test_a_checkpoint_never_outlives_the_entries_it_folds(tmp_path,
                                                          checkpointed):
    """Cut the segment anywhere past its origin: rw and ro opens answer
    every entry time of the uncut history from the kept entries only (a
    rw open deletes the checkpoints of lost entries, a ro open skips
    them), ``fsck`` reports each stale one and ``--repair`` deletes it."""
    db, history, files, segment = checkpointed
    data = files[segment]
    spans = frames(data)  # the origin's first
    entries = history.entries()
    ends = {end for _, end in spans}
    for size in range(spans[0][1], len(data) + 1):
        kept = entries[:sum(end <= size for _, end in spans[1:])]
        lost = len(entries) - len(kept)
        for mode in ("ro", "rw"):
            directory = lay_out(tmp_path, {**files, segment: data[:size]})
            log = HistoryLog(directory, mode)
            try:
                assert log.entries() == kept, (size, mode)
                for when in history.timestamps():
                    assert log.snapshot_at(when).same_as(
                        replayed(db, kept, when)), (size, mode, when)
                assert len(log.checkpoints()) == len(kept), (size, mode)
            finally:
                log.close()
            if size not in ends and size - 1 not in ends:
                continue  # fsck: sampled at and just past frame ends
            if mode == "rw":
                assert fsck_log(directory)["ok"], size
                continue
            assert stale(fsck_log(directory)) == lost, size
            repair = fsck_log(directory, repair=True)
            assert repair["ok"] and stale(repair) == lost, size
            assert fsck_log(directory)["ok"], size
            assert len(list(directory.glob("ckpt-*"))) == len(kept), size


def lost_checkpoint(files: dict[str, bytes]) -> str:
    """The checkpoint of the newest entry (one per entry, in order)."""
    return max(name for name in files if name.startswith("ckpt-"))


def test_a_tail_written_again_is_not_shadowed(tmp_path, checkpointed):
    """The newest frame is torn, a different set is appended at its time,
    and then the lost entry's checkpoint is put back: it names the lost
    frame's CRC, so no open serves the lost state from it."""
    db, history, files, segment = checkpointed
    data = files[segment]
    directory = lay_out(tmp_path, {**files, segment: data[:-5]})
    when = history.timestamps()[-1]
    log = HistoryLog(directory, "rw")
    assert len(log) == len(history) - 1
    other = ChangeSet([CreNode("again", 1),
                       AddArc(log.tip_view().root, "again", "again")])
    log.append(when, other)
    log.close()
    for path in directory.glob("ckpt-*"):
        path.unlink()
    name = lost_checkpoint(files)
    (directory / name).write_bytes(files[name])
    expected = replayed(db, history.entries()[:-1] + ((when, other),), when)
    assert not expected.same_as(history.snapshot_at(db, when))
    for mode in ("ro", "rw"):
        reopened = HistoryLog(directory, mode)
        assert reopened.checkpoints() == (), mode
        assert reopened.snapshot_at(when).same_as(expected), mode
        reopened.close()
    assert not (directory / name).exists()  # the rw open deleted it


def test_a_format_1_checkpoint_is_judged_by_its_time(tmp_path,
                                                     checkpointed):
    """Checkpoints written before the anchor have none: indexed where
    their time is a kept entry's, stale past the tip."""
    db, history, files, segment = checkpointed
    legacy = {}
    for name, data in files.items():
        if name.startswith("ckpt-"):
            line, _, body = data.partition(b"\n")
            header = json.loads(line)
            del header["anchor"]
            header["format"] = 1
            data = json.dumps(header).encode() + b"\n" + body
        legacy[name] = data
    spans = frames(files[segment])
    directory = lay_out(tmp_path, {**legacy,
                                   segment: files[segment][:spans[-1][0]]})
    with HistoryLog(directory, "ro") as log:
        assert [ref.at for ref in log.checkpoints()] == \
            history.timestamps()[:-1]
        assert all(ref.anchor is None for ref in log.checkpoints())
        when = history.timestamps()[-1]
        assert log.snapshot_at(when).same_as(
            replayed(db, history.entries()[:-1], when))
        assert log.stats.snapshots_from_checkpoint == 1


# -- the journal ------------------------------------------------------------

@pytest.fixture(scope="module")
def journal(tmp_path_factory):
    """A store's manifest files with a journal of four polls, and the
    recorded subscriptions after each."""
    root = tmp_path_factory.mktemp("journal") / "st"
    states = [RECORDS]
    with ChangeLogStore(root) as store:
        store.record_subscriptions(RECORDS)
        for day in range(2, 6):
            states.append(polled(states[-1], T0 + day * DAY))
            store.record_subscriptions(states[-1])
    files = {name: (root / name).read_bytes()
             for name in (".doemstore", "SUBSCRIPTIONS", JOURNAL)}
    assert len(frames(files[JOURNAL])) == 4
    return files, states


def read_manifest(directory: Path, mode: str):
    try:
        with ChangeLogStore(directory, mode) as store:
            return store.subscriptions()
    except StoreCorruptionError:
        return REFUSED


def fsck_store(directory: Path, repair: bool = False) -> dict:
    with ChangeLogStore(directory, "rw" if repair else "ro") as store:
        return store.fsck(repair=repair)


def assert_journal_rule(tmp_path, files, expected):
    reader, writer, repaired = (lay_out(tmp_path, files) for _ in range(3))
    seen = {"ro": read_manifest(reader, "ro"),
            "rw": read_manifest(writer, "rw")}
    report = fsck_store(reader)
    repair = fsck_store(repaired, repair=True)
    assert contents(reader, files) == files, "a reader wrote"
    if expected == REFUSED:
        assert seen == {"ro": REFUSED, "rw": REFUSED}
        assert not report["ok"] and not repair["ok"]
        assert not repair["repaired"]
        assert contents(repaired, files) == files
        assert contents(writer, files) == files
        assert not fsck_store(repaired)["ok"]
        return
    assert seen == {"ro": expected, "rw": expected}
    assert repair["ok"]
    assert report["ok"] == (not repair["repaired"])
    for directory in (writer, repaired):
        assert fsck_store(directory)["ok"]
        assert read_manifest(directory, "ro") == expected


def test_the_journal_rule_under_every_cut_and_sampled_flip(tmp_path,
                                                           journal):
    files, states = journal
    for label, data, kept in damages(files[JOURNAL]):
        expected = REFUSED if kept is None else states[kept]
        try:
            assert_journal_rule(tmp_path, {**files, JOURNAL: data},
                                expected)
        except AssertionError as exc:
            raise AssertionError(f"{JOURNAL}, {label}: {exc}") from exc


# -- the three damaged-magic probes -------------------------------------------

def five_segment_history(root: Path) -> tuple[Path, object]:
    db, entries = demo_world(days=8)
    with ChangeLogStore(root, segment_bytes=225,
                        policy=CheckpointPolicy.disabled()) as store:
        store.put_history("h", db, entries)
    segments = sorted((root / "h").glob("seg-*.log"))
    assert len(segments) == 5 and len(entries) == 8
    return segments[-1], entries.entries()


def one_segment_history(root: Path) -> tuple[Path, object]:
    db, entries = demo_world(days=8)
    with ChangeLogStore(root, policy=CheckpointPolicy.disabled()) as store:
        store.put_history("h", db, entries)
    [segment] = (root / "h").glob("seg-*.log")
    return segment, entries.entries()


def four_poll_journal(root: Path) -> tuple[Path, object]:
    states = [RECORDS]
    with ChangeLogStore(root) as store:
        store.record_subscriptions(RECORDS)
        for day in range(2, 6):
            states.append(polled(states[-1], T0 + day * DAY))
            store.record_subscriptions(states[-1])
    return root / JOURNAL, states[-1]


def what_opens_see(root: Path, mode: str):
    try:
        with ChangeLogStore(root, mode) as store:
            if "h" in store:
                return store.log("h").entries()
            return store.subscriptions()
    except StoreCorruptionError:
        return REFUSED


@pytest.mark.parametrize("make", [five_segment_history, one_segment_history,
                                  four_poll_journal])
def test_a_damaged_magic_is_never_repaired_away(tmp_path, make):
    """Every open refuses, ``fsck`` fails, ``fsck --repair`` fails and
    leaves the file as it was; restoring the 8 magic bytes by hand gives
    every acknowledged record back."""
    root = tmp_path / "st"
    damaged_file, everything = make(root)
    data = damaged_file.read_bytes()
    damaged = b"NOTMAGIC" + data[HEADER_SIZE:]
    damaged_file.write_bytes(damaged)
    for mode in ("ro", "rw"):
        assert what_opens_see(root, mode) == REFUSED
    assert cli(["store", "fsck", str(root)]) == 1
    assert cli(["store", "fsck", str(root), "--repair"]) == 1
    assert damaged_file.read_bytes() == damaged
    damaged_file.write_bytes(MAGIC + damaged[HEADER_SIZE:])
    assert cli(["store", "fsck", str(root)]) == 0
    for mode in ("ro", "rw"):
        assert what_opens_see(root, mode) == everything
