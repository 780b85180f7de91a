"""What an open reads of a checkpoint, and which checkpoints a log keeps.

An open checks each checkpoint's header and the CRC of its body and
parses no body: the first lookup that loads a checkpoint parses it (and
skips it, falling back to an older one, if it does not parse), and fsck
parses every body.  Bodies and origins are written unindented; stores
written with indented text read the same.  A horizon compaction deletes
the checkpoints before its new origin before ``CURRENT`` names the new
generation, so no reopened log replays over one.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import pytest

from repro.oem import serialize
from repro.sources.generators import demo_world, random_database, \
    random_history
from repro.store import CheckpointPolicy, HistoryLog, fsck_log
from repro.store import checkpoint as checkpoint_module
from repro.store import log as log_module
from repro.store import records as records_module

EVERY_SET = CheckpointPolicy(replay_budget=1, size_weight=0.0, min_sets=1)


def build(tmp_path, *, policy=EVERY_SET, world=None):
    db, history = world or demo_world(days=12)
    log = HistoryLog(tmp_path / "h", origin=db, policy=policy)
    log.extend(history)
    log.close()
    return db, history, tmp_path / "h"


def count_body_parses(monkeypatch) -> list:
    calls = []
    real = checkpoint_module.loads

    def counted(text, *args, **kwargs):
        calls.append(len(text))
        return real(text, *args, **kwargs)
    monkeypatch.setattr(checkpoint_module, "loads", counted)
    return calls


def rewrite_body(path: Path, body: bytes) -> None:
    """Replace a checkpoint's body, keeping its header valid (CRC too)."""
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    header["crc"] = zlib.crc32(body)
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)


class TestOpenParsesNoBody:
    @pytest.mark.parametrize("mode", ["rw", "ro"])
    def test_open_decodes_no_checkpoint_body(self, tmp_path, monkeypatch,
                                             mode):
        db, history, directory = build(tmp_path)
        parses = count_body_parses(monkeypatch)
        log = HistoryLog(directory, mode)
        assert len(log.checkpoints()) >= 8
        assert parses == [] and log.stats.checkpoint_loads == 0

        when = log.checkpoints()[-1].at
        assert log.snapshot_at(when).same_as(history.snapshot_at(db, when))
        assert len(parses) == 1 and log.stats.checkpoint_loads == 1
        assert log.stats.snapshots_from_checkpoint == 1
        log.close()

    def test_a_body_that_fails_to_parse_is_skipped_at_lookup(self, tmp_path):
        db, history, directory = build(tmp_path)
        refs = HistoryLog(directory, "ro").checkpoints()
        bad = refs[-1]
        rewrite_body(bad.path, b"&answer { unclosed: &x ")

        log = HistoryLog(directory)
        # Indexed at open: its header and CRC hold.
        assert log.checkpoints() == refs
        assert log.checkpoint_problems == []

        when = bad.at
        assert log.snapshot_at(when).same_as(history.snapshot_at(db, when))
        assert log.stats.checkpoints_skipped == 1
        assert log.stats.snapshots_from_checkpoint == 1  # an older one
        assert any(bad.name in problem and "failed to parse" in problem
                   for problem in log.checkpoint_problems)
        log.close()

        report = fsck_log(directory)
        assert not report["ok"]
        assert report["checkpoints"] == len(refs) - 1
        assert any(bad.name in problem for problem in report["problems"])
        assert fsck_log(directory, repair=True)["repaired"] == \
            [f"{bad.name}: deleted"]
        assert fsck_log(directory)["ok"]

    @pytest.mark.parametrize("damage", ["torn", "flipped", "header"])
    def test_damaged_files_are_not_indexed(self, tmp_path, damage):
        db, history, directory = build(tmp_path)
        refs = HistoryLog(directory, "ro").checkpoints()
        bad = refs[-1].path
        data = bytearray(bad.read_bytes())
        if damage == "torn":
            data = data[:len(data) * 2 // 3]
        elif damage == "flipped":
            data[-3] ^= 0x20
        else:  # flipped bits turn the "at" key into "as"
            data[data.index(b'"at"') + 2] ^= 0x07
        bad.write_bytes(bytes(data))

        log = HistoryLog(directory, "ro")
        assert log.checkpoints() == refs[:-1]
        assert len(log.checkpoint_problems) == 1
        when = refs[-1].at
        assert log.snapshot_at(when).same_as(history.snapshot_at(db, when))
        log.close()


class TestUnindentedText:
    def test_new_bodies_and_origins_are_unindented(self, tmp_path):
        _, _, directory = build(tmp_path)
        body = sorted(directory.glob("ckpt-*.oem"))[-1].read_bytes()
        assert b"\n " not in body.split(b"\n", 1)[1]
        segment = sorted(directory.glob("seg-*.log"))[0].read_bytes()
        assert b"\\n " not in segment

    def test_a_store_written_with_indented_text_reads_exactly(
            self, tmp_path, monkeypatch):
        def indented(db, indent=2):
            return serialize.dumps(db, indent=2)
        with monkeypatch.context() as patch:
            patch.setattr(checkpoint_module, "dumps", indented)
            patch.setattr(records_module, "dumps", indented)
            db = random_database(seed=7, nodes=30)
            db, history, directory = build(
                tmp_path, world=(db, random_history(db, seed=7, steps=12)),
                policy=CheckpointPolicy(replay_budget=6, size_weight=0.0,
                                        min_sets=1))
        body = sorted(directory.glob("ckpt-*.oem"))[-1].read_bytes()
        assert b"\n  " in body
        assert b"\\n  " in sorted(directory.glob("seg-*.log"))[0].read_bytes()

        log = HistoryLog(directory)
        assert log.origin().same_as(db)
        for when in history.timestamps():
            assert log.snapshot_at(when).same_as(
                history.snapshot_at(db, when)), when
        assert log.stats.snapshots_from_checkpoint > 0
        assert log.checkpoint_problems == []
        log.close()
        assert fsck_log(directory)["ok"]


class TestHorizonCompactionCheckpoints:
    def horizon_log(self, tmp_path):
        """A 12-day log with checkpoints only before the horizon."""
        db, history = demo_world(days=12)
        entries = list(history)
        log = HistoryLog(tmp_path / "h", origin=db,
                         policy=CheckpointPolicy.disabled())
        for when, change_set in entries[:4]:
            log.append(when, change_set)
        log.write_checkpoint()
        for when, change_set in entries[4:]:
            log.append(when, change_set)
        return db, history, log, entries[7][0]

    def test_a_failed_checkpoint_delete_leaves_reopen_exact(
            self, tmp_path, monkeypatch):
        db, history, log, horizon = self.horizon_log(tmp_path)
        real_unlink = Path.unlink

        def unlink(path, *args, **kwargs):
            if path.name.startswith("ckpt-"):
                raise OSError("injected: checkpoint delete")
            return real_unlink(path, *args, **kwargs)
        with monkeypatch.context() as patch:
            patch.setattr(Path, "unlink", unlink)
            with pytest.raises(OSError, match="checkpoint delete"):
                log.compact(before=horizon)
        log.close()

        reopened = HistoryLog(tmp_path / "h")
        for when in history.timestamps():
            if when >= horizon:
                assert reopened.snapshot_at(when).same_as(
                    history.snapshot_at(db, when)), when
        reopened.close()

    def test_stale_checkpoints_are_gone_before_current_moves(
            self, tmp_path, monkeypatch):
        db, history, log, horizon = self.horizon_log(tmp_path)
        stale = [ref.path for ref in log.checkpoints()]
        real_write_current = log_module._write_current
        seen = []

        def write_current(directory, generation):
            seen.append([path.exists() for path in stale])
            real_write_current(directory, generation)
        monkeypatch.setattr(log_module, "_write_current", write_current)
        summary = log.compact(before=horizon)
        assert seen == [[False] * len(stale)]
        assert summary["dropped_checkpoints"] == len(stale)
        assert log.checkpoints() == ()
        for when in history.timestamps():
            if when >= horizon:
                assert log.snapshot_at(when).same_as(
                    history.snapshot_at(db, when)), when
        log.close()
