"""Deeply nested JSON in any store file is corruption, not a crash.

``json.loads`` recurses once per nesting level, so a hundred thousand
``[`` overflow the interpreter's stack.  Every JSON file and record of
the store -- a CRC-valid segment frame, a journal record, a checkpoint
header, ``CURRENT``, the marker and ``SUBSCRIPTIONS`` -- goes through
:func:`repro.store.records.load_json`, which turns that into
:class:`~repro.errors.StoreCorruptionError`.  Read-write and read-only
opens and ``repro store fsck`` then give a typed error or a
``problem:`` line, never a traceback.
"""

from __future__ import annotations

import io

import pytest

from repro.cli import main as cli
from repro.errors import ReproError, StoreCorruptionError
from repro.store import ChangeLogStore, close_store
from repro.store.records import decode_record, load_json
from repro.store.segment import frame_record
from tests.conftest import make_guide_db, make_guide_history

DEEP = b"[" * 100_000

RECORDS = {"Guide": {"name": "Guide", "wrapper": "guide",
                     "doem_key": "guide", "polling_times": [1]}}


def test_the_helper_maps_depth_and_syntax():
    for data in (DEEP, DEEP.decode(), b"{", b"\xff"):
        with pytest.raises(StoreCorruptionError, match="^what: "):
            load_json(data, "what")
    assert load_json(b'{"a": [1]}', "what") == {"a": [1]}
    with pytest.raises(StoreCorruptionError, match="undecodable record"):
        decode_record(DEEP)


def make_store(path):
    with ChangeLogStore(path) as store:
        store.put_history("guide", make_guide_db(), make_guide_history())
        store.checkpoint("guide")
        store.record_subscriptions(RECORDS)
        polled = {"Guide": dict(RECORDS["Guide"], polling_times=[1, 2])}
        store.record_subscriptions(polled)
    close_store(path)
    assert (path / "SUBSCRIPTIONS.polls").stat().st_size > 8


def damage(path, kind: str) -> None:
    history = path / "guide"
    if kind == "segment":
        segment = sorted(history.glob("seg-*.log"))[-1]
        with open(segment, "ab") as handle:
            handle.write(frame_record(DEEP))
    elif kind == "journal":
        with open(path / "SUBSCRIPTIONS.polls", "ab") as handle:
            handle.write(frame_record(DEEP))
    elif kind == "checkpoint":
        checkpoint = sorted(history.glob("ckpt-*.oem"))[-1]
        body = checkpoint.read_bytes().split(b"\n", 1)[1]
        checkpoint.write_bytes(DEEP + b"\n" + body)
    elif kind == "CURRENT":
        (history / "CURRENT").write_bytes(DEEP)
    elif kind == "marker":
        (path / ".doemstore").write_bytes(DEEP)
    else:
        (path / "SUBSCRIPTIONS").write_bytes(DEEP)


KINDS = ["segment", "journal", "checkpoint", "CURRENT", "marker",
         "SUBSCRIPTIONS"]


@pytest.mark.parametrize("mode", ["rw", "ro"])
@pytest.mark.parametrize("kind", KINDS)
def test_an_open_raises_a_typed_error(tmp_path, kind, mode):
    path = tmp_path / "st"
    make_store(path)
    damage(path, kind)
    try:
        with ChangeLogStore(path, mode) as store:
            store.get_doem("guide")
            store.subscriptions()
            store.info()
    except ReproError:
        pass
    finally:
        close_store(path)


@pytest.mark.parametrize("kind", KINDS)
def test_fsck_names_the_problem(tmp_path, kind, capsys):
    path = tmp_path / "st"
    make_store(path)
    damage(path, kind)
    out = io.StringIO()
    assert cli(["store", "fsck", str(path)], out=out) == 1
    close_store(path)
    printed = out.getvalue() + capsys.readouterr().err
    assert "problem:" in printed or "error:" in printed, printed
    assert "recursion" in printed, printed
