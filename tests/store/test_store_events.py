"""The change-log store's three events, read off a configured sink.

``checkpoint_written``, ``store_compacted`` and ``store_recovered`` are
the events the store emits (docs/observability.md's event table): each
records a fact about one operation on one log that no counter holds --
which checkpoint, which generation, which segment was cut back and to
how many bytes.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.events import configure_events, disable_events
from repro.sources.generators import demo_world
from repro.store import CheckpointPolicy, HistoryLog


@pytest.fixture
def events_path(tmp_path):
    path = tmp_path / "events.jsonl"
    disable_events()
    configure_events(path)
    yield path
    disable_events()


def events_of(path, event_type):
    lines = [json.loads(line)
             for line in path.read_text(encoding="utf-8").splitlines()]
    return [line for line in lines if line["type"] == event_type]


def test_checkpoint_compact_and_recovery_events(tmp_path, events_path):
    db, history = demo_world(days=12)
    directory = tmp_path / "guide"
    log = HistoryLog(directory, origin=db, segment_bytes=512,
                     policy=CheckpointPolicy.disabled())
    log.extend(history)

    ref = log.write_checkpoint()
    [written] = events_of(events_path, "checkpoint_written")
    assert written["level"] == "info"
    assert written["log"] == "guide"
    assert written["seq"] == ref.seq
    assert written["at"] == str(history.timestamps()[-1])
    assert written["nodes"] == len(log.snapshot_at(ref.at))
    assert written["bytes"] > 0

    before = len(log)
    summary = log.compact(before=history.timestamps()[4])
    [compacted] = events_of(events_path, "store_compacted")
    assert compacted["level"] == "info"
    assert compacted["log"] == "guide"
    assert {key: compacted[key] for key in summary} == summary
    assert compacted["dropped_sets"] == before - len(log) > 0
    log.close()

    segment = sorted(directory.glob("seg-*.log"))[-1]
    size = segment.stat().st_size
    segment.write_bytes(segment.read_bytes()[:-5])
    reopened = HistoryLog(directory)
    [recovered] = events_of(events_path, "store_recovered")
    assert recovered["level"] == "warning"
    assert recovered["log"] == "guide"
    assert recovered["segment"] == segment.name
    assert recovered["reason"] == reopened.recovered_tail
    assert 0 < recovered["truncated_to"] < size - 5
    reopened.close()
