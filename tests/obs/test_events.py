"""The structured event log: levels, rotation, activation."""

from __future__ import annotations

import json
import sys

import pytest

from repro.obs.events import (
    EventLog,
    configure_events,
    configure_events_from_env,
    disable_events,
    emit_event,
    event_log,
    events_enabled,
)


@pytest.fixture(autouse=True)
def _clean_global_sink():
    disable_events()
    yield
    disable_events()


def read_lines(path):
    return [json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()]


class TestEventLog:
    def test_writes_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        assert log.emit("query_completed", indexed=True, rows=3)
        assert log.emit("checkpoint_written", history="guide")
        log.close()
        first, second = read_lines(path)
        assert first["type"] == "query_completed"
        assert first["level"] == "info"
        assert first["indexed"] is True and first["rows"] == 3
        assert {"ts", "pid"} <= first.keys()
        assert second["type"] == "checkpoint_written"

    def test_level_floor_filters_below(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path, level="warning")
        assert not log.emit("custom_trace", level="debug")
        assert not log.emit("query_completed", level="info")
        assert log.emit("poll_timeout", level="warning")
        assert log.emit("custom_error", level="error")
        log.close()
        assert [line["type"] for line in read_lines(path)] == \
            ["poll_timeout", "custom_error"]

    def test_unknown_level_raises(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        with pytest.raises(KeyError):
            log.emit("oops", level="loud")
        log.close()
        with pytest.raises(ValueError):
            EventLog(tmp_path / "other.jsonl", level="loud")

    def test_rotation_keeps_backups(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path, max_bytes=200, backups=2)
        for index in range(30):
            log.emit("query_completed", index=index)
        log.close()
        assert path.exists()
        assert (tmp_path / "events.jsonl.1").exists()
        rotations = log._metrics["rotations"].value
        assert rotations >= 2
        # Nothing was lost beyond the dropped oldest backups: the most
        # recent surviving file ends at the last event emitted.  (The
        # current file may be freshly rotated and empty.)
        surviving = []
        for candidate in (path, tmp_path / "events.jsonl.1"):
            surviving.extend(read_lines(candidate))
        assert max(line["index"] for line in surviving) == 29

    def test_stderr_sink_never_rotates(self, capsys):
        log = EventLog("-", max_bytes=1)
        log.emit("custom_error", level="error", detail="x")
        log.emit("custom_error", level="error", detail="y")
        log.close()  # must not close the real stderr
        captured = capsys.readouterr()
        assert captured.err.count("custom_error") == 2
        assert sys.stderr.writable()


class TestGlobalSink:
    def test_emit_event_disabled_is_noop(self):
        assert emit_event("query_completed") is False
        assert event_log() is None

    def test_configure_and_emit(self, tmp_path):
        path = tmp_path / "events.jsonl"
        configure_events(path, level="debug")
        assert events_enabled()
        assert emit_event("custom_trace", level="debug", rule="x")
        disable_events()
        assert not events_enabled()
        assert read_lines(path)[0]["rule"] == "x"

    def test_env_activation(self, tmp_path):
        path = tmp_path / "env_events.jsonl"
        log = configure_events_from_env({
            "REPRO_EVENTS": str(path),
            "REPRO_EVENTS_LEVEL": "warning",
            "REPRO_EVENTS_MAX_BYTES": "4096",
        })
        assert log is event_log()
        assert log.level == "warning"
        assert log.max_bytes == 4096
        assert not emit_event("query_completed", level="info")
        assert emit_event("poll_timeout", level="warning")

    def test_env_unset_leaves_events_off(self):
        assert configure_events_from_env({}) is None
        assert not events_enabled()

    def test_written_and_filtered_are_counted(self, tmp_path):
        log = configure_events(tmp_path / "e.jsonl", level="info")
        emit_event("query_completed")
        emit_event("custom_trace", level="debug")
        assert log._metrics["written"].value == 1
        assert log._metrics["level_filtered"].value == 1
