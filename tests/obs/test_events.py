"""The structured event log: levels, sampling, rotation, activation."""

from __future__ import annotations

import json
import sys

import pytest

from repro.obs.events import (
    EventLog,
    _parse_sample_spec,
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
        assert log.emit("query_compiled", indexed=True, rows=3)
        assert log.emit("cache_eviction", cache="snapshot")
        log.close()
        first, second = read_lines(path)
        assert first["type"] == "query_compiled"
        assert first["level"] == "info"
        assert first["indexed"] is True and first["rows"] == 3
        assert {"ts", "pid"} <= first.keys()
        assert second["type"] == "cache_eviction"

    def test_level_floor_filters_below(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path, level="warning")
        assert not log.emit("rule_fired", level="debug")
        assert not log.emit("query_compiled", level="info")
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

    def test_sampling_is_deterministic_one_in_n(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path, level="debug",
                       sample={"rule_fired": 3, "shard_dispatched": 0})
        for index in range(9):
            log.emit("rule_fired", level="debug", index=index)
        for _ in range(4):
            log.emit("shard_dispatched", level="debug")
        log.emit("query_compiled")  # unlisted types are always kept
        log.close()
        lines = read_lines(path)
        kept = [line["index"] for line in lines
                if line["type"] == "rule_fired"]
        assert kept == [0, 3, 6]  # every 3rd, starting at the first
        assert not any(line["type"] == "shard_dispatched" for line in lines)
        assert lines[-1]["type"] == "query_compiled"

    def test_rotation_keeps_backups(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path, max_bytes=200, backups=2)
        for index in range(30):
            log.emit("query_compiled", index=index)
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


class TestSampleSpec:
    def test_parse(self):
        assert _parse_sample_spec("rule_fired=10, shard_dispatched=0") == \
            {"rule_fired": 10, "shard_dispatched": 0}
        assert _parse_sample_spec("") == {}

    def test_bad_spec_raises(self):
        with pytest.raises(ValueError):
            _parse_sample_spec("rule_fired")


class TestGlobalSink:
    def test_emit_event_disabled_is_noop(self):
        assert emit_event("query_compiled") is False
        assert event_log() is None

    def test_configure_and_emit(self, tmp_path):
        path = tmp_path / "events.jsonl"
        configure_events(path, level="debug")
        assert events_enabled()
        assert emit_event("rule_fired", level="debug", rule="x")
        disable_events()
        assert not events_enabled()
        assert read_lines(path)[0]["rule"] == "x"

    def test_env_activation(self, tmp_path):
        path = tmp_path / "env_events.jsonl"
        log = configure_events_from_env({
            "REPRO_EVENTS": str(path),
            "REPRO_EVENTS_LEVEL": "warning",
            "REPRO_EVENTS_SAMPLE": "slow_poll=2",
            "REPRO_EVENTS_MAX_BYTES": "4096",
        })
        assert log is event_log()
        assert log.level == "warning"
        assert log.sample == {"slow_poll": 2}
        assert log.max_bytes == 4096
        assert not emit_event("query_compiled", level="info")
        assert emit_event("poll_timeout", level="warning")

    def test_env_unset_leaves_events_off(self):
        assert configure_events_from_env({}) is None
        assert not events_enabled()

    def test_written_and_filtered_are_counted(self, tmp_path):
        log = configure_events(tmp_path / "e.jsonl", level="info")
        emit_event("query_compiled")
        emit_event("rule_fired", level="debug")
        assert log._metrics["written"].value == 1
        assert log._metrics["level_filtered"].value == 1
