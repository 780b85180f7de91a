"""The plan-fingerprinted query log: aggregates, slow capture, attribution.

:mod:`repro.obs.querylog` is the always-on record of every planner
execution.  These tests pin the aggregate math, the ring-buffer bounds,
the ``REPRO_SLOW_QUERY_MS`` env threshold (shared with the QSS slow-poll
counter), thread-local attribution, the ``query_completed`` event (the
per-query JSONL stream, one line per record with every record field),
and the engine integration (every ``run`` lands one record keyed
by the compiled plan's fingerprint).
"""

from __future__ import annotations

import json

import pytest

from repro import ChorelEngine, build_doem
from repro.obs.events import configure_events, disable_events, event_log
from repro.obs.querylog import (
    CAPACITY,
    ENV_SLOW_QUERY_MS,
    QueryLog,
    QueryRecord,
    current_attribution,
    query_attribution,
    query_log,
    slow_query_threshold_ms,
    slow_query_threshold_seconds,
)
from tests.conftest import make_guide_db, make_guide_history


def record(fingerprint="abc123def456", *, rows=3, execute=0.002,
           compile_s=0.001, engine="chorel-native", **extra) -> QueryRecord:
    return QueryRecord(fingerprint=fingerprint, query="select guide.x",
                       engine=engine, rows=rows,
                       compile_seconds=compile_s, execute_seconds=execute,
                       **extra)


class TestThreshold:
    def test_unset_means_none(self):
        assert slow_query_threshold_ms(environ={}) is None
        assert slow_query_threshold_ms(environ={ENV_SLOW_QUERY_MS: ""}) \
            is None
        assert slow_query_threshold_seconds(environ={}) is None

    def test_parses_ms_and_converts(self):
        env = {ENV_SLOW_QUERY_MS: "250"}
        assert slow_query_threshold_ms(environ=env) == 250.0
        assert slow_query_threshold_seconds(environ=env) == 0.25

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            slow_query_threshold_ms(environ={ENV_SLOW_QUERY_MS: "-1"})

    def test_env_drives_capture_per_record(self, monkeypatch):
        """No instance threshold: the env var is consulted per record,
        so exporting it affects a running process's next queries."""
        log = QueryLog()
        monkeypatch.delenv(ENV_SLOW_QUERY_MS, raising=False)
        log.record(record(execute=5.0))
        assert log.aggregates()["abc123def456"]["slow"] == 0
        monkeypatch.setenv(ENV_SLOW_QUERY_MS, "1")
        log.record(record(execute=5.0), plan_text="Scan  (rows 0 -> 1)")
        agg = log.aggregates()["abc123def456"]
        assert agg["slow"] == 1
        [capture] = log.slow_queries()
        assert capture["plan"] == "Scan  (rows 0 -> 1)"


class TestQueryLog:
    def test_aggregate_math(self):
        log = QueryLog()
        log.record(record(rows=2, execute=0.004, compile_s=0.001))
        log.record(record(rows=3, execute=0.009, compile_s=0.001))
        agg = log.aggregates()["abc123def456"]
        assert agg["count"] == 2
        assert agg["rows"] == 5
        assert agg["total_seconds"] == pytest.approx(0.015)
        assert agg["mean_seconds"] == pytest.approx(0.0075)
        assert agg["max_seconds"] == pytest.approx(0.010)
        assert agg["engines"] == ["chorel-native"]

    def test_ring_buffer_bounds_memory(self):
        log = QueryLog()
        total = CAPACITY + 6
        for index in range(total):
            log.record(record(f"fp{index:04}"))
        assert len(log) == CAPACITY
        assert log.recent()[0].fingerprint == "fp0006"
        assert [r.fingerprint for r in log.recent(limit=2)] == \
            [f"fp{total - 2:04}", f"fp{total - 1:04}"]
        # Aggregates survive ring eviction -- they are cumulative.
        assert len(log.aggregates()) == total

    def test_snapshot_shape_is_json_clean(self, monkeypatch):
        monkeypatch.setenv(ENV_SLOW_QUERY_MS, "0")
        log = QueryLog()
        log.record(record(), plan_text="Scan")
        snapshot = log.snapshot()
        json.dumps(snapshot)
        assert set(snapshot) == {"queries", "slow"}

    def test_jsonl_sink(self, tmp_path):
        """The event log is the per-query JSONL stream: one
        ``query_completed`` line per record, holding the whole record."""
        path = tmp_path / "queries.jsonl"
        configure_events(path)
        try:
            log = QueryLog()
            log.record(record(rows=7))
            log.record(record(rows=1))
        finally:
            disable_events()
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert [line["rows"] for line in lines] == [7, 1]
        assert lines[0]["fingerprint"] == "abc123def456"

    def test_jsonl_failures_never_raise(self, tmp_path):
        configure_events(tmp_path / "q.jsonl")
        try:
            event_log().close()
            log = QueryLog()
            log.record(record())  # closed sink: the line is dropped
        finally:
            disable_events()
        assert len(log) == 1

    def test_reset(self, monkeypatch):
        monkeypatch.setenv(ENV_SLOW_QUERY_MS, "0")
        log = QueryLog()
        log.record(record(), plan_text="Scan")
        log.reset()
        assert len(log) == 0
        assert log.aggregates() == {}
        assert log.slow_queries() == []


class TestAttribution:
    def test_nesting_inner_shadows_outer(self):
        assert current_attribution() == {}
        with query_attribution(subscription="outer", extra=1):
            with query_attribution(subscription="inner"):
                assert current_attribution() == \
                    {"subscription": "inner", "extra": 1}
            assert current_attribution() == \
                {"subscription": "outer", "extra": 1}
        assert current_attribution() == {}

    def test_records_carry_attribution(self):
        log = QueryLog()
        with query_attribution(subscription="cheap-eats"):
            log.record(record())
        [rec] = log.recent()
        assert rec.attribution == {"subscription": "cheap-eats"}
        assert rec.to_dict()["attribution"] == \
            {"subscription": "cheap-eats"}


class TestQueryCompletedEvent:
    @pytest.fixture(autouse=True)
    def _clean_events(self):
        disable_events()
        yield
        disable_events()

    def test_one_event_per_record(self, tmp_path):
        path = tmp_path / "events.jsonl"
        configure_events(path)
        log = QueryLog()
        with query_attribution(subscription="cheap-eats"):
            recorded = log.record(record(rows=4, shards=2,
                                         rules_fired=("index-selection",)))
        disable_events()
        [line] = [json.loads(line)
                  for line in path.read_text().splitlines()
                  if json.loads(line)["type"] == "query_completed"]
        # Every field of the record, so the event loses no per-query fact.
        expected = recorded.to_dict()
        assert {key: line[key] for key in expected} == expected
        assert line["level"] == "info"
        assert line["compile_seconds"] + line["execute_seconds"] == \
            pytest.approx(0.003)

    def test_every_record_is_written(self, tmp_path):
        path = tmp_path / "events.jsonl"
        configure_events(path)
        log = QueryLog()
        for index in range(9):
            log.record(record(f"fp{index}"))
        disable_events()
        written = [json.loads(line)["fingerprint"]
                   for line in path.read_text().splitlines()
                   if json.loads(line)["type"] == "query_completed"]
        assert written == [f"fp{index}" for index in range(9)]


class TestEngineIntegration:
    @pytest.fixture(autouse=True)
    def _fresh_log(self):
        # The process-global log may arrive full (its ring is bounded,
        # so "one more run" would not grow len()) from earlier suites.
        query_log().reset()
        yield
        query_log().reset()

    def test_every_run_lands_one_record(self):
        doem = build_doem(make_guide_db(), make_guide_history())
        engine = ChorelEngine(doem, name="guide")
        log = query_log()
        before = len(log)
        compiled = engine.compile("select guide.restaurant.name")
        engine.run("select guide.restaurant.name")
        records = log.recent()
        assert len(log) == before + 1
        rec = records[-1]
        assert rec.fingerprint == compiled.fingerprint
        assert rec.engine == "chorel-native"
        assert rec.rows == 3
        assert rec.analyzed is False
        agg = log.aggregates()[compiled.fingerprint]
        assert agg["count"] >= 1

    def test_analyzed_flag_and_slow_plan_capture(self, monkeypatch):
        monkeypatch.setenv(ENV_SLOW_QUERY_MS, "0")
        doem = build_doem(make_guide_db(), make_guide_history())
        engine = ChorelEngine(doem, name="guide")
        log = query_log()
        engine.run("select guide.restaurant.name", analyze=True)
        rec = log.recent()[-1]
        assert rec.analyzed is True
        capture = log.slow_queries()[-1]
        assert "rows" in capture["plan"]  # the ANALYZE tree, not EXPLAIN
