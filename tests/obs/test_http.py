"""The obs HTTP surface: exposition headers, /queries, routing.

``/metrics`` must be scrape-compatible (the ``text/plain;
version=0.0.4`` content type plus ``# HELP``/``# TYPE`` per family);
``/queries`` serves the process query log's fingerprint-keyed snapshot.
Both are exercised over a real socket -- the server binds an ephemeral
port, the test client is plain :mod:`urllib`.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.obs.http import PROMETHEUS_CONTENT_TYPE, MetricsHTTPServer
from repro.obs.metrics import registry
from repro.obs.querylog import QueryLog, QueryRecord


@pytest.fixture()
def server():
    with MetricsHTTPServer() as running:
        yield running


def fetch(server, path):
    return urllib.request.urlopen(server.url + path, timeout=5)


class TestMetricsEndpoint:
    def test_prometheus_content_type_and_headers(self, server):
        registry().counter("httptest.hits").inc(2)
        response = fetch(server, "/metrics")
        assert response.headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        assert "version=0.0.4" in response.headers["Content-Type"]
        body = response.read().decode("utf-8")
        assert "# HELP httptest_hits " in body
        assert "# TYPE httptest_hits counter" in body
        assert "httptest_hits 2" in body

    def test_metrics_json_roundtrip(self, server):
        registry().counter("httptest.json").inc()
        payload = json.loads(fetch(server, "/metrics.json").read())
        assert payload["httptest.json"] >= 1


class TestQueriesEndpoint:
    def test_snapshot_shape(self, server):
        payload = json.loads(fetch(server, "/queries").read())
        assert set(payload) == {"queries", "slow"}

    def test_custom_query_source(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLOW_QUERY_MS", "0")
        log = QueryLog()
        log.record(QueryRecord(fingerprint="fp1", query="select guide.x",
                               engine="chorel-native", rows=2,
                               compile_seconds=0.001,
                               execute_seconds=0.004),
                   plan_text="Scan  (rows 0 -> 1)")
        with MetricsHTTPServer(query_source=log.snapshot) as server:
            response = fetch(server, "/queries")
            assert response.headers["Content-Type"] == "application/json"
            payload = json.loads(response.read())
        agg = payload["queries"]["fp1"]
        assert agg["count"] == 1 and agg["rows"] == 2
        [capture] = payload["slow"]
        assert capture["plan"] == "Scan  (rows 0 -> 1)"

    def test_engine_runs_appear(self, server):
        from repro import ChorelEngine, build_doem
        from tests.conftest import make_guide_db, make_guide_history
        doem = build_doem(make_guide_db(), make_guide_history())
        engine = ChorelEngine(doem, name="guide")
        engine.run("select guide.restaurant.name")
        fingerprint = engine.last_compiled.fingerprint
        payload = json.loads(fetch(server, "/queries").read())
        assert fingerprint in payload["queries"]


class TestRouting:
    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(server, "/nope")
        assert excinfo.value.code == 404

    def test_health_default(self, server):
        payload = json.loads(fetch(server, "/health").read())
        assert payload["status"] == "healthy"
