"""Tests for the repro command line."""

import io

import pytest

from repro import dumps
from repro.cli import main
from repro.store import ChangeLogStore, close_store
from tests.conftest import make_guide_db, make_guide_history


@pytest.fixture
def guide_file(tmp_path):
    path = tmp_path / "guide.oem"
    path.write_text(dumps(make_guide_db()), encoding="utf-8")
    return path


@pytest.fixture
def doem_store(tmp_path):
    store_dir = tmp_path / "store"
    with ChangeLogStore(store_dir) as store:
        store.put_history("guidehist", make_guide_db(), make_guide_history())
    yield store_dir
    close_store(store_dir)  # the CLI's shared read-only handle


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestValidateAndShow:
    def test_validate_ok(self, guide_file):
        code, text = run_cli("validate", str(guide_file))
        assert code == 0
        assert "OK:" in text and "root &guide" in text

    def test_validate_bad_file(self, tmp_path):
        bad = tmp_path / "bad.oem"
        bad.write_text("not oem at all", encoding="utf-8")
        assert run_cli("validate", str(bad))[0] == 1

    def test_validate_missing_file(self, tmp_path):
        assert run_cli("validate", str(tmp_path / "nope.oem"))[0] == 1

    def test_show(self, guide_file):
        code, text = run_cli("show", str(guide_file))
        assert code == 0
        assert "Bangkok Cuisine" in text


class TestQuery:
    def test_lorel_query(self, guide_file):
        code, text = run_cli(
            "query", str(guide_file),
            "select guide.restaurant where guide.restaurant.price < 20.5")
        assert code == 0
        assert "&r1" in text

    def test_empty_result(self, guide_file):
        code, text = run_cli("query", str(guide_file),
                             "select guide.nothing")
        assert code == 0
        assert "empty" in text

    def test_parse_error_is_reported(self, guide_file):
        assert run_cli("query", str(guide_file), "select select")[0] == 1


class TestDiff:
    def test_diff(self, tmp_path, guide_file):
        changed = make_guide_db()
        changed.update_value("n1", 99)
        new_file = tmp_path / "new.oem"
        new_file.write_text(dumps(changed), encoding="utf-8")
        code, text = run_cli("diff", str(guide_file), str(new_file))
        assert code == 0
        assert "updNode(n1, 99)" in text

    def test_no_changes(self, guide_file):
        code, text = run_cli("diff", str(guide_file), str(guide_file))
        assert code == 0
        assert "no changes" in text


class TestHtmlDiff:
    def test_markup_to_stdout(self, tmp_path):
        old = tmp_path / "a.html"
        new = tmp_path / "b.html"
        old.write_text("<p>hello</p>", encoding="utf-8")
        new.write_text("<p>goodbye</p>", encoding="utf-8")
        code, text = run_cli("htmldiff", str(old), str(new))
        assert code == 0
        assert "htmldiff-legend" in text

    def test_deep_pages(self, tmp_path):
        old = tmp_path / "a.html"
        new = tmp_path / "b.html"
        old.write_text("<div>" * 2000 + "hello" + "</div>" * 2000,
                       encoding="utf-8")
        new.write_text("<div>" * 2000 + "goodbye" + "</div>" * 2000,
                       encoding="utf-8")
        code, text = run_cli("htmldiff", str(old), str(new))
        assert code == 0
        assert text.count("<div>") == 2000

    def test_markup_to_file(self, tmp_path):
        old = tmp_path / "a.html"
        new = tmp_path / "b.html"
        old.write_text("<p>hello</p>", encoding="utf-8")
        new.write_text("<p>hello<b>!</b></p>", encoding="utf-8")
        out_file = tmp_path / "out.html"
        code, text = run_cli("htmldiff", str(old), str(new),
                             "-o", str(out_file))
        assert code == 0
        assert out_file.exists()


class TestHistoryAndChorel:
    def test_timeline(self, doem_store):
        code, text = run_cli("timeline", str(doem_store), "guidehist", "n1")
        assert code == 0
        assert "value 10 -> 20" in text

    def test_timeline_quiet_object(self, doem_store):
        code, text = run_cli("timeline", str(doem_store), "guidehist", "nm1")
        assert code == 0
        assert "no recorded changes" in text

    def test_timeline_unknown_node(self, doem_store):
        assert run_cli("timeline", str(doem_store), "guidehist",
                       "ghost")[0] == 1

    def test_history(self, doem_store):
        code, text = run_cli("history", str(doem_store), "guidehist")
        assert code == 0
        assert "updNode(n1, 20)" in text
        assert "remArc(r2, 'parking', n7)" in text

    def test_chorel_native(self, doem_store):
        code, text = run_cli("chorel", str(doem_store), "guidehist",
                             "select guide.<add at T>restaurant")
        assert code == 0
        assert "&n2" in text

    def test_chorel_translated(self, doem_store):
        code, text = run_cli("chorel", str(doem_store), "guidehist",
                             "select guide.<add at T>restaurant",
                             "--translate")
        assert code == 0
        assert "&restaurant-history" in text  # the printed translation
        assert "&n2" in text                   # and the same answer

    def test_unknown_store_name(self, doem_store):
        assert run_cli("chorel", str(doem_store), "nope", "select x")[0] == 1

    def test_directory_that_is_not_a_store(self, tmp_path, capsys):
        """No ``.doemstore`` marker: a ReproError message, not a traceback
        (and not a guess at some other on-disk format)."""
        (tmp_path / "guidehist.doem.oem").write_text("guide: {}")
        assert run_cli("history", str(tmp_path), "guidehist")[0] == 1
        assert "not a change-log store" in capsys.readouterr().err


DEMO_QUERY = "select T, X from root.<add at T>item X where T > 20Jan97"


class TestExplainAndProfile:
    def test_explain_demo(self):
        """Compile-only EXPLAIN: the plan tree and the pass report."""
        from repro.obs.querylog import query_log
        log = query_log()
        log.reset()
        code, text = run_cli("explain", DEMO_QUERY)
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "-- EXPLAIN (indexed):"
        assert lines[1] == "DeltaProject add"
        assert lines[2].startswith(
            "  TimeRangeScan range-scan add over root.item in (20Jan97, ")
        assert "passes:" in lines
        [fired] = [line for line in lines if "fired" in line]
        assert fired.split()[0] == "index-selection"
        assert not log.recent()  # nothing was executed

    def test_explain_backends(self):
        # The translated chain is served from the encoding's &add column.
        for backend, source in (
                ("native", "PathExpand root.<add at T>item X"),
                ("translate", "TimeColumnScan &add in (20Jan97, POS_INF]: "
                              "root.&item-history")):
            code, text = run_cli("explain", DEMO_QUERY,
                                 "--backend", backend)
            assert code == 0
            assert f"-- EXPLAIN ({backend}):" in text
            assert "Project [add-time, item]" in text
            assert source in text

    def test_explain_against_store(self, doem_store):
        code, text = run_cli("explain", "select guide.<add at T>restaurant",
                             "--store", str(doem_store), "--db", "guidehist")
        assert code == 0
        assert "TimeRangeScan range-scan add over guide.restaurant" in text

    def test_store_requires_db(self, doem_store):
        code, _ = run_cli("explain", DEMO_QUERY, "--store", str(doem_store))
        assert code == 1

    def test_explain_parse_error(self):
        assert run_cli("explain", "select ???")[0] == 1

    @pytest.mark.parametrize("argv", [
        ("profile", DEMO_QUERY),
        ("explain", DEMO_QUERY, "--json", "sidecar.json"),
    ])
    def test_profile_surface_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(*argv)
        assert exit_info.value.code == 2
        capsys.readouterr()  # argparse's usage message


class TestAnalyze:
    def test_analyze_demo_prints_runtime_tree(self):
        code, text = run_cli("analyze", DEMO_QUERY)
        assert code == 0
        assert "-- EXPLAIN ANALYZE (indexed):" in text
        assert "rows" in text and "time" in text  # per-operator stats
        assert "fingerprint:" in text
        assert "-- 10 row(s); compile " in text and " ms, execute " in text

    def test_backends_agree_on_rows(self):
        import re
        counts = set()
        for backend in ("indexed", "native", "translate"):
            code, text = run_cli("analyze", DEMO_QUERY,
                                 "--backend", backend)
            assert code == 0
            counts.add(re.search(r"-- (\d+) row\(s\)", text).group(1))
        assert counts == {"10"}

    def test_native_backend_shows_operator_chain(self):
        code, text = run_cli("analyze", DEMO_QUERY, "--backend", "native")
        assert code == 0
        for op in ("Project", "Predicate", "PathExpand", "Scan"):
            assert op in text, op
        assert "rows 30 -> 10" in text  # the predicate's selectivity

    def test_analyze_json_sidecar(self, tmp_path):
        import json
        sidecar = tmp_path / "analyze.json"
        code, text = run_cli("analyze", DEMO_QUERY, "--backend", "native",
                             "--json", str(sidecar))
        assert code == 0
        assert f"-- JSON observation -> {sidecar}" in text
        payload = json.loads(sidecar.read_text(encoding="utf-8"))
        assert payload["query"] == DEMO_QUERY
        assert payload["backend"] == "native"
        assert payload["rows"] == 10
        assert payload["fingerprint"]
        assert payload["compile_seconds"] > 0.0
        assert payload["execute_seconds"] == \
            payload["plan"]["execute_seconds"] > 0.0
        ops = payload["plan"]["ops"]
        assert ops and ops[0]["rows_out"] == 10
        assert payload["plan"]["fingerprint"] == payload["fingerprint"]

    def test_analyze_against_store(self, doem_store):
        code, text = run_cli("analyze", "select guide.<add at T>restaurant",
                             "--store", str(doem_store), "--db", "guidehist")
        assert code == 0
        assert "DeltaProject add" in text and "TimeRangeScan" in text

    def test_analyze_parse_error(self):
        assert run_cli("analyze", "select ???")[0] == 1

    def test_top_table_appends_query_aggregates(self):
        """After an in-process analyze, the top table carries the
        query-log section (the --json payload stays metrics-only)."""
        import json
        run_cli("analyze", DEMO_QUERY)
        code, text = run_cli("top", "--once", "--prefix", "repro.querylog")
        assert code == 0
        assert "fingerprint" in text
        assert "select T, X from root.<add at T>item" in text
        code, text = run_cli("top", "--once", "--json",
                             "--prefix", "repro.querylog")
        assert code == 0
        json.loads(text)  # still pure metrics JSON
        assert "fingerprint" not in text


class TestServeMetrics:
    def test_endpoints_on_ephemeral_port(self, monkeypatch):
        import json
        import re
        import threading
        from types import SimpleNamespace
        from urllib.request import urlopen

        import repro.cli

        class Printed(io.StringIO):
            """Output that signals once the server has printed its URL."""

            def __init__(self):
                super().__init__()
                self.url_ready = threading.Event()

            def write(self, text):
                written = super().write(text)
                if re.search(r"http://[\d.]+:\d+", self.getvalue()):
                    self.url_ready.set()
                return written

        # The server stays up until the test is done with it, instead of
        # for a wall-clock --duration.
        done = threading.Event()
        monkeypatch.setattr(repro.cli, "time",
                            SimpleNamespace(sleep=lambda _: done.wait(10)))
        out = Printed()
        thread = threading.Thread(
            target=main,
            args=(["serve-metrics", "--port", "0", "--duration", "2"], out),
            daemon=True)
        thread.start()
        assert out.url_ready.wait(5), "serve-metrics never printed its URL"
        url = re.search(r"http://[\d.]+:\d+", out.getvalue()).group(0)

        with urlopen(url + "/metrics") as response:
            assert response.status == 200
            body = response.read().decode("utf-8")
        assert "repro" in body  # prometheus text exposition

        with urlopen(url + "/health") as response:
            assert response.status == 200
            health = json.loads(response.read().decode("utf-8"))
        assert health["status"] in ("healthy", "degraded", "unhealthy")

        # `repro top --url` scrapes the same server's JSON endpoint.
        code, text = run_cli("top", "--once", "--json", "--url", url)
        assert code == 0
        assert isinstance(json.loads(text), dict)
        done.set()
        thread.join(timeout=10)
        assert not thread.is_alive()


class TestTop:
    def test_once_json_is_machine_readable(self):
        import json

        from repro import metrics_registry

        metrics_registry().counter("test.clitop.ticks").inc(3)
        code, text = run_cli("top", "--once", "--json",
                             "--prefix", "test.clitop")
        assert code == 0
        assert json.loads(text) == {"test.clitop.ticks": 3}

    def test_once_table_renders_histograms(self):
        from repro import metrics_registry

        metrics_registry().counter("test.clitop2.ticks").inc()
        metrics_registry().histogram("test.clitop2.seconds").observe(0.002)
        code, text = run_cli("top", "--once", "--prefix", "test.clitop2")
        assert code == 0
        assert "metric" in text and "value" in text
        assert "test.clitop2.ticks" in text
        assert "count=1 mean=2.000ms" in text

    def test_once_empty_prefix(self):
        code, text = run_cli("top", "--once", "--prefix", "no.such.prefix")
        assert code == 0
        assert "(no metrics recorded)" in text


class TestEventsFlag:
    def test_global_events_flag_writes_jsonl(self, tmp_path):
        import json

        from repro.obs.events import disable_events

        events_path = tmp_path / "cli_events.jsonl"
        try:
            code, _ = run_cli("--events", str(events_path), "analyze",
                              DEMO_QUERY)
        finally:
            disable_events()
        assert code == 0
        lines = [json.loads(line) for line
                 in events_path.read_text(encoding="utf-8").splitlines()]
        assert any(line["type"] == "query_completed" for line in lines)


class TestStoreCommand:
    @pytest.fixture
    def demo_store(self, tmp_path):
        from repro.store import close_store

        path = tmp_path / "changelog"
        code, text = run_cli("store", "demo", str(path), "--days", "12")
        assert code == 0
        # The CLI's shared rw handle stays cached in-process; release it
        # so follow-up commands modelling fresh processes can lock.
        close_store(path)
        yield path
        close_store(path)

    def test_init_creates_a_store(self, tmp_path):
        from repro.store import close_store, is_store

        path = tmp_path / "fresh"
        code, text = run_cli("store", "init", str(path))
        close_store(path)
        assert code == 0
        assert is_store(path)
        assert "initialized" in text

    def test_demo_persists_and_checkpoints(self, demo_store):
        code, text = run_cli("store", "info", str(demo_store))
        assert code == 0
        assert "demo" in text and "1" in text

    def test_info_json(self, demo_store):
        import json

        code, text = run_cli("store", "info", str(demo_store), "--json")
        assert code == 0
        info = json.loads(text)
        assert info["histories"]["demo"]["change_sets"] == 12
        assert info["histories"]["demo"]["checkpoints"] >= 1

    def test_fsck_clean_store(self, demo_store):
        code, text = run_cli("store", "fsck", str(demo_store))
        assert code == 0
        assert "store: ok" in text

    def test_fsck_detects_and_repairs_torn_tail(self, demo_store):
        segment = sorted((demo_store / "demo").glob("seg-*.log"))[-1]
        segment.write_bytes(segment.read_bytes()[:-5])

        code, text = run_cli("store", "fsck", str(demo_store))
        assert code == 1
        assert "CORRUPT" in text

        code, text = run_cli("store", "fsck", str(demo_store), "--repair")
        assert code == 0
        assert "repaired" in text

        code, text = run_cli("store", "fsck", str(demo_store))
        assert code == 0

    def test_checkpoint_and_compact(self, demo_store):
        from repro.store import close_store

        code, text = run_cli("store", "checkpoint", str(demo_store), "demo")
        assert code == 0
        assert "checkpoint" in text
        close_store(demo_store)
        code, text = run_cli("store", "compact", str(demo_store), "demo")
        assert code == 0
        assert "generation 2" in text
        close_store(demo_store)
        code, _ = run_cli("store", "fsck", str(demo_store))
        assert code == 0

    def test_explain_reads_a_changelog_store(self, demo_store):
        code, text = run_cli(
            "explain", "--store", str(demo_store), "--db", "demo",
            "select root.<add at T>item where T > 5Jan97")
        assert code == 0
        assert "index" in text.lower() or "scan" in text.lower()

    def test_history_command_reads_a_changelog_store(self, demo_store):
        code, text = run_cli("history", str(demo_store), "demo")
        assert code == 0
        assert "cre" in text or "add" in text

    def test_top_once_with_store_section(self, demo_store):
        code, text = run_cli("top", "--once", "--store", str(demo_store))
        assert code == 0
        assert "demo" in text

    def test_store_requires_db_name(self, demo_store, capsys):
        code, _ = run_cli("explain", "--store", str(demo_store),
                          "select root.item")
        assert code == 1
        assert "--db" in capsys.readouterr().err
