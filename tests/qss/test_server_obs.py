"""QSS server observability: slow polls, metrics dump, poll spans."""

import json

import pytest

from repro import (
    COMPLEX,
    OEMDatabase,
    QSSServer,
    Subscription,
    Wrapper,
    parse_timestamp,
)
from repro.obs.events import configure_events, disable_events
from repro.obs.trace import get_tracer
from repro.timestamps import Timestamp


class ScriptedGuideSource:
    """Example 2.2's timeline: Hakata appears on 1Jan97."""

    def __init__(self):
        self.now: Timestamp | None = None

    def advance(self, when):
        self.now = parse_timestamp(when)

    def export(self):
        db = OEMDatabase(root="guide")
        counter = [0]

        def atom(value):
            counter[0] += 1
            return db.create_node(f"a{counter[0]}", value)

        names = ["Bangkok Cuisine", "Janta"]
        if self.now is not None and self.now >= parse_timestamp("1Jan97"):
            names.append("Hakata")
        for index, name in enumerate(names):
            node = db.create_node(f"r{index}", COMPLEX)
            db.add_arc("guide", "restaurant", node)
            db.add_arc(node, "name", atom(name))
        return db


def subscription():
    return Subscription.from_definitions(
        name="Restaurants", frequency="every night at 11:30pm",
        polling="define polling query Restaurants as "
                "select guide.restaurant",
        filter_="define filter query NewRestaurants as "
                "select Restaurants.restaurant<cre at T> where T > t[-1]")


def make_server(**kwargs):
    server = QSSServer(start="30Dec96 10:00am", deliver_empty=True, **kwargs)
    server.register_wrapper("guide", Wrapper(ScriptedGuideSource(),
                                             name="guide"))
    return server


@pytest.fixture(autouse=True)
def tracer_off():
    tracer = get_tracer()
    tracer.enabled = False
    tracer.clear()
    yield
    tracer.enabled = False
    tracer.clear()


def slow_polls(server):
    return server._metrics["slow_polls"].value


class TestSlowPollLog:
    """A slow poll is recorded in the ``qss.slow_polls`` counter and one
    ``slow_poll`` event; ``REPRO_SLOW_QUERY_MS`` sets the threshold."""

    def test_threshold_zero_logs_every_poll(self, monkeypatch, tmp_path):
        """The smoke test the CI job relies on: at threshold 0 every poll
        is 'slow', so the counter and the event fire on the first poll."""
        monkeypatch.setenv("REPRO_SLOW_QUERY_MS", "0")
        events_path = tmp_path / "events.jsonl"
        configure_events(events_path)
        try:
            server = make_server()
            server.subscribe(subscription(), "guide")
            notifications = server.run_until("2Jan97")
        finally:
            disable_events()
        assert len(notifications) == 3
        assert slow_polls(server) == 3
        events = [json.loads(line) for line
                  in events_path.read_text(encoding="utf-8").splitlines()]
        slow = [event for event in events if event["type"] == "slow_poll"]
        assert len(slow) == 3
        assert slow[0]["subscription"] == "Restaurants"
        assert slow[0]["at"] == str(parse_timestamp("30Dec96 11:30pm"))
        assert slow[0]["seconds"] >= 0.0
        assert slow[0]["threshold"] == 0.0

    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SLOW_QUERY_MS", raising=False)
        server = make_server()
        server.subscribe(subscription(), "guide")
        server.run_until("2Jan97")
        assert slow_polls(server) == 0

    def test_unreachable_threshold_stays_quiet(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLOW_QUERY_MS", "3600000")
        server = make_server()
        server.subscribe(subscription(), "guide")
        server.run_until("2Jan97")
        assert slow_polls(server) == 0

    def test_negative_threshold_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLOW_QUERY_MS", "-500")
        with pytest.raises(ValueError, match="REPRO_SLOW_QUERY_MS"):
            QSSServer()

    def test_threshold_zero_logs_every_poll_subscribed(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLOW_QUERY_MS", "0")
        server = make_server()
        server.subscribe(subscription(), "guide")
        server.run_until("31Dec96")
        assert slow_polls(server) == 1


class TestMetrics:
    def test_poll_counters_and_histogram(self):
        server = make_server()
        server.subscribe(subscription(), "guide")
        server.run_until("2Jan97")
        assert server._metrics["polls"].value == 3
        assert server._metrics["notifications"].value == 3
        assert server._metrics["errors"].value == 0
        histogram = server._metrics.histogram("poll_seconds")
        assert histogram.count == 3
        assert histogram.total > 0.0

    def test_metrics_text_dump(self, monkeypatch):
        import re

        def series(text, name):
            return int(re.search(rf"^{name} (\d+)$", text, re.M).group(1))

        monkeypatch.setenv("REPRO_SLOW_QUERY_MS", "0")
        server = make_server()
        server.subscribe(subscription(), "guide")
        # The dump sums every live qss group in the process (that is the
        # point of family summation), so assert on the delta this
        # server's poll adds, not on absolute values.  Servers earlier
        # tests dropped leave the sum when the collector reaches them:
        # collect them now, not between the two dumps.
        import gc
        gc.collect()
        before = server.metrics_text(prefix="qss")
        server.run_until("31Dec96")
        after = server.metrics_text(prefix="qss")
        assert series(after, "qss_polls") - \
            series(before, "qss_polls") == 1
        assert series(after, "qss_slow_polls") - \
            series(before, "qss_slow_polls") == 1
        assert 'qss_poll_seconds_bucket{le="+Inf"}' in after
        assert series(after, "qss_poll_seconds_count") - \
            series(before, "qss_poll_seconds_count") == 1

    def test_notification_carries_elapsed(self):
        server = make_server()
        server.subscribe(subscription(), "guide")
        (notification,) = server.run_until("31Dec96")
        assert notification.elapsed is not None
        assert notification.elapsed >= 0.0


class TestSlowQueryEnvFallback:
    """One env var drives every slow-query surface: the server reads
    ``REPRO_SLOW_QUERY_MS`` -- the same variable the obs query log's
    slow capture honors -- when it is built."""

    def test_env_supplies_the_threshold(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLOW_QUERY_MS", "0")
        server = make_server()
        server.subscribe(subscription(), "guide")
        server.run_until("31Dec96")
        assert slow_polls(server) == 1

    def test_unset_env_keeps_log_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_SLOW_QUERY_MS", raising=False)
        server = make_server()
        server.subscribe(subscription(), "guide")
        server.run_until("31Dec96")
        assert slow_polls(server) == 0


class TestFilterQueryAttribution:
    def test_filter_runs_are_attributed_in_the_query_log(self):
        """Each subscription's filter run lands in the process query log
        tagged with the subscription name and polling time."""
        from repro.obs.querylog import query_log
        query_log().reset()   # the global ring may arrive full (maxlen)
        server = make_server()
        server.subscribe(subscription(), "guide")
        before = len(query_log())
        server.run_until("31Dec96")
        attributed = [record for record in query_log().recent()
                      if record.attribution.get("subscription") ==
                      "Restaurants"]
        assert len(query_log()) > before
        assert attributed, "filter run should carry attribution"
        assert attributed[-1].attribution["poll_time"] == \
            str(parse_timestamp("30Dec96 11:30pm"))


class TestPollSpans:
    def test_poll_span_has_phase_children(self):
        server = make_server()
        server.subscribe(subscription(), "guide")
        tracer = get_tracer()
        with tracer.capture() as capture:
            server.run_until("31Dec96")
        poll = capture.find("qss.poll")
        assert poll is not None
        assert poll.attrs["subscription"] == "Restaurants"
        assert poll.attrs["at"] == str(parse_timestamp("30Dec96 11:30pm"))
        child_names = [child.name for child in poll.children]
        for phase in ("qss.poll.source", "qss.poll.incorporate",
                      "qss.filter", "qss.package"):
            assert phase in child_names

    def test_no_spans_when_tracing_disabled(self):
        server = make_server()
        server.subscribe(subscription(), "guide")
        server.run_until("31Dec96")
        assert get_tracer().roots == []
