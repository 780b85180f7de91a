"""Concurrent QSS polling: isolation, timeouts, and serial equivalence.

The acceptance bar from the issue: a subscription whose source hangs (or
crashes) must not stall the polling cycle -- the timeout fires, the
failure lands in ``error_log``, and every other subscription is notified
on schedule.
"""

from __future__ import annotations

import threading

import pytest

from repro import (
    COMPLEX,
    FrequencySpec,
    OEMDatabase,
    QSSServer,
    Subscription,
    Wrapper,
    parse_timestamp,
)
from repro.qss.server import PollTimeout
from repro.timestamps import Timestamp


class ScriptedSource:
    """A tiny source whose membership changes on a scripted date."""

    def __init__(self, flip_day: str = "5Dec96"):
        self.now: Timestamp | None = None
        self.flip = parse_timestamp(flip_day)

    def advance(self, when):
        self.now = parse_timestamp(when)

    def export(self):
        db = OEMDatabase(root="guide")
        names = ["alpha", "beta"]
        if self.now is not None and self.now >= self.flip:
            names.append("gamma")
        for index, name in enumerate(names):
            node = db.create_node(f"r{index}", COMPLEX)
            db.add_arc("guide", "item", node)
            value = db.create_node(f"v{index}", name)
            db.add_arc(node, "name", value)
        return db


class CrashingSource(ScriptedSource):
    """Raises on every export after ``crash_day`` -- a flaky upstream."""

    def __init__(self, crash_day: str = "3Dec96"):
        super().__init__()
        self.crash = parse_timestamp(crash_day)

    def export(self):
        if self.now is not None and self.now >= self.crash:
            raise ConnectionError("source fell over")
        return super().export()


class HangingSource(ScriptedSource):
    """Blocks in export() until ``release`` is set -- a hung upstream."""

    def __init__(self, release: threading.Event, hang_day: str = "3Dec96"):
        super().__init__()
        self.release = release
        self.hang = parse_timestamp(hang_day)

    def export(self):
        if self.now is not None and self.now >= self.hang:
            self.release.wait()
        return super().export()


def subscription(name: str) -> Subscription:
    return Subscription(
        name=name, polling_name=name,
        polling_query="select guide.item",
        frequency=FrequencySpec.parse("every 1 day"),
        filter_query=f"select {name}.item<cre at T> where T > t[-1]")


def build_server(sources: dict[str, object], max_workers: int = 1,
                 **kw) -> QSSServer:
    server = QSSServer(start="1Dec96", deliver_empty=True,
                       max_poll_workers=max_workers, **kw)
    for name, source in sources.items():
        server.register_wrapper(name, Wrapper(source, name="guide"))
        server.subscribe(subscription(name), name)
    return server


def signature(notifications):
    return [(n.subscription, str(n.polling_time), n.poll_index,
             sorted(map(str, n.result))) for n in notifications]


class TestEquivalence:
    def test_concurrent_polling_matches_serial(self):
        serial = build_server({f"s{i}": ScriptedSource() for i in range(5)})
        with build_server({f"s{i}": ScriptedSource() for i in range(5)},
                          max_workers=4) as concurrent:
            expected = signature(serial.run_until("9Dec96"))
            actual = signature(concurrent.run_until("9Dec96"))
        assert actual == expected
        assert len(expected) == 5 * 8  # 5 subscriptions, 8 daily polls

    def test_shared_wrapper_batch(self):
        """Several subscriptions on one wrapper poll it concurrently."""

        def build(workers):
            server = QSSServer(start="1Dec96", deliver_empty=True,
                               max_poll_workers=workers)
            server.register_wrapper("src", Wrapper(ScriptedSource(),
                                                   name="guide"))
            for i in range(4):
                server.subscribe(subscription(f"sub{i}"), "src")
            return server

        with build(3) as concurrent:
            assert signature(concurrent.run_until("8Dec96")) == \
                signature(build(1).run_until("8Dec96"))


class TestCrashIsolation:
    def test_crashing_subscription_does_not_stall_others(self):
        sources = {"bad": CrashingSource(), "good1": ScriptedSource(),
                   "good2": ScriptedSource()}
        with build_server(sources, max_workers=3,
                          on_error="skip") as server:
            server.run_until("8Dec96")
            healthy = {n.subscription for n in server.notification_log}
            assert {"good1", "good2"} <= healthy
            # The healthy pair kept their full daily cadence.
            good1 = [n for n in server.notification_log
                     if n.subscription == "good1"]
            assert len(good1) == 7
            crashes = [entry for entry in server.error_log
                       if entry[1] == "bad"]
            assert crashes and all(isinstance(entry[2], ConnectionError)
                                   for entry in crashes)
            # The crashing subscription's schedule kept advancing too.
            assert len(crashes) == 6  # daily crashes from 3Dec96 onward

    def test_crash_raises_without_skip(self):
        sources = {"bad": CrashingSource(), "good": ScriptedSource()}
        with build_server(sources, max_workers=2) as server:
            with pytest.raises(ConnectionError):
                server.run_until("8Dec96")


class TestHungSubscriptionTimeout:
    def test_timeout_fires_and_others_are_notified(self):
        release = threading.Event()
        try:
            sources = {"hung": HangingSource(release),
                       "good1": ScriptedSource(), "good2": ScriptedSource()}
            with build_server(sources, max_workers=3, poll_timeout=0.5,
                              on_error="raise") as server:
                notifications = server.run_until("6Dec96")
                # Healthy subscriptions completed every daily poll.
                for name in ("good1", "good2"):
                    assert sum(1 for n in notifications
                               if n.subscription == name) == 5
                # The hung subscription delivered before it hung (2Dec),
                # then timed out at 3Dec and was skipped 4-6Dec while its
                # zombie poll lingered -- never raising, even with
                # on_error="raise".
                hung = [n for n in notifications if n.subscription == "hung"]
                assert len(hung) == 1
                timeouts = [entry for entry in server.error_log
                            if entry[1] == "hung"]
                assert len(timeouts) == 4
                assert all(isinstance(entry[2], PollTimeout)
                           for entry in timeouts)
                # The schedule kept advancing through the outage.
                hung_state = server.subscriptions.get("hung")
                assert hung_state.poll_count == 5
                pool_stats = server.poll_pool.stats()
                assert pool_stats["qss.pool.submitted"] > 0
        finally:
            release.set()  # let the zombie worker exit before teardown

    def test_timeout_requires_concurrency(self):
        from repro.errors import QSSError
        with pytest.raises(QSSError):
            QSSServer(poll_timeout=1.0)
        with pytest.raises(QSSError):
            QSSServer(max_poll_workers=2, poll_timeout=0.0)
        with pytest.raises(QSSError):
            QSSServer(max_poll_workers=0)

    def test_timeouts_counted_in_metrics(self):
        """Read this server's own counter group: the registry's
        ``qss.timeouts`` sums every live server, and another test's
        server can be collected between two reads of it."""
        release = threading.Event()
        try:
            with build_server({"hung": HangingSource(release)},
                              max_workers=2, poll_timeout=0.2) as server:
                server.run_until("4Dec96")
                timeouts = server._metrics["timeouts"].value
                logged = sum(1 for entry in server.error_log
                             if isinstance(entry[2], PollTimeout))
            assert timeouts >= 1
            assert timeouts == logged
        finally:
            release.set()
