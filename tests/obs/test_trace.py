"""The tracing layer: spans, the no-op fast path, capture, attachment,
JSON export."""

import json

import pytest

from repro.obs import trace
from repro.obs.trace import (
    Span,
    Tracer,
    _NOOP,
    disable_tracing,
    enable_tracing,
    get_tracer,
    span,
)


@pytest.fixture
def clock(monkeypatch):
    """A span clock that moves only when the test advances it."""

    class Clock:
        now = 100.0

        def __call__(self):
            return self.now

        def advance(self, seconds):
            self.now += seconds

    fake = Clock()
    monkeypatch.setattr(trace, "perf_counter", fake)
    return fake


@pytest.fixture(autouse=True)
def clean_global_tracer():
    """Every test starts and ends with the global tracer off and empty."""
    tracer = get_tracer()
    tracer.enabled = False
    tracer.clear()
    yield tracer
    tracer.enabled = False
    tracer.clear()


class TestDisabledFastPath:
    def test_disabled_span_is_the_shared_noop(self):
        """The zero-allocation invariant: a disabled tracer hands out the
        one module-level no-op object, never a fresh span."""
        assert span("a") is _NOOP
        assert span("b", attr=1) is span("a")

    def test_disabled_records_nothing(self):
        with span("outer"):
            with span("inner"):
                pass
        tracer = get_tracer()
        assert tracer.roots == []
        assert tracer._stack == []

    def test_tracer_method_also_noops(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("x") is _NOOP
        with tracer.span("x"):
            pass
        assert tracer.roots == []

    def test_noop_swallows_no_exceptions(self):
        with pytest.raises(ValueError):
            with span("doomed"):
                raise ValueError("propagates")


class TestRecording:
    def test_nesting_builds_a_tree(self):
        enable_tracing()
        with span("root", query="q"):
            with span("parse"):
                pass
            with span("eval"):
                with span("index"):
                    pass
        tracer = get_tracer()
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert root.name == "root"
        assert root.attrs == {"query": "q"}
        assert [c.name for c in root.children] == ["parse", "eval"]
        assert [c.name for c in root.children[1].children] == ["index"]
        assert tracer._stack == []

    def test_sibling_roots(self):
        enable_tracing()
        with span("first"):
            pass
        with span("second"):
            pass
        assert [r.name for r in get_tracer().roots] == ["first", "second"]

    def test_durations_nest(self, clock):
        enable_tracing()
        with span("outer"):
            clock.advance(0.001)
            with span("inner"):
                clock.advance(0.002)
        root = get_tracer().roots[0]
        inner = root.children[0]
        assert inner.duration == pytest.approx(0.002)
        assert root.duration == pytest.approx(0.003)
        assert root.self_time == pytest.approx(0.001)

    def test_exception_still_closes_the_span(self):
        enable_tracing()
        with pytest.raises(RuntimeError):
            with span("outer"):
                with span("inner"):
                    raise RuntimeError("boom")
        tracer = get_tracer()
        assert tracer._stack == []
        root = tracer.roots[0]
        assert root.name == "outer"
        assert [c.name for c in root.children] == ["inner"]
        assert root.duration >= 0.0

    def test_walk_and_find(self):
        enable_tracing()
        with span("a"):
            with span("b"):
                with span("c"):
                    pass
            with span("d"):
                pass
        root = get_tracer().roots[0]
        assert [(d, s.name) for d, s in root.walk()] == \
            [(0, "a"), (1, "b"), (2, "c"), (1, "d")]
        assert root.find("c").name == "c"
        assert root.find("missing") is None

    def test_clear(self):
        enable_tracing()
        with span("x"):
            pass
        get_tracer().clear()
        assert get_tracer().roots == []


class TestCapture:
    def test_capture_restores_disabled_and_leaves_no_residue(self):
        tracer = get_tracer()
        assert not tracer.enabled
        with tracer.capture() as cap:
            with span("captured"):
                pass
        assert not tracer.enabled
        assert tracer.roots == []  # one-off profiling leaves nothing behind
        assert [s.name for s in cap.spans] == ["captured"]

    def test_capture_keeps_spans_when_already_enabled(self):
        tracer = enable_tracing()
        with span("before"):
            pass
        with tracer.capture() as cap:
            with span("during"):
                pass
        assert tracer.enabled
        assert [r.name for r in tracer.roots] == ["before", "during"]
        assert [s.name for s in cap.spans] == ["during"]

    def test_capture_find(self):
        tracer = get_tracer()
        with tracer.capture() as cap:
            with span("outer"):
                with span("inner"):
                    pass
        assert cap.find("inner").name == "inner"
        assert cap.find("absent") is None


class TestAttachment:
    def test_attach_to_nests_spans_under_parent(self):
        tracer = Tracer(enabled=True)
        with tracer.span("parent") as parent:
            with tracer.attach_to(parent):
                with tracer.span("child"):
                    pass
        assert [c.name for c in parent.children] == ["child"]
        assert tracer.current_span() is None

    def test_attach_to_disabled_or_none_is_noop(self):
        tracer = Tracer(enabled=False)
        with tracer.attach_to(None):
            pass
        with tracer.attach_to(Span("x")):
            pass
        assert tracer.roots == []


class TestEngineSpans:
    """The per-engine span trees docs/observability.md documents."""

    UPD_QUERY = ("select T, NV from guide.restaurant.price<upd at T to NV> "
                 "where T > 1Jan97")

    @staticmethod
    def phases(engine, query):
        with get_tracer().capture() as cap:
            engine.run(query)
        [root] = cap.spans
        return root.name, [child.name for child in root.children]

    def test_native(self, guide_doem):
        from repro import ChorelEngine
        root, names = self.phases(ChorelEngine(guide_doem, name="guide"),
                                  self.UPD_QUERY)
        assert root == "chorel.query"
        assert "chorel.parse" in names and "lorel.eval" in names

    def test_indexed(self, guide_doem):
        from repro import IndexedChorelEngine
        engine = IndexedChorelEngine(guide_doem, name="guide")
        # Single-time and range scans open the same span.
        for query in (self.UPD_QUERY,
                      "select T from guide.restaurant.price<changed at T>"):
            root, names = self.phases(engine, query)
            assert root == "chorel.query"
            assert names == ["chorel.parse", "chorel.optimize",
                             "chorel.index_scan"]

    def test_translate(self, guide_doem):
        from repro import TranslatingChorelEngine
        root, names = self.phases(
            TranslatingChorelEngine(guide_doem, name="guide"), self.UPD_QUERY)
        assert root == "chorel.query"
        assert {"chorel.parse", "chorel.translate", "lorel.eval"} <= set(names)

    def test_lorel(self, guide_db):
        from repro import LorelEngine
        root, names = self.phases(LorelEngine(guide_db, name="guide"),
                                  "select guide.restaurant.name")
        assert root == "lorel.query"
        assert "lorel.eval" in names


class TestSerialization:
    def test_dict_round_trip(self, clock):
        enable_tracing()
        with span("root", kind="test"):
            with span("child"):
                clock.advance(0.001)
        original = get_tracer().roots[0]
        payload = original.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["name"] == original.name
        assert payload["attrs"] == original.attrs
        assert payload["duration"] == pytest.approx(original.duration)
        [child] = payload["children"]
        assert child["name"] == "child"
        assert child["duration"] == pytest.approx(
            original.children[0].duration)
        assert "children" not in child and "attrs" not in child

    def test_export_json_parses(self):
        enable_tracing()
        with span("a"):
            with span("b"):
                pass
        payload = json.loads(get_tracer().export_json())
        assert payload[0]["name"] == "a"
        assert payload[0]["children"][0]["name"] == "b"

    def test_enable_disable_return_the_global(self):
        assert enable_tracing() is get_tracer()
        assert get_tracer().enabled
        assert disable_tracing() is get_tracer()
        assert not get_tracer().enabled
