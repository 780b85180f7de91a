"""The metrics registry: instruments, groups, thin-view stats, exports."""

import gc
import json

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry,
)


class TestInstruments:
    def test_counter(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        counter.reset()
        assert counter.value == 0

    def test_gauge(self):
        gauge = Gauge("g")
        gauge.set(3.5)
        assert gauge.value == 3.5
        gauge.reset()
        assert gauge.value == 0

    def test_histogram_buckets(self):
        histogram = Histogram("h", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.05, 0.5, 5.0):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["buckets"] == {"le_0.01": 1, "le_0.1": 2,
                                   "le_1": 1, "le_inf": 1}
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(5.605)
        histogram.reset()
        assert histogram.snapshot()["count"] == 0

    def test_histogram_snapshot_includes_bounds(self):
        snap = Histogram("h", buckets=(0.25, 2.0)).snapshot()
        assert snap["bounds"] == [0.25, 2.0]


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.histogram("c") is reg.histogram("c")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="x"):
            reg.gauge("x")

    def test_group_family_summation(self):
        """Registry snapshots sum every live instance of a family while
        each group still reads independently."""
        reg = MetricsRegistry()
        one = reg.group("fam", ("hits",))
        two = reg.group("fam", ("hits",))
        one["hits"].inc(3)
        two["hits"].inc(4)
        assert one["hits"].value == 3
        assert reg.snapshot()["fam.hits"] == 7

    def test_dead_groups_stop_contributing(self):
        reg = MetricsRegistry()
        keep = reg.group("fam", ("hits",))
        keep["hits"].inc(1)
        dead = reg.group("fam", ("hits",))
        dead["hits"].inc(100)
        assert reg.snapshot()["fam.hits"] == 101
        del dead
        gc.collect()
        assert reg.snapshot()["fam.hits"] == 1

    def test_snapshot_adds_direct_counter_to_family_sum(self):
        """A direct instrument named like a family adds to the family
        sum of the live group instances."""
        reg = MetricsRegistry()
        group = reg.group("fam", ("hits",))
        group["hits"].inc(5)
        reg.counter("fam.hits").inc(2)
        assert reg.snapshot()["fam.hits"] == 7

    def test_snapshot_prefix_filter(self):
        reg = MetricsRegistry()
        reg.counter("qss.polls").inc()
        reg.counter("repro.diff.runs").inc()
        assert set(reg.snapshot("qss")) == {"qss.polls"}

    def test_reset_zeroes_everything(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(5)
        group = reg.group("fam", ("hits",))
        group["hits"].inc(5)
        reg.reset()
        assert reg.snapshot() == {"c": 0, "fam.hits": 0}

    def test_export_json(self):
        reg = MetricsRegistry()
        reg.counter("a.b").inc(2)
        assert json.loads(reg.export_json()) == {"a.b": 2}

    def test_export_json_carries_histogram_bounds(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(0.1,)).observe(0.05)
        payload = json.loads(reg.export_json())
        assert payload["h"]["bounds"] == [0.1]
        assert payload["h"]["count"] == 1

    def test_render_text(self):
        reg = MetricsRegistry()
        reg.counter("qss.polls").inc(3)
        histogram = reg.histogram("qss.poll_seconds", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        text = reg.render_text()
        assert "qss_polls 3" in text
        assert 'qss_poll_seconds_bucket{le="0.1"} 1' in text
        assert 'qss_poll_seconds_bucket{le="+Inf"} 0' in text
        assert "qss_poll_seconds_count 1" in text

    def test_render_text_help_and_type_lines(self):
        """Prometheus exposition: every family carries # HELP and # TYPE
        with the right metric kind, immediately before its samples."""
        reg = MetricsRegistry()
        reg.counter("qss.polls").inc(3)
        reg.gauge("qss.backlog").set(2)
        reg.histogram("qss.poll_seconds", buckets=(0.1,)).observe(0.05)
        lines = reg.render_text().splitlines()
        for flat, kind in (("qss_polls", "counter"),
                           ("qss_backlog", "gauge"),
                           ("qss_poll_seconds", "histogram")):
            type_line = f"# TYPE {flat} {kind}"
            assert type_line in lines, type_line
            position = lines.index(type_line)
            assert lines[position - 1].startswith(f"# HELP {flat} ")
            assert lines[position + 1].startswith(flat)

    def test_render_text_prefix_filter_keeps_headers(self):
        reg = MetricsRegistry()
        reg.counter("qss.polls").inc()
        reg.counter("repro.diff.runs").inc()
        text = reg.render_text("qss")
        assert "# TYPE qss_polls counter" in text
        assert "repro_diff_runs" not in text

    def test_global_registry_is_a_singleton(self):
        assert registry() is registry()


class TestThinViewStats:
    """The migrated stats classes keep their attribute APIs while routing
    every read and write through registered counters."""

    def test_index_stats_attribute_api(self):
        from repro.lore.indexes import IndexStats
        stats = IndexStats()
        stats.lookups += 2
        stats.hits = 1
        assert stats.lookups == 2
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.hit_rate == 0.5
        assert stats.as_dict()["lookups"] == 2
        assert stats._metrics["lookups"].value == 2  # backed by the group
        stats.reset()
        assert stats.lookups == 0

    def test_index_stats_feed_the_global_registry(self):
        from repro.lore.indexes import IndexStats
        before = registry().snapshot().get("repro.index.lookups", 0)
        stats = IndexStats()
        stats.lookups += 7
        after = registry().snapshot()["repro.index.lookups"]
        assert after - before == 7
        del stats
        gc.collect()
        assert registry().snapshot().get("repro.index.lookups", 0) == before

    def test_snapshot_cache_stats(self):
        from repro.doem.snapshot import SnapshotCacheStats
        stats = SnapshotCacheStats()
        stats.lookups += 4
        stats.exact_hits += 1
        stats.incremental += 2
        assert stats.hit_rate == 0.75
        assert stats.as_dict()["exact_hits"] == 1

    def test_engine_stats(self):
        from repro.chorel.optimize import EngineStats
        stats = EngineStats()
        stats.indexed_queries += 3
        stats.fallback_queries += 1
        assert stats.total == 4
        assert stats.pushdown_rate == 0.75
        assert stats.as_dict()["total"] == 4

    def test_view_annotation_visits(self, guide_doem):
        from repro.lorel.views import DOEMView
        view = DOEMView(guide_doem)
        view.annotation_visits += 5
        assert view.annotation_visits == 5
        assert view._metrics["annotation_visits"].value == 5
        view.annotation_visits = 0
        assert view.annotation_visits == 0
