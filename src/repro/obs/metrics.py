"""A process-global registry of counters, gauges, and histograms.

The registry unifies the per-component counters PR 1 scattered across the
codebase (``EngineStats``, ``IndexStats``, ``SnapshotCacheStats``,
``annotation_visits``): each stats object now owns a
:class:`MetricsGroup` -- its private counters, registered (weakly) under
a family prefix -- and exposes the same attribute API as before through
:class:`CounterField` descriptors.  A registry snapshot sums every live
instance of a family, so ``repro.index.lookups`` in a metrics dump is the
total across all indexes in the process, while each index's own stats
still read and reset independently.

Direct (non-family) instruments cover process-wide series such as the QSS
server's poll counters and latency histogram.  Everything exports as JSON
(:meth:`MetricsRegistry.export_json`) or as a Prometheus-style text dump
(:meth:`MetricsRegistry.render_text`) -- the format the QSS server's
``metrics_text()`` serves.

Thread safety: instrument mutation (``Counter.inc``, ``Gauge.set``,
``Histogram.observe``, ``reset``) and registry mutation (instrument and
group creation, snapshots, resets) are guarded by locks, so the parallel
query executor and the concurrent QSS poll loop (:mod:`repro.parallel`)
can record metrics from worker threads without corrupting state.  The
:class:`CounterField` attribute views remain plain read/assign
descriptors -- ``stats.lookups += 1`` through a descriptor is a
read-modify-write and is *not* atomic across threads; hot paths that
need atomic increments call ``group["field"].inc()`` directly.
"""

from __future__ import annotations

import bisect
import json
import threading
import weakref

__all__ = ["Counter", "Gauge", "Histogram", "MetricsGroup", "CounterField",
           "MetricsRegistry", "registry"]

DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)
"""Default histogram bucket upper bounds, in seconds."""


class Counter:
    """A monotonically *intended* counter (resettable for benchmarks).

    ``inc`` and ``reset`` are atomic under the instance lock; direct
    assignment to ``value`` (the :class:`CounterField` compatibility
    path) is a plain store.
    """

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount

    def reset(self) -> None:
        with self._lock:
            self.value = 0


class Gauge:
    """A point-in-time value (set, not accumulated)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def set(self, value) -> None:
        with self._lock:
            self.value = value

    def set_max(self, value) -> None:
        """Raise the gauge to ``value`` if larger (high-water marks)."""
        with self._lock:
            if value > self.value:
                self.value = value

    def reset(self) -> None:
        with self._lock:
            self.value = 0


class Histogram:
    """A fixed-bucket histogram (bucket bounds are upper edges).

    ``observe`` is O(log buckets); the snapshot carries cumulative-style
    per-bucket counts plus ``sum`` and ``count``, enough to reconstruct
    mean latency and coarse percentiles.  ``observe``/``reset``/
    ``snapshot`` are atomic under the instance lock, so concurrent
    observers never leave ``count`` out of step with the bucket counts.
    """

    __slots__ = ("name", "buckets", "counts", "total", "count", "_lock")

    def __init__(self, name: str, buckets=DEFAULT_BUCKETS) -> None:
        self.name = name
        self.buckets = tuple(sorted(buckets))
        self.counts = [0] * (len(self.buckets) + 1)  # + overflow bucket
        self.total = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.counts[bisect.bisect_left(self.buckets, value)] += 1
            self.total += value
            self.count += 1

    def reset(self) -> None:
        with self._lock:
            self.counts = [0] * (len(self.buckets) + 1)
            self.total = 0.0
            self.count = 0

    def snapshot(self) -> dict:
        """Bucket counts, sum, count, plus the bucket *bounds*.

        The bounds make exported artifacts self-describing: a consumer
        can rebuild an identically-bucketed histogram from the snapshot
        alone.
        """
        labels = [f"le_{bound:g}" for bound in self.buckets] + ["le_inf"]
        with self._lock:
            return {"buckets": dict(zip(labels, self.counts)),
                    "sum": self.total, "count": self.count,
                    "bounds": list(self.buckets)}


class MetricsGroup:
    """One instance of a counter family (e.g. one index's stats).

    Groups hold plain :class:`Counter` objects (and optionally
    :class:`Histogram` objects) named ``<prefix>.<field>``.  The registry
    keeps only a weak reference, so a group dies with the stats object
    that owns it and stops contributing to registry snapshots.
    """

    def __init__(self, prefix: str, fields: tuple[str, ...],
                 histograms: tuple[str, ...] = ()) -> None:
        self.prefix = prefix
        self.fields = tuple(fields)
        self._counters = {name: Counter(f"{prefix}.{name}")
                          for name in self.fields}
        self._histograms = {name: Histogram(f"{prefix}.{name}")
                            for name in histograms}

    def __getitem__(self, field: str) -> Counter:
        return self._counters[field]

    def histogram(self, field: str) -> Histogram:
        return self._histograms[field]

    def reset(self) -> None:
        for counter in self._counters.values():
            counter.reset()
        for histogram in self._histograms.values():
            histogram.reset()

    def snapshot(self) -> dict:
        """Full-name -> value for every instrument in the group."""
        out: dict = {c.name: c.value for c in self._counters.values()}
        out.update({h.name: h.snapshot() for h in self._histograms.values()})
        return out


class CounterField:
    """Descriptor exposing a group counter as a plain int attribute.

    Stats classes declare ``lookups = CounterField()`` and create a
    ``self._metrics`` group in ``__init__``; reads, ``+=``, and direct
    assignment then flow through the registered counter, keeping the
    pre-registry attribute API byte-for-byte compatible.
    """

    __slots__ = ("_name",)

    def __set_name__(self, owner, name: str) -> None:
        self._name = name

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return obj._metrics[self._name].value

    def __set__(self, obj, value) -> None:
        obj._metrics[self._name].value = value


def _merge(a, b):
    """Sum two snapshot values (numbers, or nested histogram dicts).

    Lists (histogram bucket *bounds*) describe shape rather than volume,
    so they pass through unchanged instead of concatenating.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        return {key: _merge(a[key], b.get(key, 0)) for key in a}
    if isinstance(a, list):
        return a
    return a + b


class MetricsRegistry:
    """Named instruments plus weakly-held instrument groups.

    Registry mutation (instrument/group creation, snapshot, reset) is
    serialized by an internal lock; returned instruments carry their own
    locks, so reads and increments after lookup proceed without holding
    the registry lock.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, object] = {}
        self._groups: dict[str, weakref.WeakSet] = {}
        self._lock = threading.RLock()

    # -- direct instruments ---------------------------------------------

    def _instrument(self, name: str, factory, kind):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise TypeError(
                        f"metric {name!r} is a {type(existing).__name__}, "
                        f"not a {kind.__name__}")
                return existing
            instrument = factory()
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str) -> Counter:
        """Get or create the named counter."""
        return self._instrument(name, lambda: Counter(name), Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the named gauge."""
        return self._instrument(name, lambda: Gauge(name), Gauge)

    def histogram(self, name: str, buckets=DEFAULT_BUCKETS) -> Histogram:
        """Get or create the named histogram (buckets fixed on creation)."""
        return self._instrument(name, lambda: Histogram(name, buckets),
                                Histogram)

    # -- groups ----------------------------------------------------------

    def group(self, prefix: str, fields: tuple[str, ...],
              histograms: tuple[str, ...] = ()) -> MetricsGroup:
        """A fresh family instance, registered weakly under ``prefix``."""
        instance = MetricsGroup(prefix, fields, histograms)
        with self._lock:
            self._groups.setdefault(prefix, weakref.WeakSet()).add(instance)
        return instance

    def _live_groups(self):
        with self._lock:
            members = [list(group) for group in self._groups.values()]
        for group in members:
            yield from group

    # -- export ----------------------------------------------------------

    def snapshot(self, prefix: str | None = None) -> dict:
        """Merged name -> value view: family sums + direct instruments.

        A name that exists both as a family sum and as a direct
        instrument *adds up*.
        """
        merged: dict = {}
        for group in self._live_groups():
            for name, value in group.snapshot().items():
                merged[name] = _merge(merged[name], value) \
                    if name in merged else value
        with self._lock:
            instruments = dict(self._instruments)
        for name, instrument in instruments.items():
            value = instrument.snapshot() \
                if isinstance(instrument, Histogram) else instrument.value
            merged[name] = _merge(merged[name], value) \
                if name in merged else value
        if prefix is not None:
            merged = {name: value for name, value in merged.items()
                      if name.startswith(prefix)}
        return dict(sorted(merged.items()))

    def typed_snapshot(self) -> dict:
        """The snapshot split by instrument kind (what :meth:`render_text`
        types its families by).

        Returns ``{"counters": {...}, "gauges": {...}, "histograms":
        {...}}``; group instruments contribute under ``counters`` /
        ``histograms`` with family sums, exactly as :meth:`snapshot`.
        """
        counters: dict = {}
        gauges: dict = {}
        histograms: dict = {}
        for group in self._live_groups():
            for counter in group._counters.values():
                counters[counter.name] = \
                    counters.get(counter.name, 0) + counter.value
            for histogram in group._histograms.values():
                snap = histogram.snapshot()
                if histogram.name in histograms:
                    histograms[histogram.name] = \
                        _merge(histograms[histogram.name], snap)
                else:
                    histograms[histogram.name] = snap
        with self._lock:
            instruments = dict(self._instruments)
        for name, instrument in instruments.items():
            if isinstance(instrument, Histogram):
                snap = instrument.snapshot()
                histograms[name] = _merge(histograms[name], snap) \
                    if name in histograms else snap
            elif isinstance(instrument, Gauge):
                gauges[name] = max(gauges.get(name, instrument.value),
                                   instrument.value)
            else:
                counters[name] = counters.get(name, 0) + instrument.value
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    def export_json(self, prefix: str | None = None,
                    indent: int | None = 2) -> str:
        """The snapshot as a JSON document."""
        return json.dumps(self.snapshot(prefix), indent=indent)

    def render_text(self, prefix: str | None = None) -> str:
        """The Prometheus text exposition of the registry.

        Every metric family carries its ``# HELP`` and ``# TYPE`` lines
        (type from the actual instrument kind: counter, gauge, or
        histogram); histograms expand into ``name_bucket{le="..."}``
        lines plus ``name_sum`` and ``name_count``.  Serve with content
        type ``text/plain; version=0.0.4`` (what
        :class:`repro.obs.http.MetricsHTTPServer` sends).
        """
        typed = self.typed_snapshot()
        kind_of: dict[str, str] = {}
        for kind, label in (("counters", "counter"), ("gauges", "gauge"),
                            ("histograms", "histogram")):
            for name in typed[kind]:
                kind_of[name] = label
        lines: list[str] = []
        for name in sorted(kind_of):
            if prefix is not None and not name.startswith(prefix):
                continue
            label = kind_of[name]
            flat = name.replace(".", "_").replace("-", "_")
            lines.append(f"# HELP {flat} repro metric {name}")
            lines.append(f"# TYPE {flat} {label}")
            if label == "histogram":
                value = typed["histograms"][name]
                for bucket, count in value["buckets"].items():
                    edge = bucket[3:].replace("_", ".") \
                        if not bucket.endswith("inf") else "+Inf"
                    lines.append(f'{flat}_bucket{{le="{edge}"}} {count}')
                lines.append(f"{flat}_sum {value['sum']:.6f}")
                lines.append(f"{flat}_count {value['count']}")
            else:
                source = typed["counters" if label == "counter"
                               else "gauges"]
                lines.append(f"{flat} {source[name]}")
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        """Zero every direct instrument and every live group."""
        with self._lock:
            instruments = list(self._instruments.values())
        for instrument in instruments:
            instrument.reset()
        for group in self._live_groups():
            group.reset()


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _REGISTRY
