"""repro.obs: unified tracing, metrics, events and the query log.

Zero-dependency layers every query-serving component threads through:

* :mod:`repro.obs.trace` -- hierarchical wall-time spans with a
  process-global tracer that is a no-op (one boolean check, zero
  allocation) unless enabled;
* :mod:`repro.obs.metrics` -- a process-global
  :class:`~repro.obs.metrics.MetricsRegistry` of counters, gauges, and
  fixed-bucket histograms; the pre-existing stats classes
  (``EngineStats``, ``IndexStats``, ``SnapshotCacheStats``) register
  themselves here while keeping their original attribute APIs;
* :mod:`repro.obs.querylog` -- one record per planner execution, keyed
  by plan fingerprint (``/queries``, ``repro top``).

Per-query observation is EXPLAIN ANALYZE (``analyze=True`` on the
engines, ``repro analyze`` on the CLI; :mod:`repro.plan.analyze`).

See ``docs/observability.md`` for the operator's guide.
"""

from .metrics import (
    Counter,
    CounterField,
    Gauge,
    Histogram,
    MetricsGroup,
    MetricsRegistry,
    registry as metrics_registry,
)
from .trace import (
    Span,
    TraceCapture,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    span,
)
from .events import (
    EventLog,
    configure_events,
    configure_events_from_env,
    disable_events,
    emit_event,
    event_log,
    events_enabled,
)
from .http import MetricsHTTPServer, serve_metrics

__all__ = [
    "Span", "Tracer", "TraceCapture", "get_tracer", "enable_tracing",
    "disable_tracing", "span",
    "Counter", "Gauge", "Histogram", "MetricsGroup", "CounterField",
    "MetricsRegistry", "metrics_registry",
    "EventLog", "configure_events", "configure_events_from_env",
    "disable_events", "emit_event", "event_log", "events_enabled",
    "MetricsHTTPServer", "serve_metrics",
]
