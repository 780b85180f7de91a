"""The plan-fingerprinted query log: ring buffer, aggregates, slow capture.

Every planner-driven execution records one :class:`QueryRecord` here,
keyed by the plan fingerprint (the stable hash of the normalized logical
IR, :func:`repro.plan.analyze.plan_fingerprint`), so "which queries run,
how often, and how slowly" is answerable without tracing:

* a bounded **ring buffer** of recent records (inspect with
  :meth:`QueryLog.recent`);
* cumulative **per-fingerprint aggregates** -- count, row totals,
  total/max wall seconds, engines seen, rules fired -- served at
  ``/queries`` on the obs HTTP server and in ``repro top``;
* optional **JSONL append** (``path=``) for offline analysis;
* **slow-query capture**: records over the threshold keep the full
  analyzed plan text (when the run was ``analyze=True``; the static
  EXPLAIN tree otherwise), so the evidence for "why was this slow" is
  saved at the moment it happened.

One env var drives every slow-query surface -- ``REPRO_SLOW_QUERY_MS``
sets both this log's capture threshold and the QSS server's slow-poll
log (``slow_poll_threshold`` stays as a per-server override).

Attribution: wrap a call site in :func:`query_attribution` and every
query recorded inside the block carries those fields -- the QSS server
tags each subscription's filter run this way, so the query log can
answer "which subscription issues this fingerprint".
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict, deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import time

from .events import emit_event
from .metrics import registry as metrics_registry

__all__ = ["QueryRecord", "QueryLog", "query_log", "configure_query_log",
           "query_attribution", "current_attribution",
           "record_engine_query", "slow_query_threshold_ms",
           "slow_query_threshold_seconds", "ENV_SLOW_QUERY_MS"]

ENV_SLOW_QUERY_MS = "REPRO_SLOW_QUERY_MS"

DEFAULT_CAPACITY = 256
DEFAULT_SLOW_CAPACITY = 32
MAX_AGGREGATES = 512

# Engine class name -> the backend label (``repro explain --backend``).
ENGINE_LABELS = {
    "LorelEngine": "lorel",
    "ChorelEngine": "chorel-native",
    "IndexedChorelEngine": "chorel-indexed",
    "TranslatingChorelEngine": "chorel-translate",
}


def slow_query_threshold_ms(environ=None) -> float | None:
    """The ``REPRO_SLOW_QUERY_MS`` threshold, or ``None`` when unset."""
    env = os.environ if environ is None else environ
    raw = env.get(ENV_SLOW_QUERY_MS)
    if raw is None or raw == "":
        return None
    value = float(raw)
    if value < 0:
        raise ValueError(f"{ENV_SLOW_QUERY_MS} must be >= 0, got {raw!r}")
    return value


def slow_query_threshold_seconds(environ=None) -> float | None:
    """The env threshold in seconds (QSS consumes seconds)."""
    ms = slow_query_threshold_ms(environ)
    return None if ms is None else ms / 1000.0


# ---------------------------------------------------------------------------
# Attribution (thread-local, stackable)
# ---------------------------------------------------------------------------

_ATTRIBUTION = threading.local()


@contextmanager
def query_attribution(**fields):
    """Tag every query recorded in this block with ``fields``.

    Nestable; inner blocks shadow outer keys.  Thread-local, so the QSS
    coordinator can tag each subscription's filter run without races.
    """
    stack = getattr(_ATTRIBUTION, "stack", None)
    if stack is None:
        stack = _ATTRIBUTION.stack = []
    stack.append(fields)
    try:
        yield
    finally:
        stack.pop()


def current_attribution() -> dict:
    """The merged attribution fields active on this thread."""
    stack = getattr(_ATTRIBUTION, "stack", None)
    if not stack:
        return {}
    merged: dict = {}
    for fields in stack:
        merged.update(fields)
    return merged


# ---------------------------------------------------------------------------
# Records and the log
# ---------------------------------------------------------------------------

@dataclass
class QueryRecord:
    """One executed query, as the log stores it."""

    fingerprint: str
    query: str
    engine: str
    rows: int
    compile_seconds: float
    execute_seconds: float
    rules_fired: tuple[str, ...] = ()
    shards: int = 0
    indexed: bool = False
    analyzed: bool = False
    attribution: dict = field(default_factory=dict)
    ts: float = 0.0

    @property
    def wall_seconds(self) -> float:
        return self.compile_seconds + self.execute_seconds

    def to_dict(self) -> dict:
        payload = {
            "ts": round(self.ts, 6),
            "fingerprint": self.fingerprint,
            "query": self.query,
            "engine": self.engine,
            "rows": self.rows,
            "compile_seconds": round(self.compile_seconds, 6),
            "execute_seconds": round(self.execute_seconds, 6),
            "rules_fired": list(self.rules_fired),
            "shards": self.shards,
            "indexed": self.indexed,
            "analyzed": self.analyzed,
        }
        if self.attribution:
            payload["attribution"] = self.attribution
        return payload


class QueryLog:
    """Ring buffer + per-fingerprint aggregates + slow-query capture.

    ``slow_threshold`` is in **seconds**; when ``None`` the
    ``REPRO_SLOW_QUERY_MS`` env var is consulted per record, so an
    operator can turn capture on for a running process's next queries by
    exporting the variable before launch.  All methods are thread-safe.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY, *,
                 path=None, slow_threshold: float | None = None,
                 slow_capacity: int = DEFAULT_SLOW_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if slow_capacity < 1:
            raise ValueError("slow_capacity must be >= 1")
        if slow_threshold is not None and slow_threshold < 0:
            raise ValueError("slow_threshold must be >= 0")
        self.capacity = capacity
        self.path = None if path is None else str(path)
        self.slow_threshold = slow_threshold
        self._recent: deque[QueryRecord] = deque(maxlen=capacity)
        self._slow: deque[dict] = deque(maxlen=slow_capacity)
        self._aggregates: OrderedDict[str, dict] = OrderedDict()
        self._lock = threading.Lock()
        self._metrics = metrics_registry().group(
            "repro.querylog", ("recorded", "slow"))

    # -- recording -------------------------------------------------------

    def record(self, record: QueryRecord, *,
               plan_text: str | None = None) -> QueryRecord:
        """Add one executed query; returns the (attributed) record."""
        if record.ts == 0.0:
            record.ts = time()
        attribution = current_attribution()
        if attribution:
            merged = dict(attribution)
            merged.update(record.attribution)
            record.attribution = merged
        threshold = self.slow_threshold
        if threshold is None:
            threshold = slow_query_threshold_seconds()
        slow = threshold is not None and record.wall_seconds >= threshold
        with self._lock:
            self._recent.append(record)
            agg = self._aggregates.get(record.fingerprint)
            if agg is None:
                agg = {
                    "query": record.query,
                    "count": 0,
                    "rows": 0,
                    "total_seconds": 0.0,
                    "max_seconds": 0.0,
                    "slow": 0,
                    "engines": set(),
                    "rules_fired": set(),
                    "last_ts": 0.0,
                }
                self._aggregates[record.fingerprint] = agg
                while len(self._aggregates) > MAX_AGGREGATES:
                    self._aggregates.popitem(last=False)
            self._aggregates.move_to_end(record.fingerprint)
            agg["count"] += 1
            agg["rows"] += record.rows
            agg["total_seconds"] += record.wall_seconds
            agg["max_seconds"] = max(agg["max_seconds"], record.wall_seconds)
            agg["engines"].add(record.engine)
            agg["rules_fired"].update(record.rules_fired)
            agg["last_ts"] = record.ts
            if slow:
                agg["slow"] += 1
                capture = record.to_dict()
                if plan_text is not None:
                    capture["plan"] = plan_text
                self._slow.append(capture)
        self._metrics["recorded"].inc()
        if slow:
            self._metrics["slow"].inc()
        if self.path is not None:
            self._append_jsonl(record)
        emit_event("query_completed", level="info",
                   fingerprint=record.fingerprint, rows=record.rows,
                   wall_seconds=round(record.wall_seconds, 6),
                   engine=record.engine)
        return record

    def _append_jsonl(self, record: QueryRecord) -> None:
        line = json.dumps(record.to_dict(), default=str,
                          separators=(",", ":")) + "\n"
        try:
            with open(self.path, "a", encoding="utf-8") as stream:
                stream.write(line)
        except OSError:
            pass  # the log is advisory; never fail the query over it

    # -- reading ---------------------------------------------------------

    def recent(self, limit: int | None = None) -> list[QueryRecord]:
        with self._lock:
            records = list(self._recent)
        if limit is not None:
            records = records[-limit:]
        return records

    def slow_queries(self) -> list[dict]:
        """Captured slow queries, oldest first, with their plan text."""
        with self._lock:
            return [dict(capture) for capture in self._slow]

    def aggregates(self) -> dict[str, dict]:
        """Per-fingerprint aggregates, JSON-ready (sets become lists)."""
        with self._lock:
            out: dict[str, dict] = {}
            for fingerprint, agg in self._aggregates.items():
                mean = agg["total_seconds"] / agg["count"]
                out[fingerprint] = {
                    "query": agg["query"],
                    "count": agg["count"],
                    "rows": agg["rows"],
                    "total_seconds": round(agg["total_seconds"], 6),
                    "mean_seconds": round(mean, 6),
                    "max_seconds": round(agg["max_seconds"], 6),
                    "slow": agg["slow"],
                    "engines": sorted(agg["engines"]),
                    "rules_fired": sorted(agg["rules_fired"]),
                    "last_ts": round(agg["last_ts"], 6),
                }
            return out

    def snapshot(self) -> dict:
        """The ``/queries`` payload: aggregates + recent slow captures."""
        return {"queries": self.aggregates(), "slow": self.slow_queries()}

    def __len__(self) -> int:
        with self._lock:
            return len(self._recent)

    def reset(self) -> None:
        with self._lock:
            self._recent.clear()
            self._slow.clear()
            self._aggregates.clear()


# ---------------------------------------------------------------------------
# The process-global log
# ---------------------------------------------------------------------------

_LOG = QueryLog()


def query_log() -> QueryLog:
    """The process-global query log (always on; bounded memory)."""
    return _LOG


def configure_query_log(capacity: int = DEFAULT_CAPACITY, *,
                        path=None, slow_threshold: float | None = None,
                        slow_capacity: int = DEFAULT_SLOW_CAPACITY
                        ) -> QueryLog:
    """Replace the process-global log (e.g. to add a JSONL path)."""
    global _LOG
    _LOG = QueryLog(capacity, path=path, slow_threshold=slow_threshold,
                    slow_capacity=slow_capacity)
    return _LOG


def record_engine_query(engine, compiled, result, execute_seconds: float, *,
                        shards: int = 0, plan_stats=None) -> QueryRecord:
    """Build and record the :class:`QueryRecord` for one engine execution.

    Called by every engine facade after ``execute_plan``; ``plan_stats``
    is the ANALYZE collector when one ran -- a slow query then captures
    the annotated runtime tree rather than the static EXPLAIN.
    """
    from ..lorel.pretty import format_query

    try:
        query_text = format_query(compiled.source)
    except Exception:
        query_text = str(compiled.source)
    record = QueryRecord(
        fingerprint=compiled.fingerprint,
        query=query_text,
        engine=ENGINE_LABELS.get(type(engine).__name__,
                                 type(engine).__name__),
        rows=len(result),
        compile_seconds=compiled.compile_seconds,
        execute_seconds=execute_seconds,
        rules_fired=tuple(r.name for r in compiled.passes if r.fired),
        shards=shards,
        indexed=compiled.index_plan is not None,
        analyzed=plan_stats is not None,
    )
    plan_text = None
    log = query_log()
    threshold = log.slow_threshold
    if threshold is None:
        threshold = slow_query_threshold_seconds()
    if threshold is not None and record.wall_seconds >= threshold:
        # Render lazily: plan text is only built when it will be kept.
        plan_text = (plan_stats.render() if plan_stats is not None
                     else compiled.explain())
    return log.record(record, plan_text=plan_text)
