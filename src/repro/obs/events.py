"""A leveled, sampled, rotating JSONL event log.

The third leg of ``repro.obs``: spans answer *where time went*, metrics
answer *how much of everything happened*, and the event log answers
*what happened, in order* -- one JSON object per line, cheap enough to
leave enabled in production, structured enough to grep, join, and load
into a dataframe.  Event types currently emitted:

========================  =======  ==============================================
type                      level    emitted by
========================  =======  ==============================================
``query_compiled``        info     :func:`repro.plan.compiler.compile_query`
``query_completed``       info     :class:`repro.obs.querylog.QueryLog` (one per
                                   executed query: fingerprint, rows, wall
                                   seconds, engine)
``rule_fired``            debug    :class:`repro.plan.rules.PassManager`
``shard_dispatched``      debug    the ``Exchange`` operator
``poll_timeout``          warning  :class:`repro.qss.server.QSSServer`
``slow_poll``             warning  :class:`repro.qss.server.QSSServer`
``cache_eviction``        info     :class:`repro.doem.snapshot.SnapshotCache`
``checkpoint_written``    info     :class:`repro.store.HistoryLog` (one per
                                   materialized snapshot checkpoint)
``store_recovered``       warning  :class:`repro.store.HistoryLog` (torn tail
                                   truncated on open)
``store_compacted``       info     :class:`repro.store.HistoryLog`
========================  =======  ==============================================

**Off by default and near-free when off**: :func:`emit_event` is one
global load and a ``None`` check unless a sink is configured.  Activation
is explicit (:func:`configure_events`), via the CLI (``repro --events
PATH ...``), or via the environment::

    REPRO_EVENTS=/var/log/repro/events.jsonl   # path ("-" = stderr)
    REPRO_EVENTS_LEVEL=debug                   # min level (default info)
    REPRO_EVENTS_SAMPLE=rule_fired=10,shard_dispatched=25
    REPRO_EVENTS_MAX_BYTES=8388608             # rotation threshold

**Rotation** is size-based: when the sink file exceeds ``max_bytes``
after a write, it rotates through ``path.1 .. path.<backups>`` (oldest
dropped).  **Sampling** is deterministic and per event type: ``N`` keeps
every N-th event of that type (``0`` drops the type entirely), so two
runs of the same workload log the same lines.

A forked child process inherits the configured sink; each line is
written in one append-mode ``write`` call, so concurrent lines
interleave whole, never torn.  Rotation is left to the configuring
process (children write, but never rotate) to keep the rename
race-free.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

from .metrics import registry as metrics_registry

__all__ = ["EventLog", "EVENT_LEVELS", "configure_events",
           "configure_events_from_env", "disable_events", "emit_event",
           "event_log", "events_enabled"]

EVENT_LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}

DEFAULT_MAX_BYTES = 8 * 1024 * 1024
DEFAULT_BACKUPS = 3

ENV_PATH = "REPRO_EVENTS"
ENV_LEVEL = "REPRO_EVENTS_LEVEL"
ENV_SAMPLE = "REPRO_EVENTS_SAMPLE"
ENV_MAX_BYTES = "REPRO_EVENTS_MAX_BYTES"


def _parse_sample_spec(spec: str) -> dict[str, int]:
    """``"rule_fired=10,shard_dispatched=0"`` -> ``{type: keep_1_in_n}``."""
    sample: dict[str, int] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad sample spec {part!r} (want type=N)")
        event_type, _, rate = part.partition("=")
        sample[event_type.strip()] = int(rate)
    return sample


class EventLog:
    """One JSONL sink: level floor, per-type sampling, size rotation.

    ``path`` may be a filesystem path or ``"-"`` for stderr (no
    rotation).  ``sample`` maps event types to keep-1-in-N rates; types
    not listed are always kept, rate ``0`` drops the type.  All methods
    are thread-safe; dropped and written events are counted in the
    ``repro.events`` metrics family so the sink's own behaviour is
    observable.
    """

    def __init__(self, path, *, level: str = "info",
                 max_bytes: int = DEFAULT_MAX_BYTES,
                 backups: int = DEFAULT_BACKUPS,
                 sample: dict[str, int] | None = None) -> None:
        if level not in EVENT_LEVELS:
            raise ValueError(f"unknown event level {level!r} "
                             f"(one of {sorted(EVENT_LEVELS)})")
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        if backups < 0:
            raise ValueError("backups must be >= 0")
        self.path = str(path)
        self.level = level
        self.min_level = EVENT_LEVELS[level]
        self.max_bytes = max_bytes
        self.backups = backups
        self.sample = dict(sample or {})
        self._seen: dict[str, int] = {}
        self._lock = threading.Lock()
        self._owner_pid = os.getpid()
        self._metrics = metrics_registry().group(
            "repro.events", ("written", "sampled_out", "level_filtered",
                             "rotations"))
        # The emit hot path touches these counters once per call; bind
        # them here so it skips the group's dict lookup each time.
        self._written = self._metrics["written"]
        self._sampled_out = self._metrics["sampled_out"]
        self._level_filtered = self._metrics["level_filtered"]
        if self.path == "-":
            self._stream = sys.stderr
            self._bytes = 0
        else:
            self._stream = open(self.path, "a", encoding="utf-8")
            try:
                self._bytes = os.path.getsize(self.path)
            except OSError:
                self._bytes = 0

    # -- the write path --------------------------------------------------

    def emit(self, event_type: str, level: str = "info", **fields) -> bool:
        """Write one event line; returns whether it was kept.

        Unknown levels raise (an event with a typo'd level is a bug, not
        data); level-filtered and sampled-out events are counted but not
        written.
        """
        numeric = EVENT_LEVELS[level]
        if numeric < self.min_level:
            self._level_filtered.inc()
            return False
        with self._lock:
            if not self._keep(event_type):
                self._sampled_out.inc()
                return False
            record = {"ts": round(time.time(), 6), "pid": os.getpid(),
                      "level": level, "type": event_type}
            record.update(fields)
            line = json.dumps(record, default=str,
                              separators=(",", ":")) + "\n"
            try:
                self._stream.write(line)
                self._stream.flush()
            except ValueError:  # closed stream: drop silently
                return False
            # Event lines are ASCII (json.dumps default), so character
            # count == byte count; tracking size here keeps the hot path
            # free of a per-emit stat() call.
            self._bytes += len(line)
            self._written.inc()
            self._maybe_rotate()
        return True

    def _keep(self, event_type: str) -> bool:
        rate = self.sample.get(event_type)
        if rate is None:
            return True
        if rate <= 0:
            return False
        seen = self._seen.get(event_type, 0)
        self._seen[event_type] = seen + 1
        return seen % rate == 0

    # -- rotation --------------------------------------------------------

    def _maybe_rotate(self) -> None:
        if self._bytes <= self.max_bytes:
            return
        if self._stream is sys.stderr or os.getpid() != self._owner_pid:
            return  # stderr never rotates; forked workers never rotate
        self._stream.close()
        if self.backups == 0:
            try:
                os.remove(self.path)
            except OSError:
                pass
        else:
            for index in range(self.backups, 1, -1):
                older = f"{self.path}.{index - 1}"
                if os.path.exists(older):
                    os.replace(older, f"{self.path}.{index}")
            os.replace(self.path, f"{self.path}.1")
        self._stream = open(self.path, "a", encoding="utf-8")
        self._bytes = 0
        self._metrics["rotations"].inc()

    def close(self) -> None:
        """Flush and close the sink (stderr is left open)."""
        with self._lock:
            if self._stream is not sys.stderr:
                self._stream.close()


# ---------------------------------------------------------------------------
# The process-global sink
# ---------------------------------------------------------------------------

_LOG: EventLog | None = None
_ENV_CHECKED = False


def configure_events(path, **kwargs) -> EventLog:
    """Install (replacing) the process-global event sink."""
    global _LOG, _ENV_CHECKED
    _ENV_CHECKED = True
    if _LOG is not None:
        _LOG.close()
    _LOG = EventLog(path, **kwargs)
    return _LOG


def configure_events_from_env(environ=None) -> EventLog | None:
    """Configure the sink from ``REPRO_EVENTS*`` variables, if set."""
    global _ENV_CHECKED
    env = os.environ if environ is None else environ
    _ENV_CHECKED = True
    path = env.get(ENV_PATH)
    if not path:
        return None
    kwargs: dict = {"level": env.get(ENV_LEVEL, "info")}
    if env.get(ENV_SAMPLE):
        kwargs["sample"] = _parse_sample_spec(env[ENV_SAMPLE])
    if env.get(ENV_MAX_BYTES):
        kwargs["max_bytes"] = int(env[ENV_MAX_BYTES])
    return configure_events(path, **kwargs)


def disable_events() -> None:
    """Close and remove the process-global sink."""
    global _LOG, _ENV_CHECKED
    _ENV_CHECKED = True
    if _LOG is not None:
        _LOG.close()
        _LOG = None


def event_log() -> EventLog | None:
    """The process-global sink, or ``None`` when events are off."""
    return _LOG


def events_enabled() -> bool:
    """Is a sink configured (explicitly or via the environment)?"""
    if not _ENV_CHECKED:
        configure_events_from_env()
    return _LOG is not None


def emit_event(event_type: str, level: str = "info", **fields) -> bool:
    """Emit one event to the global sink (a fast no-op when disabled).

    The first call checks ``REPRO_EVENTS`` so library users get env-var
    activation without importing anything extra; after that the disabled
    path is one global load and a ``None`` check.
    """
    if _LOG is None:
        if _ENV_CHECKED:
            return False
        configure_events_from_env()
        if _LOG is None:
            return False
    return _LOG.emit(event_type, level, **fields)
