"""Hierarchical wall-time spans with a process-global, opt-in tracer.

The tracing layer is deliberately tiny and dependency-free: a
:class:`Span` is a name, a wall-clock duration, optional attributes, and
children; a :class:`Tracer` turns ``with span("chorel.translate"):``
blocks into a span tree.  The process-global tracer is **disabled by
default**, and a disabled tracer's :func:`span` returns one shared no-op
context manager -- hot paths pay a single boolean check and allocate
nothing (a tested invariant).

Typical use::

    from repro.obs import enable_tracing, get_tracer, span

    enable_tracing()
    with span("my.phase"):
        ...
    print(get_tracer().export_json())

:meth:`Tracer.capture` collects the spans of one block without leaving
tracing enabled.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from time import perf_counter

__all__ = ["Span", "Tracer", "TraceCapture", "get_tracer", "enable_tracing",
           "disable_tracing", "span"]


class Span:
    """One timed phase: name, duration, attributes, and child spans."""

    __slots__ = ("name", "attrs", "start", "end", "children")

    def __init__(self, name: str, attrs: dict | None = None) -> None:
        self.name = name
        self.attrs = attrs or {}
        self.start = 0.0
        self.end = 0.0
        self.children: list[Span] = []

    @property
    def duration(self) -> float:
        """Wall-clock seconds spent in the span (0.0 while still open)."""
        return max(self.end - self.start, 0.0)

    @property
    def self_time(self) -> float:
        """Duration minus the time spent in child spans."""
        return max(self.duration - sum(c.duration for c in self.children), 0.0)

    def walk(self):
        """Yield ``(depth, span)`` pairs over the subtree, preorder."""
        stack = [(0, self)]
        while stack:
            depth, node = stack.pop()
            yield depth, node
            for child in reversed(node.children):
                stack.append((depth + 1, child))

    def find(self, name: str) -> "Span | None":
        """The first descendant (or self) with the given name."""
        for _, node in self.walk():
            if node.name == name:
                return node
        return None

    def to_dict(self) -> dict:
        """A JSON-serializable form (durations in seconds)."""
        payload: dict = {"name": self.name, "duration": self.duration}
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        if self.children:
            payload["children"] = [c.to_dict() for c in self.children]
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, {self.duration * 1000:.3f}ms, "
                f"{len(self.children)} child(ren))")


class _NoopSpan:
    """The shared do-nothing context manager for disabled tracers."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NOOP = _NoopSpan()


class _ActiveSpan:
    """Context manager recording one span on a live tracer."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self.span = Span(name, attrs or None)

    def __enter__(self) -> Span:
        self._tracer._stack.append(self.span)
        self.span.start = perf_counter()
        return self.span

    def __exit__(self, *exc) -> bool:
        self.span.end = perf_counter()
        tracer = self._tracer
        stack = tracer._stack
        if stack and stack[-1] is self.span:
            stack.pop()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.children.append(self.span)
        else:
            tracer.roots.append(self.span)
        return False


class TraceCapture:
    """The spans collected by one :meth:`Tracer.capture` block."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    def find(self, name: str) -> Span | None:
        """The first span with the given name across captured roots."""
        for root in self.spans:
            found = root.find(name)
            if found is not None:
                return found
        return None


class Tracer:
    """A span collector.  ``enabled`` gates all recording.

    The open-span stack is **thread-local**: spans opened on a worker
    thread nest among themselves and land in ``roots`` as their own
    trees, never splicing into another thread's hierarchy.  ``roots`` is
    appended to under the GIL's list-append atomicity, so concurrent
    workers (the parallel query executor, the QSS poll pool) can trace
    safely; ``clear`` drops the calling thread's open spans only.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.roots: list[Span] = []
        self._local = threading.local()

    @property
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs):
        """A context manager timing ``name`` (no-op when disabled)."""
        if not self.enabled:
            return _NOOP
        return _ActiveSpan(self, name, attrs)

    def current_span(self) -> Span | None:
        """The innermost open span on the *calling* thread, or ``None``.

        This is the handle worker pools capture at submit time so spans
        opened on a worker thread can re-parent under the submitting
        span instead of orphaning as their own roots.
        """
        stack = self._stack
        return stack[-1] if stack else None

    @contextmanager
    def attach_to(self, parent: Span | None):
        """Nest this thread's spans under ``parent`` for the block.

        Seeds the calling thread's (otherwise empty) span stack with
        ``parent``, so spans opened inside the block append to
        ``parent.children`` rather than landing in ``roots``.  Multiple
        worker threads may attach to one parent concurrently -- child
        appends are single list appends, atomic under the GIL.  A
        ``None`` parent (or a disabled tracer) makes this a no-op.
        """
        if not self.enabled or parent is None:
            yield
            return
        stack = self._stack
        stack.append(parent)
        try:
            yield
        finally:
            if stack and stack[-1] is parent:
                stack.pop()

    def clear(self) -> None:
        """Drop every recorded span (open spans are abandoned too)."""
        self.roots.clear()
        self._stack.clear()

    @contextmanager
    def capture(self):
        """Enable tracing for a block and collect the spans it produces.

        Yields a :class:`TraceCapture` whose ``spans`` are filled in when
        the block exits.  The tracer's prior ``enabled`` state is
        restored; if tracing was off before, the captured spans are also
        removed from ``roots`` so a one-off capture leaves no residue.
        """
        prior = self.enabled
        mark = len(self.roots)
        self.enabled = True
        cap = TraceCapture()
        try:
            yield cap
        finally:
            self.enabled = prior
            cap.spans = self.roots[mark:]
            if not prior:
                del self.roots[mark:]

    def export(self) -> list[dict]:
        """All recorded root spans as JSON-serializable dicts."""
        return [root.to_dict() for root in self.roots]

    def export_json(self, indent: int | None = 2) -> str:
        """The recorded span forest as a JSON document."""
        return json.dumps(self.export(), indent=indent)


_GLOBAL = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-global tracer (disabled until :func:`enable_tracing`)."""
    return _GLOBAL


def enable_tracing() -> Tracer:
    """Turn the global tracer on and return it."""
    _GLOBAL.enabled = True
    return _GLOBAL


def disable_tracing() -> Tracer:
    """Turn the global tracer off (recorded spans are kept) and return it."""
    _GLOBAL.enabled = False
    return _GLOBAL


def span(name: str, **attrs):
    """Time a block against the global tracer.

    The fast path is one attribute load and a boolean check; when the
    tracer is disabled the shared no-op context manager is returned, so
    instrumented hot paths allocate nothing.
    """
    if not _GLOBAL.enabled:
        return _NOOP
    return _ActiveSpan(_GLOBAL, name, attrs)
