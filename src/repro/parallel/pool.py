"""A bounded worker pool with first-class observability.

:class:`WorkerPool` wraps :class:`concurrent.futures.ThreadPoolExecutor`
with the accounting the rest of the system wants:

* **utilization counters** -- ``<prefix>.submitted`` / ``completed`` /
  ``errors`` / ``cancelled`` in the global metrics registry, plus
  ``task_seconds`` (execution time) and ``wait_seconds`` (queue time)
  histograms and an ``active`` / ``peak_active`` gauge pair, so a
  metrics dump shows how busy the pool ran;
* **deterministic fan-out** -- :meth:`map_ordered` returns results in
  submission order regardless of completion order, the primitive the
  parallel query executor's merge step is built on;
* **bounded shutdown** -- :meth:`shutdown` drains or cancels pending
  work; a shut-down pool rejects new submissions instead of hanging.

Threads share the large in-memory databases for free, and the
thread-safety contract of the underlying modules (see
``docs/parallel.md``) makes that correct.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from time import perf_counter
from typing import Callable, Iterable, TypeVar

from ..obs.metrics import registry as metrics_registry
from ..obs.trace import get_tracer

__all__ = ["WorkerPool", "default_worker_count"]

T = TypeVar("T")
R = TypeVar("R")

_MAX_DEFAULT_WORKERS = 8


def default_worker_count() -> int:
    """The default pool width: CPU count, clamped to [1, 8].

    Pure-Python evaluation holds the GIL most of the time, so very wide
    pools only add scheduling overhead; 8 is plenty to overlap the
    lock-released stretches (bisects, copies) and any wrapper I/O.
    """
    return max(1, min(_MAX_DEFAULT_WORKERS, os.cpu_count() or 1))


class WorkerPool:
    """A bounded thread pool with registry-backed utilization metrics.

    ``metrics_prefix`` names the counter family -- the query layer uses
    the default ``repro.pool``; the QSS server's poll pool reports under
    ``qss.pool`` so the two workloads stay distinguishable in one dump.
    """

    def __init__(self, max_workers: int | None = None, *,
                 metrics_prefix: str = "repro.pool",
                 thread_name_prefix: str = "repro-worker") -> None:
        if max_workers is None:
            max_workers = default_worker_count()
        if max_workers < 1:
            raise ValueError("WorkerPool needs max_workers >= 1")
        self.max_workers = max_workers
        self.metrics_prefix = metrics_prefix
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix=thread_name_prefix)
        self._metrics = metrics_registry().group(
            metrics_prefix, ("submitted", "completed", "errors", "cancelled"),
            histograms=("task_seconds", "wait_seconds"))
        self._active_gauge = metrics_registry().gauge(f"{metrics_prefix}.active")
        self._peak_gauge = metrics_registry().gauge(
            f"{metrics_prefix}.peak_active")
        metrics_registry().gauge(f"{metrics_prefix}.max_workers").set(
            max_workers)
        self._active = 0
        self._peak_active = 0
        self._lock = threading.Lock()
        self._shut_down = False

    # -- submission ------------------------------------------------------

    def submit(self, fn: Callable[..., R], *args, **kwargs) -> "Future[R]":
        """Schedule ``fn(*args, **kwargs)``; returns its future.

        Raises :class:`RuntimeError` after :meth:`shutdown` -- a closed
        pool must fail loudly, not queue work that will never run.
        """
        if self._shut_down:
            raise RuntimeError("cannot submit to a shut-down WorkerPool")
        submitted_at = perf_counter()
        # Capture the submitting thread's open span so spans the task
        # opens on a worker thread nest under it instead of orphaning as
        # their own trace roots (the tracer's span stack is thread-local).
        tracer = get_tracer()
        parent_span = tracer.current_span() if tracer.enabled else None

        def wrapped():
            self._metrics.histogram("wait_seconds").observe(
                perf_counter() - submitted_at)
            self._enter()
            started = perf_counter()
            try:
                with tracer.attach_to(parent_span):
                    result = fn(*args, **kwargs)
            except BaseException:
                self._metrics["errors"].inc()
                raise
            finally:
                self._metrics.histogram("task_seconds").observe(
                    perf_counter() - started)
                self._leave()
            self._metrics["completed"].inc()
            return result

        self._metrics["submitted"].inc()
        try:
            return self._executor.submit(wrapped)
        except RuntimeError:
            self._metrics["cancelled"].inc()
            raise

    def map_ordered(self, fn: Callable[[T], R],
                    items: Iterable[T]) -> list[R]:
        """Run ``fn`` over ``items`` concurrently; results in input order.

        The deterministic-merge primitive: completion order does not leak
        into the result list, so callers that partition work into ordered
        shards recover exactly the serial concatenation.
        """
        futures = [self.submit(fn, item) for item in items]
        return [future.result() for future in futures]

    # -- accounting ------------------------------------------------------

    def _enter(self) -> None:
        with self._lock:
            self._active += 1
            if self._active > self._peak_active:
                self._peak_active = self._active
                self._peak_gauge.set(self._peak_active)
            self._active_gauge.set(self._active)

    def _leave(self) -> None:
        with self._lock:
            self._active -= 1
            self._active_gauge.set(self._active)

    @property
    def active(self) -> int:
        """Tasks executing right now."""
        with self._lock:
            return self._active

    @property
    def peak_active(self) -> int:
        """The most tasks ever executing at once (utilization high-water)."""
        with self._lock:
            return self._peak_active

    @property
    def utilization(self) -> float:
        """``peak_active / max_workers`` -- how much of the pool was used."""
        return self.peak_active / self.max_workers

    def stats(self) -> dict:
        """The pool's counter family as plain values (for artifacts)."""
        snapshot = self._metrics.snapshot()
        snapshot[f"{self.metrics_prefix}.max_workers"] = self.max_workers
        snapshot[f"{self.metrics_prefix}.peak_active"] = self.peak_active
        return snapshot

    # -- lifecycle -------------------------------------------------------

    def shutdown(self, wait: bool = True,
                 cancel_pending: bool = False) -> None:
        """Stop the pool.

        ``wait=True`` blocks until running (and, unless
        ``cancel_pending``, queued) tasks finish; ``cancel_pending=True``
        cancels tasks still in the queue and counts them under
        ``<prefix>.cancelled``.  Safe to call repeatedly.
        """
        self._shut_down = True
        if cancel_pending:
            # Count the futures the executor will cancel.
            self._metrics["cancelled"].inc(self._executor._work_queue.qsize())
        self._executor.shutdown(wait=wait, cancel_futures=cancel_pending)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown(wait=True)

