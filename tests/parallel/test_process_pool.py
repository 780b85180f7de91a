"""WorkerPool process mode: ordering, crashes, shutdown, thread parity.

Process pools ship picklable callables to forked workers, so the helpers
here are module-level functions.  The parity class runs the same
behavioural contract against both pool kinds -- the guarantee callers
rely on when flipping ``kind`` (or ``ParallelExecutor(processes=True)``)
for CPU-bound shards.
"""

from __future__ import annotations

import json
import os
import threading
import time
from concurrent.futures import BrokenExecutor

import pytest

from repro.obs.events import configure_events, disable_events
from repro.obs.metrics import registry as metrics_registry
from repro.parallel import WorkerPool, worker_evaluator
from repro.parallel.pool import _install_worker_evaluator


def square(x):
    return x * x


def sleepy_first(pair):
    """Sleep ``pair[1]`` seconds, return ``pair[0]``."""
    time.sleep(pair[1])
    return pair[0]


def boom(x):
    raise ValueError(x)


def hard_crash(_):
    os._exit(13)  # simulates a segfaulting / OOM-killed worker


def installed_evaluator_marker(_):
    return worker_evaluator()


@pytest.fixture(params=["thread", "process"])
def kind(request):
    return request.param


class TestKindParity:
    """The WorkerPool contract holds for both executor kinds."""

    def test_map_ordered_returns_submission_order(self, kind):
        with WorkerPool(2, kind=kind) as pool:
            # Reverse sleep times so later submissions finish first.
            out = pool.map_ordered(sleepy_first,
                                   [(i, 0.05 * (3 - i)) for i in range(4)])
        assert out == [0, 1, 2, 3]

    def test_map_ordered_empty(self, kind):
        with WorkerPool(2, kind=kind) as pool:
            assert pool.map_ordered(square, []) == []

    def test_exception_propagates_and_pool_survives(self, kind):
        with WorkerPool(2, kind=kind) as pool:
            with pytest.raises(ValueError):
                pool.map_ordered(boom, [1])
            # An ordinary exception must not poison the pool.
            assert pool.map_ordered(square, [2, 3]) == [4, 9]

    def test_submit_after_shutdown_rejected(self, kind):
        pool = WorkerPool(1, kind=kind)
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.submit(square, 2)

    def test_shutdown_is_idempotent(self, kind):
        pool = WorkerPool(1, kind=kind)
        pool.shutdown()
        pool.shutdown(cancel_pending=True)

    def test_accounting(self, kind):
        prefix = f"test.ppool.{kind}"
        with WorkerPool(2, kind=kind, metrics_prefix=prefix) as pool:
            assert pool.map_ordered(square, [1, 2, 3]) == [1, 4, 9]
            with pytest.raises(ValueError):
                pool.submit(boom, 0).result()
            stats = pool.stats()
        assert stats[f"{prefix}.submitted"] == 4
        assert stats[f"{prefix}.completed"] == 3
        assert stats[f"{prefix}.errors"] == 1
        assert stats[f"{prefix}.task_seconds"]["count"] == 4
        assert pool.active == 0

    def test_initializer_runs_in_workers(self, kind):
        sentinel = {"tag": "shard-evaluator"}
        with WorkerPool(2, kind=kind,
                        initializer=_install_worker_evaluator,
                        initargs=(sentinel,)) as pool:
            out = pool.map_ordered(installed_evaluator_marker, range(3))
        assert out == [sentinel] * 3


class TestProcessCrash:
    """A dying worker breaks loudly, never hangs or fabricates results."""

    def test_crash_surfaces_broken_executor(self):
        prefix = "test.ppool.crash"
        pool = WorkerPool(1, kind="process", metrics_prefix=prefix)
        try:
            future = pool.submit(hard_crash, None)
            with pytest.raises(BrokenExecutor):
                future.result(timeout=30)
            # The executor is broken for good: new work is refused.
            with pytest.raises((BrokenExecutor, RuntimeError)):
                pool.submit(square, 1).result(timeout=30)
            assert pool.stats()[f"{prefix}.errors"] >= 1
        finally:
            pool.shutdown(wait=False, cancel_pending=True)


class TestCrashTelemetry:
    """A dead worker ships no telemetry -- and corrupts none either."""

    def test_crash_emits_worker_crash_event(self, tmp_path):
        events_path = tmp_path / "events.jsonl"
        configure_events(events_path, level="error")
        pool = WorkerPool(1, kind="process",
                          metrics_prefix="test.ppool.crashlog")
        try:
            with pytest.raises(BrokenExecutor):
                pool.submit(hard_crash, None).result(timeout=30)
        finally:
            pool.shutdown(wait=False, cancel_pending=True)
            disable_events()
        crashes = [json.loads(line) for line
                   in events_path.read_text(encoding="utf-8").splitlines()
                   if json.loads(line)["type"] == "worker_crash"]
        assert crashes, "no worker_crash event reached the sink"
        assert crashes[0]["level"] == "error"
        assert crashes[0]["pool"] == "test.ppool.crashlog"
        assert crashes[0]["error"] == "BrokenProcessPool"

    def test_crash_leaves_parent_registry_uncorrupted(self):
        """The crashed shard's telemetry payload never arrives; the
        parent's planner/evaluator counters must not move at all."""
        registry = metrics_registry()
        pool = WorkerPool(1, kind="process",
                          metrics_prefix="test.ppool.crashreg")
        baseline = registry.typed_snapshot()
        try:
            with pytest.raises(BrokenExecutor):
                pool.submit(hard_crash, None).result(timeout=30)
        finally:
            pool.shutdown(wait=False, cancel_pending=True)
        delta = registry.delta_since(baseline)
        moved = {name for name in delta["counters"]
                 if not name.startswith(("test.ppool.crashreg.",
                                         "repro.events."))}
        assert moved == set(), \
            f"crash leaked foreign counter increments: {sorted(moved)}"
        assert delta["counters"]["test.ppool.crashreg.errors"] >= 1
        foreign_histograms = {name for name in delta["histograms"]
                              if not name.startswith("test.ppool.crashreg.")}
        assert foreign_histograms == set()


class TestProcessShutdownUnderLoad:
    def test_cancel_pending_under_load(self):
        """Queued-but-unstarted shard tasks are cancelled and counted;
        shutdown returns instead of draining the backlog."""
        prefix = "test.ppool.load"
        pool = WorkerPool(1, kind="process", metrics_prefix=prefix)
        try:
            blocker = pool.submit(sleepy_first, ("done", 1.5))
            backlog = [pool.submit(square, n) for n in range(6)]
            settled = threading.Semaphore(0)
            for future in backlog:
                # Runs after the pool's own accounting callback, so a
                # release means that future's books are closed too.
                # (futures.wait() cannot serve here: the executor leaves
                # cancelled futures un-notified, which it never counts
                # as done.)
                future.add_done_callback(lambda _f: settled.release())
            pool.shutdown(wait=False, cancel_pending=True)
            assert blocker.result(timeout=30) == "done"
            for _ in backlog:
                assert settled.acquire(timeout=30), "a future never settled"
            # The running task finishes; the backlog never runs, except
            # what the executor had already moved into its call queue
            # (capacity max_workers + 1 = 2) before the cancellation.
            cancelled = sum(1 for f in backlog if f.cancelled())
            assert cancelled >= len(backlog) - 2
            assert pool.stats()[f"{prefix}.cancelled"] >= cancelled
            with pytest.raises(RuntimeError):
                pool.submit(square, 1)
        finally:
            pool.shutdown(wait=False, cancel_pending=True)


class TestWorkerEvaluator:
    def test_unset_worker_evaluator_raises(self):
        import repro.parallel.pool as pool_module
        saved = pool_module._WORKER_EVALUATOR
        pool_module._WORKER_EVALUATOR = None
        try:
            with pytest.raises(RuntimeError):
                worker_evaluator()
        finally:
            pool_module._WORKER_EVALUATOR = saved
