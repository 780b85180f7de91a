"""WorkerPool behaviour: ordering, accounting, tracing, shutdown.

Every wait is an event handshake with a timeout, never a sleep.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.obs.trace import get_tracer, span
from repro.parallel import WorkerPool, chunk_evenly, shard_count


class TestMapOrdered:
    def test_results_in_submission_order(self):
        """Completion order is forced to be the reverse of submission
        order (task i waits for task i+1 to finish); the results still
        come back in submission order."""
        count = 4
        done = [threading.Event() for _ in range(count)]
        finished: list[int] = []

        def chained(i):
            if i + 1 < count:
                assert done[i + 1].wait(timeout=5)
            finished.append(i)
            done[i].set()
            return i

        with WorkerPool(count) as pool:  # every task holds a worker
            out = pool.map_ordered(chained, range(count))
        assert finished == [3, 2, 1, 0]
        assert out == [0, 1, 2, 3]

    def test_fewer_workers_than_tasks(self):
        """Task 0 holds one of two workers until task 1 has finished,
        so completion order differs from submission order."""
        one_done = threading.Event()

        def held(i):
            if i == 0:
                assert one_done.wait(timeout=5)
            elif i == 1:
                one_done.set()
            return i

        with WorkerPool(2) as pool:
            assert pool.map_ordered(held, range(4)) == [0, 1, 2, 3]

    def test_exception_propagates(self):
        def boom(x):
            raise ValueError(x)

        with WorkerPool(2) as pool:
            with pytest.raises(ValueError):
                pool.map_ordered(boom, [1])
            assert pool.map_ordered(lambda x: x + 1, [1, 2]) == [2, 3]

    def test_empty_input(self):
        with WorkerPool(2, metrics_prefix="test.pool.empty") as pool:
            assert pool.map_ordered(lambda x: x, []) == []
            assert pool.stats()["test.pool.empty.submitted"] == 0


class TestAccounting:
    def test_counters_and_utilization(self):
        barrier = threading.Barrier(3)
        with WorkerPool(3, metrics_prefix="test.pool.a") as pool:
            pool.map_ordered(lambda _: barrier.wait(timeout=5), range(3))
            stats = pool.stats()
        assert stats["test.pool.a.submitted"] == 3
        assert stats["test.pool.a.completed"] == 3
        assert stats["test.pool.a.errors"] == 0
        # The barrier forces all three tasks to overlap.
        assert pool.peak_active == 3
        assert pool.utilization == 1.0
        assert stats["test.pool.a.task_seconds"]["count"] == 3

    def test_errors_counted(self):
        with WorkerPool(2, metrics_prefix="test.pool.b") as pool:
            future = pool.submit(lambda: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                future.result()
            stats = pool.stats()
        assert stats["test.pool.b.errors"] == 1
        assert stats["test.pool.b.completed"] == 0

    def test_mixed_outcomes_counted(self):
        def boom(x):
            raise ValueError(x)

        with WorkerPool(2, metrics_prefix="test.pool.d") as pool:
            assert pool.map_ordered(lambda x: x * x, [1, 2, 3]) == [1, 4, 9]
            with pytest.raises(ValueError):
                pool.submit(boom, 0).result()
            stats = pool.stats()
        assert stats["test.pool.d.submitted"] == 4
        assert stats["test.pool.d.completed"] == 3
        assert stats["test.pool.d.errors"] == 1
        assert stats["test.pool.d.task_seconds"]["count"] == 4
        assert pool.active == 0

    def test_active_returns_to_zero(self):
        with WorkerPool(2) as pool:
            pool.map_ordered(lambda x: x, range(8))
            assert pool.active == 0


class TestShutdown:
    def test_submit_after_shutdown_rejected(self):
        pool = WorkerPool(1)
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.submit(lambda: 1)

    def test_shutdown_is_idempotent(self):
        pool = WorkerPool(1)
        pool.shutdown()
        pool.shutdown(cancel_pending=True)
        with pytest.raises(RuntimeError):
            pool.submit(lambda: 1)

    def test_shutdown_under_load_cancels_queue(self):
        """Queued-but-unstarted work is cancelled, counted, and the
        shutdown returns promptly instead of draining the backlog."""
        prefix = "test.pool.c"
        started, release = threading.Event(), threading.Event()

        def blocker_task():
            started.set()
            assert release.wait(timeout=30)
            return "done"

        pool = WorkerPool(1, metrics_prefix=prefix)
        try:
            # One worker: the blocker occupies it, the backlog queues.
            blocker = pool.submit(blocker_task)
            assert started.wait(timeout=30)
            backlog = [pool.submit(lambda: "ran") for _ in range(6)]
            settled = threading.Semaphore(0)
            for future in backlog:
                # Runs after the pool's own accounting, so a release
                # means that future's books are closed too.
                future.add_done_callback(lambda _f: settled.release())
            pool.shutdown(wait=False, cancel_pending=True)
            release.set()
            assert blocker.result(timeout=30) == "done"
            for _ in backlog:
                assert settled.acquire(timeout=30), "a future never settled"
            # The one worker was held throughout, so nothing queued ran.
            assert all(future.cancelled() for future in backlog)
            assert pool.stats()[f"{prefix}.cancelled"] == len(backlog)
            with pytest.raises(RuntimeError):
                pool.submit(lambda: 1)
        finally:
            release.set()
            pool.shutdown(wait=False, cancel_pending=True)

    def test_shutdown_waits_for_running_task(self):
        started, release = threading.Event(), threading.Event()
        results = []

        def held():
            started.set()
            assert release.wait(timeout=5)
            results.append("done")

        pool = WorkerPool(1)
        pool.submit(held)
        assert started.wait(timeout=5)
        assert results == []  # running, held on the event
        releaser = threading.Thread(target=release.set)
        releaser.start()
        pool.shutdown(wait=True)
        releaser.join(timeout=5)
        assert not releaser.is_alive()
        # shutdown(wait=True) joined the worker: the held task finished.
        assert results == ["done"]


class TestTracing:
    def test_task_spans_nest_under_submitting_span(self):
        """Tasks attach to the submitter's open span instead of becoming
        orphaned trace roots."""
        def traced(n):
            with span(f"task.{n}"):
                return n * n

        tracer = get_tracer()
        with WorkerPool(2) as pool:
            with tracer.capture() as cap:
                with tracer.span("parent.batch"):
                    futures = [pool.submit(traced, n) for n in range(3)]
                    assert sorted(f.result() for f in futures) == [0, 1, 4]
        parent = cap.find("parent.batch")
        assert parent is not None
        assert sorted(c.name for c in parent.children) == \
            ["task.0", "task.1", "task.2"]
        assert not any(root.name.startswith("task.") for root in cap.spans)


class TestDefaults:
    def test_invalid_widths_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool(0)

    def test_import_loads_no_process_machinery(self):
        """Workers are threads: a fresh ``import repro`` loads neither
        ``concurrent.futures.process`` nor ``multiprocessing``."""
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        probe = ("import sys, repro; print(sorted(name for name in "
                 "('concurrent.futures.process', 'multiprocessing') "
                 "if name in sys.modules))")
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "[]"


class TestSharding:
    def test_chunks_concatenate_to_input(self):
        for n in range(0, 30):
            items = list(range(n))
            for shards in range(1, 9):
                chunks = chunk_evenly(items, shards)
                assert [x for chunk in chunks for x in chunk] == items
                assert all(chunks), (n, shards)
                if chunks:
                    sizes = sorted(len(c) for c in chunks)
                    assert sizes[-1] - sizes[0] <= 1

    def test_shard_count_bounds(self):
        assert shard_count(0, 4) == 0
        assert shard_count(10, 4) == 4
        assert shard_count(3, 8) == 3
        assert shard_count(1, 4) == 1
        with pytest.raises(ValueError):
            chunk_evenly([1], 0)
