"""WorkerPool contract per worker kind: ordering, errors, shutdown.

The cases are parametrized by the kind of worker behind the pool.
Workers are threads, so ``thread`` is the one kind.  Every wait is an
event handshake with a timeout, never a sleep.
"""

from __future__ import annotations

import threading

import pytest

from repro.parallel import WorkerPool


def square(x):
    return x * x


def boom(x):
    raise ValueError(x)


@pytest.fixture(params=["thread"])
def make_pool(request):
    return WorkerPool


class TestKindParity:
    """The WorkerPool contract callers rely on, per worker kind."""

    def test_map_ordered_returns_submission_order(self, make_pool):
        """Fewer workers than tasks: task 0 waits until task 1 has
        finished, so completion order differs from submission order."""
        one_done = threading.Event()

        def held(i):
            if i == 0:
                assert one_done.wait(timeout=5)
            elif i == 1:
                one_done.set()
            return i

        with make_pool(2) as pool:
            out = pool.map_ordered(held, range(4))
        assert out == [0, 1, 2, 3]

    def test_map_ordered_empty(self, make_pool):
        with make_pool(2, metrics_prefix="test.ppool.empty") as pool:
            assert pool.map_ordered(square, []) == []
            assert pool.stats()["test.ppool.empty.submitted"] == 0

    def test_exception_propagates_and_pool_survives(self, make_pool):
        with make_pool(2) as pool:
            with pytest.raises(ValueError):
                pool.map_ordered(boom, [1])
            # An ordinary exception must not poison the pool.
            assert pool.map_ordered(square, [2, 3]) == [4, 9]

    def test_submit_after_shutdown_rejected(self, make_pool):
        pool = make_pool(1)
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.submit(square, 2)

    def test_shutdown_is_idempotent(self, make_pool):
        pool = make_pool(1)
        pool.shutdown()
        pool.shutdown(cancel_pending=True)
        with pytest.raises(RuntimeError):
            pool.submit(square, 2)


class TestProcessShutdownUnderLoad:
    def test_cancel_pending_under_load(self):
        """Queued-but-unstarted shard tasks are cancelled and counted;
        shutdown returns instead of draining the backlog."""
        prefix = "test.ppool.load"
        started, release = threading.Event(), threading.Event()

        def blocker_task():
            started.set()
            assert release.wait(timeout=30)
            return "done"

        pool = WorkerPool(1, metrics_prefix=prefix)
        try:
            blocker = pool.submit(blocker_task)
            assert started.wait(timeout=30)
            backlog = [pool.submit(square, n) for n in range(6)]
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
                pool.submit(square, 1)
        finally:
            release.set()
            pool.shutdown(wait=False, cancel_pending=True)
