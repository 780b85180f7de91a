"""Sharded query execution over the Lorel/Chorel engines.

:meth:`ParallelExecutor.run` shards one query, expressed in the plan
algebra: the query is compiled once through the engine's normal
pipeline (:meth:`engine.compile`) and handed to :meth:`engine.execute`
with the executor's pool.  ``run_compiled`` then inserts an ``Exchange``
operator (:func:`repro.plan.physical.insert_exchange`) at the first
from-item.  The Exchange binds its source serially, cuts the
environments into contiguous shards (:mod:`repro.parallel.sharding`),
runs the remaining ``PathExpand``/``Predicate`` stages per shard on
worker threads, and concatenates in shard order -- replaying the serial
enumeration exactly, so results are row- and order-identical to
``engine.run`` for any shard count (the property test in
``tests/parallel`` proves it on randomized histories).

Index pushdown is preserved: a query index selection serves
(``compiled.index_plan``) is answered by the index scan on the driving
thread (already O(log n + answers); slicing it thinner would only add
overhead), and the engine counts it as it counts a serial run.  The
snapshot cache and the range kernel never run on the executor's workers.

The executor never mutates the underlying database; conversely, callers
must not fold new history in *during* a parallel run
(``docs/parallel.md``): raw OEM/DOEM graph reads are unsynchronized
snapshots-in-time.
"""

from __future__ import annotations

from ..lorel.result import QueryResult
from ..obs.metrics import registry as metrics_registry
from ..obs.trace import span
from .pool import WorkerPool

__all__ = ["ParallelExecutor"]

_metrics_group = None


def _parallel_metrics():
    # The registry holds groups weakly; keep one strong module-level
    # reference so repro.parallel counters accumulate across executors.
    global _metrics_group
    if _metrics_group is None:
        _metrics_group = metrics_registry().group(
            "repro.parallel",
            ("queries", "sharded_queries", "serial_queries", "shards",
             "indexed_queries"))
    return _metrics_group


class ParallelExecutor:
    """Parallel execution wrapper around one Lorel/Chorel engine.

    The executor owns a :class:`~repro.parallel.pool.WorkerPool` of
    ``max_workers`` threads (``None``: :func:`~repro.parallel.pool.
    default_worker_count`), shut down by :meth:`close` / the context
    manager.
    """

    def __init__(self, engine, *, max_workers: int | None = None) -> None:
        self.engine = engine
        self.pool = WorkerPool(max_workers)
        self._metrics = _parallel_metrics()

    def close(self) -> None:
        """Shut down the executor's pool."""
        self.pool.shutdown(wait=True)

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def run(self, query) -> QueryResult:
        """Evaluate one query with intra-query sharding.

        Row- and order-identical to ``engine.run(query)``, with the same
        engine accounting.
        """
        self._metrics["queries"].inc()
        compiled = self.engine.compile(query)
        if compiled.index_plan is not None:
            self._metrics["indexed_queries"].inc()
        with span("parallel.query"):
            return self.engine.execute(compiled, pool=self.pool,
                                       parallel_metrics=self._metrics)
