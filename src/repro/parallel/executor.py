"""Sharded and batched query execution over the Lorel/Chorel engines.

Two orthogonal parallelism axes, both with **deterministic merges**:

* :meth:`ParallelExecutor.run` -- *intra-query* sharding, expressed in
  the plan algebra: the query is compiled through the engine's normal
  pipeline (:meth:`engine.compile`), and execution inserts an
  ``Exchange`` operator (:func:`repro.plan.physical.insert_exchange`)
  at the first from-item.  The Exchange binds its source serially, cuts
  the environments into contiguous shards
  (:mod:`repro.parallel.sharding`), runs the remaining plan stages per
  shard on worker threads, and concatenates in shard order -- replaying
  the serial enumeration exactly, so results are row- and
  order-identical to ``engine.run`` for any shard count (the property
  test in ``tests/parallel`` proves it on randomized histories).

* :meth:`ParallelExecutor.run_many` -- *inter-query* batching
  (``engine.run_many(queries)``).  The batch shares one acquisition of
  the engine's supporting structures -- queries are parsed once on the
  coordinating thread, the attached :class:`~repro.lore.indexes.PathIndex`
  freshness check and root expansion are pinned once instead of raced by
  every worker, and the attached :class:`~repro.lore.indexes.TimestampIndex`
  serves all workers -- then each query compiles and executes on a
  worker, and results return in input order.

Index pushdown is preserved: a query index selection serves
(``compiled.index_plan``) is answered by the index scan (already O(log n
+ answers); slicing it thinner would only add overhead), with the
engine's pushdown accounting intact.

The executor never mutates the underlying database; conversely, callers
must not fold new history in *during* a parallel run -- the thread-safety
contract (``docs/parallel.md``) makes index/cache/metrics state safe, but
raw OEM/DOEM graph reads are unsynchronized snapshots-in-time.
"""

from __future__ import annotations

from typing import Iterable

from ..lorel.result import QueryResult
from ..obs.metrics import registry as metrics_registry
from ..obs.trace import span
from .pool import WorkerPool, default_pool

__all__ = ["ParallelExecutor", "parallel_run", "run_many"]

_metrics_group = None


def _parallel_metrics():
    # The registry holds groups weakly; keep one strong module-level
    # reference so repro.parallel counters accumulate across executors
    # (including the ephemeral ones parallel_run/run_many create).
    global _metrics_group
    if _metrics_group is None:
        _metrics_group = metrics_registry().group(
            "repro.parallel",
            ("queries", "sharded_queries", "serial_queries", "shards",
             "batches", "batch_queries", "indexed_queries"))
    return _metrics_group


class ParallelExecutor:
    """Parallel execution wrapper around one Lorel/Chorel engine.

    ``pool`` shares an existing :class:`~repro.parallel.pool.WorkerPool`;
    ``max_workers`` creates a private pool instead (shut down by
    :meth:`close` / the context manager); with neither, the process-wide
    default pool is used.
    """

    def __init__(self, engine, *, pool: WorkerPool | None = None,
                 max_workers: int | None = None) -> None:
        self.engine = engine
        if pool is not None:
            self.pool = pool
            self._owns_pool = False
        elif max_workers is not None:
            self.pool = WorkerPool(max_workers)
            self._owns_pool = True
        else:
            self.pool = default_pool()
            self._owns_pool = False
        self._metrics = _parallel_metrics()

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Shut down a privately owned pool (shared pools are left alone)."""
        if self._owns_pool:
            self.pool.shutdown(wait=True)

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- single queries --------------------------------------------------

    def run(self, query, *, analyze: bool = False) -> QueryResult:
        """Evaluate one query with intra-query sharding.

        Row- and order-identical to ``engine.run(query)``.
        ``analyze=True`` collects per-operator runtime stats (identical
        rows) -- shard workers ship their stage stats back with the rows,
        so the merged tree on ``engine.last_compiled.runtime`` carries
        the same row totals a serial ANALYZE would.
        """
        engine = self.engine
        if isinstance(query, str):
            query = engine.parse(query)
        self._metrics["queries"].inc()
        compiled = engine._compile(query)
        if compiled.index_plan is not None:
            # The annotation-index scan is already sublinear; let the
            # engine serve it (and keep its pushdown accounting).
            self._metrics["indexed_queries"].inc()
            return engine.run(query, analyze=analyze)
        engine.last_compiled = compiled
        with span("parallel.query"):
            result = engine.execute(compiled, pool=self.pool,
                                    parallel_metrics=self._metrics,
                                    analyze=analyze)
        if getattr(engine, "stats", None) is not None:
            # Mirror the serial engine's pushdown split for this query.
            engine.stats.fallback_queries += 1
            engine.last_plan = None
        return result

    # -- batches ---------------------------------------------------------

    def run_many(self, queries: Iterable) -> list[QueryResult]:
        """Evaluate a batch of queries concurrently; results in input order.

        Equivalent to ``[engine.run(q) for q in queries]`` row for row.
        Parsing and index acquisition happen once, on the calling thread;
        each query then compiles and executes on a pool worker.
        """
        engine = self.engine
        with span("parallel.batch"):
            parsed = [engine.parse(query) if isinstance(query, str)
                      else query for query in queries]
            self._metrics["batches"].inc()
            self._metrics["batch_queries"].inc(len(parsed))
            if not parsed:
                return []
            self._acquire_shared()
            outcomes = self.pool.map_ordered(self._run_one, parsed)
        stats = getattr(engine, "stats", None)
        if stats is not None:
            # Pushdown accounting is applied here, on the calling thread,
            # so worker outcomes never race the CounterField descriptors;
            # the stored plan is the last query's, as after a serial loop.
            indexed = sum(plan is not None for _, plan in outcomes)
            stats.indexed_queries += indexed
            stats.fallback_queries += len(outcomes) - indexed
            engine.last_plan = outcomes[-1][1]
            self._metrics["indexed_queries"].inc(indexed)
        return [result for result, _ in outcomes]

    def _run_one(self, parsed):
        """Compile + execute one batch member (runs on a pool worker).

        Returns ``(result, index plan or None)``.
        """
        engine = self.engine
        compiled = engine._compile(parsed)
        return engine.execute(compiled), compiled.index_plan

    # -- shared context --------------------------------------------------

    def _acquire_shared(self) -> None:
        """Pin shared structures once before a batch fans out.

        The path index's fingerprint check (and its root-layer memo) runs
        here on the calling thread, so workers hit a warm, stable memo
        instead of all paying -- and serializing on -- the first-touch
        rebuild.  The timestamp index is attached to the database and
        needs no per-batch refresh.
        """
        paths = getattr(self.engine, "paths", None)
        if paths is not None:
            with span("parallel.acquire"):
                paths.nodes(())


def parallel_run(engine, query, *, pool: WorkerPool | None = None,
                 max_workers: int | None = None) -> QueryResult:
    """One-shot sharded evaluation: ``engine.run(query)``, in parallel."""
    with ParallelExecutor(engine, pool=pool,
                          max_workers=max_workers) as executor:
        return executor.run(query)


def run_many(engine, queries, *, pool: WorkerPool | None = None,
             max_workers: int | None = None) -> list[QueryResult]:
    """One-shot batched evaluation; results in input order."""
    with ParallelExecutor(engine, pool=pool,
                          max_workers=max_workers) as executor:
        return executor.run_many(queries)
