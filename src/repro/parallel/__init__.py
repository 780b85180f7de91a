"""Parallel query execution and concurrent fan-out primitives.

``repro.parallel`` layers workers on top of the serial engines without
changing what they compute: :class:`ParallelExecutor` shards a single
query along its first path-expression step and batches many queries over
one shared acquisition (``engine.run_many``), both with deterministic
merges that keep results row- and order-identical to serial evaluation.
:class:`WorkerPool` is the shared bounded thread pool (also used by the
QSS server's concurrent polling); :mod:`repro.parallel.sharding` holds
the contiguous-chunk partitioner the determinism argument rests on.
See ``docs/parallel.md`` for the thread-safety contract.
"""

from .executor import ParallelExecutor, parallel_run, run_many
from .pool import WorkerPool, default_pool, default_worker_count
from .sharding import chunk_evenly, chunk_fixed, shard_count

__all__ = [
    "ParallelExecutor",
    "parallel_run",
    "run_many",
    "WorkerPool",
    "default_pool",
    "default_worker_count",
    "chunk_evenly",
    "chunk_fixed",
    "shard_count",
]
