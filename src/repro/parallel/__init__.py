"""Parallel query execution and concurrent fan-out primitives.

``repro.parallel`` layers workers on top of the serial engines without
changing what they compute: :class:`ParallelExecutor` shards a single
query along its first path-expression step, with a deterministic merge
that keeps results row- and order-identical to serial evaluation.
:class:`WorkerPool` is the bounded thread pool (also used by the QSS
server's concurrent polling); :mod:`repro.parallel.sharding` holds the
contiguous-chunk partitioner the determinism argument rests on.
See ``docs/parallel.md`` for the thread-safety contract.
"""

from .executor import ParallelExecutor
from .pool import WorkerPool, default_worker_count
from .sharding import chunk_evenly, chunk_fixed, shard_count

__all__ = [
    "ParallelExecutor",
    "WorkerPool",
    "default_worker_count",
    "chunk_evenly",
    "chunk_fixed",
    "shard_count",
]
