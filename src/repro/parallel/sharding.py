"""Partitioning the first path-expression step into disjoint shards.

The evaluator's from clause enumerates bindings in a deterministic data
order (see :meth:`repro.lorel.eval.Evaluator.from_envs`).  Sharded
evaluation exploits that: bind the **first** from-item serially (cheap --
one step from the query root), split the resulting environments into
**contiguous** chunks, evaluate the remaining from-items/where/select per
chunk on worker threads, and concatenate chunk results in chunk order.
Because the chunks are contiguous and internally ordered, the
concatenation replays the serial enumeration exactly -- the merge is
deterministic and the rows come back identical, in identical order, for
any shard count.  (Koloniari et al. make the same observation for delta
logs: historical queries partition naturally along the object/annotation
axis.)
"""

from __future__ import annotations

from typing import Sequence, TypeVar

__all__ = ["chunk_evenly", "chunk_fixed", "shard_count"]

T = TypeVar("T")


def chunk_fixed(items: Sequence[T], size: int) -> list[list[T]]:
    """Split ``items`` into contiguous runs of exactly ``size`` rows
    (the last run may be shorter).

    The batched operators re-chunk with this -- a *fixed* width, unlike
    :func:`chunk_evenly`'s fixed *count* -- so every batch but the tail
    carries the same amortization. Concatenating the chunks replays the
    input exactly, preserving the deterministic-merge property.
    """
    if size < 1:
        raise ValueError("need a positive chunk size")
    items = list(items)
    return [items[start:start + size]
            for start in range(0, len(items), size)]


def chunk_evenly(items: Sequence[T], shards: int) -> list[list[T]]:
    """Split ``items`` into at most ``shards`` contiguous, near-even runs.

    Sizes differ by at most one; order within and across chunks preserves
    the input order; empty chunks are never produced.  ``chunk_evenly``
    of any ``shards >= 1`` concatenates back to ``items`` -- the property
    the deterministic merge relies on.
    """
    if shards < 1:
        raise ValueError("need at least one shard")
    items = list(items)
    count = min(shards, len(items))
    if count == 0:
        return []
    base, extra = divmod(len(items), count)
    chunks: list[list[T]] = []
    start = 0
    for position in range(count):
        size = base + (1 if position < extra else 0)
        chunks.append(items[start:start + size])
        start += size
    return chunks


def shard_count(n_items: int, max_workers: int) -> int:
    """How many shards to cut ``n_items`` first-step bindings into.

    One binding per shard at least, and never more than ``max_workers``
    shards (extra shards would only queue).
    """
    return min(max_workers, max(n_items, 0))
