"""A miniature Lore: the indexes the query planner reads.

The paper implements DOEM and Chorel "on top of" the Lore DBMS [MAG+97],
which supplies object storage and query processing for OEM.  Storage is
:mod:`repro.store` (one change-log store for OEM histories, DOEM
databases and QSS subscriptions); this package is the index half:

* :class:`~repro.lore.indexes.AnnotationIndex` -- annotations by kind
  and timestamp, the paper's Section 7 future-work item;
  ``tests/paper/test_index.py`` counts what it buys.
  :class:`~repro.lore.indexes.TimestampIndex` is the incrementally
  maintained variant (attached to a DOEM database via its annotation
  listeners);
* :class:`~repro.lore.indexes.PathIndex` -- memoized label-path
  reachability for Lorel/Chorel path evaluation.

Both carry :class:`~repro.lore.indexes.IndexStats` hit-rate counters.
"""

from .indexes import AnnotationIndex, IndexStats, PathIndex, TimestampIndex

__all__ = ["AnnotationIndex", "TimestampIndex", "PathIndex", "IndexStats"]
