"""Index-accelerated Chorel evaluation (Section 7 future work).

"Designing indexes on annotations (based on their types and timestamps)
and studying the use of such indexes to achieve a more efficient
translation of Chorel queries" -- :class:`IndexedChorelEngine` is that
study's implementation half.  The engine is a thin facade: recognition
of the index-servable shape lives in the ``index-selection`` rewrite
pass (:mod:`repro.plan.rules`), and the index-scan kernel -- a
timestamp-range scan checked against the path's prefix set -- is
:func:`repro.plan.physical.execute_range_plan`, which ``run_compiled``
runs under the ``chorel.index_scan`` span and never shards.

What remains here is the ``chorel.optimize`` span and the pushdown
accounting (:class:`~repro.plan.stats.EngineStats`,
re-exported).
"""

from __future__ import annotations

from ..doem.model import DOEMDatabase
from ..lorel.result import QueryResult
from ..obs.trace import span
from ..plan import CompiledPlan
from ..plan.stats import EngineStats, RangePlan
from .engine import ChorelEngine

__all__ = ["IndexedChorelEngine", "EngineStats"]


class IndexedChorelEngine(ChorelEngine):
    """A Chorel engine with an annotation-index fast path.

    Behaviourally identical to :class:`~repro.chorel.engine.ChorelEngine`;
    eligible queries are served from the
    :class:`~repro.lore.indexes.TimestampIndex` the DOEM database owns,
    so annotations folded in after engine construction (QSS polling,
    ``apply_change_set``) enter the index incrementally -- no
    :meth:`refresh_index` calls needed.  Hits are checked against one
    memoized prefix set per query from the database's
    :class:`~repro.lore.indexes.PathIndex` instead of a per-hit backward
    BFS.  Engines over one database share both indexes.

    Accounting: ``engine.stats`` says how many executions took the
    indexed vs. fallback path (per engine), ``engine.index.stats`` /
    ``engine.paths.stats`` carry the database's index hit rates, and
    ``engine.annotation_visits`` totals the annotations touched (index
    entries + fallback scans) for direct comparison against the naive
    engine.
    """

    def __init__(self, doem: DOEMDatabase, name: str | None = None,
                 **kwargs) -> None:
        super().__init__(doem, name, **kwargs)
        self.index = doem.timestamp_index()
        self.paths = doem.path_index()
        self.stats = EngineStats()

    @property
    def last_plan(self) -> RangePlan | None:
        """The index scan of the last compiled query (``None`` after a
        fallback query)."""
        compiled = self.last_compiled
        return compiled.index_plan if compiled is not None else None

    # The name the pipeline benchmark's per-strategy counter reads.
    last_range_plan = last_plan

    def refresh_index(self) -> None:
        """Force a full index rebuild.

        Kept for API compatibility and for databases mutated around
        ``annotate_node``/``annotate_arc``; the database's index normally
        follows the change sets applied to it.
        """
        self.index.rebuild(self.doem)

    @property
    def annotation_visits(self) -> int:
        return self.view.annotation_visits + self.index.stats.visited

    def reset_counters(self) -> None:
        """Zero *all* accounting: view scans, index and path-index hit
        counters (the database's, so every engine over it sees them
        zeroed), and the pushdown split -- so ``annotation_visits`` (the
        view + index aggregate) reads 0 afterwards, mirroring the base
        engine's contract."""
        super().reset_counters()
        self.index.stats.reset()
        self.paths.stats.reset()
        self.stats.reset()

    def _compile(self, query, bindings=None) -> CompiledPlan:
        # Pre-bound range variables clear ``allow_index``, so trigger
        # conditions always count as fallback.
        with span("chorel.optimize"):
            return super()._compile(query, bindings)

    def execute(self, compiled: CompiledPlan, bindings=None,
                **kwargs) -> QueryResult:
        """Execute, counting the query as index-served or fallback."""
        if compiled.index_plan is None:
            self.stats.fallback_queries += 1
        else:
            self.stats.indexed_queries += 1
        return super().execute(compiled, bindings, **kwargs)
