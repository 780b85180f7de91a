"""Index-accelerated Chorel evaluation (Section 7 future work).

"Designing indexes on annotations (based on their types and timestamps)
and studying the use of such indexes to achieve a more efficient
translation of Chorel queries" -- :class:`IndexedChorelEngine` is that
study's implementation half.  The engine is a thin facade: recognition
of the index-servable shape lives in the ``index-selection`` rewrite
pass (:mod:`repro.plan.rules`), and the index-scan kernel -- a
timestamp-range scan with backward path verification -- is
:func:`repro.plan.physical.execute_range_plan`.

What remains here is index/path-index ownership, the
``chorel.optimize`` / ``chorel.index_scan`` spans, and the pushdown
accounting (:class:`~repro.plan.stats.EngineStats`, re-exported).
"""

from __future__ import annotations

from ..doem.model import DOEMDatabase
from ..lorel.result import QueryResult
from ..lore.indexes import PathIndex, TimestampIndex
from ..obs.trace import span
from ..plan import CompileContext, CompiledPlan, run_compiled
from ..plan.stats import EngineStats, RangePlan
from .engine import ChorelEngine

__all__ = ["IndexedChorelEngine", "EngineStats"]


class IndexedChorelEngine(ChorelEngine):
    """A Chorel engine with an annotation-index fast path.

    Behaviourally identical to :class:`~repro.chorel.engine.ChorelEngine`;
    eligible queries are served from a :class:`TimestampIndex` that is
    *attached* to the DOEM database, so annotations folded in after
    engine construction (QSS polling, ``apply_change_set``) enter the
    index incrementally -- no :meth:`refresh_index` calls needed.  Hit
    verification walks a memoized :class:`PathIndex` over the current
    snapshot instead of a per-hit backward BFS.

    Accounting: ``engine.stats`` says how many queries took the indexed
    vs. fallback path, ``engine.index.stats`` / ``engine.paths.stats``
    carry index hit rates, and ``engine.annotation_visits`` totals the
    annotations touched (index entries + fallback scans) for direct
    comparison against the naive engine.
    """

    def __init__(self, doem: DOEMDatabase, name: str | None = None,
                 **kwargs) -> None:
        super().__init__(doem, name, **kwargs)
        self.index = TimestampIndex(doem)
        self.paths = PathIndex(doem)
        self.stats = EngineStats()
        self.last_plan: RangePlan | None = None

    @property
    def last_range_plan(self) -> RangePlan | None:
        """Read-only alias of ``last_plan`` (the pipeline benchmark's
        per-strategy counter reads this name)."""
        return self.last_plan

    def refresh_index(self) -> None:
        """Force a full index rebuild.

        Kept for API compatibility and for databases mutated behind the
        listener protocol's back; attached indexes normally maintain
        themselves as change sets are applied.
        """
        self.index.rebuild(self.doem)

    @property
    def annotation_visits(self) -> int:
        return self.view.annotation_visits + self.index.stats.visited

    def reset_counters(self) -> None:
        """Zero *all* accounting: view scans, index and path-index hit
        counters, and the pushdown split -- so ``annotation_visits`` (the
        view + index aggregate) reads 0 afterwards, mirroring the base
        engine's contract."""
        super().reset_counters()
        self.index.stats.reset()
        self.paths.stats.reset()
        self.stats.reset()

    # -- planner pipeline ------------------------------------------------

    def _compile_context(self, bindings) -> CompileContext:
        context = super()._compile_context(bindings)
        context.has_index = True
        return context

    def _execution_context(self, bindings=None, **parallel):
        context = super()._execution_context(bindings, **parallel)
        context.index = self.index
        context.paths = self.paths
        return context

    def execute(self, compiled: CompiledPlan,
                bindings: dict[str, str] | None = None, *,
                analyze: bool = False, **parallel) -> QueryResult:
        plan = compiled.index_plan
        if plan is None:
            return super().execute(compiled, bindings, analyze=analyze,
                                   **parallel)
        # The index scan is never sharded: one merged timestamp-index
        # scan plus backward verification, already sublinear.
        ctx = self._execution_context(bindings)
        with span("chorel.index_scan", plan=plan.describe()):
            return run_compiled(compiled, ctx, self, analyze=analyze)

    def _run(self, query, bindings, *, analyze: bool = False) -> QueryResult:
        """Evaluate; use the index when the planner selects it.

        ``use_planner=False`` only reroutes the *fallback* queries to the
        legacy evaluator: an index-served query has no legacy path.
        """
        if isinstance(query, str):
            with span("chorel.parse"):
                query = self.parse(query)
        with span("chorel.optimize"):
            # Pre-bound range variables clear ``allow_index``, so
            # trigger conditions always count as fallback.
            compiled = self.compile(query, bindings)
        self.last_plan = compiled.index_plan
        if self.last_plan is None:
            self.stats.fallback_queries += 1
            if not self.use_planner:
                return super()._run(query, bindings, analyze=analyze)
        else:
            self.stats.indexed_queries += 1
        return self.execute(compiled, bindings, analyze=analyze)
