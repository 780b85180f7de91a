"""Index-accelerated Chorel evaluation (Section 7 future work).

"Designing indexes on annotations (based on their types and timestamps)
and studying the use of such indexes to achieve a more efficient
translation of Chorel queries" -- :class:`IndexedChorelEngine` is that
study's implementation half.  Since the planner refactor the engine is a
thin facade: recognition of the index-servable shape lives in the
``annotation-literal-pushdown`` / ``index-selection`` rewrite passes
(:mod:`repro.plan.rules`), and the index-scan kernel -- a timestamp-range
scan with backward path verification -- is the ``AnnotationFilter``
physical operator (:func:`repro.plan.physical.execute_index_plan`).

What remains here is the engine facade (index/path-index ownership, the
``chorel.optimize`` / ``chorel.index_scan`` spans, and the pushdown
accounting) plus one deprecation shim: :class:`~repro.plan.stats.IndexPlan`
and :class:`~repro.plan.stats.EngineStats` moved to the plan layer but
remain importable from here.
"""

from __future__ import annotations

from ..doem.model import DOEMDatabase
from ..lorel.result import QueryResult
from ..lore.indexes import PathIndex, TimestampIndex
from ..obs.trace import span
from ..plan import CompileContext, CompiledPlan, run_compiled
# Deprecation shims: these classes now live in the plan layer.
from ..plan.stats import EngineStats, IndexPlan, RangePlan
from .engine import ChorelEngine

__all__ = ["IndexedChorelEngine", "IndexPlan", "EngineStats"]


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
        self.last_plan: IndexPlan | None = None
        self.last_range_plan: RangePlan | None = None

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
        if compiled.is_indexed:
            # The index scan is never sharded: run the AnnotationFilter
            # root directly (the instrumented kernel when analyzing).
            ctx = self._execution_context(bindings)
            with span("chorel.index_scan",
                      plan=compiled.index_plan.describe()):
                return run_compiled(compiled, ctx, self, analyze=analyze)
        if compiled.is_range:
            # Likewise serial: the range kernel is one merged index scan
            # plus backward verification.
            ctx = self._execution_context(bindings)
            with span("chorel.range_scan",
                      plan=compiled.range_plan.describe()):
                return run_compiled(compiled, ctx, self, analyze=analyze)
        return super().execute(compiled, bindings, analyze=analyze,
                               **parallel)

    # ------------------------------------------------------------------

    def _run(self, query, bindings, *, analyze: bool = False) -> QueryResult:
        """Evaluate; use the index when the planner selects it."""
        if analyze and not self.use_planner:
            raise ValueError("analyze=True requires the planner "
                             "(use_planner=False has no plan tree)")
        if isinstance(query, str):
            with span("chorel.parse"):
                query = self.parse(query)
        self.last_plan = None
        self.last_range_plan = None
        if bindings:
            # The index scan cannot honor pre-bound range variables.
            self.stats.fallback_queries += 1
            if not self.use_planner:
                return self._evaluator.run(query, self._base_env(bindings))
            return self.execute(self.compile(query, bindings), bindings,
                                analyze=analyze)
        with span("chorel.optimize"):
            compiled = self._compile(query)
        self.last_compiled = compiled
        plan = compiled.index_plan
        if plan is not None:
            self.last_plan = plan
            self.stats.indexed_queries += 1
            return self.execute(compiled, analyze=analyze)
        range_plan = compiled.range_plan
        if range_plan is not None:
            # The range kernel is an index scan, so it counts as indexed.
            self.last_range_plan = range_plan
            self.stats.indexed_queries += 1
            return self.execute(compiled, analyze=analyze)
        self.stats.fallback_queries += 1
        if not self.use_planner:
            return self._evaluator.run(query, self._base_env(None))
        return self.execute(compiled, analyze=analyze)
