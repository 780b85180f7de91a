"""The native Chorel engine: annotation expressions evaluated over DOEM.

This realizes the semantics of Section 4.2.1 directly: annotation
expressions in path steps are served by the DOEM database's
``creFun``/``updFun``/``addFun``/``remFun`` accessors, plain steps see the
current snapshot, and the virtual ``<at T>`` annotations of Section 4.2.2
re-root navigation and value access at an arbitrary time.

Since the planner refactor the engine is a facade over
:mod:`repro.plan`: ``run`` = :meth:`ChorelEngine.compile` +
:meth:`ChorelEngine.execute`, with the pre-planner evaluator reachable
via ``use_planner=False`` as the differential oracle.
"""

from __future__ import annotations

from ..doem.model import DOEMDatabase
from ..lorel.ast import Query
from ..lorel.eval import TIMEVARS_KEY, Evaluator
from ..lorel.parser import parse_query
from ..lorel.result import QueryResult
from ..lorel.views import DOEMView
from ..obs.trace import span
from ..plan import (
    CompileContext,
    CompiledPlan,
    ExecutionContext,
    compile_query,
    run_compiled,
)
from ..timestamps import Timestamp, parse_timestamp

__all__ = ["ChorelEngine"]


class ChorelEngine:
    """Evaluates Chorel queries over one DOEM database.

    ``name`` registers the database name for root path expressions; QSS
    registers each subscription's DOEM database under its polling query's
    name (Section 6: "the name of the DOEM database corresponding to the
    above polling query is LyttonRestaurants").

    ``polling_times`` (optional, mutable via :meth:`set_polling_times`)
    provides values for the special time variables ``t[0]``, ``t[-1]``,
    ... used by QSS filter queries.

    ``use_planner=False`` routes ``run`` through the legacy single-pass
    evaluator (the differential oracle; identical rows, identical order).
    """

    def __init__(self, doem: DOEMDatabase, name: str | None = None,
                 polling_times: dict[int, Timestamp] | None = None, *,
                 use_planner: bool = True) -> None:
        self.doem = doem
        names = {name or doem.graph.root: doem.graph.root}
        self.view = DOEMView(doem, names)
        self._evaluator = Evaluator(self.view)
        self._polling_times: dict[int, Timestamp] = dict(polling_times or {})
        self.use_planner = use_planner
        self.last_compiled: CompiledPlan | None = None

    def register_name(self, name: str, node_id: str) -> None:
        """Expose ``node_id`` as a database name for path expressions."""
        self.view._names[name] = node_id

    @property
    def annotation_visits(self) -> int:
        """Annotations touched while answering queries so far.

        For the naive engine this is the view's scan counter; the indexed
        subclass adds the entries its index lookups returned.
        ``tests/paper/test_index.py`` compares the two.
        """
        return self.view.annotation_visits

    def reset_counters(self) -> None:
        """Zero the annotation-visit accounting."""
        self.view.annotation_visits = 0

    def reset_stats(self) -> None:
        """Alias for :meth:`reset_counters` -- clears *all* the engine's
        counters (subclasses extend ``reset_counters`` to cover their
        index and pushdown accounting too)."""
        self.reset_counters()

    def set_polling_times(self, times: dict[int, object]) -> None:
        """Set the ``t[i]`` mapping (index -> timestamp), coercing values."""
        self._polling_times = {index: parse_timestamp(when)
                               for index, when in times.items()}

    def parse(self, text: str) -> Query:
        """Parse Chorel text (annotation expressions allowed)."""
        return parse_query(text, allow_annotations=True)

    # -- planner pipeline ------------------------------------------------

    def compile(self, query: str | Query,
                bindings: dict[str, str] | None = None) -> CompiledPlan:
        """Compile a query to an optimized logical plan (``plan.compile``).

        ``bindings`` (trigger pre-bindings) disable index selection --
        the index scan cannot honor pre-bound range variables -- and feed
        the predicate-reorder purity check.
        """
        if isinstance(query, str):
            query = self.parse(query)
        compiled = self._compile(query, bindings)
        self.last_compiled = compiled
        return compiled

    def _compile(self, query: Query,
                 bindings: dict[str, str] | None = None) -> CompiledPlan:
        """Compile without touching ``last_compiled`` (worker-thread safe)."""
        context = self._compile_context(bindings)
        return compile_query(query, self._evaluator, context=context)

    def _compile_context(self, bindings) -> CompileContext:
        return CompileContext(
            evaluator=self._evaluator,
            view=self.view,
            root_node=self.doem.graph.root,
            polling_times=dict(self._polling_times),
            has_index=False,
            allow_index=not bindings,
            bound_names=frozenset(bindings or ()),
        )

    def execute(self, compiled: CompiledPlan,
                bindings: dict[str, str] | None = None, *, pool=None,
                parallel_metrics=None,
                analyze: bool = False) -> QueryResult:
        """Run a compiled plan through the physical operators.

        ``pool`` (set by the parallel executor) shards the plan behind an
        ``Exchange`` operator when it has a from clause to shard along.
        ``analyze=True`` attaches per-operator runtime accounting
        (identical rows) and leaves the stats on ``compiled.runtime``.
        """
        ctx = self._execution_context(bindings, pool=pool,
                                      parallel_metrics=parallel_metrics)
        if pool is not None:
            return run_compiled(compiled, ctx, self, analyze=analyze)
        with span("lorel.eval"):
            return run_compiled(compiled, ctx, self, analyze=analyze)

    def _execution_context(self, bindings=None, *, pool=None,
                           parallel_metrics=None) -> ExecutionContext:
        return ExecutionContext(evaluator=self._evaluator,
                                base_env=self._base_env(bindings),
                                doem=self.doem, pool=pool,
                                parallel_metrics=parallel_metrics)

    # -- entry points ----------------------------------------------------

    def run(self, query: str | Query,
            bindings: dict[str, str] | None = None, *,
            analyze: bool = False) -> QueryResult:
        """Parse (if needed), compile, optimize, and execute a query.

        ``bindings`` pre-binds variables to node identifiers before
        evaluation -- the trigger subsystem uses this to hand a rule's
        condition the triggering object (``NEW``, ``PARENT``).

        ``analyze=True`` collects per-operator runtime stats (identical
        rows); render them with ``self.last_compiled.explain(analyze=True)``.
        """
        with span("chorel.query"):
            return self._run(query, bindings, analyze=analyze)

    def _run(self, query: str | Query,
             bindings: dict[str, str] | None, *,
             analyze: bool = False) -> QueryResult:
        if isinstance(query, str):
            with span("chorel.parse"):
                query = self.parse(query)
        if not self.use_planner:
            if analyze:
                raise ValueError("analyze=True requires the planner "
                                 "(use_planner=False has no plan tree)")
            return self._evaluator.run(query, self._base_env(bindings))
        compiled = self.compile(query, bindings)
        return self.execute(compiled, bindings, analyze=analyze)

    def _base_env(self, bindings: dict[str, str] | None = None) -> dict:
        """Ambient bindings every evaluation starts from.

        Chorel seeds the ``t[i]`` time-variable table and (for triggers)
        any pre-bound node variables.
        """
        env: dict = {}
        if self._polling_times:
            env[TIMEVARS_KEY] = dict(self._polling_times)
        if bindings:
            from ..lorel.eval import NodeBinding
            for name, node_id in bindings.items():
                env[name] = NodeBinding(node_id)
        return env

    def run_many(self, queries, *, pool=None,
                 max_workers: int | None = None) -> list[QueryResult]:
        """Evaluate a batch of queries concurrently; results in input order.

        Row-for-row equivalent to ``[self.run(q) for q in queries]``, but
        parsing and index acquisition happen once and the evaluations fan
        out to a worker pool (see :mod:`repro.parallel`).
        """
        from ..parallel.executor import run_many as _run_many
        return _run_many(self, queries, pool=pool, max_workers=max_workers)
