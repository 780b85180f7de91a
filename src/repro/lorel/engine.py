"""The glue every query engine shares, and the Lorel engine.

:class:`QueryEngine` is written once for all four facades -- Lorel here,
the native, indexed and translating Chorel engines in
:mod:`repro.chorel`: database names, the ``t[i]`` polling times, the
base environment, ``compile`` (parse if text, ``_compile``, remember
``last_compiled``) and the run path.  A facade keeps only what differs:
its view, parse mode and context extras.  Execution is
:func:`repro.plan.run_compiled` for every engine.

:class:`LorelEngine` is the library's stand-in for the Lore system's
query processor [MAG+97]: the substrate Chorel is implemented on.  It
deliberately rejects Chorel annotation syntax -- use
:class:`repro.chorel.ChorelEngine` for change queries.
"""

from __future__ import annotations

from ..obs.trace import span
from ..oem.model import OEMDatabase
from ..plan import (
    CompileContext,
    CompiledPlan,
    ExecutionContext,
    compile_query,
    run_compiled,
)
from ..timestamps import parse_timestamp
from .ast import Query
from .eval import TIMEVARS_KEY, Evaluator, NodeBinding
from .parser import parse_query
from .result import QueryResult
from .views import OEMView

__all__ = ["LorelEngine", "QueryEngine"]


class QueryEngine:
    """The compile-and-execute path every engine facade shares.

    ``run`` = :meth:`compile` (normalize, lower, optimize) +
    ``execute`` (the physical operators, through ``run_compiled``).
    ``use_planner=False`` answers with the depth-first evaluator instead
    (the differential oracle; identical rows, in identical order).

    ``bindings`` pre-bind variables to node identifiers before
    evaluation: the trigger subsystem hands a rule's condition the
    triggering object (``NEW``, ``PARENT``) this way.  They disable index
    selection -- the index scan cannot honor pre-bound range variables --
    and feed the predicate-reorder purity check.
    """

    parse_span = "lorel.parse"
    use_planner = True
    last_compiled: CompiledPlan | None = None

    def __init__(self, view, polling_times=None, *,
                 use_planner: bool = True) -> None:
        self.view = view
        self._evaluator = Evaluator(view)
        self.set_polling_times(polling_times or {})
        self.use_planner = use_planner

    def register_name(self, name: str, node_id: str) -> None:
        """Expose ``node_id`` as a database name for path expressions."""
        self.view._names[name] = node_id

    def set_polling_times(self, times: dict[int, object]) -> None:
        """Set the ``t[i]`` mapping (index -> timestamp), coercing values."""
        self._polling_times = {index: parse_timestamp(when)
                               for index, when in times.items()}

    def compile(self, query: str | Query,
                bindings: dict[str, str] | None = None) -> CompiledPlan:
        """Compile a query to an optimized logical plan (``plan.compile``)
        and remember it as ``last_compiled``."""
        if isinstance(query, str):
            query = self.parse(query)
        compiled = self._compile(query, bindings)
        self.last_compiled = compiled
        return compiled

    def _compile(self, query: Query,
                 bindings: dict[str, str] | None = None) -> CompiledPlan:
        """Compile without touching ``last_compiled``."""
        return compile_query(query, self._evaluator,
                             context=self._compile_context(bindings))

    def execute(self, compiled: CompiledPlan,
                bindings: dict[str, str] | None = None, *,
                analyze: bool = False, **parallel) -> QueryResult:
        """Run a compiled plan through the physical operators.

        ``pool`` and ``parallel_metrics`` (set by the parallel executor)
        shard the plan behind an ``Exchange`` operator when it has a
        from clause to shard along.  ``analyze=True`` attaches
        per-operator runtime accounting (identical rows) and leaves the
        stats on ``compiled.runtime``.
        """
        ctx = self._execution_context(bindings, **parallel)
        return run_compiled(compiled, ctx, self, analyze=analyze)

    def _compile_context(self, bindings=None) -> CompileContext:
        return CompileContext(evaluator=self._evaluator, view=self.view,
                              polling_times=dict(self._polling_times),
                              allow_index=not bindings,
                              bound_names=frozenset(bindings or ()))

    def _execution_context(self, bindings=None,
                           **parallel) -> ExecutionContext:
        return ExecutionContext(evaluator=self._evaluator,
                                base_env=self._base_env(bindings),
                                **parallel)

    def _base_env(self, bindings: dict[str, str] | None = None) -> dict:
        """Ambient bindings every evaluation starts from: the ``t[i]``
        time-variable table and any pre-bound node variables."""
        env: dict = {}
        if self._polling_times:
            env[TIMEVARS_KEY] = dict(self._polling_times)
        for name, node_id in (bindings or {}).items():
            env[name] = NodeBinding(node_id)
        return env

    def _run(self, query: str | Query,
             bindings: dict[str, str] | None = None, *,
             analyze: bool = False) -> QueryResult:
        """Parse (if needed), compile, optimize, and execute a query.

        ``analyze=True`` collects per-operator runtime stats (identical
        rows); render them with ``self.last_compiled.explain(analyze=True)``.
        """
        if isinstance(query, str):
            with span(self.parse_span):
                query = self.parse(query)
        if not self.use_planner:
            if analyze:
                raise ValueError("analyze=True requires the planner "
                                 "(use_planner=False has no plan tree)")
            return self._evaluator.run(query, self._base_env(bindings))
        compiled = self.compile(query, bindings)
        return self.execute(compiled, bindings, analyze=analyze)


class LorelEngine(QueryEngine):
    """Evaluates Lorel queries over one OEM database.

    ``name`` registers the database name used as the entry point of root
    path expressions; by default the root's node id doubles as the name
    (the Guide examples use a root named ``guide``).  Additional entry
    points may be registered with :meth:`register_name`.
    """

    def __init__(self, db: OEMDatabase, name: str | None = None, *,
                 use_planner: bool = True) -> None:
        self.db = db
        super().__init__(OEMView(db, {name or db.root: db.root}),
                         use_planner=use_planner)

    def parse(self, text: str) -> Query:
        """Parse Lorel text (annotation expressions rejected)."""
        return parse_query(text, allow_annotations=False)

    # Bound on the class itself: the pipeline benchmark's tracer patches
    # each engine class's own methods.
    _compile = QueryEngine._compile
    execute = QueryEngine.execute

    def run(self, query: str | Query, *,
            analyze: bool = False) -> QueryResult:
        """Parse (if needed), compile, optimize, and execute a query."""
        with span("lorel.query"):
            return self._run(query, analyze=analyze)
