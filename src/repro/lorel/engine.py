"""The Lorel engine: parse + evaluate plain Lorel over an OEM database.

This is the library's stand-in for the Lore system's query processor
[MAG+97]: the substrate Chorel is implemented on.  It deliberately rejects
Chorel annotation syntax -- use :class:`repro.chorel.ChorelEngine` for
change queries.

Like every engine in the library, it is a thin facade over the staged
planner: ``run`` = :meth:`LorelEngine.compile` (normalize, lower,
optimize) + :meth:`LorelEngine.execute` (physical operators).  The
pre-planner evaluator remains reachable with ``use_planner=False`` as the
differential oracle.
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
from .ast import Query
from .eval import Evaluator
from .parser import parse_query
from .result import QueryResult
from .views import OEMView

__all__ = ["LorelEngine"]


class LorelEngine:
    """Evaluates Lorel queries over one OEM database.

    ``name`` registers the database name used as the entry point of root
    path expressions; by default the root's node id doubles as the name
    (the Guide examples use a root named ``guide``).  Additional entry
    points may be registered with :meth:`register_name`.

    ``use_planner=False`` routes ``run`` through the legacy single-pass
    evaluator instead of the compile/execute pipeline (the differential
    oracle; identical rows, in identical order).
    """

    def __init__(self, db: OEMDatabase, name: str | None = None, *,
                 use_planner: bool = True) -> None:
        self.db = db
        names = {name or db.root: db.root}
        self.view = OEMView(db, names)
        self._evaluator = Evaluator(self.view)
        self.use_planner = use_planner
        self.last_compiled: CompiledPlan | None = None

    def register_name(self, name: str, node_id: str) -> None:
        """Expose ``node_id`` as a database name for path expressions."""
        self.view._names[name] = node_id

    def parse(self, text: str) -> Query:
        """Parse Lorel text (annotation expressions rejected)."""
        return parse_query(text, allow_annotations=False)

    # -- planner pipeline ------------------------------------------------

    def compile(self, query: str | Query) -> CompiledPlan:
        """Compile a query to an optimized logical plan (``plan.compile``)."""
        if isinstance(query, str):
            query = self.parse(query)
        compiled = self._compile(query)
        self.last_compiled = compiled
        return compiled

    def _compile(self, query: Query) -> CompiledPlan:
        """Compile without touching ``last_compiled``."""
        context = CompileContext(evaluator=self._evaluator, view=self.view)
        return compile_query(query, self._evaluator, context=context)

    def execute(self, compiled: CompiledPlan, *, pool=None,
                parallel_metrics=None,
                analyze: bool = False) -> QueryResult:
        """Run a compiled plan through the physical operators.

        ``pool`` (set by the parallel executor) shards the plan behind an
        ``Exchange`` operator when it has a from clause to shard along.
        ``analyze=True`` attaches per-operator runtime accounting
        (identical rows) and leaves the stats on ``compiled.runtime``.
        """
        ctx = ExecutionContext(evaluator=self._evaluator,
                               base_env=self._base_env(), pool=pool,
                               parallel_metrics=parallel_metrics)
        if pool is not None:
            return run_compiled(compiled, ctx, self, analyze=analyze)
        with span("lorel.eval"):
            return run_compiled(compiled, ctx, self, analyze=analyze)

    # -- entry points ----------------------------------------------------

    def run(self, query: str | Query, *,
            analyze: bool = False) -> QueryResult:
        """Parse (if needed), compile, optimize, and execute a query.

        ``analyze=True`` collects per-operator runtime stats (identical
        rows); render them with ``self.last_compiled.explain(analyze=True)``.
        """
        with span("lorel.query"):
            if isinstance(query, str):
                with span("lorel.parse"):
                    query = self.parse(query)
            if not self.use_planner:
                if analyze:
                    raise ValueError("analyze=True requires the planner "
                                     "(use_planner=False has no plan tree)")
                return self._evaluator.run(query)
            compiled = self.compile(query)
            return self.execute(compiled, analyze=analyze)

    def run_ast(self, query: Query) -> QueryResult:
        """Evaluate an already-parsed query AST (may contain annotations;
        used by the Chorel->Lorel translation backend, whose generated
        ASTs are plain Lorel by construction)."""
        return self._evaluator.run(query)

    def _base_env(self) -> dict:
        """Ambient bindings every evaluation starts from (none for Lorel)."""
        return {}
