"""The native Chorel engine: annotation expressions evaluated over DOEM.

This realizes the semantics of Section 4.2.1 directly: annotation
expressions in path steps are served by the DOEM database's
``creFun``/``updFun``/``addFun``/``remFun`` accessors, plain steps see the
current snapshot, and the virtual ``<at T>`` annotations of Section 4.2.2
re-root navigation and value access at an arbitrary time.

The engine is a facade over :mod:`repro.plan` with the glue every engine
shares (:class:`~repro.lorel.engine.QueryEngine`): ``run`` =
:meth:`ChorelEngine.compile` + :meth:`ChorelEngine.execute`, with the
pre-planner evaluator reachable via ``use_planner=False`` as the
differential oracle.
"""

from __future__ import annotations

from ..doem.model import DOEMDatabase
from ..lorel.ast import Query
from ..lorel.engine import QueryEngine
from ..lorel.parser import parse_query
from ..lorel.result import QueryResult
from ..lorel.views import DOEMView
from ..obs.trace import span
from ..plan import CompileContext, ExecutionContext
from ..timestamps import Timestamp

__all__ = ["ChorelEngine"]


class ChorelEngine(QueryEngine):
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

    parse_span = "chorel.parse"
    # The database's annotation and path indexes, read by the indexed engine.
    index = paths = None

    def __init__(self, doem: DOEMDatabase, name: str | None = None,
                 polling_times: dict[int, Timestamp] | None = None, *,
                 use_planner: bool = True) -> None:
        self.doem = doem
        root = doem.graph.root
        super().__init__(DOEMView(doem, {name or root: root}), polling_times,
                         use_planner=use_planner)

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

    def parse(self, text: str) -> Query:
        """Parse Chorel text (annotation expressions allowed)."""
        return parse_query(text, allow_annotations=True)

    def _compile_context(self, bindings=None) -> CompileContext:
        context = super()._compile_context(bindings)
        context.root_node = self.doem.graph.root
        context.has_index = self.index is not None
        return context

    def _execution_context(self, bindings=None,
                           **parallel) -> ExecutionContext:
        context = super()._execution_context(bindings, **parallel)
        context.doem, context.index, context.paths = \
            self.doem, self.index, self.paths
        return context

    # Bound on the class itself: the pipeline benchmark's tracer patches
    # each engine class's own methods.
    _compile = QueryEngine._compile
    execute = QueryEngine.execute

    def run(self, query: str | Query,
            bindings: dict[str, str] | None = None, *,
            analyze: bool = False) -> QueryResult:
        """Parse (if needed), compile, optimize, and execute a query.

        ``bindings`` pre-binds variables to node identifiers
        (:class:`~repro.lorel.engine.QueryEngine`).  ``analyze=True``
        collects per-operator runtime stats (identical rows); render them
        with ``self.last_compiled.explain(analyze=True)``.
        """
        with span("chorel.query"):
            return self._run(query, bindings, analyze=analyze)
