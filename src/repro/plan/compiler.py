"""The compile entry point: normalize, lower, optimize, explain.

``compile_query`` is the one staging step every engine shares::

    compiled = compile_query(parsed, evaluator, context=ctx)   # plan.compile
    result = execute_plan(compiled.root, execution_ctx)        # operators

The returned :class:`CompiledPlan` carries the optimized logical tree,
the per-pass firing report (what ``repro explain`` prints), and -- when
index selection fired -- the :class:`~repro.plan.stats.RangePlan` the
``TimeRangeScan`` will scan.  Compilation cost is observable: a
``plan.compile`` trace span, the ``repro.plan.compiled`` counter, and the
``repro.plan.compile_seconds`` histogram.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from ..lorel.ast import Query
from ..obs.metrics import registry as metrics_registry
from ..obs.trace import span
from .analyze import plan_fingerprint
from .ir import DeltaProject, LogicalNode, VersionJoin, render
from .lowering import lower
from .rules import CompileContext, PassManager, PassReport, plan_metrics
from .stats import RangePlan

__all__ = ["CompiledPlan", "compile_query", "COMPILE_SECONDS_METRIC"]

COMPILE_SECONDS_METRIC = "repro.plan.compile_seconds"


@dataclass
class CompiledPlan:
    """One query, compiled: the optimized tree plus its provenance."""

    source: Query
    normalized: Query
    root: LogicalNode
    labels: dict = field(default_factory=dict)
    passes: tuple[PassReport, ...] = ()
    translation: object = None  # TranslationResult, translate backend only
    compile_seconds: float = 0.0
    fingerprint: str = ""
    runtime: object = None  # PlanStats, set by an analyze=True execution

    @property
    def index_plan(self) -> Optional[RangePlan]:
        """The index scan serving this query, if index selection fired."""
        if isinstance(self.root, (DeltaProject, VersionJoin)):
            return self.root.plan
        return None

    def explain(self, analyze: bool = False) -> str:
        """The optimized plan tree plus the pass-by-pass firing report.

        With ``analyze=True`` the tree is the *runtime* one instead --
        every operator annotated with rows in/out, wall time and shard
        fan-out -- which requires the plan to have been
        executed with ``analyze=True`` first (``engine.run(q,
        analyze=True)`` or ``engine.execute(compiled, analyze=True)``).
        """
        if analyze:
            if self.runtime is None:
                raise ValueError(
                    "no runtime stats on this plan: execute it with "
                    "analyze=True before explain(analyze=True)")
            lines = [self.runtime.render()]
            lines.append(f"fingerprint: {self.fingerprint}")
        else:
            lines = [render(self.root)]
        lines.append("passes:")
        for report in self.passes:
            status = "fired" if report.fired else "-"
            line = f"  {report.name:<28} {status}"
            if report.note:
                line += f": {report.note}"
            lines.append(line)
        return "\n".join(lines)


def compile_query(query: Query, evaluator, *,
                  context: CompileContext | None = None,
                  rules=None) -> CompiledPlan:
    """Compile a parsed query to an optimized logical plan.

    ``context`` carries the engine facts the rules consult (index
    availability, polling times, pre-bindings); ``rules`` overrides the
    default pass pipeline (tests isolate single passes this way).
    """
    ctx = context if context is not None else CompileContext(evaluator)
    with span("plan.compile"):
        started = time.perf_counter()
        normalized, labels, _ = evaluator.prepare(query)
        root = lower(normalized, labels)
        # Fingerprint the *lowered* tree, before optimization: the hash
        # identifies the normalized query shape, so the query log and
        # EXPLAIN ANALYZE key the same query the same way regardless of
        # which rewrite passes fire for a given engine.
        fingerprint = plan_fingerprint(root)
        root, reports = PassManager(rules).run(root, ctx)
        elapsed = time.perf_counter() - started
        compiled = CompiledPlan(source=query, normalized=normalized,
                                root=root, labels=labels, passes=reports,
                                compile_seconds=elapsed,
                                fingerprint=fingerprint)
        plan_metrics()["compiled"].inc()
        metrics_registry().histogram(COMPILE_SECONDS_METRIC).observe(elapsed)
    return compiled
