"""repro.plan -- the staged query planner all four engines share.

Three stages (see ``docs/query-planner.md``):

1. **Logical IR** (:mod:`repro.plan.ir`): ``Scan`` / ``PathExpand`` /
   ``Predicate`` / ``Project`` / ``Exchange`` plus the index trio
   ``TimeRangeScan`` / ``DeltaProject`` / ``VersionJoin``, lowered from
   the normalized Lorel/Chorel AST (:mod:`repro.plan.lowering`).
2. **Rewrite passes** (:mod:`repro.plan.rules`): a rule-based
   :class:`PassManager` running virtual-``<at T>`` expansion, index
   selection, and predicate reordering -- each with its own trace span
   and fired counter.
3. **Physical operators** (:mod:`repro.plan.physical`): one batched
   operator model (:mod:`repro.plan.batch`) whose kernels are the
   evaluator's staged methods, plus the index kernel (merged
   timestamp-index scans; a single-time annotation is its one-kind
   ``[t, t]`` case) and the sharding ``Exchange``.

Engines call :func:`compile_query` then :func:`execute_plan`; the
:class:`CompiledPlan` in between is what ``repro explain`` renders.
"""

from .analyze import OpStats, PlanStats, plan_fingerprint
from .batch import DEFAULT_BATCH_SIZE, EnvBatch, compile_predicate
from .compiler import CompiledPlan, compile_query
from .ir import (
    DeltaProject,
    Exchange,
    LogicalNode,
    PathExpand,
    Predicate,
    Project,
    Scan,
    TimeRangeScan,
    VersionJoin,
    render,
)
from .lowering import lower
from .physical import (
    ExecutionContext,
    execute_plan,
    execute_range_plan,
    insert_exchange,
    run_compiled,
)
from .rules import (
    CompileContext,
    IndexSelection,
    PassManager,
    PassReport,
    PredicateReorder,
    RewriteRule,
    VirtualAtExpansion,
    default_rules,
)
from .stats import EngineStats, RangePlan

__all__ = [
    "CompileContext",
    "CompiledPlan",
    "DeltaProject",
    "DEFAULT_BATCH_SIZE",
    "EnvBatch",
    "compile_predicate",
    "EngineStats",
    "Exchange",
    "ExecutionContext",
    "IndexSelection",
    "LogicalNode",
    "OpStats",
    "PassManager",
    "PassReport",
    "PathExpand",
    "PlanStats",
    "Predicate",
    "PredicateReorder",
    "Project",
    "RangePlan",
    "RewriteRule",
    "Scan",
    "TimeRangeScan",
    "VersionJoin",
    "VirtualAtExpansion",
    "compile_query",
    "default_rules",
    "execute_plan",
    "execute_range_plan",
    "insert_exchange",
    "lower",
    "plan_fingerprint",
    "render",
    "run_compiled",
]
