"""Rule-based plan rewriting: the optimizer's pass manager and rules.

Each rule is an independent, individually-testable pass over the logical
tree: ``apply(root, ctx) -> (new_root, fired)``.  The
:class:`PassManager` runs them in order, opens a ``plan.pass.<name>``
trace span around each, and bumps the ``repro.plan.rules_fired.<name>``
counter when a pass changes the plan -- so EXPLAIN, the query log and
the bench-scale sweep all see exactly which rules did work.

The default pipeline, in order:

1. ``virtual-at-expansion`` -- coerce textual ``<at 5Jan97>``-style
   annotation literals (the virtual annotations of Section 4.2.2, and
   pinned real annotations alike) into internal timestamps at compile
   time, so neither the executor nor later passes re-parse them.
2. ``index-selection`` -- when the engine has an annotation index,
   recognize the linear root-to-annotation chain ("events of kind K on
   this path with T in an interval"), seed the interval from the
   annotation's pinned time or ``in [a..b]`` range, fold the where
   clause into it, and replace the whole chain with a
   :class:`~repro.plan.ir.DeltaProject` (or
   :class:`~repro.plan.ir.VersionJoin` for ``<at [a..b]>``) over a
   :class:`~repro.plan.ir.TimeRangeScan` carrying the resolved
   :class:`~repro.plan.stats.RangePlan`.
3. ``predicate-reorder`` -- hoist cheap, pure filter conjuncts (operands
   are literals, time variables, or from-bound variables only) ahead of
   conjuncts that walk paths, preserving the relative order within each
   class.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..lorel.ast import (
    And,
    AnnotationExpr,
    Comparison,
    Condition,
    ExistsCond,
    FromItem,
    LikeCond,
    Literal,
    Not,
    Or,
    PathExpr,
    PathStep,
    TimeVar,
    VarRef,
)
from ..obs.events import emit_event
from ..obs.metrics import registry as metrics_registry
from ..obs.trace import span
from ..timestamps import Timestamp, is_timestamp_literal, parse_timestamp
from .ir import (
    DeltaProject,
    LogicalNode,
    PathExpand,
    Predicate,
    Project,
    Scan,
    TimeRangeScan,
    VersionJoin,
)
from .stats import TIME_LABELS, RangePlan

__all__ = ["CompileContext", "PassReport", "RewriteRule", "PassManager",
           "VirtualAtExpansion", "IndexSelection", "PredicateReorder",
           "default_rules", "RULE_NAMES", "plan_metrics", "fold_interval",
           "literal_time"]

RULE_NAMES = ("virtual-at-expansion", "index-selection",
              "predicate-reorder")

# Default result labels for an annotation's bound time variable, real
# kinds and cross-time kinds alike (mirrors the evaluator's
# default-label table).
_TIME_LABELS = {**TIME_LABELS,
                "changed": "change-time",
                "last-change": "last-change-time",
                "at": "at-time"}

_metrics_group = None


def plan_metrics():
    """The ``repro.plan`` counter family (kept alive module-wide)."""
    global _metrics_group
    if _metrics_group is None:
        _metrics_group = metrics_registry().group(
            "repro.plan",
            ("compiled",) + tuple(f"rules_fired.{name}"
                                  for name in RULE_NAMES))
    return _metrics_group


@dataclass
class CompileContext:
    """Everything a rewrite rule may consult about the compiling engine.

    ``allow_index`` is cleared when trigger pre-bindings are in play (the
    index scan cannot honor them); ``bound_names`` carries those
    pre-bound variable names for the predicate-reorder purity check.
    """

    evaluator: object
    view: object = None
    root_node: Optional[str] = None
    polling_times: dict = field(default_factory=dict)
    has_index: bool = False
    allow_index: bool = True
    bound_names: frozenset = frozenset()
    notes: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PassReport:
    """One pass's outcome, as shown by EXPLAIN."""

    name: str
    fired: bool
    note: Optional[str] = None


class RewriteRule:
    """Base class: a named, pure tree-to-tree rewrite."""

    name = "rewrite"

    def apply(self, root: LogicalNode,
              ctx: CompileContext) -> tuple[LogicalNode, bool]:
        raise NotImplementedError


class PassManager:
    """Runs rules in order with per-pass spans and fired counters."""

    def __init__(self, rules=None) -> None:
        self.rules = list(default_rules() if rules is None else rules)

    def run(self, root: LogicalNode,
            ctx: CompileContext) -> tuple[LogicalNode, tuple[PassReport, ...]]:
        metrics = plan_metrics()
        reports = []
        for rule in self.rules:
            with span(f"plan.pass.{rule.name}"):
                root, fired = rule.apply(root, ctx)
            if fired:
                counter = f"rules_fired.{rule.name}"
                if counter in metrics.fields:
                    metrics[counter].inc()
                emit_event("rule_fired", level="debug", rule=rule.name,
                           note=ctx.notes.get(rule.name))
            reports.append(PassReport(rule.name, fired,
                                      ctx.notes.get(rule.name)))
        return root, tuple(reports)


def default_rules() -> list[RewriteRule]:
    """The standard pipeline, in its required order."""
    return [VirtualAtExpansion(), IndexSelection(), PredicateReorder()]


# ---------------------------------------------------------------------------
# Chain-shape helpers shared by the rules
# ---------------------------------------------------------------------------

def linear_chain(root: LogicalNode):
    """Decompose ``Project(Predicate?(PathExpand*(Scan)))``.

    Returns ``(project, items, condition)`` with the from-items in
    evaluation order, or ``None`` when the tree has any other shape.
    """
    if not isinstance(root, Project):
        return None
    node = root.child
    condition = None
    if isinstance(node, Predicate):
        condition = node.condition
        node = node.child
    items: list[FromItem] = []
    while isinstance(node, PathExpand):
        items.append(node.item)
        node = node.child
    if not isinstance(node, Scan):
        return None
    items.reverse()
    return root, tuple(items), condition


def literal_time(expr, polling_times: dict) -> Timestamp | None:
    """Coerce a comparison operand to a timestamp, if possible."""
    if isinstance(expr, Literal):
        try:
            return parse_timestamp(expr.value)
        except Exception:
            return None
    if isinstance(expr, TimeVar):
        if expr.index in polling_times:
            return polling_times[expr.index]
    return None


def _annotation_time(value, polling_times: dict) -> Timestamp | None:
    """An annotation's own time operand (pin or range bound), resolved."""
    operand = value if isinstance(value, TimeVar) else Literal(value)
    return literal_time(operand, polling_times)


def fold_interval(condition: Condition, plan: RangePlan,
                  polling_times: dict) -> bool:
    """Fold a conjunction of T-vs-literal comparisons into the plan."""
    if isinstance(condition, And):
        return fold_interval(condition.left, plan, polling_times) and \
            fold_interval(condition.right, plan, polling_times)
    if not isinstance(condition, Comparison):
        return False
    left, op, right = condition.left, condition.op, condition.right
    if isinstance(right, VarRef) and right.name == plan.at_var:
        left, right = right, left
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
    if not (isinstance(left, VarRef) and left.name == plan.at_var):
        return False
    when = literal_time(right, polling_times)
    if when is None:
        return False
    return _narrow(plan, op, when)


def _narrow(plan: RangePlan, op: str, when: Timestamp) -> bool:
    """Intersect the plan's interval with ``T <op> when``."""
    if op in ("=", "=="):
        # An equality is the intersection of >= and <=.
        return _narrow(plan, ">=", when) and _narrow(plan, "<=", when)
    if op == ">":
        if when >= plan.low:
            plan.low, plan.include_low = when, False
    elif op == ">=":
        if when > plan.low:
            plan.low, plan.include_low = when, True
    elif op == "<":
        if when <= plan.high:
            plan.high, plan.include_high = when, False
    elif op == "<=":
        if when < plan.high:
            plan.high, plan.include_high = when, True
    else:
        return False
    return True


def _chain_labels_annotation(items, ctx):
    """Walk a root-anchored linear chain of plain labels.

    Returns ``(labels, annotation, on_arc)`` when the chain starts at a
    name resolving to the root, walks plain labels only, and carries
    exactly one annotation on its final step (``on_arc`` says which
    position); ``None`` for every other shape.
    """
    if not items:
        return None
    first = items[0]
    if ctx.view.resolve_name(first.path.start) != ctx.root_node:
        return None  # non-root entry points keep the general engine
    total = sum(len(item.path.steps) for item in items)
    labels: list[str] = []
    annotation: AnnotationExpr | None = None
    on_arc = False
    previous_var = None
    seen = 0
    for position, item in enumerate(items):
        if position > 0 and (previous_var is None
                             or item.path.start != previous_var):
            return None  # not one linear root-anchored walk
        if not item.path.steps:
            return None
        for step in item.path.steps:
            seen += 1
            is_last = seen == total
            if not step.is_plain:
                return None
            if step.arc_annotation is not None:
                if not is_last or step.node_annotation is not None:
                    return None
                annotation = step.arc_annotation
                on_arc = True
            if step.node_annotation is not None:
                if not is_last:
                    return None
                annotation = step.node_annotation
                on_arc = False
            labels.append(step.label)
        previous_var = item.var
    if annotation is None:
        return None
    return tuple(labels), annotation, on_arc


def _select_supported(plan: RangePlan) -> bool:
    """Only the subject object and annotation variables may be selected."""
    allowed = {plan.at_var, plan.from_var, plan.to_var} - {None}
    for item in plan.select:
        expr = item.expr
        if isinstance(expr, PathExpr) and expr.steps:
            continue  # the hoisted subject path itself (raw-query plans)
        if isinstance(expr, PathExpr):
            expr = VarRef(expr.start)
        if isinstance(expr, VarRef) and (
                expr.name in allowed or expr.name == plan.object_var):
            continue
        return False
    return True


# ---------------------------------------------------------------------------
# Pass 1: virtual-annotation <at T> expansion
# ---------------------------------------------------------------------------

class VirtualAtExpansion(RewriteRule):
    """Resolve annotation time literals once, at compile time.

    Two expansions, applied to every annotation in the from and where
    clauses (the virtual ``<at T>`` annotations of Section 4.2.2 are the
    main customer, pinned real annotations benefit identically):

    * textual timestamps (``<at "5Jan97">`` in programmatically built
      ASTs) are coerced to internal :class:`~repro.timestamps.Timestamp`
      values, so path evaluation never re-parses per binding;
    * polling-time variables (``<at t[0]>``) whose index the engine's
      polling table resolves are expanded to their concrete timestamps --
      unresolvable indexes are left alone so evaluation raises exactly
      the error the legacy path would.
    """

    name = "virtual-at-expansion"

    def apply(self, root, ctx):
        self._changed = False
        self._polling = ctx.polling_times
        rebuilt = self._node(root)
        if self._changed:
            ctx.notes[self.name] = "expanded annotation time literals"
        return rebuilt, self._changed

    # -- tree walk ------------------------------------------------------

    def _node(self, node):
        if isinstance(node, Project):
            return replace(node, child=self._node(node.child))
        if isinstance(node, Predicate):
            child = self._node(node.child) if node.child is not None else None
            return replace(node, condition=self._condition(node.condition),
                           child=child)
        if isinstance(node, PathExpand):
            child = self._node(node.child) if node.child is not None else None
            item = replace(node.item, path=self._path(node.item.path))
            return replace(node, item=item, child=child)
        return node

    def _condition(self, condition):
        if isinstance(condition, (And, Or)):
            return replace(condition, left=self._condition(condition.left),
                           right=self._condition(condition.right))
        if isinstance(condition, Not):
            return replace(condition, operand=self._condition(
                condition.operand))
        if isinstance(condition, Comparison):
            return replace(condition, left=self._expr(condition.left),
                           right=self._expr(condition.right))
        if isinstance(condition, LikeCond):
            return replace(condition, expr=self._expr(condition.expr))
        if isinstance(condition, ExistsCond):
            return replace(condition, path=self._path(condition.path),
                           condition=self._condition(condition.condition))
        return condition

    def _expr(self, expr):
        if isinstance(expr, PathExpr):
            return self._path(expr)
        return expr

    def _path(self, path: PathExpr) -> PathExpr:
        return replace(path, steps=tuple(self._step(step)
                                         for step in path.steps))

    def _step(self, step: PathStep) -> PathStep:
        return replace(step,
                       arc_annotation=self._annotation(step.arc_annotation),
                       node_annotation=self._annotation(step.node_annotation))

    def _annotation(self, annotation: AnnotationExpr | None):
        if annotation is None or annotation.at_literal is None:
            return annotation
        literal = annotation.at_literal
        if isinstance(literal, str) and is_timestamp_literal(literal):
            self._changed = True
            return replace(annotation, at_literal=parse_timestamp(literal))
        if isinstance(literal, TimeVar) and literal.index in self._polling:
            self._changed = True
            return replace(annotation,
                           at_literal=self._polling[literal.index])
        return annotation


# ---------------------------------------------------------------------------
# Pass 2: index selection
# ---------------------------------------------------------------------------

class IndexSelection(RewriteRule):
    """Rewrite annotation chains into timestamp-index range scans.

    A servable chain is a linear walk from a database name that resolves
    to the root, through plain labels only, ending in exactly one
    annotation that names change events: a real annotation (its 1-tuple
    of kinds), ``<changed>`` / ``<last-change>`` (node position scans
    ``cre``/``upd`` events, arc position ``add``/``rem``), or the
    version-enumerating ``<at [a..b]>``.  The scan interval starts as the
    annotation's ``in [a..b]`` range, a pinned time (``<add at 5Jan97>``)
    intersects it with the degenerate ``[t, t]``, and the where clause
    must fold into it entirely.  The whole chain becomes a
    :class:`~repro.plan.ir.DeltaProject` (or
    :class:`~repro.plan.ir.VersionJoin` for versions) over a
    :class:`~repro.plan.ir.TimeRangeScan`.

    Requires an attached annotation index, no trigger pre-bindings, and
    a select list the row builder supports; every other shape keeps the
    general evaluator, which serves every annotation form directly.
    """

    name = "index-selection"

    def apply(self, root, ctx):
        if ctx.view is None or ctx.root_node is None \
                or not (ctx.has_index and ctx.allow_index):
            return root, False
        chain = linear_chain(root)
        if chain is None:
            return root, False
        project, items, condition = chain
        walked = _chain_labels_annotation(items, ctx)
        if walked is None:
            return root, False
        labels, annotation, on_arc = walked
        kinds = self._event_kinds(annotation, on_arc)
        if kinds is None:
            return root, False
        versions = annotation.kind == "at"
        plan = RangePlan(
            kinds=kinds,
            labels=labels,
            root_name=items[0].path.start,
            # Anonymous annotations (<add>) scan the full time axis.
            at_var=annotation.at_var or "__anon_T",
            from_var=annotation.from_var,
            to_var=annotation.to_var,
            object_var=items[-1].var,
            last_only=annotation.kind == "last-change",
            select=project.select,
            object_label=labels[-1],
            time_label=_TIME_LABELS[annotation.kind],
        )
        pinned = annotation.at_literal is not None
        if (plan.last_only or versions) and (pinned or condition is not None):
            # Narrowing the scan filters per event, which does not
            # commute with last-only selection or with the version
            # anchor -- those shapes keep the general engine when a pin
            # or a where clause would narrow them.
            return root, False
        if not self._seed_range(plan, annotation.in_range, ctx):
            return root, False
        if pinned:
            when = _annotation_time(annotation.at_literal, ctx.polling_times)
            if when is None:
                return root, False
            _narrow(plan, "=", when)
        if condition is not None and \
                not fold_interval(condition, plan, ctx.polling_times):
            return root, False
        if not _select_supported(plan):
            return root, False
        scan = TimeRangeScan(plan)
        terminal = VersionJoin(plan, scan) if versions \
            else DeltaProject(plan, scan)
        ctx.notes[self.name] = plan.describe()
        return terminal, True

    @staticmethod
    def _event_kinds(annotation: AnnotationExpr,
                     on_arc: bool) -> tuple[str, ...] | None:
        kind = annotation.kind
        if kind in ("changed", "last-change"):
            return ("add", "rem") if on_arc else ("cre", "upd")
        if kind in TIME_LABELS:
            return (kind,)
        if kind == "at" and annotation.in_range is not None:
            # Version enumeration; the parser only allows the range-
            # restricted <at> in node position.  The plain virtual
            # <at t> reads one state, not events.
            return ("cre", "upd")
        return None

    @staticmethod
    def _seed_range(plan: RangePlan, rng, ctx) -> bool:
        """Resolve the annotation's ``[a..b]`` bounds into the plan."""
        if rng is None:
            return True  # unrestricted: the full time axis
        for bound, attr in ((rng.low, "low"), (rng.high, "high")):
            if bound is None:
                continue
            when = _annotation_time(bound, ctx.polling_times)
            if when is None:
                return False  # unresolvable bound: keep the general engine
            setattr(plan, attr, when)
        return True


# ---------------------------------------------------------------------------
# Pass 3: predicate reordering
# ---------------------------------------------------------------------------

class PredicateReorder(RewriteRule):
    """Evaluate cheap pure filters before path-walking conjuncts.

    A conjunct is *pure* when every operand is a literal, a polling-time
    variable, or a variable the from clause (or a trigger pre-binding)
    is guaranteed to have bound -- so hoisting it can only prune earlier,
    never change bindings.  Conjuncts keep their relative order within
    the pure and non-pure classes, preserving the evaluator's
    deterministic enumeration.
    """

    name = "predicate-reorder"

    def apply(self, root, ctx):
        chain = linear_chain(root)
        if chain is None:
            return root, False
        project, items, condition = chain
        if condition is None:
            return root, False
        bound = self._bound_names(items) | set(ctx.bound_names)
        conjuncts = self._conjuncts(condition)
        if len(conjuncts) < 2:
            return root, False
        pure = [c for c in conjuncts if self._is_pure(c, bound)]
        rest = [c for c in conjuncts if not self._is_pure(c, bound)]
        reordered = pure + rest
        if reordered == conjuncts:
            return root, False
        rebuilt = reordered[0]
        for part in reordered[1:]:
            rebuilt = And(rebuilt, part)
        predicate = root.child
        new_root = replace(project,
                           child=replace(predicate, condition=rebuilt))
        ctx.notes[self.name] = f"hoisted {len(pure)} pure filter(s)"
        return new_root, True

    def _bound_names(self, items) -> set[str]:
        bound: set[str] = set()
        for item in items:
            if item.var:
                bound.add(item.var)
            for step in item.path.steps:
                for annotation in (step.arc_annotation,
                                   step.node_annotation):
                    if annotation is None:
                        continue
                    for name in (annotation.at_var, annotation.from_var,
                                 annotation.to_var):
                        if name:
                            bound.add(name)
        return bound

    def _conjuncts(self, condition) -> list:
        if isinstance(condition, And):
            return self._conjuncts(condition.left) + \
                self._conjuncts(condition.right)
        return [condition]

    def _is_pure(self, condition, bound: set[str]) -> bool:
        if isinstance(condition, Comparison):
            return self._pure_expr(condition.left, bound) and \
                self._pure_expr(condition.right, bound)
        if isinstance(condition, LikeCond):
            return self._pure_expr(condition.expr, bound)
        if isinstance(condition, Not):
            return self._is_pure(condition.operand, bound)
        if isinstance(condition, Or):
            return self._is_pure(condition.left, bound) and \
                self._is_pure(condition.right, bound)
        return False  # ExistsCond and anything unknown walks data

    @staticmethod
    def _pure_expr(expr, bound: set[str]) -> bool:
        if isinstance(expr, VarRef):
            return expr.name in bound
        return isinstance(expr, (Literal, TimeVar))
