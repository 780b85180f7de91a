"""The Lorel/Chorel evaluator.

One evaluator serves plain Lorel over OEM, native Chorel over DOEM, and
translated Chorel over the OEM encoding -- the differences live entirely
in the :mod:`~repro.lorel.views` layer.  The implementation follows the
semantics of Section 4.2.1 operationally:

1. **Normalization** -- annotation expressions are put in canonical form
   (all variables materialized); select-clause path expressions move into
   the from clause with fresh range variables (the rewriting shown in
   Example 4.3).
2. **From clause** -- each item extends a stream of environments: the path
   is matched against the data, binding the range variable to the final
   object and any annotation variables along the way (the
   ``creFun``/``updFun``/``addFun``/``remFun`` bindings).
3. **Where clause** -- conditions are *solved*: a condition maps an
   environment to the stream of extended environments that satisfy it,
   giving existential semantics to variables introduced inside the where
   clause (Example 4.5) while letting bindings flow across ``and``.
4. **Select clause** -- each satisfying from-environment emits one row;
   results are sets (duplicates dropped).

Environments bind variables to :class:`Binding` values: an object (node id
plus optional virtual-annotation time context) or a scalar.

The staged public API (:meth:`Evaluator.prepare`,
:meth:`Evaluator.bind_from_item`, :meth:`Evaluator.from_envs`,
:meth:`Evaluator.satisfies`, :meth:`Evaluator.make_row` /
:meth:`Evaluator.project_row`) doubles as the kernel set of the query
planner's physical operators (:mod:`repro.plan.physical`): ``PathExpand``
wraps ``bind_from_item``, ``Predicate`` wraps ``solve``, ``Project``
wraps ``project_row``.  :meth:`Evaluator.run` remains the single-pass
legacy path -- engines keep it reachable via ``use_planner=False`` as the
differential oracle the equivalence suites compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..errors import EvaluationError
from ..obs.trace import span
from ..oem.values import COMPLEX, compare, holds, like
from ..timestamps import POS_INF, Timestamp, parse_timestamp
from .ast import (
    And,
    AnnotationExpr,
    Comparison,
    Condition,
    ExistsCond,
    Expr,
    FreshNames,
    FromItem,
    LikeCond,
    Literal,
    Not,
    Or,
    PathExpr,
    PathStep,
    Query,
    SelectItem,
    TimeVar,
    VarRef,
)
from .result import ObjectRef, QueryResult, Row
from .views import DataView

__all__ = ["Evaluator", "Binding", "NodeBinding", "default_labels"]

_ANNOTATION_DEFAULT_LABELS = {
    ("cre", "at"): "create-time",
    ("add", "at"): "add-time",
    ("rem", "at"): "remove-time",
    ("upd", "at"): "update-time",
    ("at", "at"): "at-time",
    ("changed", "at"): "change-time",
    ("last-change", "at"): "last-change-time",
    ("upd", "from"): "old-value",
    ("upd", "to"): "new-value",
}

_MAX_WILDCARD_DEPTH = 64


@dataclass(frozen=True)
class NodeBinding:
    """A variable bound to an object, with an optional time context.

    ``at`` is set by the virtual ``<at T>`` annotation; value accesses and
    further navigation then happen "as of" that time.
    """

    node: str
    at: Timestamp | None = None


Binding = object
"""A binding is a :class:`NodeBinding` or a plain scalar value."""

Env = dict
"""Environments are plain dicts from variable names to bindings."""

TIMEVARS_KEY = "__polling_times__"
"""Env key holding the QSS polling-time mapping for ``t[i]`` variables."""


def default_labels(query: Query) -> dict[str, str]:
    """Default result labels for every variable in the query.

    For a range variable over a path, the label is the path's last label
    (``R`` over ``guide.restaurant`` -> ``restaurant``).  Time and data
    variables bound in annotation expressions get the paper's defaults:
    ``create-time``, ``add-time``, ``remove-time``, ``update-time``,
    ``new-value``, ``old-value`` (Example 4.4).
    """
    labels: dict[str, str] = {}

    def scan_annotation(annotation: AnnotationExpr | None) -> None:
        if annotation is None:
            return
        if annotation.at_var:
            labels.setdefault(annotation.at_var,
                              _ANNOTATION_DEFAULT_LABELS[(annotation.kind, "at")])
        if annotation.from_var:
            labels.setdefault(annotation.from_var, "old-value")
        if annotation.to_var:
            labels.setdefault(annotation.to_var, "new-value")

    def scan_path(path: PathExpr) -> None:
        for step in path.steps:
            scan_annotation(step.arc_annotation)
            scan_annotation(step.node_annotation)

    for item in query.from_items:
        scan_path(item.path)
        if item.var and item.path.steps:
            last = item.path.steps[-1].label
            labels.setdefault(item.var, last if last != "#" else item.var)

    def scan_condition(condition: Condition | None) -> None:
        if condition is None:
            return
        if isinstance(condition, (And, Or)):
            scan_condition(condition.left)
            scan_condition(condition.right)
        elif isinstance(condition, Not):
            scan_condition(condition.operand)
        elif isinstance(condition, ExistsCond):
            scan_path(condition.path)
            scan_condition(condition.condition)
        elif isinstance(condition, Comparison):
            for side in (condition.left, condition.right):
                if isinstance(side, PathExpr):
                    scan_path(side)
        elif isinstance(condition, LikeCond):
            if isinstance(condition.expr, PathExpr):
                scan_path(condition.expr)

    scan_condition(query.where)
    del scan_condition  # recursive closures hold themselves: break the cycle
    return labels


class Evaluator:
    """Evaluates normalized queries against a :class:`DataView`."""

    def __init__(self, view: DataView) -> None:
        self.view = view

    # ==================================================================
    # Normalization
    # ==================================================================

    def normalize(self, query: Query) -> Query:
        """Rewrite the query into range-variable normal form.

        Mirrors the paper's OQL-like rewriting (Section 4.2.1):

        * annotation expressions get canonical form (all variables
          materialized): ``<add>`` -> ``<add at _T1>``;
        * every path expression in the select and from clauses is broken
          into a chain of single-step from items, and **textually shared
          prefixes unify to the same range variable** -- Example 4.4's two
          from paths ``guide.restaurant.price<...>`` and
          ``guide.restaurant.name N`` both range over one restaurant
          variable, and Example 4.1's where path ``guide.restaurant.price``
          constrains the *selected* ``guide.restaurant``;
        * where-clause path expressions are re-rooted at the longest
          registered prefix and stay existential in place (Example 4.5).
        """
        fresh = FreshNames()
        prefix_vars: dict[tuple, str] = {}
        new_from: list[FromItem] = []

        def canon_step(step: PathStep) -> PathStep:
            arc = step.arc_annotation.canonical(fresh) if step.arc_annotation else None
            node = step.node_annotation.canonical(fresh) if step.node_annotation else None
            return PathStep(step.label, arc, node, step.repetition)

        def key_of(start: str, steps: tuple[PathStep, ...]) -> tuple:
            return (start, tuple(str(step) for step in steps))

        def var_for(path: PathExpr, explicit_var: str | None = None) -> str:
            """The range variable denoting ``path``; registers a chain of
            single-step from items for unseen prefixes."""
            if not path.steps:
                return path.start
            key = key_of(path.start, path.steps)
            if explicit_var is None and key in prefix_vars:
                return prefix_vars[key]
            parent = var_for(PathExpr(path.start, path.steps[:-1]))
            var = explicit_var or fresh.next("X")
            prefix_vars.setdefault(key, var)
            new_from.append(FromItem(PathExpr(parent, (canon_step(path.steps[-1]),)),
                                     var))
            return var

        # From clause first, so explicit variables win prefix registration.
        for item in query.from_items:
            if not item.path.steps:
                new_from.append(FromItem(item.path, item.var))
                if item.var:
                    prefix_vars.setdefault(key_of(item.path.start, ()), item.var)
                continue
            var_for(item.path, explicit_var=item.var or fresh.next("X"))

        # Select clause: hoist paths onto (possibly shared) range variables.
        select: list[SelectItem] = []
        for item in query.select:
            expr = item.expr
            if isinstance(expr, PathExpr) and expr.steps:
                var = var_for(expr)
                last = expr.steps[-1].label
                label = item.label or (last if last != "#" else "answer")
                select.append(SelectItem(VarRef(var), label))
            elif isinstance(expr, PathExpr):
                select.append(SelectItem(VarRef(expr.start), item.label))
            else:
                select.append(SelectItem(expr, item.label))

        # Where clause: re-root paths at the longest registered prefix.
        def reroot(path: PathExpr) -> PathExpr:
            for cut in range(len(path.steps), 0, -1):
                key = key_of(path.start, path.steps[:cut])
                if key in prefix_vars:
                    rest = tuple(canon_step(s) for s in path.steps[cut:])
                    return PathExpr(prefix_vars[key], rest)
            return PathExpr(path.start,
                            tuple(canon_step(s) for s in path.steps))

        def rewrite_expr(expr: Expr) -> Expr:
            if isinstance(expr, PathExpr) and expr.steps:
                return reroot(expr)
            return expr

        def rewrite_cond(condition: Condition) -> Condition:
            if isinstance(condition, And):
                return And(rewrite_cond(condition.left), rewrite_cond(condition.right))
            if isinstance(condition, Or):
                return Or(rewrite_cond(condition.left), rewrite_cond(condition.right))
            if isinstance(condition, Not):
                return Not(rewrite_cond(condition.operand))
            if isinstance(condition, ExistsCond):
                return ExistsCond(condition.var, reroot(condition.path),
                                  rewrite_cond(condition.condition))
            if isinstance(condition, Comparison):
                return Comparison(rewrite_expr(condition.left), condition.op,
                                  rewrite_expr(condition.right))
            if isinstance(condition, LikeCond):
                return LikeCond(rewrite_expr(condition.expr), condition.pattern)
            raise EvaluationError(f"unknown condition: {condition!r}")

        where = rewrite_cond(query.where) if query.where is not None else None
        del var_for, rewrite_cond  # recursive closures: break their cycles
        return Query(tuple(select), tuple(new_from), where)

    # ==================================================================
    # Path evaluation
    # ==================================================================

    def resolve_start(self, path: PathExpr, env: Env) -> NodeBinding:
        """Resolve the first component of a path to a bound object."""
        if path.start in env:
            binding = env[path.start]
            if not isinstance(binding, NodeBinding):
                raise EvaluationError(
                    f"variable {path.start!r} is bound to a scalar and "
                    f"cannot start a path")
            return binding
        entry = self.view.resolve_name(path.start)
        if entry is None:
            raise EvaluationError(
                f"unknown name or unbound variable {path.start!r}")
        return NodeBinding(entry)

    def eval_path(self, path: PathExpr, env: Env) -> Iterator[tuple[NodeBinding, Env]]:
        """All ``(final object, extended environment)`` matches of a path."""
        try:
            start = self.resolve_start(path, env)
        except EvaluationError:
            raise
        yield from self._walk(start, path.steps, 0, env)

    def _walk(self, binding: NodeBinding, steps: tuple[PathStep, ...],
              index: int, env: Env) -> Iterator[tuple[NodeBinding, Env]]:
        if index == len(steps):
            yield binding, env
            return
        step = steps[index]
        for child_binding, child_env in self.expand_step(binding, step, env):
            yield from self._walk(child_binding, steps, index + 1, child_env)

    def expand_step(self, binding: NodeBinding, step: PathStep,
                    env: Env) -> Iterator[tuple[NodeBinding, Env]]:
        """All matches of one path step from one bound object.

        The single-step kernel both traversal strategies share: the
        depth-first :meth:`_walk` recursion applies it per branch, and the
        batched frontier traversal (:meth:`bind_from_item_batch`) applies
        it level-synchronously across a whole environment batch.  Match
        order is data order, which is what makes the two strategies
        enumerate identical streams.
        """
        if step.is_wildcard:
            if step.arc_annotation:
                raise EvaluationError(
                    "arc annotation expressions on the '#' wildcard are "
                    "ambiguous and not supported; node annotations "
                    "(#<cre at T>) are")
            for descendant in self._wildcard_closure(binding):
                if step.node_annotation is not None:
                    # The Section 7 generalization: a node annotation on
                    # '#' matches any reachable object bearing it.
                    yield from self._node_matches(
                        descendant.node, step.node_annotation, env)
                else:
                    yield descendant, env
            return
        if step.repetition is not None:
            # GPE closure: zero-or-more / one-or-more same-labeled hops.
            for reached in self._label_closure(binding, step):
                if step.node_annotation is not None:
                    yield from self._node_matches(
                        reached.node, step.node_annotation, env)
                else:
                    yield reached, env
            return
        yield from self._step_matches(binding, step, env)

    def _wildcard_closure(self, binding: NodeBinding) -> Iterator[NodeBinding]:
        """``#`` matches any path of length >= 0: the reachable closure."""
        seen = {binding.node}
        queue = [binding]
        depth = 0
        while queue and depth < _MAX_WILDCARD_DEPTH:
            next_queue: list[NodeBinding] = []
            for current in queue:
                yield current
                if self.view.value(current.node) is not COMPLEX:
                    continue
                for label in list(self._labels_for(current)):
                    if label.startswith("&"):
                        # Reserved encoding labels are never wildcarded:
                        # '#' must see only the current-snapshot structure.
                        continue
                    for child in self._plain_children(current, label):
                        if child not in seen:
                            seen.add(child)
                            next_queue.append(NodeBinding(child, current.at))
            queue = next_queue
            depth += 1

    def _label_closure(self, binding: NodeBinding,
                       step: PathStep) -> Iterator[NodeBinding]:
        """``label*`` / ``label+``: nodes reachable by same-labeled hops.

        Cycle-safe BFS; ``*`` includes the start object itself, ``+``
        requires at least one hop.  Alternation labels close over the
        union of their alternatives.
        """
        labels = step.alternatives if step.is_alternation else (step.label,)
        seen: set[str] = set()
        if step.repetition == "*":
            # Zero hops: the start itself.  Under '+', the start is only
            # reachable through a cycle of >= 1 hop, so it is NOT seeded
            # into `seen` -- a cycle back to it must yield it.
            seen.add(binding.node)
            yield binding
        frontier = [binding]
        while frontier:
            next_frontier: list[NodeBinding] = []
            for current in frontier:
                if self.view.value(current.node) is not COMPLEX:
                    continue
                for label in labels:
                    for child in self._plain_children(current, label):
                        if child not in seen:
                            seen.add(child)
                            reached = NodeBinding(child, current.at)
                            yield reached
                            next_frontier.append(reached)
            frontier = next_frontier

    def _labels_for(self, binding: NodeBinding) -> Iterator[str]:
        return self.view.labels(binding.node)

    def _plain_children(self, binding: NodeBinding, label: str) -> Iterator[str]:
        if binding.at is not None:
            return self.view.children_at(binding.node, label, binding.at)
        return self.view.children(binding.node, label)

    def _step_matches(self, binding: NodeBinding, step: PathStep,
                      env: Env) -> Iterator[tuple[NodeBinding, Env]]:
        """Matches of one (possibly annotated) step from one object."""
        if step.label == "":
            # A start-anchored node annotation: stay on this object (which
            # may be atomic) and match the annotation in place.
            yield from self._node_matches(binding.node,
                                          step.node_annotation, env)
            return
        if self.view.value(binding.node) is not COMPLEX:
            return
        annotated = step.arc_annotation is not None
        if step.is_pattern:
            labels = list(self.view.matching_labels(
                binding.node, step.label, include_dead=annotated))
        elif step.is_alternation:
            labels = list(step.alternatives)
        else:
            labels = [step.label]

        for label in labels:
            for child, env_after_arc in self._arc_matches(
                    binding, label, step.arc_annotation, env):
                yield from self._node_matches(
                    child, step.node_annotation, env_after_arc)

    # -- arcs ------------------------------------------------------------

    def _arc_matches(self, binding: NodeBinding, label: str,
                     annotation: AnnotationExpr | None,
                     env: Env) -> Iterator[tuple[str, Env]]:
        node = binding.node
        if annotation is None:
            for child in self._plain_children(binding, label):
                yield child, env
            return
        if annotation.kind == "add":
            pairs = self.view.add_fun(node, label)
        elif annotation.kind == "rem":
            pairs = self.view.rem_fun(node, label)
        elif annotation.kind == "at":
            when = self._resolve_at(annotation, env)
            for child in self.view.children_at(node, label, when):
                yield child, env
            return
        elif annotation.kind in ("changed", "last-change"):
            yield from self._arc_change_matches(node, label, annotation, env)
            return
        else:  # pragma: no cover - parser prevents this
            raise EvaluationError(f"bad arc annotation kind {annotation.kind!r}")
        for when, child in pairs:
            extended = self._bind_time(annotation, when, env)
            if extended is not None:
                yield child, extended

    def _arc_change_matches(self, node: str, label: str,
                            annotation: AnnotationExpr,
                            env: Env) -> Iterator[tuple[str, Env]]:
        """Cross-time arc kinds: ``changed`` is the add/rem event union,
        ``last-change`` keeps only the most recent in-range event per
        child.  Events enumerate in (time, add-before-rem, child) order so
        every evaluation strategy replays the identical stream.
        """
        events = [(when, 0, str(child), child)
                  for when, child in self.view.add_fun(node, label)]
        events += [(when, 1, str(child), child)
                   for when, child in self.view.rem_fun(node, label)]
        events.sort(key=lambda e: (e[0]._order_key(), e[1], e[2]))
        if annotation.kind == "last-change":
            bounds = self._range_bounds(annotation, env)
            latest: dict[str, tuple] = {}
            for event in events:
                if self._within(event[0], bounds):
                    latest[event[2]] = event
            events = sorted(latest.values(),
                            key=lambda e: (e[0]._order_key(), e[1], e[2]))
        for when, _rank, _key, child in events:
            extended = self._bind_time(annotation, when, env)
            if extended is not None:
                yield child, extended

    # -- nodes -----------------------------------------------------------

    def _node_matches(self, child: str, annotation: AnnotationExpr | None,
                      env: Env) -> Iterator[tuple[NodeBinding, Env]]:
        if annotation is None:
            yield NodeBinding(child), env
            return
        if annotation.kind == "cre":
            for when in self.view.cre_fun(child):
                extended = self._bind_time(annotation, when, env)
                if extended is not None:
                    yield NodeBinding(child), extended
            return
        if annotation.kind == "upd":
            for when, old_value, new_value in self.view.upd_fun(child):
                extended = self._bind_time(annotation, when, env)
                if extended is None:
                    continue
                extended = self._bind_var(annotation.from_var, old_value, extended)
                if extended is None:
                    continue
                extended = self._bind_var(annotation.to_var, new_value, extended)
                if extended is not None:
                    yield NodeBinding(child), extended
            return
        if annotation.kind == "at":
            if annotation.in_range is not None:
                yield from self._version_matches(child, annotation, env)
                return
            when = self._resolve_at(annotation, env)
            yield NodeBinding(child, when), env
            return
        if annotation.kind in ("changed", "last-change"):
            yield from self._node_change_matches(child, annotation, env)
            return
        raise EvaluationError(  # pragma: no cover - parser prevents this
            f"bad node annotation kind {annotation.kind!r}")

    def _node_change_matches(self, child: str, annotation: AnnotationExpr,
                             env: Env) -> Iterator[tuple[NodeBinding, Env]]:
        """Cross-time node kinds: ``changed`` is the cre/upd event union,
        ``last-change`` keeps only the most recent in-range event.
        Events enumerate in (time, cre-before-upd) order.
        """
        events = [(when, 0) for when in self.view.cre_fun(child)]
        events += [(when, 1) for when, _old, _new in self.view.upd_fun(child)]
        events.sort(key=lambda e: (e[0]._order_key(), e[1]))
        if annotation.kind == "last-change":
            bounds = self._range_bounds(annotation, env)
            events = [e for e in events if self._within(e[0], bounds)][-1:]
        for when, _rank in events:
            extended = self._bind_time(annotation, when, env)
            if extended is not None:
                yield NodeBinding(child), extended

    def _version_matches(self, child: str, annotation: AnnotationExpr,
                         env: Env) -> Iterator[tuple[NodeBinding, Env]]:
        """The range form of the virtual annotation: ``<at [a..b]>``
        enumerates the node's *versions* over the interval -- its state at
        the range start (when the node already existed), plus one state
        per cre/upd event inside the range.  Each match carries the
        version time as the binding's time context, so value reads and
        further navigation happen "as of" that version.
        """
        low, high = self._range_bounds(annotation, env)
        events = sorted(
            {when for when in self.view.cre_fun(child)}
            | {when for when, _old, _new in self.view.upd_fun(child)},
            key=lambda when: when._order_key())
        times: list[Timestamp] = []
        if low is not None:
            creations = list(self.view.cre_fun(child))
            if not creations or min(creations) <= low:
                times.append(low)
        for when in events:
            if not self._within(when, (low, high)):
                continue
            if times and when == times[-1]:
                continue
            times.append(when)
        for when in times:
            extended = self._bind_time(annotation, when, env)
            if extended is not None:
                yield NodeBinding(child, when), extended

    # -- binding helpers ---------------------------------------------------

    def _resolve_at(self, annotation: AnnotationExpr, env: Env) -> Timestamp:
        """The time pinned by a virtual ``<at ...>`` annotation."""
        if annotation.at_literal is not None:
            literal = annotation.at_literal
            if isinstance(literal, TimeVar):
                return self._polling_time(literal, env)
            return parse_timestamp(literal)
        if annotation.at_var is not None:
            if annotation.at_var not in env:
                raise EvaluationError(
                    f"virtual annotation <at {annotation.at_var}> needs "
                    f"{annotation.at_var!r} to be bound already")
            value = env[annotation.at_var]
            if isinstance(value, NodeBinding):
                value = self._value_of(value)
            return parse_timestamp(value)
        raise EvaluationError("virtual annotation <at> without a time")

    def _range_bounds(self, annotation: AnnotationExpr,
                      env: Env) -> tuple[Timestamp | None, Timestamp | None]:
        """The annotation's resolved (low, high) bounds; ``None`` is open."""
        rng = annotation.in_range
        if rng is None:
            return None, None
        return (self._resolve_bound(rng.low, env),
                self._resolve_bound(rng.high, env))

    def _resolve_bound(self, bound: object, env: Env) -> Timestamp | None:
        if bound is None:
            return None
        if isinstance(bound, TimeVar):
            return self._polling_time(bound, env)
        return parse_timestamp(bound)

    @staticmethod
    def _within(when: Timestamp,
                bounds: tuple[Timestamp | None, Timestamp | None]) -> bool:
        """Is ``when`` inside the closed interval?  Both bounds inclusive."""
        low, high = bounds
        if low is not None and when < low:
            return False
        if high is not None and high < when:
            return False
        return True

    def _bind_time(self, annotation: AnnotationExpr, when: Timestamp,
                   env: Env) -> Env | None:
        """Bind/join the annotation's time slot against ``when``, after
        filtering against the annotation's ``in_range`` restriction."""
        if annotation.in_range is not None and \
                not self._within(when, self._range_bounds(annotation, env)):
            return None
        if annotation.at_literal is not None:
            literal = annotation.at_literal
            if isinstance(literal, TimeVar):
                pinned = self._polling_time(literal, env)
            else:
                pinned = parse_timestamp(literal)
            return env if when == pinned else None
        return self._bind_var(annotation.at_var, when, env)

    @staticmethod
    def _bind_var(name: str | None, value: object, env: Env) -> Env | None:
        """Bind ``name`` to ``value``; join (filter) when already bound."""
        if name is None:
            return env
        if name in env:
            existing = env[name]
            return env if compare(existing, value, "=") or existing == value \
                else None
        extended = dict(env)
        extended[name] = value
        return extended

    def _polling_time(self, timevar: TimeVar, env: Env) -> Timestamp:
        times = env.get(TIMEVARS_KEY)
        if not isinstance(times, dict) or timevar.index not in times:
            raise EvaluationError(
                f"time variable t[{timevar.index}] is only available in "
                f"QSS filter queries (no polling context)")
        return times[timevar.index]

    # ==================================================================
    # Expressions and conditions
    # ==================================================================

    def _value_of(self, binding: Binding) -> object:
        if isinstance(binding, NodeBinding):
            if binding.at is not None:
                return self.view.value_at(binding.node, binding.at)
            return self.view.value(binding.node)
        return binding

    def eval_expr(self, expr: Expr, env: Env) -> Iterator[tuple[object, Env]]:
        """All ``(value, extended env)`` readings of an expression."""
        if isinstance(expr, Literal):
            yield expr.value, env
        elif isinstance(expr, TimeVar):
            yield self._polling_time(expr, env), env
        elif isinstance(expr, VarRef):
            if expr.name not in env:
                # An unbound bare name may be a database name used as an
                # existence test; treat as a zero-step path.
                entry = self.view.resolve_name(expr.name)
                if entry is None:
                    raise EvaluationError(f"unbound variable {expr.name!r}")
                yield self._value_of(NodeBinding(entry)), env
                return
            yield self._value_of(env[expr.name]), env
        elif isinstance(expr, PathExpr):
            for binding, extended in self.eval_path(expr, env):
                yield self._value_of(binding), extended
        else:  # pragma: no cover
            raise EvaluationError(f"unknown expression {expr!r}")

    def solve(self, condition: Condition, env: Env) -> Iterator[Env]:
        """Environments extending ``env`` that satisfy ``condition``.

        Path expressions inside comparisons are existentially quantified;
        variables they introduce flow rightward through ``and`` (Example
        4.5's ``R.<add at T>price = "moderate" and T >= 1Jan97``).
        """
        if isinstance(condition, And):
            for left_env in self.solve(condition.left, env):
                yield from self.solve(condition.right, left_env)
        elif isinstance(condition, Or):
            yield from self.solve(condition.left, env)
            yield from self.solve(condition.right, env)
        elif isinstance(condition, Not):
            if next(self.solve(condition.operand, env), None) is None:
                yield env
        elif isinstance(condition, ExistsCond):
            for binding, extended in self.eval_path(condition.path, env):
                inner = dict(extended)
                inner[condition.var] = binding
                yield from self.solve(condition.condition, inner)
        elif isinstance(condition, LikeCond):
            for value, extended in self.eval_expr(condition.expr, env):
                if like(value, condition.pattern):
                    yield extended
        elif isinstance(condition, Comparison):
            yield from self._solve_comparison(condition, env)
        else:  # pragma: no cover
            raise EvaluationError(f"unknown condition {condition!r}")

    def _solve_comparison(self, condition: Comparison, env: Env) -> Iterator[Env]:
        # Existence test: `path != None-literal` produced by bare paths.
        if isinstance(condition.right, Literal) and condition.right.value is None:
            matched = False
            for _value, extended in self.eval_expr(condition.left, env):
                matched = True
                if condition.op in ("!=", "<>"):
                    yield extended
            if condition.op in ("=", "==") and not matched:
                yield env
            return
        for left_value, left_env in self.eval_expr(condition.left, env):
            for right_value, right_env in self.eval_expr(condition.right, left_env):
                if self._holds(left_value, condition.op, right_value):
                    yield right_env

    _holds = staticmethod(holds)  # timestamps coerce here too

    # ==================================================================
    # Whole queries
    # ==================================================================

    def run(self, query: Query, env: Env | None = None) -> QueryResult:
        """Evaluate ``query`` and return its result rows.

        ``env`` may carry ambient bindings -- the QSS engine passes the
        polling-time mapping under :data:`TIMEVARS_KEY`.
        """
        with span("lorel.eval"):
            return self._run(query, env)

    def prepare(self, query: Query,
                env: Env | None = None) -> tuple[Query, dict[str, str], Env]:
        """Normalize a query for staged evaluation.

        Returns ``(normalized query, result labels, base environment)``
        -- the inputs :meth:`from_envs`, :meth:`satisfies`, and
        :meth:`make_row` consume.  The parallel execution layer
        (:mod:`repro.parallel`) prepares once on the coordinating thread
        and fans the enumeration out over shards of the first from-item's
        bindings.
        """
        base_env: Env = dict(env) if env else {}
        normalized = self.normalize(query)
        return normalized, default_labels(normalized), base_env

    def bind_from_item(self, item: FromItem, env: Env) -> Iterator[Env]:
        """Environments extending ``env`` with one from-item's bindings."""
        for binding, extended in self.eval_path(item.path, env):
            scoped = dict(extended)
            if item.var:
                if item.var in scoped:
                    previous = scoped[item.var]
                    if previous != binding:
                        continue
                scoped[item.var] = binding
            yield scoped

    def bind_from_item_batch(self, item: FromItem, envs: list,
                             keep=None, counts: dict | None = None) -> list:
        """One from-item's bindings for a whole environment batch.

        Frontier traversal: instead of recursing depth-first per
        environment, the batch advances through the item's path one step
        at a time -- every frontier entry expands in data order and its
        matches append in frontier order, so the final frontier is
        exactly the concatenation of the per-environment depth-first
        enumerations :meth:`bind_from_item` would produce.  One list
        append per match replaces a chain of nested generator frames,
        which is where the batched operators win their constant factor.

        ``keep`` is a fused ``where`` test for an item whose last step is
        a plain label: that hop reaches node ids, ``keep`` takes and
        returns ``(node, env)`` pairs, and only the kept nodes get a
        binding and an environment.  ``counts`` (EXPLAIN ANALYZE only)
        tallies the candidates ``"tested"`` and ``"kept"``.
        """
        path = item.path
        steps = path.steps[:-1] if keep is not None else path.steps
        frontier = []
        append = frontier.append
        for env in envs:
            append((self.resolve_start(path, env), env))
        expand = self.expand_step
        for step in steps:
            next_frontier: list = []
            append = next_frontier.append
            for binding, env in frontier:
                for pair in expand(binding, step, env):
                    append(pair)
            frontier = next_frontier
        if keep is not None:
            label, value = path.steps[-1].label, self.view.value
            candidates = [(child, env) for binding, env in frontier
                          if value(binding.node) is COMPLEX
                          for child in self._plain_children(binding, label)]
            kept = keep(candidates)
            if counts is not None:
                counts["tested"] += len(candidates)
                counts["kept"] += len(kept)
            frontier = [(NodeBinding(child), env) for child, env in kept]
        out: list = []
        var = item.var
        emit = out.append
        for binding, env in frontier:
            scoped = dict(env)
            if var:
                if var in scoped and scoped[var] != binding:
                    continue
                scoped[var] = binding
            emit(scoped)
        return out

    def from_envs(self, normalized: Query, index: int,
                  env: Env) -> Iterator[Env]:
        """Environments satisfying the from clause from ``index`` onward.

        Enumeration order is deterministic (data order per item, items
        left to right), which is what makes sharded evaluation
        order-identical to serial evaluation: a contiguous partition of
        the ``index = 0`` bindings, evaluated shard by shard, replays
        exactly this stream.
        """
        if index == len(normalized.from_items):
            yield env
            return
        item = normalized.from_items[index]
        for scoped in self.bind_from_item(item, env):
            yield from self.from_envs(normalized, index + 1, scoped)

    def satisfies(self, normalized: Query, env: Env) -> bool:
        """Does the environment satisfy the normalized where clause?"""
        if normalized.where is None:
            return True
        return next(self.solve(normalized.where, env), None) is not None

    def make_row(self, normalized: Query, env: Env,
                 labels: dict[str, str]) -> Row:
        """Build the result row one satisfying environment emits."""
        return self._make_row(normalized.select, env, labels)

    def project_row(self, select: tuple[SelectItem, ...], env: Env,
                    labels: dict[str, str]) -> Row:
        """Build a row from a bare select list and one environment.

        This is the ``Project`` operator's kernel: the planner's physical
        layer (:mod:`repro.plan.physical`) carries the select list on the
        plan node rather than threading the whole normalized query
        through execution.
        """
        return self._make_row(select, env, labels)

    def _run(self, query: Query, env: Env | None) -> QueryResult:
        normalized, labels, base_env = self.prepare(query, env)
        result = QueryResult()
        for env_candidate in self.from_envs(normalized, 0, base_env):
            if not self.satisfies(normalized, env_candidate):
                continue
            result.add(self.make_row(normalized, env_candidate, labels))
        return result

    def _make_row(self, select: tuple[SelectItem, ...], env: Env,
                  labels: dict[str, str]) -> Row:
        items: list[tuple[str, object]] = []
        for item in select:
            expr = item.expr
            if isinstance(expr, VarRef):
                if expr.name not in env:
                    raise EvaluationError(
                        f"select variable {expr.name!r} is not bound by the "
                        f"from clause")
                binding = env[expr.name]
                label = item.label or labels.get(expr.name, expr.name)
                if isinstance(binding, NodeBinding):
                    items.append((label, ObjectRef(binding.node, binding.at)))
                else:
                    items.append((label, binding))
            elif isinstance(expr, Literal):
                items.append((item.label or "value", expr.value))
            elif isinstance(expr, TimeVar):
                items.append((item.label or "time",
                              self._polling_time(expr, env)))
            else:  # pragma: no cover - normalize() removes path selects
                raise EvaluationError(f"unexpected select expression {expr!r}")
        return Row(tuple(items))
