"""Translating Chorel queries to Lorel over the OEM encoding (Section 5.2).

The translation mirrors the paper's scheme:

* ``(T, OV, NV) in updFun(P)`` becomes
  ``P.&upd U, U.&time T, U.&ov OV, U.&nv NV``;
* ``(T, C) in addFun(P, l)`` becomes
  ``P.&l-history H, H.&add T, H.&target C`` (``remFun`` analogously with
  ``&rem``);
* ``T in creFun(P)`` becomes ``P.&cre T``;
* every *value access* of an object variable ``X`` becomes ``X.&val``
  (safe for complex objects thanks to the ``&val`` self-loop);
* annotation machinery introduced by *where-clause* paths is hoisted as
  ``exists ... in ... :`` chains wrapping the enclosing conjunction, the
  shape shown in Example 5.1 -- so time variables bound in one conjunct
  remain visible to its siblings (Example 4.5).

Limitations (documented in DESIGN.md): virtual ``<at T>`` annotations are
native-engine-only -- the paper likewise defers their implementation
(Section 4.2.2) -- and annotations on ``#``/pattern labels are rejected by
both backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..doem.encoding import EncodedDOEM, encode_doem, history_label
from ..doem.model import DOEMDatabase
from ..errors import TranslationError
from ..lorel.ast import (
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
from ..lorel.engine import LorelEngine
from ..lorel.eval import TIMEVARS_KEY, Evaluator, default_labels
from ..lorel.pretty import format_query
from ..lorel.result import ObjectRef, QueryResult, Row
from ..lorel.views import OEMView
from ..obs.trace import span
from ..timestamps import Timestamp, parse_timestamp

__all__ = ["translate_query", "TranslationResult", "TranslatingChorelEngine"]

_VAL_STEP = PathStep("&val")


@dataclass
class TranslationResult:
    """A translated query plus the bookkeeping needed to interpret results.

    ``query`` is plain Lorel (no annotation expressions); ``object_vars``
    is the set of range variables bound to *encoding objects* (as opposed
    to auxiliary atoms such as ``&time`` values); ``scalar_selects`` maps
    select positions whose values must be unwrapped from auxiliary nodes.
    """

    query: Query
    object_vars: set[str]
    scalar_select_labels: set[str]

    def text(self) -> str:
        """The translated query as re-parseable Lorel text."""
        return format_query(self.query)


class _Translator:
    """Stateful single-query translator."""

    def __init__(self) -> None:
        self.fresh = FreshNames()
        self.object_vars: set[str] = set()
        self.scalar_vars: set[str] = set()

    # -- path machinery -------------------------------------------------

    def _check_step(self, step: PathStep) -> None:
        for annotation in (step.arc_annotation, step.node_annotation):
            if annotation is None:
                continue
            if annotation.kind == "at":
                raise TranslationError(
                    "virtual <at ...> annotations have no Lorel translation "
                    "in the paper's scheme; use the native Chorel engine")
            if annotation.kind in ("changed", "last-change"):
                raise TranslationError(
                    f"<{annotation.kind} ...> annotations have no Lorel "
                    "translation in the paper's scheme; use the native "
                    "Chorel engine")
            if annotation.in_range is not None:
                raise TranslationError(
                    "time-range annotations have no Lorel translation in "
                    "the paper's scheme; use the native Chorel engine")
        if (step.arc_annotation or step.node_annotation) and \
                (step.is_wildcard or step.is_pattern):
            raise TranslationError(
                "annotation expressions on wildcard or pattern labels are "
                "not supported")
        if step.arc_annotation and step.is_alternation:
            raise TranslationError(
                "arc annotations on label alternations have no single "
                "&l-history object; use the native engine")

    def _pin_condition(self, var: str, literal: object) -> Condition:
        """An equality pinning an annotation time to a literal."""
        if isinstance(literal, TimeVar):
            return Comparison(VarRef(var), "=", literal)
        return Comparison(VarRef(var), "=", Literal(parse_timestamp(literal)))

    def translate_chain(self, path: PathExpr
                        ) -> tuple[list[tuple[str, PathExpr]], list[Condition], str]:
        """Translate a (canonical-form) path into binder chains.

        Returns ``(binders, extra_conditions, final_var)`` where each
        binder is ``(variable, single-step path)``.  The same machinery
        backs both from items (binders become from items) and where paths
        (binders become ``exists`` wrappers).
        """
        binders: list[tuple[str, PathExpr]] = []
        conditions: list[Condition] = []
        anchor = path.start
        pending: list[PathStep] = []

        def flush(var: str | None = None, is_object: bool = True) -> str:
            nonlocal anchor, pending
            if not pending and var is None:
                return anchor
            target = var or self.fresh.next("V")
            if pending:
                for step in pending[:-1]:
                    mid = self.fresh.next("V")
                    binders.append((mid, PathExpr(anchor, (step,))))
                    self.object_vars.add(mid)
                    anchor = mid
                binders.append((target, PathExpr(anchor, (pending[-1],))))
            else:
                # Alias: bind var to the anchor itself via a zero-step path.
                binders.append((target, PathExpr(anchor, ())))
            (self.object_vars if is_object else self.scalar_vars).add(target)
            anchor = target
            pending = []
            return target

        for step in path.steps:
            self._check_step(step)
            arc = step.arc_annotation
            node = step.node_annotation

            if step.label == "" and node is not None:
                # Start-anchored node annotation: the annotation machinery
                # hangs directly off the current anchor.
                child = flush()
                self._expand_node_annotation(node, child, binders, conditions)
                anchor = child
                continue

            if arc is not None:
                # addFun/remFun: P.&l-history H, H.&add T, H.&target C
                parent = flush()
                hist_var = self.fresh.next("H")
                binders.append((hist_var,
                                PathExpr(parent,
                                         (PathStep(history_label(step.label)),))))
                self.object_vars.add(hist_var)
                kind_label = "&add" if arc.kind == "add" else "&rem"
                time_var = arc.at_var or self.fresh.next("T")
                binders.append((time_var,
                                PathExpr(hist_var, (PathStep(kind_label),))))
                self.scalar_vars.add(time_var)
                if arc.at_literal is not None:
                    conditions.append(self._pin_condition(time_var, arc.at_literal))
                child_var = self.fresh.next("C")
                binders.append((child_var,
                                PathExpr(hist_var, (PathStep("&target"),))))
                self.object_vars.add(child_var)
                anchor = child_var
            else:
                pending.append(PathStep(step.label,
                                        repetition=step.repetition))

            if node is not None:
                child = flush()
                self._expand_node_annotation(node, child, binders, conditions)
                anchor = child

        final = flush() if pending else anchor
        return binders, conditions, final

    def _expand_node_annotation(self, node: AnnotationExpr, child: str,
                                binders: list[tuple[str, PathExpr]],
                                conditions: list[Condition]) -> None:
        """Expand a ``<cre>``/``<upd>`` annotation into &-path binders."""
        if node.kind == "cre":
            time_var = node.at_var or self.fresh.next("T")
            binders.append((time_var, PathExpr(child, (PathStep("&cre"),))))
            self.scalar_vars.add(time_var)
            if node.at_literal is not None:
                conditions.append(
                    self._pin_condition(time_var, node.at_literal))
        elif node.kind == "upd":
            upd_var = self.fresh.next("U")
            binders.append((upd_var, PathExpr(child, (PathStep("&upd"),))))
            self.object_vars.add(upd_var)
            time_var = node.at_var or self.fresh.next("T")
            binders.append((time_var,
                            PathExpr(upd_var, (PathStep("&time"),))))
            self.scalar_vars.add(time_var)
            if node.at_literal is not None:
                conditions.append(
                    self._pin_condition(time_var, node.at_literal))
            if node.from_var:
                binders.append((node.from_var,
                                PathExpr(upd_var, (PathStep("&ov"),))))
                self.scalar_vars.add(node.from_var)
            if node.to_var:
                binders.append((node.to_var,
                                PathExpr(upd_var, (PathStep("&nv"),))))
                self.scalar_vars.add(node.to_var)


def translate_query(query: Query, evaluator: Evaluator) -> TranslationResult:
    """Translate a Chorel AST to plain Lorel over the OEM encoding.

    ``evaluator`` supplies the normalization pass (shared with the native
    engine) so both backends agree on prefix unification before
    translation.
    """
    normalized = evaluator.normalize(query)
    labels = default_labels(normalized)
    translator = _Translator()

    # ------------------------------------------------------------------
    # From clause: binder chains become from items.
    # ------------------------------------------------------------------
    from_items: list[FromItem] = []
    pinned: list[Condition] = []
    for item in normalized.from_items:
        binders, conditions, final = translator.translate_chain(item.path)
        pinned.extend(conditions)
        if item.var and item.var != final:
            # The normalized from item names its variable; alias the chain's
            # final variable onto it (both as binder name and path start).
            binders = _rename_var(binders, final, item.var)
            for bucket in (translator.object_vars, translator.scalar_vars):
                if final in bucket:
                    bucket.discard(final)
                    bucket.add(item.var)
            if not binders:
                from_items.append(FromItem(PathExpr(item.path.start, ()), item.var))
                translator.object_vars.add(item.var)
        for var, path in binders:
            from_items.append(FromItem(path, var))

    object_vars = translator.object_vars

    # ------------------------------------------------------------------
    # Where clause: value accesses get &val; annotation machinery from
    # where paths hoists as `exists` wrappers around each conjunction.
    # ------------------------------------------------------------------

    def value_expr(expr: Expr) -> tuple[list[tuple[str, PathExpr]],
                                        list[Condition], Expr]:
        if isinstance(expr, (Literal, TimeVar)):
            return [], [], expr
        if isinstance(expr, VarRef):
            if expr.name in object_vars:
                return [], [], PathExpr(expr.name, (_VAL_STEP,))
            return [], [], expr
        if isinstance(expr, PathExpr):
            if not expr.steps:
                return [], [], value_expr(VarRef(expr.start))[2]
            binders, conditions, final = translator.translate_chain(expr)
            if final in object_vars:
                leaf: Expr = PathExpr(final, (_VAL_STEP,))
            else:
                leaf = VarRef(final)
            return binders, conditions, leaf
        raise TranslationError(f"cannot translate expression {expr!r}")

    def wrap(binders: list[tuple[str, PathExpr]],
             core: Condition) -> Condition:
        for var, path in reversed(binders):
            core = ExistsCond(var, path, core)
        return core

    def translate_cond(condition: Condition
                       ) -> tuple[list[tuple[str, PathExpr]], Condition]:
        """Returns (binders to hoist, translated core condition)."""
        if isinstance(condition, And):
            left_binders, left_core = translate_cond(condition.left)
            right_binders, right_core = translate_cond(condition.right)
            return left_binders + right_binders, And(left_core, right_core)
        if isinstance(condition, Or):
            left_binders, left_core = translate_cond(condition.left)
            right_binders, right_core = translate_cond(condition.right)
            return [], Or(wrap(left_binders, left_core),
                          wrap(right_binders, right_core))
        if isinstance(condition, Not):
            binders, core = translate_cond(condition.operand)
            return [], Not(wrap(binders, core))
        if isinstance(condition, ExistsCond):
            binders, conditions, final = translator.translate_chain(condition.path)
            translator.object_vars.add(condition.var)
            inner_binders, inner_core = translate_cond(condition.condition)
            core = wrap(inner_binders, _conjoin(inner_core, conditions))
            # Alias the user's variable onto the chain's final variable.
            alias = _rename_var(binders, final, condition.var)
            return [], wrap(alias, core)
        if isinstance(condition, Comparison):
            if isinstance(condition.right, Literal) and condition.right.value is None:
                # Existence test from a bare path: keep the raw (non-&val)
                # object path so emptiness is judged on objects.
                binders, extra, leaf = _existence_operand(condition.left)
                core = _conjoin(Comparison(leaf, condition.op, condition.right),
                                extra)
                return binders, core
            left_binders, left_extra, left = value_expr(condition.left)
            right_binders, right_extra, right = value_expr(condition.right)
            core = _conjoin(Comparison(left, condition.op, right),
                            left_extra + right_extra)
            return left_binders + right_binders, core
        if isinstance(condition, LikeCond):
            binders, extra, leaf = value_expr(condition.expr)
            return binders, _conjoin(LikeCond(leaf, condition.pattern), extra)
        raise TranslationError(f"cannot translate condition {condition!r}")

    def _existence_operand(expr: Expr) -> tuple[list[tuple[str, PathExpr]],
                                                list[Condition], Expr]:
        if isinstance(expr, PathExpr) and expr.steps:
            binders, conditions, final = translator.translate_chain(expr)
            return binders, conditions, VarRef(final)
        return [], [], expr

    where: Condition | None = None
    if normalized.where is not None:
        binders, core = translate_cond(normalized.where)
        where = wrap(binders, core)
    for condition in pinned:
        where = condition if where is None else And(where, condition)

    # ------------------------------------------------------------------
    # Select clause: objects pass through; scalars are unwrapped later.
    # ------------------------------------------------------------------
    scalar_select_labels: set[str] = set()
    select: list[SelectItem] = []
    for item in normalized.select:
        expr = item.expr
        if isinstance(expr, VarRef):
            label = item.label or labels.get(expr.name, expr.name)
            select.append(SelectItem(expr, label))
            if expr.name not in object_vars:
                scalar_select_labels.add(label)
        else:
            select.append(item)

    translated = Query(tuple(select), tuple(from_items), where)
    return TranslationResult(translated, set(object_vars), scalar_select_labels)


def _conjoin(core: Condition, extras: list[Condition]) -> Condition:
    for extra in extras:
        core = And(core, extra)
    return core


def _rename_var(binders: list[tuple[str, PathExpr]], old: str,
                new: str) -> list[tuple[str, PathExpr]]:
    """Rename a binder variable, both where bound and where referenced."""
    renamed: list[tuple[str, PathExpr]] = []
    for var, path in binders:
        start = new if path.start == old else path.start
        renamed.append((new if var == old else var,
                        PathExpr(start, path.steps)))
    return renamed


class TranslatingChorelEngine:
    """The translation-based Chorel backend (Section 5).

    Encodes the DOEM database in OEM once, then serves each Chorel query
    by translating it to Lorel and evaluating over the encoding.  Results
    are post-processed so rows are directly comparable with the native
    engine's: auxiliary atoms (timestamps, old/new values) unwrap to their
    scalar values, and encoding objects keep the DOEM node identifiers
    (the encoding is identifier-preserving).
    """

    def __init__(self, doem: DOEMDatabase, name: str | None = None,
                 polling_times: dict[int, Timestamp] | None = None, *,
                 use_planner: bool = True) -> None:
        self.doem = doem
        self.encoded: EncodedDOEM = encode_doem(doem)
        entry = name or doem.graph.root
        self.lorel = LorelEngine(self.encoded.oem, name=entry)
        # The native normalizer is reused so both backends agree.
        self._normalizer = Evaluator(OEMView(self.encoded.oem,
                                             {entry: self.encoded.oem.root}))
        self._polling_times: dict[int, Timestamp] = dict(polling_times or {})
        self.use_planner = use_planner
        self.last_translation: TranslationResult | None = None
        self.last_compiled = None

    def register_name(self, name: str, node_id: str) -> None:
        """Expose an entry point under ``name`` (mirrors the native engine)."""
        self.lorel.register_name(name, node_id)
        self._normalizer.view._names[name] = node_id

    def set_polling_times(self, times: dict[int, object]) -> None:
        """Set the ``t[i]`` mapping for QSS filter queries."""
        self._polling_times = {index: parse_timestamp(when)
                               for index, when in times.items()}

    def translate(self, query: str | Query) -> TranslationResult:
        """Translate Chorel text/AST to Lorel over the encoding."""
        from ..lorel.parser import parse_query
        if isinstance(query, str):
            with span("chorel.parse"):
                query = parse_query(query, allow_annotations=True)
        with span("chorel.translate"):
            translation = translate_query(query, self._normalizer)
        self.last_translation = translation
        return translation

    def run(self, query: str | Query, *,
            analyze: bool = False) -> QueryResult:
        """Translate and evaluate, returning native-comparable rows.

        ``analyze=True`` collects per-operator runtime stats over the
        *translated* Lorel plan (identical rows); render them with
        ``self.last_compiled.explain(analyze=True)``.
        """
        with span("chorel.query"):
            return self._run(query, analyze=analyze)

    def _run(self, query: str | Query, *,
             analyze: bool = False) -> QueryResult:
        if not self.use_planner:
            if analyze:
                raise ValueError("analyze=True requires the planner "
                                 "(use_planner=False has no plan tree)")
            translation = self.translate(query)
            raw = self.lorel._evaluator.run(translation.query,
                                            self._base_env())
            return self._postprocess(raw, translation)
        compiled = self.compile(query)
        return self.execute(compiled, analyze=analyze)

    # -- planner pipeline ------------------------------------------------

    def parse(self, text: str):
        """Parse Chorel text (annotation expressions allowed)."""
        from ..lorel.parser import parse_query
        return parse_query(text, allow_annotations=True)

    def compile(self, query: str | Query):
        """Translate to Lorel, then compile the translation.

        The compiled plan is the *Lorel* plan over the OEM encoding; the
        translation result rides along for row post-processing and for
        EXPLAIN (``plan: translate-to-lorel ...``).
        """
        compiled = self._compile(query)
        self.last_compiled = compiled
        return compiled

    def _compile(self, query: str | Query):
        """Compile without touching ``last_compiled`` (worker-thread safe)."""
        from ..plan import CompileContext, compile_query
        translation = self.translate(query)
        evaluator = self.lorel._evaluator
        context = CompileContext(evaluator=evaluator, view=self.lorel.view,
                                 polling_times=dict(self._polling_times))
        compiled = compile_query(translation.query, evaluator,
                                 context=context)
        compiled.translation = translation
        return compiled

    def execute(self, compiled, *, pool=None, parallel_metrics=None,
                analyze: bool = False) -> QueryResult:
        """Run a compiled translation through the physical operators.

        ``analyze=True`` instruments the translated Lorel plan (identical
        rows) and leaves the stats on ``compiled.runtime``.
        """
        from ..plan import ExecutionContext, run_compiled
        ctx = ExecutionContext(evaluator=self.lorel._evaluator,
                               base_env=self._base_env(), pool=pool,
                               parallel_metrics=parallel_metrics)
        if pool is not None:
            raw = run_compiled(compiled, ctx, self, analyze=analyze)
        else:
            with span("lorel.eval"):
                raw = run_compiled(compiled, ctx, self, analyze=analyze)
        return self._postprocess(raw, compiled.translation)

    def _base_env(self) -> dict:
        env: dict = {}
        if self._polling_times:
            env[TIMEVARS_KEY] = dict(self._polling_times)
        return env

    def _postprocess(self, raw: QueryResult,
                     translation: TranslationResult) -> QueryResult:
        """Unwrap auxiliary atoms so rows match the native engine's."""
        result = QueryResult()
        for row in raw:
            items = []
            for label, value in row.items:
                if label in translation.scalar_select_labels and \
                        isinstance(value, ObjectRef):
                    items.append((label, self.encoded.oem.value(value.node)))
                else:
                    items.append((label, value))
            result.add(Row(tuple(items)))
        return result

    def run_many(self, queries, *, pool=None,
                 max_workers: int | None = None) -> list[QueryResult]:
        """Evaluate a batch of queries concurrently; results in input order."""
        from ..parallel.executor import run_many as _run_many
        return _run_many(self, queries, pool=pool, max_workers=max_workers)
