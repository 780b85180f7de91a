"""Physical operators: batched execution over logical plans.

There is one execution model: each logical node maps to a transformer
over :class:`~repro.plan.batch.EnvBatch` lists of environment dicts.
``PathExpand`` advances a whole batch with the evaluator's frontier
kernel (:meth:`~repro.lorel.eval.Evaluator.bind_from_item_batch`),
``Predicate`` compiles its condition once and filters vectorized
(:func:`~repro.plan.batch.compile_predicate`), and ``Exchange`` ships
whole row lists to pool threads, so sharding amortizes per-task
overhead over hundreds of rows.

A batched frontier expands its rows in frontier order, producing the
concatenation of the per-row depth-first enumerations the legacy
evaluator's ``from_envs`` recursion yields -- which is what keeps the
planner row- and order-identical to the ``use_planner=False`` oracle for
any batch width (a width of 1 is the row-at-a-time case) or shard count
(``tests/plan/test_batched_equivalence.py`` proves it).

The operators delegate single-binding work to the evaluator's staged API
(:meth:`~repro.lorel.eval.Evaluator.bind_from_item_batch`,
:meth:`~repro.lorel.eval.Evaluator.solve`,
:meth:`~repro.lorel.eval.Evaluator.project_row`) -- those staging steps
*are* the physical kernels; this module is the plumbing between them.

Two operators do more than plumb:

* :func:`execute_range_plan` -- the index kernel behind ``DeltaProject``
  and ``VersionJoin``: a merged timestamp-index range scan with backward
  path verification.
* the ``Exchange`` operator -- binds its source chain serially,
  shards the environments contiguously, runs the detached stages on
  pool workers, and concatenates in shard order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterator, Optional

from ..lorel.ast import PathExpr
from ..lorel.result import ObjectRef, QueryResult, Row
from ..obs.events import emit_event
from ..obs.trace import span
from ..timestamps import POS_INF, Timestamp
from .analyze import StageRecorder
from .batch import (
    DEFAULT_BATCH_SIZE,
    EnvBatch,
    batch_rows_histogram,
    compile_predicate,
    filter_rows,
)
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
)
from .stats import RangePlan

__all__ = ["ExecutionContext", "execute_plan", "execute_range_plan",
           "insert_exchange", "iter_batches", "run_stages_on_rows",
           "run_compiled"]


@dataclass
class ExecutionContext:
    """Everything the operators need from the engine at execution time.

    ``index``/``paths``/``doem`` are only set by the indexed engine (the
    index kernel needs them); ``pool`` and ``parallel_metrics`` are only
    set when the :class:`~repro.parallel.executor.ParallelExecutor`
    drives execution.  ``batch_size`` is the batch width the operators
    re-establish after each expansion (positive; the engines leave it at
    :data:`~repro.plan.batch.DEFAULT_BATCH_SIZE`, tests vary it).
    ``stats`` is an optional :class:`~repro.plan.analyze.PlanStats`
    collector (EXPLAIN ANALYZE); when ``None`` -- the default -- every
    operator takes its uninstrumented path.  ``observed`` collects
    execution facts the engine reads back afterwards (currently the
    shard fan-out).
    """

    evaluator: object
    base_env: dict = field(default_factory=dict)
    index: object = None
    paths: object = None
    doem: object = None
    pool: object = None
    parallel_metrics: object = None
    batch_size: int = DEFAULT_BATCH_SIZE
    stats: object = None
    observed: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Batched operators
# ---------------------------------------------------------------------------

def iter_batches(node: LogicalNode,
                 ctx: ExecutionContext) -> Iterator[EnvBatch]:
    """The batch stream a logical (sub)chain produces.

    Batch boundaries are re-established at ``ctx.batch_size`` after each
    expansion (an expansion can multiply rows); row order across the
    stream is the same for any width.

    A thin dispatcher: with ``ctx.stats`` attached (ANALYZE) the output
    stream is wrapped for per-operator accounting, without it the raw
    generator runs untouched.
    """
    stream = _node_batches(node, ctx)
    if ctx.stats is not None:
        stream = ctx.stats.observe_batches(node, stream)
    return stream


def _child_batches(parent: LogicalNode,
                   ctx: ExecutionContext) -> Iterator[EnvBatch]:
    """A node's input stream -- its child's output, counted as rows in."""
    stream = iter_batches(parent.child, ctx)
    if ctx.stats is not None:
        stream = ctx.stats.observe_input(parent, stream)
    return stream


def _node_batches(node: LogicalNode,
                  ctx: ExecutionContext) -> Iterator[EnvBatch]:
    size = ctx.batch_size
    if isinstance(node, Scan):
        yield EnvBatch([dict(ctx.base_env)])
    elif isinstance(node, PathExpand):
        kernel = ctx.evaluator.bind_from_item_batch
        for batch in _child_batches(node, ctx):
            rows = kernel(node.item, batch.rows)
            if rows:
                yield from EnvBatch(rows).split(size)
    elif isinstance(node, Predicate):
        evaluator = ctx.evaluator
        pred = compile_predicate(node.condition, evaluator)
        counts = (ctx.stats.predicate_counts(node)
                  if ctx.stats is not None else None)
        for batch in _child_batches(node, ctx):
            kept = filter_rows(evaluator, node.condition, batch.rows, pred,
                               counts=counts)
            if kept:
                yield EnvBatch(kept)
    elif isinstance(node, Exchange):
        yield from _exchange_batches(node, ctx)
    else:  # pragma: no cover - lowering only builds the nodes above
        raise TypeError(f"cannot stream batches from {node!r}")


def run_stages_on_rows(stages, rows: list, evaluator,
                       recorder: StageRecorder | None = None) -> list:
    """Run detached Exchange stages over one shard's rows, in order.

    ``recorder`` (ANALYZE only) tallies one dict per stage -- rows
    in/out, wall seconds, predicate vectorized/fallback split -- that the
    coordinator folds into the stage nodes' :class:`~repro.plan.analyze.
    OpStats` across shards.
    """
    for idx, stage in enumerate(stages):
        rec = recorder.stages[idx] if recorder is not None else None
        if rec is not None:
            rec["rows_in"] += len(rows)
            started = perf_counter()
        if isinstance(stage, PathExpand):
            rows = evaluator.bind_from_item_batch(stage.item, rows)
        elif isinstance(stage, Predicate):
            pred = compile_predicate(stage.condition, evaluator)
            rows = filter_rows(evaluator, stage.condition, rows, pred,
                               counts=rec)
        else:
            raise TypeError(f"unsupported exchange stage {stage!r}")
        if rec is not None:
            rec["wall_seconds"] += perf_counter() - started
            rec["rows_out"] += len(rows)
    return rows


def _exchange_batches(node: Exchange,
                      ctx: ExecutionContext) -> Iterator[EnvBatch]:
    """Bind the source serially, shard whole batches out, merge in order."""
    from ..parallel.sharding import chunk_evenly, shard_count

    stats = ctx.stats
    with span("parallel.bind_first"):
        first_rows: list = []
        for batch in _child_batches(node, ctx):
            first_rows.extend(batch.rows)
    metrics = ctx.parallel_metrics
    shards = shard_count(len(first_rows), ctx.pool.max_workers)
    if shards <= 1:
        if metrics is not None:
            metrics["serial_queries"].inc()
        recorder = StageRecorder(len(node.stages)) if stats is not None \
            else None
        rows = run_stages_on_rows(node.stages, first_rows, ctx.evaluator,
                                  recorder)
        if recorder is not None:
            stats.merge_stage_payload(node, recorder.stages)
        if rows:
            yield from EnvBatch(rows).split(ctx.batch_size)
        return
    if metrics is not None:
        metrics["sharded_queries"].inc()
        metrics["shards"].inc(shards)
    ctx.observed["shards"] = shards
    if stats is not None:
        stats.op_for(node).shards = shards
    emit_event("shard_dispatched", level="debug",
               shards=shards, rows=len(first_rows))
    stages, evaluator = node.stages, ctx.evaluator

    def task(chunk):
        recorder = StageRecorder(len(stages)) if stats is not None else None
        with span("parallel.shard", rows=len(chunk)):
            rows = run_stages_on_rows(stages, chunk, evaluator, recorder)
        return rows, recorder

    with span("parallel.fanout", shards=shards):
        outcomes = ctx.pool.map_ordered(task,
                                        chunk_evenly(first_rows, shards))
    for rows, recorder in outcomes:
        if recorder is not None:
            stats.merge_stage_payload(node, recorder.stages)
        if rows:
            yield EnvBatch(rows)


def insert_exchange(root: LogicalNode) -> Optional[LogicalNode]:
    """Rewrite a chain for sharded execution, or ``None`` if unshardable.

    The innermost ``PathExpand`` (the first from-item) plus the ``Scan``
    become the Exchange's serially-bound source; everything above it
    (later expansions, the predicate) becomes the detached shard stages.
    Plans without a from clause -- or already-indexed plans -- stay
    serial.
    """
    if not isinstance(root, Project):
        return None
    chain: list[LogicalNode] = []
    node = root.child
    while isinstance(node, (Predicate, PathExpand)):
        chain.append(node)
        node = node.child
    if not isinstance(node, Scan):
        return None
    expands = [n for n in chain if isinstance(n, PathExpand)]
    if not expands:
        return None
    first = expands[-1]  # innermost = the first from-item
    source = PathExpand(item=first.item, child=Scan())
    stages = tuple(
        PathExpand(item=n.item) if isinstance(n, PathExpand)
        else Predicate(condition=n.condition)
        for n in reversed(chain[:-1]))  # application order, minus the source
    exchange = Exchange(child=source, stages=stages)
    return Project(select=root.select, labels=root.labels, child=exchange)


# ---------------------------------------------------------------------------
# Plan execution
# ---------------------------------------------------------------------------

def execute_plan(root: LogicalNode, ctx: ExecutionContext) -> QueryResult:
    """Run a logical plan to a :class:`~repro.lorel.result.QueryResult`."""
    if isinstance(root, (DeltaProject, VersionJoin)):
        return execute_range_plan(root.plan, ctx, node=root,
                                  versions=isinstance(root, VersionJoin))
    if not isinstance(root, Project):
        raise TypeError(f"plan root must be Project, DeltaProject, or "
                        f"VersionJoin, got {type(root).__name__}")
    evaluator = ctx.evaluator
    stats = ctx.stats
    op = stats.op_for(root) if stats is not None else None
    started = perf_counter() if op is not None else 0.0
    result = QueryResult()
    project = evaluator.project_row
    add = result.add
    observe = batch_rows_histogram().observe
    for batch in _child_batches(root, ctx):
        observe(len(batch))
        for env in batch.rows:
            add(project(root.select, env, root.labels))
    if op is not None:
        # Inclusive: the loop pulls the whole child pipeline, so the
        # root's time is the query's end-to-end execute time.
        op.wall_seconds += perf_counter() - started
        op.rows_out = len(result)
    return result


def run_compiled(compiled, ctx: ExecutionContext, engine, *,
                 analyze: bool = False) -> QueryResult:
    """Execute a compiled plan and record the run in the query log.

    The one post-compile execution path every engine facade shares.
    With a worker pool on the context the plan is rewritten for sharding
    (:func:`insert_exchange`); unshardable plans run serially.  With
    ``analyze=True`` a :class:`~repro.plan.analyze.PlanStats` collector
    is attached over the *executed* tree, finalized into
    ``compiled.runtime``, and its actuals fed to the cardinality
    feedback store; either way the execution lands one record in the
    :mod:`repro.obs.querylog`.
    """
    from ..obs.querylog import record_engine_query
    from .analyze import PlanStats

    root = compiled.root
    if ctx.pool is not None:
        exchanged = insert_exchange(root)
        if exchanged is not None:
            root = exchanged
        elif ctx.parallel_metrics is not None:
            ctx.parallel_metrics["serial_queries"].inc()
    stats = None
    if analyze:
        stats = PlanStats(root, fingerprint=compiled.fingerprint)
        ctx.stats = stats
    started = perf_counter()
    result = execute_plan(root, ctx)
    elapsed = perf_counter() - started
    if stats is not None:
        stats.finalize(len(result), elapsed)
        compiled.runtime = stats
    record_engine_query(engine, compiled, result, elapsed,
                        shards=ctx.observed.get("shards", 0),
                        plan_stats=stats)
    return result


# ---------------------------------------------------------------------------
# The range kernel (TimeRangeScan + DeltaProject / VersionJoin)
# ---------------------------------------------------------------------------
#
# One executor serves every index-served shape.  A *scan* enumerates
# `(when, kind, subject)` change events -- merged per-kind
# timestamp-index range scans -- in one global deterministic order, and
# the terminal verifies each event backward along the plan's path before
# building its row.  A single-time annotation is the one-kind case, its
# interval usually pinned to `[t, t]`.

_KIND_RANK = {"cre": 0, "upd": 1, "add": 2, "rem": 3}


def execute_range_plan(plan: RangePlan, ctx: ExecutionContext,
                       node: LogicalNode | None = None, *,
                       versions: bool = False) -> QueryResult:
    """Run a range plan: scan events, verify backward, build rows.

    ``node`` (the terminal IR node, when executing a compiled tree)
    routes ANALYZE accounting: the terminal counts events in and rows
    out, and its ``TimeRangeScan`` child -- when present -- counts the
    events the scan emitted.
    """
    op = scan_op = None
    if ctx.stats is not None and node is not None:
        op = ctx.stats.op_for(node)
        children = node.children()
        if children:
            scan_op = ctx.stats.op_for(children[0])
    started = perf_counter() if op is not None else 0.0
    events = _range_events(plan, ctx)
    if scan_op is not None:
        scan_op.rows_out = len(events)
        scan_op.wall_seconds += perf_counter() - started
    result = QueryResult()
    if versions:
        _version_join(plan, events, ctx, result, op)
    else:
        if plan.last_only:
            events = _last_events(events)
        for when, kind, subject in events:
            if op is not None:
                op.rows_in += 1  # one candidate event verified per row
            row = _verify_and_build(plan, kind, when, subject, ctx)
            if row is not None:
                result.add(row)
    if op is not None:
        op.wall_seconds += perf_counter() - started
        op.rows_out = len(result)
    return result


def _range_events(plan: RangePlan, ctx: ExecutionContext) -> list:
    """All in-range ``(when, kind, subject)`` events, globally ordered.

    One timestamp-index range scan per event kind, merged into the
    order time, then kind (cre, upd, add, rem), then subject.
    """
    events = []
    for kind in plan.kinds:
        # Arc kinds narrow the scan to the final step's label via the
        # index's label partition; node kinds scan the kind list.
        label = plan.labels[-1] if kind in ("add", "rem") else None
        for when, subject in ctx.index.between(
                kind, plan.low, plan.high,
                include_low=plan.include_low,
                include_high=plan.include_high,
                label=label):
            events.append((when, kind, subject))
    events.sort(key=_event_key)
    return events


def _event_key(event) -> tuple:
    when, kind, subject = event
    return (when._order_key(), _KIND_RANK[kind], _subject_key(subject))


def _subject_key(subject) -> tuple[str, str, str]:
    if isinstance(subject, str):
        return ("", "", subject)
    return (subject.source, subject.label, subject.target)


def _last_events(events: list) -> list:
    """Keep the newest event per subject (``<last-change>`` semantics).

    Node events group per node across ``cre``/``upd``; arc events group
    per ``(source, label, target)`` arc, matching the evaluator's
    per-child latest-event selection.
    """
    latest: dict = {}
    for event in events:  # already globally ordered ascending
        latest[_subject_key(event[2])] = event
    return sorted(latest.values(), key=_event_key)


def _version_join(plan: RangePlan, events: list, ctx: ExecutionContext,
                  result: QueryResult, op) -> None:
    """Enumerate versions of the live path's nodes over the range.

    Mirrors the evaluator's ``<at [a..b]>`` semantics: every node on the
    live label path contributes one anchor version at the range's lower
    bound when it already existed there (no creation, or created at or
    before the bound), plus one version per in-range ``cre``/``upd``
    event.  The bound time context rides on the :class:`ObjectRef`, so
    value reads happen "as of" each version.
    """
    view = getattr(ctx.evaluator, "view", None)
    times_by_node: dict[str, list] = {}
    for when, _kind, subject in events:
        bucket = times_by_node.setdefault(subject, [])
        if bucket and bucket[-1] == when:
            continue  # cre and upd at the same instant are one version
        bucket.append(when)
    low = plan.low if plan.low.is_finite else None
    for node in sorted(ctx.paths.nodes(plan.labels)):
        if op is not None:
            op.rows_in += 1
        times: list = []
        if low is not None:
            creations = list(view.cre_fun(node)) if view is not None else []
            if not creations or min(creations) <= low:
                times.append(low)
        for when in times_by_node.get(node, ()):
            if times and when == times[-1]:
                continue  # the anchor coincides with the first event
            times.append(when)
        for when in times:
            result.add(_build_row(plan, "at", when, node, None, at=when))


def _verify_and_build(plan: RangePlan, kind: str, when: Timestamp,
                      subject, ctx: ExecutionContext) -> Row | None:
    graph = ctx.doem.graph
    if kind in ("add", "rem"):
        arc = subject
        if arc.label != plan.labels[-1]:
            return None
        if not _connects_backward(arc.source, plan.labels[:-1], ctx):
            return None
        return _build_row(plan, kind, when, arc.target, None)
    # cre / upd: subject is a node; the final arc must be live now.
    node = subject
    final_label = plan.labels[-1]
    for in_arc in graph.in_arcs(node):
        if in_arc.label != final_label:
            continue
        if not ctx.doem.arc_live_at(*in_arc, POS_INF):
            continue
        if _connects_backward(in_arc.source, plan.labels[:-1], ctx):
            if kind == "upd":
                triple = _upd_triple_at(node, when, ctx)
                if triple is None:
                    return None
                return _build_row(plan, kind, when, node, triple)
            return _build_row(plan, kind, when, node, None)
    return None


def _connects_backward(node: str, labels: tuple[str, ...],
                       ctx: ExecutionContext) -> bool:
    """Is there a live path root -labels-> node?

    Served by the memoized :class:`~repro.lore.indexes.PathIndex`: one
    forward expansion per distinct label prefix instead of a backward
    BFS per hit.
    """
    return ctx.paths.contains(node, labels)


def _upd_triple_at(node: str, when: Timestamp, ctx: ExecutionContext):
    for at, old, new in ctx.doem.upd_triples(node):
        if at == when:
            return (old, new)
    return None


def _build_row(plan: RangePlan, kind: str, when: Timestamp, node: str,
               upd_values, at: Timestamp | None = None) -> Row:
    items: list[tuple[str, object]] = []
    for item in plan.select:
        expr = item.expr
        if isinstance(expr, PathExpr) and expr.steps:
            label = item.label or plan.object_label
            items.append((label, ObjectRef(node, at)))
            continue
        name = expr.start if isinstance(expr, PathExpr) else expr.name
        if name == plan.object_var:
            items.append((item.label or plan.object_label,
                          ObjectRef(node, at)))
        elif name == plan.at_var:
            items.append((item.label or plan.time_label, when))
        elif name == plan.from_var:
            items.append((item.label or "old-value", upd_values[0]))
        elif name == plan.to_var:
            items.append((item.label or "new-value", upd_values[1]))
    return Row(tuple(items))
