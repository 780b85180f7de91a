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

Three operators do more than plumb:

* :func:`execute_range_plan` -- the index kernel behind ``DeltaProject``
  and ``VersionJoin``: per-kind timestamp-index range scans, checked
  against the path's prefix set looked up once per query.
* the ``TimeColumnScan`` leaf -- bisects a time column of the OEM
  encoding and binds the from-chain above each atom it finds.
* the ``Exchange`` operator -- binds its source chain serially,
  shards the environments contiguously, runs the detached stages on
  pool workers, and concatenates in shard order.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Iterator, Optional

from ..lorel.eval import NodeBinding
from ..lorel.result import ObjectRef, QueryResult, Row
from ..obs.trace import span
from ..timestamps import POS_INF, order_tick
from .batch import (
    DEFAULT_BATCH_SIZE,
    EnvBatch,
    batch_rows_histogram,
    compile_node_test,
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
    TimeColumnScan,
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

    ``index``/``paths``/``doem`` are only set by the indexed engine,
    ``time_columns`` by the translating one; ``pool`` and
    ``parallel_metrics`` are only set when the
    :class:`~repro.parallel.executor.ParallelExecutor` drives execution.
    ``batch_size`` is the batch width the operators
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
    time_columns: dict = field(default_factory=dict)
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
        keep = compile_node_test(node.test, ctx.evaluator.view)
        counts = (ctx.stats.predicate_counts(node)
                  if ctx.stats is not None else None)
        for batch in _child_batches(node, ctx):
            rows = kernel(node.item, batch.rows, keep, counts)
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
    elif isinstance(node, TimeColumnScan):
        rows = _time_column_rows(node, ctx)
        if rows:
            yield from EnvBatch(rows).split(size)
    elif isinstance(node, Exchange):
        yield from _exchange_batches(node, ctx)
    else:  # pragma: no cover - lowering only builds the nodes above
        raise TypeError(f"cannot stream batches from {node!r}")


def _time_column_rows(node: TimeColumnScan, ctx: ExecutionContext) -> list:
    """Walk in-arcs back from the interval's atoms, then the chain forward
    through the nodes found only (the replaced walk's row order)."""
    plan = node.plan
    view, labels = ctx.evaluator.view, plan.labels
    level = {atom for _, atom in ctx.time_columns[labels[-1]].between(
        plan.low, plan.high, plan.include_low, plan.include_high)}
    allowed = [level]
    for label in reversed(labels[1:]):
        level = {parent for child in level
                 for parent in view.parents(child, label)}
        allowed.insert(0, level)
    paths = [(view.resolve_name(plan.root_name),)] if level else []
    for label, keep in zip(labels, allowed):
        paths = [path + (child,) for path in paths
                 for child in view.children_in(path[-1], label, keep)]
    names = [item.var for item in node.items]
    return [{**ctx.base_env, **dict(zip(names, map(NodeBinding, path[1:])))}
            for path in paths]


def run_stages_on_rows(stages, rows: list, evaluator) -> list:
    """Run detached Exchange stages over one shard's rows, in order."""
    for stage in stages:
        if isinstance(stage, PathExpand):
            keep = compile_node_test(stage.test, evaluator.view)
            rows = evaluator.bind_from_item_batch(stage.item, rows, keep)
        elif isinstance(stage, Predicate):
            pred = compile_predicate(stage.condition, evaluator)
            rows = filter_rows(evaluator, stage.condition, rows, pred)
        else:
            raise TypeError(f"unsupported exchange stage {stage!r}")
    return rows


def _exchange_batches(node: Exchange,
                      ctx: ExecutionContext) -> Iterator[EnvBatch]:
    """Bind the source serially, shard whole batches out, merge in order."""
    from ..parallel.sharding import chunk_evenly, shard_count

    with span("parallel.bind_first"):
        first_rows: list = []
        for batch in _child_batches(node, ctx):
            first_rows.extend(batch.rows)
    metrics = ctx.parallel_metrics
    shards = shard_count(len(first_rows), ctx.pool.max_workers)
    if shards <= 1:
        if metrics is not None:
            metrics["serial_queries"].inc()
        rows = run_stages_on_rows(node.stages, first_rows, ctx.evaluator)
        if rows:
            yield from EnvBatch(rows).split(ctx.batch_size)
        return
    if metrics is not None:
        metrics["sharded_queries"].inc()
        metrics["shards"].inc(shards)
    ctx.observed["shards"] = shards
    stages, evaluator = node.stages, ctx.evaluator

    def task(chunk):
        with span("parallel.shard", rows=len(chunk)):
            return run_stages_on_rows(stages, chunk, evaluator)

    with span("parallel.fanout", shards=shards):
        outcomes = ctx.pool.map_ordered(task,
                                        chunk_evenly(first_rows, shards))
    for rows in outcomes:
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
    source = replace(first, child=Scan())
    stages = tuple(replace(n, child=None)
                   for n in reversed(chain[:-1]))  # application order
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

    The one post-compile execution path every engine facade shares.  An
    index-served plan runs the range kernel under ``chorel.index_scan``
    and is never sharded: one timestamp-index scan per kind plus one
    prefix-set check per kept event is already sublinear.  With a worker
    pool on the context any other plan is rewritten for sharding
    (:func:`insert_exchange`; unshardable plans run serially); without
    one it runs under ``lorel.eval``.  With ``analyze=True`` the plan
    runs serially, pool or not, under a
    :class:`~repro.plan.analyze.PlanStats` collector finalized into
    ``compiled.runtime``; either way the execution lands one record in
    the :mod:`repro.obs.querylog`.
    """
    from ..obs.querylog import record_engine_query
    from .analyze import PlanStats

    root, index_plan = compiled.root, compiled.index_plan
    if index_plan is not None:
        scope = span("chorel.index_scan", plan=index_plan.describe())
    elif ctx.pool is None:
        scope = span("lorel.eval")
    else:
        scope = nullcontext()
        if not analyze:
            exchanged = insert_exchange(root)
            if exchanged is not None:
                root = exchanged
            elif ctx.parallel_metrics is not None:
                ctx.parallel_metrics["serial_queries"].inc()
    with scope:
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
# One executor serves every index-served shape.  A *scan* reads the
# in-range `(when, kind, subject)` change events -- one timestamp-index
# range scan per kind -- and the terminal keeps the events the plan's
# path reaches: the path's prefix set is looked up once per execution,
# so an arc event costs one set membership and a node event one more
# read, the liveness of its final-label in-arcs.  `<last-change>` keeps
# the newest event per subject before verifying.  Only the kept events
# are put in the global order: time, then kind (cre, upd, add, rem),
# then subject.  A single-time annotation is the one-kind case, its
# interval usually pinned to `[t, t]`.  Each row is built once; only a
# plan whose rows are not distinct by construction deduplicates them.

_KIND_RANK = {"cre": 0, "upd": 1, "add": 2, "rem": 3}


def execute_range_plan(plan: RangePlan, ctx: ExecutionContext,
                       node: LogicalNode | None = None, *,
                       versions: bool = False) -> QueryResult:
    """Run a range plan: scan events, keep those on the path, build rows.

    ``node`` (the terminal IR node, when executing a compiled tree)
    routes ANALYZE accounting: the terminal counts candidate events in
    (after last-only grouping) and rows out, and its ``TimeRangeScan``
    child -- when present -- counts the index entries the scan read.
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
    slots = plan.row_slots()
    if versions:
        columns = _version_join(plan, _ordered(events), ctx, op)
    else:
        if plan.last_only:
            events = _newest_per_subject(events)
        if op is not None:
            op.rows_in += len(events)
        columns = _event_columns(plan, events, slots, ctx)
    # The one row builder: a row holds its select list's slots, read
    # column-wise from the (object, time, old, new) columns.
    rows = list(map(Row, zip(*[[(label, value) for value in columns[slot]]
                               for label, slot in slots])))
    result = QueryResult.of_distinct(rows) if plan.distinct_rows \
        else QueryResult(rows)
    if op is not None:
        op.wall_seconds += perf_counter() - started
        op.rows_out = len(result)
    return result


def _range_events(plan: RangePlan, ctx: ExecutionContext) -> list:
    """All in-range ``(when, kind rank, subject)`` events, unordered:
    kind by kind in rank order, each kind in time order."""
    events = []
    for kind in plan.kinds:
        rank = _KIND_RANK[kind]
        # Arc kinds narrow the scan to the final step's label via the
        # index's label partition; node kinds scan the kind list.
        label = plan.labels[-1] if rank >= 2 else None
        events.extend((when, rank, subject) for when, subject
                      in ctx.index.between(
                          kind, plan.low, plan.high,
                          include_low=plan.include_low,
                          include_high=plan.include_high, label=label))
    return events


def _newest_per_subject(events: list) -> list:
    """Keep the newest event per subject (``<last-change>`` semantics).

    Node events group per node across ``cre``/``upd``; arc events group
    per ``(source, label, target)`` arc, matching the evaluator's
    per-child latest-event selection.  Within one kind the events arrive
    in time order, so only a change of kind needs a time comparison; a
    tie in time goes to the later kind, as the global order has it.
    """
    newest: dict = {}
    for event in events:
        previous = newest.get(event[2])
        if previous is None or previous[1] == event[1] \
                or previous[0] <= event[0]:
            newest[event[2]] = event
    return list(newest.values())


def _on_path(plan: RangePlan, events: list, ctx: ExecutionContext):
    """The events whose subject the plan's live path reaches.

    An arc event is on the path when its source is in the prefix set
    (the scan read only the final label's arcs); a node event when one
    of its live final-label in-arcs comes from the prefix set.
    """
    prefix = ctx.paths.nodes(plan.labels[:-1])
    if plan.kinds[0] in ("add", "rem"):
        return [event for event in events if event[2].source in prefix]
    live_parents, final = ctx.doem.live_parents, plan.labels[-1]
    return [event for event in events
            if not prefix.isdisjoint(live_parents(event[2], final))]


def _ordered(events: list) -> list:
    """``events`` as ``(tick, kind rank, subject, when)``, sorted."""
    return sorted((order_tick(when), rank, subject, when)
                  for when, rank, subject in events)


def _event_columns(plan: RangePlan, events: list, slots,
                   ctx: ExecutionContext) -> tuple[list, ...]:
    """The kept events' ``(object, time, old, new)`` row columns, in the
    global order.  An ``upd`` reads its old/new pair only when the select
    list names it; otherwise the index entry is its own witness."""
    objects: list = []
    times: list = []
    olds: list = []
    news: list = []
    upd_pair = ctx.doem.upd_pair if any(slot >= 2 for _, slot in slots) \
        else None
    for _, rank, subject, when in _ordered(_on_path(plan, events, ctx)):
        if upd_pair is not None:  # only <upd> names them: an upd event
            pair = upd_pair(subject, when)
            if pair is None:
                continue
            olds.append(pair[0])
            news.append(pair[1])
        # An arc event's object is the arc's target.
        objects.append(ObjectRef(subject.target if rank >= 2 else subject))
        times.append(when)
    return objects, times, olds, news


def _version_join(plan: RangePlan, events: list, ctx: ExecutionContext,
                  op) -> tuple[list, ...]:
    """Enumerate versions of the live path's nodes over the range.

    Mirrors the evaluator's ``<at [a..b]>`` semantics: every node on the
    live label path contributes one anchor version at the range's lower
    bound when it already existed there (it has no ``cre`` after the
    bound: one index scan per query), plus one version per in-range
    ``cre``/``upd`` event.  The bound time context rides on the
    :class:`ObjectRef`, so value reads happen "as of" each version.
    Returns the ``(object, time)`` row columns, node by node.
    """
    on_path = ctx.paths.nodes(plan.labels)
    if op is not None:
        op.rows_in += len(on_path)
    versions: dict[str, list] = {node: [] for node in sorted(on_path)}
    if plan.low.is_finite:
        low = plan.low
        created_after = {node for _, node in ctx.index.between(
            "cre", low, POS_INF, include_low=False)}
        for node, bucket in versions.items():
            if node not in created_after:
                bucket.append(low)
    for _, _rank, subject, when in events:
        bucket = versions.get(subject)
        # cre and upd at one instant, or an event at the anchor, are
        # one version.
        if bucket is not None and not (bucket and bucket[-1] == when):
            bucket.append(when)
    nodes: list = []
    times: list = []
    for node, bucket in versions.items():
        nodes += [node] * len(bucket)
        times += bucket
    return list(map(ObjectRef, nodes, times)), times
