"""Reference range kernel: the per-event verifier
``repro.plan.physical.execute_range_plan`` ran until it looked the path's
prefix set up once per query.  Kept as the oracle of
``test_range_kernel_equivalence.py``.

``range_rows`` scans every in-range event, sorts them all on a key built
from ``Timestamp._order_key()``, and -- for ``<last-change>`` -- keeps the
newest per subject and sorts again.  It then verifies each survivor on
its own: one ``PathIndex`` lookup per event, ``arc_live_at`` over the
copied annotation tuple for every final-label in-arc, and the ``upd``
pair found by building all of the node's ``upd_triples`` -- for every
``upd`` event, whether or not the select list names the pair.  The row
builder and the version join are the production ones the kernel ran
before it resolved its select list once per execution and read the
version anchor from the index: ``_build_row`` interprets the select list
per row, ``_version_join`` reads each live node's ``cre`` times, and
every row goes through ``QueryResult.add``.  Do not optimise this file.
"""

from __future__ import annotations

from repro.lorel.ast import PathExpr
from repro.lorel.result import ObjectRef, QueryResult, Row
from repro.plan.ir import VersionJoin
from repro.plan.stats import RangePlan
from repro.timestamps import POS_INF, Timestamp, order_tick

__all__ = ["range_rows"]

_KIND_RANK = {"cre": 0, "upd": 1, "add": 2, "rem": 3}


def range_rows(engine, query) -> QueryResult:
    """The rows the reference kernel builds for an index-served query."""
    compiled = engine.compile(query)
    plan = compiled.index_plan
    assert plan is not None, f"not index-served: {query}"
    ctx = engine._execution_context()
    events = _range_events(plan, ctx)
    result = QueryResult()
    if isinstance(compiled.root, VersionJoin):
        # The join reads (tick, rank, subject, when) events.
        _version_join(plan, [(order_tick(when), _KIND_RANK[kind], subject,
                              when) for when, kind, subject in events],
                      ctx, result, None)
        return result
    if plan.last_only:
        events = _last_events(events)
    for when, kind, subject in events:
        row = _verify_and_build(plan, kind, when, subject, ctx)
        if row is not None:
            result.add(row)
    return result


def _range_events(plan, ctx) -> list:
    events = []
    for kind in plan.kinds:
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
    latest: dict = {}
    for event in events:  # already globally ordered ascending
        latest[_subject_key(event[2])] = event
    return sorted(latest.values(), key=_event_key)


def _verify_and_build(plan, kind, when, subject, ctx):
    graph = ctx.doem.graph
    if kind in ("add", "rem"):
        arc = subject
        if arc.label != plan.labels[-1]:
            return None
        if not _connects_backward(arc.source, plan.labels[:-1], ctx):
            return None
        return _build_row(plan, when, arc.target, None)
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
                return _build_row(plan, when, node, triple)
            return _build_row(plan, when, node, None)
    return None


def _connects_backward(node, labels, ctx) -> bool:
    return ctx.paths.contains(node, labels)


def _upd_triple_at(node, when, ctx):
    for at, old, new in ctx.doem.upd_triples(node):
        if at == when:
            return (old, new)
    return None


def _version_join(plan: RangePlan, events: list, ctx,
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
    for _, _rank, subject, when in events:
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
            result.add(_build_row(plan, when, node, None, at=when))


def _build_row(plan: RangePlan, when: Timestamp, node: str, upd_values,
               at: Timestamp | None = None) -> Row:
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
