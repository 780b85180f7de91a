"""The logical plan IR: a small algebra lowered from the Lorel/Chorel AST.

Nine node kinds cover every query the engines accept:

* :class:`Scan` -- the ambient environment (database names, polling
  times, trigger pre-bindings); the leaf every chain starts from.
* :class:`PathExpand` -- one normalized from-item: extend each incoming
  environment with every data-ordered binding of the item's path that
  passes the node's fused ``where`` test, if it carries one.
* :class:`Predicate` -- the where clause: keep the environments with at
  least one solution.
* :class:`Project` -- the select clause: emit one labeled row per
  surviving environment (set semantics apply downstream).
* :class:`Exchange` -- the parallel boundary: materialize the source
  chain's environments, cut them into contiguous shards, and run the
  detached ``stages`` on pool workers, concatenating in shard order (the
  merge discipline that keeps sharded results order-identical to serial).
* :class:`TimeRangeScan` -- the index source leaf: read the change
  events of a :class:`~repro.plan.stats.RangePlan`'s interval, one
  timestamp-index scan per kind.
* :class:`DeltaProject` -- index selection's terminal for event queries
  (real annotations pinned, ranged or free, ``<changed>``,
  ``<last-change>``): keep the scanned events the plan's path reaches
  and project them into rows, in one global deterministic order.
* :class:`VersionJoin` -- index selection's terminal for version
  enumeration (``<at [a..b]>``): join the live path's node set against
  the scanned events, anchoring each node's in-range version sequence
  at the range's lower bound.
* :class:`TimeColumnScan` -- a translated from-chain ending in one time
  atom of the OEM encoding, bound from that label's time column.

Nodes are frozen dataclasses; rewrite passes build new trees rather than
mutating.  ``render(root)`` is the EXPLAIN tree dump -- deterministic for
a given query, which is what the golden files in ``tests/plan/goldens``
pin down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..lorel.ast import Comparison, Condition, FromItem, Literal, SelectItem, \
    TimeVar, VarRef
from .stats import RangePlan

__all__ = ["LogicalNode", "Scan", "PathExpand", "Predicate", "Project",
           "TimeRangeScan", "DeltaProject", "VersionJoin", "TimeColumnScan",
           "Exchange", "render"]


class LogicalNode:
    """Base class for logical plan nodes."""

    def children(self) -> tuple["LogicalNode", ...]:
        return ()

    def describe(self) -> str:  # pragma: no cover - subclasses override
        return type(self).__name__


@dataclass(frozen=True)
class Scan(LogicalNode):
    """The ambient environment: where every evaluation chain starts."""

    def describe(self) -> str:
        return "Scan"


@dataclass(frozen=True)
class PathExpand(LogicalNode):
    """Extend each incoming environment along one from-item's path.

    ``child`` is ``None`` when the node rides inside an
    :class:`Exchange` as a detached shard stage.  ``test`` holds the
    ``where`` conjuncts the ``filter-fusion`` rule moved here (the item's
    last step is then a plain label): each node that hop reaches must
    pass them before a binding and an environment are built for it.
    """

    item: FromItem
    child: Optional[LogicalNode] = None
    test: tuple[Comparison, ...] = ()

    def children(self) -> tuple[LogicalNode, ...]:
        return (self.child,) if self.child is not None else ()

    def describe(self) -> str:
        if self.test:
            return (f"PathExpand {self.item} test "
                    + " and ".join(map(str, self.test)))
        return f"PathExpand {self.item}"


@dataclass(frozen=True)
class Predicate(LogicalNode):
    """Keep environments with at least one solution to the condition."""

    condition: Condition
    child: Optional[LogicalNode] = None

    def children(self) -> tuple[LogicalNode, ...]:
        return (self.child,) if self.child is not None else ()

    def describe(self) -> str:
        return f"Predicate {self.condition}"


@dataclass(frozen=True)
class Project(LogicalNode):
    """Emit one labeled row per surviving environment."""

    select: tuple[SelectItem, ...]
    labels: dict = field(default_factory=dict)
    child: LogicalNode = None  # type: ignore[assignment]

    def children(self) -> tuple[LogicalNode, ...]:
        return (self.child,) if self.child is not None else ()

    def describe(self) -> str:
        shown = []
        for item in self.select:
            expr = item.expr
            if isinstance(expr, VarRef):
                shown.append(item.label or self.labels.get(expr.name,
                                                           expr.name))
            elif isinstance(expr, Literal):
                shown.append(item.label or "value")
            elif isinstance(expr, TimeVar):
                shown.append(item.label or "time")
            else:
                shown.append(item.label or str(expr))
        return "Project [" + ", ".join(shown) + "]"


@dataclass(frozen=True)
class TimeRangeScan(LogicalNode):
    """Enumerate change events inside a time range (the index source leaf).

    The :class:`~repro.plan.stats.RangePlan` names the event kinds and
    the interval (``[t, t]`` for a pinned single-time annotation); the
    scan merges one timestamp-index range scan per kind into a stream
    globally ordered by ``(time, kind, subject)``.
    """

    plan: RangePlan

    def describe(self) -> str:
        return f"TimeRangeScan {self.plan.describe()}"


@dataclass(frozen=True)
class DeltaProject(LogicalNode):
    """Keep and project scanned change events into result rows.

    Index selection's terminal for event queries: ``last-only`` plans
    first keep the newest in-range event per subject; an event from the
    child :class:`TimeRangeScan` is kept when its subject is on the
    plan's live path (checked against the path's prefix set, looked up
    once), and the kept events are ordered and built into rows.
    """

    plan: RangePlan
    child: Optional[LogicalNode] = None

    def children(self) -> tuple[LogicalNode, ...]:
        return (self.child,) if self.child is not None else ()

    def describe(self) -> str:
        tail = " last-only" if self.plan.last_only else ""
        return f"DeltaProject {'+'.join(self.plan.kinds)}{tail}"


@dataclass(frozen=True)
class VersionJoin(LogicalNode):
    """Enumerate the versions of the path's nodes over the plan's range.

    Index selection's terminal for ``<at [a..b]>``: the live path's
    node set is joined against the child :class:`TimeRangeScan`'s
    ``cre``/``upd`` events; a node that predates the range anchors one
    version at the lower bound, and each in-range event adds another.
    """

    plan: RangePlan
    child: Optional[LogicalNode] = None

    def children(self) -> tuple[LogicalNode, ...]:
        return (self.child,) if self.child is not None else ()

    def describe(self) -> str:
        path = ".".join((self.plan.root_name,) + self.plan.labels)
        return f"VersionJoin {path}"


@dataclass(frozen=True)
class TimeColumnScan(LogicalNode):
    """``items`` (a database name down to ``U.&time T``), bound from the
    time atoms of ``plan``'s interval as the ``PathExpand`` walk would."""

    items: tuple[FromItem, ...]
    plan: RangePlan

    def describe(self) -> str:
        chain = ", ".join(str(item) for item in self.items)
        return (f"TimeColumnScan {self.plan.labels[-1]} in "
                f"{self.plan.interval()}: {chain}")


@dataclass(frozen=True)
class Exchange(LogicalNode):
    """The parallel boundary between serial binding and sharded stages.

    ``child`` is the source chain (the first :class:`PathExpand` over
    :class:`Scan`), bound serially on the coordinating thread; ``stages``
    are detached :class:`PathExpand`/:class:`Predicate` nodes each shard
    applies in order on a pool worker.
    """

    child: LogicalNode
    stages: tuple[LogicalNode, ...] = ()

    def children(self) -> tuple[LogicalNode, ...]:
        return (self.child,) + self.stages

    def describe(self) -> str:
        return f"Exchange stages={len(self.stages)}"


def render(root: LogicalNode, indent: str = "") -> str:
    """The indented EXPLAIN tree for a (sub)plan, one node per line."""
    lines = [f"{indent}{root.describe()}"]
    for child in root.children():
        lines.append(render(child, indent + "  "))
    return "\n".join(lines)
