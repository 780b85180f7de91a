"""Plan-layer accounting types: the index plan and the pushdown stats.

:class:`RangePlan` is the physical description of an annotation-index
scan (the ``TimeRangeScan`` leaf and its ``DeltaProject`` /
``VersionJoin`` terminal carry one); :class:`EngineStats` is the
per-engine indexed-vs-fallback split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..lorel.ast import SelectItem
from ..obs.metrics import CounterField, registry as metrics_registry
from ..timestamps import NEG_INF, POS_INF, Timestamp

__all__ = ["RangePlan", "EngineStats", "TIME_LABELS"]

TIME_LABELS = {"cre": "create-time", "add": "add-time",
               "rem": "remove-time", "upd": "update-time"}


@dataclass
class RangePlan:
    """A recognized index-servable annotation query.

    "Events of kind K on this path with T in an interval": ``kinds``
    lists the *real* event kinds to enumerate (``("cre", "upd")`` for a
    node-position ``<changed>``, ``("add", "rem")`` for the arc position,
    a 1-tuple for a real annotation), the interval comes from the
    annotation's pinned time (the degenerate ``[t, t]``) or its
    ``in [a..b]`` range (inclusive on both present sides), narrowed by
    folded where conjuncts.  ``strategy`` names the one physical source,
    merged per-kind :class:`~repro.lore.indexes.TimestampIndex` scans.
    """

    # A constant, not a field: there is one range strategy.  EXPLAIN
    # and the pipeline benchmark's per-strategy counter read it.
    strategy = "index-scan"

    kinds: tuple[str, ...]        # real event kinds to enumerate
    labels: tuple[str, ...]       # plain labels of the path, in order
    root_name: str                # the database name the path starts at
    at_var: str
    from_var: Optional[str] = None   # upd only
    to_var: Optional[str] = None     # upd only
    object_var: Optional[str] = None  # explicit range variable, if any
    low: Timestamp = NEG_INF
    high: Timestamp = POS_INF
    include_low: bool = True
    include_high: bool = True
    last_only: bool = False       # <last-change ...>: newest per subject
    select: tuple[SelectItem, ...] = ()
    object_label: str = "answer"
    time_label: str = "change-time"

    def describe(self) -> str:
        """Human-readable plan summary (for EXPLAIN and the goldens)."""
        lo = "[" if self.include_low else "("
        hi = "]" if self.include_high else ")"
        text = (f"range-scan {'+'.join(self.kinds)} over "
                f"{'.'.join((self.root_name,) + self.labels)} "
                f"in {lo}{self.low}, {self.high}{hi} "
                f"strategy={self.strategy}")
        if self.last_only:
            text += " last-only"
        return text


class EngineStats:
    """Per-engine pushdown accounting: which path served each query.

    Registered in the global metrics registry under
    ``repro.chorel_engine``; the attributes remain the API.
    """

    _FIELDS = ("indexed_queries", "fallback_queries")

    indexed_queries = CounterField()
    fallback_queries = CounterField()

    def __init__(self) -> None:
        self._metrics = metrics_registry().group("repro.chorel_engine",
                                                 self._FIELDS)

    @property
    def total(self) -> int:
        return self.indexed_queries + self.fallback_queries

    @property
    def pushdown_rate(self) -> float:
        """Fraction of queries served by an index plan."""
        return self.indexed_queries / self.total if self.total else 0.0

    def reset(self) -> None:
        self._metrics.reset()

    def as_dict(self) -> dict:
        """Raw counters plus derived rates, for artifacts and tests."""
        return {"indexed_queries": self.indexed_queries,
                "fallback_queries": self.fallback_queries,
                "total": self.total,
                "pushdown_rate": self.pushdown_rate}

    def describe(self) -> str:
        return (f"queries={self.total} indexed={self.indexed_queries} "
                f"fallback={self.fallback_queries} "
                f"pushdown_rate={self.pushdown_rate:.2f}")
