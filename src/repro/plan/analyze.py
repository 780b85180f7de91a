"""EXPLAIN ANALYZE: per-operator runtime stats and cardinality feedback.

EXPLAIN renders the *static* plan; this module is the dynamic half.
When an engine executes with ``analyze=True`` it attaches a
:class:`PlanStats` collector to the
:class:`~repro.plan.physical.ExecutionContext` (``ctx.stats``), and the
physical operators wrap their streams so every node accounts:

* **rows/batches in and out** -- the input wrapper counts what a node
  pulls from its child, the output wrapper what it emits, so the
  invariant ``child.rows_out == parent.rows_in`` is measured, not
  assumed (the analyze equivalence suite pins it);
* **cumulative wall seconds** -- inclusive time: the wrapper clocks each
  ``next()`` on the node's output stream, so a node's figure covers its
  own work plus its inputs' (subtract the children to get self time);
* **vectorized vs. fallback predicate rows** -- how many rows the
  compiled closure judged versus how many fell back to the general
  solver (:func:`~repro.plan.batch.filter_rows` reports the split);
* **Exchange shard stats** -- detached stage nodes run on pool workers;
  each shard fills a :class:`StageRecorder` that returns beside the rows
  and merges into the coordinator's tree, so a sharded ANALYZE shows the
  same per-operator row totals as serial.

**Cardinality feedback** closes the loop: every node carries an
``est_rows`` estimate -- a deterministic heuristic on first sight, the
*recorded actuals* once the same plan fingerprint has been analyzed
before (:class:`CardinalityFeedback`) -- and :meth:`PlanStats.render`
surfaces the worst estimated-vs-actual misses.  When no stats collector
is attached (``ctx.stats is None``) the operators take their original
uninstrumented paths; analyze overhead is bounded by the
``BENCH_analyze`` gate (<5%, ``scripts/check_bench_baseline.py``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterator, Optional

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

__all__ = ["OpStats", "PlanStats", "StageRecorder", "CardinalityFeedback",
           "cardinality_feedback", "estimate_rows", "plan_fingerprint"]

# Deterministic first-sight heuristics: a path step fans out, a
# predicate keeps a third.  Deliberately crude -- the point of the
# feedback loop is that the *second* analyzed run of a fingerprint uses
# recorded actuals instead.
PATH_FANOUT = 8
PREDICATE_KEEP = 3  # keep 1 in 3


def plan_fingerprint(root: LogicalNode) -> str:
    """A stable hash of a normalized logical plan tree.

    Computed over the deterministic EXPLAIN render of the *lowered*
    (pre-optimization) tree, so the fingerprint identifies the query
    shape after normalization but independent of which rewrite passes
    fire -- the key the query log and the feedback store share.
    """
    import hashlib

    from .ir import render
    digest = hashlib.sha256(render(root).encode("utf-8")).hexdigest()
    return digest[:12]


@dataclass
class OpStats:
    """One operator's runtime accounting inside a :class:`PlanStats`."""

    node_id: int
    op: str
    depth: int
    rows_in: int = 0
    rows_out: int = 0
    batches_in: int = 0
    batches_out: int = 0
    wall_seconds: float = 0.0
    est_rows: Optional[int] = None
    est_source: str = "heuristic"
    shards: int = 0
    detached: bool = False  # an Exchange stage, fed by shard payloads
    pred_counts: dict = field(
        default_factory=lambda: {"vectorized": 0, "fallback": 0})

    @property
    def vectorized_rows(self) -> int:
        return self.pred_counts["vectorized"]

    @property
    def fallback_rows(self) -> int:
        return self.pred_counts["fallback"]

    def misestimate_factor(self) -> float:
        """How far off the estimate was (>= 1.0; 1.0 = exact)."""
        if self.est_rows is None:
            return 1.0
        est = max(1, self.est_rows)
        actual = max(1, self.rows_out)
        return max(est, actual) / min(est, actual)

    def to_dict(self) -> dict:
        return {
            "op": self.op,
            "depth": self.depth,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "batches_in": self.batches_in,
            "batches_out": self.batches_out,
            "wall_seconds": round(self.wall_seconds, 6),
            "est_rows": self.est_rows,
            "est_source": self.est_source,
            "shards": self.shards,
            "detached": self.detached,
            "vectorized_rows": self.vectorized_rows,
            "fallback_rows": self.fallback_rows,
        }


class StageRecorder:
    """Per-shard accounting for detached Exchange stages.

    One plain dict per stage index.  The coordinator folds every shard's
    recorder into the stage nodes' :class:`OpStats`
    (:meth:`PlanStats.merge_stage_payload`); row counts sum across
    shards, wall seconds sum to *CPU* seconds (shards overlap, so stage
    time can exceed the Exchange's wall clock).
    """

    __slots__ = ("stages",)

    def __init__(self, count: int) -> None:
        self.stages = [{"rows_in": 0, "rows_out": 0, "wall_seconds": 0.0,
                        "vectorized": 0, "fallback": 0}
                       for _ in range(count)]


def estimate_rows(root: LogicalNode) -> dict[int, int]:
    """Deterministic bottom-up cardinality estimates, by ``id(node)``."""
    assign: dict[int, int] = {}
    _estimate(root, assign)
    return assign


def _estimate(node: LogicalNode, assign: dict[int, int]) -> int:
    if isinstance(node, Scan):
        est = 1
    elif isinstance(node, PathExpand):
        child = _estimate(node.child, assign) if node.child is not None else 1
        est = child * PATH_FANOUT
    elif isinstance(node, Predicate):
        child = _estimate(node.child, assign) if node.child is not None else 1
        est = max(1, child // PREDICATE_KEEP)
    elif isinstance(node, Project):
        est = _estimate(node.child, assign) if node.child is not None else 1
    elif isinstance(node, TimeRangeScan):
        est = PATH_FANOUT * len(node.plan.kinds)
    elif isinstance(node, (DeltaProject, VersionJoin)):
        child = _estimate(node.child, assign) if node.child is not None else 1
        est = max(1, child // PREDICATE_KEEP)
    elif isinstance(node, Exchange):
        est = _estimate(node.child, assign)
        for stage in node.stages:
            if isinstance(stage, PathExpand):
                est = est * PATH_FANOUT
            elif isinstance(stage, Predicate):
                est = max(1, est // PREDICATE_KEEP)
            assign[id(stage)] = est
    else:  # pragma: no cover - lowering only builds the nodes above
        est = 1
    assign[id(node)] = est
    return est


class CardinalityFeedback:
    """Actual per-operator row counts, keyed by (fingerprint, shape).

    ``record`` stores the preorder ``rows_out`` vector of an analyzed
    execution; ``lookup`` returns it for the next compile of the same
    fingerprint *and* executed tree shape (serial and Exchange-rewritten
    trees are distinct shapes, so a sharded run never mis-seeds a serial
    estimate).  Bounded LRU -- old fingerprints age out.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._store: OrderedDict[tuple, tuple[int, ...]] = OrderedDict()
        self._lock = threading.Lock()

    def record(self, fingerprint: str, shape: tuple[str, ...],
               actuals: tuple[int, ...]) -> None:
        key = (fingerprint, shape)
        with self._lock:
            self._store[key] = actuals
            self._store.move_to_end(key)
            while len(self._store) > self.capacity:
                self._store.popitem(last=False)

    def lookup(self, fingerprint: str,
               shape: tuple[str, ...]) -> tuple[int, ...] | None:
        with self._lock:
            actuals = self._store.get((fingerprint, shape))
            if actuals is not None:
                self._store.move_to_end((fingerprint, shape))
            return actuals

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def reset(self) -> None:
        with self._lock:
            self._store.clear()


_FEEDBACK = CardinalityFeedback()


def cardinality_feedback() -> CardinalityFeedback:
    """The process-global feedback store."""
    return _FEEDBACK


class PlanStats:
    """The runtime stats tree for one analyzed execution.

    Built over the *executed* root (after any ``insert_exchange``
    rewrite), with one :class:`OpStats` per node in preorder; the
    physical operators call the ``observe_*`` wrappers when
    ``ctx.stats`` is set.  ``finalize`` records the actuals into the
    feedback store; ``render`` is the annotated ANALYZE tree.
    """

    def __init__(self, root: LogicalNode, *,
                 fingerprint: str = "") -> None:
        self.root = root
        self.fingerprint = fingerprint
        self.result_rows = 0
        self.execute_seconds = 0.0
        self.ops: list[OpStats] = []
        self._by_node: dict[int, OpStats] = {}
        self._build(root, 0)
        feedback = None
        if fingerprint:
            feedback = cardinality_feedback().lookup(fingerprint,
                                                     self.shape())
        if feedback is not None and len(feedback) == len(self.ops):
            for op, est in zip(self.ops, feedback):
                op.est_rows = est
                op.est_source = "feedback"
        else:
            estimates = estimate_rows(root)
            for op in self.ops:
                op.est_rows = estimates.get(op.node_id)

    def _build(self, node: LogicalNode, depth: int) -> None:
        op = OpStats(node_id=id(node), op=node.describe(), depth=depth)
        self.ops.append(op)
        self._by_node[id(node)] = op
        for child in node.children():
            self._build(child, depth + 1)
        if isinstance(node, Exchange):
            for stage in node.stages:
                self._by_node[id(stage)].detached = True

    # -- lookups ---------------------------------------------------------

    def op_for(self, node: LogicalNode) -> OpStats:
        return self._by_node[id(node)]

    def shape(self) -> tuple[str, ...]:
        """The preorder operator signature (the feedback-store key)."""
        return tuple(op.op for op in self.ops)

    # -- stream wrappers (called by the physical operators) --------------

    def observe_batches(self, node: LogicalNode, stream) -> Iterator:
        """Wrap a node's *output* batch stream: rows/batches out + wall."""
        op = self._by_node[id(node)]

        def wrapped():
            iterator = iter(stream)
            while True:
                started = perf_counter()
                try:
                    batch = next(iterator)
                except StopIteration:
                    op.wall_seconds += perf_counter() - started
                    return
                op.wall_seconds += perf_counter() - started
                op.batches_out += 1
                op.rows_out += len(batch)
                yield batch
        return wrapped()

    def observe_input(self, node: LogicalNode, stream) -> Iterator:
        """Wrap a node's *input* batch stream: rows/batches in."""
        op = self._by_node[id(node)]

        def wrapped():
            for batch in stream:
                op.batches_in += 1
                op.rows_in += len(batch)
                yield batch
        return wrapped()

    def predicate_counts(self, node: LogicalNode) -> dict:
        """The mutable vectorized/fallback tally ``filter_rows`` fills."""
        return self._by_node[id(node)].pred_counts

    # -- shard merging ----------------------------------------------------

    def merge_stage_payload(self, exchange: Exchange,
                            payload: list[dict]) -> None:
        """Fold one shard's :class:`StageRecorder` payload into the tree."""
        for stage, rec in zip(exchange.stages, payload):
            op = self._by_node[id(stage)]
            op.rows_in += rec["rows_in"]
            op.rows_out += rec["rows_out"]
            op.wall_seconds += rec["wall_seconds"]
            op.pred_counts["vectorized"] += rec["vectorized"]
            op.pred_counts["fallback"] += rec["fallback"]

    # -- finishing --------------------------------------------------------

    def finalize(self, result_rows: int, execute_seconds: float) -> None:
        """Seal the collection and feed the actuals back to the estimator."""
        self.result_rows = result_rows
        self.execute_seconds = execute_seconds
        if self.fingerprint:
            cardinality_feedback().record(
                self.fingerprint, self.shape(),
                tuple(op.rows_out for op in self.ops))

    def misestimates(self, limit: int = 3,
                     threshold: float = 2.0) -> list[OpStats]:
        """The operators whose estimates missed worst (factor >= threshold)."""
        order = {id(op): position for position, op in enumerate(self.ops)}
        missed = [op for op in self.ops
                  if op.est_rows is not None
                  and op.misestimate_factor() >= threshold]
        missed.sort(key=lambda op: (-op.misestimate_factor(),
                                    order[id(op)]))
        return missed[:limit]

    # -- export -----------------------------------------------------------

    def render(self) -> str:
        """The annotated ANALYZE plan tree, one operator per line."""
        lines: list[str] = []
        for op in self.ops:
            indent = "  " * op.depth
            parts = [f"rows {op.rows_in} -> {op.rows_out}"]
            if op.batches_out or op.batches_in:
                parts.append(f"batches {op.batches_in} -> {op.batches_out}")
            parts.append(f"time {op.wall_seconds * 1000:.3f}ms")
            if op.est_rows is not None:
                tag = "est" if op.est_source == "heuristic" else "est*"
                parts.append(f"{tag} {op.est_rows}")
            if op.shards:
                parts.append(f"shards {op.shards}")
            if op.vectorized_rows or op.fallback_rows:
                parts.append(f"vectorized {op.vectorized_rows}"
                             f"/fallback {op.fallback_rows}")
            lines.append(f"{indent}{op.op}  ({', '.join(parts)})")
        missed = self.misestimates()
        if missed:
            lines.append("misestimates:")
            for op in missed:
                lines.append(f"  {op.op}: est {op.est_rows} vs actual "
                             f"{op.rows_out} (x{op.misestimate_factor():.1f})")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "rows": self.result_rows,
            "execute_seconds": round(self.execute_seconds, 6),
            "ops": [op.to_dict() for op in self.ops],
            "misestimates": [
                {"op": op.op, "est_rows": op.est_rows,
                 "rows_out": op.rows_out,
                 "factor": round(op.misestimate_factor(), 3)}
                for op in self.misestimates()],
        }
