"""EXPLAIN ANALYZE: per-operator runtime stats.

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

When no stats collector is attached (``ctx.stats is None``) the
operators take their original uninstrumented paths;
``tests/plan/test_analyze_equivalence.py`` pins that an analyzed run
returns the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterator

from .ir import Exchange, LogicalNode

__all__ = ["OpStats", "PlanStats", "StageRecorder", "plan_fingerprint"]


def plan_fingerprint(root: LogicalNode) -> str:
    """A stable hash of a normalized logical plan tree.

    Computed over the deterministic EXPLAIN render of the *lowered*
    (pre-optimization) tree, so the fingerprint identifies the query
    shape after normalization but independent of which rewrite passes
    fire -- the key of the query log.
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

    def to_dict(self) -> dict:
        return {
            "op": self.op,
            "depth": self.depth,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "batches_in": self.batches_in,
            "batches_out": self.batches_out,
            "wall_seconds": round(self.wall_seconds, 6),
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


class PlanStats:
    """The runtime stats tree for one analyzed execution.

    Built over the *executed* root (after any ``insert_exchange``
    rewrite), with one :class:`OpStats` per node in preorder; the
    physical operators call the ``observe_*`` wrappers when
    ``ctx.stats`` is set.  ``finalize`` seals the totals; ``render`` is
    the annotated ANALYZE tree.
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
        """Seal the collection."""
        self.result_rows = result_rows
        self.execute_seconds = execute_seconds

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
            if op.shards:
                parts.append(f"shards {op.shards}")
            if op.vectorized_rows or op.fallback_rows:
                parts.append(f"vectorized {op.vectorized_rows}"
                             f"/fallback {op.fallback_rows}")
            lines.append(f"{indent}{op.op}  ({', '.join(parts)})")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "rows": self.result_rows,
            "execute_seconds": round(self.execute_seconds, 6),
            "ops": [op.to_dict() for op in self.ops],
        }
