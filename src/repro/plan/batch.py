"""Environment batches: the unit of work of the batched physical operators.

Streaming environments one at a time through nested generators makes
the generator plumbing itself -- one frame resume per environment per
operator -- dominate the hot path, and makes the sharding ``Exchange``
pay that plumbing again per shard *plus* per-task submission overhead
for tiny work units.  The operators move whole :class:`EnvBatch` lists
instead:

* ``PathExpand`` advances an entire batch through its path with a
  frontier traversal (:meth:`repro.lorel.eval.Evaluator.
  bind_from_item_batch`) -- one list append per match, no generator
  frames -- testing a fused ``where`` (:func:`compile_node_test`) on the
  nodes its last hop reaches;
* ``Predicate`` evaluates **vectorized** over the batch: the condition is
  compiled once per operator into a plain-Python closure
  (:func:`compile_predicate`) and applied row by row in a single loop,
  falling back to the evaluator's general ``solve`` only for rows (or
  condition shapes) the closure cannot serve;
* ``Exchange`` ships whole batches to pool workers, so each submitted
  task amortizes its scheduling cost over hundreds of rows.

Batches are sized by ``ExecutionContext.batch_size``
(:data:`DEFAULT_BATCH_SIZE` rows; the equivalence suite varies it); every
batch an operator emits is observed in the ``repro.plan.batch_rows``
histogram so a metrics dump shows the actual batch-size distribution.

Equivalence contract: all operators are per-row independent and
order-preserving, so results are row- and order-identical to the
legacy evaluator for **any** positive batch size -- the hypothesis
suite in ``tests/plan/test_batched_equivalence.py`` pins this
across engines, batch sizes, and shard widths.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from ..lorel.ast import And, Comparison, Condition, LikeCond, Literal, \
    Not, Or, PathExpr, TimeVar, VarRef
from ..lorel.eval import NodeBinding
from ..obs.metrics import registry as metrics_registry
from ..oem.values import COMPLEX, comparator, like_matcher
from ..parallel.sharding import chunk_fixed

__all__ = ["EnvBatch", "DEFAULT_BATCH_SIZE", "BATCH_ROWS_METRIC",
           "batch_rows_histogram", "compile_predicate", "compile_node_test",
           "filter_rows"]

DEFAULT_BATCH_SIZE = 256
"""The operator batch width (rows) every engine executes at.

Large enough that per-batch overhead (one histogram observation, one
pool submission under Exchange) is noise against per-row work; small
enough that pipelined memory stays bounded and shards split evenly.
"""

BATCH_ROWS_METRIC = "repro.plan.batch_rows"

_BATCH_BUCKETS = (1, 4, 16, 64, 256, 1024, 4096, 16384)


def batch_rows_histogram():
    """The batch-size histogram (row counts, not seconds)."""
    return metrics_registry().histogram(BATCH_ROWS_METRIC,
                                        buckets=_BATCH_BUCKETS)


class EnvBatch:
    """A list of environments moving between physical operators.

    Thin by design -- the rows stay plain environment dicts so the
    evaluator kernels apply unchanged -- but with the column-style
    access batched operators want: :meth:`column` materializes one
    variable's bindings across the batch in row order, which is what the
    vectorized comparison fast path iterates instead of per-row dict
    lookups inside a generic interpreter loop.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: list) -> None:
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def column(self, name: str, default=None) -> list:
        """The variable's binding per row (``default`` where unbound)."""
        return [env.get(name, default) for env in self.rows]

    def split(self, size: int) -> Iterator["EnvBatch"]:
        """Re-chunk into batches of at most ``size`` rows, order kept."""
        if size < 1:
            raise ValueError(f"batch size must be positive, got {size}")
        if len(self.rows) <= size:
            return iter((self,))
        return (EnvBatch(chunk) for chunk in chunk_fixed(self.rows, size))

    @staticmethod
    def concat(batches: list["EnvBatch"]) -> "EnvBatch":
        """One batch holding every row, in batch-then-row order."""
        rows: list = []
        for batch in batches:
            rows.extend(batch.rows)
        return EnvBatch(rows)


# ---------------------------------------------------------------------------
# Vectorized predicate evaluation
# ---------------------------------------------------------------------------
#
# ``Predicate`` only asks *does the condition have a solution?* -- it never
# keeps bindings the condition introduces.  For conditions built purely
# from literals, polling-time variables, already-bound variables and paths
# of plain steps from them (a plain step binds nothing), solving cannot
# extend the environment, so the existential check decomposes into ordinary
# boolean evaluation: And = conjunction, Or = disjunction, Not = negation,
# Comparison/LikeCond = *exists* over the values either side reads.
# compile_predicate turns such a condition into a closure once; a path with
# any other step (and the `= None` existence-test encoding, whose
# semantics hang on match multiplicity) stays on the general solver.

class _NotVectorizable(Exception):
    """Internal: the condition shape needs the general solver."""


def compile_predicate(condition: Condition,
                      evaluator) -> Optional[Callable[[dict], bool]]:
    """A per-row boolean closure for ``condition``, or ``None``.

    The closure raises ``KeyError`` for rows where a referenced variable
    is unbound -- callers fall back to the general solver for that row
    (:func:`filter_rows` does), so the fast path never changes semantics,
    only speed.
    """
    try:
        return _compile_condition(condition, evaluator)
    except _NotVectorizable:
        return None


def _compile_condition(condition, evaluator):
    if isinstance(condition, And):
        left = _compile_condition(condition.left, evaluator)
        right = _compile_condition(condition.right, evaluator)
        return lambda env: left(env) and right(env)
    if isinstance(condition, Or):
        left = _compile_condition(condition.left, evaluator)
        right = _compile_condition(condition.right, evaluator)
        return lambda env: left(env) or right(env)
    if isinstance(condition, Not):
        operand = _compile_condition(condition.operand, evaluator)
        return lambda env: not operand(env)
    if isinstance(condition, Comparison):
        if isinstance(condition.right, Literal) and \
                condition.right.value is None:
            # The bare-path existence encoding: semantics depend on match
            # multiplicity, which only the general solver models.
            raise _NotVectorizable
        left = _compile_operand(condition.left, evaluator)
        op = condition.op
        if isinstance(condition.right, Literal):
            test = comparator(op, condition.right.value)
            return lambda env: any(map(test, left(env)))
        right = _compile_operand(condition.right, evaluator)
        holds = evaluator._holds

        def exists(env):
            lefts = left(env)
            # As the solver: without a left value the right is never read.
            rights = right(env) if lefts else ()
            return any(holds(one, op, other)
                       for one in lefts for other in rights)
        return exists
    if isinstance(condition, LikeCond):
        operand = _compile_operand(condition.expr, evaluator)
        matches = like_matcher(condition.pattern)
        return lambda env: any(map(matches, operand(env)))
    raise _NotVectorizable


def _compile_operand(expr, evaluator):
    """``env -> the values the expression reads`` (a path: all it reaches)."""
    if isinstance(expr, Literal):
        values = (expr.value,)
        return lambda env: values
    if isinstance(expr, TimeVar):
        return lambda env: (evaluator._polling_time(expr, env),)
    if isinstance(expr, VarRef):
        name = expr.name
        value_of = evaluator._value_of
        return lambda env: (value_of(env[name]),)  # KeyError -> row fallback
    if isinstance(expr, PathExpr) and all(
            step.is_plain and step.arc_annotation is None
            and step.node_annotation is None for step in expr.steps):
        return _compile_path(expr, evaluator.view)
    raise _NotVectorizable


def _compile_path(path: PathExpr, view):
    """``env -> the values the path reads`` from its start's binding."""
    start = path.start
    read = plain_reader(tuple(step.label for step in path.steps), view)

    def reach(env):
        binding = env[start]  # KeyError (a database name) -> row fallback
        if not isinstance(binding, NodeBinding):
            raise KeyError(start)  # a scalar starts no path: the solver says so
        return [one for _, one in read((binding.node,), binding.at)]
    return reach


def plain_reader(labels: tuple[str, ...], view):
    """``(nodes, at=None) -> (position, value)`` for every value a node's
    ``.l1...lk`` reads, in node then data order.

    Plain steps as ``Evaluator._step_matches`` takes them: no children
    below an atom, and an ``<at T>`` context governs the first hop only
    (a zero-step read: the value as of then).  A one-hop current-time
    read is one :meth:`~repro.lorel.views.DataView.child_values` call for
    all the nodes: a read of the backend's own maps.
    """
    value, children = view.value, view.children

    def walk(node, at):
        nodes = (node,)
        for label in labels:
            nodes = [child for node in nodes if value(node) is COMPLEX
                     for child in (children(node, label) if at is None
                                   else view.children_at(node, label, at))]
            at = None
        if at is not None:
            return [view.value_at(node, at) for node in nodes]
        return [value(node) for node in nodes]

    def read(nodes, at=None):
        if at is None and len(labels) == 1:
            return view.child_values(nodes, labels[0])
        return [(position, one) for position, node in enumerate(nodes)
                for one in walk(node, at)]
    return read


def compile_node_test(conjuncts: tuple[Comparison, ...], view):
    """The ``where`` conjuncts the ``filter-fusion`` rule moved into a
    ``PathExpand``, as ``pairs -> the (node, env) pairs kept``.

    Each conjunct is ``X.l1...lk op literal`` over plain steps, judged as
    the compiled predicate judges it -- *exists* a value the path reads
    that ``comparator(op, literal)`` accepts -- for all the candidate
    nodes at once; a later conjunct reads only what the earlier ones kept.
    ``None`` for no conjuncts.
    """
    if not conjuncts:
        return None
    checks = [(plain_reader(tuple(step.label for step in c.left.steps), view),
               comparator(c.op, c.right.value)) for c in conjuncts]

    def keep(pairs: list) -> list:
        for read, test in checks:
            passed = {position for position, one
                      in read([node for node, _ in pairs]) if test(one)}
            pairs = [pair for position, pair in enumerate(pairs)
                     if position in passed]
        return pairs
    return keep


def filter_rows(evaluator, condition: Condition, rows: list,
                pred: Optional[Callable[[dict], bool]],
                counts: Optional[dict] = None) -> list:
    """The rows satisfying ``condition``, in input order.

    ``pred`` is the compiled closure (or ``None``); rows it cannot judge
    (unbound variable -> ``KeyError``) re-run through the general solver,
    which resolves free names exactly as serial evaluation would.

    ``counts`` (EXPLAIN ANALYZE only) receives the per-row split: how
    many rows the compiled closure judged (``"vectorized"``) versus how
    many fell back to the solver (``"fallback"``).  The tallies are
    accumulated locally and flushed once after the loop, so the
    instrumented path adds two dict updates per *batch*, not per row.
    """
    if pred is None:
        solve = evaluator.solve
        if counts is not None:
            counts["fallback"] += len(rows)
        return [env for env in rows
                if next(solve(condition, env), None) is not None]
    kept = []
    keep = kept.append
    solve = evaluator.solve
    vectorized = fallback = 0
    for env in rows:
        try:
            ok = pred(env)
            vectorized += 1
        except KeyError:
            ok = next(solve(condition, env), None) is not None
            fallback += 1
        if ok:
            keep(env)
    if counts is not None:
        counts["vectorized"] += vectorized
        counts["fallback"] += fallback
    return kept
