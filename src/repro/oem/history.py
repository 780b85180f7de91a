"""Change sets and OEM histories (Section 2.2).

A *change set* is a set ``U`` of basic change operations that is valid for
a database ``O``: some ordering of ``U`` is a valid sequence, every valid
ordering produces the same result, and ``U`` never contains both
``addArc(p,l,c)`` and ``remArc(p,l,c)``.

An *OEM history* is a sequence ``H = (t1,U1),...,(tn,Un)`` of timestamped
change sets with strictly increasing timestamps (Definition 2.2).  After a
change set is applied, unreachable objects are considered deleted and the
remainder of the history must not touch them; identifiers are never reused.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from ..errors import InvalidChangeError, InvalidHistoryError
from ..timestamps import NEG_INF, Timestamp, parse_timestamp
from .changes import AddArc, ChangeOp, CreNode, RemArc, UpdNode
from .model import OEMDatabase
from .values import COMPLEX

__all__ = ["ChangeSet", "OEMHistory", "entries_between"]

# Canonical application order within one change set.  creNode must precede
# arcs to the new node; remArc must precede an updNode that turns a complex
# object atomic; updNode (possibly turning an atomic object complex) must
# precede addArc out of it.  Hence: cre -> rem -> upd -> add.
_PHASE = {CreNode: 0, RemArc: 1, UpdNode: 2, AddArc: 3}


class ChangeSet:
    """An unordered set of basic change operations applied atomically.

    The constructor performs the *syntactic* conflict checks of
    Definition 2.2 clause (3) plus the determinism conditions that make all
    valid orderings agree:

    * no ``addArc`` and ``remArc`` for the same ``(p, l, c)``;
    * at most one ``updNode`` per node (two would be order-dependent);
    * at most one ``creNode`` per node identifier;
    * no ``updNode`` following a ``creNode`` of the same node is *allowed*
      (create-then-update has a single valid order, so it is deterministic).

    Validity *against a particular database* is checked by
    :meth:`is_valid_for` / :meth:`apply_to`, which use the canonical order
    cre -> rem -> upd -> add.
    """

    def __init__(self, operations: Iterable[ChangeOp] = ()) -> None:
        self._ops: list[ChangeOp] = list(operations)
        self._check_conflicts()

    def _check_conflicts(self) -> None:
        seen_ops = set()
        adds: set[tuple[str, str, str]] = set()
        rems: set[tuple[str, str, str]] = set()
        updated: set[str] = set()
        created: set[str] = set()
        for op in self._ops:
            if op in seen_ops:
                raise InvalidHistoryError(f"duplicate operation in change set: {op}")
            seen_ops.add(op)
            if isinstance(op, AddArc):
                adds.add(op.arc)
            elif isinstance(op, RemArc):
                rems.add(op.arc)
            elif isinstance(op, UpdNode):
                if op.node in updated:
                    raise InvalidHistoryError(
                        f"two updNode operations for node {op.node!r} in one "
                        f"change set would be order-dependent")
                updated.add(op.node)
            elif isinstance(op, CreNode):
                if op.node in created:
                    raise InvalidHistoryError(
                        f"two creNode operations for node {op.node!r}")
                created.add(op.node)
        clash = adds & rems
        if clash:
            arc = next(iter(clash))
            raise InvalidHistoryError(
                f"change set contains both addArc and remArc for {arc}")
        overlap = created & updated
        if overlap:
            raise InvalidHistoryError(
                f"change set both creates and updates node(s) "
                f"{sorted(overlap)}; fold the update into the creation value")

    # ------------------------------------------------------------------

    def operations(self) -> tuple[ChangeOp, ...]:
        """The operations, in insertion order (no semantic ordering)."""
        return tuple(self._ops)

    def canonical_order(self) -> list[ChangeOp]:
        """The operations in the canonical application order.

        The order is cre -> rem -> upd -> add; within a phase, operations
        are sorted deterministically by their textual form, so replay is
        reproducible.
        """
        return sorted(self._ops, key=lambda op: (_PHASE[type(op)], str(op)))

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[ChangeOp]:
        return iter(self._ops)

    def __bool__(self) -> bool:
        return bool(self._ops)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChangeSet):
            return NotImplemented
        return set(self._ops) == set(other._ops)

    def __hash__(self) -> int:
        return hash(frozenset(self._ops))

    def __repr__(self) -> str:
        body = ", ".join(str(op) for op in self.canonical_order())
        return f"ChangeSet({{{body}}})"

    # ------------------------------------------------------------------

    def is_valid_for(self, db: OEMDatabase) -> bool:
        """True when the set can be applied to (a copy of) ``db``."""
        try:
            self.apply_to(db.copy())
        except InvalidChangeError:
            return False
        return True

    def apply_to(self, db: OEMDatabase, collect_garbage: bool = True) -> set[str]:
        """Apply the set to ``db`` in canonical order, mutating it.

        Per Section 2.2, unreachability is tolerated *within* the set and
        resolved afterwards: when ``collect_garbage`` is true (the
        default), nodes left unreachable are deleted and their identifiers
        returned.  Raises :class:`~repro.errors.InvalidChangeError` when
        any operation's precondition fails, leaving ``db`` in a partial
        state -- validate on a copy first if atomicity matters.
        """
        for op in self.canonical_order():
            op.apply(db)
        if collect_garbage:
            return db.collect_garbage()
        return set()

    def created_nodes(self) -> set[str]:
        """Identifiers of nodes this set creates."""
        return {op.node for op in self._ops if isinstance(op, CreNode)}

    def filter(self, kind: type) -> list[ChangeOp]:
        """The operations of one kind (e.g. ``AddArc``)."""
        return [op for op in self._ops if isinstance(op, kind)]


def entries_between(entries: Sequence[tuple[Timestamp, ChangeSet]],
                    after: Timestamp, until: Timestamp) \
        -> Sequence[tuple[Timestamp, ChangeSet]]:
    """The run of time-ordered ``entries`` with ``after < t <= until``:
    what a replay from the snapshot at ``after`` to time ``until`` applies.
    Bisected, so a lookup costs the run and not the history."""
    first = bisect_right(entries, after, key=itemgetter(0))
    return entries[first:bisect_right(entries, until, first, key=itemgetter(0))]


class OEMHistory:
    """A sequence of timestamped change sets (Definition 2.2).

    Timestamps must be strictly increasing.  The class is append-only;
    entries may be supplied to the constructor or added with
    :meth:`append`.  Timestamps are coerced with
    :func:`repro.timestamps.parse_timestamp`, so ``history.append("1Jan97",
    ops)`` works directly.
    """

    def __init__(self,
                 entries: Iterable[tuple[object, ChangeSet | Iterable[ChangeOp]]] = ()) -> None:
        self._entries: list[tuple[Timestamp, ChangeSet]] = []
        for when, change_set in entries:
            self.append(when, change_set)

    def append(self, when: object, change_set: ChangeSet | Iterable[ChangeOp]) -> None:
        """Append ``(when, change_set)``; ``when`` must exceed the last timestamp."""
        timestamp = parse_timestamp(when)
        if not timestamp.is_finite:
            raise InvalidHistoryError("history timestamps must be finite")
        if self._entries and timestamp <= self._entries[-1][0]:
            raise InvalidHistoryError(
                f"history timestamps must be strictly increasing: "
                f"{timestamp} does not follow {self._entries[-1][0]}")
        if not isinstance(change_set, ChangeSet):
            change_set = ChangeSet(change_set)
        self._entries.append((timestamp, change_set))

    # ------------------------------------------------------------------

    def entries(self) -> tuple[tuple[Timestamp, ChangeSet], ...]:
        """All ``(timestamp, change_set)`` pairs, oldest first."""
        return tuple(self._entries)

    def entries_between(self, after: Timestamp, until: Timestamp) \
            -> Sequence[tuple[Timestamp, ChangeSet]]:
        """The entries with ``after < t <= until`` (:func:`entries_between`)."""
        return entries_between(self._entries, after, until)

    def timestamps(self) -> list[Timestamp]:
        """The timestamps ``t1 < t2 < ... < tn``."""
        return [when for when, _ in self._entries]

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[tuple[Timestamp, ChangeSet]]:
        return iter(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OEMHistory):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        return f"<OEMHistory of {len(self)} change set(s)>"

    # ------------------------------------------------------------------

    def is_valid_for(self, db: OEMDatabase) -> bool:
        """True when every change set applies in sequence to ``db``'s copy."""
        try:
            self.apply_to(db.copy())
        except InvalidChangeError:
            return False
        return True

    def apply_to(self, db: OEMDatabase) -> OEMDatabase:
        """Apply the whole history to ``db`` in place and return it.

        Garbage (unreachable nodes) is collected after every change set,
        matching the paper's deletion semantics.
        """
        for _, change_set in self._entries:
            change_set.apply_to(db)
        return db

    def replay(self, db: OEMDatabase) -> list[OEMDatabase]:
        """Return the snapshot sequence ``[O0, O1, ..., On]``.

        ``O0`` is a copy of ``db``; ``Oi`` is ``Ui(Oi-1)``.  ``db`` itself
        is left untouched.
        """
        snapshots = [db.copy()]
        current = db.copy()
        for _, change_set in self._entries:
            change_set.apply_to(current)
            snapshots.append(current.copy())
        return snapshots

    def snapshot_at(self, db: OEMDatabase, when: object) -> OEMDatabase:
        """The state of ``db`` after all change sets with timestamp <= ``when``."""
        current = db.copy()
        for _, change_set in self.entries_between(NEG_INF,
                                                  parse_timestamp(when)):
            change_set.apply_to(current)
        return current

    def prefix(self, when: object) -> "OEMHistory":
        """The sub-history of entries with timestamp <= ``when``."""
        clipped = OEMHistory()
        clipped._entries = list(
            self.entries_between(NEG_INF, parse_timestamp(when)))
        return clipped

    def operation_count(self) -> int:
        """Total number of basic change operations across all sets."""
        return sum(len(change_set) for _, change_set in self._entries)
