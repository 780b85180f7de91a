"""OEMdiff: inferring a change set from two OEM snapshots (Figure 7).

Given an old snapshot ``A`` and a new snapshot ``B`` (typically two
successive polling results), :func:`oem_diff` produces a
:class:`~repro.oem.history.ChangeSet` ``U``, phrased in ``A``'s identifier
space, such that ``U(A)`` is isomorphic to ``B``.  QSS folds these sets
into the subscription's DOEM database timestamp by timestamp.

The inference reads directly off a node matching
(:func:`~repro.diff.matching.match_snapshots`):

* unmatched new nodes   -> ``creNode`` (fresh identifiers);
* matched, changed value -> ``updNode``;
* new-side arcs missing on the old side -> ``addArc``;
* old-side arcs (from surviving parents) missing on the new side ->
  ``remArc`` -- unmatched old nodes then die by unreachability, OEM's
  deletion semantics.
"""

from __future__ import annotations

from typing import Callable, Iterable

from ..errors import DiffError
from ..obs.metrics import registry as metrics_registry
from ..obs.trace import span
from ..oem.changes import AddArc, ChangeOp, CreNode, RemArc, UpdNode
from ..oem.history import ChangeSet
from ..oem.model import OEMDatabase
from .matching import Matching, match_snapshots

__all__ = ["oem_diff", "apply_diff", "DiffStats"]


class DiffStats:
    """Operation counts of one diff, for reporting and benchmarks."""

    def __init__(self, change_set: ChangeSet) -> None:
        self.creates = len(change_set.filter(CreNode))
        self.updates = len(change_set.filter(UpdNode))
        self.additions = len(change_set.filter(AddArc))
        self.removals = len(change_set.filter(RemArc))

    @property
    def total(self) -> int:
        """Total number of basic change operations."""
        return self.creates + self.updates + self.additions + self.removals

    def __str__(self) -> str:
        return (f"cre={self.creates} upd={self.updates} "
                f"add={self.additions} rem={self.removals}")


def oem_diff(old_db: OEMDatabase, new_db: OEMDatabase,
             matching: Matching | None = None,
             reserved_ids: Iterable[str] = (),
             id_factory: Callable[[], str] | None = None,
             signatures: dict[str, int] | None = None) -> ChangeSet:
    """Infer ``U`` with ``U(old_db)`` isomorphic to ``new_db``.

    ``matching`` may be precomputed (tests exercise hand-built matchings);
    by default :func:`~repro.diff.matching.match_snapshots` runs first.
    ``reserved_ids`` lists identifiers that must not be minted for created
    nodes (QSS passes every identifier its DOEM database has *ever* used,
    since deleted identifiers are never reused); alternatively
    ``id_factory`` takes over identifier generation entirely.

    ``signatures`` is for callers that diff a chain of snapshots (QSS):
    a table the call reads, then overwrites.  On entry it holds
    ``node_signatures(old_db)`` as the previous call left it (a table of
    other nodes is ignored); on return, those of ``U(old_db)`` -- the new
    side's, re-keyed through the matching, since ``U(old_db)`` is
    isomorphic to ``new_db`` -- so the next call need not rehash its old
    side.
    """
    if matching is None:
        with span("diff.match"):
            matching = match_snapshots(old_db, new_db, signatures)
    reserved = set(reserved_ids)

    counter = [0]

    def default_factory() -> str:
        while True:
            counter[0] += 1
            candidate = f"d{counter[0]}"
            if candidate not in reserved and not old_db.has_node(candidate):
                return candidate

    make_id = id_factory or default_factory

    ops: list[ChangeOp] = []
    with span("diff.infer"):
        # 1. Created nodes: unmatched on the new side.
        created: dict[str, str] = {}  # new id -> old-space id
        minted: set[str] = set()
        for node in new_db.nodes():
            if not matching.matched_new(node):
                fresh = make_id()
                if old_db.has_node(fresh) or fresh in minted:
                    raise DiffError(
                        f"id factory produced a colliding id {fresh!r}")
                minted.add(fresh)
                created[node] = fresh
                ops.append(CreNode(fresh, new_db.value(node)))

        def to_old(new_node: str) -> str:
            if new_node in created:
                return created[new_node]
            return matching.new_to_old[new_node]

        # 2. Updated values on matched nodes.
        for old_node, new_node in matching.old_to_new.items():
            if old_db.value(old_node) != new_db.value(new_node):
                ops.append(UpdNode(old_node, new_db.value(new_node)))

        # 3. Arcs present on the new side but absent on the old side.
        for arc in new_db.arcs():
            old_source = to_old(arc.source)
            old_target = to_old(arc.target)
            if not old_db.has_arc(old_source, arc.label, old_target):
                ops.append(AddArc(old_source, arc.label, old_target))

        # 4. Arcs on the old side, between surviving endpoints, that are
        #    gone.  Arcs touching unmatched old nodes die with them by
        #    unreachability, except arcs *from* survivors *to* doomed
        #    nodes, which must be removed explicitly to cut reachability.
        for arc in old_db.arcs():
            if not matching.matched_old(arc.source):
                continue  # the whole subtree dies with its unmatched parent
            new_source = matching.old_to_new[arc.source]
            if matching.matched_old(arc.target):
                new_target = matching.old_to_new[arc.target]
                if not new_db.has_arc(new_source, arc.label, new_target):
                    ops.append(RemArc(*arc))
            else:
                ops.append(RemArc(*arc))

    if signatures is not None:
        signatures.clear()
        signatures.update((to_old(node), signature) for node, signature
                          in matching.new_signatures.items())
    registry = metrics_registry()
    registry.counter("repro.diff.runs").inc()
    registry.counter("repro.diff.ops").inc(len(ops))
    return ChangeSet(ops)


def apply_diff(old_db: OEMDatabase, change_set: ChangeSet) -> OEMDatabase:
    """Apply a diff to a copy of ``old_db`` and return the result."""
    result = old_db.copy()
    change_set.apply_to(result)
    return result
