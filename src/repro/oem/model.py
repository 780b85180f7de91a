"""The OEM database: a rooted, labeled, directed graph of objects.

Definition 2.1: an OEM database is a 4-tuple ``O = (N, A, v, r)`` where
``N`` is a set of object identifiers, ``A`` a set of labeled directed arcs
``(p, l, c)``, ``v`` maps each node to an atomic value or the reserved
value C (complex), and ``r`` is a distinguished root.  Only complex objects
have outgoing arcs, and every node must be reachable from the root.

:class:`OEMDatabase` enforces the first three constraints eagerly and the
reachability constraint on demand (:meth:`OEMDatabase.check`,
:meth:`OEMDatabase.collect_garbage`), because Section 2.2 explicitly
permits *temporary* unreachability while a change set is being applied.
"""

from __future__ import annotations

import copy as _copy
import itertools
from collections import deque
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple

from ..errors import (
    DuplicateNodeError,
    InvalidChangeError,
    OEMError,
    UnknownNodeError,
)
from .values import COMPLEX, Value, check_value, value_repr

__all__ = ["Arc", "OEMDatabase", "node_signatures", "stranded"]

# stranded() gives up once the suspects' closure passes 1/FULL_WALK_SHARE
# of the graph, and its caller walks the graph from the root instead.  On
# the 5,001-node large_database that walk takes 1.9 ms and stranded() 0.6 ms
# per tenth of the database in the closure (7.9 ms when it is all of it, as
# on anything built node by node): break-even near 30 %, and giving up at a
# quarter wastes at most 0.5 ms.
FULL_WALK_SHARE = 4

_REFINEMENT_ROUNDS = 8


class Arc(NamedTuple):
    """A labeled directed arc ``(p, l, c)``: ``c`` is an ``l``-labeled child of ``p``."""

    source: str
    label: str
    target: str

    def __str__(self) -> str:
        return f"({self.source}, {self.label!r}, {self.target})"


class OEMDatabase:
    """A mutable OEM database.

    Nodes are identified by strings (the paper writes ``n1, n2, ...``).
    The database keeps forward and reverse adjacency so that reachability,
    garbage collection, and diffing are all linear-time.

    A change set costs what it touches (docs/model.md, "What copies and
    collections cost"): ``_owned`` names the nodes whose adjacency
    containers are this database's alone to write (``None``: all; after a
    :meth:`copy`, none on either side), ``_suspects`` what may have become
    unreachable since the last :meth:`collect_garbage`.

    The class deliberately exposes *low-level* mutators that mirror the
    paper's basic change operations (:meth:`create_node`,
    :meth:`update_value`, :meth:`add_arc`, :meth:`remove_arc`); the typed
    operation objects in :mod:`repro.oem.changes` call straight into these.
    """

    def __init__(self, root: str = "root", root_value: Value = COMPLEX) -> None:
        self._values: dict[str, Value] = {}
        self._out: dict[str, dict[str, dict[str, None]]] = {}
        self._in: dict[str, set[Arc]] = {}
        self._arc_count = 0
        self._counter = itertools.count(1)
        self._root = root
        self._owned: set[str] | None = None
        self._suspects: set[str] = set()
        self.create_node(root, root_value)

    # ------------------------------------------------------------------
    # Identity and basic accessors
    # ------------------------------------------------------------------

    @property
    def root(self) -> str:
        """The distinguished root object identifier."""
        return self._root

    def nodes(self) -> Iterator[str]:
        """Iterate over all node identifiers (insertion order)."""
        return iter(self._values)

    def __len__(self) -> int:
        """Number of nodes currently in the database."""
        return len(self._values)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._values

    def has_node(self, node_id: str) -> bool:
        """Return True when ``node_id`` names an object in the database."""
        return node_id in self._values

    def value(self, node_id: str) -> Value:
        """Return the value of ``node_id`` (atomic value or COMPLEX)."""
        try:
            return self._values[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def is_complex(self, node_id: str) -> bool:
        """True when the object is complex (its value is C)."""
        return self.value(node_id) is COMPLEX

    def is_atomic(self, node_id: str) -> bool:
        """True when the object carries an atomic value."""
        return not self.is_complex(node_id)

    def new_node_id(self, prefix: str = "n") -> str:
        """Mint a node identifier unused by this database.

        Deleted identifiers are never recycled (Section 2.2 assumes
        "object identifiers of deleted nodes are not reused"), which the
        monotone counter guarantees for ids minted here.
        """
        while True:
            candidate = f"{prefix}{next(self._counter)}"
            if candidate not in self._values:
                return candidate

    def next_node_ids(self) -> Iterator[str]:
        """The identifiers ``new_node_id()`` would mint next, in order,
        without advancing its counter (what an update plan names; the
        database is untouched until the plan is applied)."""
        for number in _copy.copy(self._counter):
            candidate = f"n{number}"
            if candidate not in self._values:
                yield candidate

    # ------------------------------------------------------------------
    # Arcs
    # ------------------------------------------------------------------

    def arcs(self) -> Iterator[Arc]:
        """Iterate over every arc in the database."""
        for source, by_label in self._out.items():
            for label, targets in by_label.items():
                for target in targets:
                    yield Arc(source, label, target)

    def arc_count(self) -> int:
        """Total number of arcs (a counter :meth:`add_arc` and
        :meth:`remove_arc` maintain, so staleness checks stay O(1))."""
        return self._arc_count

    def has_arc(self, source: str, label: str, target: str) -> bool:
        """True when the arc ``(source, label, target)`` exists."""
        return target in self._out.get(source, {}).get(label, {})

    def out_labels(self, node_id: str) -> Iterator[str]:
        """Iterate over the distinct labels of arcs leaving ``node_id``."""
        if node_id not in self._values:
            raise UnknownNodeError(node_id)
        return iter(self._out.get(node_id, {}))

    def targets(self, node_id: str, label: str) -> Collection[str]:
        """The ``label`` children of ``node_id`` in data order: the
        database's own container, to iterate and test, never to write."""
        try:
            return self._out[node_id].get(label, ())
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def out_map(self, node_id: str) -> Mapping[str, Collection[str]]:
        """The ``label -> targets`` map of ``node_id``: the database's own
        container (shared with copies), to compare and read, never to write."""
        try:
            return self._out[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def children(self, node_id: str, label: str | None = None) -> Iterator[str]:
        """Iterate over children of ``node_id``; restrict to ``label`` if given."""
        if label is not None:
            return iter(self.targets(node_id, label))
        if node_id not in self._values:
            raise UnknownNodeError(node_id)
        return itertools.chain.from_iterable(self._out[node_id].values())

    def out_arcs(self, node_id: str) -> Iterator[Arc]:
        """Iterate over all arcs leaving ``node_id``."""
        if node_id not in self._values:
            raise UnknownNodeError(node_id)
        for label, targets in self._out.get(node_id, {}).items():
            for target in targets:
                yield Arc(node_id, label, target)

    def in_arcs(self, node_id: str) -> Iterator[Arc]:
        """Iterate over all arcs entering ``node_id``."""
        if node_id not in self._values:
            raise UnknownNodeError(node_id)
        return iter(self._in.get(node_id, set()))

    def parents(self, node_id: str) -> Iterator[str]:
        """Iterate over the distinct parents of ``node_id``."""
        seen: set[str] = set()
        for arc in self.in_arcs(node_id):
            if arc.source not in seen:
                seen.add(arc.source)
                yield arc.source

    def has_children(self, node_id: str) -> bool:
        """True when any arc leaves ``node_id``."""
        by_label = self._out.get(node_id, {})
        return any(targets for targets in by_label.values())

    # ------------------------------------------------------------------
    # Mutators (preconditions of Section 2.1)
    # ------------------------------------------------------------------

    def _own(self, *nodes: str) -> None:
        """Before writing ``nodes``: replace the containers a :meth:`copy`
        left shared with another database by private copies."""
        for node_id in nodes:
            if node_id not in self._owned:
                self._out[node_id] = {label: dict(targets) for label, targets
                                      in self._out[node_id].items()}
                self._in[node_id] = set(self._in[node_id])
                self._owned.add(node_id)

    def create_node(self, node_id: str, value: Value) -> str:
        """``creNode(n, v)``: create a fresh object with the given value.

        The identifier must be new; the value atomic or COMPLEX.
        Returns the identifier for convenience.
        """
        if node_id in self._values:
            raise DuplicateNodeError(node_id)
        self._values[node_id] = check_value(value)
        self._out[node_id] = {}
        self._in[node_id] = set()
        if self._owned is not None:
            self._owned.add(node_id)
        self._suspects.add(node_id)
        return node_id

    def update_value(self, node_id: str, value: Value) -> None:
        """``updNode(n, v)``: change the value of an object.

        Per Section 2.1 the object must be atomic or a complex object
        without subobjects -- a complex object's children must be unlinked
        before it can be turned atomic.
        """
        if node_id not in self._values:
            raise UnknownNodeError(node_id)
        check_value(value)
        if self.has_children(node_id) and value is not COMPLEX:
            raise InvalidChangeError(
                f"updNode({node_id}): object still has subobjects; remove "
                f"its outgoing arcs before making it atomic")
        self._values[node_id] = value

    def add_arc(self, source: str, label: str, target: str) -> None:
        """``addArc(p, l, c)``: add a labeled arc.

        Both objects must exist, the parent must be complex, and the arc
        must not already be present.
        """
        if source not in self._values:
            raise UnknownNodeError(source)
        if target not in self._values:
            raise UnknownNodeError(target)
        if not self.is_complex(source):
            raise InvalidChangeError(
                f"addArc({source}, {label!r}, {target}): parent is atomic")
        if target in self._out[source].get(label, ()):
            raise InvalidChangeError(
                f"addArc({source}, {label!r}, {target}): arc already exists")
        if self._owned is not None:
            self._own(source, target)
        self._out[source].setdefault(label, {})[target] = None
        self._in[target].add(Arc(source, label, target))
        self._arc_count += 1

    def remove_arc(self, source: str, label: str, target: str) -> None:
        """``remArc(p, l, c)``: remove a labeled arc.

        Both objects and the arc itself must exist.  The target, which
        may have lost its last path from the root, becomes a suspect.
        """
        if source not in self._values:
            raise UnknownNodeError(source)
        if target not in self._values:
            raise UnknownNodeError(target)
        if target not in self._out[source].get(label, ()):
            raise InvalidChangeError(
                f"remArc({source}, {label!r}, {target}): no such arc")
        if self._owned is not None:
            self._own(source, target)
        by_label = self._out[source]
        del by_label[label][target]
        if not by_label[label]:
            del by_label[label]
        self._in[target].discard(Arc(source, label, target))
        self._arc_count -= 1
        self._suspects.add(target)

    def _delete_node(self, node_id: str) -> None:
        """Physically drop a node and its arcs.  Internal: used by GC only."""
        for arc in list(self.out_arcs(node_id)):
            self.remove_arc(*arc)
        for arc in list(self.in_arcs(node_id)):
            self.remove_arc(*arc)
        del self._values[node_id]
        del self._out[node_id]
        del self._in[node_id]
        self._suspects.discard(node_id)

    # ------------------------------------------------------------------
    # Reachability (persistence semantics of Section 2.1/2.2)
    # ------------------------------------------------------------------

    def reachable(self, start: str | None = None) -> set[str]:
        """The set of nodes reachable from ``start`` (default: the root)."""
        start = self._root if start is None else start
        if start not in self._values:
            raise UnknownNodeError(start)
        seen = {start}
        frontier = deque([start])
        while frontier:
            node = frontier.popleft()
            for by_label in self._out.get(node, {}).values():
                for child in by_label:
                    if child not in seen:
                        seen.add(child)
                        frontier.append(child)
        return seen

    def unreachable_nodes(self) -> set[str]:
        """Nodes not reachable from the root (implicitly deleted objects):
        found from the suspects since the last collection, or by the full
        walk where those reach too much of the database (:func:`stranded`).
        """
        doomed = stranded(
            self._suspects, self._root, self.children,
            lambda node: (arc.source for arc in self._in[node]),
            len(self._values))
        if doomed is None:
            doomed = set(self._values) - self.reachable()
        return doomed

    def collect_garbage(self) -> set[str]:
        """Delete every unreachable node; return the set of deleted ids.

        This implements OEM's persistence-by-reachability: "to delete an
        object it suffices to remove all arcs leading to it" (Section 2.1);
        after each change set the unreachable objects are considered
        deleted (Section 2.2).
        """
        doomed = self.unreachable_nodes()
        for node_id in doomed:
            self._delete_node(node_id)
        self._suspects.clear()
        return doomed

    def check(self) -> None:
        """Verify the invariants of Definition 2.1, raising on violation.

        Checks: the root exists; only complex nodes have outgoing arcs;
        arc endpoints exist; the arc counter equals a recount; every node
        is reachable from the root.
        """
        if self._root not in self._values:
            raise OEMError(f"root {self._root!r} is not a node")
        recount = sum(len(targets) for by_label in self._out.values()
                      for targets in by_label.values())
        if recount != self._arc_count:
            raise OEMError(f"arc counter {self._arc_count} != "
                           f"{recount} arcs present")
        for node_id, value in self._values.items():
            if value is not COMPLEX and self.has_children(node_id):
                raise OEMError(
                    f"atomic object {node_id} has outgoing arcs")
        for arc in self.arcs():
            if arc.source not in self._values or arc.target not in self._values:
                raise OEMError(f"dangling arc {arc}")
        # The full walk: check() verifies the suspects, it does not trust them.
        stranded = set(self._values) - self.reachable()
        if stranded:
            sample = ", ".join(sorted(stranded)[:5])
            raise OEMError(
                f"{len(stranded)} node(s) unreachable from the root: {sample}")

    # ------------------------------------------------------------------
    # Copying and comparison
    # ------------------------------------------------------------------

    def adopt_closure(self, source: "OEMDatabase", start: str,
                      ids: dict[str, str], preserve_ids: bool = True) -> str:
        """Copy what ``start`` reaches in ``source`` into this database, depth
        first without recursion (pre-order, arcs in data order); return its
        identifier here.  ``ids`` (source identifier -> identifier here) holds
        what earlier calls copied, and grows.  A node keeps its identifier when
        ``preserve_ids`` and it is free here; one whose children all kept
        theirs gets ``source``'s ``label -> targets`` container itself.  In-arc
        sets are built here: the source's hold arcs from outside the closure."""
        values, out, incoming = source._values, source._out, self._in
        if start not in ids and start not in values:
            raise UnknownNodeError(start)
        parents, stack = [], [start]
        while stack:  # children pushed in reverse, visited when popped
            node = stack.pop()
            if node in ids:
                continue
            ids[node] = new_id = node if preserve_ids \
                and node not in self._values else self.new_node_id("a")
            self._values[new_id] = values[node]
            incoming[new_id] = set()
            by_label = out[node]
            self._out[new_id] = by_label if preserve_ids else {}
            if by_label:
                parents.append(node)
                for targets in reversed(by_label.values()):
                    stack.extend(reversed(targets))
        for node in parents:
            new_id, by_label, kept = ids[node], out[node], preserve_ids
            for label, targets in by_label.items():
                for target in targets:
                    new_target = ids[target]
                    kept = kept and new_target == target
                    incoming[new_target].add(Arc(new_id, label, new_target))
                self._arc_count += len(targets)
            if not kept:
                self._out[new_id] = {
                    label: {ids[target]: None for target in targets}
                    for label, targets in by_label.items()}
        return ids[start]

    def share_adopted(self, source: "OEMDatabase", ids: dict[str, str]) -> None:
        """Close a run of :meth:`adopt_closure` calls: if they preserved
        identifiers (``ids`` empty otherwise) neither database owns the copied
        nodes' containers, as after :meth:`copy`, and an in-arc set equal to
        the source's is the source's (one set fewer); none is a suspect."""
        if ids:
            for node, new_id in ids.items():
                if self._in[new_id] == source._in[node]:
                    self._in[new_id] = source._in[node]
            for db, nodes in ((self, ids.values()), (source, ids)):
                if db._owned is None:
                    db._owned = set(db._values)
                db._owned.difference_update(nodes)
        self._suspects.clear()

    def subgraph(self, node_id: str, new_root: str | None = None) -> "OEMDatabase":
        """The reachable closure of ``node_id``, as a standalone database.

        Node identifiers are preserved; ``new_root`` renames the entry
        point when ``node_id``'s identifier would be confusing as a root.
        Cycles and sharing within the closure are preserved; so are its
        containers (:meth:`adopt_closure`): the cost is the closure's.
        """
        root_id = new_root or node_id
        extracted = OEMDatabase(root=root_id, root_value=self.value(node_id))
        ids = {node_id: root_id}
        for _, label, target in self.out_arcs(node_id):
            extracted.add_arc(root_id, label,
                              extracted.adopt_closure(self, target, ids))
        del ids[node_id]
        if any(new_id != node for node, new_id in ids.items()):
            raise DuplicateNodeError(root_id)
        extracted.share_adopted(self, ids)
        return extracted

    def copy(self) -> "OEMDatabase":
        """An independent copy, at the cost of the node table: each node's
        adjacency containers stay shared until either side writes that
        node (:meth:`_own`), so from here on *neither* owns any."""
        clone = OEMDatabase.__new__(OEMDatabase)
        clone._values = dict(self._values)
        clone._out = dict(self._out)
        clone._in = dict(self._in)
        clone._arc_count = self._arc_count
        clone._counter = itertools.count(next(_copy.copy(self._counter)))
        clone._root = self._root
        clone._owned = set()
        self._owned = set()
        clone._suspects = set(self._suspects)
        return clone

    def __getstate__(self) -> dict:
        # A pickled replica shares nothing: it owns every container.
        return {**self.__dict__, "_owned": None}

    def same_as(self, other: "OEMDatabase") -> bool:
        """Exact equality: same root, node ids, values, and arcs."""
        if self._root != other._root:
            return False
        if self._values != other._values:
            return False
        return set(self.arcs()) == set(other.arcs())

    def isomorphic_to(self, other: "OEMDatabase") -> bool:
        """Structural equality up to renaming of node identifiers.

        Two databases are isomorphic when a bijection on nodes maps root to
        root, preserves values, and preserves labeled arcs both ways.  The
        check blocks nodes by :func:`node_signatures` and then runs a
        backtracking match within blocks; it is intended for test-sized
        graphs (the diff tests compare snapshots this way).
        """
        if len(self) != len(other) or self.arc_count() != other.arc_count():
            return False
        mapping = _find_isomorphism(self, other)
        return mapping is not None

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------

    def describe(self, node_id: str | None = None, max_depth: int = 6) -> str:
        """An indented, human-readable rendering rooted at ``node_id``."""
        start = self._root if node_id is None else node_id
        lines: list[str] = []
        seen: set[str] = set()

        def walk(node: str, label: str, depth: int) -> None:
            indent = "  " * depth
            prefix = f"{indent}{label}: " if label else indent
            value = self.value(node)
            if value is COMPLEX:
                if node in seen:
                    lines.append(f"{prefix}&{node} (shared)")
                    return
                seen.add(node)
                lines.append(f"{prefix}&{node} {{")
                if depth < max_depth:
                    for arc in sorted(self.out_arcs(node)):
                        walk(arc.target, arc.label, depth + 1)
                lines.append(f"{indent}}}")
            else:
                lines.append(f"{prefix}&{node} = {value_repr(value)}")

        walk(start, "", 0)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"<OEMDatabase root={self._root!r} nodes={len(self)} "
                f"arcs={self.arc_count()}>")


def stranded(suspects: Iterable[str], root: str, children, parents,
             size: int) -> set[str] | None:
    """The nodes that arc removals and node creations left unreachable.

    ``suspects`` are the removed arcs' targets and the created nodes of a
    graph whose nodes were all reachable from ``root`` before.  Whatever
    is unreachable now is forward-reachable from a suspect (its old path
    from the root, past the last removed arc), so the answer is the
    suspects' closure under ``children(node)`` minus what the closure's
    entry points -- ``root``, or a member with one of ``parents(node)``
    outside, which is therefore still reachable -- reach inside it.
    Exact with cycles and sharing.  ``None`` once the closure is a large
    share of the graph's ``size`` nodes: the caller's one walk from the
    root is cheaper then.
    """
    closure = set(suspects)
    frontier = list(closure)
    while frontier:
        if len(closure) * FULL_WALK_SHARE > size:
            return None
        for child in children(frontier.pop()):
            if child not in closure:
                closure.add(child)
                frontier.append(child)
    alive = {node for node in closure if node == root
             or any(parent not in closure for parent in parents(node))}
    frontier = list(alive)
    while frontier:
        for child in children(frontier.pop()):
            if child not in alive:
                alive.add(child)
                frontier.append(child)
    return closure - alive


def node_signatures(db: OEMDatabase,
                    rounds: int = _REFINEMENT_ROUNDS) -> dict[str, int]:
    """Iterated structural hashes for every node of ``db``.

    Atomic nodes hash their value; complex nodes hash the multiset of
    ``(label, child signature)`` pairs.  ``rounds`` bounds the refinement
    so cyclic graphs terminate; two nodes with equal signatures are
    structurally indistinguishable to depth ``rounds``.  The differ's
    matcher and :meth:`OEMDatabase.isomorphic_to` both start from it.
    """
    complex_seed = hash("complex")
    sig = {node: complex_seed if value is COMPLEX else hash(("atom", value))
           for node, value in db._values.items()}
    # Atoms never change after the seed round; only complex nodes are
    # rehashed, straight off the adjacency map (no Arc per child).
    complex_nodes = [(node, by_label) for node, by_label in db._out.items()
                     if db._values[node] is COMPLEX]
    for _ in range(rounds):
        updated = {
            node: hash((tuple(sorted([(label, sig[target])
                                      for label, targets in by_label.items()
                                      for target in targets])),))
            for node, by_label in complex_nodes}
        if all(sig[node] == value for node, value in updated.items()):
            break
        sig.update(updated)
    return sig


def _find_isomorphism(left: OEMDatabase,
                      right: OEMDatabase) -> dict[str, str] | None:
    """Find a value/arc-preserving bijection, or None.  Backtracking search."""
    left_sig = node_signatures(left)
    right_sig = node_signatures(right)
    if sorted(left_sig.values()) != sorted(right_sig.values()):
        return None

    candidates: dict[str, list[str]] = {}
    by_sig: dict[int, list[str]] = {}
    for node, signature in right_sig.items():
        by_sig.setdefault(signature, []).append(node)
    for node, signature in left_sig.items():
        candidates[node] = by_sig.get(signature, [])

    mapping: dict[str, str] = {}
    used: set[str] = set()
    order = sorted(left.nodes(), key=lambda n: len(candidates[n]))

    def compatible(a: str, b: str) -> bool:
        if left.value(a) != right.value(b):
            return False
        for arc in left.out_arcs(a):
            if arc.target in mapping and \
                    not right.has_arc(b, arc.label, mapping[arc.target]):
                return False
        for arc in left.in_arcs(a):
            if arc.source in mapping and \
                    not right.has_arc(mapping[arc.source], arc.label, b):
                return False
        return True

    # Iterative backtracking (one frame per node would overflow the
    # interpreter's stack on a few thousand nodes): ``trail[i]`` walks the
    # candidates of ``order[i]``; a node is assigned when the level above
    # it is open.
    trail: list[Iterator[str]] = []
    while len(mapping) < len(order):
        if len(trail) == len(mapping):
            trail.append(iter(candidates[order[len(mapping)]]))
        node = order[len(trail) - 1]
        for candidate in trail[-1]:
            if candidate in used:
                continue
            if (node == left.root) != (candidate == right.root):
                continue
            if not compatible(node, candidate):
                continue
            mapping[node] = candidate
            used.add(candidate)
            break
        else:
            trail.pop()
            if not trail:
                return None
            used.discard(mapping.pop(order[len(trail) - 1]))
    return mapping
