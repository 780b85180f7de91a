"""Data views: the evaluator's window onto OEM and DOEM databases.

One Lorel/Chorel evaluator (:mod:`repro.lorel.eval`) serves three
configurations, exactly mirroring the paper's implementation choices:

* :class:`OEMView` -- plain Lorel over an OEM database (annotation
  functions are empty);
* :class:`DOEMView` -- the *native* Chorel engine over a DOEM database:
  plain label steps see the **current snapshot** ("a standard Lorel query
  over a DOEM database has exactly the semantics of the same query asked
  over the current snapshot", Section 4.2.1) and annotation expressions
  are served by ``creFun``/``updFun``/``addFun``/``remFun``;
* :class:`~repro.doem.encoding.EncodingView` -- the **OEM encoding** of
  a DOEM database (Section 5.1), read off the DOEM's own records: the
  translation-based backend of Section 5.

Views also resolve *database names*: the start of a root path expression
(``guide``, or a QSS polling-query name such as ``LyttonRestaurants``)
maps to an entry-point node.
"""

from __future__ import annotations

from typing import Iterator

from ..doem.model import DOEMDatabase, live_now
from ..obs.metrics import CounterField, registry as metrics_registry
from ..oem.model import OEMDatabase
from ..oem.values import COMPLEX, like
from ..timestamps import POS_INF, Timestamp

__all__ = ["DataView", "OEMView", "DOEMView"]


class DataView:
    """The evaluator-facing interface; concrete views override the hooks."""

    def __init__(self, names: dict[str, str]) -> None:
        self._names = dict(names)

    # -- names -----------------------------------------------------------

    def resolve_name(self, name: str) -> str | None:
        """Map a database name to its entry-point node id (or None)."""
        return self._names.get(name)

    def names(self) -> dict[str, str]:
        """All registered database names."""
        return dict(self._names)

    # -- structure (current snapshot) --------------------------------------

    def children(self, node: str, label: str) -> Iterator[str]:
        """Children via live ``label`` arcs in the current snapshot."""
        raise NotImplementedError

    def labels(self, node: str) -> Iterator[str]:
        """Distinct labels of live arcs leaving ``node``."""
        raise NotImplementedError

    def all_labels(self, node: str) -> Iterator[str]:
        """Labels including arcs no longer live (DOEM overrides this).

        Annotated steps (``<add>``, ``<rem>``) must see labels of removed
        arcs too; plain steps only see :meth:`labels`.
        """
        return self.labels(node)

    def matching_labels(self, node: str, pattern: str,
                        include_dead: bool = False) -> Iterator[str]:
        """Labels matching a ``%``-pattern (helper shared by all views)."""
        source = self.all_labels(node) if include_dead else self.labels(node)
        for label in source:
            # '&'-prefixed labels are reserved by the DOEM encoding
            # (Section 5.1); user patterns never match them implicitly.
            if label.startswith("&") and not pattern.startswith("&"):
                continue
            if like(label, pattern):
                yield label

    def value(self, node: str) -> object:
        """The node's current value (atomic value or COMPLEX)."""
        raise NotImplementedError

    def child_values(self, nodes: list, label: str) -> list[tuple]:
        """``(position, value)`` for each ``label`` child of each of
        ``nodes`` in the current snapshot, in node then data order (none
        below an atom): the one value read of plain steps."""
        raise NotImplementedError

    def has_node(self, node: str) -> bool:
        """Does the node exist in the underlying database?"""
        raise NotImplementedError

    def parents(self, node: str, label: str) -> list:
        """Sources of the ``label`` arcs into ``node`` in the current
        snapshot (a time-column scan walks back from its atoms)."""
        raise NotImplementedError

    def children_in(self, node: str, label: str, keep) -> list:
        """:meth:`children` that are in ``keep``, in data order."""
        return [child for child in self.children(node, label)
                if child in keep]

    # -- annotations (Section 4.2.1's four functions) ----------------------

    def cre_fun(self, node: str) -> list[Timestamp]:
        """``creFun(node) -> {time}``; empty for plain OEM."""
        return []

    def upd_fun(self, node: str) -> list[tuple[Timestamp, object, object]]:
        """``updFun(node) -> {(time, old, new)}``; empty for plain OEM."""
        return []

    def add_fun(self, node: str, label: str) -> list[tuple[Timestamp, str]]:
        """``addFun(source, label) -> {(time, target)}``; empty for OEM."""
        return []

    def rem_fun(self, node: str, label: str) -> list[tuple[Timestamp, str]]:
        """``remFun(source, label) -> {(time, target)}``; empty for OEM."""
        return []

    # -- virtual annotations (Section 4.2.2) ------------------------------

    def children_at(self, node: str, label: str,
                    when: Timestamp) -> Iterator[str]:
        """Children via arcs live at time ``when`` (virtual ``<at T>``)."""
        raise NotImplementedError

    def value_at(self, node: str, when: Timestamp) -> object:
        """The node's value at time ``when`` (virtual ``<at T>``)."""
        raise NotImplementedError


class OEMView(DataView):
    """A view over a plain OEM database (no change information)."""

    def __init__(self, db: OEMDatabase, names: dict[str, str] | None = None) -> None:
        if names is None:
            names = {db.root: db.root}
        super().__init__(names)
        self.db = db

    def children(self, node: str, label: str) -> Iterator[str]:
        return self.db.children(node, label)

    def labels(self, node: str) -> Iterator[str]:
        return self.db.out_labels(node)

    def value(self, node: str) -> object:
        return self.db.value(node)

    def child_values(self, nodes: list, label: str) -> list[tuple]:
        # Straight off the maps: only complex objects have outgoing arcs.
        values, out = self.db._values, self.db._out
        return [(position, values[child])
                for position, node in enumerate(nodes)
                for child in out[node].get(label, ())]

    def has_node(self, node: str) -> bool:
        return self.db.has_node(node)

    def parents(self, node: str, label: str) -> list:
        return [arc.source for arc in self.db.in_arcs(node)
                if arc.label == label]

    def children_at(self, node: str, label: str,
                    when: Timestamp) -> Iterator[str]:
        # A plain OEM database has no history: every time is "now".
        return self.db.children(node, label)

    def value_at(self, node: str, when: Timestamp) -> object:
        return self.db.value(node)


class DOEMView(DataView):
    """The native Chorel view over a DOEM database.

    ``annotation_visits`` counts annotations handed to the evaluator by
    the four annotation functions -- the work an annotation index avoids.
    ``tests/paper/test_index.py`` compares this counter between the
    naive and indexed engines.  The counter is registered in the global
    metrics registry (family ``repro.view``); the attribute stays a plain
    int view, writable as before.
    """

    annotation_visits = CounterField()

    def __init__(self, doem: DOEMDatabase,
                 names: dict[str, str] | None = None) -> None:
        if names is None:
            names = {doem.graph.root: doem.graph.root}
        super().__init__(names)
        self.doem = doem
        self._metrics = metrics_registry().group("repro.view",
                                                 ("annotation_visits",))

    def children(self, node: str, label: str) -> Iterator[str]:
        for _, child in self.doem.live_children(node, POS_INF, label):
            yield child

    def labels(self, node: str) -> Iterator[str]:
        seen: set[str] = set()
        for label, _ in self.doem.live_children(node, POS_INF):
            if label not in seen:
                seen.add(label)
                yield label

    def all_labels(self, node: str) -> Iterator[str]:
        return self.doem.graph.out_labels(node)

    def value(self, node: str) -> object:
        return self.doem.graph.value(node)

    def child_values(self, nodes: list, label: str) -> list[tuple]:
        # The graph keeps removed arcs (and an updated atom its old arcs):
        # read the maps, with the O(1) current-liveness test per arc.
        graph, annotated = self.doem.graph, self.doem._arc_annotations
        values, out = graph._values, graph._out
        return [(position, values[child])
                for position, node in enumerate(nodes)
                if values[node] is COMPLEX
                for child in out[node].get(label, ())
                if live_now(annotated.get((node, label, child)))]

    def has_node(self, node: str) -> bool:
        return self.doem.graph.has_node(node)

    def cre_fun(self, node: str) -> list[Timestamp]:
        times = self.doem.cre_times(node)
        # Atomic inc: evaluator workers of the parallel executor share
        # this view, and `+= n` through the descriptor is a racy RMW.
        self._metrics["annotation_visits"].inc(len(times))
        return times

    def upd_fun(self, node: str) -> list[tuple[Timestamp, object, object]]:
        triples = self.doem.upd_triples(node)
        self._metrics["annotation_visits"].inc(len(triples))
        return triples

    def add_fun(self, node: str, label: str) -> list[tuple[Timestamp, str]]:
        pairs = self.doem.add_pairs(node, label)
        self._metrics["annotation_visits"].inc(len(pairs))
        return pairs

    def rem_fun(self, node: str, label: str) -> list[tuple[Timestamp, str]]:
        pairs = self.doem.rem_pairs(node, label)
        self._metrics["annotation_visits"].inc(len(pairs))
        return pairs

    def children_at(self, node: str, label: str,
                    when: Timestamp) -> Iterator[str]:
        for _, child in self.doem.live_children(node, when, label):
            yield child

    def value_at(self, node: str, when: Timestamp) -> object:
        return self.doem.value_at(node, when)
