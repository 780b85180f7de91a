"""DOEM history compaction: trading history for space (Section 6.1).

The paper's third space-conservation idea is "trading accuracy for space
by storing a smaller state at the expense of not being able to detect all
changes accurately".  The cleanest realization is *history truncation*:
:func:`compact` forgets everything before a cutoff time, making the
snapshot at the cutoff the new "original" database.

Guarantees (property-tested):

* ``snapshot_at(compact(D, t), u) == snapshot_at(D, u)`` for every
  ``u >= t`` -- the recent past is untouched;
* ``original_snapshot(compact(D, t)) == snapshot_at(D, t)`` -- the cutoff
  state becomes O0;
* ``encoded_history(compact(D, t))`` is exactly the sub-history of
  ``H(D)`` after ``t``;
* the result is feasible, and smaller or equal in nodes, arcs, and
  annotations.

What is lost is exactly what the paper says must be lost: annotations at
or before ``t`` (a QSS filter query asking about them returns nothing),
and objects that died before ``t`` disappear entirely.
"""

from __future__ import annotations

from ..oem.model import OEMDatabase
from ..timestamps import Timestamp, parse_timestamp
from .annotations import Add, Cre, Rem, Upd
from .model import DOEMDatabase
from .snapshot import snapshot_at

__all__ = ["compact"]


def compact(doem: DOEMDatabase, cutoff: object) -> DOEMDatabase:
    """A new DOEM database with all history at or before ``cutoff`` forgotten.

    ``doem`` is not modified.  Nodes and arcs that were already dead at
    the cutoff are dropped; annotations with timestamps <= cutoff are
    dropped; surviving structure and later history are kept verbatim.
    """
    when = parse_timestamp(cutoff)
    graph = doem.graph

    # The state at the cutoff is the new original snapshot: its nodes are
    # the live ones.  Additionally keep any node *created after* the
    # cutoff (it carries a cre annotation > cutoff) -- it may be dead now
    # but its post-cutoff history must survive.
    base = snapshot_at(doem, when)
    keep: set[str] = set(base.nodes())
    for node, annotations in doem.annotated_nodes():
        if any(isinstance(a, Cre) and a.at > when for a in annotations):
            keep.add(node)
    # Nodes still live *now* must also survive (e.g. linked after cutoff).
    keep |= doem.live_nodes()

    compacted_graph = OEMDatabase(root=graph.root)
    for node in graph.nodes():
        if node != graph.root and node in keep:
            compacted_graph.create_node(node, graph.value(node))
    if graph.root not in keep:  # pragma: no cover - the root is always live
        keep.add(graph.root)
    compacted_graph._values[graph.root] = graph.value(graph.root)

    compacted = DOEMDatabase(compacted_graph)

    # Arcs: keep an arc iff both endpoints survive AND the arc still
    # matters -- it is live at (or after) the cutoff, or gains an
    # annotation after the cutoff.
    for arc in graph.arcs():
        if arc.source not in keep or arc.target not in keep:
            continue
        annotations = doem.arc_annotations(*arc)
        later = [a for a in annotations if a.at > when]
        live_at_cutoff = doem.arc_live_at(*arc, when)
        if not live_at_cutoff and not later:
            continue
        compacted_graph.add_arc(*arc)
        for annotation in later:
            compacted.annotate_arc(*arc, annotation)
        # An arc that was live at the cutoff but whose first later
        # annotation is an Add would decode as "added twice"; that can't
        # happen in a valid history (live arcs are removed before being
        # re-added), so `later` sequences always alternate correctly.

    # Node annotations: keep only post-cutoff ones.  The "old value" chain
    # stays consistent because upd annotations carry their own old values
    # and the node's base value at the cutoff equals the old value of its
    # first post-cutoff update (by construction of DOEM).
    for node, annotations in doem.annotated_nodes():
        if node not in keep:
            continue
        for annotation in annotations:
            if annotation.at > when:
                compacted.annotate_node(node, annotation)

    return compacted
