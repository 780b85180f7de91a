"""Reference compaction: the node-by-node rebuild ``repro.doem.compact``
ran until it became a composition, ``build_doem`` of the snapshot at the
cutoff and the encoded history after it.  Kept as the oracle of
``test_compact_equivalence.py``.

``compact`` decides which nodes survive (live at the cutoff, created
after it, or live now), copies their values, keeps each arc that is live
at the cutoff or annotated after it, and copies every post-cutoff
annotation verbatim.  Do not optimise this file.
"""

from __future__ import annotations

from repro.doem.annotations import Cre
from repro.doem.model import DOEMDatabase
from repro.doem.snapshot import snapshot_at
from repro.oem.model import OEMDatabase
from repro.timestamps import parse_timestamp

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
