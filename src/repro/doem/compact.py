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

The construction is the definition: a DOEM database is ``D(O, H)``, so
the compacted one is ``D(Ot(D), H(D) after t)`` -- :func:`build_doem` of
the snapshot at the cutoff and the encoded history's later change sets.
"""

from __future__ import annotations

from ..oem.history import OEMHistory
from ..timestamps import POS_INF, parse_timestamp
from .build import build_doem
from .extract import encoded_history
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
    later = encoded_history(doem).entries_between(when, POS_INF)
    return build_doem(snapshot_at(doem, when), OEMHistory(later))
