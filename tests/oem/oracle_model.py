"""Reference copy and collection: ``OEMDatabase`` as it stood before
copies shared structure and collections started from suspects, kept as
the oracle of ``test_equivalence.py``.

``deep_copy`` duplicates every adjacency container, so its result shares
nothing with the source whatever either side does next; ``unreachable``
is the unconditional breadth-first walk from the root.  Both are the
definition of what the production methods must return.  They read the
adjacency maps and nothing else: the ownership and suspect bookkeeping
of the production class is exactly what they must not depend on.  Do not
optimise this file.
"""

from __future__ import annotations

import copy
import itertools
from collections import deque

from repro.oem.model import OEMDatabase

__all__ = ["deep_copy", "unreachable"]


def deep_copy(db: OEMDatabase) -> OEMDatabase:
    """A copy of ``db`` that owns every container from the start."""
    clone = OEMDatabase.__new__(OEMDatabase)
    clone._values = dict(db._values)
    clone._out = {node: {label: dict(targets)
                         for label, targets in by_label.items()}
                  for node, by_label in db._out.items()}
    clone._in = {node: set(arcs) for node, arcs in db._in.items()}
    clone._arc_count = db._arc_count
    clone._counter = itertools.count(next(copy.copy(db._counter)))
    clone._root = db._root
    clone._owned = None
    clone._suspects = set(db._suspects)
    return clone


def unreachable(db: OEMDatabase) -> set[str]:
    """``N`` minus the breadth-first closure of the root."""
    seen = {db.root}
    frontier = deque([db.root])
    while frontier:
        node = frontier.popleft()
        for by_label in db._out[node].values():
            for child in by_label:
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
    return set(db._values) - seen
