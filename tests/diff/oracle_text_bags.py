"""The reference ``text_bags``: ``repro.diff.matching.text_bags`` as it
stood before its explicit-stack rewrite, kept as the oracle of
``test_text_bags.py``.

It recurses once per level of data, so a deep enough chain raises
``RecursionError``; within the recursion limit it defines the bags the
production walk must return, cycles included.  Do not optimise this
file.
"""

from __future__ import annotations

import itertools

from repro.oem.model import OEMDatabase
from repro.oem.values import COMPLEX

__all__ = ["text_bags"]

_TEXT_BAG_LIMIT = 64


def text_bags(db: OEMDatabase) -> dict[str, list[str]]:
    """A bounded token multiset of each subtree's text content."""
    bags: dict[str, list[str]] = {}
    on_stack: set[str] = set()
    values, out = db._values, db._out

    def collect(node: str) -> list[str]:
        if node in bags:
            return bags[node]
        if node in on_stack:
            return []
        value = values[node]
        if value is not COMPLEX:
            bag = sorted(str(value).split()[:_TEXT_BAG_LIMIT])
            bags[node] = bag
            return bag
        on_stack.add(node)
        merged: list[str] = []
        for target in itertools.chain.from_iterable(out[node].values()):
            merged.extend(collect(target))
            if len(merged) >= _TEXT_BAG_LIMIT:
                break
        on_stack.discard(node)
        bag = sorted(merged[:_TEXT_BAG_LIMIT])
        bags[node] = bag
        return bag

    for node in values:
        collect(node)
    del collect  # the closure holds itself through its cell: no cycle left
    return bags
