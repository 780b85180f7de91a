"""Node matching between two OEM snapshots.

The differencing algorithms of [CRGMW96] first compute a *matching*
between the objects of the old and new snapshots, then read the edit
operations off the matching.  This module implements a deterministic
matcher tuned for the snapshots QSS sees (polling results whose node
identifiers may be entirely fresh each time):

1. **Signature pass** -- every node gets an iterated structural hash
   (value for atoms; multiset of ``(label, child signature)`` for complex
   nodes, refined a bounded number of rounds so cycles converge).  A
   caller diffing a chain of snapshots hands the old side's table in: it
   is the previous match's new side, re-keyed.
2. **Anchor pass** -- roots match; nodes with equal signatures that are
   *unique on both sides* match.
3. **Propagation pass** -- each matched parent pair is expanded once, in
   link order, and greedily matches its children label by label:
   exact-signature children first, then best-effort pairs scored by value
   equality and child-signature overlap (so an updated atom still matches
   its old incarnation rather than looking created+deleted).  Candidates
   that can score above :data:`_UNINDEXED_BOUND` are found through an
   index of what they share; only what is left is scored pair by pair.

The result intentionally favors *plausible minimal edits* over optimal
tree-edit distance -- the paper's own htmldiff makes the same trade
(min-cost matching is cubic; snapshots are polled frequently).  The
quadratic matcher this one replaced is ``tests/diff/oracle_matching.py``;
the two return the same links in the same order (docs/diffing.md).
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

from ..oem.model import OEMDatabase, node_signatures
from ..oem.values import COMPLEX

__all__ = ["Matching", "match_snapshots", "node_signatures"]

# The least score at which two unmatched siblings are paired.
_MATCH_THRESHOLD = 0.3

# What a pair can score at most when it shares no ``(label, child
# signature)`` entry and no text-bag token and at least one side has
# children: the value part (<= 0.5) plus the label Jaccard part (<= 0.1),
# the 0.4 structural/textual part being exactly zero.
_UNINDEXED_BOUND = 0.5 + 0.1


@dataclass
class Matching:
    """A partial bijection between old-snapshot and new-snapshot nodes."""

    old_to_new: dict[str, str] = field(default_factory=dict)
    new_to_old: dict[str, str] = field(default_factory=dict)
    # The new side's :func:`node_signatures`, when :func:`match_snapshots`
    # built the matching: a chained differ re-keys them as its next old side.
    new_signatures: dict[str, int] = field(
        default_factory=dict, repr=False, compare=False)

    def link(self, old: str, new: str) -> None:
        """Record ``old ~ new``; both sides must be unmatched."""
        if old in self.old_to_new or new in self.new_to_old:
            raise ValueError(f"double match: {old} ~ {new}")
        self.old_to_new[old] = new
        self.new_to_old[new] = old

    def matched_old(self, node: str) -> bool:
        """Is the old-side node matched?"""
        return node in self.old_to_new

    def matched_new(self, node: str) -> bool:
        """Is the new-side node matched?"""
        return node in self.new_to_old

    def __len__(self) -> int:
        return len(self.old_to_new)


def _string_similarity(left: str, right: str) -> float:
    """Token-bag overlap in [0, 1]; rewards small edits to long text."""
    left_tokens = left.split()
    right_tokens = right.split()
    if not left_tokens and not right_tokens:
        return 1.0
    if not left_tokens or not right_tokens:
        return 0.0
    overlap = _multiset_overlap(left_tokens, right_tokens)
    return 2 * overlap / (len(left_tokens) + len(right_tokens))


_TEXT_BAG_LIMIT = 64


def text_bags(db: OEMDatabase) -> dict[str, list[str]]:
    """A bounded token multiset of each subtree's text content.

    Used to score complex-node candidates by what their contents *say*,
    so an ``<li>`` whose price changed still matches its old incarnation
    (the [CRGMW96] differ compares text chunks the same way).

    A depth-first walk with an explicit stack, so any depth of data
    works: a node's children are merged in arc order until the bag is
    full, a child still being collected (a cycle) adds nothing, and each
    node's bag is kept the first time it is finished -- the bags of
    ``tests/diff/oracle_text_bags.py``, the recursive walk it replaced.
    """
    bags: dict[str, list[str]] = {}
    on_stack: set[str] = set()
    values, out = db._values, db._out
    # One frame per complex node being collected: the node, its children
    # still to merge, the tokens merged so far.
    frames: list[tuple[str, Iterator[str], list[str]]] = []
    for node in values:
        if node in bags:
            continue
        target: str | None = node
        while True:
            if target is not None:
                value = values[target]
                if value is not COMPLEX:
                    bag = bags[target] = sorted(
                        str(value).split()[:_TEXT_BAG_LIMIT])
                    if not frames:
                        break
                    frames[-1][2].extend(bag)
                else:
                    on_stack.add(target)
                    frames.append((target, itertools.chain.from_iterable(
                        out[target].values()), []))
            current, children, merged = frames[-1]
            target = None
            if len(merged) < _TEXT_BAG_LIMIT:
                for child in children:
                    if child in bags:
                        merged.extend(bags[child])
                        if len(merged) >= _TEXT_BAG_LIMIT:
                            break
                    elif child not in on_stack:
                        target = child
                        break
            if target is not None:
                continue
            frames.pop()
            on_stack.discard(current)
            bag = bags[current] = sorted(merged[:_TEXT_BAG_LIMIT])
            if not frames:
                break
            frames[-1][2].extend(bag)
    return bags


class _Side:
    """One snapshot for the length of one match: its signatures, its text
    bags and each candidate's features, computed on first use."""

    def __init__(self, db: OEMDatabase, sig: dict[str, int]) -> None:
        # Read straight off the database's maps: a match touches every
        # node and arc several times.
        self.values, self.out = db._values, db._out
        self.sig = sig
        self.bags = text_bags(db)
        self._features: dict[str, tuple] = {}

    def features(self, node: str) -> tuple:
        """``(value, value key, [(label, child signature)], labels, bag)``."""
        found = self._features.get(node)
        if found is None:
            value = self.values[node]
            key = ("C",) if value is COMPLEX else (type(value).__name__, value)
            kids = [(label, self.sig[target])
                    for label, targets in self.out[node].items()
                    for target in targets]
            found = self._features[node] = (
                value, key, kids, {label for label, _ in kids},
                self.bags[node])
        return found


def _similarity(old: tuple, new: tuple) -> float:
    """A [0, 1] score of how alike two unmatched candidates are, from
    their :meth:`_Side.features`."""
    old_value, old_key, old_kids, old_labels, old_bag = old
    new_value, new_key, new_kids, new_labels, new_bag = new
    score = 0.0
    if old_key == new_key:
        score += 0.5
    elif isinstance(old_value, str) and isinstance(new_value, str):
        # Updated text should still match its old incarnation: partial
        # credit proportional to token overlap.
        score += 0.5 * _string_similarity(old_value, new_value)
    elif old_value is not COMPLEX and new_value is not COMPLEX and \
            type(old_value) is type(new_value):
        score += 0.15
    if old_kids or new_kids:
        overlap = _multiset_overlap(old_kids, new_kids)
        structural = 2 * overlap / (len(old_kids) + len(new_kids))
        textual = 0.0
        if old_bag or new_bag:
            text_overlap = _multiset_overlap(old_bag, new_bag)
            textual = 2 * text_overlap / (len(old_bag) + len(new_bag))
        score += 0.4 * max(structural, textual)
    else:
        score += 0.4 if old_key[0] == new_key[0] else 0.0
    if old_labels or new_labels:
        union = old_labels | new_labels
        score += 0.1 * (len(old_labels & new_labels) / len(union))
    else:
        score += 0.1
    return score


def _multiset_overlap(left: list, right: list) -> int:
    counts: dict[object, int] = {}
    for item in left:
        counts[item] = counts.get(item, 0) + 1
    overlap = 0
    for item in right:
        if counts.get(item, 0) > 0:
            counts[item] -= 1
            overlap += 1
    return overlap


def match_snapshots(old_db: OEMDatabase, new_db: OEMDatabase,
                    old_signatures: dict[str, int] | None = None) -> Matching:
    """Compute a matching between ``old_db`` and ``new_db`` nodes.

    ``old_signatures`` spares rehashing the old side when the caller
    already holds ``node_signatures(old_db)`` (see
    :func:`~repro.diff.oemdiff.oem_diff`); a table that does not cover
    exactly ``old_db``'s nodes is ignored.
    """
    if old_signatures is not None and \
            old_signatures.keys() == old_db._values.keys():
        # In the old side's node order: the anchor pass walks it.
        old_sig = {node: old_signatures[node] for node in old_db.nodes()}
    else:
        old_sig = node_signatures(old_db)
    old, new = _Side(old_db, old_sig), _Side(new_db, node_signatures(new_db))
    matching = Matching(new_signatures=new.sig)
    matching.link(old_db.root, new_db.root)

    # Anchor pass: signatures unique on both sides match unconditionally.
    old_count, new_count = Counter(old_sig.values()), Counter(new.sig.values())
    new_unique = {signature: node for node, signature in new.sig.items()
                  if new_count[signature] == 1}
    for old_node, signature in old_sig.items():
        new_node = new_unique.get(signature)
        if new_node is not None and old_count[signature] == 1 and \
                not matching.matched_old(old_node) and \
                not matching.matched_new(new_node):
            matching.link(old_node, new_node)

    # Propagation: a FIFO worklist in link order (the list grows while it
    # is walked).  One expansion per pair is enough: afterwards no two of
    # its unmatched children have equal signatures or reach the threshold,
    # and neither signatures nor scores change during a match.
    pairs = list(matching.old_to_new.items())
    for old_parent, new_parent in pairs:
        if old.values[old_parent] is COMPLEX and \
                new.values[new_parent] is COMPLEX:
            _match_children(old_parent, new_parent, old, new, matching, pairs)
    return matching


def _match_children(old_parent: str, new_parent: str, old: _Side, new: _Side,
                    matching: Matching, pairs: list[tuple[str, str]]) -> None:
    """Pair the children of one matched parent pair, appending every new
    link to ``pairs``."""
    matched_old, matched_new = matching.old_to_new, matching.new_to_old

    def link_best(candidates, keep, floor: float) -> None:
        # Greedy, best first; ties fall to identifier order.
        scored = []
        for old_kid, new_kid in candidates:
            score = _similarity(old.features(old_kid), new.features(new_kid))
            if keep(score, floor):
                scored.append((-score, old_kid, new_kid))
        scored.sort()
        for _, old_kid, new_kid in scored:
            if old_kid not in matched_old and new_kid not in matched_new:
                matching.link(old_kid, new_kid)
                pairs.append((old_kid, new_kid))

    old_out, new_out = old.out[old_parent], new.out[new_parent]
    for label in sorted(old_out.keys() & new_out.keys()):
        old_kids = [kid for kid in old_out[label] if kid not in matched_old]
        new_kids = [kid for kid in new_out[label] if kid not in matched_new]
        if not old_kids or not new_kids:
            continue

        # Exact-signature pairing first: each old child, in identifier
        # order, takes the least unmatched new child of its signature.
        waiting: dict[int, list[str]] = {}
        for kid in sorted(new_kids, reverse=True):
            waiting.setdefault(new.sig[kid], []).append(kid)
        for kid in sorted(old_kids):
            queue = waiting.get(old.sig[kid])
            if queue:
                new_kid = queue.pop()
                matching.link(kid, new_kid)
                pairs.append((kid, new_kid))

        # Best-effort pairing by similarity for the rest.  Every pair
        # above the bound shares an indexed feature, so ranking those and
        # linking them first is the head of the full ranking; its tail is
        # then ranked over what is still unmatched (the full ranking
        # would skip the rest anyway).  With one child on a side the
        # cross product is no larger than the index.
        old_kids = [kid for kid in old_kids if kid not in matched_old]
        new_kids = [kid for kid in new_kids if kid not in matched_new]
        if len(old_kids) > 1 and len(new_kids) > 1:
            link_best(_indexed_pairs(old_kids, new_kids, old, new),
                      operator.gt, _UNINDEXED_BOUND)
            old_kids = [kid for kid in old_kids if kid not in matched_old]
            new_kids = [kid for kid in new_kids if kid not in matched_new]
        if old_kids and new_kids:
            link_best(itertools.product(old_kids, new_kids),
                      operator.ge, _MATCH_THRESHOLD)


def _indexed_pairs(old_kids: list[str], new_kids: list[str],
                   old: _Side, new: _Side) -> Iterator[tuple[str, str]]:
    """Every ``(old, new)`` pair that can score above
    :data:`_UNINDEXED_BOUND`: pairs sharing a ``(label, child signature)``
    entry or a text-bag token, and all childless x childless pairs."""
    index: dict[object, list[str]] = {}
    childless: list[str] = []
    for kid in new_kids:
        _, _, kids, _, bag = new.features(kid)
        if not kids:
            childless.append(kid)
        for feature in {*kids, *bag}:
            index.setdefault(feature, []).append(kid)
    for kid in old_kids:
        _, _, kids, _, bag = old.features(kid)
        found = set() if kids else set(childless)
        for feature in {*kids, *bag}:
            found.update(index.get(feature, ()))
        for candidate in found:
            yield kid, candidate
