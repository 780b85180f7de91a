"""The reference matcher: ``repro.diff.matching`` as it stood before the
indexed rewrite, kept verbatim as the oracle of ``test_equivalence.py``.

It re-walks every matched pair until a pass adds no link, scores the
full cross product of unmatched children under each label, and rebuilds
each candidate's child list and label set per call -- quadratic, and the
definition of what the production matcher must return: the same
``Matching``, link for link and in the same link order.  Do not optimise
this file; change it only together with a deliberate change of ``U``.
"""

from __future__ import annotations

from repro.diff.matching import Matching
from repro.oem.model import OEMDatabase
from repro.oem.values import COMPLEX

__all__ = ["match_snapshots", "node_signatures", "text_bags"]

_REFINEMENT_ROUNDS = 8


def node_signatures(db: OEMDatabase,
                    rounds: int = _REFINEMENT_ROUNDS) -> dict[str, int]:
    """Iterated structural hashes for every node of ``db``.

    Atomic nodes hash their value; complex nodes hash the multiset of
    ``(label, child signature)`` pairs.  ``rounds`` bounds the refinement
    so cyclic graphs terminate; two nodes with equal signatures are
    structurally indistinguishable to depth ``rounds``.
    """
    sig: dict[str, int] = {}
    for node in db.nodes():
        value = db.value(node)
        sig[node] = hash(("atom", value)) if value is not COMPLEX \
            else hash("complex")
    for _ in range(rounds):
        updated: dict[str, int] = {}
        for node in db.nodes():
            if db.value(node) is not COMPLEX:
                updated[node] = sig[node]
                continue
            children = tuple(sorted(
                (arc.label, sig[arc.target]) for arc in db.out_arcs(node)))
            updated[node] = hash((children,))
        if updated == sig:
            break
        sig = updated
    return sig


def _value_key(db: OEMDatabase, node: str) -> object:
    value = db.value(node)
    return ("C",) if value is COMPLEX else (type(value).__name__, value)


def _string_similarity(left: str, right: str) -> float:
    """Token-bag overlap in [0, 1]; rewards small edits to long text."""
    left_tokens = left.split()
    right_tokens = right.split()
    if not left_tokens and not right_tokens:
        return 1.0
    if not left_tokens or not right_tokens:
        return 0.0
    overlap = _multiset_overlap(sorted(left_tokens), sorted(right_tokens))
    return 2 * overlap / (len(left_tokens) + len(right_tokens))


_TEXT_BAG_LIMIT = 64


def text_bags(db: OEMDatabase) -> dict[str, list[str]]:
    """A bounded token multiset of each subtree's text content.

    Used to score complex-node candidates by what their contents *say*,
    so an ``<li>`` whose price changed still matches its old incarnation
    (the [CRGMW96] differ compares text chunks the same way).
    """
    bags: dict[str, list[str]] = {}
    on_stack: set[str] = set()

    def collect(node: str) -> list[str]:
        if node in bags:
            return bags[node]
        if node in on_stack:
            return []
        value = db.value(node)
        if value is not COMPLEX:
            bag = sorted(str(value).split()[:_TEXT_BAG_LIMIT])
            bags[node] = bag
            return bag
        on_stack.add(node)
        merged: list[str] = []
        for arc in db.out_arcs(node):
            merged.extend(collect(arc.target))
            if len(merged) >= _TEXT_BAG_LIMIT:
                break
        on_stack.discard(node)
        bag = sorted(merged[:_TEXT_BAG_LIMIT])
        bags[node] = bag
        return bag

    for node in db.nodes():
        collect(node)
    return bags


def _similarity(old_db: OEMDatabase, old: str, new_db: OEMDatabase,
                new: str, old_sig: dict[str, int],
                new_sig: dict[str, int],
                old_bags: dict[str, list[str]] | None = None,
                new_bags: dict[str, list[str]] | None = None) -> float:
    """A [0, 1] score of how alike two unmatched candidates are."""
    score = 0.0
    old_value, new_value = old_db.value(old), new_db.value(new)
    if _value_key(old_db, old) == _value_key(new_db, new):
        score += 0.5
    elif isinstance(old_value, str) and isinstance(new_value, str):
        # Updated text should still match its old incarnation: partial
        # credit proportional to token overlap.
        score += 0.5 * _string_similarity(old_value, new_value)
    elif old_value is not COMPLEX and new_value is not COMPLEX and \
            type(old_value) is type(new_value):
        score += 0.15
    old_kids = sorted((arc.label, old_sig[arc.target])
                      for arc in old_db.out_arcs(old))
    new_kids = sorted((arc.label, new_sig[arc.target])
                      for arc in new_db.out_arcs(new))
    if old_kids or new_kids:
        overlap = _multiset_overlap(old_kids, new_kids)
        structural = 2 * overlap / (len(old_kids) + len(new_kids))
        textual = 0.0
        if old_bags is not None and new_bags is not None:
            left, right = old_bags.get(old, []), new_bags.get(new, [])
            if left or right:
                text_overlap = _multiset_overlap(left, right)
                textual = 2 * text_overlap / (len(left) + len(right))
        score += 0.4 * max(structural, textual)
    else:
        score += 0.4 if _value_key(old_db, old)[0] == _value_key(new_db, new)[0] else 0.0
    old_labels = {arc.label for arc in old_db.out_arcs(old)}
    new_labels = {arc.label for arc in new_db.out_arcs(new)}
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


def match_snapshots(old_db: OEMDatabase,
                    new_db: OEMDatabase) -> Matching:
    """Compute a matching between ``old_db`` and ``new_db`` nodes."""
    old_sig = node_signatures(old_db)
    new_sig = node_signatures(new_db)
    old_bags = text_bags(old_db)
    new_bags = text_bags(new_db)
    matching = Matching()
    matching.link(old_db.root, new_db.root)

    # Anchor pass: signatures unique on both sides match unconditionally.
    old_by_sig: dict[int, list[str]] = {}
    for node, signature in old_sig.items():
        old_by_sig.setdefault(signature, []).append(node)
    new_by_sig: dict[int, list[str]] = {}
    for node, signature in new_sig.items():
        new_by_sig.setdefault(signature, []).append(node)
    for signature, old_nodes in old_by_sig.items():
        new_nodes = new_by_sig.get(signature, [])
        if len(old_nodes) == 1 and len(new_nodes) == 1:
            old, new = old_nodes[0], new_nodes[0]
            if not matching.matched_old(old) and not matching.matched_new(new):
                matching.link(old, new)

    # Propagation: repeatedly walk matched parents and pair their children.
    changed = True
    while changed:
        changed = False
        for old_parent, new_parent in list(matching.old_to_new.items()):
            if old_db.value(old_parent) is not COMPLEX:
                continue
            if new_db.value(new_parent) is not COMPLEX:
                continue
            changed |= _match_children(
                old_db, old_parent, new_db, new_parent,
                old_sig, new_sig, matching, old_bags, new_bags)
    return matching


def _match_children(old_db: OEMDatabase, old_parent: str,
                    new_db: OEMDatabase, new_parent: str,
                    old_sig: dict[str, int], new_sig: dict[str, int],
                    matching: Matching,
                    old_bags: dict[str, list[str]] | None = None,
                    new_bags: dict[str, list[str]] | None = None) -> bool:
    """Pair the children of one matched parent pair; True when progress."""
    progress = False
    labels = set(old_db.out_labels(old_parent)) | set(new_db.out_labels(new_parent))
    for label in sorted(labels):
        old_kids = [child for child in old_db.children(old_parent, label)
                    if not matching.matched_old(child)]
        new_kids = [child for child in new_db.children(new_parent, label)
                    if not matching.matched_new(child)]
        if not old_kids or not new_kids:
            continue

        # Exact-signature pairing first (stable order for determinism).
        remaining_new = list(new_kids)
        for old in sorted(old_kids):
            for new in sorted(remaining_new):
                if old_sig[old] == new_sig[new]:
                    matching.link(old, new)
                    remaining_new.remove(new)
                    progress = True
                    break
        old_kids = [child for child in old_kids
                    if not matching.matched_old(child)]
        new_kids = [child for child in remaining_new
                    if not matching.matched_new(child)]

        # Best-effort pairing by similarity for the rest.
        scored: list[tuple[float, str, str]] = []
        for old in old_kids:
            for new in new_kids:
                score = _similarity(old_db, old, new_db, new,
                                    old_sig, new_sig, old_bags, new_bags)
                if score >= 0.3:
                    scored.append((score, old, new))
        scored.sort(key=lambda entry: (-entry[0], entry[1], entry[2]))
        for score, old, new in scored:
            if matching.matched_old(old) or matching.matched_new(new):
                continue
            matching.link(old, new)
            progress = True
    return progress
