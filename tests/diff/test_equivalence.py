"""The indexed matcher returns what the quadratic one did.

``oracle_matching.py`` is the matcher ``repro.diff.matching`` replaced.
Everything the store keeps forever is read off the matching in link
order, so equality here is *ordered*: the same links, linked in the same
order.  Four parts: (a) matcher == oracle over generated worlds, and the
candidate index misses no pair above its bound; (b) the signatures QSS
carries from one poll to the next are the ones a rehash would give, and
are dropped when they cannot be; (c) the inferred operations do not
depend on ``PYTHONHASHSEED``; (d) a counted guard on the work done.
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro import COMPLEX, OEMDatabase, apply_diff, oem_diff
from repro.diff import matching as production
from repro.diff import oemdiff
from repro.qss.managers import DOEMManager
from repro.sources.base import scramble_ids
from repro.sources.generators import (
    large_database, random_change_set, random_database)

from . import oracle_matching as oracle

ROOT = Path(__file__).resolve().parents[2]
FLAVOURS = ("items", "childless", "mixed-atoms", "duplicates")


def links(matching) -> list[tuple[str, str]]:
    return list(matching.old_to_new.items())


def assert_same_matching(old: OEMDatabase, new: OEMDatabase) -> None:
    assert links(production.match_snapshots(old, new)) \
        == links(oracle.match_snapshots(old, new))


# ---------------------------------------------------------------------------
# Worlds
# ---------------------------------------------------------------------------

def random_world(seed: int) -> tuple[OEMDatabase, OEMDatabase]:
    """A random graph with sharing and cycles, and a few change sets on."""
    rng = random.Random(seed)
    old = random_database(seed=seed, nodes=rng.choice([5, 15, 40, 80]),
                          extra_arc_ratio=rng.choice([0.0, 0.3, 0.8]))
    new = old.copy()
    for step in range(rng.randrange(1, 4)):
        random_change_set(new, seed=seed * 7 + step,
                          size=rng.choice([2, 6, 20])).apply_to(new)
    return old, (scramble_ids(new, salt=seed) if rng.random() < 0.8 else new)


def _child(db: OEMDatabase, rng: random.Random, flavour: str,
           ident: str) -> str:
    """One child of the wide parent, in the given flavour."""
    if flavour == "mixed-atoms":
        value = rng.choice([
            rng.randrange(5), float(rng.randrange(5)), rng.random() < 0.5,
            "w%d" % rng.randrange(5),
            " ".join("t%d" % rng.randrange(9) for _ in range(3))])
        return db.create_node(ident, value)
    node = db.create_node(ident, COMPLEX)
    if flavour == "childless" and rng.random() < 0.5:
        return node
    # "duplicates": a tiny vocabulary, so most siblings share a signature
    # with several others on both sides.
    spread = 3 if flavour == "duplicates" else 40
    db.add_arc(node, "name",
               db.create_node(ident + "n", "w%d" % rng.randrange(spread)))
    db.add_arc(node, "price",
               db.create_node(ident + "p", rng.randrange(spread)))
    if rng.random() < 0.5:
        info = db.create_node(ident + "i", COMPLEX)
        db.add_arc(node, "info", info)
        db.add_arc(info, "a",
                   db.create_node(ident + "ia", rng.randrange(spread)))
    return node


def wide_world(seed: int, width: int, percent: int,
               flavour: str) -> tuple[OEMDatabase, OEMDatabase]:
    """One parent fanning into ``width`` children, ``percent`` % of which
    change (value updates, dropped or added subobjects, whole children
    replaced, removed or added) before the identifiers are scrambled."""
    rng = random.Random(seed)
    old = OEMDatabase(root="root")
    for index in range(width):
        label = "item" if rng.random() < 0.9 else "other"
        old.add_arc("root", label, _child(old, rng, flavour, f"c{index}"))
    new = old.copy()
    kids = sorted(new.children("root"))
    for kid in rng.sample(kids, width * percent // 100):
        label = next(arc.label for arc in new.in_arcs(kid))
        roll = rng.random()
        atoms = [grandchild for grandchild in new.children(kid)
                 if new.is_atomic(grandchild)]
        if roll < 0.5 and atoms:
            new.update_value(rng.choice(atoms), rng.randrange(1000))
        elif roll < 0.6 and new.is_atomic(kid):
            new.update_value(kid, "t%d changed" % rng.randrange(9))
        elif roll < 0.7 and new.has_children(kid):
            arc = rng.choice(sorted(new.out_arcs(kid)))
            new.remove_arc(*arc)
        elif roll < 0.8:
            new.remove_arc("root", label, kid)
        else:
            new.remove_arc("root", label, kid)
            new.add_arc("root", label,
                        _child(new, rng, flavour, f"{kid}x"))
    for index in range(rng.randrange(3)):
        new.add_arc("root", "item", _child(new, rng, flavour, f"f{index}"))
    new.collect_garbage()
    return old, scramble_ids(new, salt=seed)


# ---------------------------------------------------------------------------
# (a) matcher == oracle
# ---------------------------------------------------------------------------

class TestSameMatchingAsOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_random_cyclic_graphs(self, seed):
        assert_same_matching(*random_world(seed))

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(2, 60),
           st.integers(5, 90), st.sampled_from(FLAVOURS))
    def test_wide_parents(self, seed, width, percent, flavour):
        assert_same_matching(*wide_world(seed, width, percent, flavour))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_signatures_unchanged(self, seed):
        old, _ = random_world(seed)
        assert list(production.node_signatures(old).items()) \
            == list(oracle.node_signatures(old).items())

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(2, 30),
           st.integers(5, 90), st.sampled_from(FLAVOURS))
    def test_index_misses_no_pair_above_the_bound(self, seed, width,
                                                  percent, flavour):
        old_db, new_db = wide_world(seed, width, percent, flavour)
        old = production._Side(old_db, production.node_signatures(old_db))
        new = production._Side(new_db, production.node_signatures(new_db))
        old_kids = list(old_db.children("root"))
        new_kids = list(new_db.children("root"))
        indexed = set(production._indexed_pairs(old_kids, new_kids, old, new))
        for pair in itertools.product(old_kids, new_kids):
            score = production._similarity(old.features(pair[0]),
                                           new.features(pair[1]))
            assert pair in indexed or score <= production._UNINDEXED_BOUND

    def test_the_bound_is_the_sum_the_scorer_computes(self):
        # Sharing nothing, two complex nodes with the same label set score
        # exactly the bound: it must compare equal, not a rounding above.
        assert production._UNINDEXED_BOUND == 0.6
        db = OEMDatabase(root="root")
        for ident, price in (("a", 1), ("b", 2)):
            db.add_arc("root", "item", db.create_node(ident, COMPLEX))
            db.add_arc(ident, "price", db.create_node(ident + "p", price))
        side = production._Side(db, production.node_signatures(db))
        assert production._similarity(
            side.features("a"), side.features("b")) \
            == production._UNINDEXED_BOUND

    def test_htmldiff_markup_unchanged(self, monkeypatch):
        from repro.diff import htmldiff
        old = "<ul><li>Janta 10</li><li>Bangkok 20</li><li>Zao 5</li></ul>"
        new = "<ul><li>Bangkok 25</li><li>Hakata 30</li><li>Janta 10</li></ul>"
        got = htmldiff.html_diff(old, new)
        monkeypatch.setattr(htmldiff, "match_snapshots",
                            oracle.match_snapshots)
        want = htmldiff.html_diff(old, new)
        assert (got.markup, got.change_set.operations()) \
            == (want.markup, want.change_set.operations())


# ---------------------------------------------------------------------------
# (b) carried signatures
# ---------------------------------------------------------------------------

class Recorder:
    """Stands in for ``oemdiff.match_snapshots``: records what the caller
    carried in and checks the result against the oracle."""

    def __init__(self) -> None:
        self.carried: list[bool] = []

    def __call__(self, old_db, new_db, old_signatures=None):
        fresh = oracle.node_signatures(old_db)
        self.carried.append(old_signatures == fresh)
        if old_signatures:
            assert old_signatures == fresh
        matching = production.match_snapshots(old_db, new_db, old_signatures)
        assert links(matching) == links(oracle.match_snapshots(old_db, new_db))
        return matching


def polling_results(seed: int, polls: int) -> list[OEMDatabase]:
    """Successive exports of one evolving source without stable ids."""
    source = random_database(seed=seed, nodes=30, root="answer")
    results = []
    for poll in range(polls):
        random_change_set(source, seed=seed * 31 + poll, size=8,
                          id_prefix=f"p{poll}_").apply_to(source)
        results.append(scramble_ids(source, salt=poll))
    return results


class TestCarriedSignatures:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6), st.booleans())
    def test_carried_table_is_what_a_rehash_gives(self, seed, cache):
        recorder = Recorder()
        manager = DOEMManager(cache_previous_result=cache)
        original = oemdiff.match_snapshots
        oemdiff.match_snapshots = recorder
        try:
            for poll, result in enumerate(polling_results(seed, 5)):
                change_set = manager.incorporate("s", f"{poll + 1}Jan97",
                                                 result)
                assert manager.previous_result("s").isomorphic_to(result), \
                    change_set
        finally:
            oemdiff.match_snapshots = original
        # Nothing to carry into the first poll; every later one reuses.
        assert recorder.carried == [False, True, True, True, True]

    def test_dropped_and_restarted_managers_rehash(self, monkeypatch,
                                                   tmp_path):
        from repro.store import close_store, open_store
        recorder = Recorder()
        monkeypatch.setattr(oemdiff, "match_snapshots", recorder)
        results = polling_results(7, 6)
        store = open_store(tmp_path / "st", "rw")
        try:
            manager = DOEMManager(store=store)
            for poll in range(2):
                manager.incorporate("s", f"{poll + 1}Jan97", results[poll])
            # A restart: the DOEM comes back from the log, the table does not.
            restarted = DOEMManager(store=store)
            for poll in range(2, 4):
                restarted.incorporate("s", f"{poll + 1}Jan97", results[poll])
            # A drop forgets the table with the rest of the state.
            restarted.drop("s")
            for poll in range(4, 6):
                restarted.incorporate("t", f"{poll + 1}Jan97", results[poll])
        finally:
            close_store(tmp_path / "st")
        assert recorder.carried == [False, True, False, True, False, True]

    def test_a_table_of_other_nodes_is_ignored(self):
        old, new = random_world(11)
        stale = dict.fromkeys(old.nodes(), 0)
        stale.pop(next(iter(stale)))
        stale["elsewhere"] = 0
        assert links(production.match_snapshots(old, new, stale)) \
            == links(oracle.match_snapshots(old, new))

    def test_oem_diff_rekeys_the_new_side(self):
        old, new = wide_world(5, 20, 40, "items")
        table: dict[str, int] = {}
        change_set = oem_diff(old, new, signatures=table)
        assert table == oracle.node_signatures(apply_diff(old, change_set))
        # ... and a hand-built matching carries nothing over.
        oem_diff(old, new, matching=production.match_snapshots(old, new),
                 signatures=table)
        assert table == oracle.node_signatures(apply_diff(old, change_set))
        by_hand = production.Matching()
        by_hand.link(old.root, new.root)
        oem_diff(old, new, matching=by_hand, signatures=table)
        assert table == {}


# ---------------------------------------------------------------------------
# (c) PYTHONHASHSEED does not reach the change set
# ---------------------------------------------------------------------------

HASHSEED_SCRIPT = """
import hashlib
from repro import oem_diff
from repro.diff.matching import match_snapshots
from tests.diff.test_equivalence import random_world, wide_world
digest = hashlib.sha256()
worlds = [random_world(seed) for seed in (3, 14, 15)]
worlds += [wide_world(9, 40, 50, flavour) for flavour in
           ("items", "childless", "mixed-atoms", "duplicates")]
for old, new in worlds:
    digest.update(repr(list(match_snapshots(old, new).old_to_new.items()))
                  .encode())
    digest.update(repr(oem_diff(old, new).operations()).encode())
print(digest.hexdigest())
"""


def test_operations_identical_across_hash_seeds():
    outputs = set()
    for hash_seed in ("0", "1", "12345"):
        environment = dict(os.environ, PYTHONHASHSEED=hash_seed,
                           PYTHONPATH=os.pathsep.join(
                               [str(ROOT / "src"), str(ROOT)]))
        done = subprocess.run([sys.executable, "-c", HASHSEED_SCRIPT],
                              cwd=ROOT, env=environment, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.add(done.stdout.strip())
    assert len(outputs) == 1, outputs


# ---------------------------------------------------------------------------
# (d) counted work, no wall clock
# ---------------------------------------------------------------------------

def test_work_is_near_linear_in_the_change(monkeypatch):
    """1,000 items, 10 % changed: pairs scored per unmatched child stays
    small (the quadratic matcher scored ~170 per unmatched child on the
    pipeline benchmark's scrambled world) and no parent pair is expanded
    twice."""
    items, changed = 1000, 100
    old = large_database(seed=1, items=items, extra_links=100)
    new = old.copy()
    rng = random.Random(1)
    for index in rng.sample(range(items), changed):
        new.update_value(f"i{index}_pr", 1000 + index)
    new = scramble_ids(new, salt=1)

    scored = Counter()
    expanded = Counter()
    similarity, expand = production._similarity, production._match_children

    def counting_similarity(old_features, new_features):
        scored["pairs"] += 1
        return similarity(old_features, new_features)

    def counting_expand(old_parent, new_parent, *rest):
        expanded[old_parent, new_parent] += 1
        return expand(old_parent, new_parent, *rest)

    monkeypatch.setattr(production, "_similarity", counting_similarity)
    monkeypatch.setattr(production, "_match_children", counting_expand)
    matching = production.match_snapshots(old, new)

    assert len(matching) == len(old)
    unmatched_children = 2 * changed        # old and new side of root.item
    assert scored["pairs"] <= 25 * unmatched_children
    complex_pairs = {(o, n) for o, n in matching.old_to_new.items()
                     if old.is_complex(o) and new.is_complex(n)}
    assert set(expanded) == complex_pairs
    assert set(expanded.values()) == {1}
