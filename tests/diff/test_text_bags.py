"""``text_bags`` walks with an explicit stack and returns the bags of the
recursive walk it replaced (``oracle_text_bags.py``), cycles included,
at any depth of data."""

from __future__ import annotations

import random
import sys

import pytest

from repro import COMPLEX, OEMDatabase, oem_diff
from repro.diff.matching import text_bags
from repro.sources.generators import random_database

from . import oracle_text_bags as oracle

WORDS = "alpha beta gamma delta eps zeta eta theta iota kappa".split()


def wordy_graph(seed: int) -> OEMDatabase:
    """Complex nodes wired at random (back arcs make cycles, shared
    children make diamonds) over atoms of up to 40 words, so bags fill
    to their bound and stop mid-children."""
    rng = random.Random(seed)
    db = OEMDatabase(root="root")
    complexes = ["root"]
    for index in range(rng.randrange(3, 40)):
        node = f"c{index}"
        db.create_node(node, COMPLEX)
        db.add_arc(rng.choice(complexes), rng.choice("ab"), node)
        complexes.append(node)
    for index in range(rng.randrange(1, 60)):
        node = f"a{index}"
        value = " ".join(rng.choice(WORDS)
                         for _ in range(rng.randrange(0, 40)))
        db.create_node(node, rng.choice([value, rng.randrange(100)]))
        db.add_arc(rng.choice(complexes), rng.choice("abc"), node)
    for _ in range(rng.randrange(0, 3 * len(complexes))):
        source, target = rng.choice(complexes), rng.choice(complexes)
        if not db.has_arc(source, "x", target):
            db.add_arc(source, "x", target)
    return db


@pytest.mark.parametrize("seed", range(150))
def test_equal_bags_on_random_graphs_with_cycles(seed):
    db = wordy_graph(seed)
    assert text_bags(db) == oracle.text_bags(db)


@pytest.mark.parametrize("seed", range(40))
def test_equal_bags_on_generated_worlds(seed):
    db = random_database(seed=seed, nodes=10 + seed * 3,
                         extra_arc_ratio=(0.0, 0.4, 1.0)[seed % 3])
    assert text_bags(db) == oracle.text_bags(db)


def deep_chain(depth: int) -> OEMDatabase:
    db = OEMDatabase(root="root")
    parent = "root"
    for index in range(depth):
        node = f"d{index}"
        db.create_node(node, COMPLEX)
        db.add_arc(parent, "next", node)
        parent = node
    db.create_node("leaf", "the end of the chain")
    db.add_arc(parent, "text", "leaf")
    return db


def test_a_deep_chain_at_the_default_recursion_limit():
    assert sys.getrecursionlimit() <= 3000
    db = deep_chain(3000)
    bags = text_bags(db)
    assert bags["root"] == bags["d0"] == sorted("the end of the chain".split())
    with pytest.raises(RecursionError):
        oracle.text_bags(db)
    # The differ that reads the bags finishes on the chain too.
    diff = oem_diff(OEMDatabase(root="root"), db)
    assert len(diff) > 3000
