"""Update planning finds its targets through the planner.

``plan_update`` evaluates each statement's path prefix (and, for
``link``, its target path) as a Lorel select query.  Those queries run
through ``LorelEngine.run`` -- compile and execute -- so they must find
the same objects, in the same order, as the depth-first evaluator
(``use_planner=False``): the planned change set is compared op for op
and in order, for every statement kind, with and without ``where``,
over generated worlds and their snapshots after a generated history.
"""

from __future__ import annotations

import pytest

from repro import LorelEngine, build_doem, current_snapshot
from repro.lorel.update import plan_update
from repro.sources.generators import random_database, random_history

SEEDS = (0, 1, 2, 3, 5, 8)
PAIRS = (("a", "b"), ("item", "price"), ("b", "name"), ("c", "a"),
         ("ref", "item"), ("link", "c"))
TEMPLATES = {
    "update": "update root.{p}.{q} := 7",
    "insert": 'insert root.{p}.note := "fresh"',
    "remove": "remove root.{p}.{q}",
    "link": "link root.{p}.peer := PATH root.{q}",
}
WHERES = ("", " where root.{p}.{q} > 100",
          ' where root.{p}.name = "alpha" or root.{p}.{q} < 50')


def worlds(seed: int):
    db = random_database(seed=seed, nodes=40)
    history = random_history(db, seed=seed, steps=4, set_size=6)
    return db, current_snapshot(build_doem(db, history))


def statements():
    for kind, template in TEMPLATES.items():
        for where in WHERES:
            for p, q in PAIRS:
                yield kind, (template + where).format(p=p, q=q)


def plan_both(db, statement):
    """``(planned, oracle)`` op lists.  Minting fresh ids advances the
    database's counter, so each side plans against its own copy."""
    planned = list(plan_update(db.copy(), statement))
    twin = db.copy()
    oracle = list(plan_update(twin, statement,
                              engine=LorelEngine(twin, use_planner=False)))
    return planned, oracle


@pytest.mark.parametrize("seed", SEEDS)
def test_planned_targets_equal_the_oracle(seed):
    for db in worlds(seed):
        for _, statement in statements():
            planned, oracle = plan_both(db, statement)
            assert planned == oracle, statement


def test_every_kind_plans_ops_with_and_without_where():
    """The comparison above is not vacuous: across the seeds every
    statement kind plans at least one op, with and without ``where``."""
    kinds = {(kind, "where" in statement)
             for seed in SEEDS for db in worlds(seed)
             for kind, statement in statements()
             if len(plan_update(db.copy(), statement))}
    assert kinds == {(kind, where) for kind in TEMPLATES
                     for where in (False, True)}
