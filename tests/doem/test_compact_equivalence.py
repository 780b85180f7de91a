"""``compact`` is ``D(Ot(D), H(D) after t)``, and equals the rebuild it
replaced at every cutoff.

``oracle_compact.py`` keeps the node-by-node rebuild ``compact`` ran
before it became a composition of :func:`build_doem`,
:func:`snapshot_at` and :func:`encoded_history`.  Both are run on random
histories at every cutoff that can matter -- before the first change
set, at each change set, between two of them and after the last -- and
on the CLI's demo world, and must give ``same_as``-equal databases.
"""

from __future__ import annotations

import pytest

from repro import build_doem, compact, random_database, random_history
from repro.sources.generators import demo_world

from .oracle_compact import compact as oracle_compact


def cutoffs(history):
    times = history.timestamps()
    between = [when.plus(hours=12) for when in times]
    return [times[0].plus(days=-1)] + times + between


def assert_same_at_every_cutoff(doem, history):
    for when in cutoffs(history):
        assert compact(doem, when).same_as(oracle_compact(doem, when)), \
            str(when)


@pytest.mark.parametrize("seed", range(60))
def test_random_histories(seed):
    db = random_database(seed=seed, nodes=12 + seed % 20)
    history = random_history(db, seed=seed, steps=4 + seed % 5,
                             set_size=3 + seed % 6)
    assert_same_at_every_cutoff(build_doem(db, history), history)


@pytest.mark.parametrize("days", [5, 20, 60])
def test_demo_world(days):
    db, history = demo_world(days=days)
    assert_same_at_every_cutoff(build_doem(db, history), history)
