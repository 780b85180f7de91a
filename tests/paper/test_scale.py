"""bench-scale: DOEM size against history length.

Sections 3 and 5 argue for DOEM as a compact single-structure history.
On one 60-node base database, the annotation count grows linearly with
the operations applied (each change set holds at most 9), never
quadratically.
"""

import pytest

from repro import build_doem, random_database, random_history
from tests.paper import assert_artifact

STEPS = (2, 8, 32)
EXP_IDS = tuple(f"scale_size_steps{steps}" for steps in STEPS)


@pytest.mark.parametrize("steps", STEPS)
def test_doem_size_vs_history(steps):
    db = random_database(seed=99, nodes=60)
    doem = build_doem(db, random_history(db, seed=99, steps=steps,
                                         set_size=8))
    assert_artifact(
        f"scale_size_steps{steps}",
        f"steps={steps} annotations={doem.annotation_count()} "
        f"nodes={len(doem.graph)} arcs={doem.graph.arc_count()}")
