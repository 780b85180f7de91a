"""Figure 5: the Section 5.1 encoding of DOEM in OEM.

The encoding's size on the running example, and its blow-up over the
DOEM graph as a 40-node random database accumulates history.
"""

import pytest

from repro import build_doem, encode_doem, random_database, random_history
from tests.paper import assert_artifact

BLOWUP_STEPS = (0, 4, 16)
EXP_IDS = ("fig5_encoding",
           *(f"fig5_blowup_steps{steps}" for steps in BLOWUP_STEPS))


def test_fig5_encoding(guide_doem):
    oem = encode_doem(guide_doem).oem
    graph = guide_doem.graph
    assert_artifact(
        "fig5_encoding",
        f"DOEM: nodes={len(graph)} arcs={graph.arc_count()} "
        f"annotations={guide_doem.annotation_count()}\n"
        f"encoding: nodes={len(oem)} arcs={oem.arc_count()}\n"
        f"node blow-up factor: {len(oem) / len(graph):.2f}x")


@pytest.mark.parametrize("steps", BLOWUP_STEPS)
def test_fig5_blowup(steps):
    db = random_database(seed=5, nodes=40)
    doem = build_doem(db, random_history(db, seed=5, steps=steps,
                                         set_size=6))
    nodes = len(encode_doem(doem).oem)
    assert_artifact(f"fig5_blowup_steps{steps}",
                    f"history steps={steps} "
                    f"annotations={doem.annotation_count()} "
                    f"encoding nodes={nodes} "
                    f"blow-up={nodes / len(doem.graph):.2f}x")
