"""Figure 3 / Examples 2.2-2.3: the history applied to Figure 2.

H = ((t1,U1),(t2,U2),(t3,U3)) turns Figure 2 into Figure 3: the price
goes 10 -> 20, Hakata and its comment appear, and Janta's parking arc
goes while n7 survives through Bangkok's arc.
"""

from tests.conftest import make_guide_db, make_guide_history
from tests.paper import assert_artifact

EXP_IDS = ("fig3_history",)


def test_fig3_history():
    history = make_guide_history()
    final = history.apply_to(make_guide_db())
    assert_artifact("fig3_history",
                    f"history: {len(history)} change sets, "
                    f"{history.operation_count()} basic operations\n"
                    f"final state: nodes={len(final)} "
                    f"arcs={final.arc_count()}\n\n" + final.describe())
