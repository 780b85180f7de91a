"""Figure 4 / Example 3.1: the DOEM database D(O, H).

One annotation per basic operation of Example 2.3, placed as the figure
draws them; the removed parking arc stays in the graph with its
``rem(8Jan97)``.
"""

from tests.paper import assert_artifact

EXP_IDS = ("fig4_doem",)


def test_fig4_doem(guide_doem):
    assert_artifact("fig4_doem", guide_doem.describe())
