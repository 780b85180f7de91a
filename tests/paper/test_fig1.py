"""Figure 1: htmldiff's marked-up output.

Two versions of the simulated restaurant guide page, a week apart, go
through the whole HTML -> OEM -> diff -> markup pipeline.  The golden
pins the inferred operations, the insert/update marker counts and the
head of the marked-up page.
"""

from repro import RestaurantGuideSource, html_diff
from repro.diff.htmldiff import INSERT_MARK, UPDATE_MARK
from tests.paper import assert_artifact

EXP_IDS = ("fig1_htmldiff",)


def test_fig1_htmldiff():
    source = RestaurantGuideSource(seed=1997, initial_restaurants=8,
                                   events_per_day=2.0)
    old = source.render_html()
    source.advance("8Dec96")
    new = source.render_html()
    result = html_diff(old, new)
    assert_artifact(
        "fig1_htmldiff",
        f"page sizes: old={len(old)}B new={len(new)}B\n"
        f"inferred operations: {result.stats}\n"
        f"markers: insert={result.markup.count(INSERT_MARK)} "
        f"update={result.markup.count(UPDATE_MARK)}\n"
        f"--- first 600 chars of marked-up output ---\n"
        f"{result.markup[:600]}")
