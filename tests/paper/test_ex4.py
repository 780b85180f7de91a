"""Examples 4.1-4.5: the worked Chorel queries of Section 4.

Each query runs on the Figure 4 DOEM database; the golden pins its
answer: Bangkok Cuisine alone for 4.1, Hakata for 4.2 and 4.3, one
name / update-time / new-value object for 4.4, and nothing for 4.5 (no
price arc was ever added).
"""

import pytest

from repro import ChorelEngine
from tests.paper import assert_artifact

PAPER_QUERIES = {
    "ex4_1": "select guide.restaurant where guide.restaurant.price < 20.5",
    "ex4_2": "select guide.<add>restaurant",
    "ex4_3": "select guide.<add at T>restaurant where T < 4Jan97",
    "ex4_4": "select N, T, NV "
             "from guide.restaurant.price<upd at T to NV>, "
             "guide.restaurant.name N "
             "where T >= 1Jan97 and NV > 15",
    "ex4_5": 'select N from guide.restaurant R, R.name N '
             'where R.<add at T>price = "moderate" and T >= 1Jan97',
}
EXP_IDS = tuple(sorted(PAPER_QUERIES))


@pytest.mark.parametrize("exp_id", EXP_IDS)
def test_paper_query(guide_doem, exp_id):
    query = PAPER_QUERIES[exp_id]
    result = ChorelEngine(guide_doem, name="guide").run(query)
    rows = "\n".join(str(row) for row in result) or "(empty result)"
    assert_artifact(exp_id, f"query: {query}\nanswer:\n{rows}")
