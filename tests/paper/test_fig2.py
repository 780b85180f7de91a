"""Figure 2 / Example 2.1: the Guide OEM database.

The golden pins the database's load-bearing properties: heterogeneous
prices (int vs. string), flat vs. structured addresses, the parking
object shared by two restaurants, and the parking/nearby-eats cycle.
"""

from tests.conftest import make_guide_db
from tests.paper import assert_artifact

EXP_IDS = ("fig2_oem_guide",)


def test_fig2_oem_guide():
    db = make_guide_db()
    price_types = sorted(type(db.value(p)).__name__
                         for r in db.children(db.root, "restaurant")
                         for p in db.children(r, "price"))
    parents = sorted(set(db.parents("n7")) - {"n7"})
    assert_artifact("fig2_oem_guide",
                    f"nodes={len(db)} arcs={db.arc_count()}\n"
                    f"price value types: {price_types}\n"
                    f"shared parking parents: {parents}\n\n"
                    + db.describe())
