"""bench-triggers: the Section 7 ECA extension.

Fifteen days of guide evolution, diffed once, fold through a trigger
manager carrying four rules (one per event kind), unconditional or
guarded by a Chorel condition.  The goldens pin the activations.
"""

import pytest

from repro import (
    DOEMDatabase,
    Event,
    OEMDatabase,
    RestaurantGuideSource,
    TriggerManager,
    Wrapper,
    current_snapshot,
    oem_diff,
    parse_timestamp,
)
from repro.doem.build import apply_change_set
from tests.paper import assert_artifact

DAYS = 15
CONDITIONS = {
    "update": "select OV, NV from NEW<upd at T from OV to NV> "
              "where T = t[0]",
    "add": "select N from PARENT.name N",
    "create": "select NEW where NEW != 0",
    "remove": "select P from PARENT.price P",
}
EXP_IDS = ("triggers_plain", "triggers_guarded")


@pytest.fixture(scope="module")
def change_sets():
    """The daily change sets, as a polling DOEM manager infers them."""
    wrapper = Wrapper(RestaurantGuideSource(seed=55, initial_restaurants=10,
                                            events_per_day=3.0),
                      name="guide")
    doem = DOEMDatabase(OEMDatabase(root="answer"))
    reserved = {"answer"}
    sets = []
    start = parse_timestamp("1Dec96")
    for day in range(DAYS):
        when = start.plus(days=day + 1)
        wrapper.advance(when)
        changes = oem_diff(current_snapshot(doem),
                           wrapper.poll("select guide.restaurant"),
                           reserved_ids=reserved)
        sets.append((when, changes))
        apply_change_set(doem, when, changes)
        reserved.update(changes.created_nodes())
    return sets


@pytest.mark.parametrize("conditional", [False, True],
                         ids=["plain", "guarded"])
def test_trigger_activations(change_sets, conditional):
    manager = TriggerManager(root="answer")
    manager.name = "Guide"
    for index, kind in enumerate(("update", "add", "create", "remove")):
        manager.on(f"rule{index}", Event(kind), lambda activation: None,
                   condition=CONDITIONS[kind] if conditional else None)
    for when, changes in change_sets:
        manager.fold(when, changes)
    assert_artifact(
        f"triggers_{'guarded' if conditional else 'plain'}",
        f"rules=4 conditional={conditional} "
        f"activations={len(manager.activations)} over {DAYS} days")
