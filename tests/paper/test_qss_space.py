"""bench-qss-space: the Section 6.1 space strategies.

"Alternatively, the DOEM Manager could store the previous result in
addition to the DOEM database, thereby trading space for time."  The
goldens pin, over days of guide polling:

* ``qss_space_days*`` -- the state each strategy keeps: the cached
  previous result is the extra state, the DOEM is the same;
* ``qss_compact_keep*`` -- the third strategy, trading accuracy for
  space: a server compacting to its last N polls against an unbounded
  DOEM manager.
"""

import pytest

from repro import (
    QSSServer,
    RestaurantGuideSource,
    Subscription,
    Wrapper,
    parse_timestamp,
)
from repro.qss.managers import DOEMManager
from tests.paper import assert_artifact

DAYS = (5, 20)
KEEP = (2, 5)
EXP_IDS = (*(f"qss_space_days{days}" for days in DAYS),
           *(f"qss_compact_keep{keep}" for keep in KEEP))


def guide_source():
    return RestaurantGuideSource(seed=31, initial_restaurants=10,
                                 events_per_day=3.0)


def run_days(days, cached=True):
    manager = DOEMManager(cache_previous_result=cached)
    wrapper = Wrapper(guide_source(), name="guide")
    start = parse_timestamp("1Dec96")
    for day in range(days):
        when = start.plus(days=day + 1)
        wrapper.advance(when)
        manager.incorporate("S", when, wrapper.poll("select guide.restaurant"))
    return manager


@pytest.mark.parametrize("days", DAYS)
def test_strategy_state_sizes(days):
    cached = run_days(days).state_size("S")
    lean = run_days(days, cached=False).state_size("S")
    assert_artifact(
        f"qss_space_days{days}",
        f"days={days}\n"
        f"cache-previous:     doem_nodes={cached['doem_nodes']} "
        f"annotations={cached['annotations']} "
        f"cached_nodes={cached['cached_nodes']} (extra state)\n"
        f"recompute-previous: doem_nodes={lean['doem_nodes']} "
        f"annotations={lean['annotations']} "
        f"cached_nodes={lean['cached_nodes']}")


@pytest.mark.parametrize("keep", KEEP)
def test_compaction_policy(keep):
    server = QSSServer(start="1Dec96", deliver_empty=True,
                       compact_keep_polls=keep)
    server.register_wrapper("guide", Wrapper(guide_source(), name="guide"))
    server.subscribe(Subscription(
        name="S", frequency="every day at 6:00pm",
        polling_query="select guide.restaurant",
        filter_query="select S.restaurant<cre at T> where T > t[-1]"),
        "guide")
    server.run_until("21Dec96")
    doem = server.doems.doem("S")
    unbounded = run_days(20).doem("S")
    assert_artifact(
        f"qss_compact_keep{keep}",
        f"keep={keep} polls: annotations={doem.annotation_count()} "
        f"nodes={len(doem.graph)}\n"
        f"unbounded 20 days:  annotations={unbounded.annotation_count()} "
        f"nodes={len(unbounded.graph)}")
