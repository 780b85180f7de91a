"""The filter query reads the tick, not the history.

``DOEMManager.filter_engine`` keeps one ``IndexedChorelEngine`` per DOEM
key, so the usual ``T > t[-1]`` filter is a timestamp-index range scan
over what the last poll folded in.  The naive engine with the planner
off is the oracle: at every poll of an evolving guide its rows equal the
served rows as multisets, for every annotation kind, for a filter the
index cannot serve, and for subscriptions sharing one DOEM.
"""

from __future__ import annotations

import pytest

from repro import (
    ChorelEngine,
    QSSServer,
    RestaurantGuideSource,
    Subscription,
    Wrapper,
    parse_timestamp,
)
from repro.qss.subscription import polling_time_mapping

FILTERS = {
    "cre": "select R from G.<add at T>restaurant R where T > t[-1]",
    "rem": "select R, T from G.<rem at T>restaurant R where T > t[-1]",
    "node-cre": "select G.restaurant<cre at T> where T > t[-1]",
    "upd": "select OV, NV from G.restaurant.price<upd at T from OV to NV> "
           "where T > t[-1]",
    "comment": "select C from G.restaurant.<add at T>comment C "
               "where T > t[-1]",
    "window": "select T from G.restaurant.price<upd at T> "
              "where T > t[-2] and T <= t[0]",
    # Not index-served: a where clause over the data, not only over T.
    "fallback": "select R from G.restaurant R, R.price<upd at T> P "
                "where T > t[-1] and P > 10",
}
SERVED = set(FILTERS) - {"fallback"}


def rows(result) -> list[str]:
    return sorted(map(str, result))


def run_server(seed: int, filters: dict[str, str], *, share: bool = False,
               days: int = 12):
    """Poll an evolving guide daily; check every poll against the oracle.

    Returns ``(server, checked, notifications)``: ``checked`` counts the
    polls whose served rows were compared with the naive engine's, and
    ``notifications`` is what ``run_until`` delivered.
    """
    server = QSSServer(start="30Nov96", deliver_empty=True,
                       share_by_polling_query=share)
    server.register_wrapper("guide", Wrapper(
        RestaurantGuideSource(seed=seed, events_per_day=4.0), name="guide"))
    checked = []

    def oracle(notification):
        name = notification.subscription
        state = server.subscriptions.get(name)
        naive = ChorelEngine(server.doems.doem(name), name="G",
                             use_planner=False)
        naive.set_polling_times(polling_time_mapping(state.polling_times))
        expected = rows(naive.run(state.subscription.filter_query))
        assert rows(notification.result) == expected, \
            (seed, name, str(notification.polling_time))
        checked.append(name)

    for name, text in filters.items():
        server.subscribe(Subscription(
            name=name, frequency="every day at 6:00am",
            polling_query="select guide.restaurant", filter_query=text,
            polling_name="G"), "guide", deliver=oracle)
    notifications = server.run_until(f"{days}Dec96")
    return server, checked, notifications


@pytest.mark.parametrize("seed", [1, 7, 1997])
def test_served_rows_equal_the_naive_engine(seed):
    server, checked, notifications = run_server(seed, FILTERS)
    assert len(checked) == 12 * len(FILTERS)
    assert any(notification.result for notification in notifications)
    for name in FILTERS:
        engine = server.doems.filter_engine(server.subscriptions.get(name))
        served = engine.stats.indexed_queries
        if name in SERVED:
            assert (served, engine.stats.fallback_queries) == (12, 0), name
        else:
            assert served == 0, name


def test_shared_doem_shares_one_engine():
    server, checked, _ = run_server(7, FILTERS, share=True)
    assert len(checked) == 12 * len(FILTERS)
    states = server.subscriptions.states()
    engines = {id(server.doems.filter_engine(state)) for state in states}
    assert len(engines) == 1


def test_one_engine_per_doem_across_polls():
    server, _, _ = run_server(1, {"upd": FILTERS["upd"]}, days=3)
    state = server.subscriptions.get("upd")
    engine = server.doems.filter_engine(state)
    server.run_until("6Dec96")
    assert server.doems.filter_engine(state) is engine
    assert engine.stats.indexed_queries == 6


def test_unsubscribe_and_compaction_replace_the_engine():
    server = QSSServer(start="30Nov96", deliver_empty=True,
                       compact_keep_polls=2)
    server.register_wrapper("guide", Wrapper(
        RestaurantGuideSource(seed=3, events_per_day=4.0), name="guide"))
    subscription = Subscription(
        name="upd", frequency="every day at 6:00am",
        polling_query="select guide.restaurant",
        filter_query=FILTERS["upd"], polling_name="G")
    state = server.subscribe(subscription, "guide")
    server.run_until("2Dec96")
    engine = server.doems.filter_engine(state)
    server.run_until("5Dec96")  # compacts after each poll from the third
    replaced = server.doems.filter_engine(state)
    assert replaced is not engine
    assert replaced.doem is server.doems.doem("upd")
    server.unsubscribe("upd")
    state = server.subscribe(subscription, "guide")
    assert server.doems.filter_engine(state) is not replaced


def test_filter_reads_the_tick_not_the_history():
    """Index entries read per poll stay the tick's, however long the
    history grows; the naive scan's visits grow with it."""
    server = QSSServer(start="30Nov96", deliver_empty=True)
    server.register_wrapper("guide", Wrapper(
        RestaurantGuideSource(seed=11, initial_restaurants=30,
                              events_per_day=6.0), name="guide"))
    state = server.subscribe(Subscription(
        name="upd", frequency="every day at 6:00am",
        polling_query="select guide.restaurant",
        filter_query=FILTERS["upd"], polling_name="G"), "guide")
    doem = server.doems.doem("upd")
    per_poll = []
    start = parse_timestamp("30Nov96")
    for day in range(1, 41):
        engine = server.doems.filter_engine(state)
        before = (engine.annotation_visits, doem.annotation_count())
        server.run_until(start.plus(days=day))
        per_poll.append((engine.annotation_visits - before[0],
                         doem.annotation_count() - before[1]))
    # Each poll reads at most the annotations it folded in ...
    assert all(read <= added for read, added in per_poll)
    assert engine.view.annotation_visits == 0
    # ... while the oracle visits the whole history.
    naive = ChorelEngine(doem, name="G")
    naive.set_polling_times(polling_time_mapping(state.polling_times))
    naive.run(state.subscription.filter_query)
    assert naive.annotation_visits > 3 * max(read for read, _ in per_poll)
