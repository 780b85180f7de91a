"""Experiment fig7 -- Figure 7: the full QSS architecture, end to end.

One server, multiple clients, multiple subscriptions over two different
autonomous sources (the guide and the library), with DOEM state persisted
through the change-log store (the "DOEM Store" and "Subscription Store"
boxes of Figure 7).  Measures a week of simulated operation across the
whole system.
"""

from repro import (
    LibrarySource,
    QSC,
    QSSServer,
    RestaurantGuideSource,
    Wrapper,
)
from repro.store import ChangeLogStore, close_store, sanitize_name


def build_system(store=None):
    server = QSSServer(start="1Dec96", deliver_empty=False, store=store)
    server.register_wrapper(
        "guide", Wrapper(RestaurantGuideSource(seed=7, events_per_day=3.0),
                         name="guide"))
    server.register_wrapper(
        "library", Wrapper(LibrarySource(seed=7, events_per_day=6.0),
                           name="library"))

    alice = QSC(server, user="alice")
    alice.subscribe(
        name="NewPlaces", frequency="every day at 11:30pm",
        polling_query="define polling query NewPlaces as "
                      "select guide.restaurant",
        filter_query="define filter query New as "
                     "select NewPlaces.restaurant<cre at T> where T > t[-1]",
        wrapper="guide")
    alice.subscribe(
        name="PriceWatch", frequency="every day at 8:00am",
        polling_query="select guide.restaurant",
        filter_query="select OV, NV from "
                     "PriceWatch.restaurant.price<upd at T from OV to NV> "
                     "where T > t[-1]",
        wrapper="guide")

    bob = QSC(server, user="bob")
    bob.subscribe(
        name="Returns", frequency="every day at 7:00am",
        polling_query="select library.book",
        filter_query="select B from Returns.book B, "
                     'B.status<upd at T from OV to NV> '
                     'where T > t[-1] and NV = "in"',
        wrapper="library")
    return server, alice, bob


def run_week(store=None):
    server, alice, bob = build_system(store)
    server.run_until("8Dec96")
    return server, alice, bob


def test_fig7_full_system_week(benchmark, record_artifact):
    server, alice, bob = benchmark(run_week)

    # Every client hears only its own subscriptions.
    assert {n.subscription for n in alice.inbox} <= {"NewPlaces", "PriceWatch"}
    assert {n.subscription for n in bob.inbox} <= {"Returns"}
    assert alice.inbox, "a week of guide churn must notify alice"
    assert bob.inbox, "a week of circulation must notify bob"

    # 21 polls total were executed (3 subscriptions x 7 days).
    polls = sum(state.poll_count
                for state in server.subscriptions.states())
    assert polls == 21

    record_artifact(
        "fig7_architecture",
        f"polls executed: {polls}\n"
        f"alice notifications: {len(alice.inbox)}\n"
        f"bob notifications: {len(bob.inbox)}\n"
        f"DOEM sizes: " + ", ".join(
            f"{state.subscription.name}="
            f"{server.doems.doem(state.subscription.name).annotation_count()}ann"
            for state in server.subscriptions.states()))


def test_fig7_doem_store_persistence(benchmark, tmp_path):
    """The DOEM Store: a store-backed server's week, reloaded from the
    change log alone (every subscription's DOEM, no source polled)."""
    path = tmp_path / "st"
    server, _, _ = run_week(store=path)
    server.close()
    names = [state.subscription.name
             for state in server.subscriptions.states()]

    def reload():
        close_store(path)
        with ChangeLogStore(path, "ro") as store:
            return [store.get_doem(sanitize_name(name)) for name in names]

    restored = benchmark.pedantic(reload, rounds=3, iterations=1)
    for name, doem in zip(names, restored):
        assert doem.same_as(server.doems.doem(name))
    with ChangeLogStore(path, "ro") as store:
        assert sorted(store.subscriptions()) == sorted(names)
