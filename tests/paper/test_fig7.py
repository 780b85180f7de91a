"""Figure 7: the QSS architecture, end to end.

One server, two clients and three subscriptions over two autonomous
sources (the restaurant guide and the library) run a simulated week.
The golden pins the polls executed, each client's notifications and the
annotations each subscription's DOEM database gathered.
"""

from repro import QSC, LibrarySource, QSSServer, RestaurantGuideSource, Wrapper
from tests.paper import assert_artifact

EXP_IDS = ("fig7_architecture",)


def test_fig7_architecture():
    server = QSSServer(start="1Dec96", deliver_empty=False)
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
    server.run_until("8Dec96")

    states = server.subscriptions.states()
    assert_artifact(
        "fig7_architecture",
        f"polls executed: {sum(state.poll_count for state in states)}\n"
        f"alice notifications: {len(alice.inbox)}\n"
        f"bob notifications: {len(bob.inbox)}\n"
        f"DOEM sizes: " + ", ".join(
            f"{state.subscription.name}="
            f"{server.doems.doem(state.subscription.name).annotation_count()}ann"
            for state in states))
