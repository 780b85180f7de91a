"""The server keeps nothing that grows with polls.

QSS is an always-on service (Section 6, Figure 7): a notification is
handed to the subscriber's callback and returned from ``run_until``, and
once the caller drops it nothing in the server may keep it alive.  The
guard holds only a ``weakref`` to each delivered notification; after a
collection every one of them must be dead.
"""

from __future__ import annotations

import gc
import weakref

from repro import QSSServer, RestaurantGuideSource, Subscription, Wrapper

POLLS = 20


def test_delivered_notifications_are_not_retained():
    server = QSSServer(start="30Nov96", deliver_empty=True)
    server.register_wrapper("guide", Wrapper(
        RestaurantGuideSource(seed=3, events_per_day=4.0), name="guide"))
    refs = []
    server.subscribe(Subscription(
        name="changes", frequency="every day at 6:00am",
        polling_query="select guide.restaurant",
        filter_query="select G.restaurant<cre at T> where T > t[-1]",
        polling_name="G"), "guide",
        deliver=lambda notification: refs.append(weakref.ref(notification)))
    server.run_until(f"{POLLS}Dec96")
    gc.collect()
    assert len(refs) == POLLS
    assert [ref for ref in refs if ref() is not None] == []
