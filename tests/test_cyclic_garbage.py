"""Polling leaves no cyclic garbage: counted with the collector, no clock.

Garbage in a reference cycle outlives its poll until a collection of its
generation finds it, and a poll's leftovers hold what they reference --
a differ's closure held the previous snapshot's adjacency map -- until a
full pass.  After a warm-up, the polls of an evolving guide that scrambles
its identifiers (the differ's matching path) and fan-out polling queries
run under ``gc.DEBUG_SAVEALL``; nothing the collector then finds may have
been allocated by code in ``src/repro``.
"""

from __future__ import annotations

import gc
import tracemalloc
from pathlib import Path

import repro
from repro import LorelEngine, QSSServer, Subscription, Wrapper
from repro.sources.generators import _WORDS, large_database
from repro.sources.restaurant_guide import RestaurantGuideSource
from repro.timestamps import parse_timestamp

SOURCE = str(Path(repro.__file__).resolve().parent)
ROUNDS = 6


def cyclic_garbage_from_repro(work) -> list:
    """What the collector frees after ``ROUNDS`` calls of ``work`` (one
    more before, to warm up) that was allocated in ``src/repro``."""
    work()
    gc.collect()
    tracemalloc.start(1)
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(ROUNDS):
            work()
        gc.collect()
        found = []
        for obj in gc.garbage:
            where = tracemalloc.get_object_traceback(obj)
            if where is not None and where[0].filename.startswith(SOURCE):
                found.append(f"{type(obj).__name__} from {where[0]}")
        return found
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        tracemalloc.stop()


def test_polls_of_a_scrambled_guide_leave_no_cycles():
    server = QSSServer(start="30Nov96")
    server.register_wrapper("guide", Wrapper(
        RestaurantGuideSource(seed=7, events_per_day=4.0), name="guide"))
    server.subscribe(Subscription(
        name="g", frequency="every day", polling_query="select guide.restaurant",
        filter_query="select g.<add at T>restaurant where T > t[-1]"),
        "guide", deliver=lambda notification: None)
    day = parse_timestamp("1Dec96")

    def poll():
        nonlocal day
        day = day.plus(days=1)
        server.run_until(day)
    try:
        assert cyclic_garbage_from_repro(poll) == []
        assert not server.error_log
    finally:
        server.close()


def test_fan_out_polling_queries_leave_no_cycles():
    world = large_database(seed=0, items=200, extra_links=40)

    def queries():
        for word in _WORDS[:4]:
            engine = LorelEngine(world.copy(), name="root")
            engine.run(f'select root.item where root.item.name = "{word}"')
    assert cyclic_garbage_from_repro(queries) == []
