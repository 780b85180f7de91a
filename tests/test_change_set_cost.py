"""Applying a change set costs the change set: counted guards, no clock.

On the pipeline benchmark's 5,001-node world: a copy shares every
adjacency container, a write unshares only the nodes it touches, and
neither a collection nor a DOEM fold nor a whole fan-out tick walks the
database once its suspects are known.  The walks themselves are patched
to raise, so a change that brings one back fails here before any
benchmark runs.
"""

from __future__ import annotations

import pytest

from repro import (
    COMPLEX, ChangeSet, OEMDatabase, QSSServer, RemArc, StaticSource,
    Subscription, Wrapper, build_doem)
from repro.doem.build import DOEMApplier, apply_change_set
from repro.oem.history import OEMHistory
from repro.sources.generators import _WORDS, large_database
from repro.store import close_store

from tests.oem.oracle_model import deep_copy, unreachable


@pytest.fixture(scope="module")
def world() -> OEMDatabase:
    db = large_database(seed=0, items=1000, extra_links=200)
    assert len(db) == 5001
    return db


@pytest.fixture
def forbid_full_walks(monkeypatch):
    """Call the result: from then on, walking a whole database raises."""
    def refuse(*args, **kwargs):
        raise AssertionError("a full walk of the database")

    def forbid() -> None:
        monkeypatch.setattr(OEMDatabase, "reachable", refuse)
        monkeypatch.setattr(DOEMApplier, "_mark_dead_nodes", refuse)
    return forbid


def unshared(db: OEMDatabase, other: OEMDatabase) -> set[str]:
    """The nodes whose containers ``db`` does not share with ``other``."""
    return {node for node in db.nodes()
            if db._out[node] is not other._out.get(node)
            or db._in[node] is not other._in.get(node)}


def test_a_copy_shares_every_container(world):
    clone = world.copy()
    assert unshared(clone, world) == set()
    assert clone.same_as(world)


def test_a_write_unshares_the_nodes_it_touches(world):
    before = deep_copy(world)
    containers = {node: (world._out[node], world._in[node])
                  for node in world.nodes()}
    clone = world.copy()
    clone.update_value("i7_pr", -1)
    clone.add_arc("i7", "link", "i8_in")
    assert unshared(clone, world) == {"i7", "i8_in"}
    assert all(world._out[node] is out and world._in[node] is incoming
               for node, (out, incoming) in containers.items())
    assert world.same_as(before)
    assert clone.has_arc("i7", "link", "i8_in") and clone.value("i7_pr") == -1


def test_one_removal_walks_nothing(world, forbid_full_walks):
    # Built node by node, the world is all suspects and its DOEM's
    # liveness unknown: each pays its one walk first.
    world.collect_garbage()
    doem = build_doem(world, OEMHistory())
    apply_change_set(doem, "1Jan97", [])
    snapshot = world.copy()
    twin = deep_copy(world)
    twin.remove_arc("root", "item", "i5")
    doomed = unreachable(twin)
    assert {"i5_nm", "i5_pr", "i5_in", "i5_ia"} <= doomed
    forbid_full_walks()
    removal = ChangeSet([RemArc("root", "item", "i5")])
    assert removal.apply_to(snapshot) == doomed
    assert snapshot.collect_garbage() == set()
    apply_change_set(doem, "2Jan97", removal)
    assert doem._dead_nodes == doomed
    assert "i5" in world


def test_a_fan_out_tick_walks_nothing(world, tmp_path, forbid_full_walks):
    source_db = world.copy()
    server = QSSServer(start="1Jan97", store=tmp_path / "store")
    server.doems.differ = "ids"
    server.register_wrapper(
        "w", Wrapper(StaticSource(source_db, stable_ids=True), name="root"))
    notified: list = []
    for index in range(16):
        name = f"s{index}"
        server.subscribe(Subscription(
            name, "every day",
            f'select root.item where root.item.name = '
            f'"{_WORDS[index % len(_WORDS)]}"',
            f"select {name}.item.price<upd at T> where T > t[-1]"),
            "w", deliver=notified.append)
    try:
        server.run_until("2Jan97")           # R0 is empty: everything is new
        assert server.doems.doem("s0").annotation_count() > 0
        # The world moves on: a price, a new item, a link gone.
        link = next(arc for arc in source_db.arcs() if arc.label == "link")
        source_db.update_value("i1_pr", -5)
        source_db.add_arc("root", "item",
                          source_db.create_node("fresh", COMPLEX))
        source_db.add_arc("fresh", "name", source_db.create_node(
            "fresh_nm", source_db.value("i1_nm")))
        source_db.remove_arc(*link)

        forbid_full_walks()
        server.run_until("3Jan97")
        assert not server.error_log
        assert sum(stats.total for stats
                   in server.doems.last_diff_stats.values()) >= 5
        assert notified
    finally:
        server.close()
        close_store(tmp_path / "store")


def test_a_change_set_is_sorted_once(monkeypatch):
    """``canonical_order`` sorts on the first call only (a log open, the
    record encoder and the DOEM fold each ask) and hands out a fresh list
    every time."""
    from repro import AddArc, CreNode, UpdNode
    from repro.oem import history as history_module

    change_set = ChangeSet([AddArc("r", "k", "b"), UpdNode("a", 2),
                            CreNode("b", 1), RemArc("r", "k", "a")])
    sorts = []
    monkeypatch.setattr(history_module, "sorted",
                        lambda *args, **kwargs: sorts.append(1)
                        or sorted(*args, **kwargs), raising=False)
    first = change_set.canonical_order()
    first.clear()
    again = change_set.canonical_order()
    assert [type(op).__name__ for op in again] == [
        "CreNode", "RemArc", "UpdNode", "AddArc"]
    assert again is not change_set.canonical_order()
    assert len(sorts) == 1
