"""A log checks each change set once, on its tip, and only records it
into its DOEM.

``HistoryLog.get_doem`` hands out the DOEM the log folded as it opened
and as it was appended to (``record_change_set``: the set's operations
and the nodes the tip deleted, with no second check and no reachability
walk).  That DOEM must be ``build_doem(origin, history)`` -- the
validating fold -- in graph, annotations, dead set and newest time,
after appends, after rw and ro opens, a compacted origin and a torn
tail; the one check the tip cannot make (``creNode`` of a dead
identifier) still refuses; a set that does not apply is still
corruption at open; and a DOEM changed behind the log's back is rebuilt,
never recorded into.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro import build_doem, current_snapshot
from repro.doem import build
from repro.doem.build import apply_change_set
from repro.errors import InvalidChangeError, StoreCorruptionError
from repro.oem.changes import AddArc, CreNode, RemArc, UpdNode
from repro.oem.history import ChangeSet, OEMHistory
from repro.oem.model import OEMDatabase
from repro.qss.managers import DOEMManager
from repro.sources.generators import demo_world, random_change_set, \
    random_database
from repro.store import ChangeLogStore, CheckpointPolicy, HistoryLog
from repro.store.records import encode_change_set
from repro.store.segment import SegmentWriter
from repro.timestamps import parse_timestamp
from tests.doem import oracle_build as oracle

POLICY = CheckpointPolicy(replay_budget=6, size_weight=0.0, min_sets=1)


def assert_built(doem, origin, history) -> None:
    """``doem`` is ``build_doem(origin, history)``, liveness kept."""
    reference = build_doem(origin, history)
    assert doem.same_as(reference)
    assert doem._dead_nodes == reference._dead_nodes \
        == oracle.dead_nodes(doem)
    assert doem.last_timestamp() == reference.last_timestamp()
    if len(history):  # kept for the next set, and nothing left suspect
        assert doem._dead_as_of == doem.fingerprint()
        assert doem.graph._suspects == set()


@st.composite
def worlds(draw):
    """An origin and a history whose sets are random, remove arcs, or
    re-add arcs an earlier set removed."""
    seed = draw(st.integers(0, 10 ** 6))
    rng = random.Random(seed)
    origin = random_database(seed=seed, nodes=draw(st.sampled_from([6, 20])),
                             extra_arc_ratio=0.5)
    steps = draw(st.lists(st.sampled_from(["random", "remove", "readd"]),
                          min_size=1, max_size=9))
    current, reserved, removed = origin.copy(), set(origin.nodes()), []
    history, when = OEMHistory(), parse_timestamp("1Jan97")
    for index, step in enumerate(steps):
        if step == "random":
            change_set = random_change_set(
                current, seed=rng.randrange(1 << 30), size=6,
                id_prefix=f"g{index}_", reserved_ids=reserved)
        elif step == "remove":
            arcs = sorted(current.arcs())
            chosen = rng.sample(arcs, min(2, len(arcs)))
            removed.extend(chosen)
            change_set = ChangeSet(RemArc(*arc) for arc in chosen)
        else:
            back = {arc for arc in removed
                    if arc.source in current and arc.target in current
                    and current.is_complex(arc.source)
                    and not current.has_arc(*arc)}
            change_set = ChangeSet(AddArc(*arc) for arc in sorted(back))
        if change_set:
            history.append(when, change_set)
            change_set.apply_to(current)
            reserved |= change_set.created_nodes()
            when = when.plus(days=1)
    return origin, history


@settings(max_examples=40, deadline=None)
@given(world=worlds(), mode=st.sampled_from(["rw", "ro"]))
def test_appends_and_opens_fold_what_build_doem_folds(world, mode,
                                                       tmp_path_factory):
    origin, history = world
    directory = tmp_path_factory.mktemp("log") / "h"
    with HistoryLog(directory, origin=origin, policy=POLICY) as log:
        log.extend(history)
        assert_built(log.get_doem(), origin, history)
    with HistoryLog(directory, mode) as reopened:
        assert_built(reopened.get_doem(), origin, history)
        assert reopened.tip_view().same_as(
            current_snapshot(reopened.get_doem()))
        dead = sorted(reopened.get_doem()._dead_nodes)
        if mode == "rw" and dead:
            # The tip no longer holds it; the DOEM refuses to mint it again.
            again = ChangeSet([CreNode(dead[0], 1),
                               AddArc(origin.root, "again", dead[0])])
            size = reopened.segments()[-1].stat().st_size
            with pytest.raises(InvalidChangeError, match="already used"):
                reopened.append("1Jan99", again)
            assert len(reopened) == len(history)
            assert reopened.segments()[-1].stat().st_size == size
            assert_built(reopened.get_doem(), origin, history)


@settings(max_examples=15, deadline=None)
@given(world=worlds())
def test_a_compacted_origin_and_a_torn_tail(world, tmp_path_factory):
    origin, history = world
    if len(history) < 3:
        return
    directory = tmp_path_factory.mktemp("log") / "h"
    times = history.timestamps()
    with HistoryLog(directory, origin=origin, policy=POLICY) as log:
        log.extend(history)
        log.compact(before=times[1])
        new_origin, kept = log.origin(), log.history()
        assert len(kept) == len(history) - 2
        assert_built(log.get_doem(), new_origin, kept)
    for mode in ("ro", "rw"):
        with HistoryLog(directory, mode) as reopened:
            assert_built(reopened.get_doem(), new_origin, kept)
    newest = max(directory.glob("seg-*"))
    newest.write_bytes(newest.read_bytes()[:-3])
    short = kept.prefix(times[-2])
    for mode in ("ro", "rw"):
        with HistoryLog(directory, mode) as reopened:
            assert len(reopened) == len(short)
            assert_built(reopened.get_doem(), new_origin, short)


# -- counted: one check per set -----------------------------------------------

def count_checks(monkeypatch) -> Counter:
    """Counts ``ChangeSet.apply_to`` calls; ``DOEMApplier._apply_op``
    raises (the validating fold must not run)."""
    calls = Counter()
    real = ChangeSet.apply_to

    def apply_to(self, db, *args, **kwargs):
        calls["apply_to"] += 1
        return real(self, db, *args, **kwargs)

    def forbidden(self, op, when):
        raise AssertionError("DOEMApplier._apply_op ran")

    monkeypatch.setattr(ChangeSet, "apply_to", apply_to)
    monkeypatch.setattr(build.DOEMApplier, "_apply_op", forbidden)
    return calls


@pytest.fixture
def counted(monkeypatch):
    return count_checks(monkeypatch)


def test_a_restart_checks_each_entry_once(tmp_path, monkeypatch):
    db, history = demo_world(days=12)
    with ChangeLogStore(tmp_path / "st") as store:
        store.put_history("demo", db, history)
    calls = count_checks(monkeypatch)
    with ChangeLogStore(tmp_path / "st") as store:
        doem = DOEMManager(store=store).doem("demo")
        assert calls["apply_to"] == len(history)
        assert doem is store.log("demo").get_doem()
        assert calls["apply_to"] == len(history)
    monkeypatch.undo()
    assert_built(doem, db, history)


def test_a_store_backed_poll_checks_its_set_once(tmp_path, counted):
    def answer(names):
        result = OEMDatabase(root="answer")
        for name in names:
            result.create_node(name, name.upper())
            result.add_arc("answer", "item", name)
        return result

    with ChangeLogStore(tmp_path / "st") as store:
        manager = DOEMManager(store=store, differ="ids")
        for day, names in enumerate((["a"], ["a", "b"], ["b"], ["b", "c"]),
                                    start=1):
            before = counted["apply_to"]
            assert manager.incorporate("S", f"{day}Jan97", answer(names))
            assert counted["apply_to"] - before == 1, day
        log = store.log("S")
        assert manager.doem("S") is log.get_doem()
        assert len(log) == 4


# -- a frame that passes its CRC and does not apply --------------------------

def forged(tmp_path, change_set, world=None):
    """A log of ``world`` (a demo one by default) whose last frame is
    ``change_set`` at 1Feb97, CRC-valid."""
    db, history = world or demo_world(days=5)
    directory = tmp_path / "h"
    with HistoryLog(directory, origin=db) as log:
        log.extend(history)
        segment = log.segments()[-1]
    writer = SegmentWriter(segment, resume_at=segment.stat().st_size)
    writer.append(encode_change_set(parse_timestamp("1Feb97"), change_set))
    writer.fsync()
    writer.close()
    return directory


@pytest.mark.parametrize("mode", ["rw", "ro"])
def test_a_set_the_tip_refuses_is_corruption(tmp_path, mode):
    directory = forged(tmp_path, ChangeSet([RemArc("root", "no", "pe")]))
    with pytest.raises(StoreCorruptionError, match="does not apply"):
        HistoryLog(directory, mode)


@pytest.mark.parametrize("mode", ["rw", "ro"])
def test_a_dead_identifier_made_again_is_corruption(tmp_path, mode):
    db = OEMDatabase(root="r")
    db.create_node("a", 1)
    db.add_arc("r", "k", "a")
    history = OEMHistory([("1Jan97", [RemArc("r", "k", "a")])])
    directory = forged(tmp_path, ChangeSet([
        CreNode("a", 2), AddArc("r", "k", "a")]), (db, history))
    with pytest.raises(StoreCorruptionError, match="already used"):
        HistoryLog(directory, mode)


# -- behind the log's back ----------------------------------------------------

def test_a_doem_changed_behind_the_log_is_rebuilt(tmp_path):
    db, history = demo_world(days=8)
    entries = history.entries()
    with HistoryLog(tmp_path / "h", origin=db) as log:
        log.extend(OEMHistory(entries[:-1]))
        doem = log.get_doem()
        when, change_set = entries[-1]
        apply_change_set(doem, when, change_set)  # not through the log
        log.append(when, change_set)
        rebuilt = log.get_doem()
        assert rebuilt is not doem
        assert_built(rebuilt, db, history)
        rebuilt.touch()
        assert log.get_doem() is not rebuilt
        assert_built(log.get_doem(), db, history)
        untouched = log.get_doem()
        log.append("1Feb97", ChangeSet([UpdNode(
            next(node for node in log.tip_view().nodes()
                 if not log.tip_view().is_complex(node)), 7)]))
        assert log.get_doem() is untouched  # recorded into, not rebuilt
        assert_built(untouched, db, log.history())
