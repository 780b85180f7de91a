"""Property tests: the durable log is semantically invisible.

Satellite #4: quantifying over randomized worlds (seeded generators, so
hypothesis gets shrinkable handles on "which world" failed),

* write -> checkpoint -> compact -> reopen preserves every ``Ot(D)``;
* store-backed DOEM == in-memory DOEM on all four query engines;
* compaction never drops a timestamp reachable from a checkpoint chain.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro import (
    ChorelEngine,
    IndexedChorelEngine,
    LorelEngine,
    TranslatingChorelEngine,
    build_doem,
    parse_timestamp,
    random_database,
    random_history,
)
from repro.store import CheckpointPolicy, HistoryLog

seeds = st.integers(min_value=0, max_value=10_000)
sizes = st.integers(min_value=2, max_value=25)
steps = st.integers(min_value=1, max_value=6)
budgets = st.integers(min_value=0, max_value=16)

relaxed = settings(max_examples=25, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


def make_world(seed: int, nodes: int, n_steps: int):
    db = random_database(seed=seed, nodes=nodes)
    history = random_history(db, seed=seed, steps=n_steps, set_size=5)
    return db, history


def probe_times(history):
    times = history.timestamps()
    probes = list(times)
    probes.append(times[0].plus(days=-1))
    probes.append(times[-1].plus(days=1))
    for left, right in zip(times, times[1:]):
        probes.append(parse_timestamp((left.ticks + right.ticks) // 2))
    return probes


def policy_for(budget: int) -> CheckpointPolicy:
    if budget == 0:
        return CheckpointPolicy.disabled()
    return CheckpointPolicy(replay_budget=budget, size_weight=0.0,
                            min_sets=1)


class TestDurableOt:
    @relaxed
    @given(seed=seeds, nodes=sizes, n_steps=steps, budget=budgets)
    def test_lifecycle_preserves_every_ot(self, tmp_path_factory, seed,
                                          nodes, n_steps, budget):
        """write -> checkpoint -> compact -> reopen: Ot(D) never moves."""
        db, history = make_world(seed, nodes, n_steps)
        directory = tmp_path_factory.mktemp("log") / "h"
        probes = probe_times(history)
        expected = {when: history.snapshot_at(db, when) for when in probes}

        log = HistoryLog(directory, origin=db, policy=policy_for(budget))
        log.extend(history)
        for when, snapshot in expected.items():
            assert log.snapshot_at(when).same_as(snapshot), when
        log.write_checkpoint()
        log.compact()
        for when, snapshot in expected.items():
            assert log.snapshot_at(when).same_as(snapshot), when
        log.close()

        reopened = HistoryLog(directory, "ro")
        for when, snapshot in expected.items():
            assert reopened.snapshot_at(when).same_as(snapshot), when
        reopened.close()

    @relaxed
    @given(seed=seeds, nodes=sizes, n_steps=steps)
    def test_compaction_keeps_checkpoint_reachable_times(
            self, tmp_path_factory, seed, nodes, n_steps):
        """No timestamp reachable from a checkpoint chain is dropped."""
        db, history = make_world(seed, nodes, n_steps)
        directory = tmp_path_factory.mktemp("log") / "h"
        log = HistoryLog(directory, origin=db, policy=policy_for(3))
        log.extend(history)
        before = set(log.timestamps())
        reachable = {ref.at for ref in log.checkpoints()}
        log.compact()  # horizonless: everything stays reachable
        assert set(log.timestamps()) == before
        assert reachable <= {ref.at for ref in log.checkpoints()} | before

        if len(history) >= 2:
            horizon = history.timestamps()[len(history) // 2]
            log.compact(before=horizon)
            # Times after the horizon survive; checkpoints at or after
            # the new base are still indexed and still load.
            assert set(log.timestamps()) == \
                {when for when in before if when > horizon}
            for ref in log.checkpoints():
                assert ref.at >= horizon
                assert log.snapshot_at(ref.at).same_as(
                    history.snapshot_at(db, ref.at))
        log.close()


class TestEngineEquivalence:
    @relaxed
    @given(seed=seeds, nodes=st.integers(min_value=5, max_value=20),
           n_steps=st.integers(min_value=2, max_value=5))
    def test_store_backed_doem_matches_in_memory_on_all_engines(
            self, tmp_path_factory, seed, nodes, n_steps):
        db, history = make_world(seed, nodes, n_steps)
        directory = tmp_path_factory.mktemp("log") / "h"
        with HistoryLog(directory, origin=db) as log:
            log.extend(history)
            durable = log.get_doem()
        memory = build_doem(db, history)
        assert durable.same_as(memory)

        times = history.timestamps()
        mid = times[len(times) // 2]
        queries = [
            "select root.item",
            "select root.<add at T>item where T > " + str(times[0]),
            f"select root.<rem at T>item where T <= {times[-1]}",
            f"select root.item.name<cre at T> where T > {mid}",
        ]
        lorel = ("select root.item",)
        for query in queries:
            naive = sorted(map(str, ChorelEngine(memory, name="root")
                               .run(query)))
            for engine_cls in (ChorelEngine, TranslatingChorelEngine,
                               IndexedChorelEngine):
                stored = sorted(map(str, engine_cls(durable, name="root")
                                    .run(query)))
                assert stored == naive, (engine_cls.__name__, query)
        for query in lorel:
            naive = sorted(map(str, LorelEngine(memory.graph, name="root")
                               .run(query)))
            stored = sorted(map(str, LorelEngine(durable.graph, name="root")
                                .run(query)))
            assert stored == naive, query
