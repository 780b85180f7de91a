"""Cross-time equivalence: the range machinery is trusted *because* this passes.

Two claims over randomized worlds (the same generator the
index-differential harness trusts):

* **Interval composition**: a range query over ``[a..b]`` equals the
  union of the same query over adjacent subintervals ``[a..m]`` and
  ``[m..b]`` -- the diff-composition law that makes incremental
  cross-time materialization sound.
* **Engine agreement**: the planner-served range path (indexed engine,
  serial or sharded through a ``ParallelExecutor``) produces the same
  row set as the naive evaluator pipeline (native engine, planner on or
  off); the translate backend refuses the shapes cleanly rather than
  mistranslating them.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    ChorelEngine,
    IndexedChorelEngine,
    ParallelExecutor,
    TranslatingChorelEngine,
    TranslationError,
    build_doem,
)
from repro.sources.generators import LABELS
from tests.test_differential_index import make_world

RELAXED = settings(max_examples=15, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])

# Range templates over the generator's vocabulary; {a}/{m}/{b} are drawn
# from each world's own history timestamps.
RANGE_TEMPLATES = [
    "select X, T from root.<changed at T in [{a}..{b}]>{label} X",
    "select N, T from root.{label}.name<changed at T in [{a}..{b}]> N",
    "select T from root.item.price<upd at T in [{a}..{b}]>",
    "select R, T from root.<add at T in [{a}..{b}]>{label} R",
]

# Shapes whose result is *not* a pure per-event range filter (version
# anchoring, latest-per-subject) -- they get the engine equivalences
# but not the composition law.
EXTRA_TEMPLATES = [
    "select X from root.{label}.name <at [{a}..{b}]> X",
    "select X, T from root.{label}.name <last-change at T> X",
    "select X, T from root.<last-change at T>{label} X",
    "select X, T from root.{label}.name<last-change at T in [{a}..{b}]> X",
    "select T from root.item.price<changed since {m} at T>",
]


def interval_queries(history, *, templates=RANGE_TEMPLATES):
    times = history.timestamps()
    if len(times) < 2:
        return []
    a, m, b = times[0], times[len(times) // 2], times[-1]
    rng = random.Random(hash((str(a), len(times))))
    label = rng.choice(LABELS)
    return [(template, template.format(a=a, m=m, b=b, label=label),
             template.format(a=a, m=m, b=a if m == a else m, label=label),
             template.format(a=m, m=m, b=b, label=label))
            for template in templates]


def texts(result) -> list[str]:
    return [str(row) for row in result.rows]


def rows(result) -> list[str]:
    return sorted(texts(result))


class TestIntervalComposition:
    """query([a..b]) == query([a..m]) | query([m..b]), adjacent and closed."""

    @given(seed=st.integers(min_value=0, max_value=99))
    @RELAXED
    def test_adjacent_intervals_compose(self, seed):
        _, history, doem = make_world(seed)
        cases = interval_queries(history)
        assert cases, "every generated world must produce a history"
        for engine_cls in (ChorelEngine, IndexedChorelEngine):
            engine = engine_cls(doem, name="root")
            for template, whole, left, right in cases:
                union = set(texts(engine.run(left))) \
                    | set(texts(engine.run(right)))
                assert union == set(texts(engine.run(whole))), \
                    (engine_cls.__name__, template)


class TestEngineAgreement:
    """Planner-served range results match the naive evaluator pipeline."""

    @given(seed=st.integers(min_value=0, max_value=99))
    @RELAXED
    def test_indexed_matches_naive_serial(self, seed):
        _, history, doem = make_world(seed)
        naive = ChorelEngine(doem, name="root")
        legacy = ChorelEngine(doem, name="root", use_planner=False)
        indexed = IndexedChorelEngine(doem, name="root")
        served_range = False
        for _t, whole, left, right in interval_queries(
                history, templates=RANGE_TEMPLATES + EXTRA_TEMPLATES):
            for query in (whole, left, right):
                expected = rows(legacy.run(query))
                assert rows(naive.run(query)) == expected, query
                assert rows(indexed.run(query)) == expected, query
            served_range = served_range or indexed.last_range_plan is not None
        assert served_range, "the range fast path must actually run"

    @given(seed=st.integers(min_value=0, max_value=99),
           workers=st.integers(min_value=2, max_value=4))
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_sharded_matches_serial(self, seed, workers):
        _, history, doem = make_world(seed)
        queries = [whole for _t, whole, _l, _r in interval_queries(
            history, templates=RANGE_TEMPLATES + EXTRA_TEMPLATES)]
        for engine_cls in (ChorelEngine, IndexedChorelEngine):
            engine = engine_cls(doem, name="root")
            serial = engine_cls(doem, name="root")
            with ParallelExecutor(engine, max_workers=workers) as executor:
                for query in queries:
                    assert texts(executor.run(query)) == \
                        texts(serial.run(query)), \
                        (engine_cls.__name__, query)

    @pytest.mark.parametrize("query", [
        "select T from root.item.price<changed at T in [1Jan97..5Jan97]>",
        "select X, T from root.item <last-change at T> X",
        "select X from root.item.name <at [1Jan97..5Jan97]> X",
    ])
    def test_translate_backend_refuses_cleanly(self, query):
        _, _, doem = make_world(0)
        engine = TranslatingChorelEngine(doem, name="root")
        with pytest.raises(TranslationError):
            engine.run(query)
