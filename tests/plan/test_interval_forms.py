"""One index plan: every spelling of "events of kind K with T in [a, b]".

``<K at T> ... where T >= a and T <= b`` and ``<K at T in [a..b]>`` are
the same question, and a pinned ``<K at t>`` is its ``[t, t]`` case.
Since index selection is one pass they must compile to the *same*
:class:`~repro.plan.stats.RangePlan` -- compared through ``describe()``
-- and return the same rows, for every real kind (``add``/``rem`` in arc
position, ``cre``/``upd`` in node position), one- and two-sided bounds,
literal and ``t[i]`` bounds; the pinned comparison also covers
``<changed>`` in both positions.

Row order: the planner without an index replays the legacy evaluator's
enumeration exactly, so there the comparison is order-exact.  The index
kernel emits ``(time, kind, subject)`` order instead of data order (as
every index suite accepts), so its rows compare sorted against the
oracle and order-exact between the spellings.
"""

from __future__ import annotations

from functools import lru_cache

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ChorelEngine, IndexedChorelEngine
from repro.sources import large_world

RELAXED = settings(max_examples=40, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])

# {ann} is the annotation's tail (" at T", " at T in [a..b]", " at t");
# {where} the where clause, or empty.  Every path carries events of its
# kind on most days of a ``large_world`` history.
REAL_KINDS = (
    "select X{sel} from root.<add{ann}>item X{where}",
    "select X{sel} from root.item.<add{ann}>link X{where}",
    "select X{sel} from root.item.<rem{ann}>link X{where}",
    "select N{sel} from root.item<cre{ann}> N{where}",
    "select N{sel} from root.item.price<cre{ann}> N{where}",
    "select P{sel} from root.item.price<upd{ann}> P{where}",
)
CHANGED = (
    "select P{sel} from root.item.price<changed{ann}> P{where}",
    "select X{sel} from root.item.<changed{ann}>link X{where}",
)


@lru_cache(maxsize=None)
def world(seed: int):
    """``(history times, (oracle, planner, indexed planner))``."""
    _, history, doem = large_world(seed=seed, items=30, extra_links=10,
                                   steps=5, churn=12)
    return history.timestamps(), (
        ChorelEngine(doem, name="root", use_planner=False),
        ChorelEngine(doem, name="root"),
        IndexedChorelEngine(doem, name="root"))


def texts(result) -> list[str]:
    return [str(row) for row in result]


def check_spellings(engines, spellings, polling=None):
    """All spellings: one plan, the oracle's rows."""
    legacy, native, indexed = engines
    for engine in engines:
        engine.set_polling_times(polling or {})
    expected = texts(legacy.run(spellings[0]))
    plans, served = set(), []
    for query in spellings:
        assert texts(legacy.run(query)) == expected, query
        assert texts(native.run(query)) == expected, query
        plan = indexed.compile(query).index_plan
        assert plan is not None, query
        plans.add(plan.describe())
        served.append(texts(indexed.run(query)))
        assert sorted(served[-1]) == sorted(expected), query
    assert len(plans) == 1, plans
    assert all(rows == served[0] for rows in served), spellings


@given(seed=st.integers(min_value=0, max_value=5),
       template=st.sampled_from(REAL_KINDS),
       sides=st.sampled_from(["both", "low", "high"]),
       spread=st.tuples(st.integers(0, 4), st.integers(0, 4)),
       polled=st.tuples(st.booleans(), st.booleans()))
@RELAXED
def test_where_interval_and_in_range_are_one_plan(seed, template, sides,
                                                  spread, polled):
    times, engines = world(seed)
    low, high = sorted(times[i % len(times)] for i in spread)
    # A bound is spelled as a literal or as a polling-time variable.
    polling = {-1: low, 0: high}
    low_text = "t[-1]" if polled[0] else str(low)
    high_text = "t[0]" if polled[1] else str(high)
    if sides == "low":
        where, rng = f"T >= {low_text}", f"[{low_text}..]"
    elif sides == "high":
        where, rng = f"T <= {high_text}", f"[..{high_text}]"
    else:
        where = f"T >= {low_text} and T <= {high_text}"
        rng = f"[{low_text}..{high_text}]"
    check_spellings(engines, [
        template.format(sel=", T", ann=" at T", where=f" where {where}"),
        template.format(sel=", T", ann=f" at T in {rng}", where=""),
    ], polling)


@given(seed=st.integers(min_value=0, max_value=5),
       template=st.sampled_from(REAL_KINDS + CHANGED),
       probe=st.integers(0, 4))
@RELAXED
def test_pinned_time_is_the_degenerate_range(seed, template, probe):
    times, engines = world(seed)
    when = times[probe % len(times)]
    check_spellings(engines, [
        template.format(sel="", ann=f" at {when}", where=""),
        template.format(sel="", ann=" at T", where=f" where T = {when}"),
        template.format(sel="", ann=f" at T in [{when}..{when}]", where=""),
    ])
