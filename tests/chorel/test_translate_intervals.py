"""Time-bounded translated queries served from the encoding's time columns.

The ``time-column-selection`` pass replaces the from-chain that ends in a
time atom (``U.&time T``, ``P.&cre T``, ``H.&add T``, ``H.&rem T``) with a
``TimeColumnScan`` that bisects the encoding's column for that label.
Three engines must agree on every shape the pass takes: the translating
engine with the planner (at batch widths 1, 7 and 64), the translating
engine without it, and the native engine.  The pass must stay off every
shape it cannot serve, and a served day of updates must cost path steps
in proportion to its rows, not to the history.
"""

from __future__ import annotations

import pytest

from repro import (
    ChorelEngine,
    LorelEngine,
    TranslatingChorelEngine,
    build_doem,
    encode_doem,
    large_world,
    random_database,
    random_history,
)
from repro.doem.model import Add, Cre, Rem, Upd
from repro.errors import EvaluationError
from repro.lorel.eval import Evaluator
from repro.plan import CompileContext, compile_query, insert_exchange
from repro.timestamps import POS_INF
from tests.chorel.oracle_translate import TranslatingOracle
from tests.conftest import make_guide_db, make_guide_history
from tests.plan.test_batched_equivalence import run_at_width

PASS = "time-column-selection"
SEEDS = (0, 1, 2, 5, 8)
WIDTHS = (1, 7, 64)
OPS = (">", ">=", "<", "<=", "=")

FORMS = {
    Upd: "select P, T from {path}<upd at T> P",
    Cre: "select N, T from {path}<cre at T> N",
    Add: "select X, T from {parent}.<add at T>{label} X",
    Rem: "select X, T from {parent}.<rem at T>{label} X",
}
PINNED = {
    Upd: "select P from {path}<upd at {t}> P",
    Cre: "select N from {path}<cre at {t}> N",
    Add: "select X from {parent}.<add at {t}>{label} X",
    Rem: "select X from {parent}.<rem at {t}>{label} X",
}


def fired(compiled) -> bool:
    return any(report.name == PASS and report.fired
               for report in compiled.passes)


def texts(result) -> list[str]:
    return [str(row) for row in result]


def live_chain(doem, node, depth: int = 3):
    """Labels of a path from the root to ``node`` over arcs live now."""
    graph = doem.graph
    frontier = [((), node)]
    for _ in range(depth):
        if any(source == graph.root for _, source in frontier):
            break
        frontier = [((arc.label,) + chain, arc.source)
                    for chain, child in frontier
                    for arc in sorted(graph.in_arcs(child))
                    if doem.arc_live_at(*arc, POS_INF)]
    chains = sorted(chain for chain, source in frontier
                    if source == graph.root)
    return chains[0] if chains else None


def dotted(chain) -> str:
    return ".".join(("root",) + chain)


def subjects(doem) -> dict:
    """Per annotation kind, the format fields of one annotated subject
    reachable now and the times of its events."""
    found: dict = {}
    for node, annotations in sorted(doem.annotated_nodes()):
        chain = live_chain(doem, node)
        for kind in (Upd, Cre):
            times = [a.at for a in annotations if isinstance(a, kind)]
            if chain and times and kind not in found:
                found[kind] = (dict(path=dotted(chain)), times)
    for arc, annotations in sorted(doem.annotated_arcs()):
        chain = live_chain(doem, arc.source)
        for kind in (Add, Rem):
            times = [a.at for a in annotations if isinstance(a, kind)]
            if chain is not None and times and kind not in found:
                found[kind] = (dict(parent=dotted(chain), label=arc.label),
                               times)
    return found


def world(seed: int):
    db = random_database(seed=seed, nodes=40)
    history = random_history(db, seed=seed, steps=6, set_size=8)
    return history, build_doem(db, history)


def served_queries(history, doem) -> list[str]:
    """Every shape the pass serves, over this world's own events."""
    times = history.timestamps()
    gap = times[0].plus(days=-1)
    queries = []
    for kind, (fields, events) in subjects(doem).items():
        form = FORMS[kind].format(**fields)
        event = events[len(events) // 2]
        for op in OPS:
            queries.append(f"{form} where T {op} {event}")
        queries.append(f"{form} where T > {gap} and T <= {times[-1]}")
        queries.append(f"{form} where T > t[-1] and T <= t[0]")
        queries.append(f"{form} where T >= t[0]")
        queries.append(PINNED[kind].format(t=event, **fields))
    fields, events = subjects(doem).get(Upd, (None, None))
    if fields:
        path = fields["path"]
        queries += [
            # A non-time conjunct beside the interval, &ov/&nv after T.
            f"select P, T, OV, NV from {path}<upd at T from OV to NV> P "
            f"where T >= {events[0]} and NV > 15",
            # A second from-branch after the binder.
            f"select P, T, Y from {path}<upd at T> P, root.item Y "
            f"where T <= {events[-1]}",
        ]
    return queries


def polling(history) -> dict:
    times = history.timestamps()
    return {-1: times[0], 0: times[len(times) // 2]}


@pytest.mark.parametrize("seed", SEEDS)
def test_three_engines_agree_at_every_width(seed):
    history, doem = world(seed)
    assert set(subjects(doem)) == set(FORMS), "every kind must occur"
    queries = served_queries(history, doem)
    planned = TranslatingChorelEngine(doem, name="root")
    legacy = TranslatingOracle(doem, name="root")
    native = ChorelEngine(doem, name="root")
    for engine in (planned, legacy, native):
        engine.set_polling_times(polling(history))
    answered = 0
    for query in queries:
        assert fired(planned.compile(query)), query
        expected = texts(legacy.run(query))
        assert sorted(texts(native.run(query))) == sorted(expected), query
        for width in WIDTHS:
            assert texts(run_at_width(planned, query, width)) == expected, \
                (width, query)
        answered += bool(expected)
    assert answered >= len(queries) // 3


@pytest.fixture(scope="module")
def guide():
    doem = build_doem(make_guide_db(), make_guide_history())
    return doem, TranslatingChorelEngine(doem, name="guide")


@pytest.mark.parametrize("query", [
    # or / not around T never fold.
    "select guide.restaurant.price<upd at T> where T > 1Jan97 or T < 1Jan97",
    "select guide.restaurant.price<upd at T> where not (T <= 1Jan97)",
    # Prefixes other than plain labels.
    "select guide.#.price<upd at T> where T > 1Jan97",
    "select guide.restaurant*.price<upd at T> where T > 1Jan97",
    "select guide.(restaurant|cafe).price<upd at T> where T > 1Jan97",
    # No bound at all, or a bound on another variable.
    "select guide.restaurant.price<upd at T>",
    "select guide.restaurant.price<upd at T from OV to NV> where NV > 15",
    # Plain Lorel through the translating engine.
    "select guide.restaurant.price where guide.restaurant.price > 10",
])
def test_pass_stays_off(guide, query):
    doem, engine = guide
    assert not fired(engine.compile(query)), query
    legacy = TranslatingOracle(doem, name="guide")
    assert texts(engine.run(query)) == texts(legacy.run(query))


def test_unresolvable_polling_time_keeps_raising(guide):
    doem, engine = guide
    query = "select guide.restaurant.price<upd at T> where T > t[3]"
    assert not fired(engine.compile(query))
    legacy = TranslatingOracle(doem, name="guide")
    for candidate in (engine, legacy):
        with pytest.raises(EvaluationError, match=r"t\[3\]"):
            candidate.run(query)


def test_pass_stays_off_with_pre_bindings(guide):
    _, engine = guide
    translation = engine.translate(
        "select guide.restaurant.price<upd at T> where T > 1Jan97")
    evaluator = translation.encoding.evaluator
    columns = translation.encoding.view.time_columns
    for bound in (frozenset(), frozenset({"X"})):
        context = CompileContext(evaluator=evaluator, view=evaluator.view,
                                 time_columns=columns,
                                 allow_index=not bound, bound_names=bound)
        compiled = compile_query(translation.query, evaluator,
                                 context=context)
        assert fired(compiled) is not bound


def test_the_leaf_stays_serial(guide):
    """The sharding rewrite leaves a time-column plan alone."""
    _, engine = guide
    compiled = engine.compile(
        "select guide.restaurant.price<upd at T> where T > 1Jan97")
    assert fired(compiled)
    assert insert_exchange(compiled.root) is None


def test_pass_needs_the_translating_engine(guide):
    """Plain Lorel over the encoding has no time columns to read."""
    doem, _ = guide
    oem = encode_doem(doem).oem
    query = "select T from guide.restaurant.price.&upd.&time T " \
        "where T > 1Jan97"
    lorel = LorelEngine(oem, name="guide")
    assert not fired(lorel.compile(query))
    assert texts(lorel.run(query)) == texts(
        LorelEngine(oem, name="guide", use_planner=False).run(query))


def test_one_day_costs_rows_not_history(monkeypatch):
    """One day of ``<upd at T>`` over a ~12k-annotation history walks a
    few path steps a row; the forward walk took one per ``&upd``."""
    _, history, doem = large_world(seed=0, items=1000, steps=48, churn=250)
    assert doem.annotation_count() >= 11_000
    times = history.timestamps()
    query = (f"select root.item.price<upd at T> "
             f"where T > {times[29]} and T <= {times[30]}")
    planned = TranslatingChorelEngine(doem, name="root")
    planned.compile(query)  # encode and compile outside the count
    calls = [0]
    expand_step = Evaluator.expand_step

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return expand_step(self, *args, **kwargs)

    monkeypatch.setattr(Evaluator, "expand_step", counted)
    rows = texts(planned.run(query))
    served = calls[0]
    monkeypatch.undo()
    assert rows
    assert served <= 4 * (len(rows) + 1), (served, len(rows))
    legacy = TranslatingOracle(doem, name="root")
    assert texts(legacy.run(query)) == rows
