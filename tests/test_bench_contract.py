"""The surface the pipeline benchmark patches and calls still exists.

``benchmarks/pipeline`` is frozen between benchmark PRs, and the driver
runs it against every change after the fact.  Its tracer patches the
program through a table of ``(module, attribute path)`` pairs looked up
in the owner's *own* ``__dict__``, so a refactor that moves a method to
a base class -- or renames a constructor argument ``workloads.py``
passes -- breaks the benchmark without breaking any other test.  This
file fails first.  It reads the benchmark's files; it never edits them.
"""

from __future__ import annotations

import importlib

import pytest

from benchmarks.pipeline.trace import TARGETS, Tracer
from repro import (
    ChorelEngine,
    IndexedChorelEngine,
    LorelEngine,
    ParallelExecutor,
)
from tests.test_differential_index import make_world

RANGE_QUERY = "select T from root.item.price<changed at T>"


def resolve(module_name: str, path: str):
    """``(owner, attribute)`` exactly as ``Tracer.install`` finds them."""
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


@pytest.mark.parametrize("module_name, path, span", TARGETS,
                         ids=[f"{m}:{p}" for m, p, _ in TARGETS])
def test_target_is_defined_on_its_owner(module_name, path, span):
    owner, attribute = resolve(module_name, path)
    assert attribute in owner.__dict__, \
        f"{module_name}:{path} is inherited or gone; the tracer reads " \
        f"owner.__dict__ and would raise KeyError"
    assert callable(owner.__dict__[attribute])
    assert span.partition(".")[0], span


def patched_attributes() -> list:
    located = [resolve(module_name, path) for module_name, path, _ in TARGETS]
    return [owner.__dict__[attribute] for owner, attribute in located]


def test_install_and_remove_round_trip():
    before = patched_attributes()
    tracer = Tracer()
    tracer.install()
    try:
        assert all(hasattr(installed, "__wrapped__")
                   for installed in patched_attributes())
    finally:
        tracer.remove()
    assert all(a is b for a, b in zip(patched_attributes(), before))


def test_engine_surface_workloads_uses():
    db, _, doem = make_world(3)
    # The oracle side of every query class.
    LorelEngine(db, name="root", use_planner=False).run("select root.item")
    ChorelEngine(doem, name="root", use_planner=False).run(RANGE_QUERY)
    # View.open: a store log hung on the engine as a plain attribute.
    engine = IndexedChorelEngine(doem, name="root")
    marker = object()
    engine.log = marker
    assert engine.log is marker
    # Pipeline.query: the per-strategy counter.
    engine.run(RANGE_QUERY)
    assert engine.last_range_plan.strategy == "index-scan"
    # Pipeline.counters.
    assert engine.annotation_visits >= 0
    assert 0.0 <= engine.stats.pushdown_rate <= 1.0
    assert 0.0 <= engine.index.stats.hit_rate <= 1.0
    assert 0.0 <= engine.paths.stats.hit_rate <= 1.0
    # sharded_scan.
    with ParallelExecutor(engine, max_workers=2) as executor:
        assert len(executor.run("select root.item")) == \
            len(engine.run("select root.item"))
