"""Golden-file tests for the EXPLAIN ANALYZE rendering.

Wall times vary run to run, so the goldens mask them (``time ---ms``);
everything else -- operator tree, rows/batches in and out, shard
counts, vectorized/fallback splits, the fingerprint --
is deterministic and pinned.  A change to operator accounting or the
render format shows up as a reviewable diff.

To update a golden intentionally, delete it and re-run with
``REGEN_GOLDENS=1``.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro import ChorelEngine, IndexedChorelEngine, build_doem
from tests.conftest import make_guide_db, make_guide_history
from tests.goldens import assert_golden

GOLDENS = Path(__file__).resolve().parent / "goldens"

# name -> (engine class, query)
CASES = {
    "analyze_native_chain": (
        ChorelEngine,
        "select T, R from guide.<add at T>restaurant R where T >= 1Jan97"),
    "analyze_indexed_pushdown": (
        IndexedChorelEngine,
        "select guide.<add at T>restaurant where T < 4Jan97"),
    "analyze_projection_only": (
        ChorelEngine,
        "select guide.restaurant.name"),
    # Cross-time terminals over a narrow and a wide range.
    "analyze_range_index": (
        IndexedChorelEngine,
        "select T from guide.restaurant.price"
        "<changed at T in [1Jan97..5Jan97]>"),
    "analyze_range_wide": (
        IndexedChorelEngine,
        "select X, T from guide.restaurant"
        "<changed at T in [1Jan97..1Mar97]> X"),
}

TIME_PATTERN = re.compile(r"time \d+(?:\.\d+)?ms")


def masked(text: str) -> str:
    return TIME_PATTERN.sub("time ---ms", text)


@pytest.fixture(scope="module")
def doem():
    return build_doem(make_guide_db(), make_guide_history())


def analyze(name: str, doem) -> str:
    engine_cls, query = CASES[name]
    engine = engine_cls(doem, name="guide")
    engine.run(query, analyze=True)
    compiled = engine.last_compiled
    return (f"query:\n{query}\n\nanalyze:\n"
            f"{masked(compiled.explain(analyze=True))}\n")


@pytest.mark.parametrize("name", sorted(CASES))
def test_analyze_matches_golden(name, doem):
    assert_golden(GOLDENS / f"{name}.txt", analyze(name, doem))


def test_masking_only_hides_times(doem):
    """The mask leaves rows/batches intact."""
    raw = analyze("analyze_native_chain", doem)
    assert "time ---ms" in raw
    assert "rows" in raw and "batches" in raw
    assert not TIME_PATTERN.search(raw)


def test_every_case_has_a_golden():
    present = {path.stem for path in GOLDENS.glob("analyze_*.txt")}
    assert present == set(CASES), \
        "keep one golden file per pinned ANALYZE rendering"
