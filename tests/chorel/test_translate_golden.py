"""Golden-file tests for the Chorel -> Lorel translation (Section 5.2).

One golden per annotation form -- ``<cre at T>``, ``<upd at T from OV to
NV>``, ``<add at T>``, ``<rem at T>`` -- pinned so a translator change
that rewrites the emitted Lorel shows up as a reviewable diff, not a
silent behavior shift.  The Example 5.1 translation is pinned the same
way, as a paper golden (``tests/paper/test_ex5_1.py``).

To update a golden intentionally, delete it and re-run with
``REGEN_GOLDENS=1``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import ChorelEngine, TranslatingChorelEngine, build_doem
from tests.conftest import make_guide_db, make_guide_history
from tests.goldens import assert_golden

GOLDENS = Path(__file__).resolve().parent / "goldens"

# One query per annotation form of Section 4.2.1 / 5.2.
FORM_QUERIES = {
    "cre_at": "select C, T from guide.restaurant.comment<cre at T> C",
    "upd_at_from_to": "select T, OV, NV from guide.restaurant.price"
                      "<upd at T from OV to NV> where T >= 1Jan97",
    "add_at": "select R, T from guide.<add at T>restaurant R",
    "rem_at": "select P, T from guide.restaurant.<rem at T>parking P "
              "where T > 5Jan97",
}


@pytest.fixture(scope="module")
def doem():
    return build_doem(make_guide_db(), make_guide_history())


def render(chorel: str, engine: TranslatingChorelEngine) -> str:
    translation = engine.translate(chorel)
    return f"Chorel:\n{chorel}\n\nLorel translation:\n{translation.text()}\n"


@pytest.mark.parametrize("form", sorted(FORM_QUERIES))
def test_translation_matches_golden(form, doem):
    engine = TranslatingChorelEngine(doem, name="guide")
    assert_golden(GOLDENS / f"{form}.txt",
                  render(FORM_QUERIES[form], engine))


@pytest.mark.parametrize("form", sorted(FORM_QUERIES))
def test_golden_queries_evaluate_identically(form, doem):
    """The pinned queries are not just pretty text: both backends agree."""
    native = ChorelEngine(doem, name="guide")
    translating = TranslatingChorelEngine(doem, name="guide")
    query = FORM_QUERIES[form]
    assert sorted(map(str, native.run(query))) == \
        sorted(map(str, translating.run(query)))


def test_every_annotation_form_has_a_golden():
    assert {path.stem for path in GOLDENS.glob("*.txt")} \
        == set(FORM_QUERIES), \
        "keep one golden file per annotation form"
