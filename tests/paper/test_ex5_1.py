"""Example 5.1: the Chorel -> Lorel translation of Example 4.5.

The golden pins the translated text: nested ``exists`` over
``R.&price-history`` / ``&target`` / ``&add`` with ``&val`` value
access.  That both backends answer the paper's queries alike is
``tests/chorel/test_translate.py``'s.
"""

from repro import TranslatingChorelEngine
from tests.paper import assert_artifact
from tests.paper.test_ex4 import PAPER_QUERIES

EXP_IDS = ("ex5_1_translation",)


def test_ex5_1_translation(guide_doem):
    query = PAPER_QUERIES["ex4_5"]
    translation = TranslatingChorelEngine(guide_doem,
                                          name="guide").translate(query)
    assert_artifact("ex5_1_translation",
                    f"Chorel:\n{query}\n\nLorel translation:\n"
                    f"{translation.text()}")
