"""The paper's evaluation as tier-1 goldens.

The paper evaluates itself through its running example: Figures 1-7 and
Examples 2.1-6.1.  Each module here regenerates one experiment family's
artifacts and compares each with its committed golden,
``goldens/<exp-id>.txt``; EXPERIMENTS.md quotes them.  A module lists the
ids it compares in ``EXP_IDS``, and ``test_catalogue.py`` checks that
together they cover every figure and example.

To update a golden on purpose, delete it and re-run ``pytest
tests/paper`` with ``REGEN_GOLDENS=1``.
"""

from __future__ import annotations

from pathlib import Path

from tests.goldens import assert_golden

GOLDENS = Path(__file__).resolve().parent / "goldens"


def assert_artifact(exp_id: str, text: str) -> None:
    """Compare one regenerated artifact with ``goldens/<exp_id>.txt``."""
    assert_golden(GOLDENS / f"{exp_id}.txt", text + "\n")
