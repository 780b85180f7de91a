"""Every figure and example of the paper has a compared golden.

``CATALOGUE`` maps each paper artifact to the golden that reproduces
it.  A golden counts as compared when a ``tests/paper`` module lists it
in ``EXP_IDS`` (its tests compare exactly those ids), and every such
golden must be on disk.  ``benchmarks/`` keeps only the pipeline
benchmark: no paper test may drift back there.
"""

from __future__ import annotations

import importlib
import os
from pathlib import Path

from tests.paper import GOLDENS

CATALOGUE = {
    "Figure 1": "fig1_htmldiff",
    "Figure 2": "fig2_oem_guide",
    "Figure 3": "fig3_history",
    "Figure 4": "fig4_doem",
    "Figure 5": "fig5_encoding",
    "Figure 6": "fig6_qss",
    "Figure 7": "fig7_architecture",
    "Example 2.1": "fig2_oem_guide",
    "Example 2.2": "fig3_history",
    "Example 2.3": "fig3_history",
    "Example 3.1": "fig4_doem",
    "Example 4.1": "ex4_1",
    "Example 4.2": "ex4_2",
    "Example 4.3": "ex4_3",
    "Example 4.4": "ex4_4",
    "Example 4.5": "ex4_5",
    "Example 5.1": "ex5_1_translation",
    "Example 6.1": "fig6_qss",
}

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent


def compared_ids() -> dict[str, str]:
    """Golden id -> the module whose tests compare it."""
    owners: dict[str, str] = {}
    for path in sorted(HERE.glob("test_*.py")):
        if path.stem == "test_catalogue":
            continue
        module = importlib.import_module(f"tests.paper.{path.stem}")
        for exp_id in module.EXP_IDS:
            assert exp_id not in owners, \
                f"{exp_id} compared by {owners[exp_id]} and {path.stem}"
            owners[exp_id] = path.stem
    return owners


def test_every_paper_artifact_has_a_compared_golden():
    owners = compared_ids()
    for artifact, exp_id in CATALOGUE.items():
        assert exp_id in owners, f"{artifact}: no test compares {exp_id}"


def test_every_golden_is_compared():
    on_disk = {path.stem for path in GOLDENS.glob("*.txt")}
    assert on_disk <= set(compared_ids()), "orphan golden"
    # Regenerating from scratch, the modules after this one write theirs.
    if not os.environ.get("REGEN_GOLDENS"):
        assert on_disk == set(compared_ids()), "missing golden"


def test_benchmarks_hold_only_the_pipeline():
    stray = [path.relative_to(REPO).as_posix()
             for path in (REPO / "benchmarks").rglob("test_*.py")
             if "pipeline" not in path.relative_to(REPO / "benchmarks").parts]
    assert stray == []
