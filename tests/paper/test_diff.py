"""bench-diff: OEMdiff against snapshot size and change rate.

Section 6 builds QSS on snapshot differencing.  With identifiers
scrambled, so that matching does real work, the goldens pin the number
of operations inferred:

* ``diff_size_*`` -- at 6 edits, for 20 / 60 / 180 nodes;
* ``diff_edits_*`` -- at 60 nodes, for 0 / 4 / 16 edits;
* ``differ_*`` -- content matching against the id-based differ on a
  source that keeps its identifiers;
* ``diff_quality`` -- inferred against injected edits.

The contract ``U(A) = B`` (up to isomorphism for the matcher) is
``tests/diff``'s.
"""

import pytest

from repro import oem_diff, random_change_set, random_database
from repro.diff.iddiff import id_diff
from repro.sources.base import scramble_ids
from tests.paper import assert_artifact

SIZES = (20, 60, 180)
EDITS = (0, 4, 16)
DIFFERS = {"match": oem_diff, "ids": id_diff}
DIFFER_SIZES = (60, 180)
EXP_IDS = (*(f"diff_size_{nodes}" for nodes in SIZES),
           *(f"diff_edits_{edits}" for edits in EDITS),
           *(f"differ_{differ}_{nodes}"
             for differ in DIFFERS for nodes in DIFFER_SIZES),
           "diff_quality")


def snapshot_pair(nodes, edits, seed=7):
    old = random_database(seed=seed, nodes=nodes)
    new = old.copy()
    random_change_set(new, seed=seed + 1, size=edits).apply_to(new)
    return old, scramble_ids(new, salt=seed)


@pytest.mark.parametrize("nodes", SIZES)
def test_diff_size(nodes):
    ops = len(oem_diff(*snapshot_pair(nodes, edits=6)))
    assert_artifact(f"diff_size_{nodes}", f"nodes={nodes} inferred ops={ops}")


@pytest.mark.parametrize("edits", EDITS)
def test_diff_change_rate(edits):
    ops = len(oem_diff(*snapshot_pair(60, edits=edits)))
    assert_artifact(f"diff_edits_{edits}", f"edits={edits} inferred ops={ops}")


@pytest.mark.parametrize("nodes", DIFFER_SIZES)
@pytest.mark.parametrize("differ", sorted(DIFFERS))
def test_differ_ablation(differ, nodes):
    old = random_database(seed=9, nodes=nodes)
    new = old.copy()
    random_change_set(new, seed=10, size=8).apply_to(new)
    ops = len(DIFFERS[differ](old, new))
    assert_artifact(f"differ_{differ}_{nodes}",
                    f"differ={differ} nodes={nodes} ops={ops}")


def test_diff_quality():
    lines = []
    for edits in (2, 6, 12):
        inferred = len(oem_diff(*snapshot_pair(60, edits=edits, seed=21)))
        lines.append(f"injected<= {edits:3d}  inferred={inferred:3d}")
    assert_artifact("diff_quality", "\n".join(lines))
