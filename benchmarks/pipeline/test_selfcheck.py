"""Self-check of the pipeline benchmark at ``--quick`` size.

Not part of tier-1 (``testpaths`` is ``tests``); run it with
``PYTHONPATH=src python -m pytest benchmarks/pipeline/test_selfcheck.py``
(``benchmarks/conftest.py`` imports the package).  It drives
``run.py`` exactly as the benchmark's users do, one child per run.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")

sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402  (run.py: child() starts one workload)


def result_line(workload: str, trace: int, seed: int = 0) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), "--quick"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, group", [(0, "end_to_end"),
                                          (1, "per_layer")])
def test_every_declared_metric_once_with_its_unit(workload, trace, group):
    line = result_line(workload, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    declared = {entry["name"]: entry["unit"] for entry in SPEC[group]}
    assert len(declared) == len(SPEC[group]), "a metric is declared twice"
    assert set(line["metrics"]) == set(declared)
    for name, metric in line["metrics"].items():
        assert NAME.match(name), name
        assert metric["unit"] == declared[name], name
        assert isinstance(metric["value"], float), name
        if group == "end_to_end":
            assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_a_seed_and_move_with_it(workload):
    first = bench.child(workload, 0, 1.0, 0, True)["counts"]
    again = bench.child(workload, 0, 1.0, 1, True)["counts"]
    other = bench.child(workload, 1, 1.0, 0, True)["counts"]
    assert first == again
    assert first != other


def test_names_are_unique_across_the_file():
    names = [entry["name"] for key in ("workloads", "end_to_end",
                                       "per_layer") for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
