#!/usr/bin/env python3
"""Compare a benchmark artifact against its committed baseline.

Usage::

    python scripts/check_bench_baseline.py \
        benchmarks/artifacts/BENCH_obs.json \
        benchmarks/baselines/BENCH_obs_baseline.json

Every key present in the baseline must exist in the artifact with a
*matching* value -- the baseline deliberately contains only the
deterministic series (equivalence counters and workload parameters),
never wall times.  Histogram-valued series compare as dicts key-by-key
over the baseline's keys, so an artifact may carry extra
self-describing fields (the bucket ``bounds`` added by
``Histogram.snapshot``) without diverging.

On top of the baseline diff, family-specific invariants run for
whichever bench families the artifact contains:

* ``bench_obs.*`` -- the telemetry-overhead gate: the instrumented run
  must cost less than 5% over the disabled run
  (``overhead.ratio`` < 1.05), and the instrumented run must actually
  have produced events (``events.written`` > 0) -- a "free" telemetry
  layer that wrote nothing measured nothing;
* ``bench_analyze.*`` -- the EXPLAIN ANALYZE gate: an analyzed run must
  cost less than 5% over a plain run (``overhead.ratio`` < 1.05),
  return identical rows with an internally consistent stats tree
  (``equivalence.*`` == 0), and the sweeps must have landed in the
  query log (``queries.recorded`` > 0).

Exit status: 0 clean, 1 on any divergence (the CI telemetry-overhead
and analyze-overhead jobs gate on it).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

OBS_OVERHEAD_LIMIT = 1.05
ANALYZE_OVERHEAD_LIMIT = 1.05


def fail(message: str) -> None:
    print(f"BASELINE CHECK FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def _matches(expected, actual) -> bool:
    """Baseline subset match: dicts compare over the baseline's keys only.

    Scalars must be identical; a histogram snapshot in the artifact may
    grow new descriptive fields (e.g. ``bounds``) without breaking the
    committed baseline.
    """
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return False
        return all(_matches(value, actual.get(key, "<missing>"))
                   for key, value in expected.items())
    return expected == actual


def _check_obs(artifact: dict) -> str:
    ratio = artifact.get("bench_obs.overhead.ratio")
    if not isinstance(ratio, (int, float)) or ratio <= 0:
        fail(f"bench_obs.overhead.ratio is {ratio!r}; the bench did not "
             f"record the instrumented/disabled wall-clock ratio")
    if ratio >= OBS_OVERHEAD_LIMIT:
        fail(f"telemetry overhead ratio {ratio} >= {OBS_OVERHEAD_LIMIT} "
             f"(instrumented/disabled); the event log or metrics hot "
             f"path got too expensive")
    written = artifact.get("bench_obs.events.written", 0)
    if written <= 0:
        fail(f"bench_obs.events.written is {written!r}; the instrumented "
             f"pass produced no events, so the overhead measurement is "
             f"vacuous")
    return (f"telemetry overhead ratio {ratio} < {OBS_OVERHEAD_LIMIT}, "
            f"{written} event(s) written")


def _check_analyze(artifact: dict) -> str:
    ratio = artifact.get("bench_analyze.overhead.ratio")
    if not isinstance(ratio, (int, float)) or ratio <= 0:
        fail(f"bench_analyze.overhead.ratio is {ratio!r}; the bench did "
             f"not record the analyze/plain wall-clock ratio")
    if ratio >= ANALYZE_OVERHEAD_LIMIT:
        fail(f"ANALYZE overhead ratio {ratio} >= {ANALYZE_OVERHEAD_LIMIT} "
             f"(analyze/plain); the per-operator accounting got too "
             f"expensive")
    for counter in ("bench_analyze.equivalence.row_mismatches",
                    "bench_analyze.equivalence.consistency_violations"):
        if artifact.get(counter, "<missing>") != 0:
            fail(f"{counter} is {artifact.get(counter)!r}; ANALYZE "
                 f"perturbed results or collected an inconsistent tree")
    recorded = artifact.get("bench_analyze.queries.recorded", 0)
    if recorded <= 0:
        fail(f"bench_analyze.queries.recorded is {recorded!r}; no query "
             f"reached the query log, so the overhead measurement is "
             f"vacuous")
    return (f"ANALYZE overhead ratio {ratio} < {ANALYZE_OVERHEAD_LIMIT}, "
            f"{recorded} query-log record(s)")


def main(argv: list[str]) -> None:
    if len(argv) != 3:
        fail(f"usage: {argv[0]} <artifact.json> <baseline.json>")
    artifact_path, baseline_path = Path(argv[1]), Path(argv[2])
    if not artifact_path.exists():
        fail(f"artifact {artifact_path} not found (did the bench run?)")
    if not baseline_path.exists():
        fail(f"baseline {baseline_path} not found")
    artifact = json.loads(artifact_path.read_text(encoding="utf-8"))
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))

    diverged = []
    for key, expected in sorted(baseline.items()):
        actual = artifact.get(key, "<missing>")
        if not _matches(expected, actual):
            diverged.append(f"  {key}: baseline {expected!r}, got {actual!r}")
    if diverged:
        fail("deterministic series diverged from the committed baseline "
             "(update benchmarks/baselines/ only with an explanation):\n"
             + "\n".join(diverged))

    notes = []
    if "bench_obs.overhead.ratio" in artifact:
        notes.append(_check_obs(artifact))
    if "bench_analyze.overhead.ratio" in artifact:
        notes.append(_check_analyze(artifact))
    if not notes:
        fail("artifact contains no recognized bench family "
             "(bench_obs.* or bench_analyze.*)")

    print(f"baseline check OK: {len(baseline)} series match, "
          + "; ".join(notes))


if __name__ == "__main__":
    main(sys.argv)
