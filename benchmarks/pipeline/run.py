"""The pipeline benchmark's one command.

Two ways in:

* ``python3 benchmarks/pipeline/run.py --workload W --seed N --seconds S
  --trace 0|1`` runs one workload once and prints, as the last line of
  standard output, the result object ``BENCHMARK.json`` describes: the
  end-to-end metrics with ``--trace 0``, the per-layer metrics from a run
  with spans with ``--trace 1``.
* ``python3 benchmarks/pipeline/run.py --seed N`` runs all four
  workloads ``--repeats`` times, interleaved A B C D A B C D, then once
  more each with spans; prints every metric by name with its unit
  (medians over the repeats whose drift canary held) and writes
  ``results/run-<time>.json``.  ``--quick`` is the same at a tenth of the
  size with one repeat, in under half a minute.

Each workload runs in its own child interpreter, one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CANARY_DRIFT = 0.10


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def child(workload: str, seed: int, seconds: float, trace: int,
          quick: bool) -> dict:
    """Run one workload in a fresh interpreter and return its document."""
    command = [sys.executable, str(HERE / "workloads.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        command.append("--quick")
    # A fixed hash seed: set iteration order feeds OEMdiff's matching, and
    # the counted metrics must repeat exactly for a seed.
    environment = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          env=environment, cwd=ROOT, timeout=170,
                          check=True)
    return json.loads(done.stdout.splitlines()[-1])


def contract_line(document: dict, names: list[str]) -> str:
    return json.dumps({
        "correct": document["failed"] == 0,
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": {name: document["metrics"][name] for name in names},
    })


def resolved(document: dict) -> bool:
    machine = document["machine"]
    drift = abs(machine["calib_after_ms"] - machine["calib_before_ms"])
    return drift <= CANARY_DRIFT * machine["calib_before_ms"]


def commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_all(args, spec: dict) -> int:
    workloads = [entry["name"] for entry in spec["workloads"]]
    plain: dict[str, list[dict]] = {name: [] for name in workloads}
    for repeat in range(args.repeats):
        for name in workloads:
            print(f"# repeat {repeat + 1}/{args.repeats}: {name}",
                  file=sys.stderr)
            plain[name].append(child(name, args.seed, args.seconds, 0,
                                     args.quick))
    traced = {}
    for name in workloads:
        print(f"# traced: {name}", file=sys.stderr)
        traced[name] = child(name, args.seed, args.seconds, 1, args.quick)

    failed = 0
    summary: dict[str, dict] = {}
    for name in workloads:
        documents = plain[name]
        steady = [doc for doc in documents if resolved(doc)]
        unresolved = len(documents) - len(steady)
        attempted = sum(doc["attempted"] for doc in documents)
        failed_here = sum(doc["failed"] for doc in documents) \
            + traced[name]["failed"]
        failed += failed_here
        print(f"\n== {name}: attempted {attempted} failed {failed_here} "
              f"repeats {len(documents)} unresolved {unresolved}")
        for doc in documents + [traced[name]]:
            for failure in doc["failures"]:
                print(f"   FAILED {failure}")
        metrics = {}
        for entry in spec["end_to_end"]:
            key = entry["name"]
            # A repeat whose canary moved is reported, not averaged in --
            # unless none held, when the median of all is marked instead.
            values = [doc["metrics"][key]["value"]
                      for doc in (steady or documents)]
            metrics[key] = {"value": statistics.median(values),
                            "unit": entry["unit"], "values": values,
                            "unresolved": not steady}
            line = (f"{key:34s} {metrics[key]['value']:14.4f} "
                    f"{entry['unit']}")
            if not steady:
                line += "  UNRESOLVED (canary drifted on every repeat)"
            print(line)
        for kind, detail in documents[-1]["tails"].items():
            print(f"   {kind}_p_hi: p{detail['percentile']} = "
                  f"{detail['ms']:.3f} ms over {detail['samples']} samples")
        for entry in spec["per_layer"]:
            key = entry["name"]
            metrics[key] = traced[name]["metrics"][key]
            print(f"{key:34s} {metrics[key]['value']:14.4f} "
                  f"{entry['unit']}")
        summary[name] = {
            "attempted": attempted, "failed": failed_here,
            "unresolved_repeats": unresolved, "metrics": metrics,
            "counts": documents[-1]["counts"],
            "canary_ms": [[doc["machine"]["calib_before_ms"],
                           doc["machine"]["calib_after_ms"]]
                          for doc in documents],
        }

    machine = dict(traced[workloads[0]]["machine"], commit=commit())
    for key in ("calib_before_ms", "calib_after_ms"):
        del machine[key]
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    out = results / time.strftime("run-%Y%m%dT%H%M%S.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"seed": args.seed, "seconds": args.seconds,
                   "quick": args.quick, "repeats": args.repeats,
                   "machine": machine, "workloads": summary},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"\nmachine: {json.dumps(machine, sort_keys=True)}")
    print(f"wrote {out.relative_to(ROOT)}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload",
                        help="run this one workload and print the result "
                             "line (default: run them all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="a tenth of the size, two measured seconds, "
                             "one repeat")
    parser.add_argument("--repeats", type=int,
                        help="runs of each workload without spans "
                             "(default 3, 1 with --quick)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"{ROOT}: no src/repro here -- the benchmark runs the "
              f"program from the checkout's sources", file=sys.stderr)
        return 2
    spec = declared()
    if args.seconds is None:
        args.seconds = 2.0 if args.quick else float(spec["run_seconds"])
    if args.repeats is None:
        args.repeats = 1 if args.quick else 3
    if args.workload is None:
        return run_all(args, spec)
    document = child(args.workload, args.seed, args.seconds, args.trace,
                     args.quick)
    for failure in document["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    group = "per_layer" if args.trace else "end_to_end"
    print(contract_line(document, [entry["name"] for entry in spec[group]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
