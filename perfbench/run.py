#!/usr/bin/env python3
"""Repository benchmark for the bootstrapped alias analysis.

Usage (from the repository root)::

    python3 perfbench/run.py --workload whole --seed 1 --seconds 16 --trace 0

Workloads: ``whole`` (batch analysis of the sendmail-shaped corpus
program), ``demand`` (cold may-alias queries on the mt_daapd-shaped
program) and ``edit`` (a ``repro serve`` daemon session of one-function
edits).  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ledger.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
record the host and the evidence behind the checks.  ``--size smoke``
runs a tiny instance (the self-test's).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("whole", "demand", "edit")
#: How a metric scales with the host's speed, by unit: times shrink on a
#: fast host, rates grow.  Counts, bytes and ratios do not move.
SPEED_EXPONENT = {"s": 1, "ms": 1, "1/s": -1}
#: Left unscaled here besides the keys of ``Outcome.unscaled`` (the
#: end-to-end timings, which workloads.py scales by the probes around
#: each operation): the probe itself.
UNSCALED = {"host.probe_ms"}


def host_record() -> dict:
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "loadavg": list(os.getloadavg())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: the program's sources (src/repro) are missing; "
              "nothing to measure", file=sys.stderr)
        return 2
    # One CPU for the run and the daemon it starts, so that the probes
    # time the CPU the work runs on (README.md, "Reference seconds").
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.chdir(ROOT)
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    before = host_record()
    trace = bool(args.trace)
    if args.workload == "edit":
        outcome = workloads.run_edit(args.seed, args.seconds, trace,
                                     args.size, ROOT)
    else:
        outcome = workloads.run_corpus(args.workload, args.seed,
                                       args.seconds, trace, args.size)
    host = {**before, "loadavg_after": list(os.getloadavg())}

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)["per_layer" if trace else "end_to_end"]
    if trace:
        spans = os.path.join(ROOT, ".bench_work",
                             f"spans-{args.workload}-{args.seed}.json")
        outcome.tracer.dump(spans)
        outcome.details["spans_file"] = os.path.relpath(spans, ROOT)
        outcome.layers["host.probe_ms"] = 1000.0 * workloads.median(
            outcome.probes)
        # Layers a workload never enters read zero.
        values = {m["name"]: outcome.layers.get(m["name"], 0.0)
                  for m in declared}
    else:
        values = outcome.metrics
    # Times are reported in reference seconds.  The end-to-end timings
    # arrive scaled; the per-layer ones are scaled here by the host's
    # speed over the whole run (workloads.PROBE_*).
    speed = outcome.host_speed()
    outcome.details["host_speed"] = speed
    outcome.details["probes"] = outcome.probes
    outcome.details["measured"] = {**values, **outcome.unscaled}
    metrics = {}
    for m in declared:
        value = values[m["name"]]
        if m["name"] not in UNSCALED and m["name"] not in outcome.unscaled:
            value *= speed ** SPEED_EXPONENT.get(m["unit"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"host": host, "workload": args.workload,
                      "seed": args.seed, "trace": args.trace,
                      "size": args.size, "errors": outcome.errors,
                      "details": outcome.details}, sort_keys=True,
                     default=str))
    print(json.dumps({"correct": outcome.failed == 0,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
