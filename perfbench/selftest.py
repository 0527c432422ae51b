#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced at ``--size smoke``
and asserts that each run prints every metric BENCHMARK.json names,
with its unit, that every answer check passed, and that the traced
layer spans cover at least 95% of the traced time.  It also checks
that the ``whole`` outcome digest does not change with the
interpreter's hash seed, that every counter BENCHMARK.json marks
``count`` repeats exactly under another hash seed, and that the
benchmark refuses to run (exit code not 0, no result line) without the
program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, trace: int, cwd: str = ROOT,
        env: Optional[dict] = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
        env=env)


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise AssertionError(message)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    # Counters marked "count" (and the byte and ratio figures derived
    # from counts) must repeat exactly across processes for one seed;
    # "count-approx" ones need not.
    exact = [m["name"] for m in spec["per_layer"]
             if m["unit"] in ("count", "bytes", "ratio")
             and m["name"] != "trace.coverage"]
    digests, first_rows = [], {}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            proc = run(workload, trace)
            expect(proc.returncode == 0,
                   f"{workload} trace={trace} exited {proc.returncode}: "
                   f"{proc.stderr[-2000:]}")
            lines = proc.stdout.strip().splitlines()
            result, info = json.loads(lines[-1]), json.loads(lines[-2])
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, f"result keys {set(result)}")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{workload} trace={trace}: checks failed: "
                   f"{info['errors']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted[trace],
                   f"{workload} trace={trace}: metrics/units {got} != "
                   f"{wanted[trace]}")
            expect(all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values()),
                   f"{workload}: non-numeric metric")
            if trace:
                coverage = result["metrics"]["trace.coverage"]["value"]
                expect(coverage >= 0.95,
                       f"{workload}: spans cover {coverage:.1%} < 95%")
                first_rows[workload] = info["details"]["ledger_rows"][0]
            elif workload == "whole":
                digests.append(info["details"]["digest"])
            print(f"ok  {workload:<6} trace={trace} "
                  f"attempted={result['attempted']}")

    proc = run("whole", 0, env=dict(os.environ, PYTHONHASHSEED="12345"))
    lines = proc.stdout.strip().splitlines()
    digests.append(json.loads(lines[-2])["details"]["digest"])
    expect(len({json.dumps(d) for d in digests}) == 1,
           f"whole outcome digest depends on the hash seed: {digests}")
    print("ok  whole outcome digest is hash-seed independent")

    for workload, row in first_rows.items():
        proc = run(workload, 1, env=dict(os.environ, PYTHONHASHSEED="54321"))
        again = json.loads(proc.stdout.strip().splitlines()[-2])
        other = again["details"]["ledger_rows"][0]
        moved = [k for k in exact if row.get(k) != other.get(k)]
        expect(not moved, f"{workload}: counters {moved} did not repeat")
        print(f"ok  {workload:<6} counters repeat across hash seeds")

    bare = os.path.join(ROOT, ".bench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("whole", 0, cwd=bare)
        expect(proc.returncode != 0 and "correct" not in proc.stdout,
               "benchmark ran without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  refuses to run without the program's sources")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
