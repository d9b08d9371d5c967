#!/usr/bin/env python3
"""Self-test of the serving benchmark; run from the root of a checkout:

    python3 perfbench/selftest.py

Checks, with short runs of every workload in BENCHMARK.json:
  * --trace 0 reports exactly the end_to_end metrics, --trace 1 exactly the
    per_layer metrics, each with the declared unit, and every answer is
    correct (failed = 0, exit code 0);
  * the same seed repeats bytes_per_row and rep_bytes exactly on
    path3_fanout and path3_point, and a second (held-out) seed runs clean;
  * a deliberately corrupted oracle makes the run report correct = false
    and exit nonzero.
Exits nonzero if any check fails.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = 2

failures = []


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(SECONDS),
           "--trace", str(trace), *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return p.returncode, result


def check(ok, what):
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    first = {}
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, res = run(w, 1, trace)
            check(code == 0 and res is not None and res["correct"] and
                  res["failed"] == 0 and res["attempted"] > 0,
                  f"{w} trace={trace}: clean run")
            got = {k: v["unit"] for k, v in (res or {}).get("metrics", {}).items()}
            check(got == declared[trace],
                  f"{w} trace={trace}: metrics and units as declared")
            if trace == 0 and res is not None:
                first[w] = res["metrics"]
        if w in ("path3_fanout", "path3_point") and w in first:
            _, again = run(w, 1, 0)
            same = again is not None and all(
                again["metrics"][k]["value"] == first[w][k]["value"]
                for k in ("bytes_per_row", "rep_bytes"))
            check(same, f"{w}: bytes_per_row and rep_bytes repeat on seed 1")
        code, res = run(w, 2, 0)
        check(code == 0 and res is not None and res["correct"],
              f"{w}: held-out seed 2 runs clean")
        code, res = run(w, 1, 0, "--corrupt-oracle")
        check(code != 0 and (res is None or not res["correct"]),
              f"{w}: corrupted oracle fails the run")
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
