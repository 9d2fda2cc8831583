#!/usr/bin/env python3
"""Self-test of the scheduler-query benchmark.

Runs every workload named in BENCHMARK.json once untraced and once traced
on the small dataset analogs, and checks that each run passes its
correctness check with no failed request and prints exactly the metrics
BENCHMARK.json names, each with its unit. Then runs each workload with a
tampered reference answer and checks that the correctness check fails.

Usage, from the root of the repository:

    python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "small", *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def expect_metrics(result, specs, what):
    want = {m["name"]: m["unit"] for m in specs}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        raise AssertionError(f"{what}: metrics {sorted(got.items())} != {sorted(want.items())}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{what}: {name} has no numeric value: {m['value']}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []
    for workload in [w["name"] for w in bench["workloads"]]:
        checks = [
            (0, (), bench["end_to_end"], True),
            (1, (), bench["per_layer"], True),
            (0, ("--tamper-reference",), bench["end_to_end"], False),
        ]
        for trace, extra, specs, correct in checks:
            what = f"{workload} trace={trace} {' '.join(extra)}".strip()
            try:
                result = run(workload, trace, *extra)
                expect_metrics(result, specs, what)
                if result["correct"] is not correct:
                    raise AssertionError(f"{what}: correct is {result['correct']}, expected {correct}")
                if result["failed"] != 0 or result["attempted"] < 1:
                    raise AssertionError(f"{what}: attempted {result['attempted']}, failed {result['failed']}")
                print(f"ok   {what}")
            except AssertionError as e:
                failures.append(str(e))
                print(f"FAIL {what}: {e}")
    if failures:
        sys.exit(f"{len(failures)} self-test(s) failed")
    print("all self-tests passed")


if __name__ == "__main__":
    main()
