#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 cohortbench/selftest.py

Run from the root of a checkout.  Checks every name in BENCHMARK.json
against [A-Za-z0-9][A-Za-z0-9_.-]{0,63}, builds the benchmark, runs the
C++ unit checks (bitwise comparator, seed -> slowed rank, result-line
layout), then one short untraced and one short traced run of
demo2d_ckpt, and checks that they emit exactly the end-to-end and
per-layer metrics BENCHMARK.json declares, with the declared units.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_bench(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_metrics(result, declared, label):
    problems = []
    got = result["metrics"]
    if set(got) != set(declared):
        problems.append(f"{label}: missing {sorted(set(declared) - set(got))}, "
                        f"extra {sorted(set(got) - set(declared))}")
    for name, spec in declared.items():
        if name in got and got[name]["unit"] != spec["unit"]:
            problems.append(f"{label}: {name} unit {got[name]['unit']} "
                            f"!= {spec['unit']}")
    if not result["correct"] or result["failed"] != 0:
        problems.append(f"{label}: run not correct ({result['failed']} failed)")
    return problems


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []
    for entry in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]:
        if not NAME.match(entry["name"]):
            problems.append(f"illegal name {entry['name']!r}")

    untraced = run_bench("demo2d_ckpt", 0)  # also builds the binaries
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    unit = subprocess.run([os.path.join(build, "cohortbench_selftest")])
    if unit.returncode != 0:
        problems.append("C++ self-test failed")
    problems += check_metrics(
        untraced, {m["name"]: m for m in spec["end_to_end"]}, "trace 0")
    traced = run_bench("demo2d_ckpt", 1)
    problems += check_metrics(
        traced, {m["name"]: m for m in spec["per_layer"]}, "trace 1")

    for p in problems:
        print("FAIL:", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
