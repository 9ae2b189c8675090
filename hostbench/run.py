#!/usr/bin/env python3
"""Build and run the dRAID host-cost benchmark (see hostbench/README.md).

    python3 hostbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 hostbench/run.py --smoke

Run from the repository root. The first call configures and builds
hostbench/ with CMake (Release) into .bench_build/; later calls only let
CMake confirm the build is current. Build output goes to stderr, so the
last stdout line is the benchmark's JSON result. The metric names and
units in it are checked against BENCHMARK.json before it is printed.

--smoke runs every workload in both modes on a tiny working set and
checks that each run is correct, fails nothing and prints the names in
BENCHMARK.json. It takes a few seconds once the build is done.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "hostbench")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"hostbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("src/CMakeLists.txt", "bench/harness.cc"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail(f"simulator source {need} not found; run from a checkout "
                 "of the repository", 2)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd), 2)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_once(workload, seed, seconds, trace, smoke=False):
    """Run the binary once; return its parsed, name-checked JSON line."""
    cmd = [BINARY, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}"]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{workload} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} printed no result")
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, wrong unit {wrong}")
    return lines[-1], result


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    for name in names:
        for trace in (0, 1):
            _, r = run_once(name, 1, 1, trace, smoke=True)
            if not r["correct"] or r["failed"] or r["attempted"] < 1:
                fail(f"smoke {name} trace={trace}: {r['failed']} of "
                     f"{r['attempted']} failed")
            print(f"smoke {name} trace={trace}: ok "
                  f"({r['attempted']} attempted)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)
    if not args.smoke and not args.workload:
        fail("--workload is required (or --smoke)", 2)
    build()
    if args.smoke:
        smoke()
        return
    line, _ = run_once(args.workload, args.seed, args.seconds, args.trace)
    print(line)


if __name__ == "__main__":
    main()
