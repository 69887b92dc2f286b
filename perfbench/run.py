#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a source checkout. The first call configures and
builds perfbench/ (the library sources under src/ plus the harness) into
.bench_build/perfbench; later calls rebuild incrementally. Build output goes
to stderr, so the last line of stdout is the harness's JSON result.

    python3 perfbench/run.py --check

runs the benchmark's own checks instead: the same seed must give
identical count metrics twice, and another seed must give different inputs
with every query still correct (see perfbench/README.md).
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "lampbench")
WORKLOADS = ["mpc_wire", "datalog_tc", "net_calm"]
# Units of the trace-run metrics that are counts and must repeat exactly
# for one seed.
EXACT_UNITS = ("count", "tuples", "B")
# Measured seconds of each run the check makes.
CHECK_SECONDS = 2


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "mpc", "simulator.h")):
        fail("no library sources at %s; run from a source checkout"
             % os.path.join(ROOT, "src"))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", "4"],
    ]
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                cwd=ROOT)
        if result.returncode != 0:
            fail("build step failed: " + " ".join(step))


def run_harness(args):
    """Runs the harness, returns (stdout lines, parsed result)."""
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                          cwd=ROOT, text=True, timeout=170)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("harness exited with code %d" % proc.returncode)
    return lines, json.loads(lines[-1])


def input_digest(lines):
    for line in lines:
        for field in line.split():
            if field.startswith("input_digest="):
                return field.split("=", 1)[1]
    fail("harness printed no input digest")


def check():
    """Seed check: exact counts repeat per seed; seeds change the inputs."""
    for workload in WORKLOADS:
        runs = {}
        for tag, seed in (("a", 1), ("b", 1), ("c", 2)):
            lines, result = run_harness(
                ["--workload", workload, "--seed", str(seed),
                 "--seconds", str(CHECK_SECONDS), "--trace", "1"])
            if not result["correct"]:
                fail("%s seed %d: outputs differ from the reference"
                     % (workload, seed))
            counts = {k: m["value"] for k, m in result["metrics"].items()
                      if m["unit"] in EXACT_UNITS}
            runs[tag] = (input_digest(lines), counts)
        if runs["a"] != runs["b"]:
            fail("%s: seed 1 did not repeat: %s vs %s"
                 % (workload, runs["a"], runs["b"]))
        if runs["a"][0] == runs["c"][0]:
            fail("%s: seeds 1 and 2 gave the same inputs" % workload)
        print("%s: seed repeat ok, new seed ok (inputs %s vs %s)"
              % (workload, runs["a"][0], runs["c"][0]))
    print("perfbench check: ok")


def main(argv):
    build()
    if argv == ["--check"]:
        check()
        return 0
    lines, _ = run_harness(argv)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
