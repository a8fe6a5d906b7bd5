#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/main.exe with dune
(build output goes to stderr), runs it, and passes its standard output
through; the last line is the result JSON.  The metric names and units
in that line are checked against BENCHMARK.json.  Exits non-zero, with
no result line, when the build fails, the run times out, or the printed
metrics do not match the declared ones; exits with the benchmark's own
code otherwise.
"""

import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    args = sys.argv[1:]
    try:
        trace = args[args.index("--trace") + 1]
    except (ValueError, IndexError):
        fail("missing --trace", 2)
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e, 2)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "--cache", "disabled",
         "./perfbench/main.exe"],
        cwd=root,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed", 3)
    try:
        run = subprocess.run(
            [os.path.join(root, EXE)] + args,
            cwd=root,
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S, 4)
    lines = run.stdout.splitlines()
    if run.returncode != 0 and not lines:
        fail("benchmark exited %d without output" % run.returncode, run.returncode)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace == "1" else "end_to_end"]}
    try:
        printed = {k: v["unit"] for k, v in json.loads(lines[-1])["metrics"].items()}
    except (ValueError, KeyError, IndexError, TypeError):
        fail("no result line", 5)
    if printed != declared:
        fail("printed metrics %s differ from BENCHMARK.json %s" % (printed, declared), 5)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
