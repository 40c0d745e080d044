#!/usr/bin/env python3
"""Build and run the benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe with dune from source, runs it with the
same arguments, and passes its output through.  The last line of standard
output is the result object; it is checked against the metric names that
BENCHMARK.json declares.  Exits non-zero, printing no result, when the
build fails, the run fails, or the names disagree.
"""

import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench/run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def main(args):
    if not os.path.isfile("dune-project"):
        fail("run me from the root of the source checkout")
    # The shared dune cache lives outside the checkout; keep the build inside.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/perfbench.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        fail("build failed")
    try:
        run = subprocess.run(
            [EXE] + args, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail("benchmark exited with code %d" % run.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the last line of output is not a result object")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    traced = "--trace" in args and args[args.index("--trace") + 1 :][:1] == ["1"]
    declared = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]
    if sorted(declared) != sorted(result["metrics"]):
        fail("metrics %s do not match BENCHMARK.json %s" % (sorted(result["metrics"]), declared))
    print("\n".join(lines))


if __name__ == "__main__":
    main(sys.argv[1:])
