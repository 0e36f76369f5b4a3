#!/usr/bin/env python3
"""Build the interaction benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload drag|pan|churn --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The benchmark program (perfbench/swmbench.ml) does the measuring and prints
the result object as the last line of standard output; this wrapper builds
it with dune inside the checkout, runs it in a fresh process, and passes
its output and exit code through.
"""

import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
TARGET = "./perfbench/swmbench.exe"


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "dune-project")):
        sys.stderr.write("run.py: no dune-project here; run from the repository root\n")
        return 2
    env = dict(os.environ)
    # Keep every build product inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        sys.stderr.write("run.py: dune not found\n")
        return 2
    try:
        build = subprocess.run(
            dune + ["build", "--root", ".", TARGET],
            cwd=root, env=env, timeout=BUILD_TIMEOUT_S,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write("run.py: build failed: %s\n" % e)
        return 2
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        sys.stderr.write("run.py: build failed\n")
        return 2
    exe = os.path.join(root, "_build", "default", "perfbench", "swmbench.exe")
    try:
        proc = subprocess.run([exe] + sys.argv[1:], cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: benchmark timed out\n")
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
