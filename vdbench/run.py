#!/usr/bin/env python3
"""Build the virtual-disk benchmark from source and run it.

Run from the root of a checkout:

    python3 vdbench/run.py --workload oltp-small --seed 1 --seconds 20 --trace 0
    python3 vdbench/run.py --self-test

The benchmark process is pinned to one CPU (the highest-numbered one
it may use). The build goes to _build/ inside the checkout (dune's
shared cache is off, so nothing is written outside it); build output
goes to stderr.
The benchmark's own stdout is passed through: its last line is the
result object. Outside a checkout (no dune-project or lib/ next to
vdbench/) this exits with status 2 without printing a result.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "vdbench", "vdbench.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write(
            "vdbench: run from the root of a checkout "
            "(dune-project and lib/ not found)\n")
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled",
         "--display=quiet", "./vdbench/vdbench.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("vdbench: build failed\n")
        return build.returncode
    # One CPU for the whole process: the worker domain, the open-loop
    # generator and the runtime's timer thread then wake each other
    # without cross-CPU wakeups, which on a shared VM made latency
    # medians spread two to three times wider (README.md).
    cpus = sorted(os.sched_getaffinity(0))
    return subprocess.run(
        [EXE] + sys.argv[1:],
        preexec_fn=lambda: os.sched_setaffinity(0, {cpus[-1]})).returncode


if __name__ == "__main__":
    sys.exit(main())
