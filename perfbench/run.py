#!/usr/bin/env python3
"""Build the perfbench executable from source and run one workload.

Run from the root of a Capri checkout:

    python3 perfbench/run.py --workload fig8 --seed 1 --seconds 20 --trace 0

The build goes to .bench_build/ (dune release profile). The executable's
output is passed through unchanged; its last stdout line is the JSON
result. Exits non-zero, printing no result, when the checkout is not
buildable.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("fig8", "serve-txn", "recover-100k")
BUILD_DIR = ".bench_build"
TARGET = "./perfbench/main.exe"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: run from the root of a Capri checkout")
    dune = shutil.which("dune")
    if dune is None:
        sys.exit("perfbench: dune not found on PATH")

    build = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", TARGET],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    run = subprocess.run(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
    )
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
