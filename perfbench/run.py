#!/usr/bin/env python3
"""Build and run the netupd end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper-scale --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (a standalone CMake package that compiles
the checkout's src/) into .bench_build/perfbench, then runs one workload.
Build output goes to stderr; the benchmark's stdout is passed through, and
its last line is the JSON result. Exits non-zero without a result when the
sources are missing or the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "netupd_perfbench")
WORKLOADS = ("paper-scale", "deep-proof", "repeat-stream")


def run_logged(cmd, log):
    with open(log, "w") as out:
        done = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT)
    if done.returncode != 0:
        with open(log) as f:
            sys.stderr.write(f.read()[-8000:])
        sys.stderr.write("perfbench: '%s' failed\n" % " ".join(cmd))
        sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "Engine.h")):
        sys.stderr.write("perfbench: no netupd sources under %s\n" % ROOT)
        sys.exit(2)
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   os.path.join(BUILD, "configure.log"))
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", BUILD, "-j", jobs],
               os.path.join(BUILD, "build.log"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must be non-negative")

    build()
    out_dir = os.path.join(BUILD, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seconds",
           repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
