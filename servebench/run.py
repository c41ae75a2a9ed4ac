#!/usr/bin/env python3
"""Serve benchmark: builds ambit_serve from this checkout and runs one workload.

    python3 servebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
program in Release under .bench_build/ (later runs rebuild only what
changed); build output goes to stderr. The client then starts ambit_serve
with its default configuration, drives the workload over TCP and prints
the metrics; its last stdout line is the JSON result. See README.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("bulk_evalb", "small_eval", "reload_mix")


def build():
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    "ambit_serve", "servebench_client"],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"servebench: build failed: {e}", file=sys.stderr)
        return 1
    workdir = os.path.join(BUILD, "work")
    os.makedirs(workdir, exist_ok=True)
    return subprocess.run([
        os.path.join(BUILD, "servebench_client"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--server", os.path.join(BUILD, "ambit", "ambit_serve"),
        "--workdir", workdir,
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
