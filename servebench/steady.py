#!/usr/bin/env python3
"""Runs one workload N times and prints the run-to-run spread of every metric.

    python3 servebench/steady.py --workload small_eval --runs 10 --seconds 45

Each run uses another seed (--first-seed, then +1, ...). For every metric
of the result line it prints the median, the quartiles as
statistics.quantiles(values, n=4) gives them, the spread (q3 - q1) / median,
and min/max. It also prints each run's calibration-spin line, so a noisy
metric can be traced to host speed drift. Exits 1 if any run fails or
reports an incorrect result.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run with seed {seed} failed (exit {proc.returncode})")
    spin = next((l for l in lines if l.startswith("calibration spin")), "")
    return json.loads(lines[-1]), spin


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    values = {}
    units = {}
    ok = True
    for k in range(args.runs):
        seed = args.first_seed + k
        result, spin = run_once(args.workload, seed, args.seconds, args.trace)
        ok = ok and result["correct"]
        share = result["failed"] / result["attempted"]
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"(share {share:.6g}); {spin}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print(f"\n{args.workload}: {args.runs} runs of {args.seconds:g} s")
    print(f"{'metric':36} {'unit':12} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'min':>12} {'max':>12}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        print(f"{name:36} {units[name]:12} {med:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{spread:8.3f} {min(vals):12.5g} {max(vals):12.5g}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
