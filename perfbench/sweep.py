#!/usr/bin/env python3
"""Runs the benchmark over several seeds and records one set of runs.

    python3 perfbench/sweep.py --out runs.jsonl [--workloads a,b] \
        [--seeds 1-10] [--trace 0] [--seconds N]

Run from the repository root. Each line of --out is one run:
{"workload", "seed", "trace", "result"}, where result is run.py's last
line. After the runs it prints, per workload and metric, the median and the
spread (interquartile range over the median, Python's
statistics.quantiles(n=4)) next to the metric's bound from BENCHMARK.json.
compare.py compares two such files.
"""

import argparse
import json
import os
import subprocess
import sys

import stats

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    bench = stats.load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()

    runs = []
    with open(args.out, "a") as out:
        for workload in args.workloads.split(","):
            for seed in parse_seeds(args.seeds):
                cmd = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", args.trace]
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                if proc.returncode != 0:
                    print(f"{workload} seed {seed}: exit {proc.returncode}",
                          file=sys.stderr)
                    continue
                result = json.loads(proc.stdout.strip().split("\n")[-1])
                run = {"workload": workload, "seed": seed,
                       "trace": int(args.trace), "result": result}
                out.write(json.dumps(run) + "\n")
                out.flush()
                runs.append(run)
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} "
                      f"failed={result['failed']}", file=sys.stderr)
    stats.print_spreads(runs, bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
