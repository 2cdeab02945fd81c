#!/usr/bin/env python3
"""Compares two sets of benchmark runs (parent and change).

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file is written by sweep.py. Per workload and metric it prints both
sides' medians and quartiles, the share of pairs the change won (pairs
match runs by seed; ties count for neither side), and a verdict by the
rule for claiming a gain in a small sandbox:

  better      the change wins at least 9/10 of all pairs and its median
              beats the parent's by more than the parent's interquartile
              range;
  worse       the same with the sides swapped;
  same        every pair tied;
  unresolved  anything else.

For metrics with a bound in BENCHMARK.json it also flags a change whose
median is worse than the parent's by more than that bound (a regression
the benchmark refuses).
"""

import argparse
import sys

import stats


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args()
    specs = stats.metric_specs(stats.load_benchmark())
    parent = stats.by_workload(stats.load_runs(args.parent))
    change = stats.by_workload(stats.load_runs(args.change))

    for workload in sorted(set(parent) & set(change)):
        print(f"== {workload}")
        print(f"  {'metric':34} parent median [q1,q3] | "
              f"change median [q1,q3] | won | verdict")
        for name in sorted(set(parent[workload]) & set(change[workload])):
            spec = specs.get(name, {})
            higher = spec.get("better") == "higher"
            p_pairs = dict(parent[workload][name])
            c_pairs = dict(change[workload][name])
            seeds = sorted(set(p_pairs) & set(c_pairs))
            p_vals = [v for _, v in parent[workload][name]]
            c_vals = [v for _, v in change[workload][name]]
            pq1, pmed, pq3 = stats.quartiles(p_vals)
            cq1, cmed, cq3 = stats.quartiles(c_vals)

            def better(a, b):
                return a > b if higher else a < b

            wins = sum(better(c_pairs[s], p_pairs[s]) for s in seeds)
            losses = sum(better(p_pairs[s], c_pairs[s]) for s in seeds)
            pairs = len(seeds)
            iqr = pq3 - pq1
            if pairs and wins >= 0.9 * pairs and better(cmed, pmed) and \
                    abs(cmed - pmed) > iqr:
                verdict = "better"
            elif pairs and losses >= 0.9 * pairs and better(pmed, cmed) and \
                    abs(cmed - pmed) > iqr:
                verdict = "worse"
            elif pairs and wins == 0 and losses == 0:
                verdict = "same"
            else:
                verdict = "unresolved"
            bound = spec.get("bound")
            if bound is not None and pmed and better(pmed, cmed) and \
                    abs(cmed - pmed) / abs(pmed) > bound:
                verdict += f" (beyond bound {bound})"
            won = f"{wins}/{pairs}" if pairs else "-"
            print(f"  {name:34} {pmed:.6g} [{pq1:.4g},{pq3:.4g}] | "
                  f"{cmed:.6g} [{cq1:.4g},{cq3:.4g}] | {won} | {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
