"""Statistics shared by sweep.py and compare.py.

A run set is a JSON-lines file written by sweep.py; each line holds one
run: {"workload", "seed", "trace", "result"}.
"""

import json
import os
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))


def load_benchmark():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def metric_specs(bench):
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def load_runs(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def by_workload(runs):
    """{workload: {metric: [(seed, value), ...]}} in file order."""
    out = {}
    for run in runs:
        metrics = out.setdefault(run["workload"], {})
        for name, m in run["result"]["metrics"].items():
            metrics.setdefault(name, []).append((run["seed"], m["value"]))
    return out


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def print_spreads(runs, bench):
    specs = metric_specs(bench)
    for workload, metrics in sorted(by_workload(runs).items()):
        print(f"== {workload}")
        for name, pairs in sorted(metrics.items()):
            values = [v for _, v in pairs]
            q1, med, q3 = quartiles(values)
            bound = specs.get(name, {}).get("bound")
            limit = ""
            if bound is not None:
                s = spread(values)
                flag = "ok" if s < bound / 3 else (
                    "WITHIN BOUND" if s <= bound else "TOO WIDE")
                limit = f"bound {bound:<6} {flag}"
            print(f"  {name:34} n={len(values):<3} median {med:<12.6g} "
                  f"q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread(values):<8.4f} {limit}")
