#!/usr/bin/env python3
"""Compare two sets of hybench runs: a parent commit and a change.

    python3 bench/ledger/compare.py PARENT CHANGE

PARENT and CHANGE are directories (searched recursively) or files holding
hybench run JSONs (schema hybench.run.v1), as `run.py --out` writes them.
Prints one row per (workload, metric): each side's median and quartiles,
the change of the medians, each side's spread (IQR / median, parent/change)
and a verdict:

  regression  the change's median is worse than the parent's by more than
              the metric's bound in the repo's BENCHMARK.json
  unresolved  the parent's spread (IQR / median) is wider than the bound,
              and not every change run beats every parent run
  gain        the change wins at least 9 of 10 seed-paired runs (ties count
              for neither) and the medians differ by more than the parent's
              IQR
  better      every change run beats every parent run (spread too wide for
              the bound, but no overlap)
  same        none of the above
  -           the metric has no bound (layer metrics): numbers only

Every metric comes from the untraced runs, except those only traced runs
report (the trace phases). Pair runs by seed (or, when the seeds differ, in
seed order), and alternate which side runs first. Exits 1 on any regression
or on a run that failed its correctness checks, else 0.
"""
import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def load_runs(path):
    files = [path] if path.is_file() else sorted(path.rglob("*.json"))
    runs = []
    for f in files:
        try:
            with open(f) as fh:
                run = json.load(fh)
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(run, dict) and run.get("schema") == "hybench.run.v1":
            runs.append(run)
    return runs


def collect(runs):
    """{(workload, metric): {seed: value}} from the untraced runs; metrics
    that only traced runs report (the trace phases) from those."""
    out = {False: defaultdict(dict), True: defaultdict(dict)}
    for r in runs:
        for name, m in r["metrics"].items():
            out[r["traced"]][(r["workload"], name)][r["seed"]] = m["value"]
    merged = dict(out[True])
    merged.update(out[False])
    return merged


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    # The default (exclusive) method, as the ledger's spread rule uses it;
    # inclusive below 4 runs, where exclusive extrapolates past the data.
    method = "exclusive" if len(values) >= 4 else "inclusive"
    q1, _, q3 = statistics.quantiles(values, n=4, method=method)
    return q1, statistics.median(values), q3


def verdict(parent, change, better, bound):
    """parent/change: {seed: value}."""
    if bound is None:
        return "-"
    p, c = list(parent.values()), list(change.values())
    sign = 1 if better == "higher" else -1
    p1, pm, p3 = quartiles(p)
    _, cm, _ = quartiles(c)
    if pm != 0 and sign * (cm - pm) / abs(pm) < -bound:
        return "regression"
    all_better = (min(c) > max(p)) if sign > 0 else (max(c) < min(p))
    if pm != 0 and (p3 - p1) / abs(pm) > bound:
        return "better" if all_better else "unresolved"
    seeds = sorted(set(parent) & set(change))
    if seeds:
        pairs = [(parent[s], change[s]) for s in seeds]
    else:  # different seeds: pair the runs in seed order
        pairs = [(parent[a], change[b])
                 for a, b in zip(sorted(parent), sorted(change))]
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    if pairs and wins * 10 >= 9 * len(pairs) and sign * (cm - pm) > p3 - p1:
        return "gain"
    return "same"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args()

    with open(BENCH) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"]
              for m in bench["end_to_end"] + bench["per_layer"]}

    parent_runs, change_runs = load_runs(args.parent), load_runs(args.change)
    if not parent_runs or not change_runs:
        sys.exit("compare.py: no hybench runs found on one side")
    status = 0
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        for r in runs:
            if not r["correct"] or r["failed"]:
                print(f"{side}: {r['workload']} seed {r['seed']} FAILED its "
                      f"checks ({r['failed']} failed ops)")
                status = 1
    parent = collect(parent_runs)
    change = collect(change_runs)

    header = (f"{'workload':28} {'metric':30} {'parent median [q1, q3]':34} "
              f"{'change median [q1, q3]':34} {'delta':>8} {'spread':>13}"
              f"  verdict")
    print(header)
    print("-" * len(header))
    order = {m: i for i, m in enumerate(better)}
    keys = sorted(set(parent) & set(change),
                  key=lambda k: (k[0], order.get(k[1], len(order)), k[1]))
    for key in keys:
        workload, name = key
        p, c = parent[key], change[key]
        p1, pm, p3 = quartiles(list(p.values()))
        c1, cm, c3 = quartiles(list(c.values()))
        delta = f"{(cm - pm) / abs(pm) * 100:+.1f}%" if pm else "n/a"
        spread = (f"{(p3 - p1) / abs(pm) * 100:.1f}/"
                  f"{(c3 - c1) / abs(cm) * 100:.1f}%" if pm and cm else "n/a")
        v = verdict(p, c, better.get(name, "higher"), bounds.get(name))
        if v == "regression":
            status = 1
        print(f"{workload:28} {name:30} "
              f"{f'{pm:.5g} [{p1:.5g}, {p3:.5g}]':34} "
              f"{f'{cm:.5g} [{c1:.5g}, {c3:.5g}]':34} {delta:>8} {spread:>13}"
              f"  {v}")
    return status


if __name__ == "__main__":
    sys.exit(main())
