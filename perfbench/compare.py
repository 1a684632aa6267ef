#!/usr/bin/env python3
"""Compare benchmark results of a parent commit and a change.

    python3 perfbench/compare.py PARENT.json... -- CHANGE.json...

Each file is what `run.py ... --trace 0 --out FILE` wrote for one run.
Runs are grouped by workload and paired by seed.  For every (workload,
end-to-end metric of BENCHMARK.json) the script prints each side's
median, quartiles, min, max and run count, and a verdict:

  improved    at least 10 pairs, the change wins at least 9 in 10 of them
              (ties count for neither side), and the medians differ by more
              than the distance between the parent's quartiles
  regressed   the change's median is worse than the parent's by more than
              the metric's bound (a share of the parent's median)
  unresolved  neither, and the parent's own spread (quartile distance over
              median) is wider than the bound, unless every change run
              reads better than every parent run
  unchanged   otherwise

The exit code is 1 when any row regressed.
"""

import json
import os
import statistics
import sys

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "BENCHMARK.json")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(paths):
    """{workload: {seed: metrics}} from result files."""
    runs = {}
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        meta, metrics = doc["meta"], doc["result"]["metrics"]
        runs.setdefault(meta["workload"], {})[meta["seed"]] = {
            name: m["value"] for name, m in metrics.items()}
    return runs


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "n": len(values)}


def describe(s):
    return "%.4g [%.4g %.4g] (%.4g %.4g %d)" % (
        s["median"], s["q1"], s["q3"], s["min"], s["max"], s["n"])


def verdict(parent, change, pairs, bound, lower_better):
    better = (lambda a, b: a < b) if lower_better else (lambda a, b: a > b)
    p, c = summary(parent), summary(change)
    wins = sum(1 for a, b in pairs if better(b, a))
    gap = c["median"] - p["median"]
    worse_by = gap if lower_better else -gap
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and worse_by < 0 and abs(gap) > p["q3"] - p["q1"]):
        return "improved", wins
    if worse_by > bound * abs(p["median"]):
        return "regressed", wins
    spread = (p["q3"] - p["q1"]) / abs(p["median"]) if p["median"] else 0.0
    if spread > bound and not all(better(b, a) for a in parent for b in change):
        return "unresolved", wins
    return "unchanged", wins


def main(argv):
    if "--" not in argv:
        sys.stderr.write(__doc__)
        return 2
    cut = argv.index("--")
    parent, change = load(argv[:cut]), load(argv[cut + 1:])
    with open(SPEC) as f:
        metrics = json.load(f)["end_to_end"]
    fmt = "%-8s %-14s %-44s %-44s %5s %5s  %s"
    print(fmt % ("workload", "metric", "parent median [q1 q3] (min max n)",
                 "change median [q1 q3] (min max n)", "pairs", "wins",
                 "verdict"))
    regressed = False
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        seeds = sorted(set(p_runs) & set(c_runs))
        for m in metrics:
            name = m["name"]
            p_vals = [r[name] for r in p_runs.values()]
            c_vals = [r[name] for r in c_runs.values()]
            pairs = [(p_runs[s][name], c_runs[s][name]) for s in seeds]
            v, wins = verdict(p_vals, c_vals, pairs, m["bound"],
                              m["better"] == "lower")
            regressed = regressed or v == "regressed"
            print(fmt % (workload, name, describe(summary(p_vals)),
                         describe(summary(c_vals)), len(pairs), wins, v))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
