#!/usr/bin/env python3
"""Compare the benchmark records of a parent commit and a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--layers]

Each directory holds the records run.py writes to perfbench/results/
(one file per workload, seed and trace mode). Runs of the two sides
are paired by workload and seed. For every end-to-end metric and
workload the command prints one verdict:

  better      the change's median beats the parent's by more than the
              parent's own quartile spread, and the change wins at
              least nine tenths of the pairs;
  worse       the change's median is worse than the parent's by more
              than the metric's bound in BENCHMARK.json;
  unresolved  either side's quartile spread is wider than the bound
              and not every change run beats every parent run;
  unchanged   otherwise.

It also prints the share of pairs the change won (ties count for
neither side). With --layers it lists the per-layer medians of the
traced records side by side, without verdicts: layer metrics have no
bound and explain where a difference comes from.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory, trace):
    runs = {}
    for path in glob.glob(os.path.join(directory, "*.json")):
        with open(path) as f:
            r = json.load(f)
        if r.get("trace") == trace:
            runs[(r["workload"], r["seed"])] = r
    return runs


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(parent, change, better, bound):
    """Verdict, both medians and pairs won; parent/change are paired by
    index."""
    sign = -1.0 if better == "lower" else 1.0
    mp, mc = statistics.median(parent), statistics.median(change)
    gain = sign * (mc - mp) / mp if mp else 0.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if mp and max(iqr(parent), iqr(change)) / mp > bound and not all_better:
        v = "unresolved"
    elif gain > 0 and abs(mc - mp) > iqr(parent) and wins >= 0.9 * len(parent):
        v = "better"
    elif gain < -bound:
        v = "worse"
    else:
        v = "unchanged"
    return v, mp, mc, wins


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--layers", action="store_true", help="also list per-layer medians")
    args = ap.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    parent, change = load(args.parent, 0), load(args.change, 0)
    keys = sorted(set(parent) & set(change))
    if not keys:
        sys.exit("compare: no (workload, seed) runs present on both sides")
    print(f"{'metric':18s} {'workload':12s} {'parent':>12s} {'change':>12s} "
          f"{'change%':>8s} {'won':>7s}  verdict")
    pairs = won = 0
    for m in spec["end_to_end"]:
        for w in sorted({k[0] for k in keys}):
            seeds = [k for k in keys if k[0] == w]
            p = [parent[k]["metrics"][m["name"]]["value"] for k in seeds]
            c = [change[k]["metrics"][m["name"]]["value"] for k in seeds]
            v, mp, mc, wins = verdict(p, c, m["better"], m["bound"])
            pct = 100.0 * (mc - mp) / mp if mp else 0.0
            print(f"{m['name']:18s} {w:12s} {mp:12.6g} {mc:12.6g} {pct:+8.2f} "
                  f"{wins:3d}/{len(seeds):<3d}  {v}")
            pairs += len(seeds)
            won += wins
    print(f"pairs won by the change: {won}/{pairs} = {won / pairs:.3f}")
    if args.layers:
        tp, tc = load(args.parent, 1), load(args.change, 1)
        for w in sorted({k[0] for k in set(tp) & set(tc)}):
            seeds = sorted(k for k in set(tp) & set(tc) if k[0] == w)
            names = sorted(set.intersection(*(set(tp[k]["metrics"]) & set(tc[k]["metrics"])
                                              for k in seeds)))
            print(f"\nper-layer medians, {w} ({len(seeds)} seeds)")
            for n in names:
                mp = statistics.median(tp[k]["metrics"][n]["value"] for k in seeds)
                mc = statistics.median(tc[k]["metrics"][n]["value"] for k in seeds)
                pct = f"{100.0 * (mc - mp) / mp:+8.2f}%" if mp else ""
                print(f"  {n:32s} {mp:14.6g} {mc:14.6g} {pct}")


if __name__ == "__main__":
    main()
