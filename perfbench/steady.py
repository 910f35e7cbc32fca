#!/usr/bin/env python3
"""Steadiness check: runs every workload twice over the same ten seeds and
sets each end-to-end metric's spread and drift beside its bound.

    python3 perfbench/steady.py [workload ...]

Set A runs every named workload on seeds 1..10, then set B runs them all
again on the same seeds, so minutes pass between a run and its repeat. For
each metric and workload it prints:

- the median of each set and its spread, (Q3 - Q1) / median with the
  quartiles of statistics.quantiles(values, n=4);
- the drift, B's median against A's, signed so that a positive value means
  B is worse;
- the values of each set by seed, to show a slow phase of the host.

A metric passes when both spreads and the drift are within its bound from
BENCHMARK.json. The simulated metrics (sim_slowdown, cache_kb) must also be
identical seed for seed. Exits 1 if any check fails. Run from the root of a
checkout.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)
SETS = ("A", "B")
EXACT = ("sim_slowdown", "cache_kb")


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def spread(vals):
    q = statistics.quantiles(vals, n=4)
    return (q[2] - q[0]) / statistics.median(vals)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = sys.argv[1:] or [w["name"] for w in bench["workloads"]]
    results = {}
    for s in SETS:
        for workload in names:
            for seed in SEEDS:
                r = run_once(bench, workload, seed)
                results[s, workload, seed] = r
                print("set %s %s seed %d: attempted %d failed %d correct %s" %
                      (s, workload, seed, r["attempted"], r["failed"],
                       r["correct"]), flush=True)

    ok = all(r["correct"] for r in results.values())
    print("%-8s %-14s %12s %7s %12s %7s %7s %7s" %
          ("workload", "metric", "median A", "spread", "median B", "spread",
           "drift", "bound"))
    for workload in names:
        for m in bench["end_to_end"]:
            sets = [[results[s, workload, seed]["metrics"][m["name"]]["value"]
                     for seed in SEEDS] for s in SETS]
            meds = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            drift = (meds[1] - meds[0]) / meds[0]
            if m["better"] == "higher":
                drift = -drift
            bound = m["bound"]
            good = max(spreads) <= bound and drift <= bound
            if m["name"] in EXACT:
                good &= sets[0] == sets[1]
            ok &= good
            print("%-8s %-14s %12.4f %6.1f%% %12.4f %6.1f%% %+6.1f%% %6.1f%% %s"
                  % (workload, m["name"], meds[0], 100 * spreads[0], meds[1],
                     100 * spreads[1], 100 * drift, 100 * bound,
                     "" if good else "FAIL"))
            for s, vals in zip(SETS, sets):
                print("%25s %s" % (s, " ".join("%.4g" % v for v in vals)),
                      flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
