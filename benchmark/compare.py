#!/usr/bin/env python3
"""Compare benchmark result files (run.py --out) of two commits.

    compare.py --parent P1.jsonl P2.jsonl ... --change C1.jsonl C2.jsonl ...
    compare.py --same --parent A1.jsonl ... --change B1.jsonl ...

Files are paired by position: run the pairs alternately (parent first, then
change first, ...) with the same --seconds. For every workload and
end-to-end metric it prints both sides' medians and quartiles, the share of
pairs the change wins and a verdict:

  gain          at least 10 pairs, the change wins at least 9 of 10 of them
                and the medians differ by more than the parent's
                interquartile range (with fewer pairs: "too few pairs")
  regression    the change's median is worse than the parent's by more than
                the bound, and either every change run is worse than every
                parent run or the parent's spread is within the bound
  unresolved    the parent's own spread is wider than the metric's bound and
                not every change run beats every parent run
  within bound  otherwise

It also compares the share of failed ops. With --same both sets come from
one commit, and every metric must agree within its bound. Results whose
crypto backend or build differ are refused. Exit code: 0 when nothing
regressed or is unresolved (with --same: everything agrees), 1 on a
regression or disagreement, 2 when refused, 3 when some verdict is
unresolved and none is a regression.
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Manifest fields that must match for two results to be comparable.
BUILD_KEYS = ("backend", "compiler", "build_type", "flags")
# A gain needs 9 wins in 10 pairs; fewer pairs cannot show it.
MIN_PAIRS = 10


def load(path):
    """Returns (manifest, {workload: untraced result})."""
    with open(path) as f:
        lines = [json.loads(line) for line in f if line.strip()]
    if not lines or not lines[0].get("manifest"):
        sys.exit("compare.py: %s does not start with a run manifest" % path)
    results = {r["workload"]: r for r in lines[1:] if not r.get("traced")}
    return lines[0], results


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def verdict(metric, parent, change, same):
    """Verdict for one workload x metric from paired value lists."""
    bound = metric["bound"]
    sign = 1 if metric["better"] == "higher" else -1
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    # Positive = the change is worse, as a share of the parent's median.
    worse = -sign * (cm - pm) / pm if pm else 0.0
    if same:
        return ("agree" if abs(worse) <= bound else "DISAGREE"), worse, None
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    share = wins / len(parent)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    all_worse = all(sign * (c - p) < 0 for c in change for p in parent)
    if share >= 0.9 and sign * (cm - pm) > p3 - p1:
        if len(parent) < MIN_PAIRS:
            return "too few pairs for a gain", worse, share
        return "gain", worse, share
    # A parent spread wider than the bound hides a regression unless every
    # change run is worse than every parent run.
    noisy = pm and (p3 - p1) / pm > bound
    if worse > bound and (all_worse or not noisy):
        return "REGRESSION", worse, share
    if noisy and not all_better:
        return "UNRESOLVED", worse, share
    return "within bound", worse, share


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    ap.add_argument("--same", action="store_true",
                    help="both sets come from one commit")
    args = ap.parse_args()
    if len(args.parent) != len(args.change):
        sys.exit("compare.py: --parent and --change need the same number "
                 "of files (one per pair)")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    parent = [load(p) for p in args.parent]
    change = [load(c) for c in args.change]
    ref = parent[0][0]
    for path, (manifest, _) in zip(args.parent + args.change, parent + change):
        diff = [k for k in BUILD_KEYS if manifest.get(k) != ref.get(k)]
        if diff:
            print("compare.py: refusing to pair %s: %s differ from %s"
                  % (path, ", ".join(diff), args.parent[0]), file=sys.stderr)
            return 2

    bad = unresolved = False
    for w in (w["name"] for w in spec["workloads"]):
        sides = [[r[w] for _, r in parent if w in r],
                 [r[w] for _, r in change if w in r]]
        if not sides[0] or len(sides[0]) != len(sides[1]):
            continue
        failed = [sum(r["failed"] for r in side) /
                  max(1, sum(r["attempted"] for r in side)) for side in sides]
        more_failures = failed[1] > failed[0]
        print("%s (%d pairs)" % (w, len(sides[0])))
        print("  %-14s %12s %25s %12s %25s %6s  %s"
              % ("metric", "parent med", "parent q1..q3", "change med",
                 "change q1..q3", "wins", "verdict"))
        for metric in spec["end_to_end"]:
            vals = [[res["metrics"][metric["name"]]["value"] for res in side]
                    for side in sides]
            v, worse, share = verdict(metric, vals[0], vals[1], args.same)
            if v == "gain" and more_failures:
                v = "no gain: more ops failed"
            bad = bad or v in ("REGRESSION", "DISAGREE")
            unresolved = unresolved or v == "UNRESOLVED"
            (p1, pm, p3), (c1, cm, c3) = quartiles(vals[0]), quartiles(vals[1])
            print("  %-14s %12.5g %12.5g..%-12.5g %12.5g %12.5g..%-12.5g %6s  "
                  "%s (%+.1f%% worse, bound %.0f%%)"
                  % (metric["name"], pm, p1, p3, cm, c1, c3,
                     "-" if share is None else "%.0f%%" % (100 * share),
                     v, 100 * worse, 100 * metric["bound"]))
        bad = bad or (args.same and failed != [0.0, 0.0])
        print("  %-14s %12.3g %25s %12.3g %25s %6s  %s"
              % ("ops_failed", failed[0], "", failed[1], "", "",
                 "MORE FAILURES" if more_failures else "ok"))
    return 1 if bad else 3 if unresolved else 0


if __name__ == "__main__":
    sys.exit(main())
