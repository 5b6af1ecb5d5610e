#!/usr/bin/env python3
"""Compare two sets of rarbench result files: a parent and a change.

    python3 rarbench/compare.py PARENT CHANGE [--json OUT]

PARENT and CHANGE are directories holding the untraced result JSON
files that `rarbench` writes (schema rarbench/1).
Runs pair up by (workload, seed). The comparator refuses (exit 2) when a
pair's input digests differ: the two sides did not run the same inputs.

One row per (metric, workload): each side's median and quartiles, the
share of pairs the change wins (ties count for neither side), and a
verdict:

  gain        the change wins at least 9/10 of the pairs and the medians
              differ, in the better direction, by more than the parent's
              interquartile range;
  unresolved  the parent's own spread is wider than the bound, and not
              every change run beats every parent run;
  regression  the change median is worse than the parent median by more
              than the bound from BENCHMARK.json, or the failed share of
              operations rose;
  ok          otherwise: within the bound.

Exit status 1 when any row is a regression, 0 otherwise.
"""

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_set(path):
    runs = {}
    for f in sorted(glob.glob(os.path.join(path, "*.json"))):
        with open(f) as fh:
            try:
                r = json.load(fh)
            except json.JSONDecodeError:
                continue
        if not isinstance(r, dict) or r.get("schema") != "rarbench/1" or r.get("trace"):
            continue
        runs.setdefault(r["workload"], {}).setdefault(r["seed"], []).append(r)
    return runs


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def check_digests(parent, change):
    bad = []
    for side in (parent, change):
        for w, by_seed in side.items():
            for seed, rs in by_seed.items():
                if any(r["digests"] != rs[0]["digests"] for r in rs):
                    bad.append(f"{w} seed {seed}: one side's runs saw different inputs")
    for w in set(parent) & set(change):
        for seed in set(parent[w]) & set(change[w]):
            if parent[w][seed][0]["digests"] != change[w][seed][0]["digests"]:
                bad.append(f"{w} seed {seed}: parent and change inputs differ")
    return bad


def compare(parent, change, bench):
    rows = []
    for w in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[w]) & set(change[w]))
        if not seeds:
            continue
        for m in bench["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            pv = [r["metrics"][name]["value"] for s in seeds for r in parent[w][s]]
            cv = [r["metrics"][name]["value"] for s in seeds for r in change[w][s]]
            pairs = [
                (statistics.median(r["metrics"][name]["value"] for r in parent[w][s]),
                 statistics.median(r["metrics"][name]["value"] for r in change[w][s]))
                for s in seeds
            ]
            wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
            pq1, pmed, pq3 = quartiles(pv)
            cq1, cmed, cq3 = quartiles(cv)
            iqr = pq3 - pq1
            gap = (pmed - cmed) if lower else (cmed - pmed)  # > 0: change better
            worse_by = -gap / abs(pmed) if pmed else 0.0
            all_better = all((c < p if lower else c > p) for p in pv for c in cv)
            if wins >= 0.9 * len(pairs) and gap > iqr:
                verdict = "gain"
            elif worse_by > bound:
                verdict = "regression"
            elif pmed and iqr / abs(pmed) > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append({
                "workload": w, "metric": name, "unit": m["unit"], "bound": bound,
                "pairs": len(pairs), "wins": wins,
                "parent": {"median": pmed, "q1": pq1, "q3": pq3, "values": pv},
                "change": {"median": cmed, "q1": cq1, "q3": cq3, "values": cv},
                "verdict": verdict,
            })
        frac = {}
        for label, side in (("parent", parent), ("change", change)):
            att = sum(r["attempted"] for s in seeds for r in side[w][s])
            fail = sum(r["failed"] for s in seeds for r in side[w][s])
            frac[label] = fail / att if att else 1.0
        rows.append({
            "workload": w, "metric": "fail_frac", "unit": "share", "bound": 0.0,
            "pairs": len(seeds), "wins": None,
            "parent": {"median": frac["parent"]}, "change": {"median": frac["change"]},
            "verdict": "regression" if frac["change"] > frac["parent"] else "ok",
        })
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--json", help="also write the rows to this file")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parent, change = load_set(args.parent), load_set(args.change)
    if not parent or not change:
        sys.exit("compare.py: no rarbench/1 result files in one of the sets")
    bad = check_digests(parent, change)
    if bad:
        print("compare.py: refusing to compare runs on different inputs:",
              file=sys.stderr)
        for b in bad:
            print("  " + b, file=sys.stderr)
        sys.exit(2)
    rows = compare(parent, change, bench)
    fmt = "{:<14} {:<12} {:>12} {:>25} {:>12} {:>25} {:>6} {:>6}  {}"
    print(fmt.format("workload", "metric", "parent p50", "parent q1..q3",
                     "change p50", "change q1..q3", "wins", "bound", "verdict"))
    for r in rows:
        p, c = r["parent"], r["change"]
        span = lambda s: f"{s['q1']:.6g}..{s['q3']:.6g}" if "q1" in s else ""
        wins = f"{r['wins']}/{r['pairs']}" if r["wins"] is not None else ""
        print(fmt.format(r["workload"], r["metric"], f"{p['median']:.6g}", span(p),
                         f"{c['median']:.6g}", span(c), wins, f"{r['bound']:g}",
                         r["verdict"]))
    if args.json:
        def host(side):
            runs = (r for w in side.values() for rs in w.values() for r in rs)
            return next(runs)["host"]
        doc = {"parent_host": host(parent), "change_host": host(change), "rows": rows}
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    sys.exit(1 if any(r["verdict"] == "regression" for r in rows) else 0)


if __name__ == "__main__":
    main()
