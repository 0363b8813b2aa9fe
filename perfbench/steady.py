#!/usr/bin/env python3
"""Runs the benchmark several times per workload, one seed per run, and
prints each end-to-end metric's median and spread: the distance between
the first and third quartile as a share of the median, next to the bound
BENCHMARK.json fixes for it.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 [--workloads travel,readmix] [--first-seed 1]

With --json FILE it also writes every run's metrics there. With
--compare A.json B.json it runs nothing and prints, for two such files, each
metric's median in both, their spreads and the second median's change
against the first, as a share of the first, next to the bound.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", default="")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    if args.compare:
        return compare(bench, *args.compare)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    defs = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in defs}
    runs = {}
    ok = True
    for name in names:
        runs[name] = []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            p = subprocess.run(cmd, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}", file=sys.stderr)
                ok = False
                continue
            res = json.loads(lines[-1])
            runs[name].append({k: v["value"] for k, v in res["metrics"].items()})
            print(f"{name} seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in sorted(runs[name][-1].items())
                                                     if args.trace == 0), file=sys.stderr)
        print(f"\n{name} ({len(runs[name])} runs)")
        print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for m in defs:
            vals = [r[m["name"]] for r in runs[name] if m["name"] in r]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            b = bounds[m["name"]]
            flag = "" if b is None or spread < b / 3 else ("  > bound/3" if spread < b else "  > BOUND")
            print(f"  {m['name']:34s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} "
                  f"{'' if b is None else b:>6}{flag}")
    if args.json:
        json.dump(runs, open(args.json, "w"), indent=1)
    return 0 if ok else 1


def spread(vals):
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return med, (q3 - q1) / med if med else float("nan")


def compare(bench, a_path, b_path):
    a, b = json.load(open(a_path)), json.load(open(b_path))
    ok = True
    print("| workload | metric | median A | spread A | median B | spread B | B vs A | bound |")
    print("|---|---|---|---|---|---|---|---|")
    for w in bench["workloads"]:
        name = w["name"]
        for m in bench["end_to_end"]:
            va = [r[m["name"]] for r in a.get(name, []) if m["name"] in r]
            vb = [r[m["name"]] for r in b.get(name, []) if m["name"] in r]
            if len(va) < 2 or len(vb) < 2:
                continue
            (ma, sa), (mb, sb) = spread(va), spread(vb)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            bad = max(sa, sb) > m["bound"] or worse > m["bound"]
            ok = ok and not bad
            print(f"| {name} | {m['name']} | {ma:.4g} | {sa:.3f} | {mb:.4g} | {sb:.3f} | "
                  f"{(mb - ma) / ma:+.3f} | {m['bound']}{' **over**' if bad else ''} |")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
