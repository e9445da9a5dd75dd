#!/usr/bin/env python3
"""Run the benchmark on several seeds and report how much each metric spreads.

From the root of a checkout:

    python3 vdbench/spread.py --workload stream-large --seeds 1-10

For every metric it prints the median over the runs and the spread:
the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to
the bound BENCHMARK.json gives it. --out FILE saves every run's result
line, so two sets of runs can be compared with --against FILE: each
metric's median is then also checked for having worsened by more than
its bound. Exits 1 if a spread (setup_s excepted) or a drift exceeds
its bound, or a run failed.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        ["python3", "vdbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit("run failed: seed %d exit %d" % (seed, proc.returncode))
    return json.loads(lines[-1])


def medians(runs):
    names = runs[0]["metrics"].keys()
    return {n: statistics.median(r["metrics"][n]["value"] for r in runs)
            for n in names}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--out")
    ap.add_argument("--against")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    spec = {m["name"]: m for m in bench["end_to_end"]}
    runs = []
    for seed in seeds_of(args.seeds):
        r = run_once(args.workload, seed, seconds, args.trace)
        runs.append(r)
        print("seed %d: correct=%s attempted=%d failed=%d" %
              (seed, r["correct"], r["attempted"], r["failed"]), flush=True)
    if args.out:
        json.dump(runs, open(args.out, "w"), indent=1)
    ok = all(r["correct"] for r in runs)
    base = medians(json.load(open(args.against))) if args.against else {}
    print("%-22s %14s %8s %6s %8s" % ("metric", "median", "spread", "bound",
                                       "drift"))
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med] * 3
        spread = (q[2] - q[0]) / med if med else float("inf")
        m = spec.get(name)
        bound = m["bound"] if m else None
        line = "%-22s %14.6g %8.4f %6s" % (name, med, spread,
                                          bound if bound else "-")
        if m and name != "setup_s" and spread > bound:
            ok = False
            line += "  SPREAD>BOUND"
        if m and name in base and base[name]:
            worse = (med - base[name]) / base[name]
            if m["better"] == "higher":
                worse = -worse
            line += " %8.4f" % worse
            if worse > bound:
                ok = False
                line += "  DRIFT>BOUND"
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
