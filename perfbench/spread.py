#!/usr/bin/env python3
"""Run-to-run spread of perfbench's end-to-end metrics.

Runs every named workload once per seed, from the repository root, and
prints for each end-to-end metric the median of the runs and the spread
(Q3 - Q1) / median, with Q1 and Q3 from statistics.quantiles(n=4).  With
--record it also writes the runs and spreads as JSON.

    python3 perfbench/spread.py --seeds 101-110 --record /tmp/spread.json
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["notes"] = [l[2:] for l in lines if l.startswith("# ")]
    host = lines[0].split("host ", 1)[-1] if lines[0].startswith("#") else ""
    return result, host


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--record", help="write the runs and spreads to this JSON file")
    args = ap.parse_args()

    record = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            result, host = run_once(workload, seed, args.seconds)
            record["host"] = host
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
            runs.append({"seed": seed, "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                         "notes": result["notes"][1:]})
            print(f"{workload} seed {seed} done", file=sys.stderr)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name] for r in runs]
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4)
            summary[name] = {"median": med, "spread": (q[2] - q[0]) / med}
            print(f"{workload:14s} {name:14s} median {med:12.6g}  spread {summary[name]['spread']:.3f}")
        record["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.record:
        with open(args.record, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
