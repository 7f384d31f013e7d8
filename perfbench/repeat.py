"""Repeat benchmark runs on fresh seeds and report each metric's spread.

    python3 perfbench/repeat.py --workload verify-sweep --runs 10 [--first-seed 1]
        [--json perfbench/baseline.json]

Runs ``perfbench/run.py`` once per seed (one at a time), then prints, for
each metric, the median, the quartiles and the interquartile range as a
share of the median, next to the metric's bound from BENCHMARK.json. With
``--json`` the summary and the machine record are stored under the
workload's name in that file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="file to store the summary in")
    args = parser.parse_args()
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    values = {}
    machine = None
    for seed in range(args.first_seed, args.first_seed + args.runs):
        t0 = time.perf_counter()
        proc = subprocess.run(
            spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                               "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit code {proc.returncode}\n{proc.stderr}")
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        machine = next((json.loads(ln.split(" ", 1)[1]) for ln in lines
                        if ln.startswith("machine ")), machine)
        shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()
                 if bounds.get(k) is not None}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} run {elapsed:.1f} s {shown}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{'metric':<48} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
    summary = {}
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med if med else None
        bound = bounds.get(name)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "iqr_over_median": spread}
        print(f"{name:<48} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{'-' if spread is None else f'{spread:.3f}':>8} {'' if bound is None else bound:>6}")
    if args.json:
        stored = {}
        if os.path.exists(args.json):
            with open(args.json) as fh:
                stored = json.load(fh)
        key = args.workload + (" (traced)" if args.trace else "")
        stored[key] = {"machine": machine, "runs": args.runs,
                       "seeds": [args.first_seed, args.first_seed + args.runs - 1],
                       "metrics": summary}
        with open(args.json, "w") as fh:
            json.dump(stored, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
