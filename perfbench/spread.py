#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
spread: the distance between the first and third quartile of its values
(statistics.quantiles(values, n=4)) as a share of their median, next to
the metric's bound from BENCHMARK.json.

Run from the repository root:

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1,2,3] [--seconds N]

Each run is the BENCHMARK.json command with
`--workload W --seed S --seconds N --trace 0`.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for w in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in seeds:
            cmd = spec["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0",
            ]
            t0 = time.monotonic()
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            wall = time.monotonic() - t0
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{w} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{w} seed {seed} ({wall:.1f} s): " + " ".join(
                f"{n}={result['metrics'][n]['value']:.6g}" for n in bounds), flush=True)
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            worst = max(worst, spread / bounds[name])
            print(f"{w} {name}: median {med:.6g} spread {spread:.4f} "
                  f"bound {bounds[name]} ({spread / bounds[name]:.2f} of bound)")
    print(f"worst spread/bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
