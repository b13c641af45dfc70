#!/usr/bin/env python3
"""Run each workload at ten seeds and print, per end-to-end metric, the
median and the interquartile range as a share of it -- the figure the
driver holds against the metric's bound.

    python3 benchmark/spread.py [--seconds S] [--runs N] [--out FILE] [WORKLOAD ...]

Run from the repository root. Every run is appended to FILE (default
benchmark/out/spread.jsonl) as one JSON line, so two sets can be compared.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=int, default=MANIFEST["run_seconds"])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default=str(ROOT / "benchmark/out/spread.jsonl"))
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    names = args.workloads or [w["name"] for w in MANIFEST["workloads"]]
    bounds = {m["name"]: m["bound"] for m in MANIFEST["end_to_end"]}
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    worst = 0.0
    for workload in names:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = MANIFEST["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0",
            ]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed} is not correct: {result}")
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload}: {args.runs} seeds, {args.seconds} s")
        for name, xs in values.items():
            q1, _, q3 = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            spread = (q3 - q1) / med
            share = spread / bounds[name]
            if name != "setup_s":
                worst = max(worst, share)
            print(f"  {name:<24} median {med:>16.6f}  iqr/median {spread:8.4%}"
                  f"  bound {bounds[name]:6.1%}  ({share:5.2f} of bound)")
    print(f"largest spread, setup_s aside: {worst:.2f} of its bound (target < 0.33)")


if __name__ == "__main__":
    main()
