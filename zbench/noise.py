#!/usr/bin/env python3
"""Noise floor of the benchmark.

    zbench/run.sh --repeat N [--seed S] [--workload W] [--out FILE] [--against FILE]

Runs every workload N times, each time with another seed (S, S+1, ...),
and prints for each end-to-end metric its min / median / max and its
spread: the distance between the first and third quartile of the N values
(`statistics.quantiles(values, n=4)`) as a share of their median. A metric
is steady when its spread is below a third of its bound in BENCHMARK.json;
one whose spread exceeds its bound must be demoted to a per-layer metric
before the file is committed. The record goes to NOISE.json; `--against`
compares medians with an earlier record (the second median may not be
worse than the first by more than the bound).
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    cmd = ["bash", str(HERE / "run.sh"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out", default=str(HERE / "NOISE.json"))
    ap.add_argument("--against")
    args = ap.parse_args()
    if args.repeat < 2:
        sys.exit("--repeat needs at least 2 runs to have quartiles")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    earlier = json.loads(pathlib.Path(args.against).read_text()) if args.against else None

    record = {"repeat": args.repeat, "first_seed": args.seed,
              "run_seconds": bench["run_seconds"], "workloads": {}}
    worst = 0.0
    for workload in workloads:
        runs = []
        for i in range(args.repeat):
            began = time.time()
            runs.append(run_once(workload, args.seed + i, bench["run_seconds"]))
            print(f"{workload} seed {args.seed + i}: {time.time() - began:.1f} s", file=sys.stderr)
        print(f"\n{workload}: {args.repeat} runs")
        print(f"  {'metric':<28} {'min':>14} {'median':>14} {'max':>14} {'spread':>8} {'bound':>6} {'spread/bound':>12}")
        summary = {}
        for name, spec in bounds.items():
            values = [run[name] for run in runs]
            med = statistics.median(values)
            sp = spread(values)
            ratio = sp / spec["bound"] if spec["bound"] else (0.0 if sp == 0 else float("inf"))
            flag = "" if ratio < 1 / 3 else ("  > bound/3" if ratio <= 1 else "  DEMOTE: spread exceeds bound")
            if name != "setup_s":
                worst = max(worst, ratio)
            line = f"  {name:<28} {min(values):>14.6g} {med:>14.6g} {max(values):>14.6g} {sp:>8.4f} {spec['bound']:>6} {ratio:>12.2f}{flag}"
            summary[name] = {"values": values, "min": min(values), "median": med,
                             "max": max(values), "spread": sp, "bound": spec["bound"]}
            if earlier and workload in earlier["workloads"]:
                before = earlier["workloads"][workload][name]["median"]
                worse = (med - before) / before if spec["better"] == "lower" else (before - med) / before
                summary[name]["earlier_median"] = before
                summary[name]["shift_vs_earlier"] = worse
                line += f"  shift {worse:+.4f}" + ("  REGRESSED" if worse > spec["bound"] else "")
            print(line)
        record["workloads"][workload] = summary
    pathlib.Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(f"\nworst spread/bound (setup_s aside): {worst:.2f}; record written to {args.out}")


if __name__ == "__main__":
    main()
