#!/usr/bin/env python3
"""Steadiness check: runs the benchmark on each workload with several
seeds and reports, per end-to-end metric, the median, the quartiles and
the quartile spread as a share of the median, against the metric's bound
in BENCHMARK.json.

    python3 perfbench/steady.py [--seeds 10] [--first-seed 1]
        [--workloads trace_stream,paper_sweep,chaos_fork] [--trace 0|1]
        [--out perfbench/results/steadiness.json]

Run it from the repository root. With --trace 1 it reports the per-layer
metrics the same way (they have no bound).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return result, wall


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))

    report = {"seeds": seeds, "trace": args.trace, "run_seconds": bench["run_seconds"], "workloads": {}}
    worst = 0.0
    for w in workloads:
        values = {m["name"]: [] for m in metrics}
        walls, attempted = [], 0
        for seed in seeds:
            result, wall = run_once(bench, w, seed, args.trace)
            walls.append(wall)
            attempted += result["attempted"]
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
        print(f"\n== {w}: {len(seeds)} runs, {attempted} simulation runs attempted, 0 failed, "
              f"{min(walls):.1f}-{max(walls):.1f} s per run")
        print(f"{'metric':<44} {'unit':>7} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        rows = {}
        for m in metrics:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            rows[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                               "spread": spread, "bound": bound, "values": v}
            flag = ""
            if bound is not None and m["name"] != "setup_s":
                worst = max(worst, spread / bound)
                flag = "ok" if spread < bound / 3 else ("WIDE" if spread > bound else "near")
            print(f"{m['name']:<44} {m['unit']:>7} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.4f} {'' if bound is None else bound:>6} {flag}")
        report["workloads"][w] = {"run_wall_s": walls, "attempted": attempted, "metrics": rows}
    if not args.trace:
        print(f"\nworst spread / bound (setup_s excluded): {worst:.3f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
