#!/usr/bin/env python3
"""A/B of the repository benchmark: a base revision against
the working tree, in interleaved pairs.

    python3 scripts/perf_ab.py --base <rev> [--pairs 10] [--seed 11]
        [--seconds 30] [--workloads trace_stream,paper_sweep,chaos_fork]
        [--trace 0|1] [--build-dir .bench_build]
        [--out ab.json]

Run it from the repository root. The base revision is exported with
`git archive` into `<build-dir>/<rev>/` (an exact tree of that commit,
no worktree registration to prune) and its `perfbench` is built there
with its own target directory (the export lands in a temporary directory
that is renamed into place only once complete, so an interrupted export
is never reused); the working tree's `perfbench` is built
in place. Both are built once with `cargo build --release`, then run
directly, each from the root of its own tree, with the same flags.

Each workload runs `--pairs` pairs. Pair i runs the base first when i is
even and the change first when it is odd. The report gives, per metric,
each side's median and quartiles and the ratio of medians; the pairs
the change won and lost in the metric's `better` direction from
BENCHMARK.json (ties count for neither); and a verdict: `better` or
`worse` when the medians differ by more than the base's quartile
distance in that direction, else `same`. It also says whether every
`sim_*` value (with `--trace 1`, every count) matched pair for pair;
if any did not, it exits 1 once the report (and `--out`) is written.
The run length defaults to BENCHMARK.json's `run_seconds`. Nothing
under perfbench/ and no BENCHMARK.json is changed.
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout.strip()


def build(root):
    """Builds `root`'s perfbench and returns the binary's path."""
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    subprocess.run(["cargo", "build", "--release", "--quiet", "--manifest-path", manifest], check=True)
    return os.path.join(root, "perfbench", "target", "release", "koala-perfbench")


def export_base(rev, build_dir):
    """Exports `rev`'s tree into `build_dir/<rev>` once and returns the path."""
    dest = os.path.join(build_dir, rev)
    if not os.path.isdir(dest):
        archive = subprocess.run(["git", "archive", "--format=tar", rev], check=True, capture_output=True).stdout
        tmp = dest + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
        os.rename(tmp, dest)
    return dest


def run_once(binary, root, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=max(900, 20 * seconds))
    if proc.returncode != 0:
        sys.exit(f"{binary} {workload}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{binary} {workload}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="base revision (commit, tag or branch)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=int, default=0, help="run length; 0 takes BENCHMARK.json's")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--build-dir", default=".bench_build")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    base_rev = git("rev-parse", "--verify", args.base + "^{commit}")
    dirty = "-dirty" if git("status", "--porcelain", "--untracked-files=no") else ""
    change_rev = git("rev-parse", "HEAD") + dirty

    base_root = export_base(base_rev, os.path.abspath(args.build_dir))
    sides = {"base": (build(base_root), base_root), "change": (build("."), ".")}

    report = {
        "base": base_rev,
        "change": change_rev,
        "hardware_threads": os.cpu_count(),
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "pairs": args.pairs,
        "workloads": {},
    }
    print(f"base {base_rev[:12]}  change {change_rev[:12]}{dirty}  hardware_threads {os.cpu_count()}  "
          f"seed {args.seed}  {seconds} s runs  {args.pairs} pairs  trace {args.trace}")
    for w in workloads:
        runs = {"base": [], "change": []}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                binary, root = sides[side]
                runs[side].append(run_once(binary, root, w, args.seed, seconds, args.trace))
            print(f"  {w} pair {i + 1}/{args.pairs}", flush=True)

        # Deterministic values must repeat run for run: sim_* always, and
        # every count with --trace 1.
        exact = [m["name"] for m in metrics if m["name"].startswith("sim_") or m.get("unit") == "count"]
        mismatched = sorted({k for b, c in zip(runs["base"], runs["change"]) for k in exact if b.get(k) != c.get(k)})

        rows = {}
        print(f"\n== {w}")
        print(f"{'metric':<40} {'base median':>13} {'q1':>11} {'q3':>11} {'change median':>14} {'q1':>11} "
              f"{'q3':>11} {'ratio':>7} {'won':>4} {'lost':>4}  verdict")
        for m in metrics:
            name = m["name"]
            b = [r[name] for r in runs["base"] if name in r]
            c = [r[name] for r in runs["change"] if name in r]
            if not b or not c:
                continue
            bq1, bmed, bq3 = quartiles(b)
            cq1, cmed, cq3 = quartiles(c)
            ratio = cmed / bmed if bmed else float("nan")
            # Signed so that a positive gain is an improvement.
            sign = 1 if better[name] == "higher" else -1
            won = sum(1 for x, y in zip(b, c) if sign * (y - x) > 0)
            lost = sum(1 for x, y in zip(b, c) if sign * (y - x) < 0)
            gain = sign * (cmed - bmed)
            verdict = "same" if abs(gain) <= bq3 - bq1 else ("better" if gain > 0 else "worse")
            rows[name] = {"base": {"median": bmed, "q1": bq1, "q3": bq3, "values": b},
                          "change": {"median": cmed, "q1": cq1, "q3": cq3, "values": c},
                          "ratio": ratio, "won": won, "lost": lost, "verdict": verdict}
            print(f"{name:<40} {bmed:>13.6g} {bq1:>11.6g} {bq3:>11.6g} {cmed:>14.6g} {cq1:>11.6g} "
                  f"{cq3:>11.6g} {ratio:>7.3f} {won:>4} {lost:>4}  {verdict}")
        print("deterministic values: " + ("all matched" if not mismatched else "MISMATCH in " + ", ".join(mismatched)))
        report["workloads"][w] = {"metrics": rows, "mismatched": mismatched}

    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    mismatched = [w for w, r in report["workloads"].items() if r["mismatched"]]
    if mismatched:
        sys.exit("deterministic values differ between base and change on " + ", ".join(mismatched))


if __name__ == "__main__":
    main()
