#!/usr/bin/env python3
"""Served-search benchmark runner.

One run (what BENCHMARK.json's command does):

    python3 servebench/run.py --workload paper_search --seed 1 --seconds 10 --trace 0

builds the release `mileena-server` binary and the benchmark from source
(into $CARGO_TARGET_DIR, default `.bench_build`), then runs one workload.
The last stdout line is the JSON result.

Repeat mode, for setting bounds and for paired comparisons:

    python3 servebench/run.py repeat --runs 5 [--workloads a,b] [--seconds 10]
        [--trace 0] [--seed 1] [--baseline /path/to/other/checkout] [--values]

runs each workload `--runs` times with seeds seed, seed+1, ... and prints
each metric's median, quartiles and spread (IQR / median). With
`--baseline`, every seed runs on both checkouts, alternating which goes
first, and the table adds the change of the medians and the pairs won.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["paper_search", "private_repeat", "ingest_sharded"]
# A single run must end well inside the harness's 180 s limit.
RUN_TIMEOUT_S = 170


def target_dir(root):
    raw = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(raw)
    return path if path.is_absolute() else root / path


def build(root):
    """Build the server and the benchmark; returns the target directory."""
    target = target_dir(root)
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "mileena-server"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(root / "servebench" / "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"servebench: build failed: {' '.join(cmd)}")
    return target


def source_rev(root):
    """The git revision, or a hash of the source tree outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    roots = [root / "Cargo.toml", root / "Cargo.lock", root / "crates", root / "src",
             root / "shims", root / "servebench"]
    files = []
    for r in roots:
        if r.is_file():
            files.append(r)
        elif r.is_dir():
            files.extend(p for p in r.rglob("*") if p.is_file() and "target" not in p.parts)
    for p in sorted(files):
        digest.update(str(p.relative_to(root)).encode())
        digest.update(p.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def rustc_version():
    try:
        return subprocess.run(["rustc", "--version"], capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run_once(args):
    target = build(ROOT)
    cmd = [str(target / "release" / "servebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", str(target / "release" / "mileena-server"),
           "--rustc", rustc_version(), "--rev", source_rev(ROOT)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"servebench: run exceeded {RUN_TIMEOUT_S} s")
    return done.returncode


# ---- repeat mode -------------------------------------------------------------

def one_result(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, str(Path(checkout) / "servebench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        sys.exit(f"servebench: {workload} seed {seed} failed in {checkout}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        print(f"  !! {workload} seed {seed} ({checkout}): failed {result['failed']}"
              f"/{result['attempted']}")
        for line in lines:
            if line.startswith("# FAILED"):
                print("  " + line)
    return result


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / abs(med) if med else float("inf")


def directions(root):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"] + spec["per_layer"]}


def repeat(args):
    sides = [("change", ROOT)] + ([("baseline", Path(args.baseline).resolve())]
                                  if args.baseline else [])
    better = directions(ROOT)
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    for workload in workloads:
        results = {name: [] for name, _ in sides}
        for i in range(args.runs):
            seed = args.seed + i
            order = sides if i % 2 == 0 else list(reversed(sides))
            for name, checkout in order:
                results[name].append(one_result(checkout, workload, seed, args.seconds, args.trace))
        print(f"\n== {workload}: {args.runs} runs, seeds {args.seed}..{args.seed + args.runs - 1}, "
              f"{args.seconds} s, trace {args.trace}")
        metrics = list(results["change"][0]["metrics"])
        head = f"{'metric':34} {'unit':>6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}"
        if args.baseline:
            head += f" {'base median':>12} {'change':>8} {'wins':>6}"
        print(head)
        for m in metrics:
            vals = [r["metrics"][m]["value"] for r in results["change"]]
            unit = results["change"][0]["metrics"][m]["unit"]
            q1, med, q3, sp = spread(vals)
            row = f"{m:34} {unit:>6} {med:12.4f} {q1:12.4f} {q3:12.4f} {sp:7.3f}"
            if args.baseline:
                base = [r["metrics"][m]["value"] for r in results["baseline"]]
                bmed = statistics.median(base)
                lower = better.get(m, ("lower", None))[0] == "lower"
                wins = sum((c < b) if lower else (c > b) for c, b in zip(vals, base))
                change = (med - bmed) / abs(bmed) if bmed else float("nan")
                row += f" {bmed:12.4f} {change:+8.3f} {wins:>3}/{len(vals)}"
            if args.values:
                row += "  [" + " ".join(f"{v:.4g}" for v in vals) + "]"
            print(row)
        failed = sum(r["failed"] for r in results["change"])
        attempted = sum(r["attempted"] for r in results["change"])
        print(f"failed {failed}/{attempted} operations over the runs")


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "repeat":
        p = argparse.ArgumentParser(prog="run.py repeat")
        p.add_argument("--runs", type=int, default=5)
        p.add_argument("--workloads", default="")
        p.add_argument("--seconds", type=int, default=10)
        p.add_argument("--trace", type=int, default=0, choices=[0, 1])
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--baseline", default="")
        p.add_argument("--values", action="store_true", help="also list every run's value")
        repeat(p.parse_args(sys.argv[2:]))
        return 0
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    return run_once(p.parse_args())


if __name__ == "__main__":
    sys.exit(main())
