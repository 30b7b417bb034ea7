"""Repeat workloads and report how steady each metric is.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workload NAME ...]
    python3 perfbench/steady.py --trace [--runs 2] [--workload NAME ...]

Without --trace, each workload runs --runs times untraced, each time with
the next seed, and every end-to-end metric of BENCHMARK.json is printed
with its median, quartiles (statistics.quantiles, n=4) and spread: the
distance between the quartiles as a share of the median. A spread below
a third of the metric's bound is "steady"; below the bound, "within". The
share of failed operations must be the same in every run. The bounds in
BENCHMARK.json were set from this command's output.

With --trace, each seed runs traced twice: every count metric must repeat
exactly, and the median of each per-layer metric is printed.

Runs go one at a time, as separate processes, so each has the machine
and its own memory peak. The summary is also written to
perfbench/out/steady-<mode>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 900


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload, seed, seconds, trace):
    """One run of run.py; its result object (the last stdout line)."""
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def untraced(bench, workloads, runs, first_seed, seconds):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary, ok = {}, True
    for w in workloads:
        results = []
        for i in range(runs):
            r = run_once(w, first_seed + i, seconds, False)
            results.append(r)
            print(f"  {w} seed {first_seed + i}: attempted {r['attempted']} failed {r['failed']} "
                  f"correct {r['correct']}", flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        ok &= correct and len(shares) == 1
        print(f"{w}: failed share {sorted(shares)}, correct {correct}")
        summary[w] = {"failed_share": sorted(shares), "correct": correct, "metrics": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, s = spread(values)
            verdict = "steady" if s < bound / 3 else ("within" if s <= bound else "UNSTEADY")
            ok &= verdict != "UNSTEADY" or name == "setup_s"
            summary[w]["metrics"][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": s, "bound": bound,
                "verdict": verdict, "values": values,
            }
            print(f"  {name:14s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
                  f"spread {s:6.3f}  bound {bound:5.2f}  {verdict}")
    return summary, ok


def traced(bench, workloads, runs, first_seed, seconds):
    summary, ok = {}, True
    for w in workloads:
        pairs = [
            (run_once(w, first_seed + i, seconds, True), run_once(w, first_seed + i, seconds, True))
            for i in range(runs)
        ]
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        moved = sorted(
            name for a, b in pairs for name, unit in units.items()
            if unit == "count" and a["metrics"][name]["value"] != b["metrics"][name]["value"]
        )
        correct = all(r["correct"] for pair in pairs for r in pair)
        ok &= correct and not moved
        print(f"{w}: counts {'repeat exactly' if not moved else 'MOVED: ' + ', '.join(moved)}, "
              f"correct {correct}")
        medians = {
            name: statistics.median(r["metrics"][name]["value"] for pair in pairs for r in pair)
            for name in units
        }
        for name, value in medians.items():
            if value:
                print(f"  {name:42s} {value:14.6g} {units[name]}")
        summary[w] = {"counts_moved": moved, "correct": correct, "medians": medians}
    return summary, ok


def main(argv=None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    mode = traced if args.trace else untraced
    summary, ok = mode(bench, args.workload or names, args.runs, args.first_seed, args.seconds)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"steady-{'trace' if args.trace else 'e2e'}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print(f"{'all steady' if ok else 'NOT STEADY'}; summary in {os.path.relpath(path, ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
