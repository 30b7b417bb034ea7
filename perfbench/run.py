"""implisolve benchmark: one workload, one run.

    python3 perfbench/run.py --workload curve_m1 --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports implisolve from its
src/ directory. With --trace 0 it reports the end-to-end metrics, timed
with no tracing; with --trace 1 it installs the span tracer and reports
the per-layer metrics instead. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The line
before it ("detail: ...") gives per-kind figures for reading, not for
comparison. See README.md in this directory for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
from time import perf_counter
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
from workloads import REF_ITER_S, WORKLOADS, Ledger  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("round_ms_p50", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
# rounds whose traced counts are reported, so counts repeat exactly per seed
COUNT_ROUNDS = {"curve_m1": 2, "nested_m3": 1, "reseed_m2": 8, "cli": 1}
OVERHEAD_ROUNDS = 1  # rounds run untraced, then traced, to measure tracing cost


def load_library():
    """Import implisolve from this checkout's src/, or explain why not."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "implisolve", "__init__.py")):
        raise SystemExit(f"error: no implisolve sources under {src}")
    sys.path.insert(0, src)
    import implisolve

    if os.path.dirname(os.path.dirname(os.path.abspath(implisolve.__file__))) != src:
        raise SystemExit(f"error: imported implisolve from {implisolve.__file__}, not {src}")
    # by module path: the package re-exports linalg.inverse under the name
    # of the inverse module
    modules = ("cli", "config", "dini", "expr", "inverse", "linalg", "scalar_implicit", "verify")
    return SimpleNamespace(
        root=ROOT, **{m: importlib.import_module(f"implisolve.{m}") for m in modules}
    )


def _quantile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def kind_detail(ledger) -> dict:
    """Per-kind rate, and latency over the kept samples. A p99 is given
    only with at least 1100 samples, so that ten lie beyond it."""
    out = {}
    for kind, lat in sorted(ledger.latency.items()):
        out[f"{kind}_n"] = ledger.ops[kind]
        out[f"{kind}_per_s"] = ledger.ops[kind] / ledger.time[kind]
        out[f"{kind}_ms_p50"] = statistics.median(lat) * 1e3
        if len(lat) >= 1100:
            out[f"{kind}_ms_p99"] = _quantile(lat, 0.99) * 1e3
    return out


def measure(lib, workload, seed, seconds):
    ledger = Ledger(calibrate=True)
    try:
        w = WORKLOADS[workload](lib, ledger, seed)
        w.setup(w.setup_repeats)
        ops0, spent0 = ledger.attempted, ledger.spent
        end = perf_counter() + seconds
        i = 0
        while i == 0 or perf_counter() < end:
            w.run_round(i, in_process=False)
            i += 1
        w.finish()
    finally:
        ledger.close()
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": statistics.median(w.setup_samples) if w.setup_samples else 0.0,
        "round_ms_p50": statistics.median(w.round_times) * 1e3,
        "ops_per_s": (ledger.attempted - ops0) / (ledger.spent - spent0),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    speed = REF_ITER_S / statistics.median(ledger.speeds) if ledger.speeds else 0.0
    detail = dict(kind_detail(ledger), rounds=i, speed_vs_reference=speed, **w.detail)
    units = dict(END_TO_END)
    return ledger, [], {k: (metrics[k], units[k]) for k in units}, detail


def trace(lib, workload, seed, seconds):
    tr = tracing.Tracer()
    ledger = Ledger(tr)
    w = WORKLOADS[workload](lib, ledger, seed)
    tr.install(lib)
    w.setup(w.traced_setup_repeats)
    tr.uninstall()
    # tracing overhead: the same rounds untraced, then traced; subprocess
    # time is left out, since tracing does not reach into child processes
    spent = ledger.spent_in_process
    for i in range(OVERHEAD_ROUNDS):
        w.run_round(i, in_process=True)
    untraced = ledger.spent_in_process - spent
    tr.install(lib)
    count_rounds = max(COUNT_ROUNDS[workload], OVERHEAD_ROUNDS)
    end = perf_counter() + seconds
    i, traced = 0, 0.0
    while i < count_rounds or perf_counter() < end:
        tr.in_prefix = i < count_rounds
        spent = ledger.spent_in_process
        w.run_round(i, in_process=True)
        if i < OVERHEAD_ROUNDS:
            traced += ledger.spent_in_process - spent
        i += 1
    tr.in_prefix = True
    extra = w.finish(tr)
    tr.uninstall()
    extra.update(untraced_s=untraced, traced_s=traced)

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tr.write(os.path.join(out_dir, f"trace-{workload}-seed{seed}.json"))
    values = tracing.layer_metrics(tr, extra)
    detail = {"rounds": i, "trace_problems": tr.problems[:5]}
    return ledger, tr.problems, {k: (values[k], u) for k, u in tracing.PER_LAYER}, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    lib = load_library()
    run = trace if args.trace else measure
    ledger, problems, metrics, detail = run(lib, args.workload, args.seed, args.seconds)
    for message in ledger.errors:
        print(f"failed {message}", file=sys.stderr)
    for message in problems[:5]:
        print(f"trace: {message}", file=sys.stderr)
    detail.update(attempted=ledger.attempted, failed=ledger.failed)
    print("detail: " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": ledger.wrong == 0 and not problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
