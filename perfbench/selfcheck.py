"""Self-check of the benchmark.

    python3 perfbench/selfcheck.py

1. Every workload runs end to end at a short run length, traced and
   untraced; the metric names and units it prints are exactly those of
   BENCHMARK.json, every end-to-end value is above 0, no operation fails
   and the run is correct.
2. An answer perturbed by 1e-6 is caught by the reference check and counted
   as failed: values and Jacobians of in-process queries, a local inverse,
   and CLI documents.
3. In a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.

Exits 0 when every check passes. Takes about two minutes.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import reference as ref  # noqa: E402
import run as bench_run  # noqa: E402
from steady import load_benchmark  # noqa: E402
from workloads import SPEC_DIR, CurveM1, Ledger, check_cli_document, schema_keys  # noqa: E402

PERTURBATION = 1e-6
SHORT_SECONDS = 1

failures: list[str] = []


def expect(condition, message):
    print(("ok    " if condition else "FAIL  ") + message, flush=True)
    if not condition:
        failures.append(message)


def check_short_runs(bench):
    wanted = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for w in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed", "1",
                   "--seconds", str(SHORT_SECONDS), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            label = f"{w} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{label} exits 0 (got {proc.returncode}: {proc.stderr.strip()})")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == wanted[trace], f"{label}: metric names and units match BENCHMARK.json")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{label}: correct, {result['attempted']} attempted, {result['failed']} failed")
            if trace == 0:
                expect(all(m["value"] > 0 for m in result["metrics"].values()),
                       f"{label}: every end-to-end value above 0")


def perturbed(fn, transform):
    def wrapper(*args, **kwargs):
        return transform(fn(*args, **kwargs))

    return wrapper


def check_perturbations(lib):
    SystemSolution = lib.dini.SystemSolution
    Vector, Matrix = lib.linalg.Vector, lib.linalg.Matrix
    bump_vector = lambda v: Vector([v[0] + PERTURBATION, *v[1:]])  # noqa: E731
    bump_matrix = lambda J: Matrix.from_rows(  # noqa: E731
        [[J.rows[0][0] + PERTURBATION, *J.rows[0][1:]], *J.rows[1:]]
    )

    for method, transform, kind in (
        ("solve_at", bump_vector, "query"),
        ("jacobian_at", bump_matrix, "jacobian"),
    ):
        ledger = Ledger()
        w = CurveM1(lib, ledger, seed=1)
        w.setup(1)
        original = getattr(SystemSolution, method)
        setattr(SystemSolution, method, perturbed(original, transform))
        try:
            w.run_round(0, in_process=False)
        finally:
            setattr(SystemSolution, method, original)
        expect(
            ledger.failed_by_kind[kind] == ledger.ops[kind] == 4
            and ledger.failed == ledger.wrong,
            f"{method} + 1e-6 on curve_m1: {ledger.failed} of {ledger.attempted} operations "
            f"counted failed, every {kind} among them",
        )

    F = lib.expr.parse(["x1^2 - x2^2", "2*x1*x2"], ["x1", "x2"])
    inv = lib.inverse.build_inverse(F, (1.0, 1.0))
    y = (0.05, 2.03)
    x, J = inv.invert_at(y), inv.inverse_jacobian_at(y)
    expect(ref.value_ok(x, ref.square_root, y) and ref.jacobian_ok(J.rows, ref.square_root, y),
           "square-map inverse matches the principal square root")
    expect(not ref.value_ok(bump_vector(x), ref.square_root, y)
           and not ref.jacobian_ok(bump_matrix(J).rows, ref.square_root, y),
           "square-map inverse + 1e-6 is rejected")

    quad = os.path.join(SPEC_DIR, "quad_pair.json")
    out = io.StringIO()
    code = lib.cli.main(["implicit", "--spec", quad, "--grid=0.95:1.05:3"], out=out)
    keys = schema_keys(ROOT, "implicit")
    doc = json.loads(out.getvalue())
    expect(code == 0 and check_cli_document(out.getvalue(), "implicit", keys, ref.quad_pair),
           "CLI implicit document passes its check")
    for field, edit in (
        ("value", lambda row: row["value"].__setitem__(0, row["value"][0] + PERTURBATION)),
        ("jacobian", lambda row: row["jacobian"][0].__setitem__(0, row["jacobian"][0][0] + PERTURBATION)),
    ):
        bad = json.loads(json.dumps(doc))
        edit(bad["results"][1])
        expect(not check_cli_document(json.dumps(bad), "implicit", keys, ref.quad_pair),
               f"CLI document with a {field} + 1e-6 is rejected")
    bad = dict(doc)
    del bad["box"]
    expect(not check_cli_document(json.dumps(bad), "implicit", keys, ref.quad_pair),
           "CLI document missing a schema field is rejected")


def check_without_sources():
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "curve_m1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without src/, run.py exits {proc.returncode} and prints no result")


def main() -> int:
    bench = load_benchmark()
    check_short_runs(bench)
    check_perturbations(bench_run.load_library())
    check_without_sources()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
