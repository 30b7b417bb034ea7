"""Command-line front end.

Three subcommands: `implicit` evaluates an implicitly defined function and
its Jacobian over query points or a grid, `invert` does the same for a
local inverse, and `verify` runs one of the lemma checks. Problems come
from a JSON spec file:

    {
      "functions": ["y1^2 + y2 - x - 1", "y1 + y2^2 - x - 1"],
      "variables": ["x", "y1", "y2"],
      "split_n": 1,
      "seed": [1.0, 1.0, 1.0],
      "options": {"h0": 0.5}
    }

Output is a single JSON document (or CSV rows with a header via --out csv
for the point-evaluating commands). Field names are pinned by
docs/output_schema.json. Runs are deterministic: identical spec and seed
produce byte-identical output. Exit codes: 0 full success, 1 spec error
(parse, seed, singularity), 2 per-point failures (itemized in the rows).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import math
import random
import sys
from dataclasses import dataclass
from typing import Sequence

from .config import SolverOptions
from .dini import build_system
from .errors import ExprSyntaxError, ImpliSolveError, UnknownIdentifier
from .expr import ExprFunction, parse
from .inverse import build_inverse
from .linalg import Matrix, identity
from .scalar_implicit import SplitPoint
from . import verify as verify_mod

_OPTION_KEYS = tuple(f.name for f in dataclasses.fields(SolverOptions))

# Most query points one run evaluates, --query and --grid together.
_MAX_POINTS = 100000


class SpecError(Exception):
    """Bad spec file or flag combination; maps to exit code 1."""


@dataclass(frozen=True)
class ProblemSpec:
    functions: tuple[str, ...]
    variables: tuple[str, ...]
    split_n: int | None
    seed: tuple[float, ...]
    options: dict


def load_spec(path: str) -> ProblemSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read spec file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec file is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise SpecError("spec file must hold a JSON object")
    for key in ("functions", "variables", "seed"):
        if key not in raw:
            raise SpecError(f"spec file missing required field '{key}'")
        if raw[key] == []:
            raise SpecError(f"spec field '{key}' must not be empty")
    for key in ("functions", "variables"):
        if not isinstance(raw[key], list) or not all(isinstance(v, str) for v in raw[key]):
            raise SpecError(f"spec field '{key}' must be a list of strings")
    split_n = raw.get("split_n")
    if split_n is not None and (isinstance(split_n, bool) or not isinstance(split_n, int)):
        raise SpecError("spec field 'split_n' must be an integer")
    seed = raw["seed"]
    if not isinstance(seed, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in seed
    ):
        raise SpecError("spec field 'seed' must be a list of numbers")
    options = raw.get("options", {})
    if not isinstance(options, dict):
        raise SpecError("spec field 'options' must be an object")
    unknown = set(options) - set(_OPTION_KEYS)
    if unknown:
        raise SpecError(f"unknown option keys: {sorted(unknown)}")
    return ProblemSpec(
        functions=tuple(raw["functions"]),
        variables=tuple(raw["variables"]),
        split_n=split_n,
        seed=_finite(seed, "spec field 'seed'"),
        options=options,
    )


def _parse_functions(spec: ProblemSpec) -> ExprFunction:
    """The spec's functions over its variables; a parse error names the
    function it is in, as functions[i]."""
    try:
        return parse(list(spec.functions), list(spec.variables))
    except (ExprSyntaxError, UnknownIdentifier) as exc:
        raise SpecError(f"functions[{exc.component}]: {exc}") from None


def _finite(values, what: str) -> tuple[float, ...]:
    values = tuple(float(v) for v in values)
    if not all(math.isfinite(v) for v in values):
        raise SpecError(f"{what} must be finite, got {list(values)}")
    return values


def _solver_options(spec: ProblemSpec, args) -> SolverOptions:
    merged = dict(spec.options)
    if args.tol_root is not None:
        merged["tol_root"] = args.tol_root
    if args.tol_sys is not None:
        merged["tol_sys"] = args.tol_sys
    if args.box_halfwidth is not None:
        parts = [float(v) for v in args.box_halfwidth.split(",")]
        if len(parts) == 1:
            merged["h0"] = parts[0]
        elif len(parts) == 2:
            merged["h0"], merged["h0_dep"] = parts
        else:
            raise SpecError("--box-halfwidth takes 'h' or 'h_indep,h_dep'")
    if args.grid_density is not None:
        merged["grid_density"] = args.grid_density
    try:
        return SolverOptions(**merged)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"bad solver options: {exc}") from None


def _parse_point(text: str) -> tuple[float, ...]:
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise SpecError(f"bad query '{text}': {exc}") from None
    return _finite(values, f"query '{text}'")


def _parse_grid_axis(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise SpecError(f"grid axis '{text}' is not 'lo:hi:steps'")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise SpecError(f"bad grid axis '{text}': {exc}") from None
    lo, hi = _finite((lo, hi), f"grid axis '{text}'")
    if steps < 1:
        raise SpecError("grid steps must be at least 1")
    return lo, hi, steps


def _grid_axis_values(lo: float, hi: float, steps: int) -> list[float]:
    if steps == 1:
        return [lo]
    return [lo + i * (hi - lo) / (steps - 1) for i in range(steps)]


def _collect_queries(args, dim: int) -> list[tuple[float, ...]]:
    points = [_parse_point(q) for q in args.query or []]
    for p in points:
        if len(p) != dim:
            raise SpecError(f"query {p} has dim {len(p)}, expected {dim}")
    if args.grid:
        if len(args.grid) != dim:
            raise SpecError(
                f"--grid given {len(args.grid)} axes, need exactly {dim}"
            )
        axes = [_parse_grid_axis(g) for g in args.grid]
        count = len(points) + math.prod(steps for _, _, steps in axes)
        if count > _MAX_POINTS:
            raise SpecError(f"{count} query points requested, at most {_MAX_POINTS} allowed")
        points.extend(itertools.product(*(_grid_axis_values(*axis) for axis in axes)))
    return points


def _parse_matrix(text: str) -> Matrix:
    try:
        rows = [[float(v) for v in row.split(",")] for row in text.split(";")]
        return Matrix.from_rows(rows)
    except (ValueError, ImpliSolveError) as exc:
        raise SpecError(f"bad matrix '{text}': {exc}") from None


def _json_default(obj):
    """What json cannot write itself: a Matrix as its rows, a report
    dataclass as its fields. Vector is a tuple, so it is written as a list."""
    if isinstance(obj, Matrix):
        return obj.to_lists()
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _emit_json(doc: dict, out) -> None:
    # serialize before writing: a non-finite value raises here and nothing
    # partial reaches the output
    out.write(json.dumps(doc, default=_json_default, sort_keys=True, indent=2, allow_nan=False))
    out.write("\n")


def _emit_csv(results: list[dict], n: int, m: int, out) -> None:
    """One row per point: n query columns, m values, the m x n Jacobian."""
    header = (
        [f"query_{i}" for i in range(n)]
        + [f"value_{i}" for i in range(m)]
        + [f"jac_{i}_{j}" for i in range(m) for j in range(n)]
        + ["residual", "ok", "error"]
    )
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in results:
        flat: list = list(row["query"])
        if row["ok"]:
            flat += list(row["value"])
            flat += [v for r in row["jacobian"] for v in r]
            flat += [row["residual"]]
        else:
            flat += [""] * (m + m * n + 1)
        flat += [row["ok"], row["error"] or ""]
        writer.writerow(flat)


def _evaluate_points(points, system) -> tuple[list[dict], bool]:
    """One row per point, each solved once: the value, the Jacobian at it,
    and the largest |component| of the system's F there. For invert, F is
    Phi(y; x) = F(x) - y, so the residual is |F(x) - y| and the Jacobian is
    JF(x)^-1."""
    results = []
    all_ok = True
    for point in points:
        row = {
            "query": list(point),
            "value": None,
            "jacobian": None,
            "residual": None,
            "ok": True,
            "error": None,
            "diagnostics": None,
        }
        try:
            value = system.solve_at(point)
            row["value"] = list(value)
            row["jacobian"] = system.jacobian_known(tuple(point), value).to_lists()
            row["residual"] = max(abs(r) for r in system.F.eval(tuple(point) + tuple(value)))
        except ImpliSolveError as exc:
            row["ok"] = False
            row["error"] = f"{type(exc).__name__}: {exc}"
            level = getattr(exc, "level", None)
            row["diagnostics"] = None if level is None else {"level": level}
            all_ok = False
        results.append(row)
    return results, all_ok


def _cmd_points(args, out) -> int:
    """implicit and invert: build once, then one row per query point."""
    spec = load_spec(args.spec)
    if args.command == "implicit" and spec.split_n is None:
        raise SpecError("implicit command needs 'split_n' in the spec file")
    options = _solver_options(spec, args)
    F = _parse_functions(spec)
    problem = {
        "functions": list(spec.functions),
        "variables": list(spec.variables),
        "seed": list(spec.seed),
    }
    if args.command == "implicit":
        seed = SplitPoint.from_flat(spec.seed, spec.split_n)
        system = build_system(F, seed, options)
        problem["split_n"] = seed.n
    else:
        local = build_inverse(F, spec.seed, options)
        system = local.system
        problem["image_seed"] = list(local.q)
    n, m = system.n, system.m

    points = _collect_queries(args, n)
    results, all_ok = _evaluate_points(points, system)
    if args.out == "csv":
        _emit_csv(results, n, m, out)
    else:
        doc = {
            "command": args.command,
            "problem": problem,
            "box": system.box_metadata(),
            "results": results,
            "passed": all_ok,
        }
        _emit_json(doc, out)
    return 0 if all_ok else 2


def _cmd_verify(args, out) -> int:
    # a check of nothing would report that it passed
    for flag in ("trials", "samples"):
        if getattr(args, flag) < 1:
            raise SpecError(f"--{flag} must be at least 1, got {getattr(args, flag)}")
    if not 0 < args.radius < math.inf:
        raise SpecError(f"--radius must be finite and positive, got {args.radius}")
    lemma = args.lemma
    rng_seed = args.seed
    if lemma == "lemma1":
        if args.matrix is None:
            raise SpecError("lemma1 needs --matrix")
        m = _parse_matrix(args.matrix)
        report = verify_mod.check_operator_bound(
            m, trials=args.trials, rng_seed=rng_seed
        )
        passed = report.passed
    else:
        if args.spec is None:
            raise SpecError(f"{lemma} needs --spec")
        spec = load_spec(args.spec)
        F = _parse_functions(spec)
        if lemma == "lemma2":
            n = F.n_inputs
            if len(spec.seed) != n:
                raise SpecError(f"lemma2 seed must have dim {n}")
            m = _parse_matrix(args.matrix) if args.matrix else identity(n)
            rng = random.Random(rng_seed)
            samples = [
                tuple(rng.uniform(-1.0, 1.0) for _ in range(m.n_cols))
                for _ in range(args.samples)
            ]
            report = verify_mod.check_chain_rule(F, m, spec.seed, samples)
            passed = report.passed
        elif lemma == "lemma3":
            queries = [_parse_point(q) for q in args.query or []]
            if len(queries) != 2:
                raise SpecError("lemma3 needs exactly two --query points (a and b)")
            report = verify_mod.mvt_witness(F, queries[0], queries[1])
            passed = report.found
        else:
            _, report = verify_mod.injectivity_radius(
                F,
                spec.seed,
                r0=args.radius,
                tuple_samples=args.samples,
                pair_samples=args.samples,
                rng_seed=rng_seed,
            )
            passed = report.passed
    doc = {
        "command": "verify",
        "lemma": lemma,
        "rng_seed": rng_seed,
        "report": report,
        "passed": passed,
    }
    _emit_json(doc, out)
    return 0 if passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="implisolve",
        description="Implicit- and inverse-function solver on validated boxes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spec_required=True):
        p.add_argument("--spec", required=spec_required, help="JSON problem file")
        p.add_argument("--query", action="append", help="point 'v1,v2,...' (repeatable)")
        p.add_argument("--grid", action="append", help="axis 'lo:hi:steps' (one per independent axis)")
        p.add_argument("--out", choices=("json", "csv"), default="json")
        p.add_argument("--tol-root", type=float, dest="tol_root")
        p.add_argument("--tol-sys", type=float, dest="tol_sys")
        p.add_argument("--seed", type=int, default=0, help="random seed for sampling checks")
        p.add_argument("--box-halfwidth", dest="box_halfwidth", help="'h' or 'h_indep,h_dep'")
        p.add_argument("--grid-density", type=int, dest="grid_density")

    p_impl = sub.add_parser("implicit", help="evaluate an implicit function")
    common(p_impl)
    p_inv = sub.add_parser("invert", help="evaluate a local inverse")
    common(p_inv)
    p_ver = sub.add_parser("verify", help="run a lemma check")
    common(p_ver, spec_required=False)
    p_ver.add_argument(
        "--lemma",
        required=True,
        choices=("lemma1", "lemma2", "lemma3", "lemma4"),
    )
    p_ver.add_argument("--matrix", help="rows 'a,b;c,d'")
    p_ver.add_argument("--trials", type=int, default=1000)
    p_ver.add_argument("--samples", type=int, default=2000)
    p_ver.add_argument("--radius", type=float, default=0.5)
    return parser


def main(argv: Sequence[str] | None = None, out=None) -> int:
    args = _build_parser().parse_args(argv)
    out = out if out is not None else sys.stdout
    try:
        if args.command == "verify":
            return _cmd_verify(args, out)
        return _cmd_points(args, out)
    except (SpecError, ImpliSolveError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
