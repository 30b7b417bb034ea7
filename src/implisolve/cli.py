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
(parse, seed, singularity) or usage error, such as a flag or spec field the
command or lemma does not read, on one line; 2 per-point failures
(itemized in rows).
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

# Most query points one run evaluates, --query and --grid together, and
# most verify --trials or --samples.
_MAX_POINTS = 100000

# The spec fields each command reads; any other field exits 1.
_SPEC_FIELDS = {
    "implicit": ("functions", "variables", "split_n", "seed", "options"),
    "invert": ("functions", "variables", "seed", "options"),
    "verify": ("functions", "variables", "seed"),
}


class SpecError(Exception):
    """Bad spec file or flag combination; maps to exit code 1."""


class _ArgParser(argparse.ArgumentParser):
    """A usage error exits 1 with one line, as every other rejected input
    does, instead of argparse's exit 2 and usage dump."""

    def error(self, message):
        raise SpecError(message)


def load_spec(
    path: str, command: str, needs_seed: bool = True
) -> tuple[ExprFunction, tuple[float, ...] | None, int | None, dict]:
    """The spec's functions parsed over its variables, its seed (None when
    absent and not needed), its split_n (None when absent) and its solver
    options. A parse error names the function it is in, as functions[i]; a
    field the command does not read is refused."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read spec file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec file is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise SpecError("spec file must hold a JSON object")
    for key in raw:
        if key not in _SPEC_FIELDS[command]:
            raise SpecError(f"{command} does not read spec field '{key}'")
    for key in ("functions", "variables", "seed"):
        if key not in raw and (needs_seed or key != "seed"):
            raise SpecError(f"spec file missing required field '{key}'")
        if raw.get(key) == []:
            raise SpecError(f"spec field '{key}' must not be empty")
    for key in ("functions", "variables"):
        if not isinstance(raw[key], list) or not all(isinstance(v, str) for v in raw[key]):
            raise SpecError(f"spec field '{key}' must be a list of strings")
    split_n = raw.get("split_n")
    if split_n is not None and (isinstance(split_n, bool) or not isinstance(split_n, int)):
        raise SpecError("spec field 'split_n' must be an integer")
    seed = raw.get("seed", [])
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
    seed = _finite(seed, "spec field 'seed'") if "seed" in raw else None
    if seed is not None and len(seed) != len(raw["variables"]):
        raise SpecError(
            f"spec field 'seed' must have one value per variable "
            f"({len(raw['variables'])}), got {len(seed)}"
        )
    try:
        F = parse(raw["functions"], raw["variables"])
    except (ExprSyntaxError, UnknownIdentifier) as exc:
        raise SpecError(f"functions[{exc.component}]: {exc}") from None
    return F, seed, split_n, options


def _float(v) -> float:
    """v as a float, an integer beyond the float range as an infinity."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _finite(values, what: str) -> tuple[float, ...]:
    values = tuple(_float(v) for v in values)
    if not all(math.isfinite(v) for v in values):
        raise SpecError(f"{what} must be finite, got {list(values)}")
    return values


def _halfwidths(text: str) -> tuple[float, ...]:
    """--box-halfwidth: 'h', or 'h_indep,h_dep'."""
    try:
        parts = tuple(float(v) for v in text.split(","))
    except ValueError:
        parts = ()
    if len(parts) not in (1, 2):
        raise argparse.ArgumentTypeError(f"takes 'h' or 'h_indep,h_dep', got '{text}'")
    return parts


def _solver_options(options: dict, args) -> SolverOptions:
    merged = dict(options)
    for key in ("tol_root", "tol_sys", "grid_density"):
        if getattr(args, key) is not None:
            merged[key] = getattr(args, key)
    if args.box_halfwidth is not None:
        merged.update(zip(("h0", "h0_dep"), args.box_halfwidth))
    try:
        return SolverOptions(**merged)
    except ValueError as exc:
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
    """What json cannot write itself: a report dataclass as its fields.
    Vector is a tuple, so it is written as a list."""
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
    F, seed, split_n, options = load_spec(args.spec, args.command)
    if args.command == "implicit" and split_n is None:
        raise SpecError("implicit command needs 'split_n' in the spec file")
    options = _solver_options(options, args)
    problem = {
        "functions": list(F.source_text),
        "variables": list(F.variables),
        "seed": list(seed),
    }
    if args.command == "implicit":
        point = SplitPoint.from_flat(seed, split_n)
        system = build_system(F, point, options)
        problem["split_n"] = point.n
    else:
        local = build_inverse(F, seed, options)
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


# The verify flags each lemma reads. --seed is accepted by every lemma,
# since the output echoes it as rng_seed; any other flag is refused.
_LEMMA_FLAGS = {
    "lemma1": ("matrix", "trials"),
    "lemma2": ("spec", "matrix", "samples"),
    "lemma3": ("spec", "query"),
    "lemma4": ("spec", "samples", "radius"),
}
_VERIFY_DEFAULTS = {"trials": 1000, "samples": 2000, "radius": 0.5}


def _cmd_verify(args, out) -> int:
    lemma = args.lemma
    rng_seed = args.seed
    for flag in ("spec", "query", "matrix", "trials", "samples", "radius"):
        if getattr(args, flag) is None:
            setattr(args, flag, _VERIFY_DEFAULTS.get(flag))
        elif flag not in _LEMMA_FLAGS[lemma]:
            raise SpecError(f"{lemma} does not read --{flag}")
    # a check of nothing would report that it passed, and lemma2 holds its
    # samples in a list; refused before any sampling starts
    for flag in ("trials", "samples"):
        count = getattr(args, flag)
        if count < 1:
            raise SpecError(f"--{flag} must be at least 1, got {count}")
        if count > _MAX_POINTS:
            raise SpecError(f"--{flag} must be at most {_MAX_POINTS}, got {count}")
    if not 0 < args.radius < math.inf:
        raise SpecError(f"--radius must be finite and positive, got {args.radius}")
    if lemma == "lemma1":
        if args.matrix is None:
            raise SpecError("lemma1 needs --matrix")
        m = _parse_matrix(args.matrix)
        report = verify_mod.check_operator_bound(
            m, trials=args.trials, rng_seed=rng_seed
        )
    else:
        if args.spec is None:
            raise SpecError(f"{lemma} needs --spec")
        F, seed, _, _ = load_spec(args.spec, "verify", needs_seed=lemma != "lemma3")
        if lemma == "lemma2":
            m = _parse_matrix(args.matrix) if args.matrix else identity(F.n_inputs)
            rng = random.Random(rng_seed)
            samples = [
                tuple(rng.uniform(-1.0, 1.0) for _ in range(m.n_cols))
                for _ in range(args.samples)
            ]
            report = verify_mod.check_chain_rule(F, m, seed, samples)
        elif lemma == "lemma3":
            queries = [_parse_point(q) for q in args.query or []]
            if len(queries) != 2:
                raise SpecError("lemma3 needs exactly two --query points (a and b)")
            report = verify_mod.mvt_witness(F, queries[0], queries[1])
        else:
            report = verify_mod.injectivity_radius(
                F, seed, r0=args.radius, samples=args.samples, rng_seed=rng_seed
            )
    doc = {
        "command": "verify",
        "lemma": lemma,
        "rng_seed": rng_seed,
        "report": report,
        "passed": report.passed,
    }
    _emit_json(doc, out)
    return 0 if report.passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgParser(
        prog="implisolve",
        description="Implicit- and inverse-function solver on validated boxes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, text in (("implicit", "an implicit function"), ("invert", "a local inverse")):
        p = sub.add_parser(command, help=f"evaluate {text}")
        p.add_argument("--spec", required=True, help="JSON problem file")
        p.add_argument("--query", action="append", help="point 'v1,v2,...' (repeatable)")
        p.add_argument("--grid", action="append", help="axis 'lo:hi:steps' (one per independent axis)")
        p.add_argument("--out", choices=("json", "csv"), default="json")
        p.add_argument("--tol-root", type=float)
        p.add_argument("--tol-sys", type=float)
        p.add_argument("--box-halfwidth", type=_halfwidths, help="'h' or 'h_indep,h_dep'")
        p.add_argument("--grid-density", type=int)

    p_ver = sub.add_parser("verify", help="run a lemma check")
    p_ver.add_argument("--lemma", required=True, choices=tuple(_LEMMA_FLAGS))
    p_ver.add_argument("--seed", type=int, default=0, help="random seed for sampling checks")
    p_ver.add_argument("--spec", help="JSON problem file")
    p_ver.add_argument("--query", action="append", help="point 'v1,v2,...' (lemma3: a, then b)")
    p_ver.add_argument("--matrix", help="rows 'a,b;c,d'")
    p_ver.add_argument("--trials", type=int)
    p_ver.add_argument("--samples", type=int)
    p_ver.add_argument("--radius", type=float)
    return parser


def main(argv: Sequence[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "verify":
            return _cmd_verify(args, out)
        return _cmd_points(args, out)
    except (SpecError, ImpliSolveError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
