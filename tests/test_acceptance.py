"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line (visible with -s or
in captured output). Tolerances are pinned here, not configurable.
"""

import json
import math
import random
import subprocess
import sys
import time
from contextlib import contextmanager

from implisolve import (
    Matrix,
    SolverOptions,
    SplitPoint,
    build_implicit,
    build_inverse,
    build_system,
    parse,
)
from implisolve.expr import BinOp, Const, ExprFunction, Var, const
from implisolve.verify import check_chain_rule, check_operator_bound, injectivity_radius, mvt_witness
from conftest import interior_grid
from oracles import newton_solve_system


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{label}]: FAIL")
        raise
    print(f"ACCEPTANCE {number} [{label}]: PASS")


CIRCLE = parse(["x^2 + y^2 - 1"], ["x", "y"])
QUAD = parse(["y1^2 + y2 - x - 1", "y1 + y2^2 - x - 1"], ["x", "y1", "y2"])
SQUARE_MAP = parse(["x1^2 - x2^2", "2*x1*x2"], ["x1", "x2"])


def test_criterion_1_circle_benchmark():
    with criterion(1, "circle benchmark"):
        start = time.perf_counter()
        sol = build_implicit(CIRCLE, SplitPoint.of([0.0], [1.0]), SolverOptions(h0=0.8))
        value = sol.solve_at((0.6,))
        grad = sol.gradient_at((0.6,))
        elapsed = time.perf_counter() - start
        assert abs(value - 0.8) <= 1e-10  # closed form sqrt(1 - x^2)
        assert abs(grad[0] - (-0.75)) <= 1e-8
        assert elapsed < 1.0


def test_criterion_2_quadratic_pair_benchmark():
    with criterion(2, "quadratic pair benchmark"):
        start = time.perf_counter()
        system = build_system(QUAD, SplitPoint.of([1.0], [1.0, 1.0]))
        y = system.solve_at((1.0,))
        jac = system.jacobian_at((1.0,))
        elapsed = time.perf_counter() - start
        assert max(abs(v - 1.0) for v in y) <= 1e-9
        assert abs(jac.rows[0][0] - 1 / 3) <= 1e-8
        assert abs(jac.rows[1][0] - 1 / 3) <= 1e-8
        # independent confirmation by central differences of solve_at
        h = 1e-6
        plus = system.solve_at((1.0 + h,))
        minus = system.solve_at((1.0 - h,))
        for i in range(2):
            fd = (plus[i] - minus[i]) / (2 * h)
            assert abs(jac.rows[i][0] - fd) <= 1e-5
        assert elapsed < 5.0


def test_criterion_3_jacobian_formula_suite(corpus_systems):
    with criterion(3, "jacobian formula suite"):
        assert len(corpus_systems) >= 5
        assert {p.seed.m for p, _ in corpus_systems} == {1, 2, 3}
        h = 1e-6
        for problem, system in corpus_systems:
            points = interior_grid(system, 10)
            assert len(points) >= 10
            for x in points:
                jac = system.jacobian_at(x)
                for j in range(system.n):
                    xp = list(x)
                    xm = list(x)
                    xp[j] += h
                    xm[j] -= h
                    plus = system.solve_at(tuple(xp))
                    minus = system.solve_at(tuple(xm))
                    for i in range(system.m):
                        fd = (plus[i] - minus[i]) / (2 * h)
                        assert abs(jac.rows[i][j] - fd) <= 1e-5, problem.name


def test_criterion_4_inverse_round_trip():
    with criterion(4, "inverse round trip"):
        inv = build_inverse(SQUARE_MAP, [1.0, 1.0])
        x = inv.invert_at((0.0, 2.0))
        assert max(abs(a - b) for a, b in zip(x, (1.0, 1.0))) <= 1e-9
        jac = inv.inverse_jacobian_at((0.0, 2.0))
        expected = ((0.25, 0.25), (-0.25, 0.25))
        for r1, r2 in zip(jac.rows, expected):
            for a, b in zip(r1, r2):
                assert abs(a - b) <= 1e-8
        lo, hi = inv.y_box()
        grid = []
        for i in range(5):
            for j in range(5):
                grid.append(
                    (
                        lo[0] + (i + 0.5) * (hi[0] - lo[0]) / 5,
                        lo[1] + (j + 0.5) * (hi[1] - lo[1]) / 5,
                    )
                )
        for y in grid:
            image = SQUARE_MAP.eval(inv.invert_at(y))
            assert max(abs(a - b) for a, b in zip(image, y)) <= 1e-9


def test_criterion_5_uniqueness_scans():
    with criterion(5, "uniqueness scans"):
        # m = 1: dense scan of the circle interval, one sign change, located
        # at the solver's answer within grid resolution
        sol = build_implicit(CIRCLE, SplitPoint.of([0.0], [1.0]), SolverOptions(h0=0.8))
        box = sol.box
        for x in (0.0, 0.3, 0.6):
            answer = sol.solve_at((x,))
            ys = [box.y_lo + i * (box.y_hi - box.y_lo) / 9999 for i in range(10000)]
            values = [CIRCLE.eval((x, y))[0] for y in ys]
            brackets = [
                (ys[i], ys[i + 1])
                for i in range(9999)
                if (values[i] < 0.0 <= values[i + 1]) or (values[i] >= 0.0 > values[i + 1])
            ]
            assert len(brackets) == 1
            lo, hi = brackets[0]
            spacing = ys[1] - ys[0]
            assert lo - spacing <= answer <= hi + spacing

        # m = 2: random scan of the dependent region, one cluster at the answer
        system = build_system(QUAD, SplitPoint.of([1.0], [1.0, 1.0]))
        report = system.verify_uniqueness((1.0,), samples=100000, rng_seed=0)
        assert report.passed  # every tol_sys-level hit within 10 * tol_sys
        assert report.single_cluster
        assert report.candidates >= 1
        assert report.max_candidate_distance <= report.cluster_bound


def test_criterion_6_lemma_suite():
    with criterion(6, "lemma suite"):
        rng = random.Random(2024)
        for _ in range(1000):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            m = Matrix.from_rows(
                [[rng.uniform(-1, 1) for _ in range(cols)] for _ in range(rows)]
            )
            assert check_operator_bound(m, trials=100, rng_seed=rng.randint(0, 10**6)).passed

        for trial in range(100):
            n = rng.randint(1, 3)
            k = rng.randint(1, 3)
            names = [f"x{i+1}" for i in range(n)]
            comps = []
            for _ in range(rng.randint(1, 2)):
                tree = const(rng.uniform(-2, 2))
                for name in names:
                    tree = BinOp(
                        "+",
                        tree,
                        BinOp(
                            "*",
                            const(rng.uniform(-2, 2)),
                            BinOp("^", Var(name), Const(float(rng.randint(1, 3)))),
                        ),
                    )
                comps.append(tree)
            F = ExprFunction(comps, names)
            mat = Matrix.from_rows(
                [[rng.uniform(-1, 1) for _ in range(k)] for _ in range(n)]
            )
            y = [rng.uniform(-1, 1) for _ in range(n)]
            samples = [
                tuple(rng.uniform(-1, 1) for _ in range(k)) for _ in range(3)
            ]
            report = check_chain_rule(F, mat, y, samples)
            assert report.max_discrepancy <= 1e-10, trial

        witness = mvt_witness(parse(["x^3"], ["x"]), (0.0,), (1.0,))
        assert abs(witness.t - 1 / math.sqrt(3)) <= 1e-8

        inj = injectivity_radius(SQUARE_MAP, (1.0, 1.0), samples=2000)
        assert inj.radius > 0.0
        assert inj.passed
        assert inj.samples == 2000


def test_criterion_7_newton_oracle_equivalence():
    with criterion(7, "newton oracle equivalence"):
        sol = build_implicit(CIRCLE, SplitPoint.of([0.0], [1.0]), SolverOptions(h0=0.8))
        lo, hi = sol.box.x_lo[0], sol.box.x_hi[0]
        for i in range(11):
            x = lo + (i + 0.5) * (hi - lo) / 11
            got = sol.solve_at((x,))
            oracle = newton_solve_system(CIRCLE, (x,), [1.0])
            assert abs(got - oracle[0]) <= 1e-7

        system = build_system(QUAD, SplitPoint.of([1.0], [1.0, 1.0]))
        for x in interior_grid(system, 11):
            got = system.solve_at(x)
            oracle = newton_solve_system(QUAD, x, [1.0, 1.0])
            assert max(abs(a - b) for a, b in zip(got, oracle)) <= 1e-7


def test_criterion_8_cli_determinism(tmp_path):
    with criterion(8, "CLI determinism"):
        spec = tmp_path / "quad.json"
        spec.write_text(
            json.dumps(
                {
                    "functions": ["y1^2 + y2 - x - 1", "y1 + y2^2 - x - 1"],
                    "variables": ["x", "y1", "y2"],
                    "split_n": 1,
                    "seed": [1.0, 1.0, 1.0],
                }
            )
        )
        sq = tmp_path / "sq.json"
        sq.write_text(
            json.dumps(
                {
                    "functions": ["x1^2 - x2^2", "2*x1*x2"],
                    "variables": ["x1", "x2"],
                    "seed": [1.0, 1.0],
                }
            )
        )
        invocations = [
            [
                sys.executable, "-m", "implisolve.cli",
                "implicit", "--spec", str(spec), "--query", "1",
                "--grid", "0.99:1.01:3",
            ],
            [
                sys.executable, "-m", "implisolve.cli",
                "verify", "--lemma", "lemma4", "--spec", str(sq),
                "--samples", "300", "--seed", "7",
            ],
        ]
        for cmd in invocations:
            first = subprocess.run(cmd, capture_output=True)
            second = subprocess.run(cmd, capture_output=True)
            assert first.returncode == second.returncode
            assert first.returncode in (0, 2)
            assert first.stdout == second.stdout
            assert first.stdout  # nonempty output
