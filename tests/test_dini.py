import itertools
import math
import operator
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from implisolve import (
    BoxNotFound,
    DimensionMismatch,
    ExprFunction,
    Matrix,
    NoConvergence,
    OutsideBox,
    SeedNotOnZeroSet,
    SingularMatrix,
    SolverOptions,
    SplitPoint,
    Vector,
    build_implicit,
    build_inverse,
    build_system,
    normalize,
    parse,
)
from implisolve import dini, scalar_implicit
from implisolve.dini import _NORMALIZE_TOL, UniquenessReport, _AffineReparam
from implisolve.linalg import hs_norm, identity, inverse, matvec, solve, split_columns, vec_sub
from conftest import interior_grid
from oracles import newton_solve_system

QUAD = parse(["y1^2 + y2 - x - 1", "y1 + y2^2 - x - 1"], ["x", "y1", "y2"])
QUAD_SEED = SplitPoint.of([1.0], [1.0, 1.0])


def quad_closed_form(x):
    # symmetric root of y^2 + y - x - 1 = 0, the branch through (1, 1)
    y = (-1 + math.sqrt(5 + 4 * x)) / 2
    return (y, y)


class _Opaque:
    """A function that is not an ExprFunction: the function protocol
    forwarded to one, and a record of each method called."""

    def __init__(self, fn):
        self.fn = fn
        self.n_inputs = fn.n_inputs
        self.n_outputs = fn.n_outputs
        self.calls = []

    def eval(self, p):
        self.calls.append("eval")
        return self.fn.eval(p)

    def partial(self, p, j):
        self.calls.append("partial")
        return self.fn.partial(p, j)

    def jacobian(self, p):
        self.calls.append("jacobian")
        return self.fn.jacobian(p)


@pytest.fixture(scope="module")
def quad_system():
    return build_system(QUAD, QUAD_SEED)


# --- normalize --------------------------------------------------------------


def test_normalize_identity_jacobian_is_identity_substitution():
    F = parse(["y1 + x", "y2 - x"], ["x", "y1", "y2"])
    seed = SplitPoint.of([0.0], [0.0, 0.0])
    G, fy, j_inv, _ = normalize(F, seed)
    assert fy.rows == j_inv.rows == ((1.0, 0.0), (0.0, 1.0))
    for p in [(0.1, 0.2, -0.3), (0.0, 0.0, 0.0), (-0.4, 0.25, 0.5)]:
        got = G.eval(p)
        want = F.eval(p)
        assert all(abs(a - b) < 1e-14 for a, b in zip(got, want))


def test_normalize_diagonal_system_no_independents():
    F = parse(["2*y1", "3*y2"], ["y1", "y2"])
    seed = SplitPoint.of([], [0.0, 0.0])
    G, fy, j_inv, jg = normalize(F, seed)
    assert fy.rows == ((2.0, 0.0), (0.0, 3.0))
    assert j_inv.rows == ((0.5, 0.0), (0.0, 1 / 3))
    # hand substitution y = J^-1 z gives G(z) = (z1, z2)
    got = G.eval((0.4, -0.9))
    assert abs(got[0] - 0.4) < 1e-14
    assert abs(got[1] - (-0.9)) < 1e-14
    gy = G.jacobian((0.0, 0.0))
    assert gy == jg
    assert abs(gy.rows[0][0] - 1.0) < 1e-12
    assert abs(gy.rows[1][1] - 1.0) < 1e-12
    assert abs(gy.rows[0][1]) < 1e-12


def test_normalize_singular_jacobian():
    F = parse(["y1 + y2", "y1 + y2"], ["y1", "y2"])
    with pytest.raises(SingularMatrix):
        normalize(F, SplitPoint.of([], [0.0, 0.0]))


def test_normalize_refuses_a_block_that_rounds_off_the_identity():
    """det J = 5e-7 against entries near 1, so the substituted block
    J J^-1 misses the identity by more than _NORMALIZE_TOL in rounding
    alone: the one identity check refuses it, naming the entry."""
    F = parse(["0.7*y1 + 1.7*y2 - x", "0.9*y1 + 2.185715*y2 - x"], ["x", "y1", "y2"])
    message = r"^normalization failed: dependent-block Jacobian too ill-conditioned \(entry \(0,1\) = "
    with pytest.raises(SingularMatrix, match=message):
        build_system(F, SplitPoint.of([0.0], [0.0, 0.0]))


def test_normalize_keeps_seed_value():
    G, _, _, _ = normalize(QUAD, QUAD_SEED)
    assert tuple(G.eval(QUAD_SEED.point())) == tuple(QUAD.eval(QUAD_SEED.point()))


# --- build/solve ------------------------------------------------------------


def test_base_case_delegates_to_scalar_exactly():
    """At m = 1 the system's scalar solution is build_implicit's, box and
    all. Bracketed Newton from the tangent predictor answers within
    tol_root / 2 of the closed form, and the scalar solution's ITP within
    tol_root of it; the Jacobian is the scalar gradient at the same answer."""
    F = parse(["x^2 + y^2 - 1"], ["x", "y"])
    opts = SolverOptions(h0=0.8)
    seed = SplitPoint.of([0.0], [1.0])
    system = build_system(F, seed, opts)
    scalar = build_implicit(F, seed, opts)
    assert system.scalar == scalar
    for x in (-0.5, 0.0, 0.25, 0.6):
        y = system.solve_at((x,))[0]
        assert abs(y - math.sqrt(1 - x * x)) <= opts.tol_root / 2
        assert abs(scalar.solve_at((x,)) - y) <= opts.tol_root
        # same value, same formula; arithmetic order differs by one rounding
        jac = system.jacobian_at((x,)).rows[0][0]
        grad = scalar.gradient_known((x,), y)[0]
        assert abs(jac - grad) <= 1e-15 * max(1.0, abs(grad))


def test_quad_pair_at_seed(quad_system):
    y = quad_system.solve_at((1.0,))
    assert max(abs(v - 1.0) for v in y) <= 1e-9
    jac = quad_system.jacobian_at((1.0,))
    # hand formula: -(1/3)[[2,-1],[-1,2]] [[-1],[-1]] = [[1/3],[1/3]]
    assert abs(jac.rows[0][0] - 1 / 3) < 1e-8
    assert abs(jac.rows[1][0] - 1 / 3) < 1e-8


def test_quad_pair_against_closed_form(quad_system):
    for x in (0.98, 1.0, 1.02):
        got = quad_system.solve_at((x,))
        want = quad_closed_form(x)
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-9


def test_quad_pair_residual_on_grid(quad_system):
    for (x,) in interior_grid(quad_system, 12):
        y = quad_system.solve_at((x,))
        residual = max(abs(r) for r in QUAD.eval((x,) + tuple(y)))
        assert residual <= quad_system.options.tol_sys


def test_quad_pair_newton_agreement(quad_system):
    for (x,) in interior_grid(quad_system, 8):
        got = quad_system.solve_at((x,))
        oracle = newton_solve_system(QUAD, (x,), [1.0, 1.0])
        assert max(abs(a - b) for a, b in zip(got, oracle)) < 1e-7


def test_quad_pair_wide_query_via_reseeding():
    # the sheet leaves any single validated stack well before x = 1.21; the
    # documented way to follow it is a coarse-sampling profile plus a second
    # build seeded at an already-solved point
    opts = SolverOptions(h0=0.5, grid_density=3)
    first = build_system(QUAD, QUAD_SEED, opts)
    assert first.x_box()[1][0] > 1.1
    y_mid = first.solve_at((1.1,))
    residual = max(abs(r) for r in QUAD.eval((1.1,) + tuple(y_mid)))
    assert residual <= 1e-9

    second = build_system(QUAD, SplitPoint.of([1.1], tuple(y_mid)), opts)
    lo, hi = second.x_box()
    assert lo[0] < 1.21 < hi[0]
    got = second.solve_at((1.21,))
    residual = max(abs(r) for r in QUAD.eval((1.21,) + tuple(got)))
    assert residual <= 1e-9
    oracle = newton_solve_system(QUAD, (1.21,), [1.0, 1.0])
    assert max(abs(a - b) for a, b in zip(got, oracle)) < 1e-7
    want = quad_closed_form(1.21)
    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-9


def test_linear_system_closed_form():
    # F = A x + B y with B = [[2,1],[1,2]], A = [[1],[2]]: y = -B^-1 A x
    F = parse(["2*y1 + y2 + x", "y1 + 2*y2 + 2*x"], ["x", "y1", "y2"])
    system = build_system(F, SplitPoint.of([0.0], [0.0, 0.0]))
    for x in (-0.1, 0.0, 0.1):
        y = system.solve_at((x,))
        assert abs(y[0] - 0.0) <= 1e-10
        assert abs(y[1] - (-x)) <= 1e-10
    jac = system.jacobian_at((0.1,))
    assert abs(jac.rows[0][0]) < 1e-10
    assert abs(jac.rows[1][0] + 1.0) < 1e-10


def test_jacobian_matches_finite_differences(quad_system):
    h = 1e-6
    for (x,) in interior_grid(quad_system, 10):
        jac = quad_system.jacobian_at((x,))
        plus = quad_system.solve_at((x + h,))
        minus = quad_system.solve_at((x - h,))
        for i in range(2):
            fd = (plus[i] - minus[i]) / (2 * h)
            assert abs(jac.rows[i][0] - fd) <= 1e-5


def test_inner_levels_are_not_normalized(corpus_systems):
    """Only level 1 normalizes. Below it the reduced function is solved as
    it is, with no normalizer and no substitution."""
    system = {p.name: s for p, s in corpus_systems}["cubic_triple"]
    assert system.normalizer is not None
    level2, level3 = system.child, system.child.child
    assert level2.normalizer is None and level3.normalizer is None
    assert level2.scalar.F.fn is level2.F
    assert level3.F.G is level2.F
    meta = system.box_metadata()
    assert [entry["normalizer"] is None for entry in meta] == [False, True, True]


def test_reduced_partials_match_finite_differences(corpus_systems):
    """The reduced functions of the m = 3 stack: each partial (z1 = phi
    following) matches central differences of eval and the jacobian's
    column."""
    system = {p.name: s for p, s in corpus_systems}["cubic_triple"]
    h = 1e-6
    for level in (system.child, system.child.child):
        fn = level.F
        p = tuple(c + 0.004 * (k + 1) for k, c in enumerate(level.seed.point()))
        jac = fn.jacobian(p)
        for j in range(fn.n_inputs):
            plus = fn.eval(tuple(c + h * (k == j) for k, c in enumerate(p)))
            minus = fn.eval(tuple(c - h * (k == j) for k, c in enumerate(p)))
            got = fn.partial(p, j)
            for i in range(fn.n_outputs):
                assert abs(got[i] - (plus[i] - minus[i]) / (2 * h)) <= 1e-6
                assert got[i] == jac.rows[i][j]


def test_inner_level_builds_with_a_nonidentity_block(monkeypatch):
    """Only normalize checks the identity block: an inner level builds on
    any nonsingular one. With normalize made a no-op, J = J_inv = I, level 2
    inherits the block [[2, 1], [1, 2]], and its zero is still found."""
    monkeypatch.setattr(
        dini, "normalize", lambda F, seed: (F, identity(3), identity(3), F.jacobian(seed.point()))
    )
    F = parse(["y1 - x", "2*y2 + y3", "y2 + 2*y3"], ["x", "y1", "y2", "y3"])
    system = build_system(F, SplitPoint.of([0.0], [0.0, 0.0, 0.0]))
    level2 = system.child
    gy = split_columns(level2.F.jacobian(level2.seed.point()), level2.n)[1]
    assert gy.to_lists() == [[2.0, 1.0], [1.0, 2.0]]
    tol = system.options.tol_sys
    for (x,) in interior_grid(system, 9, margin=0.02):
        for y in (system.solve_at((x,)), system._solve((x,))):
            assert max(abs(a - b) for a, b in zip(y, (x, 0.0, 0.0))) <= tol


CUBIC_TRIPLE = parse(
    ["y1^2 + y2 + y3 - x - 2", "y1 + y2^2 + y3 - x - 2", "y1 + y2 + y3^2 - x - 2"],
    ["x", "y1", "y2", "y3"],
)


@pytest.mark.parametrize(
    "t,dy1,options",
    [
        # y1 moved 4e-11 off the zero set: seed residual 5.6e-11 < tol_sys
        (0.7, 4e-11, SolverOptions()),
        (0.7, -4e-11, SolverOptions()),
        # exact seed, but phi's root may miss b1 by up to tol_root / 2
        (0.9, 0.0, SolverOptions(tol_root=1e-8, tol_sys=1e-6)),
    ],
)
def test_inner_check_ignores_inner_root_miss(t, dy1, options):
    """cubic_triple through (t, t, t): level 2's own Jacobian at its seed
    takes z1 from phi, off b1 by the seed residual or by tol_root, and so
    is off I by more than _NORMALIZE_TOL. The build succeeds because no
    inner level re-checks its block: normalize's check at level 1 is the
    only one."""
    seed = SplitPoint.of([t * t + 2 * t - 2], [t + dy1, t, t])
    assert max(abs(r) for r in CUBIC_TRIPLE.eval(seed.point())) <= options.tol_sys
    system = build_system(CUBIC_TRIPLE, seed, options)
    assert identity_gap(system.child) > _NORMALIZE_TOL
    y = system.solve_at(tuple(seed.x))
    assert max(abs(a - b) for a, b in zip(y, seed.y)) <= 10 * options.tol_sys
    check_against_newton(CUBIC_TRIPLE, seed, system)


STEEP_CURVE = parse(["1000*(y^3 + y - x) + sin(y) - sin(x)"], ["x", "y"])


@pytest.mark.parametrize(
    "build,F,seed,queries",
    [
        (build_implicit, STEEP_CURVE, SplitPoint.of([0.0], [0.0]), 300),
        (build_system, STEEP_CURVE, SplitPoint.of([0.0], [0.0]), 300),
        (build_system, QUAD, QUAD_SEED, 40),
        (build_system, CUBIC_TRIPLE, SplitPoint.of([1.0], [1.0, 1.0, 1.0]), 8),
    ],
    ids=["steep_curve", "steep_curve_newton", "quad_pair", "cubic_triple"],
)
def test_every_answer_seeds_a_new_build(build, F, seed, queries):
    """solve_at's answers and the seeds a build accepts share the residual
    bound tol_sys, so a build re-seeded at any answer succeeds. On the steep
    curve the factor 1000 leaves many of ITP's answers (build_implicit's)
    with a residual above 1e-10; bracketed Newton's answers
    (build_system's) lie within tol_root / 2 of the root."""
    options = SolverOptions()
    solution = build(F, seed, options)
    if build is build_implicit:
        lo, hi = solution.box.x_lo, solution.box.x_hi
    else:
        lo, hi = solution.x_box()
    rng = random.Random(1)
    residuals = []
    for _ in range(queries):
        x = tuple(rng.uniform(0.95 * a + 0.05 * b, 0.05 * a + 0.95 * b) for a, b in zip(lo, hi))
        y = solution.solve_at(x)
        y = (y,) if build is build_implicit else tuple(y)
        residuals.append(max(abs(r) for r in F.eval(x + y)))
        build(F, SplitPoint.of(x, y), options)
        if F is STEEP_CURVE and build is build_system:
            # the root to the resolution of floats: ITP with a tol_root
            # below every float spacing
            root = replace(solution.scalar, tol_root=1e-320).solve_at(x)
            assert abs(y[0] - root) <= options.tol_root / 2
    assert max(residuals) <= options.tol_sys
    if build is build_implicit:
        assert sum(r > 1e-10 for r in residuals) > queries / 2


def test_composed_jvp_matches_partials(corpus_systems):
    """A dependent column of the affine reparameterization is
    dF/dy J_inv[:, j], taken in one jvp pass of F: it must equal F's
    dependent partials combined through J_inv. An independent column is
    F's own partial at the mapped point."""
    problem = {p.name: p for p, _ in corpus_systems}["cubic_triple"]
    F, seed = problem.F, problem.seed
    shear = Matrix(((1.0, 0.5, 0.0), (-0.25, 1.0, 0.125), (0.0, 0.75, 1.0)))
    affine = _AffineReparam(F, seed.n, seed.y, shear)
    n, m = seed.n, seed.m

    def close(a, b, scale):
        return abs(a - b) <= 1e-12 * max(1.0, scale)

    p = tuple(c + 0.002 * (k + 1) for k, c in enumerate(seed.point()))
    mapped = affine._map(p)
    assert tuple(affine.partial(p, 0)) == tuple(F.partial(mapped, 0))
    y_cols = [F.partial(mapped, n + k) for k in range(m)]
    for jz in range(m):
        got = affine.partial(p, n + jz)
        for i in range(affine.n_outputs):
            terms = [y_cols[k][i] * shear.rows[k][jz] for k in range(m)]
            assert close(got[i], sum(terms), sum(abs(t) for t in terms))


def test_systems_refuse_a_function_that_is_not_an_expression(corpus_systems):
    """At every m, build_system and normalize raise TypeError on any other
    type before calling F, build_system with one message."""
    for problem, _ in corpus_systems:
        opaque = _Opaque(problem.F)
        with pytest.raises(TypeError) as err:
            build_system(opaque, problem.seed, problem.options)
        assert str(err.value) == "build_system needs an ExprFunction, got _Opaque"
        with pytest.raises(TypeError) as err:
            normalize(opaque, problem.seed)
        assert str(err.value) == "normalize needs an ExprFunction, got _Opaque"
        assert opaque.calls == []


def test_build_implicit_takes_a_function_that_is_not_an_expression(corpus_systems):
    """A duck-typed scalar F is build_implicit's: it finds the box of the
    ExprFunction's system, its ITP answers equal the ExprFunction's bit for
    bit, and gradient_at is that system's Jacobian at the same answer."""
    problem, system = {p.name: (p, s) for p, s in corpus_systems}["circle"]
    opaque = build_implicit(_Opaque(problem.F), problem.seed, problem.options)
    scalar = build_implicit(problem.F, problem.seed, problem.options)
    assert opaque.box == system.scalar.box
    lo, hi = system.x_box()
    for t in (0.1, 0.5, 0.9):
        x = (lo[0] + t * (hi[0] - lo[0]),)
        y = opaque.solve_at(x)
        assert y == scalar.solve_at(x)
        assert abs(y - math.sqrt(1 - x[0] * x[0])) <= problem.options.tol_root / 2
        # same value, same formula; arithmetic order differs by one rounding
        grad = opaque.gradient_at(x)[0]
        jac = system.jacobian_known(x, (y,)).rows[0][0]
        assert abs(jac - grad) <= 1e-15 * max(1.0, abs(grad))


# --- well-posed systems: identity plus a small nonlinear perturbation --------


def well_posed_system(m, uniform):
    """F_i = v_i + sum_j L_ij v_j + k_i u + q_i v_j^2 + s_i sin(u) v_k + c_i u^2
    with u = x - a and v = y - b, so F(a, b) = 0 and dF/dy(a, b) = I + L.
    uniform(lo, hi) draws each number; j and k cycle with i."""
    a = uniform(-1.0, 1.0)
    b = [uniform(-1.0, 1.0) for _ in range(m)]
    u = f"(x - ({a!r}))"
    v = [f"(y{j + 1} - ({b[j]!r}))" for j in range(m)]
    components = []
    for i in range(m):
        terms = [v[i]]
        terms += [f"({uniform(-0.2, 0.2)!r})*{v[j]}" for j in range(m)]
        terms.append(f"({uniform(-1.0, 1.0)!r})*{u}")
        terms.append(f"({uniform(-0.5, 0.5)!r})*{v[(i + 1) % m]}^2")
        terms.append(f"({uniform(-0.5, 0.5)!r})*sin({u})*{v[(i + 2) % m]}")
        terms.append(f"({uniform(-0.5, 0.5)!r})*{u}^2")
        components.append(" + ".join(terms))
    F = parse(components, ["x"] + [f"y{j + 1}" for j in range(m)])
    return F, SplitPoint.of([a], b)


WELL_POSED_OPTIONS = SolverOptions(h0=0.3)


def identity_gap(level):
    """Largest entry of |dF/dy - I| for a level's F at its seed."""
    gy = split_columns(level.F.jacobian(level.seed.point()), level.n)[1]
    return max(
        abs(e - (1.0 if i == j else 0.0))
        for i, row in enumerate(gy.rows)
        for j, e in enumerate(row)
    )


def check_against_newton(F, seed, system):
    """solve_at and the nested solve it falls back to within 1e-7 of the
    Newton oracle, and jacobian_at within 1e-5 of its central differences,
    at interior points of the box."""
    h = 1e-6
    for x in interior_grid(system, 3):
        oracle = newton_solve_system(F, x, seed.y)
        for got in (system.solve_at(x), system._solve(x)):
            assert max(abs(a - b) for a, b in zip(got, oracle)) < 1e-7
        plus = newton_solve_system(F, (x[0] + h,), seed.y)
        minus = newton_solve_system(F, (x[0] - h,), seed.y)
        jac = system.jacobian_at(x)
        for i in range(seed.m):
            fd = (plus[i] - minus[i]) / (2 * h)
            assert abs(jac.rows[i][0] - fd) <= 1e-5


@pytest.mark.parametrize("m,examples", [(1, 25), (2, 15), (3, 10)])
def test_well_posed_systems_match_newton(m, examples):
    @settings(max_examples=examples)
    @given(st.data())
    def check(data):
        F, seed = well_posed_system(m, lambda lo, hi: data.draw(st.floats(lo, hi)))
        system = build_system(F, seed, WELL_POSED_OPTIONS)
        check_against_newton(F, seed, system)
        if m == 3:
            assert system.child.normalizer is None
            assert identity_gap(system.child) <= _NORMALIZE_TOL

    check()


def test_inner_block_near_identity_is_not_renormalized():
    """A generated m = 3 system whose level-2 dependent block is I only up
    to roundoff: level 2 still solves the reduced function directly."""
    F, seed = well_posed_system(3, random.Random(0).uniform)
    system = build_system(F, seed, WELL_POSED_OPTIONS)
    level2 = system.child
    assert 0.0 < identity_gap(level2) <= _NORMALIZE_TOL
    assert level2.normalizer is None and level2.scalar.F.fn is level2.F
    check_against_newton(F, seed, system)


def test_seed_fidelity_across_corpus(corpus_systems):
    for problem, system in corpus_systems:
        y = system.solve_at(tuple(problem.seed.x))
        tol = 10 * system.options.tol_sys
        assert max(abs(a - b) for a, b in zip(y, problem.seed.y)) <= tol


def test_permutation_robustness():
    # relabel the dependent variables and permute components accordingly
    F = parse(["y1^2 + 2*y2 - x - 2", "y1 + y2^2 - x - 1"], ["x", "y1", "y2"])
    Fp = parse(["u2 + u1^2 - x - 1", "u2^2 + 2*u1 - x - 2"], ["x", "u1", "u2"])
    seed = SplitPoint.of([1.0], [1.0, 1.0])
    sys_a = build_system(F, seed)
    sys_b = build_system(Fp, seed)
    lo_a, hi_a = sys_a.x_box()
    lo_b, hi_b = sys_b.x_box()
    lo = max(lo_a[0], lo_b[0])
    hi = min(hi_a[0], hi_b[0])
    tol = 10 * sys_a.options.tol_sys
    for i in range(5):
        x = lo + (i + 1) * (hi - lo) / 6
        ya = sys_a.solve_at((x,))
        yb = sys_b.solve_at((x,))
        assert abs(ya[0] - yb[1]) <= tol
        assert abs(ya[1] - yb[0]) <= tol


def test_outside_box_reports_level(quad_system):
    with pytest.raises(OutsideBox) as err:
        quad_system.solve_at((2.0,))
    assert err.value.level is not None
    assert str(err.value).endswith(f"(recursion level {err.value.level})")


def cubic_sheet_root(x):
    """The real root y of y^3 + y = x, by Cardano."""
    d = math.sqrt(x * x / 4 + 1 / 27)
    return math.copysign(abs(x / 2 + d) ** (1 / 3), x / 2 + d) - (d - x / 2) ** (1 / 3)


def test_assembled_residual_above_tol_sys_raises():
    """solve_at raises rather than return an answer whose residual exceeds
    tol_sys. With 1e8 (y^3 + y - x), F's own rounding at the root does.
    With 1e4, ITP's answer (build_implicit's, which makes no residual
    check) misses the root by up to tol_root / 2, and so its residual
    exceeds tol_sys; bracketed Newton answers the same point within
    tol_root / 2 of the root and within tol_sys."""
    seed = SplitPoint.of([0.0], [0.0])
    message = r"^assembled residual 5\.55112e-09 exceeds tol_sys 1e-09$"
    with pytest.raises(NoConvergence, match=message):
        build_system(parse(["1e8*(y^3 + y - x)"], ["x", "y"]), seed).solve_at((-0.48625,))
    F = parse(["1e4*(y^3 + y - x)"], ["x", "y"])
    y_itp = build_implicit(F, seed).solve_at((-0.4625,))
    assert f"{abs(F.eval((-0.4625, y_itp))[0]):g}" == "1.69587e-09"
    system = build_system(F, seed)
    y = system.solve_at((-0.4625,))
    assert abs(y[0] - cubic_sheet_root(-0.4625)) <= system.options.tol_root / 2
    assert abs(F.eval((-0.4625,) + tuple(y))[0]) <= system.options.tol_sys


def test_newton_answers_a_steep_scalar_equation_everywhere():
    """s (y^3 + y - x) with s = 1e4, where ITP's residual, up to
    |dF/dy| tol_root / 2, exceeds tol_sys at 53 of these 400 points
    (build_implicit's answers): bracketed Newton answers every one within
    tol_sys and within tol_root / 2 of the root."""
    F = parse(["10000*(y^3 + y - x)"], ["x", "y"])
    system = build_system(F, SplitPoint.of([0.0], [0.0]))
    itp = build_implicit(F, SplitPoint.of([0.0], [0.0]))
    (lo,), (hi,) = system.x_box()
    itp_failures = 0
    for i in range(400):
        x = lo + (i + 0.5) * (hi - lo) / 400
        y = system.solve_at((x,))
        assert abs(F.eval((x,) + tuple(y))[0]) <= system.options.tol_sys
        assert abs(y[0] - cubic_sheet_root(x)) <= system.options.tol_root / 2
        itp_failures += abs(F.eval((x, itp.solve_at((x,))))[0]) > system.options.tol_sys
    assert itp_failures == 53


SPHERE_CAP = (
    parse(["x1^2 + x2^2 + y^2 - 1"], ["x1", "x2", "y"]),
    SplitPoint.of([0.0, 0.0], [1.0]),
    SolverOptions(h0=0.6),
)


def cubic_sheet_solution(x):
    """y^3 + y + sin(x) = 0 and dy/dx = -cos(x) / (3 y^2 + 1)."""
    y = cubic_sheet_root(-math.sin(x[0]))
    return y, (-math.cos(x[0]) / (3 * y * y + 1),)


def cap_solution(x):
    y = math.sqrt(1 - x[0] ** 2 - x[1] ** 2)
    return y, (-x[0] / y, -x[1] / y)


# closed forms (y, dy/dx) of the m = 1 curves
M1_CLOSED_FORMS = {
    "circle": lambda x: (math.sqrt(1 - x[0] ** 2), (-x[0] / math.sqrt(1 - x[0] ** 2),)),
    "sin_cubic": cubic_sheet_solution,
    "log_curve": lambda x: (math.exp(-x[0]), (-math.exp(-x[0]),)),
    "sphere_cap": cap_solution,
}


@pytest.mark.parametrize("name", sorted(M1_CLOSED_FORMS))
def test_m1_answers_and_jacobians_match_closed_forms(corpus_systems, name):
    """At m = 1 an ExprFunction's answers by bracketed Newton lie within
    tol_root / 2 of the closed form, and its Jacobians, one factorization
    of dF/dy each, within 1e-15 of it relative to max(1, |entry|), at 200
    points of the middle 80% of the x-box (log_curve's box holds points,
    below x = -0.486, where sampling fooled it)."""
    systems = {p.name: s for p, s in corpus_systems}
    system = systems[name] if name in systems else build_system(*SPHERE_CAP)
    closed = M1_CLOSED_FORMS[name]
    lo, hi = system.x_box()
    rng = random.Random(5)
    for _ in range(200):
        x = tuple(a + (0.1 + 0.8 * rng.random()) * (b - a) for a, b in zip(lo, hi))
        y, jac = closed(x)
        assert abs(system.solve_at(x)[0] - y) <= system.options.tol_root / 2
        got = system.jacobian_at(x).rows[0]
        assert all(abs(g - w) <= 1e-15 * max(1.0, abs(w)) for g, w in zip(got, jac))


def counted_itp(monkeypatch):
    """The brackets (lo, hi) of every scalar_implicit.itp call."""
    calls = []
    plain = scalar_implicit.itp

    def counted(f, lo, hi, f_lo, f_hi, tol):
        calls.append((lo, hi))
        return plain(f, lo, hi, f_lo, f_hi, tol)

    monkeypatch.setattr(scalar_implicit, "itp", counted)
    return calls


@pytest.mark.parametrize(
    "expression,fallbacks",
    [
        # the two sheets of ITP's worst-case test: the tangent predictor
        # y = 0.3 + x is their root, which the first pass confirms
        ("(y - 0.3 - x)^9 + 0.001*(y - 0.3 - x)", 0),
        ("(y - 0.3 - x)^3 + 0.000000001*(y - 0.3 - x)", 0),
        # a flat tangent predictor y = 0.3 and a near-triple root at
        # 0.3 + x^2: Newton's error shrinks by only a third per pass until it
        # is near 3e-5, so at every point but x = 0 the budget runs out and
        # ITP finishes on the bracket left (measured)
        ("(y - 0.3 - x^2)^3 + 0.000000001*(y - 0.3 - x^2)", 8),
    ],
)
def test_bracketed_newton_worst_case_is_its_budget_plus_itp(monkeypatch, expression, fallbacks):
    """Each m = 1 query makes at most _NEWTON_MAX_ITER Jacobian passes, and
    F.eval at most ITP's bound on the box (bisection's count plus one) plus
    three: the two ends of the box and the residual. Its answer lies within
    tol_root of the root."""
    F = parse([expression], ["x", "y"])
    system = build_system(F, SplitPoint.of([0.0], [0.3]))
    box, tol_root = system.scalar.box, system.options.tol_root
    bound = math.ceil(math.log2((box.y_hi - box.y_lo) / tol_root)) + 1
    root = (lambda x: 0.3 + x * x) if "x^2" in expression else (lambda x: 0.3 + x)
    passes, evals = count_kernel_calls(monkeypatch, F)
    itp_calls = counted_itp(monkeypatch)
    for i in range(9):
        x = box.x_lo[0] + (i + 0.5) * (box.x_hi[0] - box.x_lo[0]) / 9
        passes.clear()
        evals.clear()
        y = system.solve_at((x,))
        assert len(passes) <= dini._NEWTON_MAX_ITER
        assert len(evals) - 3 <= bound
        assert abs(y[0] - root(x)) <= tol_root
    assert len(itp_calls) == fallbacks


@pytest.mark.parametrize(
    "expression,seed,options,root,error",
    [
        # no bracket of floats near 1 is as narrow as 1e-320
        (
            "x^2 + y^2 - 1", (0.0, 1.0), SolverOptions(h0=0.8, tol_root=1e-320),
            lambda x: math.sqrt(1 - x * x), 4 * math.ulp(1.0),
        ),
        # floats near the centre are spaced wider than tol_root = 1e-12
        (
            "(y - 10000.0)^3 + (y - 10000.0) - x", (0.0, 1e4), SolverOptions(),
            lambda x: 1e4 + cubic_sheet_root(x), 2 * math.ulp(1e4),
        ),
        (
            "(y - 1000000.0)^3 + (y - 1000000.0) - x", (0.0, 1e6), SolverOptions(),
            lambda x: 1e6 + cubic_sheet_root(x), 2 * math.ulp(1e6),
        ),
    ],
    ids=["circle_1e-320", "centre_1e4", "centre_1e6"],
)
def test_bracketed_newton_stops_at_float_resolution(
    monkeypatch, expression, seed, options, root, error
):
    """Where tol_root is below the spacing of floats at the root, no step
    is ever that small: the iteration settles where a step leaves y
    unchanged, or where no float lies between the bracket's ends, within
    its budget and without ITP, as near the root as ITP gets."""
    F = parse([expression], ["x", "y"])
    system = build_system(F, SplitPoint.of(seed[:1], seed[1:]), options)
    (lo,), (hi,) = system.x_box()
    passes, _ = count_kernel_calls(monkeypatch, F)
    itp_calls = counted_itp(monkeypatch)
    for i in range(1, 100):
        x = lo + i / 100 * (hi - lo)
        passes.clear()
        assert abs(system.solve_at((x,))[0] - root(x)) <= error
        assert len(passes) <= dini._NEWTON_MAX_ITER
    assert not itp_calls


def test_a_jacobian_pass_that_fails_hands_the_bracket_to_itp(monkeypatch):
    """sqrt((y - 0.25)^2) has no derivative at y = 0.25, where the tangent
    predictor lands for x = 0.5: the Jacobian pass there raises
    DomainError, though F evaluates, so ITP finishes on the bracket and
    answers as it does alone."""
    F = parse(["2*y + sqrt((y - 0.25)^2) - x"], ["x", "y"])
    system = build_system(F, SplitPoint.of([0.25], [0.0]))
    itp_calls = counted_itp(monkeypatch)
    assert abs(system.solve_at((0.5,))[0] - 0.25) <= system.options.tol_root
    assert len(itp_calls) == 1


def test_m1_errors_keep_their_messages_and_level(corpus_systems):
    """The bracketed Newton query makes the scalar solution's checks first:
    log_curve's box, which sampling fooled, still raises NoConvergence
    below x = -0.486, and a point outside the circle's box OutsideBox, each
    at level 1."""
    systems = {p.name: s for p, s in corpus_systems}
    with pytest.raises(NoConvergence) as err:
        systems["log_curve"].solve_at((-0.49,))
    assert err.value.level == 1
    assert str(err.value) == (
        "endpoint signs wrong at query point; box validation was fooled by sampling "
        "(recursion level 1)"
    )
    with pytest.raises(OutsideBox) as err:
        systems["circle"].solve_at((0.9,))
    assert err.value.level == 1
    assert str(err.value).endswith(" (recursion level 1)")


def test_m1_tangent_is_the_implicit_derivative_at_the_seed():
    """build_system stores Y' = -F_x / F_y at the seed at m = 1."""
    F = parse(["sin(x) + 2*y^3 + y - 0.5*x"], ["x", "y"])
    seed = SplitPoint.of([0.0], [0.0])
    assert build_system(F, seed).tangent.rows == ((-0.5,),)


def test_implicit_derivative_is_one_factorization_and_substitution():
    """-[dF/dy]^-1 dF/dx column by column, the inverse never formed: equal
    to -solve(dF/dy, column) entry for entry; SingularMatrix where dF/dy is
    singular; a dependent block with no independent columns gives empty rows."""
    rows = ((1.0, -2.0, 2.0, 1.0), (0.5, 3.0, 1.0, 4.0))
    fy = Matrix(tuple(row[2:] for row in rows))
    got = dini._implicit_derivative(rows, 2)
    for j in range(2):
        want = solve(fy, [-row[j] for row in rows])
        assert tuple(r[j] for r in got.rows) == tuple(want)
    with pytest.raises(SingularMatrix):
        dini._implicit_derivative(((1.0, 1.0, 2.0), (1.0, 2.0, 4.0)), 1)
    assert dini._implicit_derivative(((2.0, 0.0), (0.0, 3.0)), 0).rows == ((), ())


def test_predictor_that_overflows_falls_back_to_the_nested_solve():
    """Each row of the square-map inverse's tangent at (0.3, 0.3) sums two
    terms near 1.4e308 at this query, so its fsum overflows: Newton gives
    up, and the nested solve reports the point outside the box."""
    system = build_inverse(SQUARE_MAP, [0.3, 0.3]).system
    with pytest.raises(OutsideBox):
        system.solve_at((1.7e308, 1.7e308))


def test_box_not_found_message_names_level():
    # level 2 solves y2 = 1e30 x^2, whose root leaves every box the search tries
    F = parse(["y1 - x", "y2 - 1e30*x^2"], ["x", "y1", "y2"])
    with pytest.raises(BoxNotFound) as err:
        build_system(F, SplitPoint.of([0.0], [0.0, 0.0]))
    assert err.value.level == 2
    assert str(err.value).startswith("no validated box: endpoint-sign failed at sample")
    assert str(err.value).endswith(" (recursion level 2)")


def test_seed_not_on_zero_set():
    with pytest.raises(SeedNotOnZeroSet):
        build_system(QUAD, SplitPoint.of([1.5], [1.0, 1.0]))
    # at m = 1 the check is build_implicit's
    circle = parse(["x^2 + y^2 - 1"], ["x", "y"])
    with pytest.raises(SeedNotOnZeroSet, match=r"^seed residual 0\.75 exceeds tolerance 1e-09$"):
        build_system(circle, SplitPoint.of([0.0], [0.5]))


def test_inner_levels_leave_the_seed_check_to_build_implicit(monkeypatch):
    """Each level's own equation is checked at the seed by its
    build_implicit call; between level k's build_implicit and level
    k + 1's, build_system evaluates no reduced function, each of whose
    evaluations costs a nested solve."""
    evals, spans = [], []
    real_eval, real_build = dini._ReducedFunction.eval, dini.build_implicit

    def counted_eval(self, u):
        evals.append(u)
        return real_eval(self, u)

    def spied_build(F, seed, options):
        start = len(evals)
        try:
            return real_build(F, seed, options)
        finally:
            spans.append((start, len(evals)))

    monkeypatch.setattr(dini._ReducedFunction, "eval", counted_eval)
    monkeypatch.setattr(dini, "build_implicit", spied_build)
    build_system(CUBIC_TRIPLE, SplitPoint.of([1.0], [1.0, 1.0, 1.0]))
    assert len(spans) == 3
    assert all(start == end for (_, end), (start, _) in zip(spans, spans[1:]))


def test_tangent_that_overflows_raises_value_error():
    # dF/dx = -1e308 in both rows and J^-1 = [[1, 0], [1, 1]]: the second
    # row of the tangent sums two terms of 1e308, so fsum overflows partway
    F = parse(["y1 - 1e308*x", "y2 - y1 - 1e308*x"], ["x", "y1", "y2"])
    with pytest.raises(ValueError, match="^implicit derivative at the seed overflows$"):
        build_system(F, SplitPoint.of([0.0], [0.0, 0.0]))


def test_singular_dependent_block():
    F = parse(["y1 + y2 - x", "2*y1 + 2*y2 - 2*x"], ["x", "y1", "y2"])
    with pytest.raises(SingularMatrix):
        build_system(F, SplitPoint.of([0.0], [0.0, 0.0]))


def test_dimension_checks():
    with pytest.raises(DimensionMismatch):
        build_system(QUAD, SplitPoint.of([1.0, 1.0], [1.0]))
    # m = 7 is one past MAX_DEPTH; the cap is checked before any work
    assert dini.MAX_DEPTH == 6
    names = ["x"] + [f"y{i}" for i in range(1, 8)]
    seven = parse([f"{y} - x" for y in names[1:]], names)
    with pytest.raises(ValueError, match="dependent dimension 7 exceeds the cap 6"):
        build_system(seven, SplitPoint.of([0.0], [0.0] * 7))


# --- Newton evaluation inside the validated region ---------------------------


def count_nested_solves(monkeypatch):
    """Count level-1 calls of the nested solve, the fallback of solve_at."""
    calls = []
    nested = dini.SystemSolution._solve

    def counted(self, x):
        if self.depth == 1:
            calls.append(x)
        return nested(self, x)

    monkeypatch.setattr(dini.SystemSolution, "_solve", counted)
    return calls


def test_region_walk_refuses_uncertified_zero(corpus_systems, monkeypatch):
    """x = 1.05 lies in cubic_triple's level-1 x-range but outside x_box():
    Newton finds the true zero there, and the walk refuses it because
    level 3 certifies nothing at that x. The nested solve then raises
    OutsideBox at level 3."""
    system = {p.name: s for p, s in corpus_systems}["cubic_triple"]
    x = (1.05,)
    box1 = system.scalar.box
    assert box1.x_lo[0] < x[0] < box1.x_hi[0]
    assert not system.x_box()[0][0] < x[0] < system.x_box()[1][0]
    with pytest.raises(OutsideBox) as err:
        system.solve_at(x)
    assert err.value.level == 3

    with monkeypatch.context() as patch:
        patch.setattr(dini.SystemSolution, "_in_region", lambda self, x, y: True)
        unchecked = system._newton(x)
    oracle = newton_solve_system(system.F, x, system.seed.y)
    assert max(abs(a - b) for a, b in zip(unchecked, oracle)) < 1e-12
    assert not system._in_region(x, unchecked)


def test_region_walk_checks_every_level(corpus_systems):
    """On cubic_triple, z just inside and just outside each level's
    y-interval, mapped to y through the level-1 normalizer, and x just
    inside and outside x_box() at the seed's z: the walk must map y back
    to z and check every level's interval and x-range."""
    system = {p.name: s for p, s in corpus_systems}["cubic_triple"]
    a, b = tuple(system.seed.x), tuple(system.seed.y)
    level, k = system, 0
    while level is not None:
        box = level.scalar.box
        for face, outward in ((box.y_lo, -1e-9), (box.y_hi, 1e-9)):
            for offset, inside in ((-outward, True), (outward, False)):
                z = list(b)
                z[k] = face + offset
                assert system._in_region(a, system._to_y(z)) is inside
        level, k = level.child, k + 1
    hi = system.x_box()[1][0]
    assert hi < system.child.scalar.box.x_hi[0]
    assert system._in_region((hi - 1e-9,), system._to_y(b))
    assert not system._in_region((hi + 1e-9,), system._to_y(b))
    # the uniqueness scan draws only points of the region
    rng = random.Random(1)
    assert all(system._in_region(a, y) for y in system._sample_ys(rng, 1000))


def stack_box_intersection(system):
    """Every level's scalar box intersected over (x, z_1..z_m). Level k
    (from 0) orders its box's coordinates (x, z_{k+2}..z_m, z_{k+1})."""
    n, m = system.n, system.m
    lo, hi = [-math.inf] * (n + m), [math.inf] * (n + m)
    level, k = system, 0
    while level is not None:
        box = level.scalar.box
        positions = [*range(n), *range(n + k + 1, n + m), n + k]
        for i, a, b in zip(positions, box.x_lo + (box.y_lo,), box.x_hi + (box.y_hi,)):
            lo[i], hi[i] = max(lo[i], a), min(hi[i], b)
        level, k = level.child, k + 1
    return lo, hi


def test_region_is_every_level_box_intersected(corpus_systems):
    """The stored region is exactly the intersection of the stack's boxes,
    and x_box() is its first n coordinates."""
    systems = [s for _, s in corpus_systems] + [build_inverse(SQUARE_MAP, [1.0, 1.0]).system]
    for system in systems:
        lo, hi = system.region
        assert (list(lo), list(hi)) == stack_box_intersection(system)
        assert system.x_box() == (lo[: system.n], hi[: system.n])


def test_returned_zeros_lie_in_region(corpus_systems):
    """Across the level-1 x-range, wider than x_box(), every answer maps
    into the validated region and every other query raises OutsideBox."""
    for problem, system in corpus_systems:
        if problem.seed.m == 1:
            continue
        lo, hi = system.scalar.box.x_lo[0], system.scalar.box.x_hi[0]
        answered = 0
        for i in range(1, 40):
            x = (lo + i * (hi - lo) / 40,)
            try:
                y = system.solve_at(x)
            except OutsideBox:
                continue
            answered += 1
            assert system._in_region(x, y)
        assert 0 < answered < 39


@pytest.mark.parametrize("name", ["quad_pair", "cubic_triple"])
def test_newton_accepted_exactly_inside_region(corpus_systems, monkeypatch, name):
    """x across x_box() and 5% beyond each edge. Newton's answer is
    accepted where its (x, z) lies strictly inside the region, z taken
    from y by a solve against the normalizer J_inv, and nowhere else
    (within 1e-9 of a face either may hold). Where solve_at and the nested
    solve both succeed they agree within tol_sys."""
    system = {p.name: s for p, s in corpus_systems}[name]
    (lo,), (hi,) = system.x_box()
    b = tuple(system.seed.y)
    rlo, rhi = system.region
    accepted = 0
    for i in range(81):
        x = (lo + (i / 80 * 1.1 - 0.05) * (hi - lo),)
        with monkeypatch.context() as patch:
            patch.setattr(dini.SystemSolution, "_in_region", lambda self, x, y: True)
            y = system._newton(x)
        if y is None:
            continue
        z = [bv + dv for bv, dv in zip(b, solve(system.normalizer, vec_sub(y, b)))]
        margins = [min(v - a, c - v) for a, v, c in zip(rlo, x + tuple(z), rhi)]
        accepted_here = system._newton(x) is not None
        if abs(min(margins)) > 1e-9:
            assert accepted_here == (min(margins) > 0)
        accepted += accepted_here
        try:
            fast = system.solve_at(x)
            nested = system._solve(x)
        except OutsideBox:
            continue
        assert max(abs(a - c) for a, c in zip(fast, nested)) <= system.options.tol_sys
    assert 0 < accepted < 81


# y1 = y2 = x^2 with z1 = y1 / 10: its tangent at the seed x = 0 is flat,
# so Newton starts from b there, far from the zero at |x| >> 0. The chord
# keeps the slope 0.1 of exp(0.1*y1) at y1 = 0, so each step maps
# z1 to z1 - (e^z1 - e^c), c = 0.1 x^2, whose slope 1 - e^c at the zero
# z1 = c contracts only where e^c < 2, that is |x| < 2.63; it settles
# within _NEWTON_MAX_ITER steps only for |x| below about 1.2
PARABOLIC_SHEET = parse(["exp(0.1*y1) - exp(0.1*x^2)", "y2 - y1"], ["x", "y1", "y2"])


@pytest.mark.parametrize(
    "x,fallbacks",
    [
        # the first step overshoots to z1 = e^3.025 - 1 = 19.6, the second
        # to z1 = -3.2e8, where e^z1 = 0, and from there each step climbs
        # by only e^3.025 = 20.6 toward 3.025
        (5.5, 1),
        # the first step overshoots to z1 = e^7.225 - 1, where exp overflows
        (8.5, 1),
        # the error shrinks by 1 - e^0.025 = -0.025 per step, and the eighth
        # step is the first below tol_root
        (0.5, 0),
    ],
)
def test_newton_fallback_gives_nested_answer(monkeypatch, x, fallbacks):
    """y1 = y2 = x^2 on a wide validated box, where Newton from the tangent
    predictor, b itself, does not settle in _NEWTON_MAX_ITER steps far
    from the seed: solve_at falls back to the nested solve and returns its
    answer bit for bit."""
    system = build_system(PARABOLIC_SHEET, SplitPoint.of([0.0], [0.0, 0.0]), SolverOptions(h0=10.0))
    lo, hi = system.x_box()
    assert lo[0] < x < hi[0]
    assert all(v == 0.0 for row in system.tangent.rows for v in row)
    calls = count_nested_solves(monkeypatch)
    y = system.solve_at((x,))
    assert len(calls) == fallbacks
    assert max(abs(v - x * x) for v in y) < 1e-9
    if fallbacks:
        assert y == system._solve((x,))


SQUARE_MAP = parse(["x1^2 - x2^2", "2*x1*x2"], ["x1", "x2"])


@pytest.mark.parametrize("name", ["cubic_triple", "quad_pair", "square_map_inverse"])
def test_newton_agrees_with_nested_solve(corpus_systems, monkeypatch, name):
    """At seeded interior points Newton's accepted answer and the nested
    solve agree within 1e-11."""
    if name == "square_map_inverse":
        system = build_inverse(SQUARE_MAP, [1.0, 1.0]).system
    else:
        system = {p.name: s for p, s in corpus_systems}[name]
    rng = random.Random(11)
    lo, hi = system.x_box()
    calls = count_nested_solves(monkeypatch)
    for _ in range(40):
        x = tuple(a + (0.05 + 0.9 * rng.random()) * (b - a) for a, b in zip(lo, hi))
        fast = system.solve_at(x)
        assert not calls
        nested = system._solve(x)
        calls.clear()
        assert max(abs(a - b) for a, b in zip(fast, nested)) <= 1e-11


def count_kernel_calls(monkeypatch, F):
    """The points of F's Jacobian passes and of its F.eval calls, in order."""
    passes, evals = [], []
    plain_pass, plain_eval = type(F)._values_and_jacobian, type(F).eval

    def counted_pass(self, p):
        if self is F:
            passes.append(tuple(p))
        return plain_pass(self, p)

    def counted_eval(self, p):
        if self is F:
            evals.append(tuple(p))
        return plain_eval(self, p)

    monkeypatch.setattr(type(F), "_values_and_jacobian", counted_pass)
    monkeypatch.setattr(type(F), "eval", counted_eval)
    return passes, evals


@pytest.mark.parametrize("name", ["quad_pair", "cubic_triple"])
def test_accepted_chord_query_makes_one_jacobian_pass(corpus_systems, monkeypatch, name):
    """The chord reads F's values and Jacobian once, at the tangent
    predictor b + Y' (x - a), and factors the dependent block once. Each
    step then evaluates F at the new iterate: every F.eval is at (x, y_k)
    with y_k nearer the answer than the one before, and the last point
    read is the returned y, whose residual it checks. At t = 0.5, the seed,
    the first step leaves the predictor unchanged, so no F.eval follows the
    pass."""
    system = {p.name: s for p, s in corpus_systems}[name]
    calls = count_nested_solves(monkeypatch)
    passes, evals = count_kernel_calls(monkeypatch, system.F)
    lo, hi = system.x_box()
    for t in (0.1, 0.5, 0.9):
        x = tuple(a + t * (b - a) for a, b in zip(lo, hi))
        passes.clear()
        evals.clear()
        y = system.solve_at(x)
        assert not calls
        dx = [u - a for u, a in zip(x, system.seed.x)]
        assert passes == [x + tuple(dini._affine(system.seed.y, system.tangent, dx))]
        assert len(evals) <= dini._NEWTON_MAX_ITER
        assert (len(evals) == 0) == (t == 0.5)
        assert all(p[: system.n] == x for p in evals)
        assert (passes + evals)[-1] == x + tuple(y)
        gaps = [max(abs(u - v) for u, v in zip(p[system.n :], y)) for p in passes + evals]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))


AFFINE_PAIR = parse(["y1 + y2 - x", "y1 - y2 - 2*x"], ["x", "y1", "y2"])


@pytest.mark.parametrize(
    "name,steps",
    [("quad_pair", 4), ("cubic_triple", 3), ("square_map_inverse", 5), ("affine_pair", 1)],
)
def test_newton_from_the_tangent_predictor_saves_a_pass(corpus_systems, monkeypatch, name, steps):
    """The chord starts from b + Y' (x - a), the first-order term of the
    solution at the seed, so it settles from one pass of the
    Jacobian kernel at the points 0.2 and 0.8 of each x-box axis; the
    most F.eval calls any of them makes is the given number (measured).
    On an affine system the predictor is the zero up to rounding: the
    first step leaves y unchanged at 0.2, and at 0.8 moves it once, by
    less than tol_root."""
    if name == "square_map_inverse":
        system = build_inverse(SQUARE_MAP, [1.0, 1.0]).system
    elif name == "affine_pair":
        system = build_system(AFFINE_PAIR, SplitPoint.of([0.0], [0.0, 0.0]))
    else:
        system = {p.name: s for p, s in corpus_systems}[name]
    calls = count_nested_solves(monkeypatch)
    passes, evals = count_kernel_calls(monkeypatch, system.F)
    counts = []
    lo, hi = system.x_box()
    for ts in itertools.product((0.2, 0.8), repeat=system.n):
        passes.clear()
        evals.clear()
        system.solve_at(tuple(a + t * (b - a) for a, t, b in zip(lo, ts, hi)))
        counts.append((len(passes), len(evals)))
    assert not calls
    assert all(p == 1 for p, _ in counts)
    if name == "affine_pair":
        assert counts == [(1, 0), (1, 1)]
    else:
        assert max(e for _, e in counts) == steps


def recent_system(m):
    """y_i^2 + sum_{j != i} y_j - x - (m - 1) = 0, seeded at x = 1, y = 1."""
    ys = [f"y{i}" for i in range(1, m + 1)]
    rows = [" + ".join([f"{y}^2"] + [v for v in ys if v != y]) + f" - x - {m - 1}" for y in ys]
    return parse(rows, ["x"] + ys), SplitPoint.of([1.0], [1.0] * m)


# the nested solve costs about 0.2 ms at m = 2 and 0.4 s at m = 5, so the
# deep systems compare with it at every nested_every-th point
@pytest.mark.parametrize("m,nested_every", [(2, 1), (3, 1), (4, 10), (5, 40), ("exp_pair", 1)])
def test_chord_matches_closed_form_across_the_region(corpus_systems, monkeypatch, m, nested_every):
    """At 200 points across 2-98% of the x-box, the chord is accepted
    without a nested solve in at most _NEWTON_MAX_ITER F.eval calls. On the
    Recent system each y_i is (-(m-1) + sqrt((m-1)^2 + 4(x+m-1)))/2 within
    1e-12; exp_pair has no closed form. Each answer checked against the
    nested solve equals it within 1e-11."""
    if m == "exp_pair":
        system, closed = {p.name: s for p, s in corpus_systems}[m], None
    else:
        system = build_system(*recent_system(m))
        closed = lambda x: (-(m - 1) + math.sqrt((m - 1) ** 2 + 4 * (x + m - 1))) / 2  # noqa: E731
    calls = count_nested_solves(monkeypatch)
    passes, evals = count_kernel_calls(monkeypatch, system.F)
    (lo,), (hi,) = system.x_box()
    for i in range(200):
        x = (lo + (0.02 + 0.96 * i / 199) * (hi - lo),)
        evals.clear()
        y = system.solve_at(x)
        assert not calls
        assert len(evals) <= dini._NEWTON_MAX_ITER
        if closed is not None:
            assert max(abs(v - closed(x[0])) for v in y) <= 1e-12
        if i % nested_every == 0:
            assert max(abs(u - v) for u, v in zip(y, system._solve(x))) <= 1e-11
            calls.clear()
    assert len(passes) == 200


@pytest.mark.parametrize("name", ["quad_pair", "cubic_triple"])
def test_query_outside_the_x_box_skips_newton(corpus_systems, monkeypatch, name):
    """Where x is not strictly inside x_box(), no answer of Newton's could
    lie in the region: solve_at makes no Jacobian pass and raises the
    nested solve's OutsideBox, at the level whose box excludes x."""
    system = {p.name: s for p, s in corpus_systems}[name]
    (lo,), (hi,) = system.x_box()
    points = [lo, hi, math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)]
    points += [1e308, -1e308, math.nan, math.inf]
    passes, _ = count_kernel_calls(monkeypatch, system.F)
    for v in points:
        with pytest.raises(OutsideBox) as fast:
            system.solve_at((v,))
        with pytest.raises(OutsideBox) as nested:
            system._solve((v,))
        assert (fast.value.level, str(fast.value)) == (nested.value.level, str(nested.value))
        assert fast.value.level is not None
    assert not passes


@pytest.mark.hypothesis  # its @given is on the inner function
def test_newton_answers_well_posed_systems_inside_the_region(monkeypatch):
    """On random well-posed systems with m = 2..4, at random points of the
    region's x-box, Newton from the tangent predictor is accepted: solve_at
    makes one Jacobian pass and no nested solve, its answer lies in the
    region, and it equals the nested solve's within 1e-11."""
    calls = count_nested_solves(monkeypatch)
    passes = []
    plain_pass = ExprFunction._values_and_jacobian

    def counted_pass(self, p):
        passes.append(p)
        return plain_pass(self, p)

    monkeypatch.setattr(ExprFunction, "_values_and_jacobian", counted_pass)

    @given(st.integers(2, 4), st.data())
    def check(m, data):
        F, seed = well_posed_system(m, lambda lo, hi: data.draw(st.floats(lo, hi)))
        system = build_system(F, seed, WELL_POSED_OPTIONS)
        lo, hi = system.x_box()
        x = tuple(data.draw(st.floats(a, b, exclude_min=True, exclude_max=True)) for a, b in zip(lo, hi))
        calls.clear()
        passes.clear()
        y = system.solve_at(x)
        assert not calls
        assert len(passes) == 1
        assert system._in_region(x, y)
        assert max(abs(u - v) for u, v in zip(y, system._solve(x))) <= 1e-11

    check()


def test_a_slowly_contracting_chord_is_accepted(monkeypatch):
    """A well-posed system the test above drew: F1 = v1 - v2/8 + v2^2/2 +
    u^2/2 and F2 = v2 + v1^2/2 + u^2/2, seeded at 0 with a flat tangent.
    At x = 0.25 the chord keeps the Jacobian at y = 0, off by about 0.035
    from the root's, so the error shrinks by that factor per step and the
    ninth step is the first below tol_root. The query is accepted with no
    nested solve and equals it within 1e-11."""
    draws = iter([0.0] * 4 + [-0.125, 0.0, 0.5, 0.0, 0.5] + [0.0] * 3 + [0.5, 0.0, 0.5])
    F, seed = well_posed_system(2, lambda lo, hi: next(draws))
    system = build_system(F, seed, WELL_POSED_OPTIONS)
    x = (0.25,)
    calls = count_nested_solves(monkeypatch)
    passes, evals = count_kernel_calls(monkeypatch, system.F)
    y = system.solve_at(x)
    assert not calls
    assert (len(passes), len(evals)) == (1, 9)
    assert max(abs(u - v) for u, v in zip(y, system._solve(x))) <= 1e-11


def test_system_far_from_zero_builds_and_matches_newton(monkeypatch):
    """A pair centred at y1 = y2 = 20000, where floats are 3.6e-12 apart,
    wider than tol_root: the level-2 box is validated through level-1 ITP
    solves that end on adjacent floats, and Newton settles at a step that
    leaves y unchanged, so no query falls back."""
    c = 20000.0
    d1, d2 = f"(y1 - {c!r})", f"(y2 - {c!r})"
    F = parse(
        [f"{d1}^2 + 0.5*{d2} - (x - 1) + {d1}", f"0.5*{d1} + {d2}^2 - (x - 1) + {d2}"],
        ["x", "y1", "y2"],
    )
    seed = SplitPoint.of([1.0], [c, c])
    system = build_system(F, seed)
    calls = count_nested_solves(monkeypatch)
    h = 1e-4
    for x in interior_grid(system, 9):
        # the oracle's residual cannot reach 1e-13 on floats this coarse
        oracle = newton_solve_system(F, x, seed.y, tol=1e-11)
        assert max(abs(a - b) for a, b in zip(system.solve_at(x), oracle)) <= 1e-10
        plus = newton_solve_system(F, (x[0] + h,), seed.y, tol=1e-11)
        minus = newton_solve_system(F, (x[0] - h,), seed.y, tol=1e-11)
        jac = system.jacobian_at(x)
        for i in range(2):
            assert abs(jac.rows[i][0] - (plus[i] - minus[i]) / (2 * h)) <= 1e-6
    assert not calls


# --- uniqueness -------------------------------------------------------------


def test_verify_uniqueness_quad_pair(quad_system):
    report = quad_system.verify_uniqueness((1.0,), samples=20000, rng_seed=5)
    assert report.passed
    assert report.single_cluster
    assert report.best_point is not None
    assert max(abs(v - 1.0) for v in report.best_point) < 0.05


@pytest.mark.parametrize("samples", [0, -5])
def test_verify_uniqueness_refuses_a_scan_of_nothing(quad_system, monkeypatch, samples):
    """No samples would pass having checked nothing; the refusal comes
    before the query is solved."""
    solved = []
    monkeypatch.setattr(dini.SystemSolution, "solve_at", lambda self, x: solved.append(x))
    with pytest.raises(ValueError, match=f"^samples must be at least 1, got {samples}$"):
        quad_system.verify_uniqueness((1.0,), samples=samples)
    assert solved == []


def test_verify_uniqueness_excludes_other_branch():
    # y^2 = x has roots +-sqrt(x); the box around (1, 1) keeps only +sqrt(x)
    F = parse(["y^2 - x"], ["x", "y"])
    system = build_system(F, SplitPoint.of([1.0], [1.0]))
    report = system.verify_uniqueness((0.9,), samples=20000, rng_seed=2)
    assert report.passed
    assert report.single_cluster
    assert abs(report.best_point[0] - math.sqrt(0.9)) < 0.01
    assert system.scalar.box.y_lo > 0.0


def test_verify_uniqueness_linear_case():
    F = parse(["2*y1 + y2 + x", "y1 + 2*y2 + 2*x"], ["x", "y1", "y2"])
    system = build_system(F, SplitPoint.of([0.0], [0.0, 0.0]))
    report = system.verify_uniqueness((0.05,), samples=20000, rng_seed=1)
    assert report.passed
    assert report.single_cluster
    # cluster sits at -B^-1 A x = (0, -x)
    assert abs(report.best_point[0]) < 0.02
    assert abs(report.best_point[1] + 0.05) < 0.02


def test_verify_uniqueness_report_is_deterministic(quad_system):
    a = quad_system.verify_uniqueness((1.0,), samples=2000, rng_seed=9)
    b = quad_system.verify_uniqueness((1.0,), samples=2000, rng_seed=9)
    assert a == b


def reference_sample_y(system, rng):
    """One point of the region's dependent part, drawn and mapped as the
    scan did before its per-sample map became one loop over floats: each
    z_k uniform, deepest level first, then y = b + J_inv (z - b) through
    matvec and vec_sub where the system normalized."""
    lo, hi = system.region
    z = [0.0] * system.m
    for k in reversed(range(system.m)):
        z[k] = rng.uniform(lo[system.n + k], hi[system.n + k])
    if system.normalizer is None:
        return Vector(z)
    b = system.seed.y
    dy = matvec(system.normalizer, vec_sub(z, b))
    return Vector(map(operator.add, b, dy))


def two_pass_uniqueness(system, x, samples, rng_seed):
    """Reference scan: store every sample, then filter twice."""
    x = tuple(x)
    y_star = system.solve_at(x)
    tol = system.options.tol_sys
    rng = random.Random(rng_seed)
    points = []
    for _ in range(samples):
        y = reference_sample_y(system, rng)
        points.append((max(abs(r) for r in system.F.eval(x + tuple(y))), y))
    best_res, best_point = min(points, key=lambda p: p[0])
    hit_dists = [vec_sub(y, y_star).norm() for res, y in points if res <= tol]
    threshold = max(tol, 10 * best_res)
    cand_dists = [vec_sub(y, y_star).norm() for res, y in points if res <= threshold]
    fy = split_columns(system.F.jacobian(x + tuple(y_star)), system.n)[1]
    cluster_bound = 2.0 * hs_norm(inverse(fy)) * threshold
    max_candidate_distance = max(cand_dists) if cand_dists else 0.0
    return UniquenessReport(
        x=Vector(x),
        solution=y_star,
        samples=samples,
        rng_seed=rng_seed,
        hits=len(hit_dists),
        max_hit_distance=max(hit_dists) if hit_dists else None,
        passed=all(d <= 10 * tol for d in hit_dists),
        best_point=best_point,
        best_residual=best_res,
        threshold=threshold,
        candidates=len(cand_dists),
        cluster_bound=cluster_bound,
        max_candidate_distance=max_candidate_distance,
        single_cluster=bool(cand_dists) and max_candidate_distance <= cluster_bound,
    )


@pytest.mark.parametrize("x,rng_seed", [((1.0,), 9), ((1.1,), 4)])
def test_verify_uniqueness_matches_two_pass_reference(quad_system, x, rng_seed):
    report = quad_system.verify_uniqueness(x, samples=20000, rng_seed=rng_seed)
    assert report == two_pass_uniqueness(quad_system, x, 20000, rng_seed)


@pytest.mark.parametrize("name", ["circle", "quad_pair", "cubic_triple"])
def test_verify_uniqueness_equals_the_per_sample_reference_by_repr(corpus_systems, name):
    """m = 1 (no normalizer), 2 and 3: the scan draws and maps exactly the
    points reference_sample_y draws, so its report is equal by repr."""
    system = {p.name: s for p, s in corpus_systems}[name]
    x = tuple(a + 0.37 * (b - a) for a, b in zip(*system.x_box()))
    report = system.verify_uniqueness(x, samples=3000, rng_seed=7)
    assert type(report.best_point) is Vector
    assert repr(report) == repr(two_pass_uniqueness(system, x, 3000, 7))


@pytest.mark.parametrize("name", ["circle", "quad_pair", "cubic_triple"])
def test_scan_draws_the_reference_points(corpus_systems, name):
    system = {p.name: s for p, s in corpus_systems}[name]
    drawn = list(system._sample_ys(random.Random(3), 2000))
    rng = random.Random(3)
    assert repr(drawn) == repr([reference_sample_y(system, rng) for _ in range(2000)])
    assert all(type(y) is Vector for y in drawn)


def test_verify_uniqueness_streaming_keeps_every_hit():
    # a loose tol_sys puts many samples under tol, so the hit pass is exercised
    system = build_system(QUAD, QUAD_SEED, SolverOptions(tol_sys=1e-2))
    report = system.verify_uniqueness((1.0,), samples=5000, rng_seed=3)
    assert report.hits > 1
    assert report == two_pass_uniqueness(system, (1.0,), 5000, 3)


def test_concurrent_evaluations_match_sequential(quad_system, corpus_systems):
    """Eight threads query one freshly built system, with thread switches
    forced often; every answer equals the sequential one. So do the
    bracketed Newton answers of an m = 1 system, the circle and the sphere
    cap, queried from eight threads at once."""
    xs = [(x,) for (x,) in interior_grid(quad_system, 16)]
    sequential = [(quad_system.solve_at(x), quad_system.jacobian_at(x)) for x in xs]
    fresh = build_system(parse(list(QUAD.source_text), list(QUAD.variables)), QUAD_SEED)
    circle = {p.name: s for p, s in corpus_systems}["circle"]
    # (system queried in turn, fresh system queried from threads) at m = 1
    m1 = [
        (circle, build_system(parse(["x^2 + y^2 - 1"], ["x", "y"]), circle.seed, circle.options)),
        (build_system(*SPHERE_CAP), build_system(*SPHERE_CAP)),
    ]
    m1_queries = [(built, fresh_m1, x) for built, fresh_m1 in m1 for x in interior_grid(built, 12)]
    sequential_m1 = [(built.solve_at(x), built.jacobian_at(x)) for built, _, x in m1_queries]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            concurrent = list(pool.map(lambda x: (fresh.solve_at(x), fresh.jacobian_at(x)), xs))
            concurrent_m1 = list(
                pool.map(lambda q: (q[1].solve_at(q[2]), q[1].jacobian_at(q[2])), m1_queries)
            )
    finally:
        sys.setswitchinterval(interval)
    assert concurrent == sequential
    assert concurrent_m1 == sequential_m1


def test_box_metadata_shape(quad_system):
    meta = quad_system.box_metadata()
    assert [m["level"] for m in meta] == [1, 2]
    assert meta[0]["normalizer"] is not None
    assert meta[1]["normalizer"] is None
    assert isinstance(meta[0]["y_interval"], list)
