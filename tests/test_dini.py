import math
import random
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from implisolve import (
    BoxNotFound,
    DimensionMismatch,
    Matrix,
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
from implisolve import dini
from implisolve.dini import _NORMALIZE_TOL, UniquenessReport, _AffineReparam, _ComponentSlice
from implisolve.linalg import hs_norm, inverse, split_columns, vec_sub
from conftest import interior_grid
from oracles import newton_solve_system

QUAD = parse(["y1^2 + y2 - x - 1", "y1 + y2^2 - x - 1"], ["x", "y1", "y2"])
QUAD_SEED = SplitPoint.of([1.0], [1.0, 1.0])


def quad_closed_form(x):
    # symmetric root of y^2 + y - x - 1 = 0, the branch through (1, 1)
    y = (-1 + math.sqrt(5 + 4 * x)) / 2
    return (y, y)


@pytest.fixture(scope="module")
def quad_system():
    return build_system(QUAD, QUAD_SEED)


# --- normalize --------------------------------------------------------------


def test_normalize_identity_jacobian_is_identity_substitution():
    F = parse(["y1 + x", "y2 - x"], ["x", "y1", "y2"])
    seed = SplitPoint.of([0.0], [0.0, 0.0])
    G, j_inv = normalize(F, seed)
    assert j_inv.rows == ((1.0, 0.0), (0.0, 1.0))
    for p in [(0.1, 0.2, -0.3), (0.0, 0.0, 0.0), (-0.4, 0.25, 0.5)]:
        got = G.eval(p)
        want = F.eval(p)
        assert all(abs(a - b) < 1e-14 for a, b in zip(got, want))


def test_normalize_diagonal_system_no_independents():
    F = parse(["2*y1", "3*y2"], ["y1", "y2"])
    seed = SplitPoint.of([], [0.0, 0.0])
    G, j_inv = normalize(F, seed)
    assert j_inv.rows == ((0.5, 0.0), (0.0, 1 / 3))
    # hand substitution y = J^-1 z gives G(z) = (z1, z2)
    got = G.eval((0.4, -0.9))
    assert abs(got[0] - 0.4) < 1e-14
    assert abs(got[1] - (-0.9)) < 1e-14
    gy = G.jacobian((0.0, 0.0))
    assert abs(gy.rows[0][0] - 1.0) < 1e-12
    assert abs(gy.rows[1][1] - 1.0) < 1e-12
    assert abs(gy.rows[0][1]) < 1e-12


def test_normalize_singular_jacobian():
    F = parse(["y1 + y2", "y1 + y2"], ["y1", "y2"])
    with pytest.raises(SingularMatrix):
        normalize(F, SplitPoint.of([], [0.0, 0.0]))


def test_normalize_keeps_seed_value():
    G, _ = normalize(QUAD, QUAD_SEED)
    assert tuple(G.eval(QUAD_SEED.point())) == tuple(QUAD.eval(QUAD_SEED.point()))


# --- build/solve ------------------------------------------------------------


def test_base_case_delegates_to_scalar_exactly():
    F = parse(["x^2 + y^2 - 1"], ["x", "y"])
    opts = SolverOptions(h0=0.8)
    seed = SplitPoint.of([0.0], [1.0])
    system = build_system(F, seed, opts)
    scalar = build_implicit(F, seed, opts)
    for x in (-0.5, 0.0, 0.25, 0.6):
        assert system.solve_at((x,))[0] == scalar.solve_at((x,))
        # same value, same formula; arithmetic order differs by one rounding
        jac = system.jacobian_at((x,)).rows[0][0]
        grad = scalar.gradient_at((x,))[0]
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
    it is, with no normalizer and no _AffineReparam around it."""
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
                assert abs(got[i] - jac.rows[i][j]) <= 1e-12


def test_inner_level_checks_identity_block(monkeypatch):
    """Below level 1 a dependent block that is not I is refused, not
    normalized again. With normalize made a no-op, level 2 inherits the
    block [[2, 1], [1, 2]]."""
    monkeypatch.setattr(dini, "normalize", lambda F, seed: (F, None))
    F = parse(["y1 - x", "2*y2 + y3", "y2 + 2*y3"], ["x", "y1", "y2", "y3"])
    with pytest.raises(SingularMatrix, match="normalization failed"):
        build_system(F, SplitPoint.of([0.0], [0.0, 0.0, 0.0]))


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
    is off I by more than _NORMALIZE_TOL. The check uses the block
    eliminated at z1 = b1, which is I up to roundoff, so the build
    succeeds."""
    seed = SplitPoint.of([t * t + 2 * t - 2], [t + dy1, t, t])
    assert max(abs(r) for r in CUBIC_TRIPLE.eval(seed.point())) <= options.tol_sys
    system = build_system(CUBIC_TRIPLE, seed, options)
    assert identity_gap(system.child) > _NORMALIZE_TOL
    y = system.solve_at(tuple(seed.x))
    assert max(abs(a - b) for a, b in zip(y, seed.y)) <= 10 * options.tol_sys
    check_against_newton(CUBIC_TRIPLE, seed, system)


STEEP_CURVE = parse(["1000*(y^3 + y - x) + sin(y) - sin(x)"], ["x", "y"])


@pytest.mark.parametrize(
    "F,seed,queries",
    [
        (STEEP_CURVE, SplitPoint.of([0.0], [0.0]), 300),
        (QUAD, QUAD_SEED, 40),
        (CUBIC_TRIPLE, SplitPoint.of([1.0], [1.0, 1.0, 1.0]), 8),
    ],
    ids=["steep_curve", "quad_pair", "cubic_triple"],
)
def test_every_answer_seeds_a_new_build(F, seed, queries):
    """solve_at's answers and the seeds a build accepts share the residual
    bound tol_sys, so a build re-seeded at any answer succeeds. On the steep
    curve the factor 1000 leaves many answers with a residual above 1e-10."""
    system = build_system(F, seed)
    lo, hi = system.x_box()
    rng = random.Random(1)
    residuals = []
    for _ in range(queries):
        x = tuple(rng.uniform(0.95 * a + 0.05 * b, 0.05 * a + 0.95 * b) for a, b in zip(lo, hi))
        y = system.solve_at(x)
        residuals.append(max(abs(r) for r in F.eval(x + tuple(y))))
        build_system(F, SplitPoint.of(x, y))
    assert max(residuals) <= system.options.tol_sys
    if F is STEEP_CURVE:
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


class _Opaque:
    """A level-1 F that is not an ExprFunction: it forwards the function
    protocol (eval, partial, jvp, jacobian) and nothing else. Temporary:
    it and test_composed_level1_matches_expression_build go when
    _AffineReparam and _ComponentSlice are deleted, after the tracer
    change of ROADMAP item 3 (see item 5)."""

    def __init__(self, fn):
        self.fn = fn
        self.n_inputs = fn.n_inputs
        self.n_outputs = fn.n_outputs

    def eval(self, p):
        return self.fn.eval(p)

    def partial(self, p, j):
        return self.fn.partial(p, j)

    def jvp(self, p, v):
        return self.fn.jvp(p, v)

    def jacobian(self, p):
        return self.fn.jacobian(p)


@pytest.mark.parametrize("name", ["quad_pair", "cubic_triple"])
def test_composed_level1_matches_expression_build(corpus_systems, name):
    problem, expr_system = {p.name: (p, s) for p, s in corpus_systems}[name]
    opaque = _Opaque(problem.F)
    system = build_system(opaque, problem.seed, problem.options)
    g1 = system.scalar.F
    assert isinstance(g1, _ComponentSlice)
    assert isinstance(g1.fn, _AffineReparam) and g1.fn.fn is opaque
    assert system.child.normalizer is None

    lo = [max(a, b) for a, b in zip(system.x_box()[0], expr_system.x_box()[0])]
    hi = [min(a, b) for a, b in zip(system.x_box()[1], expr_system.x_box()[1])]
    tol = problem.options.tol_sys
    for t in (0.2, 0.5, 0.8):
        x = tuple(a + t * (b - a) for a, b in zip(lo, hi))
        got, want = system.solve_at(x), expr_system.solve_at(x)
        assert max(abs(a - b) for a, b in zip(got, want)) <= tol
        jac, jac_want = system.jacobian_at(x), expr_system.jacobian_at(x)
        for r1, r2 in zip(jac.rows, jac_want.rows):
            assert max(abs(a - b) for a, b in zip(r1, r2)) <= tol


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
    assert all(system._in_region(a, system._sample_y(rng)) for _ in range(1000))


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


EXP_SHEET = parse(["exp(y1) - exp(x)", "y2 - y1"], ["x", "y1", "y2"])


@pytest.mark.parametrize(
    "x,fallbacks",
    [
        # from y1 = 0 Newton moves about -1 per step toward y1 = -8
        (-8.0, 1),
        # the first step overshoots to y1 = e^8 - 1, where exp overflows
        (8.0, 1),
        (0.5, 0),
    ],
)
def test_newton_fallback_gives_nested_answer(monkeypatch, x, fallbacks):
    """y1 = y2 = x on a wide validated box, where Newton from the seed does
    not settle in _NEWTON_MAX_ITER steps far from it: solve_at falls back
    to the nested solve and returns its answer bit for bit."""
    system = build_system(EXP_SHEET, SplitPoint.of([0.0], [0.0, 0.0]), SolverOptions(h0=10.0))
    lo, hi = system.x_box()
    assert lo[0] < x < hi[0]
    calls = count_nested_solves(monkeypatch)
    y = system.solve_at((x,))
    assert len(calls) == fallbacks
    assert max(abs(v - x) for v in y) < 1e-9
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


def two_pass_uniqueness(system, x, samples, rng_seed):
    """Reference scan: store every sample, then filter twice."""
    x = tuple(x)
    y_star = system.solve_at(x)
    tol = system.options.tol_sys
    rng = random.Random(rng_seed)
    points = []
    for _ in range(samples):
        y = system._sample_y(rng)
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


def test_verify_uniqueness_streaming_keeps_every_hit():
    # a loose tol_sys puts many samples under tol, so the hit pass is exercised
    system = build_system(QUAD, QUAD_SEED, SolverOptions(tol_sys=1e-2))
    report = system.verify_uniqueness((1.0,), samples=5000, rng_seed=3)
    assert report.hits > 1
    assert report == two_pass_uniqueness(system, (1.0,), 5000, 3)


def test_concurrent_evaluations_match_sequential(quad_system):
    xs = [(x,) for (x,) in interior_grid(quad_system, 16)]
    sequential = [tuple(quad_system.solve_at(x)) for x in xs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        concurrent = list(pool.map(lambda x: tuple(quad_system.solve_at(x)), xs))
    assert concurrent == sequential


def test_box_metadata_shape(quad_system):
    meta = quad_system.box_metadata()
    assert [m["level"] for m in meta] == [1, 2]
    assert meta[0]["normalizer"] is not None
    assert meta[1]["normalizer"] is None
    assert isinstance(meta[0]["y_interval"], list)
