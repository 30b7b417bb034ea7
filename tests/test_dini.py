import math
import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from implisolve import (
    DimensionMismatch,
    Matrix,
    OutsideBox,
    SeedNotOnZeroSet,
    SingularMatrix,
    SolverOptions,
    SplitPoint,
    Vector,
    build_implicit,
    build_system,
    normalize,
    parse,
)
from implisolve.dini import UniquenessReport, _AffineReparam
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


def test_composed_jvp_matches_partials(corpus_systems):
    """The composed functions of the m = 3 stack: jvp is the partials
    combined along the direction, and a dependent column of the affine
    reparameterization is dF/dy J_inv[:, j], taken in one pass."""
    system = {p.name: s for p, s in corpus_systems}["cubic_triple"]
    reduced1, reduced2 = system.child.F, system.child.child.F
    # inner normalizers come out as the identity, so take a sheared one
    shear = Matrix(((1.0, 0.5), (-0.25, 1.0)))
    affine = _AffineReparam(reduced1, 1, system.child.seed.y, shear)
    rng = random.Random(3)

    def close(a, b, scale):
        return abs(a - b) <= 1e-12 * max(1.0, scale)

    for fn, seed in (
        (reduced1, system.child.seed),
        (affine, system.child.seed),
        (reduced2, system.child.child.seed),
    ):
        p = tuple(c + rng.uniform(-0.003, 0.003) for c in seed.point())
        v = [rng.uniform(-1.0, 1.0) for _ in range(fn.n_inputs)]
        partials = [fn.partial(p, j) for j in range(fn.n_inputs)]
        got = fn.jvp(p, v)
        for i in range(fn.n_outputs):
            terms = [v[j] * partials[j][i] for j in range(fn.n_inputs)]
            assert close(got[i], sum(terms), sum(abs(t) for t in terms))

    n, m = affine.n, len(affine.b)
    p = tuple(c + 0.002 for c in system.child.seed.point())
    y_cols = [affine.fn.partial(affine._map(p), n + k) for k in range(m)]
    for jz in range(m):
        got = affine.partial(p, n + jz)
        for i in range(affine.n_outputs):
            terms = [y_cols[k][i] * affine.j_inv.rows[k][jz] for k in range(m)]
            assert close(got[i], sum(terms), sum(abs(t) for t in terms))


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
    with pytest.raises(ValueError):
        build_system(QUAD, QUAD_SEED, SolverOptions(max_depth=1))


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
