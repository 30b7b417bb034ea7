import math
import random
import sys

import pytest

from implisolve import (
    DegenerateDerivative,
    DimensionMismatch,
    NoConvergence,
    OutsideBox,
    SeedNotOnZeroSet,
    SolverOptions,
    SplitPoint,
    Vector,
    build_implicit,
    find_box,
    parse,
)
from implisolve.errors import BoxNotFound
from implisolve.scalar_implicit import MAX_SHRINK, ImplicitSolution, SolutionBox

CIRCLE = parse(["x^2 + y^2 - 1"], ["x", "y"])
CIRCLE_OPTS = SolverOptions(h0=0.8)


@pytest.fixture(scope="module")
def circle():
    return build_implicit(CIRCLE, SplitPoint.of([0.0], [1.0]), CIRCLE_OPTS)


def test_find_box_circle_validates_and_survives_dense_scan(circle):
    box = circle.box
    assert box.x_lo[0] < 0.0 < box.x_hi[0]
    assert 0.0 < box.y_lo < 1.0 < box.y_hi < 2.0

    # oracle: dense scan of the returned box confirming both sign conditions
    rng = random.Random(3)
    for _ in range(10000):
        x = rng.uniform(box.x_lo[0], box.x_hi[0])
        y = rng.uniform(box.y_lo, box.y_hi)
        assert box.sign * CIRCLE.partial((x, y), 1)[0] > 0.0
    for i in range(100):
        x = box.x_lo[0] + (i + 0.5) * (box.x_hi[0] - box.x_lo[0]) / 100
        assert box.sign * CIRCLE.eval((x, box.y_lo))[0] < 0.0
        assert box.sign * CIRCLE.eval((x, box.y_hi))[0] > 0.0


def test_find_box_degenerate_derivative_at_tangent_point():
    with pytest.raises(DegenerateDerivative):
        find_box(CIRCLE, SplitPoint.of([1.0], [0.0]))


def test_find_box_seed_not_on_zero_set():
    with pytest.raises(SeedNotOnZeroSet):
        find_box(CIRCLE, SplitPoint.of([0.5], [1.0]))


def test_find_box_linear_first_attempt():
    F = parse(["y - x"], ["x", "y"])
    box = find_box(F, SplitPoint.of([0.0], [0.0]))
    assert box.shrinks == 0


def test_find_box_negative_slope_orientation():
    F = parse(["1 - y - x"], ["x", "y"])
    box = find_box(F, SplitPoint.of([0.0], [1.0]))
    assert box.sign == -1
    sol = build_implicit(F, SplitPoint.of([0.0], [1.0]))
    assert abs(sol.solve_at((0.2,)) - 0.8) < 1e-10


def test_find_box_exhausts_shrinks():
    # the zero set y = 1e30 x^2 needs ~100 halvings before the top face clears
    F = parse(["y - 1e30*x^2"], ["x", "y"])
    with pytest.raises(BoxNotFound) as err:
        find_box(F, SplitPoint.of([0.0], [0.0]))
    assert err.value.condition == "endpoint-sign"


def test_find_box_shrinks_up_to_the_cap():
    # y = 1e10 x^2 clears its top face after ~33 halvings, inside MAX_SHRINK
    F = parse(["y - 1e10*x^2"], ["x", "y"])
    box = find_box(F, SplitPoint.of([0.0], [0.0]))
    assert 30 < box.shrinks <= MAX_SHRINK


def test_find_box_zero_independent_dims():
    F = parse(["y^3 - 8"], ["y"])
    sol = build_implicit(F, SplitPoint.of([], [2.0]))
    assert abs(sol.solve_at(()) - 2.0) < 1e-12


def test_solve_at_circle(circle):
    assert abs(circle.solve_at((0.0,)) - 1.0) < 1e-12
    assert abs(circle.solve_at((0.6,)) - 0.8) < 1e-10  # sqrt(1 - x^2)
    with pytest.raises(OutsideBox):
        circle.solve_at((5.0,))
    with pytest.raises(OutsideBox):
        circle.solve_at((circle.box.x_hi[0],))  # boundary is not inside
    with pytest.raises(DimensionMismatch):
        circle.solve_at((0.1, 0.2))


def test_solve_at_exact_zero_tie_break():
    F = parse(["y"], ["x", "y"])
    sol = build_implicit(F, SplitPoint.of([0.0], [0.0]))
    assert sol.solve_at((0.1,)) == 0.0


def test_solve_at_detects_fooled_box():
    # hand-built box that lies about the sign conditions
    F = parse(["y - x"], ["x", "y"])
    bad = SolutionBox(
        x_lo=Vector([2.0]),
        x_hi=Vector([3.0]),
        y_lo=-0.5,
        y_hi=0.5,
        sign=1,
        grid_density=9,
    )
    sol = ImplicitSolution(F=F, box=bad, seed=SplitPoint.of([0.0], [0.0]), tol_root=1e-12)
    with pytest.raises(NoConvergence):
        sol.solve_at((2.5,))


def test_gradient_circle(circle):
    assert abs(circle.gradient_at((0.0,))[0]) < 1e-12
    assert abs(circle.gradient_at((0.6,))[0] - (-0.75)) < 1e-8  # -x/y


def test_gradient_linear():
    F = parse(["y - 3*x"], ["x", "y"])
    sol = build_implicit(F, SplitPoint.of([0.0], [0.0]))
    for x in (-0.2, 0.0, 0.3):
        assert abs(sol.gradient_at((x,))[0] - 3.0) < 1e-10


def test_uniqueness_scan_single_sign_change(circle):
    # 10^4 uniform samples of [y_lo, y_hi] exhibit exactly one sign change
    box = circle.box
    for x in (-0.5, 0.0, 0.3, 0.6):
        ys = [box.y_lo + i * (box.y_hi - box.y_lo) / 9999 for i in range(10000)]
        values = [CIRCLE.eval((x, y))[0] for y in ys]
        changes = sum(
            1 for a, b in zip(values, values[1:]) if a < 0.0 <= b or a >= 0.0 > b
        )
        assert changes == 1


def test_residual_on_grid(circle):
    box = circle.box
    for i in range(100):
        x = box.x_lo[0] + (i + 0.5) * (box.x_hi[0] - box.x_lo[0]) / 100
        y = circle.solve_at((x,))
        assert abs(CIRCLE.eval((x, y))[0]) <= 10 * circle.tol_root


@pytest.mark.parametrize(
    "funcs,seed,opts",
    [
        (["x^2 + y^2 - 1"], ([0.0], [1.0]), CIRCLE_OPTS),
        (["sin(x) + y^3 + y"], ([0.0], [0.0]), SolverOptions()),
    ],
)
def test_gradient_matches_finite_differences(funcs, seed, opts):
    F = parse(funcs, ["x", "y"])
    sol = build_implicit(F, SplitPoint.of(*seed), opts)
    box = sol.box
    h = 1e-6
    lo, hi = box.x_lo[0], box.x_hi[0]
    for i in range(7):
        x = lo + (i + 1) * (hi - lo) / 8
        grad = sol.gradient_at((x,))[0]
        fd = (sol.solve_at((x + h,)) - sol.solve_at((x - h,))) / (2 * h)
        assert abs(grad - fd) <= 1e-6


def test_continuity_along_segment(circle):
    # consecutive values along a fine segment move at most 2 * max-slope * step
    box = circle.box
    lo = box.x_lo[0] * 0.9
    hi = box.x_hi[0] * 0.9
    step = (hi - lo) / 999
    xs = [lo + i * step for i in range(1000)]
    values = [circle.solve_at((x,)) for x in xs]
    max_slope = max(abs(circle.gradient_at((x,))[0]) for x in xs[::50])
    bound = 2 * max_slope * step
    for a, b in zip(values, values[1:]):
        assert abs(b - a) <= bound


# --- ITP root finder ----------------------------------------------------------


class CountingF:
    """Wraps a function and counts its eval calls."""

    def __init__(self, fn):
        self.fn = fn
        self.n_inputs = fn.n_inputs
        self.n_outputs = fn.n_outputs
        self.evals = 0

    def eval(self, p):
        self.evals += 1
        return self.fn.eval(p)

    def partial(self, p, j):
        return self.fn.partial(p, j)


@pytest.mark.parametrize(
    "expression",
    [
        # flat ninth-order root: regula falsi alone would stall on one side
        "(y - 0.3 - x)^9 + 0.001*(y - 0.3 - x)",
        # steep cubic sheet with a nearly vanishing linear term
        "(y - 0.3 - x)^3 + 0.000000001*(y - 0.3 - x)",
    ],
)
def test_itp_worst_case_is_bisection_plus_one(expression):
    F = CountingF(parse([expression], ["x", "y"]))
    sol = build_implicit(F, SplitPoint.of([0.0], [0.3]))
    box = sol.box
    bound = math.ceil(math.log2((box.y_hi - box.y_lo) / sol.tol_root)) + 1
    for i in range(9):
        x = box.x_lo[0] + (i + 0.5) * (box.x_hi[0] - box.x_lo[0]) / 9
        F.evals = 0
        y = sol.solve_at((x,))
        assert F.evals - 2 <= bound  # two endpoint evaluations precede the loop
        assert abs(y - (0.3 + x)) <= sol.tol_root


def test_itp_circle_solve_eval_count():
    F = CountingF(CIRCLE)
    sol = build_implicit(F, SplitPoint.of([0.0], [1.0]), CIRCLE_OPTS)
    for x in (-0.7, -0.3, 0.1, 0.3, 0.6, 0.75):
        F.evals = 0
        y = sol.solve_at((x,))
        assert F.evals <= 15  # bisection took 43
        assert abs(y - math.sqrt(1 - x * x)) <= sol.tol_root


def itp_step_bound(sol):
    """ITP's n_max for a solution's box: bisection's count plus one."""
    width = sol.box.y_hi - sol.box.y_lo
    return max(0, math.ceil(math.log2(width) - math.log2(sol.tol_root))) + 1


def test_itp_stops_at_float_resolution_on_circle():
    # no bracket of floats near 1 is as narrow as 1e-320: where F hits no
    # exact zero, ITP must stop at adjacent endpoints, within its step bound
    F = CountingF(CIRCLE)
    sol = build_implicit(F, SplitPoint.of([0.0], [1.0]), SolverOptions(h0=0.8, tol_root=1e-320))
    for i in range(-75, 76):
        x = i / 100
        F.evals = 0
        y = sol.solve_at((x,))
        assert F.evals - 2 <= itp_step_bound(sol) + 1
        assert abs(y - math.sqrt(1 - x * x)) <= 4 * math.ulp(1.0)


def shifted_cubic_root(x):
    """The real root t of t^3 + t = x, by Cardano."""
    d = math.sqrt(x * x / 4 + 1 / 27)
    return math.copysign(abs(x / 2 + d) ** (1 / 3), x / 2 + d) - (d - x / 2) ** (1 / 3)


@pytest.mark.parametrize("center", [1e4, 1e6])
def test_itp_solves_far_from_zero(center):
    # floats near center are spaced wider than tol_root = 1e-12, so the
    # bracket ends on adjacent floats before it is tol_root wide
    F = parse([f"(y - {center!r})^3 + (y - {center!r}) - x"], ["x", "y"])
    sol = build_implicit(F, SplitPoint.of([0.0], [center]))
    assert math.ulp(center) > sol.tol_root
    for i in range(-49, 50):
        x = i / 100
        y = sol.solve_at((x,))
        assert abs(y - (center + shifted_cubic_root(x))) <= 2 * math.ulp(center)


# --- options --------------------------------------------------------------------


@pytest.mark.parametrize("field", ["h0", "h0_dep", "tol_root", "tol_sys"])
def test_options_reject_nan(field):
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError):
            SolverOptions(**{field: value})


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("tol_root", "abc", "tol_root must be an int or a float, got str"),
        ("tol_sys", True, "tol_sys must be an int or a float, got bool"),
        ("h0", [1], "h0 must be an int or a float, got list"),
        ("h0", 10**400, "h0 must be finite and positive"),
        ("h0_dep", -1.0, "h0_dep must be finite and positive"),
        ("tol_root", 0, "tol_root must be finite and positive"),
        ("grid_density", 2.5, "grid_density must be an int, got float"),
        ("grid_density", True, "grid_density must be an int, got bool"),
        ("grid_density", "9", "grid_density must be an int, got str"),
        ("grid_density", 1, "grid_density must be at least 2"),
    ],
)
def test_options_reject_ill_typed_values(field, value, message):
    with pytest.raises(ValueError) as excinfo:
        SolverOptions(**{field: value})
    assert str(excinfo.value) == message


def test_options_accept_ints_and_the_largest_float():
    options = SolverOptions(tol_root=1, tol_sys=sys.float_info.max, h0=2, grid_density=2)
    assert options.tol_sys == sys.float_info.max
