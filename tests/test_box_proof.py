"""find_box skips its sampled derivative sweep where an interval
enclosure proves the derivative's sign over the closed box, and its
endpoint-sign sweep where the face signs are proved over the points it
reads, below level 1 only where the checks of every level before are
proved over the box, and builds exactly what the sweeps build."""

import functools
import itertools
import math

import pytest
from hypothesis import example, given, strategies as st

from implisolve import SolverOptions, SplitPoint, build_system, dini, parse
from implisolve import scalar_implicit
from implisolve.errors import BoxNotFound, NoConvergence, OutsideBox
from implisolve.expr import ExprFunction
from implisolve.inverse import build_inverse

from conftest import CORPUS

QUAD_PAIR = (["y1^2 + y2 - x - 1", "y1 + y2^2 - x - 1"], ["x", "y1", "y2"])
SQUARE_MAP = (["x1^2 - x2^2", "2*x1*x2"], ["x1", "x2"])
# an exponential, a square and a cube, seeded at y = (0, 1, 1): no two levels alike
SKEW_TRIPLE = (
    ["exp(y1) + y2 + y3 - x - 3", "y1 + y2^2 + y3 - x - 2", "y1 + y2 + y3^3 - x - 2"],
    ["x", "y1", "y2", "y3"],
)
# the margin find_box gives its face proofs
TOL = SolverOptions().tol_sys


def _quad_pair_at(x0):
    # on y1 = y2 = y the pair reads y^2 + y - x - 1 = 0
    y = (-1.0 + math.sqrt(1.0 + 4.0 * (x0 + 1.0))) / 2.0
    return lambda: build_system(parse(*QUAD_PAIR), SplitPoint.of([x0], [y, y]))


def _square_map_at(p):
    return lambda: build_inverse(parse(*SQUARE_MAP), p).system


def _sum_system(m):
    """y_i^2 + sum_{j != i} y_j - x - (m - 1) = 0, seeded at x = 1, y = 1."""
    ys = [f"y{i}" for i in range(1, m + 1)]
    rows = [" + ".join([f"{y}^2"] + [v for v in ys if v != y]) + f" - x - {m - 1}" for y in ys]
    return lambda: build_system(parse(rows, ["x"] + ys), SplitPoint.of([1.0], [1.0] * m))


def _skew_triple():
    return build_system(parse(*SKEW_TRIPLE), SplitPoint.of([0.0], [0.0, 1.0, 1.0]))


def _corpus(name):
    p = next(p for p in CORPUS if p.name == name)
    return lambda: build_system(p.F, p.seed, p.options)


def _counting(monkeypatch, cls, method):
    """A list that gains an entry at each cls.method call."""
    counts = []
    original = getattr(cls, method)

    def counted(self, *args):
        counts.append(None)
        return original(self, *args)

    monkeypatch.setattr(cls, method, counted)
    return counts


# At the parent commit, the inverse build made 733 _ReducedFunction.partial
# calls and 6,575 ExprFunction.partial calls outside them (8,039 in all),
# the quad_pair build 85 and 1,467 (1,633). The bounds are a tenth of
# slightly lower figures, 6,565 and 1,461.
@pytest.mark.parametrize(
    "build, expr_partials, reduced_partials",
    [(_square_map_at((1.0, 0.0)), 6565, 733), (_quad_pair_at(1.0), 1461, 85)],
)
def test_proved_builds_skip_the_derivative_sweeps(monkeypatch, build, expr_partials, reduced_partials):
    expr = _counting(monkeypatch, ExprFunction, "partial")
    reduced = _counting(monkeypatch, dini._ReducedFunction, "partial")
    build()
    assert len(expr) <= expr_partials // 10
    assert len(reduced) <= reduced_partials // 10


# Before level 1's face signs were proved over the level-2 box, the inverse
# build at (1, 0) swept level 1's checks at 730 level-2 grid points; where
# they are not proved, find_box samples _ReducedFunction.partial there
# instead. Before the pivot was proved by one split, the build at
# (0.8, -0.25) made 733 _ReducedFunction.partial calls. The bounds are a
# tenth of each. Before level 2's own face signs were proved, each build
# made 164 _ReducedFunction.eval calls, one nested solve each, 162 of them
# in the endpoint-sign sweep. Their bound is a fifth: the proof at
# (0.8, -0.25) splits a face and solves at the centre of each part, 24
# calls in all.
@pytest.mark.parametrize(
    "p, method, calls",
    [
        ((1.0, 0.0), "partial", 730),
        ((0.8, -0.25), "partial", 733),
        ((1.0, 0.0), "eval", 164),
        ((0.8, -0.25), "eval", 164),
    ],
)
def test_proved_checks_skip_the_level_2_sweeps(monkeypatch, p, method, calls):
    counts = _counting(monkeypatch, dini._ReducedFunction, method)
    _square_map_at(p)()
    assert len(counts) <= calls // (5 if method == "eval" else 10)


# Before levels past the second proved their checks, the cubic_triple build
# sampled level 3's sweeps, each sample a nested solve through level 2, and
# made 12,687 ExprFunction.eval calls. The bound is a tenth.
def test_proved_deep_levels_skip_the_nested_sweeps(monkeypatch):
    evals = _counting(monkeypatch, ExprFunction, "eval")
    _corpus("cubic_triple")()
    assert len(evals) <= 12687 // 10


# level 2 solves y2 = 1e30 x^2, whose root leaves every box the search tries
STEEP = (["y1 - x", "y2 - 1e30*x^2"], ["x", "y1", "y2"])

BUILDS = [
    *[(p.name, (lambda p=p: build_system(p.F, p.seed, p.options))) for p in CORPUS],
    *[(f"quad_pair at {x0}", _quad_pair_at(x0)) for x0 in (0.5, 0.8, 1.3, 1.5)],
    ("sum system, m = 4", _sum_system(4)),
    ("skew triple", _skew_triple),
    *[(f"square map at {p}", _square_map_at(p))
      for p in ((1.0, 0.0), (0.7, 0.5), (1.1, -0.4), (0.8, -0.25))],
    # the benchmark's build-heavy strata, each at its middle: quad_pair
    # re-seeded on x0 in [0.5, 1.5], and the square map at r in [0.8, 1.2]
    # and theta in [-0.6, 0.6]
    *[(f"quad_pair at stratum {k}", _quad_pair_at(0.5 + (k + 0.5) / 8)) for k in range(8)],
    *[(f"square map at stratum {k}", _square_map_at((
        (0.8 + 0.1 * (k % 4 + 0.5)) * math.cos(-0.6 + 0.6 * (k // 4 + 0.5)),
        (0.8 + 0.1 * (k % 4 + 0.5)) * math.sin(-0.6 + 0.6 * (k // 4 + 0.5)))))
      for k in range(8)],
    ("circle at grid 5", lambda: build_system(
        parse(["x^2 + y^2 - 1"], ["x", "y"]), SplitPoint.of([0.0], [1.0]),
        SolverOptions(h0=0.8, grid_density=5))),
    ("steep", lambda: build_system(parse(*STEEP), SplitPoint.of([0.0], [0.0, 0.0]))),
    ("sqrt edge", lambda: build_system(parse(["sqrt(y) - x"], ["x", "y"]), SplitPoint.of([0.0], [0.0]))),
    # axes whose span overflows: the samples hold nan
    *[(f"line under {name}", lambda o=o: build_system(
        parse(["x + y"], ["x", "y"]), SplitPoint.of([0.0], [0.0]), o))
      for name, o in (("h0_dep=1e308", SolverOptions(h0_dep=1e308)), ("h0=1e308", SolverOptions(h0=1e308)))],
    ("overflowing hy", lambda: build_system(
        parse(["1e300*x + 1e-9*y"], ["x", "y"]), SplitPoint.of([0.0], [0.0]))),
]


_FIRST_FAILURE = scalar_implicit._first_failure


def _built(monkeypatch, build):
    """The build's boxes and region, or its refusal, and the grid point at
    which each failed attempt's derivative or endpoint-sign sweep failed:
    both sweeps run through _first_failure."""
    failures = []

    def recorded(axes, fails):
        point = _FIRST_FAILURE(axes, fails)
        if point is not None:
            failures.append(point)
        return point

    monkeypatch.setattr(scalar_implicit, "_first_failure", recorded)
    try:
        system = build()
    except BoxNotFound as exc:
        return ("BoxNotFound", exc.condition, exc.sample, exc.level, str(exc)), failures
    except Exception as exc:  # any other refusal must match too
        return (type(exc).__name__, str(exc)), failures
    return (system.box_metadata(), system.region), failures


@pytest.mark.parametrize("name, build", BUILDS, ids=[name for name, _ in BUILDS])
def test_build_is_the_same_without_the_proof(monkeypatch, name, build):
    proved = _built(monkeypatch, build)
    monkeypatch.setattr(scalar_implicit, "_derivative_proved", lambda *args: False)
    monkeypatch.setattr(scalar_implicit, "_faces_proved", lambda *args: False)
    monkeypatch.setattr(dini._ReducedFunction, "checks_proved", lambda self, lo, hi, margin: False)
    assert repr(_built(monkeypatch, build)) == repr(proved)


def _mirrored_quad_pair():
    # quad_pair with its first equation negated, which normalization
    # mirrors in z1: level 1's y_hi face is the one that fails
    F = parse(["x + 1 - y1^2 - y2", "y1 + y2^2 - x - 1"], ["x", "y1", "y2"])
    return build_system(F, SplitPoint.of([1.0], [1.0, 1.0]))


_BUILDS_BY_NAME = {
    "square map": _square_map_at((1.0, 0.0)),
    "quad_pair": _quad_pair_at(1.0),
    "mirrored quad_pair": _mirrored_quad_pair,
    "cubic_triple": _corpus("cubic_triple"),
    "sum m=4": _sum_system(4),
    "skew triple": _skew_triple,
    **{p.name: (lambda p=p: build_system(p.F, p.seed, p.options)) for p in CORPUS if p.seed.m == 1},
}


@functools.lru_cache(maxsize=None)
def _system(name):
    return _BUILDS_BY_NAME[name]()


def _level(name, depth):
    """Level `depth` of a build."""
    system = _system(name)
    for _ in range(depth - 1):
        system = system.child
    return system


def _solution(name, depth):
    """The scalar solution at level `depth` of a build."""
    return _level(name, depth).scalar


def _reduced(name, depth=2):
    """The reduced function level `depth` of a build solves."""
    return _level(name, depth).F


def _closed(box):
    return list(box.x_lo) + [box.y_lo], list(box.x_hi) + [box.y_hi]


def test_checks_proved_over_the_square_map_level_2_box():
    system = _square_map_at((1.0, 0.0))()
    F = system.child.F
    lo, hi = _closed(system.child.scalar.box)
    assert F.checks_proved(lo, hi, TOL)
    # touching phi's open x-box proves nothing
    touching = [F.phi.box.x_lo[0]] + lo[1:]
    assert not F.checks_proved(touching, hi, TOL)
    assert not F.checks_proved([math.nan] + lo[1:], hi, TOL)


def _grid(lo, hi, count):
    """count points on each axis of the closed box, its corners among them."""
    axes = [[a + i * (b - a) / (count - 1) for i in range(count)] for a, b in zip(lo, hi)]
    return itertools.product(*axes)


def test_mean_value_proves_the_quad_pair_level_2_checks():
    """quad_pair's level-1 face at y_lo encloses above 0 over level 2's
    box, so the enclosure alone cannot prove phi's checks there; the
    mean-value form does, and they hold on a fine grid."""
    F = _reduced("quad_pair")
    lo, hi = _closed(_solution("quad_pair", 2).box)
    box = F.phi.box
    low, high = F.phi.F.enclosure(lo + [box.y_lo], hi + [box.y_lo])[0][0]
    assert low < 0.0 < high
    assert F.checks_proved(lo, hi, TOL)
    for point in _grid(lo, hi, 21):
        F.phi._bracket(point)


def test_checks_proved_is_false_where_it_cannot_prove(monkeypatch):
    # a box with one corner on the zero set of quad_pair's level-1 face at
    # y_lo: phi's checks return at every point of it, but F there is
    # within any margin of 0
    F = _reduced("quad_pair")
    box = F.phi.box
    centre = [a + 0.5 * (b - a) for a, b in zip(box.x_lo, box.x_hi)]
    corner = (box.x_lo[0], box.x_hi[1])

    def on_segment(t):
        return [c + t * (k - c) for c, k in zip(centre, corner)]

    def face(point):
        return box.sign * F.phi.F.eval(tuple(point) + (box.y_lo,))[0]

    below, above = 0.0, 1.0
    assert face(on_segment(below)) < 0.0 < face(on_segment(above))
    for _ in range(60):
        t = 0.5 * (below + above)
        below, above = (t, above) if face(on_segment(t)) < 0.0 else (below, t)
    x, z2 = on_segment(below)
    lo, hi = [x, centre[1]], [centre[0], z2]
    for point in _grid(lo, hi, 41):
        F.phi._bracket(point)
    assert not F.checks_proved(lo, hi, TOL)
    # an enclosure of None proves nothing
    square = _square_map_at((1.0, 0.0))()
    monkeypatch.setattr(ExprFunction, "enclosure", lambda self, lo, hi: None)
    assert not square.child.F.checks_proved(*_closed(square.child.scalar.box), TOL)


def test_reduced_enclosure_is_none_where_it_proves_nothing():
    """Far from the seed a reduced function's enclosure proves nothing,
    two ways: G has no enclosure over the lifted box, since exp(-z2)
    overflows there on the skew triple, or, on quad_pair, the pivot
    dG_0/dz1 encloses an interval that holds 0, so z1 cannot be
    eliminated."""
    F = _reduced("skew triple")
    box = F.phi.box
    lo, hi = [box.x_lo[0], -800.0, box.x_lo[2]], [box.x_hi[0], -400.0, box.x_hi[2]]
    assert F.G.enclosure(F._assemble(lo, box.y_lo), F._assemble(hi, box.y_hi)) is None
    assert F.enclosure(lo, hi) is None

    F = _reduced("quad_pair")
    box = F.phi.box
    for z2, proved in ((2.0, True), (5.0, False)):
        lo, hi = [box.x_lo[0], -z2], [box.x_hi[0], z2]
        _, rows = F.G.enclosure(F._assemble(lo, box.y_lo), F._assemble(hi, box.y_hi))
        low, high = rows[0][1]
        assert (low > 0.0) == proved and high > 0.0
        assert (F.enclosure(lo, hi) is not None) == proved


def test_component_slice_enclosure_is_none_where_the_wrapped_one_is():
    """Below level 2, phi's F is a slice of the reduced function one level
    up, its inputs permuted: its enclosure is that function's, cut to one
    component, and None where that function has none."""
    F = _reduced("skew triple", 3)
    g1, reduced = F.phi.F, F.phi.F.fn
    assert (type(g1).__name__, type(reduced).__name__) == ("_ComponentSlice", "_ReducedFunction")
    assert g1.perm == (0, 2, 1)
    box = reduced.phi.box
    # exp(-z2) overflows over the lifted box, as in the test above
    lo, hi = [box.x_lo[0], -800.0, box.x_lo[2]], [box.x_hi[0], -400.0, box.x_hi[2]]
    assert reduced.enclosure(lo, hi) is None
    assert g1.enclosure([lo[k] for k in g1.perm], [hi[k] for k in g1.perm]) is None
    # over phi's own box both have one, and the slice's is the cut
    lo, hi = _closed(F.phi.box)
    values, rows = reduced.enclosure(g1._unpermute(lo), g1._unpermute(hi))
    assert g1.enclosure(lo, hi) == ((values[0],), (tuple(rows[0][k] for k in g1.perm),))


def test_deep_checks_fail_where_the_level_above_fails_its_own(monkeypatch):
    """Below level 2 the checks of phi's F come first: where they fail,
    the level's checks fail without a face proof of their own."""
    F = _reduced("cubic_triple", 3)
    lo, hi = _closed(_solution("cubic_triple", 3).box)
    assert F.checks_proved(lo, hi, TOL)
    faces = []
    monkeypatch.setattr(dini, "_faces_proved", lambda *args: faces.append(args))
    monkeypatch.setattr(F.phi.F.fn, "checks_proved", lambda lo, hi, margin: False)
    assert not F.checks_proved(lo, hi, TOL)
    assert faces == []


@pytest.mark.parametrize(
    "name, depth", [("cubic_triple", 3), ("sum m=4", 3), ("sum m=4", 4), ("skew triple", 3)]
)
def test_checks_proved_over_a_deep_box(name, depth):
    """Below level 2, phi's F is the reduced function one level up: its own
    checks are proved over the lifted box, then phi's face signs, over the
    level's validated box."""
    solution = _solution(name, depth)
    assert solution.F.checks_proved(*_closed(solution.box), TOL)


def test_checks_proved_needs_both_faces():
    """A box whose y_lo face proves while phi's checks fail at one of its
    corners, on level 1's y_hi face: it is not proved."""
    F = _reduced("mirrored quad_pair")
    box = F.phi.box
    lo, hi = [], []
    for a, b, low, high in zip(box.x_lo, box.x_hi, (0.01, 0.71), (0.21, 0.91)):
        lo.append(a + low * (b - a))
        hi.append(a + high * (b - a))
    low, high = F.phi.F.enclosure(lo + [box.y_lo], hi + [box.y_lo])[0][0]
    assert box.sign * high < 0.0
    with pytest.raises(NoConvergence):
        F.phi._bracket((lo[0], hi[1]))
    assert not F.checks_proved(lo, hi, TOL)


class _HalfWidthProof:
    """An F whose enclosure proves dF/dy > 0 on boxes no wider than half
    the unit square on each axis, and records the boxes it is asked."""

    def __init__(self):
        self.boxes = []

    def enclosure(self, lo, hi):
        self.boxes.append((tuple(lo), tuple(hi)))
        proved = all(b - a <= 0.5 for a, b in zip(lo, hi))
        return None, ((None, (1.0, 2.0) if proved else (-1.0, 2.0)),)


def test_split_proves_on_every_half_and_only_with_split():
    F = _HalfWidthProof()
    box = ([0.0, 0.0], [1.0, 1.0])
    enclosed = F.enclosure(*box)
    assert not scalar_implicit._derivative_proved(F, box, enclosed, 1, 1, False)
    assert scalar_implicit._derivative_proved(F, box, enclosed, 1, 1, True)
    # the whole box, then its four quarters, whose union is the box
    assert F.boxes == [
        ((0.0, 0.0), (1.0, 1.0)),
        ((0.0, 0.0), (0.5, 0.5)), ((0.0, 0.5), (0.5, 1.0)),
        ((0.5, 0.0), (1.0, 0.5)), ((0.5, 0.5), (1.0, 1.0)),
    ]
    assert not scalar_implicit._derivative_proved(F, box, enclosed, 1, -1, True)


class _UnprovedChecks:
    """F(x, y) = y with checks, as a nested function has, that fail for x
    in (low, high) and are never proved. The enclosure proves everything,
    and records the boxes it is asked."""

    n_inputs = 2
    n_outputs = 1

    def __init__(self, low, high):
        self.low, self.high = low, high
        self.boxes = []

    def _check(self, p):
        if self.low < p[0] < self.high:
            raise OutsideBox(p)

    def checks_proved(self, lo, hi, margin):
        return False

    def eval(self, p):
        self._check(p)
        return (p[1],)

    def partial(self, p, j):
        self._check(p)
        return (float(j == 1),)

    def enclosure(self, lo, hi):
        self.boxes.append((tuple(lo), tuple(hi)))
        return ((lo[1], hi[1]),), (((0.0, 0.0), (1.0, 1.0)),)


def test_faces_are_proved_only_where_the_checks_are():
    """The face proof would hold on the first attempt, but F's checks are
    not proved there, so the sweep runs. From the seed (0, 0), the first
    attempt's closed grid (x a multiple of 0.125) misses (-0.36, -0.30),
    and its interior grid point x = -1/3 lies in it."""
    box = scalar_implicit.find_box(_UnprovedChecks(-0.36, -0.30), SplitPoint.of([0.0], [0.0]))
    assert box.shrinks == 1


def test_unproved_checks_sample_the_partial_and_never_enclose(monkeypatch):
    """Where F's checks are not proved, find_box makes no enclosure, and
    an attempt fails at the first grid point where partial raises: here
    the first one, (-0.5, -0.5), of the first attempt's closed grid."""
    F = _UnprovedChecks(-0.6, -0.4)
    failures = []

    def recorded(axes, fails):
        point = _FIRST_FAILURE(axes, fails)
        failures.append(point)
        return point

    monkeypatch.setattr(scalar_implicit, "_first_failure", recorded)
    box = scalar_implicit.find_box(F, SplitPoint.of([0.0], [0.0]))
    assert box.shrinks == 1
    assert failures[0] == (-0.5, -0.5)
    assert F.boxes == []


def _triples(low, high):
    """Three fractions, in hundredths from low to high."""
    hundredths = st.integers(low, high).map(lambda k: k / 100)
    return st.tuples(hundredths, hundredths, hundredths)


# reduced functions: level 2 of three m = 2 builds, and the deeper levels,
# whose phi's F is itself a reduced function; phi's x-box has at most
# three axes
REDUCED = [
    ("square map", 2), ("quad_pair", 2), ("mirrored quad_pair", 2),
    ("cubic_triple", 3), ("sum m=4", 3), ("sum m=4", 4), ("skew triple", 3),
]


@given(
    st.sampled_from(REDUCED),
    _triples(-10, 110),
    _triples(0, 30),
    st.lists(_triples(0, 100), max_size=4),
)
# quad_pair's level-2 box, which only the mean-value form proves
@example(("quad_pair", 2), (0.5, 0.5, 0.5), (0.22, 0.28, 0.0), [])
def test_proved_checks_hold_at_every_point(level, centres, widths, inner):
    """Boxes centred in the level before's x-box or up to a tenth of its
    width beyond it, each half-width up to 0.3 of its width: wherever
    checks_proved holds, phi's checks return at every corner and at
    points inside."""
    F = _reduced(*level)
    box = F.phi.box
    lo, hi = [], []
    for a, b, c, w in zip(box.x_lo, box.x_hi, centres, widths):
        lo.append(a + (c - w) * (b - a))
        hi.append(a + (c + w) * (b - a))
    if not F.checks_proved(lo, hi, TOL):
        return
    points = list(itertools.product(*zip(lo, hi)))
    points += [
        tuple(min(max(a + w * (b - a), a), b) for a, b, w in zip(lo, hi, fractions))
        for fractions in inner
    ]
    for point in points:
        F.phi._bracket(point)


@given(
    st.sampled_from([level for level in REDUCED if level[0] != "mirrored quad_pair"]),
    _triples(0, 100),
    _triples(0, 50),
    st.lists(_triples(0, 100), max_size=4),
)
@example(("quad_pair", 2), (0.5, 0.5, 0.5), (0.22, 0.28, 0.0), [])
def test_enclosure_holds_the_reduced_jacobian(level, centres, widths, inner):
    """Boxes inside the level before's x-box, each axis centred anywhere in
    it with half-width up to half its width, cut to the middle 98% of it:
    wherever checks_proved holds, each value interval of the reduced
    function's enclosure holds eval's value, and each row interval
    jacobian's entry, at every corner and at points inside."""
    F = _reduced(*level)
    box = F.phi.box
    lo, hi = [], []
    for a, b, c, w in zip(box.x_lo, box.x_hi, centres, widths):
        lo.append(a + max(c - w, 0.01) * (b - a))
        hi.append(a + min(c + w, 0.99) * (b - a))
    if not F.checks_proved(lo, hi, TOL):
        return
    enclosed = F.enclosure(lo, hi)
    if enclosed is None:
        return
    values, rows = enclosed
    points = list(itertools.product(*zip(lo, hi)))
    points += [
        tuple(a + w * (b - a) for a, b, w in zip(lo, hi, fractions)) for fractions in inner
    ]
    for point in points:
        for value, (low, high) in zip(F.eval(point), values):
            assert low <= value <= high
        for got, bounds in zip(F.jacobian(point).rows, rows):
            for entry, (low, high) in zip(got, bounds):
                assert low <= entry <= high


LEVELS = [
    ("circle", 1), ("sin_cubic", 1), ("log_curve", 1),
    ("quad_pair", 1), ("quad_pair", 2),
    ("mirrored quad_pair", 1), ("mirrored quad_pair", 2),
    ("square map", 1), ("square map", 2),
    ("cubic_triple", 2), ("cubic_triple", 3),
]


def _quadruples(low, high):
    """Four fractions, in hundredths from low to high: one per axis of the
    widest level, level 1 of the square map."""
    hundredths = st.integers(low, high).map(lambda k: k / 100)
    return st.tuples(hundredths, hundredths, hundredths, hundredths)


@given(
    st.sampled_from(LEVELS),
    _quadruples(-20, 120),
    _quadruples(1, 60),
    st.booleans(),
    st.lists(_quadruples(0, 100), max_size=4),
)
def test_proved_faces_hold_at_every_point(level, centres, widths, given_enclosure, inner):
    """Boxes about a level's validated box, each axis centred up to a fifth
    of its width beyond it, with half-widths up to 0.6 of it. The points
    find_box's sweep reads are the interior grid points of the box's two
    y-faces. Wherever _faces_proved holds over their hull, with or without
    an enclosure over the hull passed in, and below level 1 where
    checks_proved holds there too, F's computed sign at each of them, and
    at points of the hull, is the proved one."""
    solution = _solution(*level)
    F, box = solution.F, solution.box
    n = len(box.x_lo)
    lo, hi = [], []
    for a, b, c, w in zip(*_closed(box), centres, widths):
        lo.append(a + (c - w) * (b - a))
        hi.append(a + (c + w) * (b - a))
    g = box.grid_density
    axes = [scalar_implicit._interior_axis(a, b, g) for a, b in zip(lo[:n], hi[:n])]
    faces = ([axis[0] for axis in axes] + [lo[n]], [axis[-1] for axis in axes] + [hi[n]])
    if hasattr(F, "checks_proved") and not F.checks_proved(*faces, TOL):
        return
    enclosed = F.enclosure(*faces) if given_enclosure else None
    if not scalar_implicit._faces_proved(F, faces, box.sign, TOL, enclosed):
        return
    hull = list(zip(*faces))[:n]
    points = list(itertools.product(*axes))
    points += [
        tuple(min(max(a + w * (b - a), a), b) for (a, b), w in zip(hull, fractions))
        for fractions in inner
    ]
    for xs in points:
        assert box.sign * F.eval(xs + (lo[n],))[0] < 0.0 < box.sign * F.eval(xs + (hi[n],))[0]
