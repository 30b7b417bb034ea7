"""find_box skips its sampled derivative sweep where an interval
enclosure proves the derivative's sign over the closed box, and at level 2
its sweep of level 1's checks where enclosures prove level 1's face signs
over the box, and builds exactly what the sweeps build."""

import functools
import itertools
import math

import pytest
from hypothesis import given, strategies as st

from implisolve import SolverOptions, SplitPoint, build_system, dini, parse
from implisolve import scalar_implicit
from implisolve.errors import BoxNotFound, NoConvergence
from implisolve.expr import ExprFunction
from implisolve.inverse import build_inverse

from conftest import CORPUS

QUAD_PAIR = (["y1^2 + y2 - x - 1", "y1 + y2^2 - x - 1"], ["x", "y1", "y2"])
SQUARE_MAP = (["x1^2 - x2^2", "2*x1*x2"], ["x1", "x2"])


def _quad_pair_at(x0):
    # on y1 = y2 = y the pair reads y^2 + y - x - 1 = 0
    y = (-1.0 + math.sqrt(1.0 + 4.0 * (x0 + 1.0))) / 2.0
    return lambda: build_system(parse(*QUAD_PAIR), SplitPoint.of([x0], [y, y]))


def _square_map_at(p):
    return lambda: build_inverse(parse(*SQUARE_MAP), p).system


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
# build at (1, 0) made 730 _ReducedFunction.check_point calls, and before
# the pivot was proved by one split, the one at (0.8, -0.25) made 733
# _ReducedFunction.partial calls. The bounds are a tenth of each.
@pytest.mark.parametrize(
    "p, method, calls", [((1.0, 0.0), "check_point", 730), ((0.8, -0.25), "partial", 733)]
)
def test_proved_checks_skip_the_level_2_sweeps(monkeypatch, p, method, calls):
    counts = _counting(monkeypatch, dini._ReducedFunction, method)
    _square_map_at(p)()
    assert len(counts) <= calls // 10


# level 2 solves y2 = 1e30 x^2, whose root leaves every box the search tries
STEEP = (["y1 - x", "y2 - 1e30*x^2"], ["x", "y1", "y2"])

BUILDS = [
    *[(p.name, (lambda p=p: build_system(p.F, p.seed, p.options))) for p in CORPUS],
    *[(f"quad_pair at {x0}", _quad_pair_at(x0)) for x0 in (0.5, 0.8, 1.3, 1.5)],
    *[(f"square map at {p}", _square_map_at(p))
      for p in ((1.0, 0.0), (0.7, 0.5), (1.1, -0.4), (0.8, -0.25))],
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
    which each failed attempt's derivative condition failed."""
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
    monkeypatch.setattr(dini._ReducedFunction, "checks_proved", lambda self, lo, hi: False)
    assert repr(_built(monkeypatch, build)) == repr(proved)


def _mirrored_quad_pair():
    # quad_pair with its first equation negated, which normalization
    # mirrors in z1: level 1's y_hi face is the one that fails
    F = parse(["x + 1 - y1^2 - y2", "y1 + y2^2 - x - 1"], ["x", "y1", "y2"])
    return build_system(F, SplitPoint.of([1.0], [1.0, 1.0]))


@functools.lru_cache(maxsize=None)
def _level_2(name):
    """The reduced function level 2 of a build solves."""
    build = {
        "square map": _square_map_at((1.0, 0.0)),
        "quad_pair": _quad_pair_at(1.0),
        "mirrored quad_pair": _mirrored_quad_pair,
    }[name]
    return build().child.F


def _closed(box):
    return list(box.x_lo) + [box.y_lo], list(box.x_hi) + [box.y_hi]


def test_checks_proved_over_the_square_map_level_2_box():
    system = _square_map_at((1.0, 0.0))()
    F = system.child.F
    lo, hi = _closed(system.child.scalar.box)
    assert F.checks_proved(lo, hi)
    # touching phi's open x-box proves nothing
    touching = [F.phi.box.x_lo[0]] + lo[1:]
    assert not F.checks_proved(touching, hi)
    assert not F.checks_proved([math.nan] + lo[1:], hi)


def test_checks_proved_is_false_where_it_cannot_prove(monkeypatch):
    # quad_pair's level-1 face at y_lo encloses above 0 over level 2's box
    system = _quad_pair_at(1.0)()
    assert not system.child.F.checks_proved(*_closed(system.child.scalar.box))
    # cubic_triple's level 3: phi's F is level 2's reduced function
    cubic = next(p for p in CORPUS if p.name == "cubic_triple")
    system = build_system(cubic.F, cubic.seed, cubic.options)
    level_3 = system.child.child
    assert not level_3.F.checks_proved(*_closed(level_3.scalar.box))
    # an enclosure of None proves nothing
    square = _square_map_at((1.0, 0.0))()
    monkeypatch.setattr(ExprFunction, "enclosure", lambda self, lo, hi: None)
    assert not square.child.F.checks_proved(*_closed(square.child.scalar.box))


def test_checks_proved_needs_both_faces():
    """A box whose y_lo face proves while phi's checks fail at one of its
    corners, on level 1's y_hi face: it is not proved."""
    F = _level_2("mirrored quad_pair")
    box = F.phi.box
    lo, hi = [], []
    for a, b, low, high in zip(box.x_lo, box.x_hi, (0.01, 0.71), (0.21, 0.91)):
        lo.append(a + low * (b - a))
        hi.append(a + high * (b - a))
    low, high = F.phi.F.enclosure(lo + [box.y_lo], hi + [box.y_lo])[0][0]
    assert box.sign * high < 0.0
    with pytest.raises(NoConvergence):
        F.phi._bracket((lo[0], hi[1]))
    assert not F.checks_proved(lo, hi)


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
    assert not scalar_implicit._derivative_proved(F, ([0.0, 0.0], [1.0, 1.0]), 1, 1, False)
    assert F.boxes == [((0.0, 0.0), (1.0, 1.0))]
    assert scalar_implicit._derivative_proved(F, ([0.0, 0.0], [1.0, 1.0]), 1, 1, True)
    # the whole box again, then its four quarters, whose union is the box
    assert F.boxes[2:] == [
        ((0.0, 0.0), (0.5, 0.5)), ((0.0, 0.5), (0.5, 1.0)),
        ((0.5, 0.0), (1.0, 0.5)), ((0.5, 0.5), (1.0, 1.0)),
    ]
    assert not scalar_implicit._derivative_proved(F, ([0.0, 0.0], [1.0, 1.0]), 1, -1, True)


def _triples(low, high):
    """Three fractions, in hundredths from low to high."""
    hundredths = st.integers(low, high).map(lambda k: k / 100)
    return st.tuples(hundredths, hundredths, hundredths)


@given(
    st.sampled_from(["square map", "quad_pair", "mirrored quad_pair"]),
    _triples(-10, 110),
    _triples(0, 20),
    st.lists(_triples(0, 100), max_size=4),
)
def test_proved_checks_hold_at_every_point(name, centres, widths, inner):
    """Boxes centred in level 1's x-box or up to a tenth of its width
    beyond it, each half-width up to a fifth of its width: wherever
    checks_proved holds, phi's checks return at every corner and at
    points inside."""
    F = _level_2(name)
    box = F.phi.box
    lo, hi = [], []
    for a, b, c, w in zip(box.x_lo, box.x_hi, centres, widths):
        lo.append(a + (c - w) * (b - a))
        hi.append(a + (c + w) * (b - a))
    if not F.checks_proved(lo, hi):
        return
    points = list(itertools.product(*zip(lo, hi)))
    points += [
        tuple(min(max(a + w * (b - a), a), b) for a, b, w in zip(lo, hi, fractions))
        for fractions in inner
    ]
    for point in points:
        F.phi._bracket(point)
