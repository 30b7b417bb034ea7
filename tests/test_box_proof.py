"""find_box skips its sampled derivative sweep where an interval
enclosure proves the derivative's sign over the closed box, and builds
exactly what the sweep builds."""

import math

import pytest

from implisolve import SolverOptions, SplitPoint, build_system, dini, parse
from implisolve import scalar_implicit
from implisolve.errors import BoxNotFound
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


def _counting(monkeypatch):
    counts = {}
    for cls in (ExprFunction, dini._ReducedFunction):
        partial = cls.partial

        def counted(self, *args, _partial=partial, _name=cls.__name__):
            counts[_name] = counts.get(_name, 0) + 1
            return _partial(self, *args)

        monkeypatch.setattr(cls, "partial", counted)
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
    counts = _counting(monkeypatch)
    build()
    assert counts.get("ExprFunction", 0) <= expr_partials // 10
    assert counts.get("_ReducedFunction", 0) <= reduced_partials // 10


# level 2 solves y2 = 1e30 x^2, whose root leaves every box the search tries
STEEP = (["y1 - x", "y2 - 1e30*x^2"], ["x", "y1", "y2"])

BUILDS = [
    *[(p.name, (lambda p=p: build_system(p.F, p.seed, p.options))) for p in CORPUS],
    *[(f"quad_pair at {x0}", _quad_pair_at(x0)) for x0 in (0.5, 0.8, 1.3, 1.5)],
    *[(f"square map at {p}", _square_map_at(p)) for p in ((1.0, 0.0), (0.7, 0.5), (1.1, -0.4))],
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
    assert repr(_built(monkeypatch, build)) == repr(proved)

