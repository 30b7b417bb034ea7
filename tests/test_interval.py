"""Interval enclosures: the helpers of interval.py and the expression
kernels' "interval" mode, which find_box uses to skip sampled derivative
sweeps."""

import math
import operator
import os
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

import implisolve
from implisolve import interval, parse
from implisolve.dual import DomainViolation

from test_expr import _VARS, _functions, _mix


def _inside(pair, value):
    low, high = pair
    return low <= value <= high


def _between(lo, hi, s):
    """The point a fraction s of the way from lo to hi, clamped into the
    closed box against rounding."""
    return tuple(min(max(a + f * (b - a), a), b) for a, b, f in zip(lo, hi, s))


_coordinate = st.floats(-2, 2)
_fraction = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1))


# the arguments of the powers and quotients of test_expr's examples
@example(_mix("u ^ v"), (0.5, 0.9), (-1.2, -0.7), (0.3, 1.0))
@example(_mix("(u - v) ^ 3"), (0.5, 0.9), (-1.2, 0.7), (0.3, 1.0))
@example(_mix("u / v + sqrt(u)"), (0.5, 0.9), (-1.2, -0.7), (1.0, 0.0))
@example(_mix("2 ^ u * abs(v) - ln(u)"), (0.1, 0.9), (-1.2, 0.7), (0.0, 0.5))
@example(_mix("sin(u * 3) * cos(v * 4)"), (-2.0, 2.0), (-0.1, 0.3), (0.5, 0.25))
@given(_functions(), st.tuples(_coordinate, _coordinate), st.tuples(_coordinate, _coordinate),
       st.tuples(_fraction, _fraction))
def test_enclosure_holds_the_float_kernels(F, us, vs, s):
    """At any point of the box, eval's values and every partial of the
    Jacobian kernel lie in the enclosure, and nothing fails to evaluate."""
    lo, hi = (min(us), min(vs)), (max(us), max(vs))
    result = F.enclosure(lo, hi)
    if result is None:
        return
    values, rows = result
    p = _between(lo, hi, s)
    for value, enclosed in zip(F.eval(p), values):
        assert _inside(enclosed, value)
    # the Jacobian kernel, made with F, gives the same rows at every call
    for _ in range(2):
        for row, enclosed_row in zip(F.jacobian(p).rows, rows):
            for partial, enclosed in zip(row, enclosed_row):
                assert _inside(enclosed, partial)


# each exponent's partial along v holds 0 and more over a box about v0
@pytest.mark.parametrize("text, v0", [("u ^ (v ^ 2)", 0.0), ("(u + 1) ^ sin(v)", 0.5 * math.pi)])
@given(
    u=st.tuples(st.floats(0.25, 2), st.floats(0.25, 2)),
    dv=st.tuples(st.floats(-1, -0.01), st.floats(0.01, 1)),
    s=st.tuples(_fraction, _fraction),
)
def test_enclosure_of_a_power_whose_exponent_partial_holds_zero(text, v0, u, dv, s):
    """Where the exponent's partial holds 0 and more, pow_pair takes the
    hull of the constant-exponent rule and the varying-exponent one; the
    enclosure holds eval's values and the Jacobian kernel's partials."""
    F = parse([text], _VARS)
    lo, hi = (min(u), v0 + dv[0]), (max(u), v0 + dv[1])
    hulls = []
    hull = interval.hull

    def counted(a, b):
        hulls.append((a, b))
        return hull(a, b)

    with mock.patch.object(interval, "hull", counted):
        values, rows = F.enclosure(lo, hi)
    assert hulls
    p = _between(lo, hi, s)
    assert _inside(values[0], F.eval(p)[0])
    for partial, enclosed in zip(F.jacobian(p).rows[0], rows[0]):
        assert _inside(enclosed, partial)


_floats = st.floats(-1e6, 1e6, allow_nan=False)


@given(_floats, _floats, _floats, _floats)
def test_arithmetic_holds_the_exact_results(a0, a1, b0, b1):
    """Outward rounding: the exact rational result at the ends of the
    operands lies inside, not only the rounded one."""
    a, b = (min(a0, a1), max(a0, a1)), (min(b0, b1), max(b0, b1))
    cases = [(interval.add, operator.add), (interval.sub, operator.sub), (interval.mul, operator.mul)]
    if not b[0] <= 0.0 <= b[1]:
        cases.append((interval.div, operator.truediv))
    for helper, op in cases:
        try:
            low, high = helper(a, b)
        except DomainViolation:  # a quotient overflows
            continue
        for x in a:
            for y in b:
                assert Fraction(low) <= op(Fraction(x), Fraction(y)) <= Fraction(high)


def test_enclosure_of_a_point_is_tight():
    F = parse(["exp(u) * sin(v) + u^3 / v"], _VARS)
    p = (0.3, 0.7)
    values, rows = F.enclosure(p, p)
    (value,) = F.eval(p)
    assert _inside(values[0], value) and values[0][1] - values[0][0] < 1e-14
    for partial, enclosed in zip(F.jacobian(p).rows[0], rows[0]):
        assert _inside(enclosed, partial) and enclosed[1] - enclosed[0] < 1e-13


def test_sin_and_cos_reach_their_extrema_inside_the_interval():
    half_pi = 0.5 * math.pi
    assert interval.sin((1.0, 2.0))[1] == 1.0
    assert interval.sin((4.0, 5.0))[0] == -1.0
    assert interval.sin((half_pi, half_pi))[1] == 1.0
    assert interval.cos((-0.1, 0.2))[1] == 1.0
    assert interval.cos((3.0, 3.3))[0] == -1.0
    assert interval.cos((2 * math.pi - 0.1, 2 * math.pi + 0.1))[1] == 1.0
    assert interval.sin((-100.0, 100.0)) == (-1.0, 1.0)
    # monotone pieces stay narrow and hold the values at the ends
    lo, hi = interval.sin((0.0, 1.0))
    assert lo <= 0.0 and math.sin(1.0) <= hi < 1.0
    lo, hi = interval.cos((0.5, 3.0))
    assert -1.0 < lo <= math.cos(3.0) and math.cos(0.5) <= hi < 1.0


@pytest.mark.parametrize(
    "call",
    [
        lambda: interval.ln((0.0, 1.0)),
        lambda: interval.ln((-1.0, 1.0)),
        lambda: interval.sqrt((-1e-300, 1.0)),
        lambda: interval.sqrt_factor((0.0, 1.0)),
        lambda: interval.div((1.0, 1.0), (-1.0, 1.0)),
        lambda: interval.div((1.0, 1.0), (0.0, 1.0)),
        lambda: interval.div((1.0, 1.0), (-1.0, -0.0)),
        lambda: interval.pow_((-1.0, 1.0), (0.5, 0.5)),
        lambda: interval.pow_((0.0, 1.0), (-1.0, -1.0)),
        lambda: interval.pow_((0.0, 1.0), (1.0, 2.0)),
        lambda: interval.pow_const_factor((0.0, 1.0), (0.5, 0.5)),
        lambda: interval.exp((0.0, 1000.0)),
        lambda: interval.mul((1e300, 1e300), (1e10, 1e10)),
    ],
)
def test_an_interval_across_a_domain_edge_cannot_be_enclosed(call):
    with pytest.raises(DomainViolation):
        call()


def test_the_edges_themselves_are_inside_the_domain():
    assert interval.ln((1e-300, 1.0))[1] >= 0.0
    assert interval.sqrt((0.0, 4.0)) == (0.0, math.nextafter(2.0, math.inf))
    assert interval.div((1.0, 1.0), (1e-300, 1.0))[1] >= 1e300
    assert interval.pow_((0.0, 1.0), (0.5, 0.5))[0] <= 0.0
    assert interval.pow_((-2.0, -1.0), (-1.0, -1.0))[1] >= -0.5
    value, factor = interval.pow_const_factor((-1.0, 1.0), (2.0, 2.0))
    assert _inside(value, 0.0) and _inside(value, 1.0) and _inside(factor, -2.0)


def test_an_enclosure_across_a_domain_edge_or_overflow_is_none():
    F = parse(["u + v", "sqrt(u) + ln(v - 1)"], _VARS)
    assert F.enclosure((0.5, 0.5), (1.0, 1.5)) is None
    assert F.enclosure((0.5, 1.5), (1.0, 2.0)) is not None
    assert parse(["1e999 * 0 + u"], _VARS).enclosure((0.0, 0.0), (1.0, 1.0)) is None
    assert parse(["1e300 * u * v"], _VARS).enclosure((0.0, 0.0), (1e10, 1e10)) is None
    for bound in (math.inf, math.nan):
        assert F.enclosure((0.5, 1.5), (1.0, bound)) is None


def test_importing_the_cli_does_not_import_the_interval_module():
    # a fresh interpreter, since this one has imported interval.py already;
    # the first compile of an interval kernel imports it
    code = "import sys, implisolve.cli; assert 'implisolve.interval' not in sys.modules"
    src = os.path.dirname(os.path.dirname(implisolve.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
