"""Outward-rounded interval arithmetic, one helper per operation of dual.py.

An interval is a pair (lo, hi) of finite floats, lo <= hi, standing for
the closed set of reals between them. Each helper takes intervals and
returns one that holds, for every choice of operands inside its
arguments,

- the exact real result of the operation, and
- the float that the float helper or operator of dual.py computes, when
  the operands are floats.

The second holds because rounding to nearest is monotone: a float result
lies between the rounded results at the extremes. The first needs
outward rounding. +, -, *, / and sqrt are correctly rounded, so moving
each bound one float outward with math.nextafter covers the exact
result. exp, log, pow, sin and cos come from libm, which is not
correctly rounded (glibc documents errors below 1 ulp), and a libm value
at an interior point may stray that far from the value at the extreme
that bounds it. Their bounds are widened by LIBM_ULPS ulps instead, a
fixed margin that covers twice the documented error.

The helpers raise DomainViolation where a result cannot be enclosed: an
interval crossing the edge of a domain (a denominator, logarithm or
square-root argument, or power base that holds zero or a negative
number where dual.py's helper would raise), or a bound that is not
finite. The expression kernels' "interval" mode calls them in place of
their float operations, so an interval pass encloses every value and
derivative a float pass computes anywhere in a box, or cannot prove
anything about the box.
"""

from __future__ import annotations

import math

from .dual import DomainViolation

LIBM_ULPS = 4

_INF = math.inf
ZERO = (0.0, 0.0)
ONE = (1.0, 1.0)


def _rounded(lo: float, hi: float) -> tuple[float, float]:
    """[lo, hi] one float wider on each side; DomainViolation where a bound
    is not finite."""
    lo = math.nextafter(lo, -_INF)
    hi = math.nextafter(hi, _INF)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainViolation("interval bound not finite (overflow)")
    return lo, hi


def _widened(lo: float, hi: float) -> tuple[float, float]:
    """[lo, hi] of libm results, LIBM_ULPS ulps wider on each side."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainViolation("interval bound not finite (overflow)")
    lo -= LIBM_ULPS * math.ulp(lo)
    hi += LIBM_ULPS * math.ulp(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainViolation("interval bound not finite (overflow)")
    return lo, hi


def point(x: float) -> tuple[float, float]:
    """The interval of a literal; DomainViolation where it is not finite."""
    if not math.isfinite(x):
        raise DomainViolation("non-finite literal")
    return x, x


def hull(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float]:
    return min(a[0], b[0]), max(a[1], b[1])


def neg(a):
    return -a[1], -a[0]


# Adding zero, multiplying by zero or one and dividing by one are exact on
# finite floats, so those operations return their result without rounding
# it outward. They are most of the operations on the unit tangents a
# Jacobian pass starts from.


def add(a, b):
    if b == ZERO:
        return a
    if a == ZERO:
        return b
    return _rounded(a[0] + b[0], a[1] + b[1])


def sub(a, b):
    if b == ZERO:
        return a
    if a == ZERO:
        return neg(b)
    return _rounded(a[0] - b[1], a[1] - b[0])


def mul(a, b):
    if a == ZERO or b == ZERO:
        return ZERO
    if a == ONE:
        return b
    if b == ONE:
        return a
    (a0, a1), (b0, b1) = a, b
    products = (a0 * b0, a0 * b1, a1 * b0, a1 * b1)
    return _rounded(min(products), max(products))


def div(a, b):
    (a0, a1), (b0, b1) = a, b
    if b0 <= 0.0 <= b1:
        raise DomainViolation("division by an interval holding zero")
    if b == ONE:
        return a
    if a == ZERO:
        return ZERO
    quotients = (a0 / b0, a0 / b1, a1 / b0, a1 / b1)
    return _rounded(min(quotients), max(quotients))


def _math_pow(a: float, n: float) -> float:
    try:
        return math.pow(a, n)
    except OverflowError:
        raise DomainViolation("overflow in power") from None


def _pow_point(a, n: float):
    """a ^ n for the float exponent n, with _pow_float's domain. On each
    side of zero, x ^ n is monotone in x, so the values at the ends, and at
    zero where a straddles it, bound it."""
    lo, hi = a
    if n == 0.0:
        return ONE
    if lo <= 0.0:
        if lo < 0.0 and not n.is_integer():
            raise DomainViolation("negative base with non-integer exponent")
        if hi >= 0.0 and n < 0.0:
            raise DomainViolation("zero raised to a nonpositive power")
    values = [_math_pow(lo, n), _math_pow(hi, n)]
    if lo < 0.0 < hi:
        values.append(0.0)
    return _widened(min(values), max(values))


def pow_(a, b):
    """a ^ b. A varying exponent needs a positive base; x ^ y = exp(y ln x)
    and y ln x is bilinear, so the corners bound it."""
    if b[0] == b[1]:
        return _pow_point(a, b[0])
    if a[0] <= 0.0:
        raise DomainViolation("power with varying exponent needs positive base")
    values = [_math_pow(x, y) for x in a for y in b]
    return _widened(min(values), max(values))


def pow_const_factor(a, b):
    """a ^ b and the factor f with d(a^b) = f * a', for an exponent with no
    variable: f = b * a^(b - 1), or None where b is exactly zero, as
    dual.pow_const_factor gives. A zero base is allowed only under exponents
    of at least 1, where its factor is 1 or 0."""
    v = pow_(a, b)
    if b == ZERO:
        return v, None
    if a[0] <= 0.0 <= a[1] and not b[0] >= 1.0:
        raise DomainViolation("power rule derivative undefined at zero base")
    if b[0] == b[1]:
        # the float exponent n - 1.0 the kernel computes
        return v, mul(b, _pow_point(a, b[0] - 1.0))
    return v, mul(b, pow_(a, sub(b, ONE)))


def pow_pair(a, da, b, db):
    """(a, a') ^ (b, b') as dual.pow_pair: the constant-exponent rule where
    b' is zero, else b^a (b' ln a + b a' / a) on a positive base. Where db
    holds zero and more, both rules apply and their hull is taken."""
    constant = None
    if db[0] <= 0.0 <= db[1]:
        v, f = pow_const_factor(a, b)
        constant = ZERO if f is None else mul(f, da)
        if db[0] == db[1]:
            return v, constant
    if a[0] <= 0.0:
        raise DomainViolation("power with varying exponent needs positive base")
    v = pow_(a, b)
    d = mul(v, add(mul(db, ln(a)), div(mul(b, da), a)))
    return v, d if constant is None else hull(d, constant)


# Beyond this magnitude the extrema tests below could misjudge which
# period an argument lies in, so sin and cos give [-1, 1] there.
_TRIG_REACH = 1e6
_TWO_PI = 2.0 * math.pi


def _may_hold(lo: float, hi: float, c: float) -> bool:
    """Whether [lo, hi] may hold c + 2 k pi for an integer k, erring toward
    yes by far more than the rounding of the test."""
    slack = 1e-9
    return math.floor((hi - c) / _TWO_PI + slack) >= math.ceil((lo - c) / _TWO_PI - slack)


def _periodic(fn, a, peak: float):
    """fn in {sin, cos} over a, where fn peaks at peak + 2 k pi and bottoms
    out half a period later; between extrema it is monotone."""
    lo, hi = a
    if hi - lo >= _TWO_PI or max(-lo, hi) > _TRIG_REACH:
        return -1.0, 1.0
    v_lo, v_hi = _widened(*sorted((fn(lo), fn(hi))))
    top = 1.0 if _may_hold(lo, hi, peak) else min(1.0, v_hi)
    bottom = -1.0 if _may_hold(lo, hi, peak + math.pi) else max(-1.0, v_lo)
    return bottom, top


def sin(a):
    return _periodic(math.sin, a, 0.5 * math.pi)


def cos(a):
    return _periodic(math.cos, a, 0.0)


def exp(a):
    try:
        hi = math.exp(a[1])
    except OverflowError:
        raise DomainViolation("overflow in exp") from None
    lo, hi = _widened(math.exp(a[0]), hi)
    return max(0.0, lo), hi


def ln(a):
    if a[0] <= 0.0:
        raise DomainViolation("logarithm of an interval reaching a nonpositive number")
    return _widened(math.log(a[0]), math.log(a[1]))


def sqrt(a):
    if a[0] < 0.0:
        raise DomainViolation("sqrt of an interval reaching a negative number")
    lo, hi = _rounded(math.sqrt(a[0]), math.sqrt(a[1]))
    return max(0.0, lo), hi


def sqrt_factor(a):
    """sqrt(a) and the f = 2 sqrt(a) with d sqrt(x) = x' / f, on a positive
    interval, as dual.sqrt_factor."""
    if a[0] <= 0.0:
        raise DomainViolation("sqrt derivative needs a positive interval")
    s = sqrt(a)
    return s, mul((2.0, 2.0), s)


def abs_(a):
    lo, hi = a
    if lo >= 0.0:
        return a
    if hi <= 0.0:
        return -hi, -lo
    return 0.0, max(-lo, hi)


def abs_factor(a):
    """|a| and the interval of dual.abs_factor's sign factor over a."""
    lo, hi = a
    low = -1.0 if lo < 0.0 else (0.0 if lo == 0.0 else 1.0)
    high = 1.0 if hi > 0.0 else (0.0 if hi == 0.0 else -1.0)
    return abs_(a), (low, high)
