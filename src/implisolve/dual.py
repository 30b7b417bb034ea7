"""First-order dual numbers and guarded arithmetic.

A dual number value + derivative*eps carries one directional derivative
through a computation. Seeding eps along a direction makes the derivative
part of the output an exact (to roundoff) directional derivative; a unit
direction gives a partial derivative. Neither is a finite-difference
estimate.

The module-level functions (div, pow_, sin, ...) accept floats or Duals
and enforce domain restrictions uniformly; they raise DomainViolation,
which the expression evaluator converts into a located DomainError. The
float-only helpers (_div_float, _pow_float, _sqrt_float) give the same
results and checks on floats without the type tests.
"""

from __future__ import annotations

import math


class DomainViolation(Exception):
    """Internal: an arithmetic step left the domain of definition."""


class Dual:
    """Dual number: value + derivative * eps, with eps^2 = 0.

    A plain slotted class rather than a frozen dataclass: one pass builds a
    Dual per arithmetic step, and the dataclass costs about 2.5 times as
    much per construction. Duals live inside one pass and are never shared,
    so nothing changes one after it is built.
    """

    __slots__ = ("value", "derivative")

    def __init__(self, value: float, derivative: float):
        self.value = value
        self.derivative = derivative

    def __eq__(self, other):
        if other.__class__ is not Dual:
            return NotImplemented
        return (self.value, self.derivative) == (other.value, other.derivative)

    def __hash__(self):
        return hash((self.value, self.derivative))

    def __repr__(self):
        return f"Dual(value={self.value!r}, derivative={self.derivative!r})"

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value + other.value, self.derivative + other.derivative)
        return Dual(self.value + other, self.derivative)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value - other.value, self.derivative - other.derivative)
        return Dual(self.value - other, self.derivative)

    def __rsub__(self, other):
        return Dual(other - self.value, -self.derivative)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(
                self.value * other.value,
                self.value * other.derivative + self.derivative * other.value,
            )
        return Dual(self.value * other, self.derivative * other)

    __rmul__ = __mul__

    def __neg__(self):
        return Dual(-self.value, -self.derivative)


def _val(v) -> float:
    return v.value if isinstance(v, Dual) else v


def is_finite(v) -> bool:
    if isinstance(v, Dual):
        return math.isfinite(v.value) and math.isfinite(v.derivative)
    return math.isfinite(v)


def _div_float(a: float, b: float) -> float:
    if b == 0.0:
        raise DomainViolation("division by zero")
    return a / b


def div(a, b):
    if not isinstance(b, Dual):
        if not isinstance(a, Dual):
            return _div_float(a, b)
        return Dual(_div_float(a.value, b), a.derivative / b)
    if not isinstance(a, Dual):
        a = Dual(a, 0.0)
    bv = b.value
    # (a' - (a/b) b') / b rather than (a' b - a b') / b^2: b^2 underflows to
    # zero (or overflows) long before b does
    q = _div_float(a.value, bv)
    return Dual(q, (a.derivative - q * b.derivative) / bv)


def _pow_float(a: float, n: float) -> float:
    if a > 0.0:
        try:
            return math.pow(a, n)
        except OverflowError:
            raise DomainViolation("overflow in power") from None
    if a == 0.0:
        if n == 0.0:
            return 1.0
        if n < 0.0:
            raise DomainViolation("zero raised to a nonpositive power")
        return 0.0
    # negative base: only integer exponents are defined over the reals
    if n != math.floor(n):
        raise DomainViolation("negative base with non-integer exponent")
    try:
        return math.pow(a, n)
    except OverflowError:
        raise DomainViolation("overflow in power") from None


def pow_(a, b):
    """a ^ b. Exponents with a nonzero derivative part require a > 0;
    constant exponents follow the real power rule, including negative
    bases with integer exponents."""
    if not isinstance(a, Dual) and not isinstance(b, Dual):
        return _pow_float(a, b)
    if isinstance(b, Dual) and b.derivative != 0.0:
        av, ad = (a.value, a.derivative) if isinstance(a, Dual) else (a, 0.0)
        if av <= 0.0:
            raise DomainViolation("power with varying exponent needs positive base")
        v = _pow_float(av, b.value)
        return Dual(v, v * (b.derivative * math.log(av) + b.value * ad / av))
    n = _val(b)
    av, ad = (a.value, a.derivative) if isinstance(a, Dual) else (a, 0.0)
    v = _pow_float(av, n)
    if n == 0.0:
        return Dual(1.0, 0.0)
    if av == 0.0:
        if n == 1.0:
            return Dual(0.0, ad)
        if n > 1.0:
            return Dual(0.0, 0.0)
        raise DomainViolation("power rule derivative undefined at zero base")
    return Dual(v, n * _pow_float(av, n - 1.0) * ad)


def sin(v):
    if isinstance(v, Dual):
        return Dual(math.sin(v.value), math.cos(v.value) * v.derivative)
    return math.sin(v)


def cos(v):
    if isinstance(v, Dual):
        return Dual(math.cos(v.value), -math.sin(v.value) * v.derivative)
    return math.cos(v)


def exp(v):
    x = _val(v)
    try:
        ev = math.exp(x)
    except OverflowError:
        raise DomainViolation("overflow in exp") from None
    if isinstance(v, Dual):
        return Dual(ev, ev * v.derivative)
    return ev


def ln(v):
    x = _val(v)
    if x <= 0.0:
        raise DomainViolation("logarithm of a nonpositive number")
    if isinstance(v, Dual):
        return Dual(math.log(x), v.derivative / x)
    return math.log(x)


def _sqrt_float(x: float) -> float:
    if x < 0.0:
        raise DomainViolation("sqrt of a negative number")
    return math.sqrt(x)


def sqrt(v):
    if isinstance(v, Dual):
        # derivative of sqrt is unbounded at 0, so require strict positivity
        x = v.value
        if x <= 0.0:
            raise DomainViolation("sqrt derivative needs a positive argument")
        s = math.sqrt(x)
        return Dual(s, v.derivative / (2.0 * s))
    return _sqrt_float(v)


def abs_(v):
    # convention: abs'(0) = 0
    if isinstance(v, Dual):
        s = 1.0 if v.value > 0.0 else (-1.0 if v.value < 0.0 else 0.0)
        return Dual(abs(v.value), s * v.derivative)
    return abs(v)
