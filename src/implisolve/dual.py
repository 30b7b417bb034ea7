"""First-order dual numbers and guarded arithmetic.

A dual number value + derivative*eps carries one directional derivative
through a computation. Seeding eps along a direction makes the derivative
part of the output an exact (to roundoff) directional derivative; a unit
direction gives a partial derivative. Neither is a finite-difference
estimate.

Dual's operators and the module-level functions (div, pow_, sin, ...)
accept floats or Duals and enforce domain restrictions uniformly; they
raise DomainViolation, which the expression evaluator converts into a located
DomainError. They are the reference semantics of derivatives: the
expression tree walker runs them, the compiled Jacobian kernels perform
the same float operations in the same order, and when a kernel fails
the walker over Duals locates the failing node. The rules that branch or
raise are written once and called by both the Dual functions and the
kernels. Most are in factor form, value in, (value, derivative factor)
out (pow_const_factor, sqrt_factor, abs_factor), so that a kernel carrying
several tangents computes them once per node and shares them across
directions; pow_pair, whose rule branches on the exponent's derivative,
is in pair form. The float-only helpers (_div_float, _pow_float,
_exp_float, _ln_float, _sqrt_float) give the same results and checks on
floats without the type tests.
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


def _parts(v) -> tuple[float, float]:
    return (v.value, v.derivative) if isinstance(v, Dual) else (v, 0.0)


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
    # negative base: only integer exponents are defined over the reals (an
    # infinite or NaN exponent is none, and math.floor would raise on it)
    if not math.isfinite(n) or n != math.floor(n):
        raise DomainViolation("negative base with non-integer exponent")
    try:
        return math.pow(a, n)
    except OverflowError:
        raise DomainViolation("overflow in power") from None


def pow_pair(av: float, ad: float, bv: float, bd: float) -> tuple[float, float]:
    """(a, a') ^ (b, b'). An exponent with a nonzero derivative part
    requires a > 0; otherwise the constant-exponent rule applies."""
    if bd != 0.0:
        if av <= 0.0:
            raise DomainViolation("power with varying exponent needs positive base")
        v = _pow_float(av, bv)
        return v, v * (bd * math.log(av) + bv * ad / av)
    v, f = pow_const_factor(av, bv)
    return v, 0.0 if f is None else f * ad


def pow_const_factor(av: float, n: float) -> tuple[float, float | None]:
    """a ^ n for a constant exponent and the factor f with d(a^n) = f * a':
    the real power rule, including negative bases with integer exponents.
    f is None where the derivative is exactly 0.0 whatever a' is."""
    v = _pow_float(av, n)
    if n == 0.0:
        return 1.0, None
    if av == 0.0:
        if n == 1.0:
            return 0.0, 1.0
        if n > 1.0:
            return 0.0, None
        raise DomainViolation("power rule derivative undefined at zero base")
    return v, n * _pow_float(av, n - 1.0)


def pow_(a, b):
    if not isinstance(a, Dual) and not isinstance(b, Dual):
        return _pow_float(a, b)
    return Dual(*pow_pair(*_parts(a), *_parts(b)))


def sin(v):
    if isinstance(v, Dual):
        return Dual(math.sin(v.value), math.cos(v.value) * v.derivative)
    return math.sin(v)


def cos(v):
    if isinstance(v, Dual):
        return Dual(math.cos(v.value), -math.sin(v.value) * v.derivative)
    return math.cos(v)


def _exp_float(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        raise DomainViolation("overflow in exp") from None


def exp(v):
    if isinstance(v, Dual):
        ev = _exp_float(v.value)
        return Dual(ev, ev * v.derivative)
    return _exp_float(v)


def _ln_float(x: float) -> float:
    if x <= 0.0:
        raise DomainViolation("logarithm of a nonpositive number")
    return math.log(x)


def ln(v):
    if isinstance(v, Dual):
        return Dual(_ln_float(v.value), v.derivative / v.value)
    return _ln_float(v)


def _sqrt_float(x: float) -> float:
    if x < 0.0:
        raise DomainViolation("sqrt of a negative number")
    return math.sqrt(x)


def sqrt_factor(x: float) -> tuple[float, float]:
    """sqrt(x) and the f with d sqrt(x) = x' / f."""
    # derivative of sqrt is unbounded at 0, so require strict positivity
    if x <= 0.0:
        raise DomainViolation("sqrt derivative needs a positive argument")
    s = math.sqrt(x)
    return s, 2.0 * s


def sqrt(v):
    if isinstance(v, Dual):
        s, f = sqrt_factor(v.value)
        return Dual(s, v.derivative / f)
    return _sqrt_float(v)


def abs_factor(x: float) -> tuple[float, float]:
    """|x| and the f with d|x| = f * x'."""
    # convention: abs'(0) = 0
    s = 1.0 if x > 0.0 else (-1.0 if x < 0.0 else 0.0)
    return abs(x), s


def abs_(v):
    if isinstance(v, Dual):
        a, f = abs_factor(v.value)
        return Dual(a, f * v.derivative)
    return abs(v)
