"""Closed-form answers for every problem the benchmark runs.

Nothing here imports implisolve: each value and Jacobian comes from a
formula solved by hand, so a check cannot inherit a fault of the solver.
A value is accepted within VALUE_TOL and a Jacobian entry within JAC_TOL
(absolute, scaled by the size of the reference entry when it exceeds 1).
Both sit far below 1e-6, the perturbation the self-check must catch, and
far above the solver's own error (bisection width 1e-12 per level).
"""

from __future__ import annotations

import cmath
import math

VALUE_TOL = 1e-8
JAC_TOL = 1e-7


def _cbrt(v: float) -> float:
    return math.copysign(abs(v) ** (1.0 / 3.0), v)


def circle(x):
    """x^2 + y^2 - 1 = 0 on the upper half: y = sqrt(1 - x^2)."""
    y = math.sqrt(1.0 - x[0] ** 2)
    return (y,), ((-x[0] / y,),)


def sin_cubic(x):
    """y^3 + y + sin(x) = 0 by Cardano: the depressed cubic t^3 + p t + q
    with p = 1 > 0 has one real root."""
    q = math.sin(x[0])
    d = math.sqrt(q * q / 4.0 + 1.0 / 27.0)
    y = _cbrt(-q / 2.0 + d) + _cbrt(-q / 2.0 - d)
    return (y,), ((-math.cos(x[0]) / (3.0 * y * y + 1.0),),)


def log_curve(x):
    """ln(y) + x = 0: y = e^-x."""
    y = math.exp(-x[0])
    return (y,), ((-y,),)


def sphere_cap(x):
    """x1^2 + x2^2 + y^2 - 1 = 0 on the upper cap."""
    y = math.sqrt(1.0 - x[0] ** 2 - x[1] ** 2)
    return (y,), ((-x[0] / y, -x[1] / y),)


def quad_pair(x):
    """y1^2 + y2 = y1 + y2^2 = x + 1 on the symmetric branch y1 = y2:
    y^2 + y - x - 1 = 0."""
    s = math.sqrt(5.0 + 4.0 * x[0])
    y = (-1.0 + s) / 2.0
    return (y, y), ((1.0 / s,), (1.0 / s,))


def cubic_triple(x):
    """y_i^2 + (sum of the other two) = x + 2 on the symmetric branch:
    y^2 + 2y - x - 2 = 0."""
    s = math.sqrt(3.0 + x[0])
    d = 1.0 / (2.0 * s)
    return (s - 1.0,) * 3, ((d,), (d,), (d,))


def square_root(y):
    """Inverse of (x1^2 - x2^2, 2 x1 x2), the complex square z -> z^2, on
    the right half-plane: the principal square root, whose derivative is
    1/(2z), written as the real 2x2 matrix of that complex number."""
    z = cmath.sqrt(complex(y[0], y[1]))
    w = 1.0 / (2.0 * z)
    return (z.real, z.imag), ((w.real, -w.imag), (w.imag, w.real))


def close(got, want, tol: float) -> bool:
    """Entrywise |got - want| <= tol * max(1, |want|); shapes must match."""
    got, want = list(got), list(want)
    if len(got) != len(want):
        return False
    return all(
        g is not None and abs(g - w) <= tol * max(1.0, abs(w))
        for g, w in zip(got, want)
    )


def value_ok(got, reference, x) -> bool:
    return close(got, reference(x)[0], VALUE_TOL)


def jacobian_ok(rows, reference, x) -> bool:
    """rows: the Jacobian as a sequence of rows (a Matrix's .rows or lists)."""
    want = reference(x)[1]
    rows = list(rows)
    if len(rows) != len(want):
        return False
    return all(close(r, w, JAC_TOL) for r, w in zip(rows, want))
