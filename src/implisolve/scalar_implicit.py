"""Scalar implicit functions on validated monotonicity boxes.

Given F(x, y) = 0 at a seed (a, b) with dF/dy(a, b) != 0, find_box grows a
product box X x [y_lo, y_hi] around the seed on which (by grid sampling)
dF/dy keeps one sign and F has opposite signs at the two y-faces. On such
a box every x in X brackets exactly one root, so evaluation is ITP
(bracketed, bisection worst case; Oliveira & Takahashi, ACM TOMS 47(1),
2020) and is unconditionally convergent. The gradient comes from the
quotient formula df/dx_j = -(dF/dx_j) / (dF/dy) at (x, f(x)).

The function argument is duck-typed: anything with n_inputs, n_outputs,
eval(p) and partial(p, j) works, which is what lets the system solver feed
its nested reduced functions through the same machinery. The dependent
variable is always the last input.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .config import SolverOptions
from .errors import (
    BoxNotFound,
    DegenerateDerivative,
    DimensionMismatch,
    DomainError,
    NoConvergence,
    OutsideBox,
    SeedNotOnZeroSet,
)
from .linalg import Vector

DERIVATIVE_EPS = 1e-12

# The dependent interval must cover the solution sheet's first-order reach
# over the independent box, or halving all half-widths together can never
# validate (reach and interval shrink at the same rate). When no explicit
# dependent half-width is configured, scale it by the slope at the seed,
# with margin for curvature.
SLOPE_MARGIN = 1.25

# ITP constants (Oliveira & Takahashi 2020): the regula-falsi point is moved
# toward the midpoint by kappa1 * width^2 with kappa1 = KAPPA1_ITP / (initial
# width), and N0_ITP steps of slack are allowed over bisection's worst case.
KAPPA1_ITP = 0.2
N0_ITP = 1
# The projection budget aims this fraction below tol_root. Rounding each
# new endpoint adds up to an ulp to the bracket; without the margin a
# bracket that spent its whole budget would end a few ulps above tol_root
# and need one step beyond the guaranteed count.
ITP_ROUNDING_MARGIN = 2.0**-6

# find_box halves the starting box at most this many times; 40 halvings take
# a half-width of 0.5 below 1e-12.
MAX_SHRINK = 40


@dataclass(frozen=True)
class SplitPoint:
    """A point of R^n x R^m with an explicit independent/dependent split."""

    x: Vector
    y: Vector

    @classmethod
    def of(cls, x: Sequence[float], y: Sequence[float]) -> "SplitPoint":
        return cls(Vector(x), Vector(y))

    @classmethod
    def from_flat(cls, values: Sequence[float], n: int) -> "SplitPoint":
        if not 0 <= n <= len(values):
            raise DimensionMismatch(f"split {n} out of range for {len(values)} values")
        return cls(Vector(values[:n]), Vector(values[n:]))

    @property
    def n(self) -> int:
        return len(self.x)

    @property
    def m(self) -> int:
        return len(self.y)

    def point(self) -> tuple[float, ...]:
        return tuple(self.x) + tuple(self.y)


@dataclass(frozen=True)
class SolutionBox:
    """Open box X times [y_lo, y_hi] with validation metadata.

    sign is the recorded orientation of dF/dy. find_box returns a box only
    when its grid checks passed: sign * dF/dy > 0 on the closed box and
    sign * F(x, y_lo) < 0 < sign * F(x, y_hi) at the sampled interior x.
    """

    x_lo: Vector
    x_hi: Vector
    y_lo: float
    y_hi: float
    sign: int
    grid_density: int
    shrinks: int = 0

    def contains_x(self, x: Sequence[float]) -> bool:
        return all(lo < v < hi for lo, v, hi in zip(self.x_lo, x, self.x_hi))


def _closed_axis(lo: float, hi: float, g: int) -> list[float]:
    return [lo + i * (hi - lo) / (g - 1) for i in range(g)]


def _interior_axis(lo: float, hi: float, g: int) -> list[float]:
    return [lo + (i + 0.5) * (hi - lo) / g for i in range(g)]


def find_box(F, seed: SplitPoint, options: SolverOptions = SolverOptions()) -> SolutionBox:
    """Grow a validated monotonicity box around the seed.

    Starts from half-widths h0 (independent axes) and h0_dep (dependent
    axis) and halves all of them on any failed sample, up to MAX_SHRINK
    times. Failures include domain errors and, for nested functions,
    stepping outside an inner validated box.
    """
    n = seed.n
    if seed.m != 1:
        raise DimensionMismatch(f"scalar solver needs m = 1, got m = {seed.m}")
    if F.n_outputs != 1 or F.n_inputs != n + 1:
        raise DimensionMismatch(
            f"need 1 component in {n + 1} variables, got "
            f"{F.n_outputs} in {F.n_inputs}"
        )
    p0 = seed.point()
    r0 = F.eval(p0)[0]
    if abs(r0) > options.tol_sys:
        raise SeedNotOnZeroSet(abs(r0), options.tol_sys)
    slope = F.partial(p0, n)[0]
    if abs(slope) <= DERIVATIVE_EPS:
        raise DegenerateDerivative(
            f"dF/dy at the seed is {slope:g} (within {DERIVATIVE_EPS:g} of zero)"
        )
    sign = 1 if slope > 0 else -1

    a = tuple(seed.x)
    b = seed.y[0]
    g = options.grid_density
    hx = [options.h0] * n
    if options.h0_dep is not None:
        hy = options.h0_dep
    else:
        reach = sum(abs(F.partial(p0, j)[0] / slope) for j in range(n))
        hy = options.h0 * max(1.0, SLOPE_MARGIN * reach)
    last_failure = ("derivative", p0)

    for attempt in range(MAX_SHRINK + 1):
        x_lo = [a[i] - hx[i] for i in range(n)]
        x_hi = [a[i] + hx[i] for i in range(n)]
        y_lo, y_hi = b - hy, b + hy
        failure = None

        # nested functions may fail to evaluate at a sample (outside an inner
        # box, or in a region its sampling misjudged); that fails the attempt
        closed_axes = [_closed_axis(x_lo[i], x_hi[i], g) for i in range(n)]
        for point in itertools.product(*closed_axes, _closed_axis(y_lo, y_hi, g)):
            try:
                if sign * F.partial(point, n)[0] <= 0.0:
                    failure = ("derivative", point)
                    break
            except (DomainError, OutsideBox, NoConvergence):
                failure = ("derivative", point)
                break

        if failure is None:
            interior_axes = [_interior_axis(x_lo[i], x_hi[i], g) for i in range(n)]
            for xs in itertools.product(*interior_axes):
                try:
                    lo_ok = sign * F.eval(xs + (y_lo,))[0] < 0.0
                    hi_ok = sign * F.eval(xs + (y_hi,))[0] > 0.0
                except (DomainError, OutsideBox, NoConvergence):
                    failure = ("endpoint-sign", xs)
                    break
                if not (lo_ok and hi_ok):
                    failure = ("endpoint-sign", xs)
                    break

        if failure is None:
            return SolutionBox(
                x_lo=Vector(x_lo),
                x_hi=Vector(x_hi),
                y_lo=y_lo,
                y_hi=y_hi,
                sign=sign,
                grid_density=g,
                shrinks=attempt,
            )
        last_failure = failure
        hx = [h / 2 for h in hx]
        hy /= 2

    raise BoxNotFound(last_failure[0], last_failure[1])


def itp(f, lo: float, hi: float, f_lo: float, f_hi: float, tol: float) -> float:
    """Root of f in [lo, hi] by ITP (bracketed, bisection worst case), given
    f_lo = f(lo) and f_hi = f(hi) with f_lo <= 0 <= f_hi.

    Each step moves a regula-falsi point toward the midpoint by a
    truncation, then projects it onto a ball around the midpoint that
    shrinks as bisection would. The bracket therefore reaches width tol in
    at most n_max steps, bisection's step count plus N0_ITP, and faster on
    smooth roots; the midpoint is returned. Where tol is below the spacing
    of floats near the root, it stops once no float lies strictly between
    the endpoints, which also comes within n_max steps. The loop allows one
    step more, and raises NoConvergence if even that does not end it.
    """
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    # width-based termination only: an |f| threshold could stop early
    # where the slope is small, costing root-location accuracy
    kappa1 = KAPPA1_ITP / (hi - lo)
    n_max = max(0, math.ceil(math.log2(hi - lo) - math.log2(tol))) + N0_ITP
    half_target = 0.5 * tol * (1.0 - ITP_ROUNDING_MARGIN)
    for j in range(n_max + 1):
        width = hi - lo
        mid = lo + 0.5 * width
        # a step at most r from the midpoint keeps the bracket on course
        # to width tol within n_max steps
        r = math.ldexp(half_target, n_max - j) - 0.5 * width
        r = r if r > 0.0 else 0.0  # max(0.0, r) without the cost of a call
        x_f = lo - f_lo * width / (f_hi - f_lo)
        delta = kappa1 * width * width
        sigma = 1.0 if mid >= x_f else -1.0
        x_t = x_f + sigma * delta if delta <= abs(mid - x_f) else mid
        y = x_t if abs(x_t - mid) <= r else mid - sigma * r
        if not lo < y < hi:
            if not lo < mid < hi:
                # adjacent floats: the bracket cannot shrink further
                return 0.5 * (lo + hi)
            y = mid
        f_y = f(y)
        if f_y == 0.0:
            return y
        if f_y < 0.0:
            lo, f_lo = y, f_y
        else:
            hi, f_hi = y, f_y
        if hi - lo <= tol:
            return 0.5 * (lo + hi)
    raise NoConvergence(
        "ITP (bracketed, bisection worst case) did not converge in "
        f"{n_max + 1} iterations"
    )


@dataclass(frozen=True)
class ImplicitSolution:
    """Evaluable handle for the implicit function defined on a validated box."""

    F: object
    box: SolutionBox
    seed: SplitPoint
    tol_root: float

    def solve_at(self, x: Sequence[float]) -> float:
        """Unique root y of F(x, .) in the box interval, by itp."""
        x = tuple(x)
        if len(x) != self.seed.n:
            raise DimensionMismatch(f"expected {self.seed.n} coordinates, got {len(x)}")
        if not self.box.contains_x(x):
            raise OutsideBox(x)
        s = self.box.sign
        F_eval = self.F.eval

        def f(y: float) -> float:
            return s * F_eval(x + (y,))[0]

        lo, hi = self.box.y_lo, self.box.y_hi
        f_lo, f_hi = f(lo), f(hi)
        if 0.0 not in (f_lo, f_hi) and (f_lo > 0.0 or f_hi < 0.0):
            raise NoConvergence(
                "endpoint signs wrong at query point; box validation was fooled by sampling"
            )
        return itp(f, lo, hi, f_lo, f_hi, self.tol_root)

    def gradient_at(self, x: Sequence[float]) -> Vector:
        """df/dx at x, via -(dF/dx_j)/(dF/dy) at (x, f(x))."""
        return self.gradient_known(tuple(x), self.solve_at(x))

    def gradient_known(self, x: tuple[float, ...], y: float) -> Vector:
        """Gradient at a point whose solution value is already known."""
        n = self.seed.n
        p = x + (y,)
        fy = self.F.partial(p, n)[0]
        if fy == 0.0:
            raise DegenerateDerivative("dF/dy vanished inside the box")
        return Vector(-self.F.partial(p, j)[0] / fy for j in range(n))


def build_implicit(
    F, seed: SplitPoint, options: SolverOptions = SolverOptions()
) -> ImplicitSolution:
    """Validate a box around the seed and wrap it as an evaluable solution."""
    box = find_box(F, seed, options)
    return ImplicitSolution(F=F, box=box, seed=seed, tol_root=options.tol_root)
