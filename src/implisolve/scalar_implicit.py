"""Scalar implicit functions on validated monotonicity boxes.

Given F(x, y) = 0 at a seed (a, b) with dF/dy(a, b) != 0, find_box grows a
product box X x [y_lo, y_hi] around the seed on which (by grid sampling)
dF/dy keeps one sign and F has opposite signs at the two y-faces. On such
a box every x in X brackets exactly one root, so ImplicitSolution
evaluates by ITP (bracketed, bisection worst case; Oliveira & Takahashi,
ACM TOMS 47(1), 2020), which is unconditionally convergent. The gradient
comes from the quotient formula df/dx_j = -(dF/dx_j) / (dF/dy) at
(x, f(x)). bracketed_newton is the other root finder on such a bracket:
Newton's method from a given start, bisection where a step would leave
the bracket, and ITP after a budget of passes. dini uses it at m = 1,
where one Jacobian pass gives F and dF/dy together; every nested level
of a system runs ITP.

The sign of dF/dy is the Mean-Value Theorem's hypothesis. Where F offers
an interval enclosure of its partials over a box (Moore, Interval
Analysis, 1966), one enclosure pass can prove that sign at every point
of the closed grid, and find_box skips the sampled sweep. At every level
of a system after the first, that enclosure holds only where the level
before it has its hypotheses: x lies in that level's box and its face
signs bracket its root, the Intermediate Value Theorem's hypothesis one
level up, and so on up to level 1 (see dini). So there find_box proves
only where F's checks_proved holds over the box, and may then prove the
sign of dF/dy by one split of the box. Elsewhere it samples the partial.

The face signs are the Intermediate Value Theorem's hypothesis at this
level. Where find_box proves, it proves them over the hull of the
interior grid points that its sweep reads, by F's enclosure on each face,
then its mean-value form (Neumaier, Interval Methods for Systems of
Equations, 1990, ch. 2), then a bounded split of the face, and samples
them only where that fails. A proof only skips a sweep whose outcome it
settles: where it holds, the sweep would pass, and where it fails, the
sweep runs. So the boxes are those the sweeps find.

The function argument is duck-typed: anything with n_inputs, n_outputs,
eval(p) and partial(p, j) works, which is what lets the system solver feed
its nested reduced functions through the same machinery. The dependent
variable is always the last input. enclosure(lo, hi) and
checks_proved(lo, hi, margin) are optional (see find_box,
_derivative_proved and _face_proved).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .config import SolverOptions
from .dual import DomainViolation
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

# find_box refuses a grid of more than this many samples per attempt,
# grid_density^(n+1), before it samples. The default density reaches at
# most 9^7 = 4,782,969 samples (n = 1 at dini.MAX_DEPTH, level 1), so no
# default build is refused, while grid_density 10000 at n = 1 (10^8 samples
# per attempt, each a partial evaluation) would run for hours.
MAX_GRID_SAMPLES = 10_000_000

# A face that neither its enclosure nor its mean-value form proves is
# bisected on every axis, and each half that fails again, at most this many
# times deep, so its smallest parts are an eighth of its width: fewer of
# them (8^n at most) than the sweep reads points on it (9^n at the default
# density). Over 80 square-map inverse builds drawn as the benchmark draws
# them, depths 1, 2 and 3 leave 39, 12 and 8.2 nested solves per build
# (164 with no face proof); depth 4 leaves 8.2 too.
FACE_SPLITS = 3


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
    when its grid checks passed, by sampling or by an interval proof over
    the points sampled: sign * dF/dy > 0 on the closed grid and
    sign * F(x, y_lo) < 0 < sign * F(x, y_hi) at the interior grid x.
    """

    x_lo: Vector
    x_hi: Vector
    y_lo: float
    y_hi: float
    sign: int
    grid_density: int
    shrinks: int = 0

    def contains_x(self, x: Sequence[float]) -> bool:
        for lo, v, hi in zip(self.x_lo, x, self.x_hi):
            if not lo < v < hi:
                return False
        return True


def _closed_axis(lo: float, hi: float, g: int) -> list[float]:
    return [lo + i * (hi - lo) / (g - 1) for i in range(g)]


def _interior_axis(lo: float, hi: float, g: int) -> list[float]:
    return [lo + (i + 0.5) * (hi - lo) / g for i in range(g)]


def find_box(F, seed: SplitPoint, options: SolverOptions = SolverOptions()) -> SolutionBox:
    """Grow a validated monotonicity box around the seed.

    Starts from half-widths h0 (independent axes) and h0_dep (dependent
    axis) and halves all of them on any failed sample, up to MAX_SHRINK
    times. Failures include domain errors and, for nested functions,
    stepping outside an inner validated box. A grid of more than
    MAX_GRID_SAMPLES samples per attempt raises ValueError before F is
    called.

    An attempt proves only where F's enclosures hold over the closed box:
    F has an enclosure, the box's axes are finite, and F has no
    checks_proved or checks_proved(lo, hi, tol_sys) holds over the box (in
    a system: the face signs of each level before it are proved over the
    box lifted to it). There an enclosure of dF/dy over the box that
    proves its sign skips the derivative sweep; for F with checks_proved,
    so may one split of the box (see _derivative_proved). Elsewhere every
    grid point's partial is sampled.

    The endpoint-sign sweep reads F at the interior grid points of both
    faces. Where the attempt proves, _faces_proved first tries to prove
    their signs over the hull of those points, with margin tol_sys for
    the error of a computed value (see _face_proved), and where it does,
    the sweep is skipped.
    """
    n = seed.n
    if seed.m != 1:
        raise DimensionMismatch(f"scalar solver needs m = 1, got m = {seed.m}")
    if F.n_outputs != 1 or F.n_inputs != n + 1:
        raise DimensionMismatch(
            f"need 1 component in {n + 1} variables, got "
            f"{F.n_outputs} in {F.n_inputs}"
        )
    g = options.grid_density
    if g ** (n + 1) > MAX_GRID_SAMPLES:
        raise ValueError(
            f"grid_density {g} gives {g}^{n + 1} samples per box attempt, "
            f"more than the cap {MAX_GRID_SAMPLES}"
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
    hx = [options.h0] * n
    if options.h0_dep is not None:
        hy = options.h0_dep
    else:
        reach = sum(abs(F.partial(p0, j)[0] / slope) for j in range(n))
        hy = options.h0 * max(1.0, SLOPE_MARGIN * reach)
    last_failure = ("derivative", p0)
    enclosure = getattr(F, "enclosure", None)
    checks_proved = getattr(F, "checks_proved", None)

    for attempt in range(MAX_SHRINK + 1):
        x_lo = [a[i] - hx[i] for i in range(n)]
        x_hi = [a[i] + hx[i] for i in range(n)]
        y_lo, y_hi = b - hy, b + hy
        failure = None

        closed_axes = [_closed_axis(x_lo[i], x_hi[i], g) for i in range(n)]
        closed_axes.append(_closed_axis(y_lo, y_hi, g))
        box = _closed_box(closed_axes, x_lo + [y_lo], x_hi + [y_hi])
        # F's enclosures hold over the closed box
        ready = (
            enclosure is not None and box is not None
            and (checks_proved is None or checks_proved(*box, options.tol_sys))
        )
        enclosed = enclosure(*box) if ready else None
        if not (ready and _derivative_proved(F, box, enclosed, n, sign, checks_proved is not None)):

            def fails(point):
                return sign * F.partial(point, n)[0] <= 0.0

            point = _first_failure(closed_axes, fails)
            if point is not None:
                failure = ("derivative", point)

        if failure is None:
            interior_axes = [_interior_axis(x_lo[i], x_hi[i], g) for i in range(n)]
            # the closed hull of the points the sweep reads, both faces. It
            # lies in the closed box, which holds [x_lo, x_hi] x [y_lo, y_hi],
            # so enclosed and F's proved checks hold on it
            faces = (
                [axis[0] for axis in interior_axes] + [y_lo],
                [axis[-1] for axis in interior_axes] + [y_hi],
            )
            if not (ready and _faces_proved(F, faces, sign, options.tol_sys, enclosed)):

                def fails(xs):
                    low = sign * F.eval(xs + (y_lo,))[0]
                    return not (low < 0.0 < sign * F.eval(xs + (y_hi,))[0])

                point = _first_failure(interior_axes, fails)
                if point is not None:
                    failure = ("endpoint-sign", point)

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


def _closed_box(axes: list, lo: list, hi: list) -> tuple[list, list] | None:
    """The closed box that holds both the grid axes and [lo, hi], the box
    they divide (the axis arithmetic may miss an end by an ulp either way),
    or None where an axis overflows: its samples lie outside every box."""
    if not all(map(math.isfinite, itertools.chain(*axes))):
        return None
    return (
        [min(a, *axis) for a, axis in zip(lo, axes)],
        [max(b, *axis) for b, axis in zip(hi, axes)],
    )


def _derivative_proved(
    F, box: tuple, enclosed: tuple | None, n: int, sign: int, split: bool
) -> bool:
    """Whether an interval enclosure proves the derivative condition over
    the closed box (lo, hi). enclosed is F.enclosure(lo, hi), or None.
    F's enclosure holds what F.partial computes at every point of a box
    over which F's checks_proved, if it has one, holds (see find_box), and
    is None where it cannot enclose. The proof holds where the dependent column's enclosure has
    sign `sign`: then sign * dF/dy > 0 at every point of the box, so the
    sampled sweep would pass.

    With split, where the one enclosure does not prove the sign, every
    axis is bisected once at a float midpoint, and the proof holds where
    each of the 2^(n+1) sub-boxes, whose union is the box, proves it.
    find_box splits only for F with checks_proved: at level 1, splitting
    cost 55 more enclosures over 80 re-seeded quad_pair builds and spared
    no partial or eval."""
    if _sign_proved(enclosed, n, sign):
        return True
    if not split:
        return False
    return all(
        _sign_proved(F.enclosure(*sub_box), n, sign) for sub_box in _halves(*box)
    )


def _halves(lo: Sequence[float], hi: Sequence[float]):
    """The sub-boxes (lo, hi) of the box bisected once at a float midpoint
    on every axis of positive width, in product order. Their union is the
    box."""
    halves = []
    for a, b in zip(lo, hi):
        mid = a + 0.5 * (b - a)
        halves.append(((a, mid), (mid, b)) if a < b else ((a, b),))
    for sub_box in itertools.product(*halves):
        yield tuple(zip(*sub_box))


def _faces_proved(F, faces: tuple, sign: int, margin: float, enclosed: tuple | None) -> bool:
    """Whether sign * F < 0 at every float point of the face y = y_lo and
    > 0 at every one of y = y_hi, where faces = (lo, hi) is their hull:
    its last axis runs from y_lo to y_hi. enclosed is an enclosure of F
    over a box that holds both faces, or None (see _face_proved)."""
    lo, hi = faces
    return all(
        _face_proved(F, lo[:-1] + [y], hi[:-1] + [y], face_sign, margin, enclosed)
        for y, face_sign in ((lo[-1], -sign), (hi[-1], sign))
    )


def _face_proved(
    F, lo: Sequence[float], hi: Sequence[float], sign: int, margin: float,
    enclosed: tuple | None = None, splits: int = FACE_SPLITS,
) -> bool:
    """Whether sign * F.eval(p)[0] > 0 at every float point p of the closed
    box [lo, hi], and F.eval raises nothing there. F needs eval and
    enclosure. Where F has checks_proved, it must hold over a box that
    holds this one. enclosed is F's enclosure over a box that holds this
    one, or None.

    F's value at the centre is computed first and must have the sign: no
    box that holds the centre can be proved otherwise. Then, in order:

    1. the mean-value form with enclosed's rows;
    2. F's enclosure over the box, whose values hold every value F.eval
       computes there;
    3. the mean-value form with that enclosure's rows;
    4. where splits > 0, the same on each half of the box (_halves),
       whose union is the box, with splits - 1 and the box's enclosure as
       enclosed.

    The mean-value form. Where an enclosure over a box B holds the
    partials of the exact function f at every point of B, then for every
    point p of the box and its centre c,

        f(p) in f(c) + sum_j [df/dv_j](B) (p_j - c_j)

    (Neumaier, Interval Methods for Systems of Equations, 1990, ch. 2).
    The sum is taken in outward-rounded interval arithmetic over p_j in
    [lo_j, hi_j], so it bounds f on the whole box. F's enclosures hold its
    exact partials: an expression's by outward rounding, and a reduced
    function's where its checks are proved, because phi's exact root is
    then the one root in phi's interval, differentiable in u, and the
    enclosure takes z1 over that interval (see dini).

    The margin. F.eval(c) is computed, not exact, and so is each value the
    sweep reads: each is f plus an error e. With M the bound above taken
    at the computed F(c), the computed value at p lies in M - e(c) + e(p),
    so its sign is M's wherever M clears zero by |e(c)| + |e(p)|; margin
    stands for that sum. At an expression, e is rounding: a few ulps of
    its largest term, about 1e-15 on the corpus. At level k of a system,
    F.eval also makes k - 1 nested ITP solves, each within tol_root of its
    exact root, so e grows by about tol_root |slope| per solve: 1e-12
    times a slope of order one at the defaults. find_box passes tol_sys,
    1e-9 by default, which clears even dini.MAX_DEPTH - 1 = 5 of them by
    two orders of magnitude. Its premise is the solver's own: every
    residual test takes |F| <= tol_sys as a zero, which presumes F
    computed to well within tol_sys."""
    if not all(map(math.isfinite, itertools.chain(lo, hi))):
        return False
    centre = tuple(a + 0.5 * (b - a) for a, b in zip(lo, hi))
    try:
        value = F.eval(centre)[0]
    except (DomainError, OutsideBox, NoConvergence):
        return False
    if not sign * value > 0.0:
        return False
    if _mean_value_clears(value, enclosed, lo, hi, centre, sign, margin):
        return True
    whole = F.enclosure(lo, hi)
    if whole is not None:
        low, high = whole[0][0]
        if low > 0.0 if sign > 0 else high < 0.0:
            return True
        if _mean_value_clears(value, whole, lo, hi, centre, sign, margin):
            return True
        enclosed = whole
    return splits > 0 and all(
        _face_proved(F, a, b, sign, margin, enclosed, splits - 1) for a, b in _halves(lo, hi)
    )


def _mean_value_clears(
    value: float, enclosed: tuple | None, lo: Sequence[float], hi: Sequence[float],
    centre: Sequence[float], sign: int, margin: float,
) -> bool:
    """Whether the mean-value form value + sum_j rows[0][j] ([lo_j, hi_j] -
    centre_j), with (values, rows) = enclosed, has sign `sign` and clears
    zero by margin (see _face_proved). An enclosure of None, or a bound
    that overflows, proves nothing."""
    if enclosed is None:
        return False
    from . import interval

    bound = (value, value)
    try:
        for d, a, b, c in zip(enclosed[1][0], lo, hi, centre):
            if a < b:
                bound = interval.add(bound, interval.mul(d, interval.sub((a, b), (c, c))))
    except DomainViolation:
        return False
    return bound[0] > margin if sign > 0 else bound[1] < -margin


def _sign_proved(enclosed: tuple | None, n: int, sign: int) -> bool:
    """Whether an enclosure's dF/dy has sign `sign`; None proves nothing."""
    if enclosed is None:
        return False
    low, high = enclosed[1][0][n]
    return low > 0.0 if sign > 0 else high < 0.0


def _first_failure(axes: list, fails) -> tuple | None:
    """The first grid point, in product order, where fails(point) is true
    or raises a failure to evaluate, or None. Nested functions may fail to
    evaluate at a sample (outside an inner box, or in a region its
    sampling misjudged); that fails the attempt."""
    for point in itertools.product(*axes):
        try:
            if fails(point):
                return point
        except (DomainError, OutsideBox, NoConvergence):
            return point
    return None


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


def bracketed_newton(
    fg, f, lo: float, hi: float, f_lo: float, f_hi: float, y: float, tol: float, passes: int
) -> float:
    """Root of f in [lo, hi] by Newton's method kept inside the bracket,
    given itp's arguments, a start y and fg(y) = (f(y), f'(y)) from one
    pass (Press et al., Numerical Recipes, 3rd ed., 2007, sec. 9.4).

    A start outside the open bracket is replaced by its midpoint. Each pass
    reads f and f' at y and moves the end of the bracket on y's side to y,
    so the bracket keeps the root. The next iterate is the Newton step
    y - f/f' where f' > 0 and the step lands strictly inside the bracket,
    and the bracket's midpoint elsewhere. It returns y where f(y) is 0 or
    the step leaves y unchanged (far from 0, tol can be below the spacing
    of floats), the new iterate after a Newton step no longer than tol, and
    the midpoint once the bracket is no wider than tol or holds no float
    between its ends. After `passes` passes, or at a pass that raises
    DomainError (where f' is not finite though f may be), itp finishes on
    the bracket that is left."""
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if not lo < y < hi:
        y = lo + 0.5 * (hi - lo)
    for _ in range(passes):
        try:
            value, slope = fg(y)
        except DomainError:
            break
        if value == 0.0:
            return y
        if value < 0.0:
            lo, f_lo = y, value
        else:
            hi, f_hi = y, value
        new = y - value / slope if slope > 0.0 else math.nan
        if new == y:
            return y
        if not lo < new < hi:  # NaN compares false too
            new = lo + 0.5 * (hi - lo)
            if hi - lo <= tol or not lo < new < hi:
                return new
        elif abs(new - y) <= tol:
            return new
        y = new
    return itp(f, lo, hi, f_lo, f_hi, tol)


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
        return itp(*self._bracket(x), self.tol_root)

    def _bracket(self, x: tuple[float, ...]) -> tuple:
        """solve_at's checks before its root search: OutsideBox unless x is
        in the box, and NoConvergence unless F's signs at the two ends of
        the box interval bracket a root (F.eval's DomainError if an end
        fails to evaluate). Returns itp's arguments but tol: the signed
        function of y, the interval and its end values."""
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
        return f, lo, hi, f_lo, f_hi

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
