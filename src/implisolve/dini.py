"""System implicit functions by induction on the dependent dimension.

The construction mirrors the inductive proof it implements: normalize the
dependent block once, at level 1, so its Jacobian at the seed is the
identity; solve the first equation for its first dependent variable with
the scalar machinery (all remaining variables treated as independent),
substitute that scalar solution into the remaining equations, and recurse
on the reduced system of size m - 1. With G_z = I, dphi/dz' =
-G_0,z' / G_0,z1 = 0 at the seed, so the reduced system's dependent
Jacobian there is already I_{m-1}, within the bound that normalize's one
check of G_z states; no inner level checks its block again.

The stack proves existence and uniqueness: on its validated region, one
box over (x, z) where every level's scalar box holds, F(x, .) has exactly
one zero. build_system computes that box once per level and stores it on
the solution. The stack is not the evaluator. A query starts from the
tangent predictor b + Y' (x - a), where Y' = -J^-1 F_x is the implicit
function's derivative at the seed (Ortega & Rheinboldt, Iterative
Solution of Nonlinear Equations in Several Variables, ch. 10): the
first-order term of the solution sheet, so the iteration spends no step
recovering the slope. build_system computes Y' once, by one
factorization of J (_implicit_derivative, which jacobian_known shares).

At m = 1 the query makes the scalar solution's checks at the box's two
ends, then runs Newton's method kept inside that bracket
(scalar_implicit.bracketed_newton): each step is one pass of the
Jacobian kernel, which gives F and dF/dy together, a step that would
leave the bracket is replaced by bisection, and ITP finishes on the
bracket left if _NEWTON_MAX_ITER passes do not settle it.

For m > 1 a query whose x lies inside the region runs the chord
(simplified Newton) iteration on F(x, .) from the predictor. One pass of
the Jacobian kernel at the predictor gives F's values and the dependent
block of its Jacobian, factored once; each step is one back-substitution
and one evaluation of F at the new iterate (Kelley, Iterative Methods for Linear and Nonlinear
Equations, 1995, ch. 5). The uniqueness proof does not depend on how the
zero is found, so the query accepts the final iterate when its residual,
the last step's evaluation, is within tol_sys and it lies in the stored
region: z = b + J (y - b), with J = dF/dy at the seed, is one fsum per
row, compared without root solves. Otherwise the query falls back to the
nested solve, one ITP solve (bracketed, bisection worst case) per level,
whose cost grows like iterations^m (m is capped by MAX_DEPTH).

Reduced functions have no closed form (they contain a numerically defined
scalar solution), so inner recursion levels operate on composed function
objects that expose the eval/partial/jacobian surface of parsed
expression functions, with exact chain-rule derivatives, not finite
differences. A system's level-1 F must be an ExprFunction, so that
normalization is a substitution on its expression trees and m = 1 has a
Jacobian kernel; a duck-typed scalar F is build_implicit's.

A reduced function's Jacobian eliminates z1 from G's: one pivot step of
Gaussian elimination (Neumaier, Interval Methods for Systems of
Equations, 1990, ch. 4), written once in _eliminate_z1; partial is a
column of it. Every reduced function also encloses its partials over a
box: the same step on G's enclosure with z1 over phi's box interval (the
lifted box). Its checks_proved proves phi's face signs over the box and,
from level 3 on, G's own checks over the lifted box. That makes the
enclosure sound at every level, by induction from level 2, whose G is an
expression: an enclosure that is not None has divided by a pivot
interval that excludes 0, so on the lifted box phi's exact root is
unique and differentiable, and proved checks put it in phi's interval.
So each level's enclosure holds what eval and jacobian compute and the
exact partials that the mean-value form needs. find_box uses it only
where checks_proved holds: to prove monotonicity without nested solves,
and face signs with one nested solve per face centre, not per grid point.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, replace
from typing import Sequence

from .config import SolverOptions
from .dual import DomainViolation
from .errors import (
    BoxNotFound,
    DegenerateDerivative,
    DimensionMismatch,
    ImpliSolveError,
    NoConvergence,
    OutsideBox,
    SeedNotOnZeroSet,
    SingularMatrix,
)
from .expr import BinOp, ExprFunction, Var, const, fresh_names, linear_combination
from .linalg import (
    Matrix,
    Vector,
    _factor_nonsingular,
    _substitute,
    hs_norm,
    inverse,
    matmul,
    matvec,
    split_columns,
    vec_sub,
)
from .scalar_implicit import (
    ImplicitSolution,
    SolutionBox,
    SplitPoint,
    _faces_proved,
    bracketed_newton,
    build_implicit,
)

_NORMALIZE_TOL = 1e-10

# Largest dependent dimension build_system accepts: the nested solve's cost
# grows like (iterations per level)^m.
MAX_DEPTH = 6

# The chord from the tangent predictor settles in a few steps (one F.eval
# each) anywhere in the validated region of a well-posed system, but only
# linearly: on 3,600 queries of random well-posed systems with m = 2..4,
# a third of them at the x-box's edges, 99% settled within 8 steps and the
# slowest took 11. A query that needs more than this falls back to the
# nested solve. A step that leaves y unchanged also settles it: far from 0,
# tol_root can be below the spacing of floats. It is also the budget of
# Jacobian passes of the bracketed Newton iteration at m = 1, after which
# ITP finishes: on the benchmark's four m = 1 curves that iteration
# settled in at most 4.6 passes on average, and never used ITP.
_NEWTON_MAX_ITER = 16

# Inner recursion levels start from slightly smaller initial half-widths.
# Reduced functions are only evaluable strictly inside the enclosing scalar
# box; starting from the same h0 would put the first inner candidate box
# exactly on that open boundary and force a wasted halving at every level.
_INNER_H0_INSET = 0.9


# Unreachable from the solver; kept only because perfbench's tracer patches it by name.
class _AffineReparam:
    """F with the dependent block reparameterized: G(x, z) = F(x, b + J_inv (z - b))."""

    def __init__(self, fn, n: int, b: Vector, j_inv: Matrix):
        self.fn = fn
        self.n = n
        self.b = tuple(b)
        self.j_inv = j_inv
        self.n_inputs = fn.n_inputs
        self.n_outputs = fn.n_outputs

    def _map(self, p: Sequence[float]) -> tuple[float, ...]:
        z = p[self.n :]
        dz = [zv - bv for zv, bv in zip(z, self.b)]
        y = matvec(self.j_inv, dz)
        return tuple(p[: self.n]) + tuple(bv + yv for bv, yv in zip(self.b, y))

    def eval(self, p: Sequence[float]) -> Vector:
        return self.fn.eval(self._map(p))

    def partial(self, p: Sequence[float], j: int) -> Vector:
        v = self._map(p)
        if j < self.n:
            return self.fn.partial(v, j)
        # dG/dz_j = dF/dy J_inv[:, j]: one pass along that column
        column = tuple(row[j - self.n] for row in self.j_inv.rows)
        return self.fn.jvp(v, (0.0,) * self.n + column)

    def jacobian(self, p: Sequence[float]) -> Matrix:
        v = self._map(p)
        full = self.fn.jacobian(v)
        fx, fy = split_columns(full, self.n)
        fz = matmul(fy, self.j_inv)
        return Matrix(tuple(rx + rz for rx, rz in zip(fx.rows, fz.rows)))


class _ComponentSlice:
    """One component of a function, inputs permuted. perm[i] is the index in
    the wrapped function's input order of this function's i-th input."""

    def __init__(self, fn, component: int, perm: Sequence[int]):
        self.fn = fn
        self.component = component
        self.perm = tuple(perm)
        self.n_inputs = fn.n_inputs
        self.n_outputs = 1

    def _unpermute(self, p: Sequence[float]) -> list[float]:
        w = [0.0] * self.n_inputs
        for i, v in enumerate(p):
            w[self.perm[i]] = v
        return w

    def eval(self, p: Sequence[float]) -> Vector:
        return Vector((self.fn.eval(self._unpermute(p))[self.component],))

    def partial(self, p: Sequence[float], j: int) -> Vector:
        w = self._unpermute(p)
        return Vector((self.fn.partial(w, self.perm[j])[self.component],))

    def enclosure(self, lo: Sequence[float], hi: Sequence[float]) -> tuple | None:
        """The wrapped function's enclosure over the box, unpermuted, cut to
        this component with its columns permuted; None where it has none."""
        enclosed = self.fn.enclosure(self._unpermute(lo), self._unpermute(hi))
        if enclosed is None:
            return None
        values, rows = enclosed
        row = rows[self.component]
        return (values[self.component],), (tuple(row[k] for k in self.perm),)

    def checks_proved(self, lo: Sequence[float], hi: Sequence[float], margin: float) -> bool:
        """The wrapped function's checks_proved, over the box unpermuted."""
        return self.fn.checks_proved(self._unpermute(lo), self._unpermute(hi), margin)


class _ReducedFunction:
    """Components 2..m of G with the first dependent variable replaced by the
    scalar implicit solution phi. Inputs are (x, z2..zm); every evaluation
    triggers one inner ITP solve for z1 = phi(x, z').

    phi solves component 0 of G for z1, so its gradient is
    dphi/du_j = -G_0,u_j / G_0,z1, read off the same G Jacobian that the
    chain rule needs: jacobian and partial make one solve and one pass of
    G's Jacobian per call, and _eliminate_z1 is the one elimination of z1,
    on floats there and on intervals in enclosure."""

    def __init__(self, G, phi: ImplicitSolution, n: int):
        self.G = G
        self.phi = phi
        self.n = n
        self.n_inputs = G.n_inputs - 1
        self.n_outputs = G.n_outputs - 1

    def _assemble(self, u: Sequence[float], z1: float) -> tuple[float, ...]:
        return tuple(u[: self.n]) + (z1,) + tuple(u[self.n :])

    def eval(self, u: Sequence[float]) -> Vector:
        z1 = self.phi.solve_at(u)
        return Vector(self.G.eval(self._assemble(u, z1))[1:])

    def partial(self, u: Sequence[float], j: int) -> Vector:
        """Column j of jacobian(u): d/du_j of G's components 2..m with
        z1 = phi following. It fails wherever jacobian does, even where
        column j alone would be finite. That never happened over 1,641
        builds (every build the box-proof tests make, the benchmark's
        m = 1 curves and cubic_triple, and 1,600 re-seeded quad_pair and
        square-map builds): each of their 2,888 failing partials failed
        where column j alone failed too."""
        return Vector._unchecked(tuple(row[j] for row in self.jacobian(u).rows))

    def jacobian(self, u: Sequence[float]) -> Matrix:
        """G's Jacobian at (u, phi(u)) with z1 eliminated (_eliminate_z1):
        one nested solve and one pass of G's Jacobian."""
        u = tuple(u)
        v = self._assemble(u, self.phi.solve_at(u))
        return Matrix._of_floats(_eliminate_z1(self.G.jacobian(v).rows, self.n))

    def enclosure(self, lo: Sequence[float], hi: Sequence[float]) -> tuple | None:
        """Intervals (values, rows) holding what eval and jacobian compute
        at every point u of the closed box [lo, hi] over which
        checks_proved holds: there phi's root lies in phi's box interval
        [y_lo, y_hi], and G's enclosure holds over the lifted box.

        G's enclosure with z1 over that interval then holds G and its
        partials at (u, phi(u)), and _eliminate_z1 on intervals holds what
        it computes on floats. None where G has no enclosure over that box
        or an interval crosses a domain edge, a pivot that may vanish among
        them."""
        from . import interval

        box = self.phi.box
        enclosed = self.G.enclosure(
            self._assemble(lo, box.y_lo), self._assemble(hi, box.y_hi)
        )
        if enclosed is None:
            return None
        values, rows = enclosed
        try:
            rows = _eliminate_z1(
                rows, self.n, interval.div, interval.add, interval.mul, interval.neg
            )
        except DomainViolation:
            return None
        return values[1:], rows

    def checks_proved(self, lo: Sequence[float], hi: Sequence[float], margin: float) -> bool:
        """Whether phi's checks before its root search (phi._bracket)
        return at every point u of the closed box [lo, hi]: the face test
        of the level before, restricted to this box. There phi's root lies
        in phi's box interval, as enclosure needs. It holds where the box
        lies strictly inside phi's open x-box, coordinate by coordinate,
        phi's F proves its own checks_proved, if it has one, over the hull
        of phi's faces over the box (the lifted box enclosure reads), and
        scalar_implicit._faces_proved proves phi's face signs there."""
        phi = self.phi
        box = phi.box
        for low, a, b, high in zip(box.x_lo, lo, hi, box.x_hi):
            if not low < a <= b < high:
                return False
        hull = (list(lo) + [box.y_lo], list(hi) + [box.y_hi])
        inner = getattr(phi.F, "checks_proved", None)
        if inner is not None and not inner(*hull, margin):
            return False
        return _faces_proved(phi.F, hull, box.sign, margin, None)


def _divide(a: float, b: float) -> float:
    if b == 0.0:
        raise DegenerateDerivative("dF/dy vanished inside the box")
    return a / b


def _eliminate_z1(
    rows: tuple, n: int, div=_divide, add=operator.add, mul=operator.mul, neg=operator.neg
) -> tuple:
    """The reduced function's Jacobian rows from the rows of G's over
    (u, z1), z1 at column n: rows 2..m plus their z1 column times
    dphi/du = -G_0,u / G_0,z1, that column dropped. It is one pivot step of
    Gaussian elimination (Neumaier, Interval Methods for Systems of
    Equations, 1990, ch. 4), in the arithmetic div, add, mul and neg: on
    floats by default, where a zero pivot raises DegenerateDerivative, and
    on intervals in enclosure. verify's lemma 4 certificate applies it
    column after column, with n = 0, as the whole elimination."""
    first = rows[0]
    cols = [c for c in range(len(first)) if c != n]
    grad = [div(neg(first[c]), first[n]) for c in cols]
    return tuple(tuple(add(row[c], mul(row[n], g)) for c, g in zip(cols, grad)) for row in rows[1:])


def _phi_variable_perm(n: int, m: int) -> list[int]:
    # scalar-solver order (x, z2..zm, z1) -> original order (x, z1, z2..zm)
    return list(range(n)) + list(range(n + 1, n + m)) + [n]


def normalize(F, seed: SplitPoint):
    """Reparameterize the dependent block so dG/dz at the seed is the
    identity: G(x, z) = F(x, b + J_inv (z - b)) with J = dF/dy(a, b).

    F must be an ExprFunction, else TypeError; the substitution is
    performed on its trees. Returns (G, J, J_inv, JG), where JG is G's
    Jacobian at the seed. Each of F's and G's Jacobians is read once.

    SingularMatrix unless JG's dependent block is the identity within
    eps = _NORMALIZE_TOL, entry by entry. This is the stack's one check of
    that block: each level's elimination of z1 at z1 = b1 (_eliminate_z1)
    moves an entry of the block below by at most eps^2 / (1 - eps) plus a
    few ulps, so every inner level's block is I within about eps too, and
    the scalar solver needs only a nonsingular one.
    """
    _require_expression(F, "normalize")
    n, m = seed.n, seed.m
    fy = split_columns(F.jacobian(seed.point()), n)[1]
    j_inv = inverse(fy)

    x_names = list(F.variables[:n])
    y_names = list(F.variables[n:])
    z_names = fresh_names("z", m, F.variables)
    b = tuple(seed.y)
    mapping = {}
    for i, y_name in enumerate(y_names):
        terms = [
            (j_inv.rows[i][j], BinOp("-", Var(z_names[j]), const(b[j])))
            for j in range(m)
        ]
        mapping[y_name] = linear_combination(b[i], terms)
    G = F.substituted(mapping, x_names + z_names)
    jg = G.jacobian(seed.point())
    for i, row in enumerate(split_columns(jg, n)[1].rows):
        for j, entry in enumerate(row):
            if abs(entry - (1.0 if i == j else 0.0)) > _NORMALIZE_TOL:
                raise SingularMatrix(
                    "normalization failed: dependent-block Jacobian too "
                    f"ill-conditioned (entry ({i},{j}) = {entry!r})"
                )
    return G, fy, j_inv, jg


def _require_expression(F, caller: str) -> None:
    if not isinstance(F, ExprFunction):
        raise TypeError(f"{caller} needs an ExprFunction, got {type(F).__name__}")


@dataclass(frozen=True)
class SystemSolution:
    """Solution stack for F(x, f(x)) = 0 with vector-valued f.

    For m = 1 this wraps a scalar solution of F directly. For m > 1 it
    holds the scalar solution of the first dependent variable and a
    SystemSolution of size m - 1 for the reduced system. F is the function
    this level solves: the caller's ExprFunction at level 1, and the
    reduced function of the level above at every inner level. region is
    the open box (lo, hi) over this level's (x, z) where the zero is
    unique: the scalar box with z_1's interval at position n, intersected
    with the child's region. For m > 1 the chord iteration evaluates
    queries inside it and the nested solve is the fallback (see solve_at).
    normalizer is the J_inv of y = b + J_inv (z - b) at level 1 when m > 1,
    and None at every other level, which solves its F as it is. seed_fy is
    J = dF/dy at the seed where normalizer is set, else None:
    z = b + J (y - b) maps an answer back to z. tangent is
    Y' = -J^-1 dF/dx at the seed, the m x n derivative of the solution
    there, at level 1, else None: the Newton iterations start from
    b + Y' (x - a). Immutable; evaluations at distinct points may run
    concurrently.
    """

    F: object
    seed: SplitPoint
    options: SolverOptions
    depth: int
    scalar: ImplicitSolution
    normalizer: Matrix | None
    seed_fy: Matrix | None
    tangent: Matrix | None
    child: "SystemSolution | None"
    region: tuple[Vector, Vector]

    @property
    def n(self) -> int:
        return self.seed.n

    @property
    def m(self) -> int:
        return self.seed.m

    def solve_at(self, x: Sequence[float]) -> Vector:
        """y with F(x, y) = 0: the unique zero in the stack's validated region.

        For m > 1, the chord's answer where _newton accepts it; otherwise
        the nested solve, assembled from the recursion and mapped back
        through the level-1 normalizer, which raises OutsideBox or
        NoConvergence with the failing level. _newton runs only where x
        lies strictly inside x_box(), the only place _in_region can accept
        its answer. At m = 1 the nested solve is the one scalar solve,
        _bracketed_newton. At level 1 an answer whose residual exceeds
        tol_sys raises NoConvergence."""
        x = tuple(map(float, x))
        if len(x) != self.n:
            raise DimensionMismatch(f"expected {self.n} coordinates, got {len(x)}")
        if self.depth == 1 and self.child is not None:
            lo, hi = self.region
            # map stops at x's n coordinates; a NaN compares false
            if all(map(operator.lt, lo, x)) and all(map(operator.lt, x, hi)):
                y = self._newton(x)
                if y is not None:
                    return y
        y = self._solve(x)
        if self.depth == 1:
            residual = max(map(abs, self.F.eval(x + y)))
            if residual > self.options.tol_sys:
                raise NoConvergence(
                    f"assembled residual {residual:g} exceeds tol_sys "
                    f"{self.options.tol_sys:g}"
                )
        return y

    def _newton(self, x: tuple[float, ...]) -> Vector | None:
        """The chord (simplified Newton) zero of F(x, .) from the tangent
        predictor b + Y' (x - a), one fsum per row, or None when it is not
        accepted: when it does not settle (step <= tol_root, or a step that
        leaves y unchanged) within _NEWTON_MAX_ITER steps, its residual
        exceeds tol_sys, it lies outside the validated region, or the
        predictor or a step fails to evaluate. One pass of the Jacobian
        kernel at the predictor gives F's values there and the dependent
        block, factored once; each step is one back-substitution on the
        current values and one F.eval at the new iterate, which is the next
        step's right-hand side and, at the last step, the residual. A step
        that leaves y unchanged keeps the values already read at y."""
        n = self.n
        tol_root = self.options.tol_root
        F = self.F
        dx = list(map(operator.sub, x, self.seed.x))
        try:
            y = tuple(_affine(self.seed.y, self.tangent, dx))
            values, jac = F._values_and_jacobian(x + y)
            # the dependent block of a Matrix, whose entries are finite
            lu, perm = _factor_nonsingular(Matrix._unchecked(tuple(row[n:] for row in jac.rows)))
            for _ in range(_NEWTON_MAX_ITER):
                step = Vector._of_floats(_substitute(lu, [values[i] for i in perm]))
                prev, y = y, tuple(map(operator.sub, y, step))
                if y == prev:
                    break
                values = F.eval(x + y)
                if max(map(abs, step)) <= tol_root:
                    break
            else:
                return None
            y = Vector(y)
            if max(map(abs, values)) <= self.options.tol_sys and self._in_region(x, y):
                return y
        # ValueError: a step that overflows to a non-finite vector;
        # OverflowError: a predictor row whose fsum overflows, far outside
        # the region
        except (ImpliSolveError, ValueError, OverflowError):
            pass
        return None

    def _in_region(self, x: tuple[float, ...], y: Vector) -> bool:
        """Whether (x, z), with z = b + J (y - b) the inverse of the level-1
        map, lies strictly inside the stored region. F(x, .) has exactly one
        zero there, the one the nested solve finds."""
        b = self.seed.y
        dy = list(map(operator.sub, y, b))
        # an overflowing y - b is rejected before matvec sees it
        if not all(map(math.isfinite, dy)):
            return False
        dz = matvec(self.seed_fy, dy)
        lo, hi = self.region
        for low, v, high in zip(lo, x + tuple(map(operator.add, b, dz)), hi):
            if not low < v < high:
                return False
        return True

    def _solve(self, x: tuple[float, ...]) -> Vector:
        z_rest = () if self.child is None else tuple(self.child._solve(x))
        try:
            # level 1 of an m = 1 system
            if self.depth == 1 and self.child is None:
                z1 = self._bracketed_newton(x)
            else:
                z1 = self.scalar.solve_at(x + z_rest)
        except (OutsideBox, NoConvergence) as exc:
            exc.level = exc.level if exc.level is not None else self.depth
            raise
        return self._to_y((z1,) + z_rest)

    def _bracketed_newton(self, x: tuple[float, ...]) -> float:
        """The root of F(x, .) at m = 1: the scalar solution's checks
        (ImplicitSolution._bracket: OutsideBox, and NoConvergence where the
        box's ends do not bracket a root), then
        scalar_implicit.bracketed_newton from the tangent predictor
        b + Y' (x - a), each pass one pass of F's Jacobian kernel, within
        _NEWTON_MAX_ITER passes before ITP finishes on the bracket left."""
        scalar = self.scalar
        f, lo, hi, f_lo, f_hi = scalar._bracket(x)
        s = scalar.box.sign
        n = self.n
        values_and_jacobian = self.F._values_and_jacobian

        def fg(y: float) -> tuple[float, float]:
            values, jac = values_and_jacobian(x + (y,))
            return s * values[0], s * jac.rows[0][n]

        # a plain sum: a predictor that overflows, inf or nan, starts
        # bracketed_newton at the bracket's midpoint
        dx = map(operator.sub, x, self.seed.x)
        y = self.seed.y[0] + sum(map(operator.mul, self.tangent.rows[0], dx))
        return bracketed_newton(fg, f, lo, hi, f_lo, f_hi, y, scalar.tol_root, _NEWTON_MAX_ITER)

    def _to_y(self, z: Sequence[float]) -> Vector:
        """This level's solved coordinates z as F's dependent variables:
        b + J_inv (z - b) where the level normalized, z itself elsewhere.
        One loop over floats, each row of J_inv (z - b) one fsum; a
        ValueError where an entry is not finite."""
        if self.normalizer is None:
            return Vector(z)
        b = self.seed.y
        return Vector._of_floats(_affine(b, self.normalizer, list(map(operator.sub, z, b))))

    def jacobian_at(self, x: Sequence[float]) -> Matrix:
        """Jf(x) = -[dF/dy]^-1 [dF/dx] at (x, f(x)), blocks from exact partials."""
        x = tuple(float(v) for v in x)
        return self.jacobian_known(x, self.solve_at(x))

    def jacobian_known(self, x: tuple[float, ...], y: Sequence[float]) -> Matrix:
        """Jacobian at a point whose solution value y = f(x) is already known.

        One read of F's Jacobian, whose blocks are dF/dx (columns below n)
        and dF/dy, and -[dF/dy]^-1 dF/dx from _implicit_derivative: one
        factorization of dF/dy and one back-substitution per column."""
        return _implicit_derivative(self.F.jacobian(x + tuple(y)).rows, self.n)

    # -- box geometry ------------------------------------------------------

    def x_box(self) -> tuple[Vector, Vector]:
        """The region's independent part: its first n coordinates."""
        lo, hi = self.region
        return Vector(lo[: self.n]), Vector(hi[: self.n])

    def box_metadata(self) -> list[dict]:
        """Per-level box summary (JSON-friendly)."""
        box = self.scalar.box
        entry = {
            "level": self.depth,
            "x_lo": list(box.x_lo),
            "x_hi": list(box.x_hi),
            "y_interval": [box.y_lo, box.y_hi],
            "sign": box.sign,
            "grid_density": box.grid_density,
            "shrinks": box.shrinks,
            "normalizer": None if self.normalizer is None else self.normalizer.to_lists(),
        }
        rest = [] if self.child is None else self.child.box_metadata()
        return [entry] + rest

    def _sample_ys(self, rng: random.Random, count: int):
        """count random points of the region's dependent part: each z_k
        uniform on its interval, deepest level first, mapped by _to_y."""
        lo, hi = self.region
        n, m = self.n, self.m
        bounds = [(k, lo[n + k], hi[n + k]) for k in reversed(range(m))]
        uniform = rng.uniform
        to_y = self._to_y
        z = [0.0] * m
        for _ in range(count):
            for k, low, high in bounds:
                z[k] = uniform(low, high)
            yield to_y(z)

    def verify_uniqueness(
        self, x: Sequence[float], samples: int = 100000, rng_seed: int = 0
    ) -> "UniquenessReport":
        """Sample the dependent region and report every near-zero of F(x, .).

        Passes iff all points with componentwise residual <= tol_sys lie
        within 10 * tol_sys of solve_at(x). Also reports a scan-scale
        cluster analysis: points below a threshold tied to the best sampled
        residual must all fall within a first-order distance bound of the
        solver's answer, evidence that the scan sees a single zero cluster.
        ValueError before any work where samples is below 1.
        """
        if samples < 1:
            raise ValueError(f"samples must be at least 1, got {samples}")
        x = tuple(float(v) for v in x)
        y_star = self.solve_at(x)
        tol = self.options.tol_sys
        rng = random.Random(rng_seed)

        # keep only points under the running threshold; it never falls below
        # the final max(tol, 10 * best_res), so no hit or candidate is lost
        best_res = float("inf")
        best_point: Vector | None = None
        points = []
        F_eval = self.F.eval
        for y in self._sample_ys(rng, samples):
            res = max(map(abs, F_eval(x + y)))
            if res < best_res:
                best_res, best_point = res, y
            if res <= max(tol, 10 * best_res):
                points.append((res, y))

        hits = [(res, y) for res, y in points if res <= tol]
        hit_dists = [vec_sub(y, y_star).norm() for _, y in hits]
        passed = all(d <= 10 * tol for d in hit_dists)

        threshold = max(tol, 10 * best_res)
        candidates = [(res, y) for res, y in points if res <= threshold]
        fy = split_columns(self.F.jacobian(x + tuple(y_star)), self.n)[1]
        cluster_bound = 2.0 * hs_norm(inverse(fy)) * threshold
        cand_dists = [vec_sub(y, y_star).norm() for _, y in candidates]
        max_candidate_distance = max(cand_dists) if cand_dists else 0.0
        single_cluster = bool(candidates) and max_candidate_distance <= cluster_bound

        return UniquenessReport(
            x=Vector(x),
            solution=y_star,
            samples=samples,
            rng_seed=rng_seed,
            hits=len(hits),
            max_hit_distance=max(hit_dists) if hit_dists else None,
            passed=passed,
            best_point=best_point,
            best_residual=best_res,
            threshold=threshold,
            candidates=len(candidates),
            cluster_bound=cluster_bound,
            max_candidate_distance=max_candidate_distance,
            single_cluster=single_cluster,
        )


@dataclass(frozen=True)
class UniquenessReport:
    x: Vector
    solution: Vector
    samples: int
    rng_seed: int
    hits: int
    max_hit_distance: float | None
    passed: bool
    best_point: Vector | None
    best_residual: float
    threshold: float
    candidates: int
    cluster_bound: float
    max_candidate_distance: float
    single_cluster: bool


def build_system(
    F, seed: SplitPoint, options: SolverOptions = SolverOptions(), _depth: int = 1
) -> SystemSolution:
    """Build the recursion stack for F(x, f(x)) = 0 at the seed (a, b).

    Every level builds its scalar solution by one build_implicit call, of
    its first equation for its first dependent variable with the others
    treated as independent; a BoxNotFound raised there without a level gets
    this one. At m = 1 that equation is F itself. For m > 1 the function is
    normalized at level 1, whose check of the identity block covers every
    inner level (see normalize), and the reduced system recurses.

    The seed is checked on the zero set once per equation: every equation
    of the caller's F at level 1 when m > 1 (SeedNotOnZeroSet, before any
    other work), and each level's own equation by build_implicit, which
    at m = 1 is the only check. An inner level's F, the reduced function,
    is not evaluated at the seed here: that would cost a nested solve and
    check equations the levels check again.

    F must be an ExprFunction, else TypeError before any of its methods is
    called; a duck-typed scalar F is build_implicit's. At m = 1, once the
    scalar solution is built, one Jacobian pass at the seed gives the
    tangent that solve_at's bracketed Newton iteration starts from.
    """
    n, m = seed.n, seed.m
    if _depth == 1:
        _require_expression(F, "build_system")
    if F.n_outputs != m or F.n_inputs != n + m:
        raise DimensionMismatch(
            f"need {m} components in {n + m} variables, got "
            f"{F.n_outputs} in {F.n_inputs}"
        )
    if _depth == 1 and m > 1:
        if m > MAX_DEPTH:
            raise ValueError(f"dependent dimension {m} exceeds the cap {MAX_DEPTH}")
        residual = max(abs(r) for r in F.eval(seed.point()))
        if residual > options.tol_sys:
            raise SeedNotOnZeroSet(residual, options.tol_sys)

    a, b = tuple(seed.x), tuple(seed.y)
    G, fy, j_inv, tangent = F, None, None, None
    if m == 1:
        g1 = F
    elif _depth == 1:
        G, fy, j_inv, jg = normalize(F, seed)
        # F's Jacobian at the seed: G's x-columns there are F's, since z = b
        # gives y = b
        tangent = _implicit_derivative(tuple(g[:n] + f for g, f in zip(jg.rows, fy.rows)), n)
        # its own ExprFunction, not a _ComponentSlice of G: read through the
        # slice, which permutes every point, 16 rounds of re-seeded quad_pair
        # and square-map builds took about 15% more CPU
        g1 = G.component_function(0, [G.variables[i] for i in _phi_variable_perm(n, m)])
    else:
        g1 = _ComponentSlice(F, 0, _phi_variable_perm(n, m))
    try:
        scalar = build_implicit(g1, SplitPoint.of(a + b[1:], b[:1]), options)
    except BoxNotFound as exc:
        exc.level = exc.level if exc.level is not None else _depth
        raise
    if m == 1 and _depth == 1:
        # the predictor of solve_at's bracketed Newton iteration
        tangent = _implicit_derivative(F.jacobian(seed.point()).rows, n)

    child = None
    if m > 1:
        inner_options = replace(
            options,
            h0=options.h0 * _INNER_H0_INSET,
            h0_dep=None if options.h0_dep is None else options.h0_dep * _INNER_H0_INSET,
        )
        child = build_system(
            _ReducedFunction(G, scalar, n), SplitPoint.of(a, b[1:]), inner_options, _depth + 1
        )
    return SystemSolution(
        F=F,
        seed=seed,
        options=options,
        depth=_depth,
        scalar=scalar,
        normalizer=j_inv,
        seed_fy=fy,
        tangent=tangent,
        child=child,
        region=_region(scalar.box, n, child),
    )


def _affine(base: Sequence[float], mat: Matrix, d: Sequence[float]) -> list[float]:
    """base + mat d, each row of mat d one fsum."""
    return [bk + math.fsum([a * v for a, v in zip(row, d)]) for bk, row in zip(base, mat.rows)]


def _implicit_derivative(rows: tuple, n: int) -> Matrix:
    """-[dF/dy]^-1 dF/dx from the rows of F's Jacobian, dF/dx their first
    n columns and dF/dy the rest: one factorization of dF/dy
    (_factor_nonsingular, so SingularMatrix where it is singular) and one
    back-substitution per column of dF/dx, on the column negated, which is
    exact. A ValueError where an entry is not finite."""
    lu, perm = _factor_nonsingular(Matrix._unchecked(tuple([row[n:] for row in rows])))
    cols = [_substitute(lu, [-rows[i][j] for i in perm]) for j in range(n)]
    if not all(all(map(math.isfinite, col)) for col in cols):
        raise ValueError("implicit derivative at the seed overflows")
    return Matrix._unchecked(tuple(zip(*cols)) if cols else ((),) * len(rows))


def _region(
    box: SolutionBox, n: int, child: SystemSolution | None
) -> tuple[Vector, Vector]:
    """A level's region over (x, z_1, z_2..): its scalar box, which orders
    coordinates (x, z_2.., z_1), with z_1 moved to position n, intersected
    with the child's region over (x, z_2..)."""
    lo = box.x_lo[:n] + (box.y_lo,) + box.x_lo[n:]
    hi = box.x_hi[:n] + (box.y_hi,) + box.x_hi[n:]
    if child is not None:
        clo, chi = child.region
        lo = [max(a, b) for a, b in zip(lo, clo[:n] + (lo[n],) + clo[n:])]
        hi = [min(a, b) for a, b in zip(hi, chi[:n] + (hi[n],) + chi[n:])]
    return Vector(lo), Vector(hi)
