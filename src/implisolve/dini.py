"""System implicit functions by induction on the dependent dimension.

The construction mirrors the inductive proof it implements: normalize the
dependent block once, at level 1, so its Jacobian at the seed is the
identity; solve the first equation for its first dependent variable with
the scalar machinery (all remaining variables treated as independent),
substitute that scalar solution into the remaining equations, and recurse
on the reduced system of size m - 1. With G_z = I, dphi/dz' =
-G_0,z' / G_0,z1 = 0 at the seed, so the reduced system's dependent
Jacobian there is already I_{m-1}; inner levels only check it.

The stack proves existence and uniqueness: on its validated region, one
box over (x, z) where every level's scalar box holds, F(x, .) has exactly
one zero. build_system computes that box once per level and stores it on
the solution. The stack is not the evaluator. For m > 1 a query runs plain
Newton on F(x, .) from the seed (Ortega & Rheinboldt, Iterative Solution of
Nonlinear Equations in Several Variables, ch. 10) and accepts the iterate
when its residual is within tol_sys and it lies in the stored region, a
comparison without root solves. Otherwise the query falls back to the
nested solve, one ITP solve (bracketed, bisection worst case) per level,
whose cost grows like iterations^m (m is capped by MAX_DEPTH).

Reduced functions have no closed form (they contain a numerically defined
scalar solution), so inner recursion levels operate on composed function
objects that expose the eval/partial/jacobian surface of parsed
expression functions, with exact chain-rule derivatives, not finite
differences. A level-1 F that is not an ExprFunction gets an affine
wrapper in place of the tree substitution, and must also provide jvp.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Sequence

from .config import SolverOptions
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
    hs_norm,
    inverse,
    matvec,
    scale,
    matmul,
    solve,
    split_columns,
    vec_sub,
)
from .scalar_implicit import ImplicitSolution, SolutionBox, SplitPoint, build_implicit

_NORMALIZE_TOL = 1e-10

# Largest dependent dimension build_system accepts: the nested solve's cost
# grows like (iterations per level)^m.
MAX_DEPTH = 6

# Newton from the seed settles in a few steps anywhere in the validated
# region of a well-posed system; a query that needs more than this falls
# back to the nested solve. A step that leaves y unchanged also settles it:
# far from 0, tol_root can be below the spacing of floats.
_NEWTON_MAX_ITER = 8

# Inner recursion levels start from slightly smaller initial half-widths.
# Reduced functions are only evaluable strictly inside the enclosing scalar
# box; starting from the same h0 would put the first inner candidate box
# exactly on that open boundary and force a wasted halving at every level.
_INNER_H0_INSET = 0.9


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


class _ReducedFunction:
    """Components 2..m of G with the first dependent variable replaced by the
    scalar implicit solution phi. Inputs are (x, z2..zm); every evaluation
    triggers one inner ITP solve for z1 = phi(x, z').

    phi solves component 0 of G for z1, so its gradient is
    dphi/du_j = -G_0,u_j / G_0,z1, read off the same G partials that the
    chain rule needs: one solve per call, no separate gradient pass.

    seed_jacobian is its Jacobian at the seed (a, b'), eliminated from G's
    at z1 = b1 exactly: jacobian() takes z1 from phi, whose root misses b1
    by up to tol_root plus the seed residual, times G's curvature."""

    def __init__(self, G, phi: ImplicitSolution, n: int, seed_jacobian: Matrix):
        self.G = G
        self.phi = phi
        self.n = n
        self.seed_jacobian = seed_jacobian
        self.n_inputs = G.n_inputs - 1
        self.n_outputs = G.n_outputs - 1

    def _assemble(self, u: Sequence[float], z1: float) -> tuple[float, ...]:
        return tuple(u[: self.n]) + (z1,) + tuple(u[self.n :])

    def eval(self, u: Sequence[float]) -> Vector:
        z1 = self.phi.solve_at(u)
        return Vector(self.G.eval(self._assemble(u, z1))[1:])

    def partial(self, u: Sequence[float], j: int) -> Vector:
        """d/du_j of G's components 2..m with z1 = phi following: the
        partial holding z1 fixed, plus the dG/dz1 column times dphi/du_j."""
        u = tuple(u)
        v = self._assemble(u, self.phi.solve_at(u))
        direct = self.G.partial(v, j if j < self.n else j + 1)
        through = self.G.partial(v, self.n)
        dphi = -direct[0] / _nonzero_slope(through[0])
        return Vector(
            direct[i + 1] + through[i + 1] * dphi for i in range(self.n_outputs)
        )

    def jacobian(self, u: Sequence[float]) -> Matrix:
        u = tuple(u)
        v = self._assemble(u, self.phi.solve_at(u))
        return _eliminate_z1(self.G.jacobian(v), self.n)


def _eliminate_z1(jg: Matrix, n: int) -> Matrix:
    """The reduced function's Jacobian from G's at (u, z1): rows 2..m plus
    their z1 column times dphi/du = -G_0,u / G_0,z1, that column dropped."""
    first = jg.rows[0]
    fy = _nonzero_slope(first[n])
    cols = [j for j in range(len(first)) if j != n]
    grad = [-first[col] / fy for col in cols]
    rows = jg.rows[1:]
    return Matrix.from_rows([r[c] + r[n] * g for c, g in zip(cols, grad)] for r in rows)


def _nonzero_slope(fy: float) -> float:
    if fy == 0.0:
        raise DegenerateDerivative("dF/dy vanished inside the box")
    return fy


def _phi_variable_perm(n: int, m: int) -> list[int]:
    # scalar-solver order (x, z2..zm, z1) -> original order (x, z1, z2..zm)
    return list(range(n)) + list(range(n + 1, n + m)) + [n]


def normalize(F, seed: SplitPoint):
    """Reparameterize the dependent block so dG/dz at the seed is the
    identity: G(x, z) = F(x, b + J_inv (z - b)) with J = dF/dy(a, b).

    Expression-backed functions get the substitution performed on their
    trees; other functions are wrapped with the equivalent affine map.
    Returns (G, J_inv).
    """
    n, m = seed.n, seed.m
    j_inv = inverse(split_columns(F.jacobian(seed.point()), n)[1])

    if isinstance(F, ExprFunction):
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
    else:
        G = _AffineReparam(F, n, seed.y, j_inv)
    _check_identity_block(G.jacobian(seed.point()), n)
    return G, j_inv


def _check_identity_block(jac: Matrix, n: int) -> None:
    """Raise SingularMatrix unless the dependent block of jac (columns n
    onward) is the identity within _NORMALIZE_TOL."""
    gy = split_columns(jac, n)[1]
    for i, row in enumerate(gy.rows):
        for j, entry in enumerate(row):
            if abs(entry - (1.0 if i == j else 0.0)) > _NORMALIZE_TOL:
                raise SingularMatrix(
                    "normalization failed: dependent-block Jacobian too "
                    f"ill-conditioned (entry ({i},{j}) = {entry!r})"
                )


@dataclass(frozen=True)
class SystemSolution:
    """Solution stack for F(x, f(x)) = 0 with vector-valued f.

    For m = 1 this wraps a scalar solution of F directly. For m > 1 it
    holds the scalar solution of the first dependent variable and a
    SystemSolution of size m - 1 for the reduced system. region is the open
    box (lo, hi) over this level's (x, z) where the zero is unique: the
    scalar box with z_1's interval at position n, intersected with the
    child's region. Newton evaluates queries inside it and the nested solve
    is the fallback (see solve_at). normalizer is the J_inv of
    y = b + J_inv (z - b) at level 1 when m > 1, and None at every other
    level, which solves its F as it is. Immutable; evaluations at distinct
    points may run concurrently.
    """

    F: object
    seed: SplitPoint
    options: SolverOptions
    depth: int
    scalar: ImplicitSolution
    normalizer: Matrix | None
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

        For m > 1, Newton's answer where _newton accepts it; otherwise the
        nested solve, assembled from the recursion and mapped back through
        the level-1 normalizer, which raises OutsideBox or NoConvergence
        with the failing level."""
        x = tuple(float(v) for v in x)
        if len(x) != self.n:
            raise DimensionMismatch(f"expected {self.n} coordinates, got {len(x)}")
        if self.depth == 1 and self.child is not None:
            y = self._newton(x)
            if y is not None:
                return y
        y = self._solve(x)
        if self.depth == 1:
            residual = max(abs(r) for r in self.F.eval(x + tuple(y)))
            if residual > self.options.tol_sys:
                raise NoConvergence(
                    f"assembled residual {residual:g} exceeds tol_sys "
                    f"{self.options.tol_sys:g}"
                )
        return y

    def _newton(self, x: tuple[float, ...]) -> Vector | None:
        """Newton's zero of F(x, .) from the seed b, or None when it is not
        accepted: when it does not settle (step <= tol_root, or a step that
        leaves y unchanged) within _NEWTON_MAX_ITER steps, its residual
        exceeds tol_sys, it lies outside the validated region, or a step
        fails to evaluate."""
        n, m = self.n, self.m
        y = tuple(self.seed.y)
        try:
            for _ in range(_NEWTON_MAX_ITER):
                p = x + y
                cols = [self.F.partial(p, n + j) for j in range(m)]
                step = solve(Matrix(tuple(zip(*cols))), self.F.eval(p))
                prev, y = y, tuple(yv - sv for yv, sv in zip(y, step))
                if y == prev or max(map(abs, step)) <= self.options.tol_root:
                    break
            else:
                return None
            y = Vector(y)
            residual = max(abs(r) for r in self.F.eval(x + y))
            if residual <= self.options.tol_sys and self._in_region(x, y):
                return y
        # ValueError: a step that overflows to a non-finite vector
        except (ImpliSolveError, ValueError):
            pass
        return None

    def _in_region(self, x: tuple[float, ...], y: Vector) -> bool:
        """Whether (x, z), with z = b + J (y - b) the inverse of the level-1
        map, lies strictly inside the stored region. F(x, .) has exactly one
        zero there, the one the nested solve finds."""
        b = tuple(self.seed.y)
        dz = solve(self.normalizer, vec_sub(y, b))
        p = x + tuple(bv + dv for bv, dv in zip(b, dz))
        lo, hi = self.region
        return all(low < v < high for low, v, high in zip(lo, p, hi))

    def _solve(self, x: tuple[float, ...]) -> Vector:
        z_rest = () if self.child is None else tuple(self.child._solve(x))
        try:
            z1 = self.scalar.solve_at(x + z_rest)
        except (OutsideBox, NoConvergence) as exc:
            exc.level = exc.level if exc.level is not None else self.depth
            raise
        return self._to_y((z1,) + z_rest)

    def _to_y(self, z: tuple[float, ...]) -> Vector:
        """This level's solved coordinates z as F's dependent variables:
        b + J_inv (z - b) where the level normalized, z itself elsewhere."""
        if self.normalizer is None:
            return Vector(z)
        b = tuple(self.seed.y)
        dy = matvec(self.normalizer, vec_sub(z, b))
        return Vector(bv + dv for bv, dv in zip(b, dy))

    def jacobian_at(self, x: Sequence[float]) -> Matrix:
        """Jf(x) = -[dF/dy]^-1 [dF/dx] at (x, f(x)), blocks from exact partials."""
        x = tuple(float(v) for v in x)
        return self.jacobian_known(x, self.solve_at(x))

    def jacobian_known(self, x: tuple[float, ...], y: Sequence[float]) -> Matrix:
        """Jacobian at a point whose solution value y = f(x) is already known."""
        full = self.F.jacobian(x + tuple(y))
        fx, fy = split_columns(full, self.n)
        return scale(matmul(inverse(fy), fx), -1.0)

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

    def _sample_y(self, rng: random.Random) -> Vector:
        """Random point of the region's dependent part: each z_k uniform on
        its interval, deepest level first, mapped through the level-1
        normalizer."""
        lo, hi = self.region
        z = [0.0] * self.m
        for k in reversed(range(self.m)):
            z[k] = rng.uniform(lo[self.n + k], hi[self.n + k])
        return self._to_y(tuple(z))

    def verify_uniqueness(
        self, x: Sequence[float], samples: int = 100000, rng_seed: int = 0
    ) -> "UniquenessReport":
        """Sample the dependent region and report every near-zero of F(x, .).

        Passes iff all points with componentwise residual <= tol_sys lie
        within 10 * tol_sys of solve_at(x). Also reports a scan-scale
        cluster analysis: points below a threshold tied to the best sampled
        residual must all fall within a first-order distance bound of the
        solver's answer, evidence that the scan sees a single zero cluster.
        """
        x = tuple(float(v) for v in x)
        y_star = self.solve_at(x)
        tol = self.options.tol_sys
        rng = random.Random(rng_seed)

        # keep only points under the running threshold; it never falls below
        # the final max(tol, 10 * best_res), so no hit or candidate is lost
        best_res = float("inf")
        best_point: Vector | None = None
        points = []
        for _ in range(samples):
            y = self._sample_y(rng)
            res = max(abs(r) for r in self.F.eval(x + tuple(y)))
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

    The base case m = 1 delegates to the scalar solver on F directly. For
    m > 1 the function is normalized at level 1 (below, its dependent block
    is only checked to be the identity), the first equation is solved for
    its first dependent variable, and the reduced system recurses.
    """
    n, m = seed.n, seed.m
    if F.n_outputs != m or F.n_inputs != n + m:
        raise DimensionMismatch(
            f"need {m} components in {n + m} variables, got "
            f"{F.n_outputs} in {F.n_inputs}"
        )
    if _depth == 1 and m > MAX_DEPTH:
        raise ValueError(f"dependent dimension {m} exceeds the cap {MAX_DEPTH}")
    residual = max(abs(r) for r in F.eval(seed.point()))
    if residual > options.tol_sys:
        raise SeedNotOnZeroSet(residual, options.tol_sys)

    if m == 1:
        scalar = _build_scalar(F, seed, options, _depth)
        j_inv = child = None
    else:
        if _depth == 1:
            G, j_inv = normalize(F, seed)
            seed_jacobian = G.jacobian(seed.point())
        else:
            # the level above normalized, so F's dependent block is already I
            G, j_inv, seed_jacobian = F, None, F.seed_jacobian
            _check_identity_block(seed_jacobian, n)
        perm = _phi_variable_perm(n, m)
        if isinstance(G, ExprFunction):
            phi_vars = [G.variables[i] for i in perm]
            g1 = G.component_function(0, phi_vars)
        else:
            g1 = _ComponentSlice(G, 0, perm)
        a = tuple(seed.x)
        b = tuple(seed.y)
        scalar = _build_scalar(g1, SplitPoint.of(a + b[1:], (b[0],)), options, _depth)

        reduced = _ReducedFunction(G, scalar, n, _eliminate_z1(seed_jacobian, n))
        inner_options = replace(
            options,
            h0=options.h0 * _INNER_H0_INSET,
            h0_dep=None if options.h0_dep is None else options.h0_dep * _INNER_H0_INSET,
        )
        child = build_system(reduced, SplitPoint.of(a, b[1:]), inner_options, _depth + 1)
    return SystemSolution(
        F=F,
        seed=seed,
        options=options,
        depth=_depth,
        scalar=scalar,
        normalizer=j_inv,
        child=child,
        region=_region(scalar.box, n, child),
    )


def _build_scalar(F, seed: SplitPoint, options: SolverOptions, depth: int) -> ImplicitSolution:
    """build_implicit; a BoxNotFound it raises without a level gets this one."""
    try:
        return build_implicit(F, seed, options)
    except BoxNotFound as exc:
        exc.level = exc.level if exc.level is not None else depth
        raise


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
