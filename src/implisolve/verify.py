"""Executable verifications of the four supporting lemmas.

Each check is a runnable, seeded experiment: the operator-norm bound on
random vectors, the chain rule for affine precompositions computed two
ways, a mean-value witness found by a grid scan and the solver's ITP root
finder, and an injectivity radius estimated by sampling mixed-row
Jacobians and direct point pairs. The radius estimate is sampling-based,
not a certificate; reports carry the seed and sample count so runs are
reproducible.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    DegenerateJacobian,
    DimensionMismatch,
    NoSignChange,
    RadiusUnderflow,
)
from .expr import ExprFunction, Var, fresh_names, linear_combination
from .linalg import Matrix, Vector, det, hs_norm, matvec, matmul, vec_sub
from .scalar_implicit import itp


@dataclass(frozen=True)
class OperatorBoundReport:
    max_ratio: float
    trials: int
    rng_seed: int
    passed: bool


def check_operator_bound(
    m: Matrix, trials: int = 1000, rng_seed: int = 0
) -> OperatorBoundReport:
    """Sample |Mv| / (hs_norm(M) |v|) over random v; the ratio never exceeds
    1 because the Hilbert-Schmidt norm dominates the operator norm. The
    0/0 case (zero matrix or zero vector) counts as ratio 0.

    M is first scaled by the power of two that brings its largest |entry|
    into [0.5, 1): the ratio does not change, the scaling is exact for every
    entry it keeps out of the subnormal range, and the norms can then
    neither overflow nor underflow to 0."""
    _, e = math.frexp(max((abs(v) for row in m.rows for v in row), default=0.0))
    m = Matrix.from_rows([[math.ldexp(v, -e) for v in row] for row in m.rows])
    rng = random.Random(rng_seed)
    norm_m = hs_norm(m)
    worst = 0.0
    for _ in range(trials):
        v = Vector(rng.uniform(-1.0, 1.0) for _ in range(m.n_cols))
        denom = norm_m * v.norm()
        ratio = 0.0 if denom == 0.0 else matvec(m, v).norm() / denom
        worst = max(worst, ratio)
    return OperatorBoundReport(
        max_ratio=worst, trials=trials, rng_seed=rng_seed, passed=worst <= 1.0 + 1e-12
    )


@dataclass(frozen=True)
class ChainRuleReport:
    max_discrepancy: float
    samples: int
    passed: bool


def check_chain_rule(
    F: ExprFunction, m: Matrix, y: Sequence[float], x_samples: Sequence[Sequence[float]]
) -> ChainRuleReport:
    """Compare JG for G(x) = F(y + Mx) computed two ways: differentiating
    the composed expression built by substitution, and the matrix product
    JF(y + Mx) M."""
    n = F.n_inputs
    if m.n_rows != n or len(y) != n:
        raise DimensionMismatch(
            f"F has {n} variables; M is {m.shape}, y has dim {len(y)}"
        )
    k = m.n_cols
    t_names = fresh_names("t", k, F.variables)
    mapping = {
        name: linear_combination(
            float(y[i]), [(m.rows[i][j], Var(t_names[j])) for j in range(k)]
        )
        for i, name in enumerate(F.variables)
    }
    composed = F.substituted(mapping, t_names)

    worst = 0.0
    for x in x_samples:
        x = tuple(float(v) for v in x)
        if len(x) != k:
            raise DimensionMismatch(f"sample of dim {len(x)}, expected {k}")
        direct = composed.jacobian(x)
        base = tuple(yv + mv for yv, mv in zip(y, matvec(m, x)))
        product = matmul(F.jacobian(base), m)
        for r1, r2 in zip(direct.rows, product.rows):
            for a, b in zip(r1, r2):
                worst = max(worst, abs(a - b))
    return ChainRuleReport(
        max_discrepancy=worst, samples=len(x_samples), passed=worst <= 1e-10
    )


@dataclass(frozen=True)
class WitnessReport:
    passed: bool
    t: float
    witness: Vector
    residual: float
    samples_used: int


_IDENTICAL_ZERO = 1e-12
_WITNESS_TOL = 1e-10
# below the spacing of floats at every t >= 2^-969, so itp stops on
# adjacent floats
_T_TOL = 2.0**-1022


def mvt_witness(
    F: ExprFunction, a: Sequence[float], b: Sequence[float], grid: int = 1024
) -> WitnessReport:
    """Point c on the segment [a, b] where the directional derivative equals
    the average rate of change: g(t) = <grad F(a + t(b-a)), b-a> - (F(b)-F(a))
    has a zero on [0, 1]. Scans a uniform grid for a sign change, then
    solves the first bracket with scalar_implicit.itp; each g(t) is one
    tangent pass, F.jvp, and samples_used counts them all. Passes when
    |g(t)| <= 1e-10 max(1, |F(b) - F(a)|), relative to the size of g's
    terms. Affine F (g identically zero on the grid) reports t = 0.5."""
    if F.n_outputs != 1:
        raise DimensionMismatch("mean-value witness needs a scalar function")
    a = Vector(a)
    b = Vector(b)
    if tuple(a) == tuple(b):
        raise ValueError("segment endpoints coincide")
    direction = vec_sub(b, a)
    gap = F.eval(b)[0] - F.eval(a)[0]
    used = 0

    def g(t: float) -> float:
        nonlocal used
        used += 1
        p = tuple(av + t * dv for av, dv in zip(a, direction))
        return F.jvp(p, direction)[0] - gap

    ts = [i / (grid - 1) for i in range(grid)]
    values = [g(t) for t in ts]
    if all(abs(v) <= _IDENTICAL_ZERO for v in values):
        t = 0.5
    else:
        for i in range(grid - 1):
            g_lo, g_hi = values[i], values[i + 1]
            if min(g_lo, g_hi) <= 0.0 <= max(g_lo, g_hi):
                break
        else:
            raise NoSignChange(min(abs(v) for v in values))
        # itp takes the bracket rising through zero
        s = 1.0 if g_lo <= g_hi else -1.0
        t = itp(lambda u: s * g(u), ts[i], ts[i + 1], s * g_lo, s * g_hi, _T_TOL)
    residual = abs(g(t))
    tol = _WITNESS_TOL * max(1.0, abs(gap))
    if residual > tol:
        raise NoSignChange(residual, t, tol)
    c = Vector(av + t * dv for av, dv in zip(a, direction))
    return WitnessReport(True, t, c, residual, used)


# injectivity_radius gives up once halving takes r below this
MIN_RADIUS = 1e-8


@dataclass(frozen=True)
class InjectivityReport:
    radius: float
    samples: int
    min_det_magnitude: float
    halvings: int
    rng_seed: int
    passed: bool
    certified: bool = False  # sampling evidence only, never a proof


def _ball_point(rng: random.Random, center: Sequence[float], r: float) -> Vector:
    n = len(center)
    while True:
        g = [rng.gauss(0.0, 1.0) for _ in range(n)]
        norm = math.sqrt(sum(v * v for v in g))
        if norm > 0.0:
            break
    radius = r * rng.random() ** (1.0 / n)
    return Vector(c + radius * v / norm for c, v in zip(center, g))


def injectivity_radius(
    F: ExprFunction,
    p: Sequence[float],
    r0: float = 0.5,
    samples: int = 2000,
    rng_seed: int = 0,
) -> InjectivityReport:
    """Estimate a radius on which F is injective, by sampling.

    At radius r, draw `samples` tuples of independent points in B(p; r);
    the test matrix takes row i as the gradient of component i at its own
    point. Every sampled determinant must keep the sign of det JF(p) with
    magnitude >= 1e-12. A direct check then requires F(a) != F(b) for
    `samples` random pairs, with separation > 1e-12 |a - b|. Halve r until
    both pass, down to MIN_RADIUS. The result is evidence, not a
    certificate.
    """
    n = F.n_inputs
    if F.n_outputs != n:
        raise DimensionMismatch("injectivity radius needs a square map")
    p = Vector(p)
    d0 = det(F.jacobian(p))
    if abs(d0) <= 1e-12:
        raise DegenerateJacobian(f"det JF(p) = {d0:g}")
    sign0 = 1.0 if d0 > 0 else -1.0

    rng = random.Random(rng_seed)
    r = r0
    halvings = 0
    while r >= MIN_RADIUS:
        ok = True
        min_det = abs(d0)
        for _ in range(samples):
            rows = []
            for i in range(n):
                xi = _ball_point(rng, p, r)
                rows.append(tuple(F.jacobian(xi).rows[i]))
            d = det(Matrix.from_rows(rows))
            if sign0 * d < 1e-12:
                ok = False
                break
            min_det = min(min_det, abs(d))
        if ok:
            for _ in range(samples):
                a = _ball_point(rng, p, r)
                b = _ball_point(rng, p, r)
                gap = vec_sub(a, b).norm()
                if gap == 0.0:
                    continue
                if vec_sub(F.eval(a), F.eval(b)).norm() <= 1e-12 * gap:
                    ok = False
                    break
        if ok:
            return InjectivityReport(
                radius=r,
                samples=samples,
                min_det_magnitude=min_det,
                halvings=halvings,
                rng_seed=rng_seed,
                passed=True,
            )
        r /= 2
        halvings += 1
    raise RadiusUnderflow(r)
