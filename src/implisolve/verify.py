"""Executable verifications of the four supporting lemmas.

Each check is a runnable, seeded experiment: the operator-norm bound on
random vectors, the chain rule for affine precompositions computed two
ways, a mean-value witness found by scan-and-bisect, and an injectivity
radius estimated by sampling mixed-row Jacobians and direct point pairs.
The radius estimate is sampling-based, not a certificate; reports carry
the seed and sample counts so runs are reproducible.
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
    found: bool
    t: float
    witness: Vector
    residual: float
    samples_used: int


_IDENTICAL_ZERO = 1e-12
_WITNESS_TOL = 1e-10


def mvt_witness(
    F: ExprFunction, a: Sequence[float], b: Sequence[float], grid: int = 1024
) -> WitnessReport:
    """Point c on the segment [a, b] where the directional derivative equals
    the average rate of change: g(t) = <grad F(a + t(b-a)), b-a> - (F(b)-F(a))
    has a zero on [0, 1]. Scans a uniform grid for a sign change, then
    bisects. Affine F (g identically zero on the grid) reports t = 0.5."""
    if F.n_outputs != 1:
        raise DimensionMismatch("mean-value witness needs a scalar function")
    a = Vector(a)
    b = Vector(b)
    if tuple(a) == tuple(b):
        raise ValueError("segment endpoints coincide")
    direction = vec_sub(b, a)
    gap = F.eval(b)[0] - F.eval(a)[0]

    def g(t: float) -> float:
        p = tuple(av + t * dv for av, dv in zip(a, direction))
        return (
            math.fsum(F.partial(p, j)[0] * direction[j] for j in range(len(a))) - gap
        )

    ts = [i / (grid - 1) for i in range(grid)]
    values = [g(t) for t in ts]
    if all(abs(v) <= _IDENTICAL_ZERO for v in values):
        c = Vector(av + 0.5 * dv for av, dv in zip(a, direction))
        return WitnessReport(True, 0.5, c, abs(g(0.5)), grid)

    # (lo, hi, g(lo)), the grid's value carried forward
    bracket = None
    for i in range(grid - 1):
        if values[i] == 0.0:
            bracket = (ts[i], ts[i], values[i])
            break
        if values[i] * values[i + 1] < 0.0:
            bracket = (ts[i], ts[i + 1], values[i])
            break
    if values[-1] == 0.0 and bracket is None:
        bracket = (ts[-1], ts[-1], values[-1])
    if bracket is None:
        raise NoSignChange(min(abs(v) for v in values))

    lo, hi, g_lo = bracket
    t_best, g_best = lo, g_lo
    used = grid
    for _ in range(200):
        if abs(g_best) <= _WITNESS_TOL:
            break
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        used += 1
        if abs(g_mid) < abs(g_best):
            t_best, g_best = mid, g_mid
        if g_mid == 0.0:
            break
        if g_lo * g_mid < 0.0:
            hi = mid
        else:
            lo, g_lo = mid, g_mid
    if abs(g_best) > _WITNESS_TOL:
        raise NoSignChange(abs(g_best))
    c = Vector(av + t_best * dv for av, dv in zip(a, direction))
    return WitnessReport(True, t_best, c, abs(g_best), used)


@dataclass(frozen=True)
class InjectivityReport:
    radius: float
    tuple_samples: int
    pair_samples: int
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
    tuple_samples: int = 2000,
    pair_samples: int = 2000,
    rng_seed: int = 0,
    min_radius: float = 1e-8,
) -> tuple[float, InjectivityReport]:
    """Estimate a radius on which F is injective, by sampling.

    At radius r, draw tuples of independent points in B(p; r); the test
    matrix takes row i as the gradient of component i at its own point.
    Every sampled determinant must keep the sign of det JF(p) with
    magnitude >= 1e-12. A direct check then requires F(a) != F(b) for
    random pairs, with separation > 1e-12 |a - b|. Halve r until both
    pass. The result is evidence, not a certificate.
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
    while r >= min_radius:
        ok = True
        min_det = abs(d0)
        for _ in range(tuple_samples):
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
            for _ in range(pair_samples):
                a = _ball_point(rng, p, r)
                b = _ball_point(rng, p, r)
                gap = vec_sub(a, b).norm()
                if gap == 0.0:
                    continue
                if vec_sub(F.eval(a), F.eval(b)).norm() <= 1e-12 * gap:
                    ok = False
                    break
        if ok:
            report = InjectivityReport(
                radius=r,
                tuple_samples=tuple_samples,
                pair_samples=pair_samples,
                min_det_magnitude=min_det,
                halvings=halvings,
                rng_seed=rng_seed,
                passed=True,
            )
            return r, report
        r /= 2
        halvings += 1
    raise RadiusUnderflow(r)
