"""Small dense real linear algebra.

Everything here targets desk-scale dimensions (a handful of rows), so the
implementation favors transparent contracts over performance: LU with
partial pivoting, explicit pivot thresholds, and a Hilbert-Schmidt norm
that dominates the operator norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DimensionMismatch, NotSquare, SingularMatrix

# relative pivot threshold: a pivot below PIVOT_EPS_FACTOR * hs_norm(M)
# is treated as zero by solve/inverse
PIVOT_EPS_FACTOR = 1e-12
TOL_LINEAR = 1e-10


class Vector(tuple):
    """Immutable real vector; all entries must be finite."""

    def __new__(cls, values: Iterable[float]):
        vals = tuple(float(v) for v in values)
        for v in vals:
            if not math.isfinite(v):
                raise ValueError(f"non-finite vector entry {v!r}")
        return tuple.__new__(cls, vals)

    @classmethod
    def _unchecked(cls, vals: tuple) -> "Vector":
        return tuple.__new__(cls, vals)

    @property
    def dim(self) -> int:
        return len(self)

    def norm(self) -> float:
        return math.sqrt(math.fsum(v * v for v in self))


def vec_sub(a: Sequence[float], b: Sequence[float]) -> Vector:
    if len(a) != len(b):
        raise DimensionMismatch(f"vector dims {len(a)} vs {len(b)}")
    return Vector(x - y for x, y in zip(a, b))


@dataclass(frozen=True)
class Matrix:
    """Row-major dense matrix; rectangular, finite entries."""

    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if not self.rows:
            raise ValueError("matrix needs at least one row")
        ncols = len(self.rows[0])
        for row in self.rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for v in row:
                if not math.isfinite(v):
                    raise ValueError(f"non-finite matrix entry {v!r}")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[float]]) -> "Matrix":
        return cls(tuple(tuple(float(v) for v in row) for row in rows))

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def to_lists(self) -> list[list[float]]:
        return [list(row) for row in self.rows]


def identity(n: int) -> Matrix:
    return Matrix.from_rows(
        [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    )


def hs_norm(m: Matrix) -> float:
    """Hilbert-Schmidt norm: sqrt of the sum of squared entries."""
    return math.sqrt(math.fsum(v * v for row in m.rows for v in row))


def matvec(m: Matrix, v: Sequence[float]) -> Vector:
    if m.n_cols != len(v):
        raise DimensionMismatch(f"matrix is {m.shape}, vector has dim {len(v)}")
    return Vector(math.fsum(a * x for a, x in zip(row, v)) for row in m.rows)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a.n_cols != b.n_rows:
        raise DimensionMismatch(f"cannot multiply {a.shape} by {b.shape}")
    return Matrix.from_rows(
        [
            [
                math.fsum(a.rows[i][k] * b.rows[k][j] for k in range(a.n_cols))
                for j in range(b.n_cols)
            ]
            for i in range(a.n_rows)
        ]
    )


def scale(m: Matrix, s: float) -> Matrix:
    return Matrix.from_rows([[s * v for v in row] for row in m.rows])


def split_columns(m: Matrix, n: int) -> tuple[Matrix, Matrix]:
    """First n columns and the rest, as two matrices. The left block may be
    empty (n = 0 produces rows of length zero)."""
    if not 0 <= n <= m.n_cols:
        raise DimensionMismatch(f"cannot split {m.n_cols} columns at {n}")
    left = Matrix(tuple(row[:n] for row in m.rows))
    right = Matrix(tuple(row[n:] for row in m.rows))
    return left, right


def _factor(m: Matrix) -> tuple[list[list[float]], list[int], int]:
    """LU factorization with partial pivoting, in place on a copy.

    Returns (lu, perm, sign). A column whose remaining entries are all zero
    leaves a zero pivot in place (the caller decides whether that is a
    determinant of zero or a SingularMatrix)."""
    n = m.n_rows
    lu = m.to_lists()
    perm = list(range(n))
    sign = 1
    for k in range(n):
        pivot_row = max(range(k, n), key=lambda r: abs(lu[r][k]))
        if pivot_row != k:
            lu[k], lu[pivot_row] = lu[pivot_row], lu[k]
            perm[k], perm[pivot_row] = perm[pivot_row], perm[k]
            sign = -sign
        pivot = lu[k][k]
        if pivot == 0.0:
            continue
        for i in range(k + 1, n):
            factor = lu[i][k] / pivot
            lu[i][k] = factor
            for j in range(k + 1, n):
                lu[i][j] -= factor * lu[k][j]
    return lu, perm, sign


def det(m: Matrix) -> float:
    """Determinant via LU with partial pivoting, sign tracked through swaps."""
    if m.n_rows != m.n_cols:
        raise NotSquare(f"det of a {m.shape} matrix")
    lu, _, sign = _factor(m)
    d = float(sign)
    for k in range(m.n_rows):
        d *= lu[k][k]
    return d


def _solve_factored(
    lu: list[list[float]], perm: list[int], b: Sequence[float], pivot_eps: float
) -> list[float]:
    n = len(lu)
    for k in range(n):
        if abs(lu[k][k]) < pivot_eps:
            raise SingularMatrix(
                f"pivot {lu[k][k]:g} below threshold {pivot_eps:g}"
            )
    y = [float(b[perm[i]]) for i in range(n)]
    for i in range(n):
        for j in range(i):
            y[i] -= lu[i][j] * y[j]
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            y[i] -= lu[i][j] * y[j]
        y[i] /= lu[i][i]
    return y


def _pivot_eps(m: Matrix) -> float:
    return PIVOT_EPS_FACTOR * max(hs_norm(m), 1e-300)


def solve(m: Matrix, b: Sequence[float]) -> Vector:
    """Solve M v = b. Raises SingularMatrix when a pivot falls below
    PIVOT_EPS_FACTOR * hs_norm(M)."""
    if m.n_rows != m.n_cols:
        raise NotSquare(f"solve with a {m.shape} matrix")
    if m.n_rows != len(b):
        raise DimensionMismatch(f"matrix is {m.shape}, rhs has dim {len(b)}")
    lu, perm, _ = _factor(m)
    return Vector(_solve_factored(lu, perm, b, _pivot_eps(m)))


def inverse(m: Matrix) -> Matrix:
    """Matrix inverse via one factorization and n back-substitutions."""
    if m.n_rows != m.n_cols:
        raise NotSquare(f"inverse of a {m.shape} matrix")
    n = m.n_rows
    lu, perm, _ = _factor(m)
    eps = _pivot_eps(m)
    cols = [
        _solve_factored(lu, perm, [1.0 if i == j else 0.0 for i in range(n)], eps)
        for j in range(n)
    ]
    return Matrix.from_rows([[cols[j][i] for j in range(n)] for i in range(n)])
