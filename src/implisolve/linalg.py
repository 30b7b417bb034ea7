"""Small dense real linear algebra.

Everything here targets desk-scale dimensions (a handful of rows): LU with
partial pivoting, a pivot threshold relative to the Hilbert-Schmidt norm,
which dominates the operator norm, math.fsum for every sum of products,
and math.hypot for every norm.

Inputs are validated where they enter: the Vector and Matrix constructors
convert every entry to float and refuse a non-finite one, and each
function checks the shapes it combines. Results are built from those
floats without converting them again. A result whose arithmetic can
overflow (solve, inverse, matmul, matvec, scale, vec_sub) is tested finite
and raises the constructor's ValueError where it is not; matvec and matmul
raise fsum's OverflowError instead where a partial sum overflows on the
way. split_columns only slices finite entries, so it is not tested. A
norm neither overflows nor underflows on the way, and is inf only where
the norm itself exceeds the largest float. solve and inverse factor once
and test the pivots against the threshold once per factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DimensionMismatch, NotSquare, SingularMatrix

# relative pivot threshold: a pivot below PIVOT_EPS_FACTOR * hs_norm(M)
# is treated as zero by solve/inverse
PIVOT_EPS_FACTOR = 1e-12


class Vector(tuple):
    """Immutable real vector; all entries must be finite."""

    def __new__(cls, values: Iterable[float]):
        vals = tuple(map(float, values))
        if not all(map(math.isfinite, vals)):
            bad = next(v for v in vals if not math.isfinite(v))
            raise ValueError(f"non-finite vector entry {bad!r}")
        return tuple.__new__(cls, vals)

    @classmethod
    def _unchecked(cls, vals: tuple) -> "Vector":
        return tuple.__new__(cls, vals)

    @classmethod
    def _of_floats(cls, vals: Sequence[float]) -> "Vector":
        """A vector of entries already floats, tested finite: the
        constructor's ValueError where one is not."""
        if all(map(math.isfinite, vals)):
            return tuple.__new__(cls, vals)
        return cls(vals)

    def norm(self) -> float:
        return math.hypot(*self)


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
    def _unchecked(cls, rows: tuple) -> "Matrix":
        """A matrix of rows already known to be float tuples of one length
        and finite."""
        if not rows:
            raise ValueError("matrix needs at least one row")
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        return m

    @classmethod
    def _of_floats(cls, rows: tuple) -> "Matrix":
        """A matrix of rows already known to be float tuples of one length,
        tested finite: the constructor's ValueError where an entry is not."""
        for row in rows:
            if not all(map(math.isfinite, row)):
                return cls(rows)
        return cls._unchecked(rows)

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
    """Hilbert-Schmidt norm: sqrt of the sum of squared entries, as
    math.hypot over the entries (within 1 ulp of the exact norm)."""
    return math.hypot(*[v for row in m.rows for v in row])


def matvec(m: Matrix, v: Sequence[float]) -> Vector:
    if m.n_cols != len(v):
        raise DimensionMismatch(f"matrix is {m.shape}, vector has dim {len(v)}")
    return Vector._of_floats([math.fsum([a * x for a, x in zip(row, v)]) for row in m.rows])


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a.n_cols != b.n_rows:
        raise DimensionMismatch(f"cannot multiply {a.shape} by {b.shape}")
    cols = tuple(zip(*b.rows))
    return Matrix._of_floats(
        tuple(
            tuple([math.fsum([x * y for x, y in zip(row, col)]) for col in cols])
            for row in a.rows
        )
    )


def scale(m: Matrix, s: float) -> Matrix:
    s = float(s)
    return Matrix._of_floats(tuple(tuple([s * v for v in row]) for row in m.rows))


def split_columns(m: Matrix, n: int) -> tuple[Matrix, Matrix]:
    """First n columns and the rest, as two matrices. The left block may be
    empty (n = 0 produces rows of length zero)."""
    if not 0 <= n <= m.n_cols:
        raise DimensionMismatch(f"cannot split {m.n_cols} columns at {n}")
    left = Matrix._unchecked(tuple(row[:n] for row in m.rows))
    right = Matrix._unchecked(tuple(row[n:] for row in m.rows))
    return left, right


def _factor(m: Matrix) -> tuple[list[list[float]], list[int], int]:
    """LU factorization with partial pivoting, in place on a copy.

    Returns (lu, perm, sign). The pivot is the first entry of largest
    magnitude in its column. A column whose remaining entries are all zero
    leaves a zero pivot in place (the caller decides whether that is a
    determinant of zero or a SingularMatrix)."""
    n = m.n_rows
    lu = [list(row) for row in m.rows]
    perm = list(range(n))
    sign = 1
    for k in range(n):
        pivot_row, largest = k, abs(lu[k][k])
        for r in range(k + 1, n):
            if abs(lu[r][k]) > largest:
                pivot_row, largest = r, abs(lu[r][k])
        if pivot_row != k:
            lu[k], lu[pivot_row] = lu[pivot_row], lu[k]
            perm[k], perm[pivot_row] = perm[pivot_row], perm[k]
            sign = -sign
        row_k = lu[k]
        pivot = row_k[k]
        if pivot == 0.0:
            continue
        for row in lu[k + 1 :]:
            factor = row[k] / pivot
            row[k] = factor
            for j in range(k + 1, n):
                row[j] -= factor * row_k[j]
    return lu, perm, sign


def det(m: Matrix) -> float:
    """Determinant via LU with partial pivoting, sign tracked through swaps."""
    if m.n_rows != m.n_cols:
        raise NotSquare(f"det of a {m.shape} matrix")
    lu, _, sign = _factor(m)
    return math.prod([row[k] for k, row in enumerate(lu)], start=float(sign))


def _factor_nonsingular(m: Matrix) -> tuple[list[list[float]], list[int]]:
    """_factor's (lu, perm), after one test of every pivot: SingularMatrix
    at the first below PIVOT_EPS_FACTOR * max(hs_norm(M), 1e-300). The
    norm does not underflow, so the 1e-300 floor serves only the zero
    matrix and matrices whose entries all lie below about 1e-300; every
    other matrix gets the relative threshold."""
    lu, perm, _ = _factor(m)
    eps = PIVOT_EPS_FACTOR * max(hs_norm(m), 1e-300)
    for k in range(len(lu)):
        pivot = lu[k][k]
        if abs(pivot) < eps:
            raise SingularMatrix(f"pivot {pivot:g} below threshold {eps:g}")
    return lu, perm


def _substitute(lu: list[list[float]], y: list[float]) -> list[float]:
    """The solution of (L U) v = y, y already permuted, in place on y."""
    n = len(lu)
    for i in range(1, n):
        row = lu[i]
        acc = y[i]
        for j in range(i):
            acc -= row[j] * y[j]
        y[i] = acc
    for i in range(n - 1, -1, -1):
        row = lu[i]
        acc = y[i]
        for j in range(i + 1, n):
            acc -= row[j] * y[j]
        y[i] = acc / row[i]
    return y


def solve(m: Matrix, b: Sequence[float]) -> Vector:
    """Solve M v = b. Raises SingularMatrix when a pivot falls below
    PIVOT_EPS_FACTOR * hs_norm(M)."""
    if m.n_rows != m.n_cols:
        raise NotSquare(f"solve with a {m.shape} matrix")
    if m.n_rows != len(b):
        raise DimensionMismatch(f"matrix is {m.shape}, rhs has dim {len(b)}")
    lu, perm = _factor_nonsingular(m)
    return Vector._of_floats(_substitute(lu, [float(b[i]) for i in perm]))


def inverse(m: Matrix) -> Matrix:
    """Matrix inverse via one factorization and n back-substitutions."""
    if m.n_rows != m.n_cols:
        raise NotSquare(f"inverse of a {m.shape} matrix")
    lu, perm = _factor_nonsingular(m)
    cols = [_substitute(lu, [1.0 if i == j else 0.0 for i in perm]) for j in range(len(lu))]
    return Matrix._of_floats(tuple(zip(*cols)))
