import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from implisolve import (
    DimensionMismatch,
    Matrix,
    NotSquare,
    SingularMatrix,
    Vector,
    det,
    hs_norm,
    identity,
    inverse,
    matmul,
    matvec,
    solve,
)
from implisolve.linalg import scale, split_columns, vec_sub


def rand_matrix(rng, rows, cols):
    return Matrix.from_rows(
        [[rng.uniform(-1, 1) for _ in range(cols)] for _ in range(rows)]
    )


def test_hs_norm():
    assert abs(hs_norm(identity(2)) - math.sqrt(2)) < 1e-15
    # squares that overflow, alone or summed, do not overflow the norm
    for big in (1e154, 1e200):
        norm = hs_norm(Matrix.from_rows([[3 * big, -4 * big]]))
        assert abs(norm - 5 * big) <= 1e-15 * 5 * big
    assert hs_norm(Matrix.from_rows([[1e308, 1e308]])) == 1e308 * math.sqrt(2)
    assert hs_norm(Matrix.from_rows([[1.5e308, 1.5e308]])) == math.inf
    zero = Matrix.from_rows([[0.0] * 4 for _ in range(3)])
    assert hs_norm(zero) == 0.0
    assert hs_norm(Matrix.from_rows([[3.0, 4.0]])) == 5.0  # sqrt(9 + 16)


_magnitudes = st.floats(1e-310, 1e307)
_signed_entries = st.one_of(st.just(0.0), _magnitudes, _magnitudes.map(lambda v: -v))


@given(
    st.integers(1, 6).flatmap(
        lambda c: st.lists(st.lists(_signed_entries, min_size=c, max_size=c), min_size=1, max_size=6)
    )
)
@example([[1e-200]])
def test_hs_norm_within_one_ulp_of_the_exact_norm(rows):
    # the float neighbours of the result bracket the exact norm
    h = hs_norm(Matrix.from_rows(rows))
    exact = sum(Fraction(v) ** 2 for row in rows for v in row)
    below = max(math.nextafter(h, -math.inf), 0.0)
    assert Fraction(below) ** 2 <= exact <= Fraction(math.nextafter(h, math.inf)) ** 2


def test_vector_norm_neither_overflows_nor_underflows():
    for e in (600, -700):
        assert Vector([math.ldexp(3.0, e), math.ldexp(-4.0, e)]).norm() == math.ldexp(5.0, e)
    assert Vector([1.2e154, 1.2e154]).norm() == math.hypot(1.2e154, 1.2e154)


def test_pivot_threshold_is_relative_below_squares_that_underflow():
    # diag(1e-200, 1e-215) is diag(1, 1e-15) scaled: its second pivot is
    # below 1e-12 times its norm, as diag(1, 1e-15)'s is
    for scale_by in (1.0, 1e-200):
        m = Matrix(((scale_by, 0.0), (0.0, 1e-15 * scale_by)))
        with pytest.raises(SingularMatrix):
            solve(m, (1.0, 1.0))


def test_matvec():
    v = Vector([2.0, -1.0])
    assert matvec(identity(2), v) == v
    assert tuple(matvec(Matrix.from_rows([[1, 1], [1, -1]]), (3.0, 4.0))) == (7.0, -1.0)
    with pytest.raises(DimensionMismatch):
        matvec(Matrix.from_rows([[1, 2, 3]]), (1.0, 1.0))


def test_det():
    assert det(identity(4)) == 1.0
    assert det(Matrix.from_rows([[2, 1], [1, 2]])) == 3.0  # 2*2 - 1*1
    assert det(Matrix.from_rows([[1, 2], [2, 4]])) == 0.0
    with pytest.raises(NotSquare):
        det(Matrix.from_rows([[1, 2, 3]]))


def test_solve():
    b = Vector([5.0, -2.0])
    assert solve(identity(2), b) == b
    x = solve(Matrix.from_rows([[2, 1], [1, 2]]), (3.0, 3.0))
    assert vec_sub(x, (1.0, 1.0)).norm() < 1e-14  # 2 + 1 = 3 checks by hand
    with pytest.raises(SingularMatrix):
        solve(Matrix.from_rows([[1, 2], [2, 4]]), (1.0, 1.0))


def test_inverse():
    assert inverse(identity(3)).rows == identity(3).rows
    inv = inverse(Matrix.from_rows([[2, 0], [0, 4]]))
    assert inv.rows == ((0.5, 0.0), (0.0, 0.25))
    # adjugate by hand: (1/3) [[2, -1], [-1, 2]]
    inv2 = inverse(Matrix.from_rows([[2, 1], [1, 2]]))
    expected = ((2 / 3, -1 / 3), (-1 / 3, 2 / 3))
    for r1, r2 in zip(inv2.rows, expected):
        for a, b in zip(r1, r2):
            assert abs(a - b) < 1e-14
    with pytest.raises(SingularMatrix):
        inverse(Matrix.from_rows([[1, 1], [1, 1]]))


def test_split_columns():
    m = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
    left, right = split_columns(m, 1)
    assert left.rows == ((1.0,), (4.0,))
    assert right.rows == ((2.0, 3.0), (5.0, 6.0))
    empty, full = split_columns(m, 0)
    assert empty.shape == (2, 0)
    assert full.rows == m.rows


def test_finiteness_enforced():
    with pytest.raises(ValueError):
        Vector([1.0, float("inf")])
    with pytest.raises(ValueError):
        Matrix.from_rows([[float("nan")]])


def test_operator_norm_bound_on_random_matrices():
    # Hilbert-Schmidt dominates the operator norm: |Mv| <= hs_norm(M) |v|.
    rng = random.Random(7)
    for _ in range(1000):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = rand_matrix(rng, rows, cols)
        v = Vector([rng.uniform(-1, 1) for _ in range(cols)])
        assert matvec(m, v).norm() <= hs_norm(m) * v.norm() * (1 + 1e-12)


def test_det_multiplicative_on_random_pairs():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 5)
        a = rand_matrix(rng, n, n)
        b = rand_matrix(rng, n, n)
        lhs = det(matmul(a, b))
        rhs = det(a) * det(b)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_solve_residual_bound():
    rng = random.Random(13)
    checked = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        m = rand_matrix(rng, n, n)
        if abs(det(m)) < 1e-2:  # the contract assumes reasonable conditioning
            continue
        b = Vector([rng.uniform(-1, 1) for _ in range(n)])
        x = solve(m, b)
        residual = vec_sub(matvec(m, x), b).norm()
        assert residual <= 1e-10 * (1 + b.norm())
        checked += 1
    assert checked > 100


# -- pinned bit for bit -----------------------------------------------------
# The formulas linalg computed before its results skipped re-conversion and
# solve/inverse tested their pivots once per factorization, copied here as
# the reference: every result must equal theirs by repr (which tells 0.0
# from -0.0), or raise the same error type with the same message.


def _ref_vector(values):
    vals = tuple(map(float, values))
    if not all(map(math.isfinite, vals)):
        bad = next(v for v in vals if not math.isfinite(v))
        raise ValueError(f"non-finite vector entry {bad!r}")
    return vals


def _ref_matrix(rows):
    rows = tuple(tuple(float(v) for v in row) for row in rows)
    return Matrix(rows).rows


def _ref_hs_norm(rows):
    return math.hypot(*[v for row in rows for v in row])


def _ref_vec_sub(a, b):
    if len(a) != len(b):
        raise DimensionMismatch(f"vector dims {len(a)} vs {len(b)}")
    return _ref_vector(x - y for x, y in zip(a, b))


def _ref_matvec(rows, v):
    if len(rows[0]) != len(v):
        raise DimensionMismatch(f"matrix is {(len(rows), len(rows[0]))}, vector has dim {len(v)}")
    return _ref_vector(math.fsum(a * x for a, x in zip(row, v)) for row in rows)


def _ref_matmul(a, b):
    shape_a, shape_b = (len(a), len(a[0])), (len(b), len(b[0]))
    if shape_a[1] != shape_b[0]:
        raise DimensionMismatch(f"cannot multiply {shape_a} by {shape_b}")
    return _ref_matrix(
        [
            [math.fsum(a[i][k] * b[k][j] for k in range(shape_a[1])) for j in range(shape_b[1])]
            for i in range(shape_a[0])
        ]
    )


def _ref_scale(rows, s):
    return _ref_matrix([[s * v for v in row] for row in rows])


def _ref_split_columns(rows, n):
    if not 0 <= n <= len(rows[0]):
        raise DimensionMismatch(f"cannot split {len(rows[0])} columns at {n}")
    return Matrix(tuple(row[:n] for row in rows)).rows, Matrix(tuple(row[n:] for row in rows)).rows


def _ref_factor(rows):
    n = len(rows)
    lu = [list(row) for row in rows]
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


def _ref_det(rows):
    if len(rows) != len(rows[0]):
        raise NotSquare(f"det of a {(len(rows), len(rows[0]))} matrix")
    lu, _, sign = _ref_factor(rows)
    d = float(sign)
    for k in range(len(rows)):
        d *= lu[k][k]
    return d


def _ref_solve_factored(lu, perm, b, pivot_eps):
    n = len(lu)
    for k, row in enumerate(lu):
        if abs(row[k]) < pivot_eps:
            raise SingularMatrix(f"pivot {row[k]:g} below threshold {pivot_eps:g}")
    y = [float(b[i]) for i in perm]
    for i, row in enumerate(lu):
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


def _ref_pivot_eps(rows):
    return 1e-12 * max(_ref_hs_norm(rows), 1e-300)


def _ref_solve(rows, b):
    shape = (len(rows), len(rows[0]))
    if shape[0] != shape[1]:
        raise NotSquare(f"solve with a {shape} matrix")
    if shape[0] != len(b):
        raise DimensionMismatch(f"matrix is {shape}, rhs has dim {len(b)}")
    lu, perm, _ = _ref_factor(rows)
    return _ref_vector(_ref_solve_factored(lu, perm, b, _ref_pivot_eps(rows)))


def _ref_inverse(rows):
    n = len(rows)
    if n != len(rows[0]):
        raise NotSquare(f"inverse of a {(n, len(rows[0]))} matrix")
    lu, perm, _ = _ref_factor(rows)
    eps = _ref_pivot_eps(rows)
    cols = [
        _ref_solve_factored(lu, perm, [1.0 if i == j else 0.0 for i in range(n)], eps)
        for j in range(n)
    ]
    return _ref_matrix([[cols[j][i] for j in range(n)] for i in range(n)])


def _outcome(fn):
    """("ok", result as plain tuples) or (error type, message)."""
    try:
        out = fn()
    except (ArithmeticError, ValueError, DimensionMismatch, NotSquare, SingularMatrix) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(out, Matrix):
        out = out.rows
    elif isinstance(out, tuple) and out and isinstance(out[0], Matrix):
        out = tuple(m.rows for m in out)
    return "ok", tuple(out) if isinstance(out, (list, Vector)) else out


# zeros of both signs, subnormal and tiny entries, and magnitudes whose
# squares or products overflow (fsum raises on an intermediate overflow)
_SPECIAL = [0.0, -0.0, 5e-324, -1e-310, 1e-300, 1e-160, 1e150, -1e154, 1e200, -1.5e200, 1e300]
_entries = st.one_of(
    st.sampled_from(_SPECIAL),
    st.floats(-4.0, 4.0),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _matrices(draw, rows=None, cols=None):
    """A matrix of 1 to 6 rows and columns, every entry times one magnitude
    drawn per matrix, possibly with one row a multiple of another (singular
    up to roundoff)."""
    rows = draw(st.integers(1, 6)) if rows is None else rows
    cols = draw(st.integers(1, 6)) if cols is None else cols
    mag = draw(st.sampled_from([1.0, 1e-300, 1e-160, 1e154, 1e200]))
    data = [[v * mag for v in draw(st.lists(_entries, min_size=cols, max_size=cols))] for _ in range(rows)]
    data = [[v if math.isfinite(v) else 0.0 for v in row] for row in data]
    if rows > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(rows)))[:2]
        c = draw(st.sampled_from([1.0, -2.0, 1e-8, 3.0000000001]))
        data[i] = [c * v if math.isfinite(c * v) else 0.0 for v in data[j]]
    return tuple(tuple(row) for row in data)


def _vectors(n):
    return st.lists(_entries, min_size=n, max_size=n).map(tuple)


@settings(max_examples=200)
@given(st.data())
def test_linalg_matches_reference_bit_for_bit(data):
    a = data.draw(_matrices())
    r, c = len(a), len(a[0])
    m = Matrix(a)
    square = Matrix(data.draw(_matrices(r, r)))
    b = data.draw(_vectors(r))
    bad = data.draw(_vectors(r + 1))
    v = data.draw(_vectors(c))
    other = Matrix(data.draw(_matrices(c, data.draw(st.integers(1, 6)))))
    s = data.draw(st.one_of(st.sampled_from([-1.0, 0.0, -0.0, 1e200, 1e-300]), _entries))
    k = data.draw(st.integers(-1, c + 1))

    pairs = [
        (lambda: solve(square, b), lambda: _ref_solve(square.rows, b)),
        (lambda: solve(square, bad), lambda: _ref_solve(square.rows, bad)),
        (lambda: solve(m, v), lambda: _ref_solve(a, v)),
        (lambda: inverse(square), lambda: _ref_inverse(square.rows)),
        (lambda: inverse(m), lambda: _ref_inverse(a)),
        (lambda: det(square), lambda: _ref_det(square.rows)),
        (lambda: det(m), lambda: _ref_det(a)),
        (lambda: hs_norm(m), lambda: _ref_hs_norm(a)),
        (lambda: matvec(m, v), lambda: _ref_matvec(a, v)),
        (lambda: matvec(m, bad), lambda: _ref_matvec(a, bad)),
        (lambda: matmul(m, other), lambda: _ref_matmul(a, other.rows)),
        (lambda: matmul(m, square), lambda: _ref_matmul(a, square.rows)),
        (lambda: scale(m, s), lambda: _ref_scale(a, s)),
        (lambda: split_columns(m, k), lambda: _ref_split_columns(a, k)),
        (lambda: vec_sub(b, bad[:r]), lambda: _ref_vec_sub(b, bad[:r])),
        (lambda: vec_sub(b, bad), lambda: _ref_vec_sub(b, bad)),
    ]
    for new, ref in pairs:
        assert repr(_outcome(new)) == repr(_outcome(ref))


def test_linalg_matches_reference_on_edge_cases():
    # each error the property test must reach, a pivot exactly at the
    # threshold, and a -0.0 - -0.0 step of the forward substitution
    huge = ((1e154, 1e154), (1e154, -1e154))
    at_threshold = ((1e-12 * 1e-300,),)
    cases = [
        ("SingularMatrix", lambda: solve(Matrix(((1.0, 2.0), (2.0, 4.0))), (1.0, 1.0)),
         lambda: _ref_solve(((1.0, 2.0), (2.0, 4.0)), (1.0, 1.0))),
        # squares near 1e308 whose sum overflows: the norm stays finite
        ("ok", lambda: inverse(Matrix(huge)), lambda: _ref_inverse(huge)),
        ("OverflowError", lambda: matvec(Matrix(huge), (1e154, 1e154)),
         lambda: _ref_matvec(huge, (1e154, 1e154))),
        ("ValueError", lambda: inverse(Matrix(((1e-310,),))), lambda: _ref_inverse(((1e-310,),))),
        ("ValueError", lambda: inverse(Matrix(at_threshold)), lambda: _ref_inverse(at_threshold)),
        ("ValueError", lambda: matmul(Matrix(((1e200,),)), Matrix(((1e200,),))),
         lambda: _ref_matmul(((1e200,),), ((1e200,),))),
        ("ValueError", lambda: scale(Matrix(((1e300,),)), 1e10), lambda: _ref_scale(((1e300,),), 1e10)),
        ("NotSquare", lambda: solve(Matrix(((1.0, 2.0),)), (1.0,)),
         lambda: _ref_solve(((1.0, 2.0),), (1.0,))),
        ("DimensionMismatch", lambda: matvec(Matrix(huge), (1.0,)), lambda: _ref_matvec(huge, (1.0,))),
        ("ok", lambda: solve(Matrix(((2.0, 1.0), (1.0, 3.0))), (-0.0, -0.0)),
         lambda: _ref_solve(((2.0, 1.0), (1.0, 3.0)), (-0.0, -0.0))),
    ]
    for kind, new, ref in cases:
        outcome = _outcome(new)
        assert outcome[0] == kind
        assert repr(outcome) == repr(_outcome(ref))
