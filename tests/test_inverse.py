import math

import pytest

from implisolve import (
    DimensionMismatch,
    DomainError,
    SingularMatrix,
    SolverOptions,
    build_inverse,
    parse,
)
from implisolve.linalg import inverse as mat_inverse

SQUARE_MAP = parse(["x1^2 - x2^2", "2*x1*x2"], ["x1", "x2"])


@pytest.fixture(scope="module")
def square_inverse():
    return build_inverse(SQUARE_MAP, [1.0, 1.0])


def test_linear_scalar():
    inv = build_inverse(parse(["2*x1"], ["x1"]), [0.0], SolverOptions(h0=2.0))
    assert abs(inv.invert_at((1.4,))[0] - 0.7) < 1e-10
    assert abs(inv.inverse_jacobian_at((0.3,)).rows[0][0] - 0.5) < 1e-12


def test_not_square_rejected():
    with pytest.raises(DimensionMismatch):
        build_inverse(parse(["x1*x2"], ["x1", "x2"]), [1.0, 1.0])


def test_singular_jacobian_rejected():
    with pytest.raises(SingularMatrix):
        build_inverse(SQUARE_MAP, [0.0, 0.0])


@pytest.mark.parametrize(
    "functions, p, error, message",
    [
        (["x1^2 - x2^2", "2*x1*x2"], [0.0, 0.0], SingularMatrix,
         "pivot 0 below threshold 1e-312"),
        (["x1 + x2", "2*x1 + 2*x2"], [0.0, 0.0], SingularMatrix,
         "pivot 0 below threshold 3.16228e-12"),
        (["x1^3", "x2"], [0.0, 1.0], SingularMatrix, "pivot 0 below threshold 1e-12"),
        (["x1*x2", "x1 + x2"], [1.0, 1.0], SingularMatrix, "pivot 0 below threshold 2e-12"),
        (["sqrt(x1) + x2", "x2"], [0.0, 1.0], DomainError,
         "component 0: sqrt derivative needs a positive argument in 'sqrt(x1)'"),
    ],
    ids=["square_map", "rank_one", "cube", "product_on_diagonal", "sqrt_at_edge"],
)
def test_a_degenerate_seed_is_refused_by_normalization(functions, p, error, message):
    """JF(p) is the dependent block of Phi's Jacobian at the seed, so
    normalizing Phi in build_system refuses a seed where JF(p) is singular,
    or has no value, with the error that inverting JF(p) directly raises."""
    F = parse(functions, ["x1", "x2"])
    with pytest.raises(error) as err:
        build_inverse(F, p)
    assert str(err.value) == message
    with pytest.raises(error) as err:
        mat_inverse(F.jacobian(p))
    assert str(err.value) == message


def test_exp_inverse_is_log():
    # exp has an asymmetric local range, so the dependent axis gets a wider
    # initial half-width than the independent one
    inv = build_inverse(
        parse(["exp(x)"], ["x"]), [0.0], SolverOptions(h0=0.5, h0_dep=1.25)
    )
    assert abs(inv.invert_at((1.0,))[0]) < 1e-10
    target = math.exp(0.3)
    assert abs(inv.invert_at((target,))[0] - 0.3) < 1e-9


def test_square_map_seed_query(square_inverse):
    got = square_inverse.invert_at((0.0, 2.0))
    assert max(abs(a - b) for a, b in zip(got, (1.0, 1.0))) < 1e-9
    jac = square_inverse.inverse_jacobian_at((0.0, 2.0))
    # JF(1,1) = [[2,-2],[2,2]], det 8; hand inverse [[0.25,0.25],[-0.25,0.25]]
    expected = ((0.25, 0.25), (-0.25, 0.25))
    for r1, r2 in zip(jac.rows, expected):
        for a, b in zip(r1, r2):
            assert abs(a - b) < 1e-8


def _grid(inv, count):
    lo, hi = inv.y_box()
    axes = []
    for a, b in zip(lo, hi):
        pad = 0.2 * (b - a)
        axes.append([a + pad + i * (b - a - 2 * pad) / (count - 1) for i in range(count)])
    import itertools

    return list(itertools.product(*axes))


def test_round_trips(square_inverse):
    tol = square_inverse.system.options.tol_sys
    for y in _grid(square_inverse, 4):
        x = square_inverse.invert_at(y)
        image = SQUARE_MAP.eval(x)
        assert max(abs(a - b) for a, b in zip(image, y)) <= tol
        # and back: G(F(x)) = x for the preimages just produced
        back = square_inverse.invert_at(tuple(image))
        assert max(abs(a - b) for a, b in zip(back, x)) <= 10 * tol


def test_jacobian_paths_agree(square_inverse):
    for y in _grid(square_inverse, 3):
        direct = square_inverse.inverse_jacobian_at(y)
        implicit = square_inverse.system.jacobian_at(y)
        for r1, r2 in zip(direct.rows, implicit.rows):
            for a, b in zip(r1, r2):
                assert abs(a - b) <= 1e-8


def test_chain_identity(square_inverse):
    for y in _grid(square_inverse, 3):
        x = square_inverse.invert_at(y)
        jf = SQUARE_MAP.jacobian(x)
        jg = square_inverse.inverse_jacobian_at(y)
        from implisolve import matmul

        prod = matmul(jf, jg)
        for i in range(2):
            for j in range(2):
                target = 1.0 if i == j else 0.0
                assert abs(prod.rows[i][j] - target) <= 1e-8


def test_identity_map():
    inv = build_inverse(parse(["x1", "x2"], ["x1", "x2"]), [0.2, -0.1])
    jac = inv.inverse_jacobian_at((0.2, -0.1))
    assert jac.rows == ((1.0, 0.0), (0.0, 1.0))
