import math

import pytest

from implisolve import (
    DegenerateJacobian,
    DimensionMismatch,
    Matrix,
    NoSignChange,
    RadiusUnderflow,
    identity,
    parse,
)
from implisolve.verify import (
    check_chain_rule,
    check_operator_bound,
    injectivity_radius,
    mvt_witness,
)


def test_operator_bound_identity():
    report = check_operator_bound(identity(2), trials=500)
    assert report.passed
    # every ratio for the identity is |v| / (sqrt(2) |v|)
    assert abs(report.max_ratio - 1 / math.sqrt(2)) < 1e-12


def test_operator_bound_zero_matrix_convention():
    report = check_operator_bound(Matrix.from_rows([[0.0, 0.0], [0.0, 0.0]]))
    assert report.max_ratio == 0.0
    assert report.passed


def test_operator_bound_rank_one():
    report = check_operator_bound(Matrix.from_rows([[1.0, 0.0], [0.0, 0.0]]))
    assert report.passed
    assert report.max_ratio <= 1.0


def test_operator_bound_deterministic():
    m = Matrix.from_rows([[0.3, -1.2], [0.8, 0.1]])
    assert check_operator_bound(m, rng_seed=4) == check_operator_bound(m, rng_seed=4)


def test_operator_bound_is_scale_free():
    # at 2^600 the Hilbert-Schmidt norm overflows and at 2^-600 its square
    # underflows; scaling by a power of two must not change the report
    rows = [[0.3, -1.2], [0.8, 0.1]]
    reports = [
        check_operator_bound(Matrix.from_rows([[math.ldexp(v, k) for v in r] for r in rows]))
        for k in (-600, 0, 600)
    ]
    assert reports[0] == reports[1] == reports[2]
    assert 0.0 < reports[1].max_ratio <= 1.0


def test_chain_rule_identity_composition():
    F = parse(["x1^2 - x2", "x1*x2"], ["x1", "x2"])
    report = check_chain_rule(F, identity(2), (0.0, 0.0), [(0.3, -0.4), (1.1, 0.2)])
    assert report.passed
    assert report.max_discrepancy <= 1e-12


def test_chain_rule_hand_example():
    # G(t) = F(2t, 1) = 4t^2 + 1, so JG = [8t]
    F = parse(["x1^2 + x2"], ["x1", "x2"])
    M = Matrix.from_rows([[2.0], [0.0]])
    report = check_chain_rule(F, M, (0.0, 1.0), [(0.5,), (-0.25,)])
    assert report.passed
    assert report.max_discrepancy <= 1e-12


def test_chain_rule_dimension_mismatch():
    F = parse(["x1 + x2"], ["x1", "x2"])
    with pytest.raises(DimensionMismatch):
        check_chain_rule(F, Matrix.from_rows([[1.0]]), (0.0, 0.0), [(0.1,)])


def test_mvt_witness_quadratic_midpoint():
    report = mvt_witness(parse(["x^2"], ["x"]), (0.0,), (1.0,))
    assert report.passed
    assert abs(report.t - 0.5) < 1e-10


def test_mvt_witness_affine_convention():
    report = mvt_witness(parse(["2*x + 3*y"], ["x", "y"]), (0.0, 0.0), (1.0, 2.0))
    assert report.t == 0.5
    assert report.residual == 0.0


def test_mvt_witness_cubic():
    report = mvt_witness(parse(["x^3"], ["x"]), (0.0,), (1.0,))
    # 3c^2 = 1 by hand
    assert abs(report.t - 1 / math.sqrt(3)) < 1e-8
    assert report.residual <= 1e-10


def test_mvt_witness_evaluates_g_once_per_sample():
    # g(t) takes one jvp pass; the scan, each ITP step and the final
    # residual count one sample, and nothing else evaluates g
    F = parse(["x^3 + y^2 - x*y"], ["x", "y"])
    calls = []

    class Counting:
        n_inputs, n_outputs = F.n_inputs, F.n_outputs

        def eval(self, p):
            return F.eval(p)

        def jvp(self, p, v):
            calls.append(p)
            return F.jvp(p, v)

    report = mvt_witness(Counting(), (0.0, 0.0), (1.0, 2.0), grid=64)
    assert report == mvt_witness(F, (0.0, 0.0), (1.0, 2.0), grid=64)
    assert report.samples_used > 64
    assert len(calls) == report.samples_used


def test_mvt_witness_no_sign_change_at_coarse_grid():
    # g(t) = 2*pi*cos(2*pi*t) is positive at both endpoints; a two-point
    # grid cannot see the interior dip
    F = parse(["sin(x)"], ["x"])
    with pytest.raises(NoSignChange, match="^no sign change on the scan grid"):
        mvt_witness(F, (0.0,), (2 * math.pi,), grid=2)
    report = mvt_witness(F, (0.0,), (2 * math.pi,), grid=1024)
    assert report.passed


def test_mvt_witness_jump_names_the_residual():
    # g = 3 sign(x) - 1 on x = -1 + 3t jumps across 0 at t = 1/3: the grid
    # changes sign, but no t makes g vanish
    F = parse(["abs(x)"], ["x"])
    with pytest.raises(NoSignChange) as excinfo:
        mvt_witness(F, (-1.0,), (2.0,))
    assert str(excinfo.value) == (
        "|g| = 1 at the root found, t = 0.33333333333333337, exceeds tolerance 1e-10"
    )
    assert excinfo.value.min_abs > 1e-10


def test_mvt_witness_tolerance_scales_with_gap():
    # g's terms are about 1e13 here, too large for an absolute 1e-10 bound
    F = parse(["exp(10*x)"], ["x"])
    report = mvt_witness(F, (0.0,), (3.0,))
    assert report.passed
    assert abs(report.t - math.log((math.exp(30.0) - 1.0) / 30.0) / 30.0) < 1e-12
    assert report.residual <= 1e-10 * (math.exp(30.0) - 1.0)


def test_mvt_witness_rejects_equal_endpoints():
    with pytest.raises(ValueError):
        mvt_witness(parse(["x^2"], ["x"]), (1.0,), (1.0,))


def test_injectivity_linear_returns_initial_radius():
    F = parse(["2*x1 + x2", "x1 - x2"], ["x1", "x2"])
    report = injectivity_radius(F, (0.0, 0.0), samples=200)
    assert report.radius == 0.5
    assert report.passed
    assert not report.certified


def test_injectivity_square_function_one_dim():
    # derivative 2 xi keeps one sign only for radii below 1 around p = 1
    F = parse(["x1^2"], ["x1"])
    report = injectivity_radius(F, (1.0,), samples=500)
    assert 0 < report.radius < 1.0
    assert report.passed


def test_injectivity_complex_square_map():
    F = parse(["x1^2 - x2^2", "2*x1*x2"], ["x1", "x2"])
    report = injectivity_radius(F, (1.0, 1.0), samples=500)
    assert report.radius > 0.0
    assert report.passed


def test_injectivity_degenerate_jacobian():
    F = parse(["x1^2"], ["x1"])
    with pytest.raises(DegenerateJacobian):
        injectivity_radius(F, (0.0,))


def test_injectivity_radius_underflow():
    # near-degenerate point: every radius above the floor still straddles 0
    F = parse(["x1^2"], ["x1"])
    with pytest.raises(RadiusUnderflow):
        injectivity_radius(F, (1e-9,), samples=200)


def test_injectivity_deterministic():
    F = parse(["x1^2 - x2^2", "2*x1*x2"], ["x1", "x2"])
    a = injectivity_radius(F, (1.0, 1.0), samples=100, rng_seed=3)
    b = injectivity_radius(F, (1.0, 1.0), samples=100, rng_seed=3)
    assert a == b
