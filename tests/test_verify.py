import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from implisolve import (
    DegenerateJacobian,
    DimensionMismatch,
    Matrix,
    NoSignChange,
    RadiusUnderflow,
    identity,
    parse,
)
from implisolve import verify
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
    assert report.certified


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


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_injectivity_refuses_a_non_finite_base_determinant(monkeypatch, bad):
    """det JF(p) that is not finite is refused before any radius is
    sampled: 1e200*x1, 1e200*x2 overflows it to inf, and a det made nan
    stands for the rest."""
    F = parse(["1e200*x1", "1e200*x2"], ["x1", "x2"])
    if math.isnan(bad):
        monkeypatch.setattr(verify, "det", lambda m: bad)
    else:
        assert verify.det(F.jacobian((0.0, 0.0))) == math.inf

    def sampled(*args):
        raise AssertionError("sampled a radius")

    monkeypatch.setattr(verify, "_sampled_min_det", sampled)
    with pytest.raises(DegenerateJacobian, match=rf"^det JF\(p\) = {bad:g}$"):
        injectivity_radius(F, (0.0, 0.0))


def test_injectivity_radius_underflow(monkeypatch):
    """Near-degenerate point: every radius above the floor still straddles
    0, so no box certifies, and the sampled fallback underflows too."""
    F = parse(["x1^2"], ["x1"])
    certify = verify._certified_min_det
    tried = []

    def spy(F, p, r):
        tried.append(r)
        return certify(F, p, r)

    monkeypatch.setattr(verify, "_certified_min_det", spy)
    with pytest.raises(RadiusUnderflow):
        injectivity_radius(F, (1e-9,), samples=200)
    assert tried == [0.5 / 2**k for k in range(len(tried))]
    assert verify.MIN_RADIUS <= tried[-1] < 2 * verify.MIN_RADIUS


def test_injectivity_square_map_certifies_short_of_its_critical_point(monkeypatch):
    """det JF = 4 |x|^2 vanishes at the origin, at distance 1 from
    p = (1, 0): the box of half-width 0.5 reaches det 0 in interval
    arithmetic, so the certified radius is below 1, and no larger than
    the radius the sampled fallback accepts there."""
    F = parse(["x1^2 - x2^2", "2*x1*x2"], ["x1", "x2"])
    report = injectivity_radius(F, (1.0, 0.0), samples=500)
    assert report.certified and report.passed
    assert (report.radius, report.halvings) == (0.25, 1)
    assert 0.0 < report.min_det_magnitude <= 4.0
    monkeypatch.setattr(verify, "_certified_min_det", lambda F, p, r: None)
    sampled = injectivity_radius(F, (1.0, 0.0), samples=500)
    assert sampled.passed and not sampled.certified
    assert report.radius <= sampled.radius


def test_injectivity_deterministic():
    F = parse(["x1^2 - x2^2", "2*x1*x2"], ["x1", "x2"])
    a = injectivity_radius(F, (1.0, 1.0), samples=100, rng_seed=3)
    b = injectivity_radius(F, (1.0, 1.0), samples=100, rng_seed=3)
    assert a == b


def test_injectivity_halves_past_points_that_fail_to_evaluate():
    """x1^3 overflows beyond 5.6e102: a sampled point there fails the
    radius, which halves, instead of ending the check."""
    F = parse(["x1 + 1e-300*x1^3"], ["x1"])
    report = injectivity_radius(F, (0.0,), r0=1e200, samples=50)
    assert report.passed
    assert 0.0 < report.radius < 5.6e102
    assert report.halvings > 300


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_injectivity_non_finite_determinant_fails_the_radius(monkeypatch, bad):
    """A linear map with det 3 everywhere, whose first sampled determinant
    is made non-finite: that radius fails, and the next one passes. The
    certificate, which would prove r0 at once, is made to fail."""
    F = parse(["2*x1 + x2", "x2 - x1"], ["x1", "x2"])
    monkeypatch.setattr(verify, "_certified_min_det", lambda F, p, r: None)
    dets = []
    plain = verify.det

    def first_sample_bad(m):
        dets.append(m)
        # call 1 is det JF(p), call 2 the first sampled determinant
        return bad if len(dets) == 2 else plain(m)

    monkeypatch.setattr(verify, "det", first_sample_bad)
    report = injectivity_radius(F, (0.0, 0.0), samples=20)
    assert report.passed
    assert (report.radius, report.halvings, report.min_det_magnitude) == (0.25, 1, 3.0)


# A quadratic map of (x1, x2): per component, coefficients of these terms
_TERMS = ("1", "x1", "x2", "x1^2", "x1*x2", "x2^2")


def _exact_value(c, x):
    x1, x2 = x
    return c[0] + c[1] * x1 + c[2] * x2 + c[3] * x1 * x1 + c[4] * x1 * x2 + c[5] * x2 * x2


def _exact_gradient(c, x):
    x1, x2 = x
    return c[1] + 2 * c[3] * x1 + c[4] * x2, c[2] + c[4] * x1 + 2 * c[5] * x2


def _exact_det(rows):
    (a, b), (c, d) = rows
    return a * d - b * c


@given(
    coeffs=st.lists(
        st.lists(st.integers(-4, 4), min_size=6, max_size=6), min_size=2, max_size=2
    ),
    quadratic=st.booleans(),
    p=st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
    rng_seed=st.integers(0, 2**32 - 1),
)
def test_certified_box_holds_lemma_4_exactly(coeffs, quadratic, p, rng_seed):
    """On random 2 x 2 affine and quadratic maps, wherever the certificate
    holds at r, every mixed-row matrix sampled in the box [p - r, p + r]
    (corners included) has a determinant of the sign of det JF(p) and of
    magnitude at least the proven bound, and no two distinct sampled
    points share an image. Gradients, determinants and images are
    computed exactly, with Fractions, at the sampled float points."""
    if not quadratic:
        coeffs = [c[:3] + [0, 0, 0] for c in coeffs]
    F = parse(
        [" + ".join(f"({k})*{t}" for k, t in zip(c, _TERMS)) for c in coeffs], ["x1", "x2"]
    )
    p = tuple(v / 4 for v in p)
    d0 = _exact_det([_exact_gradient(c, [Fraction(v) for v in p]) for c in coeffs])
    assume(d0 != 0)
    r = 1.0
    while (bound := verify._certified_min_det(F, p, r)) is None:
        r /= 2
        if r < 2**-12:
            return

    rng = random.Random(rng_seed)

    def box_point():
        return [Fraction(rng.choice((v - r, v + r, rng.uniform(v - r, v + r)))) for v in p]

    for _ in range(50):
        d = _exact_det([_exact_gradient(c, box_point()) for c in coeffs])
        assert d * d0 > 0
        assert abs(d) >= bound
    for _ in range(50):
        a, b = box_point(), box_point()
        if a != b:
            assert [_exact_value(c, a) for c in coeffs] != [_exact_value(c, b) for c in coeffs]
