import math

import pytest
from hypothesis import example, given, strategies as st

from implisolve import (
    DimensionMismatch,
    DomainError,
    ExprSyntaxError,
    UnknownIdentifier,
    parse,
)
from implisolve.dual import DomainViolation, Dual, is_finite
from implisolve.expr import (
    BinOp,
    Call,
    Const,
    ExprFunction,
    Neg,
    Var,
    _children,
    _Located,
    _walk,
    const,
    format_node,
    linear_combination,
    substitute,
)
from implisolve.expr import _Parser


def test_parse_eval_circle_points():
    F = parse(["x^2 + y^2 - 1"], ["x", "y"])
    assert F.eval((0.0, 1.0))[0] == 0.0
    # 0.36 + 0.64 - 1 by hand arithmetic, up to float rounding
    assert abs(F.eval((0.6, 0.8))[0]) < 1e-15


def test_parse_single_string_convenience():
    F = parse("x + 1", ["x"])
    assert F.eval((2.0,))[0] == 3.0


def test_parse_syntax_error_has_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse(["x +"], ["x"])
    assert err.value.position == 3


def test_parse_unknown_variable():
    with pytest.raises(UnknownIdentifier) as err:
        parse(["x*z"], ["x", "y"])
    assert err.value.name == "z"


def test_parse_unknown_function():
    with pytest.raises(UnknownIdentifier):
        parse(["tan(x)"], ["x"])


def test_parse_rejects_bad_variable_declarations():
    with pytest.raises(ValueError):
        parse(["x"], ["x", "x"])
    with pytest.raises(ValueError):
        parse(["sin(x)"], ["sin", "x"])
    with pytest.raises(ValueError):
        parse(["x"], ["2bad"])


@pytest.mark.parametrize(
    "text,value",
    [
        ("2^3^2", 512.0),  # right-associative power
        ("-2^2", -4.0),
        ("(1+2)*4", 12.0),
        ("6/3/2", 1.0),
        ("2 - -3", 5.0),
        ("2^-1", 0.5),
        ("1.5e2 + .5", 150.5),
        ("abs(-3)", 3.0),
    ],
)
def test_precedence_and_literals(text, value):
    assert parse([text], ["x"]).eval((0.0,))[0] == value


def test_eval_identity_and_arity():
    F = parse(["x", "y"], ["x", "y"])
    assert tuple(F.eval((3.0, 4.0))) == (3.0, 4.0)
    # inputs are positional, so Python keywords are ordinary variable names
    assert tuple(parse(["if - lambda"], ["if", "lambda"]).eval((3.0, 1.0))) == (2.0,)
    with pytest.raises(DimensionMismatch):
        F.eval((1.0,))


def test_domain_error_reports_component_and_subexpression():
    F = parse(["x", "ln(x)"], ["x"])
    with pytest.raises(DomainError) as err:
        F.eval((-1.0,))
    assert err.value.component == 1
    assert err.value.subexpr == "ln(x)"

    with pytest.raises(DomainError):
        parse(["1/x"], ["x"]).eval((0.0,))
    with pytest.raises(DomainError):
        parse(["sqrt(x)"], ["x"]).eval((-4.0,))
    with pytest.raises(DomainError):
        parse(["x^0.5"], ["x"]).eval((-4.0,))
    with pytest.raises(DomainError):
        parse(["exp(x)"], ["x"]).eval((1000.0,))


def test_partial_examples():
    F = parse(["x^2 + y^2 - 1"], ["x", "y"])
    assert F.partial((0.6, 0.8), 1)[0] == 1.6  # 2y by hand
    assert F.partial((0.6, 0.8), 0)[0] == 1.2
    assert parse(["x"], ["x"]).partial((7.0,), 0)[0] == 1.0
    assert parse(["sin(x)"], ["x"]).partial((0.0,), 0)[0] == 1.0


def test_jacobian_examples():
    F = parse(["x + y", "x - y"], ["x", "y"])
    assert F.jacobian((2.0, 5.0)).rows == ((1.0, 1.0), (1.0, -1.0))
    circle = parse(["x^2 + y^2 - 1"], ["x", "y"])
    assert circle.jacobian((0.6, 0.8)).rows == ((1.2, 1.6),)
    ident = parse(["x", "y", "z"], ["x", "y", "z"])
    assert ident.jacobian((1.0, 2.0, 3.0)).rows == (
        (1.0, 0.0, 0.0),
        (0.0, 1.0, 0.0),
        (0.0, 0.0, 1.0),
    )


def test_jacobian_columns_equal_partials_bitwise():
    F = parse(
        ["x*y - sin(x)*exp(y)", "x^3 + y/(x + 2)"], ["x", "y"]
    )
    p = (0.37, -0.81)
    jac = F.jacobian(p)
    for j in range(2):
        col = F.partial(p, j)
        for i in range(2):
            assert jac.rows[i][j] == col[i]


def test_substituted_matches_manual_composition():
    F = parse(["u^2 + v"], ["u", "v"])
    G = F.substituted(
        {"u": BinOp("+", Var("s"), Const(1.0)), "v": BinOp("*", Const(2.0), Var("s"))},
        ["s"],
    )
    for s in (-0.5, 0.0, 1.25):
        assert abs(G.eval((s,))[0] - ((s + 1) ** 2 + 2 * s)) < 1e-14


# --- dual numbers ----------------------------------------------------------


def test_dual_product_rule_is_exact():
    a, b, c, d = 1.25, -0.5, 3.0, 0.75
    prod = Dual(a, b) * Dual(c, d)
    assert prod.value == a * c
    assert prod.derivative == a * d + b * c


def test_dual_through_elementary_functions():
    F = parse(["sin(x)*exp(x)"], ["x"])
    x = 0.7
    expected = math.cos(x) * math.exp(x) + math.sin(x) * math.exp(x)
    assert abs(F.partial((x,), 0)[0] - expected) < 1e-15


def test_abs_derivative_zero_at_kink():
    F = parse(["abs(x)"], ["x"])
    assert F.partial((0.0,), 0)[0] == 0.0
    assert F.partial((2.0,), 0)[0] == 1.0
    assert F.partial((-2.0,), 0)[0] == -1.0


def test_sqrt_derivative_rejected_at_zero():
    F = parse(["sqrt(x)"], ["x"])
    assert F.eval((0.0,))[0] == 0.0
    with pytest.raises(DomainError):
        F.partial((0.0,), 0)


def test_negative_base_integer_exponent():
    F = parse(["x^3"], ["x"])
    assert F.eval((-2.0,))[0] == -8.0
    assert F.partial((-2.0,), 0)[0] == 12.0


# --- property tests --------------------------------------------------------

_VARS = ("u", "v")


@st.composite
def poly_trees(draw):
    """Sums of monomials c * u^i * v^j with |c| <= 10 and total degree <= 3."""
    n_terms = draw(st.integers(1, 4))
    tree = None
    for _ in range(n_terms):
        c = draw(st.floats(-10, 10, allow_nan=False, width=32))
        i = draw(st.integers(0, 3))
        j = draw(st.integers(0, 3 - i))
        term = const(c)
        if i:
            term = BinOp("*", term, BinOp("^", Var("u"), Const(float(i))))
        if j:
            term = BinOp("*", term, BinOp("^", Var("v"), Const(float(j))))
        tree = term if tree is None else BinOp("+", tree, term)
    return tree


@given(poly_trees(), st.floats(-1, 1), st.floats(-1, 1), st.integers(0, 1))
def test_partial_matches_central_differences(tree, u, v, j):
    F = ExprFunction([tree], _VARS)
    h = 1e-5
    p = (u, v)
    exact = F.partial(p, j)[0]
    plus = list(p)
    minus = list(p)
    plus[j] += h
    minus[j] -= h
    fd = (F.eval(tuple(plus))[0] - F.eval(tuple(minus))[0]) / (2 * h)
    assert abs(exact - fd) < 1e-7


_general_leaves = st.one_of(
    st.builds(const, st.floats(-4, 4, allow_nan=False, width=32)),
    st.sampled_from([Var(n) for n in _VARS]),
)


def _extend(children):
    binop = st.sampled_from(["+", "-", "*", "/"])
    return st.one_of(
        st.builds(BinOp, binop, children, children),
        st.builds(Neg, children),
        st.builds(
            Call, st.sampled_from(["sin", "cos", "exp", "ln", "sqrt", "abs"]), children
        ),
        st.builds(
            lambda b, e: BinOp("^", b, Const(float(e))), children, st.integers(0, 3)
        ),
    )


general_trees = st.recursive(_general_leaves, _extend, max_leaves=10)


@given(general_trees)
def test_print_parse_round_trip(tree):
    text = format_node(tree)
    reparsed = _Parser(text, _VARS).parse()
    assert reparsed == tree
    assert format_node(reparsed) == text


def _derivative(d):
    return d.derivative if isinstance(d, Dual) else 0.0


def _walked(F, env, part=lambda value: value):
    """Each component walked in order, as the kernel computes it (only the
    result must be finite): the values, or the first failure located by the
    checking walk."""
    out = []
    for i, component in enumerate(F.components):
        try:
            value = _walk(component, env, locate=False)
            reason = None if is_finite(value) else "non-finite result (overflow)"
        except DomainViolation as exc:
            reason = str(exc)
        if reason is None:
            out.append(part(value))
            continue
        try:
            _walk(component, env)
        except _Located as loc:
            return ("error", loc.reason, i, format_node(loc.node))
        return ("error", reason, i, F.source_text[i])
    return ("ok", tuple(out))


def _outcome(call):
    try:
        return ("ok", tuple(call()))
    except DomainError as err:
        return ("error", err.reason, err.component, err.subexpr)


def _largest_partial(component, env, j):
    """max |d s / d var_j| over the subtrees s of component: the scale of
    the rounding a pass along any direction picks up on the way."""
    seeded = {
        name: Dual(value, 1.0 if k == j else 0.0)
        for k, (name, value) in enumerate(env.items())
    }
    stack, largest = [component], 0.0
    while stack:
        node = stack.pop()
        stack.extend(_children(node))
        largest = max(largest, abs(_derivative(_walk(node, seeded, locate=False))))
    return largest


@st.composite
def _functions(draw):
    """One to three components over (u, v). Half of them have u and v
    replaced by affine combinations of u and v, as normalize substitutes,
    so that components share subtrees."""
    trees = draw(st.lists(general_trees, min_size=1, max_size=3))
    if draw(st.booleans()):
        coef = st.floats(-2, 2, allow_nan=False, width=32)
        mapping = {
            name: linear_combination(
                draw(coef),
                [(draw(coef), BinOp("-", Var(w), const(draw(coef)))) for w in _VARS],
            )
            for name in _VARS
        }
        trees = [substitute(t, mapping) for t in trees]
    return ExprFunction(trees, _VARS)


_SHARED_OVERFLOW = parse(
    ["exp(exp(v + 4)) * exp(exp(v + 4))", "ln(u) + exp(exp(v + 4))"], _VARS
)


# directions stay clear of the subnormal range, where a pass along v loses
# relative precision that the unit-vector passes keep
_directions = st.one_of(st.just(0.0), st.floats(1e-3, 2), st.floats(-2, -1e-3))


# component 0 overflows to inf, and component 1, which shares its exp
# subtree, raises: the error must still name component 0
@example(_SHARED_OVERFLOW, -1.0, 1.9, 1.0, 1.0)
@given(_functions(), st.floats(-2, 2), st.floats(-2, 2), _directions, _directions)
def test_compiled_eval_matches_tree_walker(F, u, v, du, dv):
    env = {"u": u, "v": v}
    p = (u, v)
    assert _outcome(lambda: F.eval(p)) == _walked(F, env)

    partials = []
    for j in range(2):
        seeded = {"u": Dual(u, 1.0 if j == 0 else 0.0), "v": Dual(v, 1.0 if j == 1 else 0.0)}
        partial = _outcome(lambda: F.partial(p, j))
        assert partial == _walked(F, seeded, _derivative)
        partials.append(partial)

    seeded = {"u": Dual(u, du), "v": Dual(v, dv)}
    jvp = _outcome(lambda: F.jvp(p, (du, dv)))
    assert jvp == _walked(F, seeded, _derivative)
    if jvp[0] != "ok" or any(partial[0] != "ok" for partial in partials):
        return
    for i, component in enumerate(F.components):
        combined = du * partials[0][1][i] + dv * partials[1][1][i]
        scale = sum(
            abs(d) * _largest_partial(component, env, j)
            for j, d in enumerate((du, dv))
            if d
        )
        assert abs(jvp[1][i] - combined) <= 1e-12 * scale
