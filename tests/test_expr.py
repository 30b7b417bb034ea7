import math
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, strategies as st

from implisolve import (
    DimensionMismatch,
    DomainError,
    ExprSyntaxError,
    SplitPoint,
    UnknownIdentifier,
    build_system,
    kernels,
    parse,
)
from implisolve.dini import normalize
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
from implisolve.expr import MAX_DEPTH, _Parser
from implisolve.inverse import build_inverse
from implisolve.kernels import (
    _CACHE_SIZE,
    _cache_info,
    _compile,
    _kernel_source,
    _number,
)


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

    # an infinite intermediate that sin or a negative base's power meets
    # is reported where it arises
    # (in a derivative pass, 1/x already overflows its tangent)
    for text in ("sin(1/x * (1/x))", "(-2)^(1/x * (1/x))"):
        F = parse([text], ["x"])
        for call, subexpr in (
            (F.eval, "1 / x * (1 / x)"),
            (lambda p: F.partial(p, 0), "1 / x"),
        ):
            with pytest.raises(DomainError) as err:
                call((1e-200,))
            assert err.value.reason == "non-finite result (overflow)"
            assert err.value.subexpr == subexpr


def test_error_text_prints_integral_literals_as_integers():
    """x1^2 reads x1^2 in a located error and in repr, not x1^2.0."""
    F = parse(["x1^2 + exp(x2)*3"], ["x1", "x2"])
    assert repr(F) == "ExprFunction(['x1^2 + exp(x2) * 3'], variables=['x1', 'x2'])"
    with pytest.raises(DomainError) as err:
        F.eval((1e200, 0.0))
    assert err.value.subexpr == "x1^2"
    assert str(err.value) == "component 0: overflow in power in 'x1^2'"


def test_literal_infinite_component_is_located():
    # a component that is the literal 1e999 has no operation to overflow,
    # so only the test of the kernel's outputs finds it
    F = parse(["1e999", "u"], ["u", "v"])
    p = (0.5, 0.25)
    for call in (
        F.eval,
        lambda p: F.partial(p, 0),
        lambda p: F.jvp(p, (1.0, 0.0)),
        F.jacobian,  # the Jacobian kernel, which partial made
        F.jacobian,  # the same kernel, called again
    ):
        with pytest.raises(DomainError) as err:
            call(p)
        assert err.value.component == 0
        assert err.value.subexpr == "1e999"


def test_jvp_of_no_variables():
    # one derivative per component, all 0.0, as jacobian gives empty rows
    F = parse(["1", "2"], [])
    assert tuple(F.jvp((), ())) == (0.0, 0.0)
    for _ in range(2):  # the Jacobian kernel, made by the first call
        assert F.jacobian(()).rows == ((), ())
    with pytest.raises(DomainError) as err:
        parse(["1e999"], []).jvp((), ())
    assert err.value.component == 0
    assert err.value.subexpr == "1e999"


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


def test_deeply_nested_sum_compiles():
    # the kernels give every operation a statement of its own, so no source
    # line nests; written as one expression, 250 nested operations would
    # exceed CPython's limit of 200 nested parentheses
    sum_text = " + ".join(["y"] * 250) + " - 250"
    F = parse([sum_text], ["x", "y"])
    assert tuple(F.eval((0.5, 1.0))) == (0.0,)
    assert tuple(F.eval((0.5, 1.5))) == (125.0,)
    assert tuple(F.jvp((0.5, 1.5), (2.0, 1.0))) == (250.0,)
    assert tuple(F.partial((0.5, 1.5), 0)) == (0.0,)

    # a chain of each other node kind, one level short of MAX_DEPTH in the
    # tree and in the parser's nesting, computes what the tree walker does
    deepest = MAX_DEPTH - 1
    chains = [
        sum_text,
        " * ".join(["y"] * deepest),
        "sin(" * deepest + "y" + ")" * deepest,
        "-" * deepest + "y",
        "^".join(["y"] * deepest),
    ]
    p, direction = (0.5, 1.001), (2.0, -1.5)
    env = {"x": p[0], "y": p[1]}
    for text in chains:
        G = parse([text], ["x", "y"])
        value = _outcome(lambda: G.eval(p))
        assert value[0] == "ok"
        assert repr(value) == repr(_walked(G, env))
        for j in range(2):
            seeded = {name: Dual(v, float(k == j)) for k, (name, v) in enumerate(env.items())}
            partial = _outcome(lambda: G.partial(p, j))
            assert repr(partial) == repr(_walked(G, seeded, _derivative))
        seeded = {name: Dual(v, d) for (name, v), d in zip(env.items(), direction)}
        jvp = _outcome(lambda: G.jvp(p, direction))
        assert jvp[0] == "ok" and jvp[1][0] != 0.0
        assert repr(jvp) == repr(_walked(G, seeded, _derivative))


def test_parse_rejects_nesting_beyond_max_depth():
    # a tree of MAX_DEPTH levels parses; one more is refused by the tree check
    F = parse([" + ".join(["y"] * (MAX_DEPTH - 1)) + " - 1"], ["y"])
    assert tuple(F.eval((2.0,))) == (2.0 * (MAX_DEPTH - 1) - 1,)
    with pytest.raises(ExprSyntaxError, match="nested more than"):
        parse([" + ".join(["y"] * MAX_DEPTH) + " - 1"], ["y"])
    # nesting that adds no tree depth is refused before the parser recurses
    # past the limit, at the operand one level too deep
    deepest = MAX_DEPTH - 1
    assert parse(["(" * deepest + "y" + ")" * deepest], ["y"]).texts() == ("y",)
    for text in ("(" * MAX_DEPTH + "y" + ")" * MAX_DEPTH, "-" * MAX_DEPTH + "y"):
        with pytest.raises(ExprSyntaxError, match="nested more than") as err:
            parse([text], ["y"])
        assert err.value.position == MAX_DEPTH


def test_jvp_int_inputs_equal_float_inputs():
    F = parse(["x^y + 1/x - 2^y", "sqrt(x)*ln(y)", "abs(y - x)^3"], ["x", "y"])
    assert tuple(F.jvp((2, 3), (1, -1))) == tuple(F.jvp((2.0, 3.0), (1.0, -1.0)))
    assert tuple(F.partial((2, 3), 1)) == tuple(F.partial((2.0, 3.0), 1))


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
            lambda b, e: BinOp("^", b, const(e)),
            children,
            st.one_of(st.integers(0, 3).map(float), st.sampled_from([0.5, -1.0, -1.5, 2.5])),
        ),
        st.builds(lambda b, e: BinOp("^", b, e), children, children),
    )


general_trees = st.recursive(_general_leaves, _extend, max_leaves=10)


@given(general_trees)
# the largest integer printed without ".0", and the first printed with it
@example(BinOp("^", Var("u"), const(2.0**53 - 1)))
@example(BinOp("^", Var("u"), const(2.0**53)))
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
        except (DomainViolation, ValueError) as exc:
            # ValueError: math.sin or math.cos of an infinite intermediate
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


def _values_and_rows(F, p):
    values, jacobian = F._values_and_jacobian(p)
    return tuple(values), jacobian.rows


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


def _mix(text):
    return parse([text], _VARS)


# component 0 overflows to inf, and component 1, which shares its exp
# subtree, raises: the error must still name component 0
@example(_SHARED_OVERFLOW, -1.0, 1.9, 1.0, 1.0)
# each mix of variable and constant operands of -, / and ^; 0/u has a zero
# quotient, where (0.0 - q*b')/b and -(q*b')/b differ in sign
@example(_mix("u - v"), 0.7, -1.2, 1.0, -0.5)
@example(_mix("u - 2"), 0.7, -1.2, 1.0, -0.5)
@example(_mix("2 - u"), 0.7, -1.2, 1.0, -0.5)
@example(_mix("u / v"), 0.7, -1.2, 1.0, -0.5)
@example(_mix("u / 7"), 0.7, -1.2, 0.3, -0.5)
@example(_mix("0 / u"), 0.7, -1.2, 1.0, -0.5)
@example(_mix("u ^ v"), 0.7, -1.2, 1.0, -0.5)
@example(_mix("u ^ -1.5"), 0.7, -1.2, 1.0, -0.5)
@example(_mix("2 ^ u"), 0.7, -1.2, 1.0, -0.5)
# a varying exponent whose direction is 0 takes the constant-exponent rule
@example(_mix("(-2) ^ v"), 0.7, 3.0, 1.0, 0.0)
# zero bases, where the power rule's derivative is exactly 0.0, the base's
# tangent itself, or undefined; (-u) ^ 2 has base tangents -1.0 and -0.0
@example(_mix("u ^ 2"), 0.0, -1.2, 1.0, -0.5)
@example(_mix("u ^ 1"), 0.0, -1.2, 1.0, -0.5)
@example(_mix("sqrt(u)"), 0.0, -1.2, 1.0, -0.5)
@example(_mix("(-u) ^ 2"), 0.0, -1.2, 1.0, -0.5)
# the edges of the kernels' inline math.pow: -0.0 ^ 3 is 0.0, not -0.0; an
# overflowing power is located; zero exponents and zero bases take the
# helper, as does a negative base under a non-integer exponent
@example(_mix("u ^ 3"), -0.0, -1.2, 1.0, -0.5)
@example(_mix("u ^ 2"), 1e200, -1.2, 1.0, -0.5)
@example(_mix("u ^ 0"), 0.0, -1.2, 1.0, -0.5)
@example(_mix("u ^ -1"), 0.0, -1.2, 1.0, -0.5)
@example(_mix("u ^ 0.5"), -1.0, -1.2, 1.0, -0.5)
@example(_mix("(u - v) ^ 3"), 0.7, 0.7, 1.0, -0.5)
# ln(u) is finite and its partial 1/u overflows, so the Jacobian kernel
# gives None: partial along v is still the finite column, and partial along
# u and jacobian raise the DomainError located at ln(u)
@example(_mix("ln(u) + v"), 1e-310, 0.5, 1.0, 0.0)
@given(_functions(), st.floats(-2, 2), st.floats(-2, 2), _directions, _directions)
def test_compiled_eval_matches_tree_walker(F, u, v, du, dv):
    # compared by repr, which tells 0.0 from -0.0
    env = {"u": u, "v": v}
    p = (u, v)
    assert repr(_outcome(lambda: F.eval(p))) == repr(_walked(F, env))

    partials = []
    for j in range(2):
        seeded = {"u": Dual(u, 1.0 if j == 0 else 0.0), "v": Dual(v, 1.0 if j == 1 else 0.0)}
        partial = _outcome(lambda: F.partial(p, j))
        assert repr(partial) == repr(_walked(F, seeded, _derivative))
        partials.append(partial)

    # the Jacobian kernel, made by the first partial and reused since,
    # gives the columns' numbers, or the DomainError of the first column
    # that fails
    failed = [partial for partial in partials if partial[0] != "ok"]
    columns = failed[0] if failed else ("ok", tuple(zip(*(c for _, c in partials))))
    for _ in range(2):
        assert repr(_outcome(lambda: F.jacobian(p).rows)) == repr(columns)

    # a Newton step reads the values from the same Jacobian kernel pass:
    # they equal eval's, whose DomainError comes first where the values
    # fail. A fresh function makes its own kernel from the cached code.
    evaluated = _outcome(lambda: F.eval(p))
    if evaluated[0] != "ok":
        combined = evaluated
    elif columns[0] != "ok":
        combined = columns
    else:
        combined = ("ok", (evaluated[1], columns[1]))
    fresh = ExprFunction(F.components, F.variables)
    for G in (F, fresh, fresh):
        assert repr(_outcome(lambda: _values_and_rows(G, p))) == repr(combined)

    seeded = {"u": Dual(u, du), "v": Dual(v, dv)}
    jvp = _outcome(lambda: F.jvp(p, (du, dv)))
    assert repr(jvp) == repr(_walked(F, seeded, _derivative))
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


# --- the kernel cache ------------------------------------------------------


def _scaled_constants(node, factor):
    """node with every finite literal but a power's exponent multiplied by
    factor: the same kernel shape with new constants. factor keeps
    distinct width-32 literals distinct, so no subtrees merge or split."""
    if isinstance(node, Const):
        return Const(node.value * factor) if math.isfinite(node.value) else node
    if isinstance(node, Var):
        return node
    if isinstance(node, Neg):
        return Neg(_scaled_constants(node.operand, factor))
    if isinstance(node, Call):
        return Call(node.fn, _scaled_constants(node.arg, factor))
    right = node.right
    if node.op != "^" or not isinstance(right, Const):
        right = _scaled_constants(right, factor)
    return BinOp(node.op, _scaled_constants(node.left, factor), right)


_MODES = ("value", "jacobian", "interval")


def _sources(F):
    """The sources emitting gives F's kernels, from a numbering of its own."""
    key = _number(F.components, F.variables)[0]
    return [_kernel_source(key, mode) for mode in _MODES]


def _codes(F):
    """The code of F's three kernels, once F has made them: one code object
    per factory, which every kernel the factory makes shares."""
    p = (0.5, 0.25, 2.0, 1.5)[: F.n_inputs]
    _outcome(lambda: F.jacobian(p).rows)
    F.enclosure(p, p)
    return (F._value_kernel.__code__, F._jacobian_kernel.__code__, F._interval_kernel.__code__)


def _share_factories(F, G):
    return all(f is g for f, g in zip(_codes(F), _codes(G)))


def test_one_shape_shares_one_factory():
    first = parse(["3.25 * u * v + sin(u - 0.125) - 7.5"], _VARS)
    before = _cache_info()
    second = parse(["1.5 * u * v + sin(u - 2.75) - 0.25"], _VARS)
    after = _cache_info()
    # the value kernel, the one a parse makes, comes from the cache
    assert (after["hits"] - before["hits"], after["misses"] - before["misses"]) == (1, 0)
    first.partial((0.5, 2.0), 0)
    before = _cache_info()
    second.partial((0.5, 2.0), 0)
    after = _cache_info()
    # and so does the Jacobian kernel, which the first partial makes
    assert (after["hits"] - before["hits"], after["misses"] - before["misses"]) == (1, 0)
    assert _sources(first) == _sources(second)
    assert first._shape == second._shape
    assert _share_factories(first, second)
    assert first._value_kernel is not second._value_kernel
    p = (0.5, 2.0)
    assert tuple(first.eval(p)) == (3.25 * 0.5 * 2.0 + math.sin(0.5 - 0.125) - 7.5,)
    assert tuple(second.eval(p)) == (1.5 * 0.5 * 2.0 + math.sin(0.5 - 2.75) - 0.25,)
    assert first.jacobian(p).rows != second.jacobian(p).rows
    assert first.jacobian(p).rows == tuple(zip(first.partial(p, 0), first.partial(p, 1)))
    assert second.jacobian(p).rows == tuple(zip(second.partial(p, 0), second.partial(p, 1)))


def _const_times_u(value):
    return ExprFunction([BinOp("*", Var("u"), Const(value))], ["u"])


def _u_plus_twice(first, second):
    """(u + first) * (u + second), with the literals as given."""
    return ExprFunction(
        [BinOp("*", BinOp("+", Var("u"), Const(first)), BinOp("+", Var("u"), Const(second)))],
        _VARS,
    )


@pytest.mark.parametrize(
    "make_f,make_g,shared",
    [
        # a variable where the other has a constant
        (lambda: _mix("u + v"), lambda: _mix("u + 0.0"), False),
        # equal constants merge the two sums into one subtree
        (lambda: _mix("(u + 1) * (u + 1)"), lambda: _mix("(u + 1) * (u + 2)"), False),
        (lambda: _mix("(u + 1) * (u + 2)"), lambda: _mix("(u + 3) * (u + 4)"), True),
        # constants that merge no subtree need not be equal to share
        (lambda: _mix("u * 1 + v * 1"), lambda: _mix("u * 1 + v * 2"), True),
        # exponent literals are read by the power's guard
        (lambda: _mix("u ^ 2"), lambda: _mix("u ^ 3"), False),
        (lambda: _mix("u ^ 2"), lambda: _mix("u ^ 0"), False),
        (lambda: _mix("u ^ 3"), lambda: _mix("u ^ 0"), False),
        (lambda: _mix("2 ^ u"), lambda: _mix("3 ^ u"), True),
        # signed zeros: one source as constants, but a merge only of equal reprs
        (lambda: _const_times_u(0.0), lambda: _const_times_u(-0.0), True),
        (lambda: _u_plus_twice(0.0, 0.0), lambda: _u_plus_twice(0.0, -0.0), False),
        (lambda: _u_plus_twice(0.0, -0.0), lambda: _u_plus_twice(1.0, 2.0), True),
        # a non-finite literal stays in the source
        (lambda: _mix("u * 1e999"), lambda: _mix("u * 2.5"), False),
        (lambda: _mix("u * 1e999"), lambda: _mix("u * 1e999"), True),
        # one set of components over the variables in either order
        (
            lambda: parse(["u - 2 * v", "sin(v)"], _VARS),
            lambda: parse(["u - 2 * v", "sin(v)"], ("v", "u")),
            False,
        ),
        (lambda: parse(["u - v"], ("u", "v", "w")), lambda: _mix("u - v"), False),
    ],
    ids=[
        "variable_vs_constant",
        "merged_sums_vs_two_sums",
        "two_sums",
        "unmerged_equal_constants",
        "exponent_2_vs_3",
        "exponent_2_vs_0",
        "exponent_3_vs_0",
        "constant_base",
        "signed_zero_factor",
        "signed_zeros_merge_apart",
        "signed_zero_sums",
        "infinite_vs_finite",
        "infinite_twice",
        "variables_swapped",
        "three_variables_vs_two",
    ],
)
def test_functions_share_a_factory_exactly_when_their_sources_match(make_f, make_g, shared):
    F, G = make_f(), make_g()
    assert _share_factories(F, G) == (_sources(F) == _sources(G)) == shared
    assert (F._shape == G._shape) == shared


def test_cache_keeps_signed_zeros_apart():
    # one source, since the constant is a kernel default, and each function
    # computes with its own zero
    plus = _const_times_u(0.0)
    minus = _const_times_u(-0.0)
    assert _sources(plus) == _sources(minus)
    for F, zero in ((plus, "0.0"), (minus, "-0.0")):
        assert repr(tuple(F.eval((1.0,)))) == f"({zero},)"
        assert repr(tuple(F.partial((1.0,), 0))) == f"({zero},)"
        assert repr(F.jacobian((1.0,)).rows) == f"(({zero},),)"


def test_exponent_literals_stay_in_the_source():
    # _pow_guard branches on a literal exponent, so each one is its own shape
    sources = [_sources(parse([f"u ^ {e}"], _VARS)) for e in ("2", "2.5", "(1 + 1)")]
    for mode in range(3):
        assert len({source[mode] for source in sources}) == 3


def test_infinite_literal_is_located_from_a_warm_cache():
    for _ in range(2):
        F = parse(["u * 1e999", "v"], _VARS)
        assert all("1e999" in source for source in _sources(F))
        for call in (F.eval, lambda p: F.partial(p, 0), F.jacobian):
            with pytest.raises(DomainError) as err:
                call((0.5, 0.25))
            assert (err.value.component, err.value.subexpr) == (0, "u * inf")
        assert F.enclosure((0.0, 0.0), (1.0, 1.0)) is None


def test_kernel_cache_is_bounded():
    # a literal exponent makes each function a new shape
    parse(["u ^ 3.5"], _VARS).jacobian((0.5, 0.25))
    for k in range(_CACHE_SIZE + 8):
        parse([f"u ^ {k + 4}"], _VARS)
        parse(["u ^ 3.5"], _VARS)  # a hit, so this shape goes out last
    info = _cache_info()
    assert info["maxsize"] == _CACHE_SIZE
    assert info["currsize"] <= _CACHE_SIZE
    before = info["misses"]
    parse(["u ^ 3.5"], _VARS).jacobian((0.5, 0.25))
    assert _cache_info()["misses"] == before


_factors = st.one_of(st.floats(0.25, 4), st.floats(-4, -0.25))


# a component that is a bare constant takes its slot after the others'
@example(parse(["2.5", "u * 3 - 1.5 * v", "0.75"], _VARS), 2.0, 0.5, 0.25, 0.125)
@given(_functions(), _factors, st.floats(-2, 2), st.floats(-2, 2), st.floats(0, 0.5))
def test_warm_cache_kernels_match_tree_walker(F, factor, u, v, halfwidth):
    """A function of a shape whose kernels are cached computes with its own
    constants: eval, partial and jacobian equal the tree walker's, and the
    enclosure holds them."""
    # F makes all three kernels, which G then finds cached
    _outcome(lambda: F.eval((u, v)))
    _outcome(lambda: F.jacobian((u, v)).rows)
    F.enclosure((u, v), (u, v))
    G = ExprFunction([_scaled_constants(c, factor) for c in F.components], F.variables)
    before = _cache_info()["misses"]
    p = (u, v)
    env = {"u": u, "v": v}
    assert repr(_outcome(lambda: G.eval(p))) == repr(_walked(G, env))
    partials = []
    for j in range(2):
        seeded = {"u": Dual(u, float(j == 0)), "v": Dual(v, float(j == 1))}
        partial = _outcome(lambda: G.partial(p, j))
        assert repr(partial) == repr(_walked(G, seeded, _derivative))
        partials.append(partial)
    failed = [partial for partial in partials if partial[0] != "ok"]
    columns = failed[0] if failed else ("ok", tuple(zip(*(c for _, c in partials))))
    assert repr(_outcome(lambda: G.jacobian(p).rows)) == repr(columns)

    lo, hi = (u - halfwidth, v - halfwidth), (u + halfwidth, v + halfwidth)
    enclosed = G.enclosure(lo, hi)
    assert _cache_info()["misses"] == before  # every kernel was warm
    if enclosed is None or failed or _outcome(lambda: G.eval(p))[0] != "ok":
        return
    values, rows = enclosed
    for value, (low, high) in zip(G.eval(p), values):
        assert low <= value <= high
    for row, enclosed_row in zip(G.jacobian(p).rows, rows):
        for partial, (low, high) in zip(row, enclosed_row):
            assert low <= partial <= high


def _made(kernel, args):
    """A kernel's result at args by repr, or the type of what it raised."""
    try:
        return repr(kernel(*args))
    except Exception as exc:
        return type(exc).__name__


def _assert_hit_path_equals_emitting(F, points, boxes):
    """F's kernels, made by the cached factories of its shape, equal the
    kernels that emitting F's own source and compiling it afresh make: the
    factories were emitted from the key F's numbering gives, so from the
    same source, and F calls them with the constants that source names,
    which give the same results at every point and box."""
    key, constants = _number(F.components, F.variables)
    assert F._shape == key
    assert repr(F._constants) == repr(constants)
    _codes(F)
    made = {
        "value": (F._value_kernel, points),
        "jacobian": (F._jacobian_kernel, points),
        "interval": (F._interval_kernel, [tuple(zip(lo, hi)) for lo, hi in boxes]),
    }
    for mode, (kernel, inputs) in made.items():
        defaults = [(c, c) for c in constants] if mode == "interval" else constants
        fresh = _compile(key, mode)(*defaults)
        for args in inputs:
            assert _made(kernel, args) == _made(fresh, args)


@given(_functions(), _factors, st.floats(-2, 2), st.floats(-2, 2), st.floats(0, 0.5))
def test_kernels_from_the_cache_equal_kernels_emitted_afresh(F, factor, u, v, halfwidth):
    """A function of a cached shape shares its factories, its constants
    fill the slots its twin's fill, each scaled by the factor, and its
    kernels equal those emitted from its own source."""
    G = ExprFunction([_scaled_constants(c, factor) for c in F.components], F.variables)
    assert G._shape == F._shape
    assert _share_factories(F, G)
    assert repr(G._constants) == repr(tuple(c * factor for c in F._constants))
    box = ((u - halfwidth, v - halfwidth), (u + halfwidth, v + halfwidth))
    _assert_hit_path_equals_emitting(G, [(u, v), (0.0, -0.0)], [box])


def _quad_pair_functions(x0):
    """quad_pair at x0 on its curve y1 = y2 = y: the parsed function, its
    normalization and the first component that level 1 solves."""
    y = (math.sqrt(4.0 * x0 + 5.0) - 1.0) / 2.0
    F = parse(["y1^2 + y2 - x - 1", "y1 + y2^2 - x - 1"], ["x", "y1", "y2"])
    G = normalize(F, SplitPoint.of([x0], [y, y]))[0]
    return (x0, y, y), (F, G, G.component_function(0, ["z2", "x", "z1"]))


def _square_map_functions(r, theta):
    """The square map's inverse problem at p = r (cos theta, sin theta), as
    build_inverse poses it: phi, its normalization and the first component."""
    F = parse(["x1^2 - x2^2", "2*x1*x2"], ["x1", "x2"])
    p = (r * math.cos(theta), r * math.sin(theta))
    q = tuple(F.eval(p))
    phi = ExprFunction(
        [BinOp("-", F.components[i], Var(f"y{i + 1}")) for i in range(2)],
        ["y1", "y2", "x1", "x2"],
    )
    G = normalize(phi, SplitPoint.of(q, p))[0]
    return q + p, (phi, G, G.component_function(0, ["y1", "y2", "z2", "z1"]))


@given(
    st.floats(0.5, 1.5),
    st.floats(0.5, 1.5),
    st.tuples(st.floats(0.8, 1.2), st.floats(-0.6, 0.6)),
    st.tuples(st.floats(0.8, 1.2), st.floats(-0.6, 0.6)),
    st.floats(0, 0.1),
)
def test_reseeded_systems_take_their_kernels_from_the_cache(x0, x1, first, second, halfwidth):
    """Re-seeding quad_pair along its curve and the square map's inverse
    over its base points derives the same trees with new constants: a
    function of a shape built before shares its factories, and its
    kernels equal those emitted from its own source."""
    reseeded = ((_quad_pair_functions, (x0,), (x1,)), (_square_map_functions, first, second))
    for make, old_seed, new_seed in reseeded:
        _, before = make(*old_seed)
        seed, after = make(*new_seed)
        for F, G in zip(before, after):
            assert _share_factories(F, G) == (G._shape == F._shape)
            n = G.n_inputs
            point = (seed * 2)[:n] if G is after[-1] else seed[:n]
            lo = tuple(a - halfwidth for a in point)
            hi = tuple(a + halfwidth for a in point)
            _assert_hit_path_equals_emitting(G, [point, lo], [(lo, hi)])


def test_threads_through_a_full_cache_get_the_sequential_results():
    """Eight threads parse shapes new to a full cache, with thread switches
    forced often: their compiles, evictions and counts race, and every
    result equals the sequential one."""
    texts = [f"(u + {k}) ^ {k + 2} * sin(v - {k}) + v ^ 2 / (1 + u * u)" for k in range(64)]
    p, lo, hi = (0.25, 0.5), (0.25, 0.5), (0.5, 0.75)

    def results(text):
        F = parse([text, "u * v"], _VARS)
        return repr((F.eval(p), F.jacobian(p), F.partial(p, 1), F.enclosure(lo, hi)))

    sequential = [results(text) for text in texts]
    # shapes enough to fill the cache push out every shape above
    for k in range(_CACHE_SIZE):
        parse([f"u ^ {k + 0.5}"], _VARS)
    before = _cache_info()
    assert before["currsize"] == _CACHE_SIZE
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            concurrent = list(pool.map(results, texts * 2, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert concurrent == sequential * 2
    after = _cache_info()
    assert after["currsize"] == _CACHE_SIZE
    # three kernels a function, none of them lost from the counts
    requests = after["hits"] + after["misses"] - before["hits"] - before["misses"]
    assert requests == 3 * len(texts) * 2


def test_a_second_reseeded_build_emits_no_kernel_source(monkeypatch):
    """Once a re-seeded quad_pair build and a square-map inverse have run,
    another of each finds every kernel's factory cached: the emitter is
    not called."""
    emitted = []

    def counted(key, mode):
        emitted.append(mode)
        return _kernel_source(key, mode)

    monkeypatch.setattr(kernels, "_kernel_source", counted)
    quad = ["y1^2 + y2 - x - 1", "y1 + y2^2 - x - 1"]
    square = ["x1^2 - x2^2", "2*x1*x2"]
    # at these seeds the normalizations merge the same subtrees; where the
    # rounding of J^-1 makes equal entries differ, a new shape is emitted
    for x0, p in ((0.8, (1.0, 0.2)), (1.0, (0.95, 0.3))):
        emitted.clear()
        y = (math.sqrt(4.0 * x0 + 5.0) - 1.0) / 2.0
        build_system(parse(quad, ["x", "y1", "y2"]), SplitPoint.of([x0], [y, y]))
        build_inverse(parse(square, ["x1", "x2"]), p)
    assert emitted == []


def test_source_text_is_formatted_on_first_read(monkeypatch):
    """A function made without texts formats none when it is built;
    source_text formats them once, as texts() does, and a parsed function
    keeps the strings it was parsed from."""
    from implisolve import expr

    formatted = []

    def counted(node):
        formatted.append(node)
        return format_node(node)

    monkeypatch.setattr(expr, "format_node", counted)
    F = parse(["x*y+1", "ln(x)"], ["x", "y"])
    G = F.substituted({"y": BinOp("-", Var("z"), const(2.0))}, ["x", "z"])
    assert formatted == []
    assert F.source_text == ("x*y+1", "ln(x)")
    assert formatted == []
    assert G.source_text == ("x * (z - 2) + 1", "ln(x)")
    first_read = len(formatted)
    assert first_read > 0
    assert G.source_text == G.texts()
    # the second read formats nothing; texts() formats afresh
    assert len(formatted) == 2 * first_read
