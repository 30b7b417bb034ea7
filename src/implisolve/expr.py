"""Expression parsing and exact first derivatives for small vector functions.

Grammar (whitespace insignificant, `^` is exponentiation):

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?          # right-associative
    atom   := NUMBER | NAME | NAME "(" expr ")" | "(" expr ")"

NUMBER is a decimal literal with optional fraction and exponent. NAME is a
declared variable or one of sin, cos, exp, ln, sqrt, abs. Variable names
start with a letter.

Parsed functions are immutable, and the only state a call leaves behind
is a kernel compiled on demand, which any caller may compile again with
the same result, so an ExprFunction may be shared freely across threads.
One emitter compiles the components into positional Python functions, the
kernels, each computing every component and each repeated subtree once,
one statement per operation. eval runs the value kernel. Derivatives run
the emitter's forward mode by source transformation: in place of each
value statement that depends on a variable it emits one that computes
the value, and any derivative factor, once, then one statement per
direction for the value's derivative along it as a plain float,
performing the same operations as a pass over dual numbers. The tangent
kernel carries one direction v: one pass gives the directional
derivative (jvp), and a partial is the pass along a unit vector. The
Jacobian kernel carries all n unit vectors at once, so one pass gives
every partial of every component, each equal bit for bit to its partial,
and every value, equal to eval's, which a Newton step reads from the same
pass. It is compiled on a function's second jacobian call, since a
function whose Jacobian is read once, as at a build's seed, gains nothing
from it. All are exact to roundoff. A power calls math.pow inline, under a
test on its base that keeps the helper's results: a base other than zero
under a nonzero integer literal, a positive base otherwise; other bases,
and zero exponents, call the helper. Each kernel finishes its call: it
tests every output finite and returns the Vector or Matrix its method
returns (the Jacobian kernel with the values beside it), or None. The tree
walker over dual numbers stays as the reference semantics, and where a
kernel returns None or raises, it computes the result or locates the
failure.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from . import dual
from .dual import Dual, DomainViolation
from .errors import (
    DimensionMismatch,
    DomainError,
    ExprSyntaxError,
    UnknownIdentifier,
)
from .linalg import Matrix, Vector

FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt", "abs")

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_NUM_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")

# Deepest nesting parse accepts, counted two ways: parenthesized groups,
# function arguments, minuses and exponents enclosing one another, and the
# depth of the tree that comes out. Every pass over a tree recurses once per
# level and the parser at most three times, so both stay well inside
# CPython's default recursion limit of 1000, with room for the m + 3 levels
# normalize's substitution adds at dependent dimension m.
MAX_DEPTH = 256
_TOO_DEEP = f"expression nested more than {MAX_DEPTH} levels deep"


# ---------------------------------------------------------------------------
# Syntax trees


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Node"


Node = Union[Const, Var, Neg, BinOp, Call]


def const(value: float) -> Node:
    """Canonical constant node; negatives become Neg(Const) so that every
    tree prints to text the parser maps back to the identical tree."""
    v = float(value)
    if v < 0.0 or (v == 0.0 and math.copysign(1.0, v) < 0.0):
        return Neg(Const(-v))
    return Const(v)


def linear_combination(offset: float, terms: Sequence[tuple[float, Node]]) -> Node:
    """offset + sum(coef * node) as a tree, keeping every term."""
    out: Node = const(offset)
    for coef, node in terms:
        out = BinOp("+", out, BinOp("*", const(coef), node))
    return out


def substitute(node: Node, mapping: Mapping[str, Node]) -> Node:
    if isinstance(node, Const):
        return node
    if isinstance(node, Var):
        return mapping.get(node.name, node)
    if isinstance(node, Neg):
        return Neg(substitute(node.operand, mapping))
    if isinstance(node, BinOp):
        return BinOp(node.op, substitute(node.left, mapping), substitute(node.right, mapping))
    return Call(node.fn, substitute(node.arg, mapping))


# ---------------------------------------------------------------------------
# Printing. Precedence: Add/Sub 1, Mul/Div 2, Neg 2.5, Pow 3, atoms 4.
# The rules below guarantee parse(format_node(t)) reproduces t exactly.

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}


def _prec(node: Node) -> float:
    if isinstance(node, (Const, Var, Call)):
        return 4
    if isinstance(node, Neg):
        return 2.5
    return _PREC[node.op]


def format_node(node: Node) -> str:
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = format_node(node.operand)
        if _prec(node.operand) <= 2:  # -(a + b), -(a * b)
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Call):
        return f"{node.fn}({format_node(node.arg)})"
    op, left, right = node.op, node.left, node.right
    ls = format_node(left)
    rs = format_node(right)
    if op in "+-":
        if _prec(left) < 1:
            ls = f"({ls})"
        if _prec(right) <= 1:  # keep left associativity on reparse
            rs = f"({rs})"
        return f"{ls} {op} {rs}"
    if op in "*/":
        if _prec(left) < 2:
            ls = f"({ls})"
        if _prec(right) <= 2:
            rs = f"({rs})"
        return f"{ls} {op} {rs}"
    # power: base must be an atom, exponent a unary
    if _prec(left) < 4:
        ls = f"({ls})"
    if _prec(right) < 2.5:
        rs = f"({rs})"
    return f"{ls}^{rs}"


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    """Recursive descent over the grammar above. expr and term share one
    method, as do unary and power, so a parenthesized group or a function
    argument costs three frames of recursion and a minus or an exponent
    one; `nesting` counts them against MAX_DEPTH."""

    def __init__(self, text: str, variables: Sequence[str]):
        self.text = text
        self.pos = 0
        self.variables = set(variables)
        self.nesting = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else "\0"

    def parse(self) -> Node:
        node = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ExprSyntaxError(
                f"unexpected trailing input '{self.text[self.pos:]}'", self.pos
            )
        if _depth(node) > MAX_DEPTH:
            raise ExprSyntaxError(_TOO_DEEP, 0)
        return node

    def _expr(self) -> Node:
        """expr and term: a sum of products, both left-associative."""
        total = None
        while True:
            product = self._unary()
            while self._peek() in "*/":
                op = self.text[self.pos]
                self.pos += 1
                product = BinOp(op, product, self._unary())
            total = product if total is None else BinOp(add, total, product)
            if self._peek() not in "+-":
                return total
            add = self.text[self.pos]
            self.pos += 1

    def _unary(self) -> Node:
        """unary and power."""
        if self.nesting == MAX_DEPTH:
            raise ExprSyntaxError(_TOO_DEEP, self.pos)
        self.nesting += 1
        if self._peek() == "-":
            self.pos += 1
            node = Neg(self._unary())
        else:
            node = self._atom()
            if self._peek() == "^":
                self.pos += 1
                node = BinOp("^", node, self._unary())
        self.nesting -= 1
        return node

    def _atom(self) -> Node:
        ch = self._peek()
        if ch == "\0":
            raise ExprSyntaxError("unexpected end of expression", self.pos)
        if ch == "(":
            self.pos += 1
            node = self._expr()
            if self._peek() != ")":
                raise ExprSyntaxError("expected ')'", self.pos)
            self.pos += 1
            return node
        m = _NUM_RE.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            return Const(float(m.group()))
        m = _NAME_RE.match(self.text, self.pos)
        if m:
            name = m.group()
            start = self.pos
            self.pos = m.end()
            if self._peek() == "(":
                if name not in FUNCTIONS:
                    raise UnknownIdentifier(name, start)
                self.pos += 1
                arg = self._expr()
                if self._peek() != ")":
                    raise ExprSyntaxError("expected ')'", self.pos)
                self.pos += 1
                return Call(name, arg)
            if name not in self.variables:
                raise UnknownIdentifier(name, start)
            return Var(name)
        raise ExprSyntaxError(f"unexpected character '{ch}'", self.pos)


# ---------------------------------------------------------------------------
# Evaluation: the kernels of one emitter, plus the tree walker that
# defines the semantics and locates failures.

# Names the kernel source calls. On floats the helpers give the same results
# and domain checks as the dual functions, without their type tests. A power
# calls math.pow itself where its base passes `_pow_guard`, and the helper
# elsewhere. Quotients are Python's `/`, whose ZeroDivisionError stands for a
# zero denominator. A kernel ends by testing its outputs finite and wrapping
# them as a Vector or Matrix.
_HELPERS = {
    "__builtins__": {},
    "_math_pow": math.pow,
    "_pow": dual._pow_float,
    "_sin": math.sin,
    "_cos": math.cos,
    "_exp": dual._exp_float,
    "_ln": dual._ln_float,
    "_sqrt": dual._sqrt_float,
    "_abs": abs,
    "_pow_pair": dual.pow_pair,
    "_pow_const_factor": dual.pow_const_factor,
    "_sqrt_factor": dual.sqrt_factor,
    "_abs_factor": dual.abs_factor,
    "_isfinite": math.isfinite,
    "_vector": Vector._unchecked,
    "_matrix": Matrix._unchecked,
}

# What a kernel raises where the tree walker raises DomainViolation:
# ValueError is math.sin and math.cos of an infinite intermediate,
# ZeroDivisionError a quotient by zero, and OverflowError an inline math.pow
# whose result overflows.
_KERNEL_ERRORS = (DomainViolation, ValueError, ZeroDivisionError, OverflowError)


def _children(node: Node) -> tuple:
    if isinstance(node, Neg):
        return (node.operand,)
    if isinstance(node, Call):
        return (node.arg,)
    if isinstance(node, BinOp):
        return (node.left, node.right)
    return ()


def _depth(node: Node) -> int:
    """Nodes on the longest root-to-leaf path, counted without recursion."""
    deepest = 0
    stack = [(node, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((child, depth + 1) for child in _children(node))
    return deepest


def _number(components: Sequence[Node]) -> dict:
    """Number the structurally distinct subtrees of the components: maps
    the id of each node to its class."""
    # Classes are numbered bottom-up. Memoizing by object identity keeps
    # this linear: substitution puts one object at every occurrence of a
    # variable, and a dataclass hash would walk the whole subtree again at
    # each one.
    number_of: dict = {}
    class_of: dict = {}

    def classify(node) -> int:
        c = class_of.get(id(node))
        if c is None:
            if isinstance(node, Const):
                label = repr(node.value)  # keeps 0.0 and -0.0 apart
            elif isinstance(node, Var):
                label = node.name
            elif isinstance(node, BinOp):
                label = node.op
            elif isinstance(node, Call):
                label = node.fn
            else:
                label = None
            key = (type(node), label, *map(classify, _children(node)))
            c = class_of[id(node)] = number_of.setdefault(key, len(number_of))
        return c

    for component in components:
        classify(component)
    return class_of


def _literal(node: Const) -> str:
    text = repr(node.value)
    return "1e999" if text == "inf" else text


def _pow_guard(a: str, b: str, exponent: Node) -> str | None:
    """Text of the test on base a under which math.pow(a, b) gives what
    _pow_float(a, b) gives, raising OverflowError where it raises
    DomainViolation, and pow_const_factor's factor is b * a^(b - 1); None for
    a zero exponent, whose factor (None) only pow_const_factor gives."""
    if isinstance(exponent, Const):
        n = exponent.value
        if n == 0.0:
            return None
        # a finite integer literal is defined on every base, but math.pow
        # keeps the sign of -0.0 ^ 3, which _pow_float makes 0.0
        return f"{a} != 0.0" if n.is_integer() else f"{a} > 0.0"
    # a computed exponent may be non-integer or zero
    return f"{a} > 0.0 and {b} != 0.0"


def _float_op(node: Node, operands: Sequence[str]) -> str:
    """Text of node's own float operation on its operands' texts."""
    if isinstance(node, Neg):
        return f"-{operands[0]}"
    if isinstance(node, Call):
        return f"_{node.fn}({operands[0]})"
    left, right = operands
    if node.op == "^":
        guard = _pow_guard(left, right, node.right)
        if guard is None:
            return f"_pow({left}, {right})"
        return f"_math_pow({left}, {right}) if {guard} else _pow({left}, {right})"
    return f"{left} {node.op} {right}"


def _tangent_op(node: Node, v: str, f: str, operands: Sequence[tuple]) -> tuple[list, object]:
    """The tangent-mode statements of a node that contains a variable, from
    its operands' (value, tangents) texts; tangents is None where the
    operand contains no variable, else one text per direction. Returns the
    statements that set the value v, and a factor f where the rule has one,
    and the rule: a function of the operands' tangents along one direction
    giving that direction's tangent text, or the tuple of tangents where
    they pass through unchanged. Value and factor are computed once for
    every direction. The statements and a rule's text perform the float
    operations of the Dual method or dual function for this mix of
    operands, in the same order; a power whose exponent varies branches on
    each direction's exponent tangent, so its pair rule runs per direction."""
    if isinstance(node, Neg):
        ((x, _),) = operands
        return [f"{v} = -{x}"], lambda dx: f"-{dx}"
    if isinstance(node, Call):
        ((x, _),) = operands
        if node.fn == "sin":
            return [f"{v}, {f} = _sin({x}), _cos({x})"], lambda dx: f"{f} * {dx}"
        if node.fn == "cos":
            return [f"{v}, {f} = _cos({x}), -_sin({x})"], lambda dx: f"{f} * {dx}"
        if node.fn == "exp":
            return [f"{v} = _exp({x})"], lambda dx: f"{v} * {dx}"
        if node.fn == "ln":
            return [f"{v} = _ln({x})"], lambda dx: f"{dx} / {x}"
        if node.fn == "sqrt":
            return [f"{v}, {f} = _sqrt_factor({x})"], lambda dx: f"{dx} / {f}"
        return [f"{v}, {f} = _abs_factor({x})"], lambda dx: f"{f} * {dx}"
    (a, da), (b, db) = operands
    op = node.op
    if op == "^":
        if db is None:
            helper = f"_pow_const_factor({a}, {b})"
            guard = _pow_guard(a, b, node.right)
            if guard is not None:
                fast = f"(_math_pow({a}, {b}), {b} * _math_pow({a}, {b} - 1.0))"
                helper = f"{fast} if {guard} else {helper}"
            return (
                [f"{v}, {f} = {helper}"],
                lambda da, _: f"0.0 if {f} is None else {f} * {da}",
            )
        return (
            [f"{v} = _pow({a}, {b})"],
            lambda da, db: f"_pow_pair({a}, {da or '0.0'}, {b}, {db})[1]",
        )
    value = [f"{v} = {a} {op} {b}"]
    if op == "/":
        if db is None:
            return value, lambda da, _: f"{da} / {b}"
        # a constant numerator is Dual(a, 0.0)
        return value, lambda da, db: f"({da or '0.0'} - {v} * {db}) / {b}"
    if op == "*":
        if da is None:
            return value, lambda _, db: f"{db} * {a}"  # Dual.__rmul__
        if db is None:
            return value, lambda da, _: f"{da} * {b}"
        return value, lambda da, db: f"{a} * {db} + {da} * {b}"
    if da is not None and db is not None:
        return value, lambda da, db: f"{da} {op} {db}"
    if op == "-" and da is None:
        return value, lambda _, db: f"-{db}"  # Dual.__rsub__
    return value, da or db


def _tuple_text(texts) -> str:
    return f"({''.join(f'{t}, ' for t in texts)})"


def _kernel_source(components: Sequence[Node], variables: Sequence[str], mode: str) -> str:
    """Source of `def _k(_a0, ..., _an): ...`, whose result is finished:
    mode "value" returns the Vector of every component's value at _a. The
    tangent modes also carry derivatives, computed on floats only: mode
    "jvp" takes a direction _b0, ..., _bn and returns the Vector of each
    component's derivative along it; mode "jacobian" carries one tangent
    per variable, along the unit vectors, and returns the tuple of values
    and the Matrix whose row i is component i's n partials. Every kernel
    returns None instead where an output, a value or a tangent, a literal
    too, is not finite.

    Inputs are positional, so variable names never meet Python's. Subtrees
    are numbered, so each repeated one, within or across components, is
    computed once. Every non-leaf node gets its own statement, a float
    operation into a local `_tc`, c its class, so no expression nests. In a
    tangent mode, a node that contains a variable gets its `_tangent_op`
    statements instead: its value once, then one tangent `_dc_j` per
    direction j. A subtree with no variable carries no tangent, as a Dual
    pass leaves it a float; a component with none has tangents 0.0. Each
    statement performs the float operations a float or Dual pass does, in
    the same order, so the results equal it bit for bit, and each
    direction of the "jacobian" kernel equals the "jvp" kernel along that
    unit vector. A power calls math.pow itself where `_pow_guard` holds;
    there the helper would call it with the same arguments.
    """
    class_of = _number(components)
    n = len(variables)
    params = [f"_a{k}" for k in range(n)]
    if mode == "value":
        leaf_tangents = [None] * n
    elif mode == "jvp":
        leaf_tangents = [(f"_b{k}",) for k in range(n)]
        params += [f"_b{k}" for k in range(n)]
    else:
        leaf_tangents = [tuple("1.0" if j == k else "0.0" for j in range(n)) for k in range(n)]
    leaf_of = {name: (f"_a{k}", leaf_tangents[k]) for k, name in enumerate(variables)}
    directions = {"value": 0, "jvp": 1}.get(mode, n)
    untangled = (None,) * directions
    pair_of: dict = {}
    lines: list = []

    def emit(node) -> tuple:
        """node's value text and tangent texts."""
        if isinstance(node, Const):
            return _literal(node), None
        if isinstance(node, Var):
            return leaf_of[node.name]
        c = class_of[id(node)]
        if c in pair_of:
            return pair_of[c]
        operands = list(map(emit, _children(node)))
        v = f"_t{c}"
        # only in a tangent mode does an operand that contains a variable carry tangents
        if operands[0][1] is None and operands[-1][1] is None:
            lines.append(f"{v} = {_float_op(node, [t for t, _ in operands])}")
            pair = pair_of[c] = (v, None)
            return pair
        statements, rule = _tangent_op(node, v, f"_f{c}", operands)
        lines.extend(statements)
        if callable(rule):
            # the operands' tangents along each direction in turn
            along = zip(*[ds or untangled for _, ds in operands])
            tangents = tuple(f"_d{c}_{j}" for j in range(directions))
            lines.extend([f"{d} = {rule(*ds)}" for d, ds in zip(tangents, along)])
            rule = tangents
        pair = pair_of[c] = (v, rule)
        return pair

    pairs = [emit(component) for component in components]
    values = [v for v, _ in pairs]
    rows = [ds or ("0.0",) * directions for _, ds in pairs]
    tangents = [d for ds in rows for d in ds]
    if mode == "value":
        result = f"_vector({_tuple_text(values)})"
    elif mode == "jvp":
        result = f"_vector({_tuple_text(tangents)})"
    else:
        matrix = f"_matrix({_tuple_text(map(_tuple_text, rows))})"
        result = f"({_tuple_text(values)}, {matrix})"
    # every output once, values and tangents alike; a finite literal needs no test
    outputs = dict.fromkeys(values + tangents)
    tests = [f"_isfinite({t})" for t in outputs if t[0] == "_" or not math.isfinite(float(t))]
    if tests:
        result = f"{result} if {' and '.join(tests)} else None"
    lines.append(f"return {result}")
    return f"def _k({', '.join(params)}):\n    " + "\n    ".join(lines)


def _define(source: str):
    namespace: dict = {}
    exec(compile(source, "<kernel>", "exec"), _HELPERS, namespace)
    return namespace["_k"]


class _Located(Exception):
    def __init__(self, node: Node, reason: str):
        self.node = node
        self.reason = reason


_CALL_FNS = {
    "sin": dual.sin,
    "cos": dual.cos,
    "exp": dual.exp,
    "ln": dual.ln,
    "sqrt": dual.sqrt,
    "abs": dual.abs_,
}

_BIN_FNS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": dual.div,
    "^": dual.pow_,
}


def _walk(node: Node, env: Mapping[str, object], locate: bool = True):
    """Reference evaluator over floats or Duals, the semantics the kernels
    compile. With locate, raises _Located at the first node that leaves the
    domain or yields a non-finite value. Without, it computes exactly what
    a kernel computes: a DomainViolation propagates, and a non-finite
    intermediate passes on to be judged by the caller."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -_walk(node.operand, env, locate)
    if isinstance(node, Call):
        fn = _CALL_FNS[node.fn]
        args = (_walk(node.arg, env, locate),)
    else:
        fn = _BIN_FNS[node.op]
        args = (_walk(node.left, env, locate), _walk(node.right, env, locate))
    if not locate:
        return fn(*args)
    try:
        out = fn(*args)
    except DomainViolation as exc:
        raise _Located(node, str(exc)) from None
    if not dual.is_finite(out):
        raise _Located(node, "non-finite result (overflow)")
    return out


# ---------------------------------------------------------------------------


class ExprFunction:
    """A parsed vector-valued function of named variables.

    `variables` fixes the input order; evaluation accepts exactly that many
    real values and returns one value per component. At construction
    `_kernel_source` compiles the components into two positional Python
    functions: a value kernel for eval, and a tangent kernel, which carries
    the derivative along one direction as plain floats beside the values,
    for jvp and partial. The Jacobian kernel, which carries one tangent per
    variable and also returns the values, is compiled by the second
    jacobian call. Each kernel returns its method's finished result, or
    None where an output is not finite; there, and where a kernel raises,
    the method falls back to the walker.
    """

    __slots__ = (
        "components",
        "variables",
        "source_text",
        "_value_kernel",
        "_tangent_kernel",
        "_jacobian_kernel",
        "_units",
    )

    def __init__(
        self,
        components: Sequence[Node],
        variables: Sequence[str],
        source_text: Sequence[str] | None = None,
    ):
        self.components = tuple(components)
        self.variables = tuple(variables)
        if source_text is None:
            source_text = tuple(format_node(c) for c in self.components)
        self.source_text = tuple(source_text)
        self._value_kernel = _define(_kernel_source(self.components, self.variables, "value"))
        self._tangent_kernel = _define(_kernel_source(self.components, self.variables, "jvp"))
        n = len(self.variables)
        # the directions of partial
        self._units = tuple(tuple(float(i == j) for i in range(n)) for j in range(n))
        # None until the first jacobian call, False until the second
        self._jacobian_kernel = None

    @property
    def n_inputs(self) -> int:
        return len(self.variables)

    @property
    def n_outputs(self) -> int:
        return len(self.components)

    def texts(self) -> tuple[str, ...]:
        """Canonical textual form of each component."""
        return tuple(format_node(c) for c in self.components)

    def __repr__(self):
        return f"ExprFunction({list(self.texts())!r}, variables={list(self.variables)!r})"

    def _locate(self, i: int, env: Mapping[str, object], fallback: str) -> DomainError:
        try:
            _walk(self.components[i], env)
        except _Located as loc:
            return DomainError(loc.reason, i, format_node(loc.node))
        return DomainError(fallback, i, self.source_text[i])

    def _walk_components(self, args: Sequence) -> tuple:
        """The kernel's values from the tree walker, one component at a time
        in order; the first component that fails raises its located
        DomainError. The kernel computes shared subtrees out of component
        order, so only this walk says which component fails first."""
        env = dict(zip(self.variables, args))
        out = []
        for i, component in enumerate(self.components):
            try:
                v = _walk(component, env, locate=False)
            except (DomainViolation, ValueError) as exc:
                # ValueError: math.sin and math.cos of an infinite
                # intermediate, which the checking walk locates
                raise self._locate(i, env, str(exc)) from None
            if not dual.is_finite(v):
                raise self._locate(i, env, "non-finite result (overflow)")
            out.append(v)
        return tuple(out)

    def eval(self, p: Sequence[float]) -> Vector:
        n = len(self.variables)
        if len(p) != n:
            raise DimensionMismatch(f"function of {n} variables called with {len(p)} values")
        try:
            out = self._value_kernel(*p)
        except _KERNEL_ERRORS:
            out = None
        if out is None:
            out = Vector._unchecked(self._walk_components(p))
        return out

    def _tangent_pass(self, p: Sequence[float], v: Sequence[float]) -> Vector:
        """Derivatives from the tangent kernel at the point p along the
        direction v, whose entries are floats; where it fails, from the
        walker over Duals, which computes the same numbers and locates the
        failure."""
        try:
            out = self._tangent_kernel(*map(float, p), *v)
        except _KERNEL_ERRORS:
            out = None
        if out is None:
            seeded = [Dual(float(a), d) for a, d in zip(p, v)]
            # a component with no variable references evaluates to a plain float
            out = Vector._unchecked(
                tuple(
                    d.derivative if isinstance(d, Dual) else 0.0
                    for d in self._walk_components(seeded)
                )
            )
        return out

    def jvp(self, p: Sequence[float], v: Sequence[float]) -> Vector:
        """Exact directional derivative of every component at p along v,
        from one pass of the tangent kernel."""
        n = len(self.variables)
        if len(p) != n or len(v) != n:
            raise DimensionMismatch(
                f"function of {n} variables called with {len(p)} values "
                f"and a direction of {len(v)}"
            )
        return self._tangent_pass(p, tuple(map(float, v)))

    def partial(self, p: Sequence[float], j: int) -> Vector:
        """Exact jth partial derivative of every component at p (0-based j):
        the directional derivative along the jth unit vector."""
        n = len(self.variables)
        if not 0 <= j < n:
            raise DimensionMismatch(f"variable index {j} out of range")
        if len(p) != n:
            raise DimensionMismatch(f"function of {n} variables called with {len(p)} values")
        return self._tangent_pass(p, self._units[j])

    def jacobian(self, p: Sequence[float]) -> Matrix:
        """Rows are components, columns the partials, already floats. With
        no variables every row is empty.

        One pass of the Jacobian kernel, which computes each value once and
        carries a tangent per variable. A function whose Jacobian is read
        once, as a build reads its seed's, never compiles that kernel: the
        first call takes the column passes of partial, the second compiles
        it. Where it raises or gives a non-finite number, the column passes
        give the result or locate the DomainError."""
        n = len(self.variables)
        if len(p) != n:
            raise DimensionMismatch(f"function of {n} variables called with {len(p)} values")
        out = self._jacobian_pass(p)
        return self._jacobian_columns(p) if out is None else out[1]

    def _values_and_jacobian(self, p: Sequence[float]) -> tuple:
        """eval(p) and jacobian(p), for Newton's step: the values as a tuple
        of floats, from the same pass of the Jacobian kernel. Where that
        pass is not taken or fails, eval and then the column passes give
        them, so a failing value raises eval's DomainError."""
        n = len(self.variables)
        if len(p) != n:
            raise DimensionMismatch(f"function of {n} variables called with {len(p)} values")
        out = self._jacobian_pass(p)
        return (self.eval(p), self._jacobian_columns(p)) if out is None else out

    def _jacobian_pass(self, p: Sequence[float]) -> tuple | None:
        """The Jacobian kernel's (values, Matrix) at p, or None: on the
        first call, which only marks the kernel for compiling, and where
        the kernel raises or gives a non-finite number."""
        kernel = self._jacobian_kernel
        if kernel is None:
            self._jacobian_kernel = False
            return None
        if kernel is False:
            # idempotent, so callers racing here compile equal kernels
            source = _kernel_source(self.components, self.variables, "jacobian")
            kernel = self._jacobian_kernel = _define(source)
        try:
            return kernel(*map(float, p))
        except _KERNEL_ERRORS:
            return None

    def _jacobian_columns(self, p: Sequence[float]) -> Matrix:
        """The Jacobian from one partial pass per column, which gives the
        kernel's numbers or locates the DomainError."""
        cols = [self.partial(p, j) for j in range(len(self.variables))]
        return Matrix(tuple(zip(*cols)) if cols else ((),) * self.n_outputs)

    def substituted(
        self, mapping: Mapping[str, Node], variables: Sequence[str]
    ) -> "ExprFunction":
        """New function with variables replaced by expression trees over a
        new variable list."""
        comps = [substitute(c, mapping) for c in self.components]
        return ExprFunction(comps, variables)

    def component_function(self, i: int, variables: Sequence[str]) -> "ExprFunction":
        """Single component as a scalar function over a permuted variable list."""
        return ExprFunction((self.components[i],), variables)


def parse(text: Sequence[str] | str, variables: Sequence[str]) -> ExprFunction:
    """Parse expression strings over the declared, ordered variables. A
    parse error carries the index of the failing string as .component."""
    texts = [text] if isinstance(text, str) else list(text)
    names = list(variables)
    seen = set()
    for name in names:
        if not _NAME_RE.fullmatch(name):
            raise ValueError(f"invalid variable name {name!r}")
        if name in FUNCTIONS:
            raise ValueError(f"variable name {name!r} collides with a function")
        if name in seen:
            raise ValueError(f"duplicate variable name {name!r}")
        seen.add(name)
    components = []
    for i, t in enumerate(texts):
        try:
            components.append(_Parser(t, names).parse())
        except (ExprSyntaxError, UnknownIdentifier) as exc:
            exc.component = i
            raise
    return ExprFunction(components, names, texts)


def fresh_names(base: str, count: int, taken: Sequence[str]) -> list[str]:
    """count names of the form base1..basecount (suffixed further on
    collision with taken names)."""
    used = set(taken)
    out = []
    for i in range(1, count + 1):
        name = f"{base}{i}"
        while name in used:
            name += "_"
        used.add(name)
        out.append(name)
    return out
