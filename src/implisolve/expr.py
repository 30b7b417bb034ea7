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

Parsed functions are immutable and evaluation keeps no state between
calls, so an ExprFunction may be shared freely across threads. At
construction the components are compiled into one kernel: a positional
Python function that returns every component and computes each repeated
subtree once. eval runs it over floats. Derivatives run it over dual
numbers: one forward pass seeded with a direction v gives the directional
derivative (jvp), a partial is the pass along a unit vector, and both are
exact to roundoff.
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
    def __init__(self, text: str, variables: Sequence[str]):
        self.text = text
        self.pos = 0
        self.variables = set(variables)

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
        return node

    def _expr(self) -> Node:
        node = self._term()
        while self._peek() in "+-":
            op = self.text[self.pos]
            self.pos += 1
            node = BinOp(op, node, self._term())
        return node

    def _term(self) -> Node:
        node = self._unary()
        while self._peek() in "*/":
            op = self.text[self.pos]
            self.pos += 1
            node = BinOp(op, node, self._unary())
        return node

    def _unary(self) -> Node:
        if self._peek() == "-":
            self.pos += 1
            return Neg(self._unary())
        return self._power()

    def _power(self) -> Node:
        base = self._atom()
        if self._peek() == "^":
            self.pos += 1
            return BinOp("^", base, self._unary())
        return base

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
# Evaluation: one compiled kernel per function, plus the tree walker that
# defines the semantics and locates failures.

# Helpers the kernel source calls. The float set gives the same results and
# domain checks as the dual set does on floats, without its type tests.
_FLOAT_HELPERS = {
    "__builtins__": {},
    "_div": dual._div_float,
    "_pow": dual._pow_float,
    "_sin": math.sin,
    "_cos": math.cos,
    "_exp": dual.exp,
    "_ln": dual.ln,
    "_sqrt": dual._sqrt_float,
    "_abs": abs,
}

_DUAL_HELPERS = {
    "__builtins__": {},
    "_div": dual.div,
    "_pow": dual.pow_,
    "_sin": dual.sin,
    "_cos": dual.cos,
    "_exp": dual.exp,
    "_ln": dual.ln,
    "_sqrt": dual.sqrt,
    "_abs": dual.abs_,
}


def _children(node: Node) -> tuple:
    if isinstance(node, Neg):
        return (node.operand,)
    if isinstance(node, Call):
        return (node.arg,)
    if isinstance(node, BinOp):
        return (node.left, node.right)
    return ()


def _kernel_source(components: Sequence[Node], variables: Sequence[str]) -> str:
    """Source of `def _k(_a0, ..., _an): ...; return (c0, c1, ...)`.

    Inputs are positional, so variable names never meet Python's. Every
    non-leaf subtree that occurs more than once, within or across
    components, is computed once into a local `_tk`.
    """
    # Number the structurally distinct subtrees bottom-up. Memoizing by
    # object identity keeps this linear: substitution puts one object at
    # every occurrence of a variable, and a dataclass hash would walk the
    # whole subtree again at each one.
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

    # occurrences, not descending into a subtree already counted
    uses = [0] * len(number_of)

    def count(node):
        c = class_of[id(node)]
        uses[c] += 1
        if uses[c] == 1:
            for child in _children(node):
                count(child)

    for component in components:
        count(component)

    params = [f"_a{k}" for k in range(len(variables))]
    arg_of = dict(zip(variables, params))
    local_of: dict = {}
    lines = [f"def _k({', '.join(params)}):"]

    def src(node) -> str:
        if isinstance(node, Const):
            text = repr(node.value)
            return "1e999" if text == "inf" else text
        if isinstance(node, Var):
            return arg_of[node.name]
        c = class_of[id(node)]
        if c in local_of:
            return local_of[c]
        if isinstance(node, Neg):
            text = f"(-{src(node.operand)})"
        elif isinstance(node, Call):
            text = f"_{node.fn}({src(node.arg)})"
        elif node.op == "/":
            text = f"_div({src(node.left)}, {src(node.right)})"
        elif node.op == "^":
            text = f"_pow({src(node.left)}, {src(node.right)})"
        else:
            text = f"({src(node.left)} {node.op} {src(node.right)})"
        if uses[c] == 1:
            return text
        name = local_of[c] = f"_t{len(local_of)}"
        lines.append(f"    {name} = {text}")
        return name

    outputs = "".join(f"{src(component)}, " for component in components)
    lines.append(f"    return ({outputs})")
    return "\n".join(lines)


def _define(code, helpers: dict):
    namespace: dict = {}
    exec(code, helpers, namespace)
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
    real values and returns one value per component. The components are
    compiled at construction into one kernel, run over floats by eval and
    over dual numbers by jvp and partial.
    """

    __slots__ = ("components", "variables", "source_text", "_float_kernel", "_dual_kernel")

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
        code = compile(
            _kernel_source(self.components, self.variables), "<kernel>", "exec"
        )
        self._float_kernel = _define(code, _FLOAT_HELPERS)
        self._dual_kernel = _define(code, _DUAL_HELPERS)

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

    def _run(self, kernel, args: Sequence, finite) -> tuple:
        n = len(self.variables)
        if len(args) != n:
            raise DimensionMismatch(f"function of {n} variables called with {len(args)} values")
        try:
            out = kernel(*args)
        except (DomainViolation, ValueError):
            # ValueError: math.sin and math.cos of an infinite intermediate
            pass
        else:
            if all(map(finite, out)):
                return out
        return self._walk_components(args)

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
            except DomainViolation as exc:
                raise self._locate(i, env, str(exc)) from None
            if not dual.is_finite(v):
                raise self._locate(i, env, "non-finite result (overflow)")
            out.append(v)
        return tuple(out)

    def eval(self, p: Sequence[float]) -> Vector:
        return Vector._unchecked(self._run(self._float_kernel, p, math.isfinite))

    def jvp(self, p: Sequence[float], v: Sequence[float]) -> Vector:
        """Exact directional derivative of every component at p along v,
        from one forward pass over dual numbers seeded with v."""
        n = len(self.variables)
        if len(p) != n or len(v) != n:
            raise DimensionMismatch(
                f"function of {n} variables called with {len(p)} values "
                f"and a direction of {len(v)}"
            )
        seeded = [Dual(float(a), float(d)) for a, d in zip(p, v)]
        # a component with no variable references evaluates to a plain float
        return Vector._unchecked(
            tuple(
                d.derivative if isinstance(d, Dual) else 0.0
                for d in self._run(self._dual_kernel, seeded, dual.is_finite)
            )
        )

    def partial(self, p: Sequence[float], j: int) -> Vector:
        """Exact jth partial derivative of every component at p (0-based j):
        the directional derivative along the jth unit vector."""
        n = len(self.variables)
        if not 0 <= j < n:
            raise DimensionMismatch(f"variable index {j} out of range")
        direction = [0.0] * n
        direction[j] = 1.0
        return self.jvp(p, direction)

    def jacobian(self, p: Sequence[float]) -> Matrix:
        cols = [self.partial(p, j) for j in range(self.n_inputs)]
        return Matrix.from_rows(
            [[cols[j][i] for j in range(self.n_inputs)] for i in range(self.n_outputs)]
        )

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
    """Parse expression strings over the declared, ordered variables."""
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
    components = [_Parser(t, names).parse() for t in texts]
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
