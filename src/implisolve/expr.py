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

Parsed functions are immutable: construction makes everything a call
reads, and no call writes to the function, so an ExprFunction may be
shared freely across threads. The kernels that evaluate and
differentiate the components come from the one emitter of kernels.py,
whose compiled factories one functools.lru_cache keeps by shape, the
constants being kernel defaults; a function numbers its trees once and
takes its three kernels with one lookup. The tree walker over dual
numbers here is the reference semantics they compile, and where a kernel
returns None or raises, it computes the result or locates the failure.
jvp, whose direction need not be a unit vector, runs on the walker alone.
enclosure runs the interval kernel, which bounds every value and partial
over a box.
"""

from __future__ import annotations

import math
import operator
import re
from typing import Mapping, Sequence

from . import dual
from .dual import Dual, DomainViolation
from .errors import (
    DimensionMismatch,
    DomainError,
    ExprSyntaxError,
    UnknownIdentifier,
)
from .kernels import _KERNEL_ERRORS, _kernels, _number
from .linalg import Matrix, Vector
# the syntax trees, also imported from here by the rest of the package
from .nodes import (
    BinOp,
    Call,
    Const,
    Neg,
    Node,
    Var,
    _children,
    const,
    linear_combination,
    substitute,
)

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
        v = node.value
        # an integral literal prints as an integer, x^2 and not x^2.0; below
        # 2^53 in magnitude it is exact, so it parses back to the same float
        if v.is_integer() and abs(v) < 2.0**53:
            return repr(v)[:-2]
        return repr(v)
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


def _depth(node: Node) -> int:
    """Nodes on the longest root-to-leaf path, counted without recursion."""
    deepest = 0
    stack = [(node, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((child, depth + 1) for child in _children(node))
    return deepest


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
# Evaluation: the tree walker, which defines the kernels' semantics and
# locates their failures.


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
    real values and returns one value per component. Construction raises
    ValueError where `variables` repeats a name or a component reads a
    variable not among them, whichever way the function is made. One
    numbering pass over the components gives the key of their shape in
    the kernel cache and their constants, from which `_kernels` makes the
    function's three kernels, positional Python functions, at
    construction: the value kernel for eval; the Jacobian kernel, which
    carries one tangent per variable as plain floats beside the values,
    for partial, which reads its column, and jacobian; and the interval
    kernel, which carries intervals where the Jacobian kernel carries
    floats, for enclosure. Each float kernel returns its method's finished
    result, or None where an output is not finite; there, and where a
    kernel raises, the method falls back to the walker, which partial and
    jvp run along their one direction only. The constants are kernel
    defaults, so a function of a shape built before writes no source and
    pays no compile. Nothing writes to a function once it is built.
    """

    __slots__ = (
        "components",
        "variables",
        "_source_text",
        "_value_kernel",
        "_jacobian_kernel",
        "_interval_kernel",
    )

    def __init__(
        self,
        components: Sequence[Node],
        variables: Sequence[str],
        source_text: Sequence[str] | None = None,
    ):
        self.components = tuple(components)
        self.variables = tuple(variables)
        if len(set(self.variables)) < len(self.variables):
            name = next(v for k, v in enumerate(self.variables) if v in self.variables[:k])
            raise ValueError(f"duplicate variable name {name!r}")
        # None where the function was not parsed: source_text formats it
        self._source_text = None if source_text is None else tuple(source_text)
        shape, constants = _number(self.components, self.variables)
        self._value_kernel, self._jacobian_kernel, self._interval_kernel = _kernels(
            shape, constants
        )

    @property
    def n_inputs(self) -> int:
        return len(self.variables)

    @property
    def n_outputs(self) -> int:
        return len(self.components)

    @property
    def source_text(self) -> tuple[str, ...]:
        """Each component's text: the strings it was parsed from, or else
        texts(), formatted on each read."""
        return self.texts() if self._source_text is None else self._source_text

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
        """Derivatives at the point p along the direction v, whose entries
        are floats, from the walker over Duals, which computes the numbers
        a kernel column along v computes and locates any failure."""
        seeded = [Dual(float(a), d) for a, d in zip(p, v)]
        # a component with no variable references evaluates to a plain float
        return Vector._unchecked(
            tuple(
                d.derivative if isinstance(d, Dual) else 0.0
                for d in self._walk_components(seeded)
            )
        )

    def jvp(self, p: Sequence[float], v: Sequence[float]) -> Vector:
        """Exact directional derivative of every component at p along v,
        from one pass of the walker over Duals."""
        n = len(self.variables)
        if len(p) != n or len(v) != n:
            raise DimensionMismatch(
                f"function of {n} variables called with {len(p)} values "
                f"and a direction of {len(v)}"
            )
        return self._tangent_pass(p, tuple(map(float, v)))

    def partial(self, p: Sequence[float], j: int) -> Vector:
        """Exact jth partial derivative of every component at p (0-based j):
        column j of the Jacobian kernel's pass. Where that pass raises or
        gives a non-finite number, the walker along the jth unit vector
        gives the column, which may be finite where another is not, or
        locates the DomainError."""
        n = len(self.variables)
        if not 0 <= j < n:
            raise DimensionMismatch(f"variable index {j} out of range")
        if len(p) != n:
            raise DimensionMismatch(f"function of {n} variables called with {len(p)} values")
        out = self._jacobian_pass(p)
        if out is None:
            return self._tangent_pass(p, tuple(float(i == j) for i in range(n)))
        return Vector._unchecked(tuple(row[j] for row in out[1].rows))

    def jacobian(self, p: Sequence[float]) -> Matrix:
        """Rows are components, columns the partials, already floats. With
        no variables every row is empty.

        One pass of the Jacobian kernel, made at construction, which
        computes each value once and carries a tangent per variable. Where
        it raises or gives a non-finite number, the walker's column passes
        give the result or locate the DomainError."""
        n = len(self.variables)
        if len(p) != n:
            raise DimensionMismatch(f"function of {n} variables called with {len(p)} values")
        out = self._jacobian_pass(p)
        return self._jacobian_columns(p) if out is None else out[1]

    def _values_and_jacobian(self, p: Sequence[float]) -> tuple:
        """eval(p) and jacobian(p), for the chord iteration's predictor in
        SystemSolution._newton: the values as a tuple of floats, from the
        same pass of the Jacobian kernel. Where that pass fails, eval and
        then the column passes give them, so a failing value raises
        eval's DomainError."""
        n = len(self.variables)
        if len(p) != n:
            raise DimensionMismatch(f"function of {n} variables called with {len(p)} values")
        out = self._jacobian_pass(p)
        return (self.eval(p), self._jacobian_columns(p)) if out is None else out

    def _jacobian_pass(self, p: Sequence[float]) -> tuple | None:
        """The pass at p of the Jacobian kernel made at construction:
        (values, Matrix), or None where it raises or gives a non-finite number."""
        try:
            return self._jacobian_kernel(*map(float, p))
        except _KERNEL_ERRORS:
            return None

    def _jacobian_columns(self, p: Sequence[float]) -> Matrix:
        """The Jacobian from one walker pass per column, which gives the
        kernel's numbers or locates the DomainError."""
        n = len(self.variables)
        cols = [self._tangent_pass(p, tuple(float(i == j) for i in range(n))) for j in range(n)]
        return Matrix(tuple(zip(*cols)) if cols else ((),) * self.n_outputs)

    def enclosure(self, lo: Sequence[float], hi: Sequence[float]) -> tuple | None:
        """Intervals over the closed box [lo, hi]: the tuple of every
        component's value and the tuple of rows of every partial, each a
        pair (low, high). Each holds what eval, partial and jacobian compute
        at every float point of the box, and the exact result of their
        operations at every real point. One pass of the "interval" kernel,
        made at construction.

        None where a bound of the box is not finite, or where an interval
        crosses the edge of a domain or overflows: the enclosure proves
        nothing there."""
        n = len(self.variables)
        if len(lo) != n or len(hi) != n:
            raise DimensionMismatch(f"function of {n} variables called with a box of {len(lo)}")
        box = tuple((float(a), float(b)) for a, b in zip(lo, hi))
        if not all(math.isfinite(a) and math.isfinite(b) for a, b in box):
            return None
        if any(a > b for a, b in box):
            raise ValueError(f"empty box: {box}")
        try:
            return self._interval_kernel(*box)
        except DomainViolation:
            return None

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
    parse error carries the index of the failing string as .component.
    ValueError where a variable name is not a name, is a function's, or
    repeats, which ExprFunction finds."""
    texts = [text] if isinstance(text, str) else list(text)
    names = list(variables)
    for name in names:
        if not _NAME_RE.fullmatch(name):
            raise ValueError(f"invalid variable name {name!r}")
        if name in FUNCTIONS:
            raise ValueError(f"variable name {name!r} collides with a function")
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
