"""The one emitter of the expression kernels.

It compiles an ExprFunction's components into positional Python
functions, the kernels, each computing every component and each repeated
subtree once, one statement per operation. eval runs the value kernel.
Derivatives run the emitter's forward mode by source transformation: in
place of each value statement that depends on a variable it emits one
that computes the value, and any derivative factor, once, then one
statement per direction for the value's derivative along it as a plain
float, performing the same operations as a pass over dual numbers. The
Jacobian kernel carries all n unit vectors at once, so one pass gives
every partial of every component, each equal bit for bit to a dual pass
along its unit vector, and every value, equal to eval's: partial reads
its column, and a system query's chord iteration reads the values at
its predictor from the same pass. All are exact to roundoff. A power
calls math.pow inline, under a test on its base that keeps the helper's
results: a base other than zero under a nonzero integer literal, a
positive base otherwise; other bases, and zero exponents, call the
helper. Each kernel finishes its call: it
tests every output finite and returns the Vector or Matrix its method
returns (the Jacobian kernel with the values beside it), or None. The
tree walker of expr.py over dual numbers is the semantics they compile.

The third mode, "interval", performs the Jacobian kernel's operations in
its order on intervals, with interval.py's outward-rounded helpers. Its
pass over a box encloses every value and partial the float kernels
compute anywhere in the box, or raises where an interval crosses a
domain edge.

Compiled code is cached by shape. `_number` numbers a function's trees
once, for all its kernels: it gives the key of their shape, where each
finite literal that is not a power's exponent is a slot, and the slots'
values. The cache, one `functools.lru_cache`, holds one entry per key:
its value, Jacobian and interval factories, each of which makes a kernel
with those values as defaults. The emitter writes a key's three sources
only on a miss. An ExprFunction's construction takes its shape's entry
with one lookup. Re-seeding a build derives the same trees with new
constants, so its functions pay for a numbering pass, one lookup and
three factory calls, and each still owns its kernels.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

from . import dual
from .dual import DomainViolation
from .linalg import Matrix, Vector
from .nodes import BinOp, Call, Const, Node, Var, _children

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

# The "interval" mode's kernel runs with interval.py's helpers under the
# same names, bound on its first compile so that importing the package
# never imports them, and with its arithmetic operators spelled as these
# helpers. The zero and unit tangents are names, not tuple literals,
# which keeps the compile of a kernel with many of them small.
_INTERVAL_OPS = {"+": "_add", "-": "_sub", "*": "_mul", "/": "_div"}
_ZERO_INTERVAL = "_zero"


def _interval_helpers() -> dict:
    from . import interval

    return {
        "__builtins__": {},
        "_add": interval.add,
        "_sub": interval.sub,
        "_mul": interval.mul,
        "_div": interval.div,
        "_neg": interval.neg,
        "_pow": interval.pow_,
        "_sin": interval.sin,
        "_cos": interval.cos,
        "_exp": interval.exp,
        "_ln": interval.ln,
        "_sqrt": interval.sqrt,
        "_abs": interval.abs_,
        "_pow_pair": interval.pow_pair,
        "_pow_const_factor": interval.pow_const_factor,
        "_sqrt_factor": interval.sqrt_factor,
        "_abs_factor": interval.abs_factor,
        "_point": interval.point,
        "_zero": interval.ZERO,
        "_one": interval.ONE,
    }


# What a kernel raises where the tree walker raises DomainViolation:
# ValueError is math.sin and math.cos of an infinite intermediate,
# ZeroDivisionError a quotient by zero, and OverflowError an inline math.pow
# whose result overflows.
_KERNEL_ERRORS = (DomainViolation, ValueError, ZeroDivisionError, OverflowError)


def _is_slot(node: Node, exponent: bool) -> bool:
    """Whether node is a kernel's constant: a finite literal, not a power's
    exponent."""
    return type(node) is Const and not exponent and math.isfinite(node.value)


def _number(components: Sequence[Node], variables: Sequence[str]) -> tuple[tuple, tuple]:
    """The shape key of the components over variables, and their constants;
    ValueError where a component reads a variable not among them.

    The key is (n, table, roots), n the number of variables. table has an
    entry per class of equal subtrees, each after its children's:
    ("var", k) for the kth variable, ("lit", repr) for a literal exponent
    or a non-finite literal, else (op, *refs), op an operator, "neg" or a
    function name, and a ref a child's class or None for a slot, a
    constant in `_is_slot`'s sense. roots holds each component's ref. The
    constants are the slots' values in the order of the table, then the
    roots': the order `_kernel_source` names them _c0, _c1, ....

    Equal literals, by repr so that 0.0 and -0.0 differ, make equal
    subtrees. The key holds no slot's value, only the merges equal
    constants make, so it fixes the source and nothing more.
    """
    position = {name: k for k, name in enumerate(variables)}
    # Memoizing by object identity keeps this linear: substitution puts one
    # object at every occurrence of a variable, and a dataclass hash would
    # walk the whole subtree again at each one. A class is known by its
    # entry, followed by its slots' reprs where it has any.
    class_of: dict = {}
    number_of: dict = {}
    table: list = []
    constants: list = []

    def classify(node) -> int:
        c = class_of.get(id(node))
        if c is not None:
            return c
        kind = type(node)
        if kind is Var:
            k = position.get(node.name)
            if k is None:
                raise ValueError(f"undeclared variable {node.name!r}")
            label = entry = ("var", k)
            values = ()
        elif kind is Const:
            label = entry = ("lit", repr(node.value))
            values = ()
        else:
            op = node.op if kind is BinOp else node.fn if kind is Call else "neg"
            entry = [op]
            values = []
            for child in _children(node):
                if _is_slot(child, op == "^" and len(entry) == 2):
                    entry.append(None)
                    values.append(child.value)
                else:
                    entry.append(classify(child))
            label = entry = tuple(entry)
            if values:
                label = (entry, *map(repr, values))
        c = number_of.get(label)
        if c is None:
            c = number_of[label] = len(table)
            table.append(entry)
            constants.extend(values)
        class_of[id(node)] = c
        return c

    roots = []
    root_constants = []
    for component in components:
        if _is_slot(component, False):
            roots.append(None)
            root_constants.append(component.value)
        else:
            roots.append(classify(component))
    return (len(variables), tuple(table), tuple(roots)), tuple(constants + root_constants)


def _literal(text: str) -> str:
    """Source text of a literal from its repr."""
    return "1e999" if text == "inf" else text


def _pow_guard(a: str, b: str, exponent: float | None) -> str | None:
    """Text of the test on base a under which math.pow(a, b) gives what
    _pow_float(a, b) gives, raising OverflowError where it raises
    DomainViolation, and pow_const_factor's factor is b * a^(b - 1); None for
    a zero exponent, whose factor (None) only pow_const_factor gives.
    exponent is the value of a literal exponent, None for a computed one."""
    if exponent is not None:
        if exponent == 0.0:
            return None
        # a finite integer literal is defined on every base, but math.pow
        # keeps the sign of -0.0 ^ 3, which _pow_float makes 0.0
        return f"{a} != 0.0" if exponent.is_integer() else f"{a} > 0.0"
    # a computed exponent may be non-integer or zero
    return f"{a} > 0.0 and {b} != 0.0"


def _arith(op: str, a: str, b: str, interval: bool) -> str:
    """Text of a binary operation: Python's operator on floats, the helper
    of interval.py on intervals."""
    return f"{_INTERVAL_OPS[op]}({a}, {b})" if interval else f"{a} {op} {b}"


def _negation(a: str, interval: bool) -> str:
    return f"_neg({a})" if interval else f"-{a}"


def _float_op(
    op: str, operands: Sequence[str], exponent: float | None, interval: bool = False
) -> str:
    """Text of a table entry's own value operation on its operands' texts;
    exponent as `_pow_guard` takes it."""
    if op == "neg":
        return _negation(operands[0], interval)
    if len(operands) == 1:
        return f"_{op}({operands[0]})"
    left, right = operands
    if op == "^":
        guard = None if interval else _pow_guard(left, right, exponent)
        if guard is None:
            return f"_pow({left}, {right})"
        return f"_math_pow({left}, {right}) if {guard} else _pow({left}, {right})"
    return _arith(op, left, right, interval)


def _tangent_op(
    op: str,
    v: str,
    f: str,
    operands: Sequence[tuple],
    exponent: float | None,
    interval: bool = False,
) -> tuple[list, object]:
    """The tangent-mode statements of a table entry op that contains a
    variable, from its operands' (value, tangents) texts, and exponent as
    `_pow_guard` takes it; tangents is None where the operand contains no
    variable, else one text per direction. Returns the statements that set
    the value v, and a factor f where the rule has one, and the rule: a
    function of the operands' tangents along one direction giving that
    direction's tangent text, or the tuple of tangents where they pass
    through unchanged. Value and factor are computed once for every
    direction. The statements and a rule's text perform the float
    operations of the Dual method or dual function for this mix of
    operands, in the same order; a power whose exponent varies branches on
    each direction's exponent tangent, so its pair rule runs per direction.
    With interval, the same operations act on intervals."""
    zero = _ZERO_INTERVAL if interval else "0.0"

    def arith(op, a, b):
        return _arith(op, a, b, interval)

    if op == "neg":
        ((x, _),) = operands
        return [f"{v} = {_negation(x, interval)}"], lambda dx: _negation(dx, interval)
    if len(operands) == 1:
        ((x, _),) = operands
        if op == "sin":
            return [f"{v}, {f} = _sin({x}), _cos({x})"], lambda dx: arith("*", f, dx)
        if op == "cos":
            sine = _negation(f"_sin({x})", interval)
            return [f"{v}, {f} = _cos({x}), {sine}"], lambda dx: arith("*", f, dx)
        if op == "exp":
            return [f"{v} = _exp({x})"], lambda dx: arith("*", v, dx)
        if op == "ln":
            return [f"{v} = _ln({x})"], lambda dx: arith("/", dx, x)
        if op == "sqrt":
            return [f"{v}, {f} = _sqrt_factor({x})"], lambda dx: arith("/", dx, f)
        return [f"{v}, {f} = _abs_factor({x})"], lambda dx: arith("*", f, dx)
    (a, da), (b, db) = operands
    if op == "^":
        if db is None:
            helper = f"_pow_const_factor({a}, {b})"
            guard = None if interval else _pow_guard(a, b, exponent)
            if guard is not None:
                fast = f"(_math_pow({a}, {b}), {b} * _math_pow({a}, {b} - 1.0))"
                helper = f"{fast} if {guard} else {helper}"
            return (
                [f"{v}, {f} = {helper}"],
                lambda da, _: f"{zero} if {f} is None else {arith('*', f, da)}",
            )
        return (
            [f"{v} = _pow({a}, {b})"],
            lambda da, db: f"_pow_pair({a}, {da or zero}, {b}, {db})[1]",
        )
    value = [f"{v} = {arith(op, a, b)}"]
    if op == "/":
        if db is None:
            return value, lambda da, _: arith("/", da, b)
        # a constant numerator is Dual(a, 0.0)
        return value, lambda da, db: arith("/", f"({arith('-', da or zero, arith('*', v, db))})", b)
    if op == "*":
        if da is None:
            return value, lambda _, db: arith("*", db, a)  # Dual.__rmul__
        if db is None:
            return value, lambda da, _: arith("*", da, b)
        return value, lambda da, db: arith("+", arith("*", a, db), arith("*", da, b))
    if da is not None and db is not None:
        return value, lambda da, db: arith(op, da, db)
    if op == "-" and da is None:
        return value, lambda _, db: _negation(db, interval)  # Dual.__rsub__
    return value, da or db


def _tuple_text(texts) -> str:
    return f"({''.join(f'{t}, ' for t in texts)})"


def _kernel_source(key: tuple, mode: str) -> str:
    """Source of `def _make(_c0, ...):` returning `def _k(_a0, ..., _an,
    _c0=_c0, ...): ...` for the functions of shape key, a `_number` key,
    which call _make with their constants. _k's result is finished: mode
    "value" returns the Vector of every component's value at _a. Mode
    "jacobian" also carries derivatives, computed on floats only: one
    tangent per variable, along the unit vectors, and returns the tuple of
    values and the Matrix whose row i is component i's n partials. Every
    kernel returns None instead where an output, a value or a tangent, a
    literal too, is not finite. Mode "interval" is mode "jacobian" on
    intervals: each _ak is a pair (lo, hi), every literal a point
    interval, every operation the helper of interval.py with the name the
    float kernels call or `_INTERVAL_OPS` gives, and it returns the tuple
    of the values' intervals and the tuple of the rows of the partials'
    intervals, testing none: the helpers raise where a bound is not
    finite, as `_point` does in the statement of a non-finite literal.

    Each slot of the key is a constant _ck, so one source serves every
    function of its shape. Exponent literals stay in the source, since
    `_pow_guard` branches on them, and so do non-finite literals and the
    unit tangents. The constants are positional defaults, which a call
    fills from a tuple; keyword-only ones would cost a dict lookup each
    per call. Callers pass exactly the inputs, so no argument reaches a
    constant.

    Inputs are positional, so variable names never meet Python's. The key
    lists each class of equal subtrees once, so each repeated subtree,
    within or across components, is computed once. Every entry that is
    not a leaf gets its own statement, a float operation into a local
    `_tc`, c its class, so no expression nests. In the modes that carry
    tangents, an entry that contains a variable gets its `_tangent_op`
    statements instead: its value once, then one tangent `_dc_j` per
    variable j. A subtree with no variable carries no tangent, as a Dual
    pass leaves it a float; a component with none has tangents 0.0. Each
    statement performs the float operations a float or Dual pass does, in
    the same order, so the results equal it bit for bit: each column of
    the "jacobian" kernel equals a Dual pass along that unit vector. The
    "interval" kernel performs the "jacobian" kernel's operations in its
    order, so each of its intervals holds what that kernel computes at any
    float point of the box. A power calls math.pow itself where
    `_pow_guard` holds; there the helper would call it with the same
    arguments. The "interval" kernel always calls the helper.
    """
    n, table, roots = key
    interval = mode == "interval"
    params = [f"_a{k}" for k in range(n)]
    if mode == "value":
        leaf_tangents = [None] * n
    else:
        one, zero = ("_one", _ZERO_INTERVAL) if interval else ("1.0", "0.0")
        leaf_tangents = [tuple(one if j == k else zero for j in range(n)) for k in range(n)]
    directions = 0 if mode == "value" else n
    untangled = (None,) * directions
    names: list = []
    pairs: list = []  # each class's value text and tangent texts
    lines: list = []

    def operand(ref) -> tuple:
        if ref is None:
            names.append(f"_c{len(names)}")
            return names[-1], None
        return pairs[ref]

    for k, (op, *refs) in enumerate(table):
        v = f"_t{k}"
        if op == "var":
            pairs.append((f"_a{refs[0]}", leaf_tangents[refs[0]]))
            continue
        if op == "lit":
            literal = _literal(refs[0])
            if not interval:
                pairs.append((literal, None))
            elif math.isfinite(float(literal)):
                pairs.append((f"({literal}, {literal})", None))
            else:
                # the helpers take a finite literal as given; this statement
                # raises instead, at the literal
                lines.append(f"{v} = _point({literal})")
                pairs.append((v, None))
            continue
        operands = [operand(ref) for ref in refs]
        exponent = None
        if op == "^" and table[refs[1]][0] == "lit":
            exponent = float(table[refs[1]][1])
        # an operand that contains a variable carries tangents only where the mode does
        if operands[0][1] is None and operands[-1][1] is None:
            lines.append(f"{v} = {_float_op(op, [t for t, _ in operands], exponent, interval)}")
            pairs.append((v, None))
            continue
        statements, rule = _tangent_op(op, v, f"_f{k}", operands, exponent, interval)
        lines.extend(statements)
        if callable(rule):
            # the operands' tangents along each direction in turn
            along = zip(*[ds or untangled for _, ds in operands])
            tangents = tuple(f"_d{k}_{j}" for j in range(directions))
            lines.extend([f"{d} = {rule(*ds)}" for d, ds in zip(tangents, along)])
            rule = tangents
        pairs.append((v, rule))

    outputs = [operand(ref) for ref in roots]
    values = [v for v, _ in outputs]
    rows = [ds or ((_ZERO_INTERVAL if interval else "0.0"),) * directions for _, ds in outputs]
    tangents = [d for ds in rows for d in ds]
    if interval:
        result = f"{_tuple_text(values)}, {_tuple_text(map(_tuple_text, rows))}"
    else:
        if mode == "value":
            result = f"_vector({_tuple_text(values)})"
        else:
            matrix = f"_matrix({_tuple_text(map(_tuple_text, rows))})"
            result = f"({_tuple_text(values)}, {matrix})"
        # every output once, values and tangents alike; a constant or a
        # finite literal needs no test
        tests = [
            f"_isfinite({t})"
            for t in dict.fromkeys(values + tangents)
            if not t.startswith("_c") and (t[0] == "_" or not math.isfinite(float(t)))
        ]
        if tests:
            result = f"{result} if {' and '.join(tests)} else None"
    lines.append(f"return {result}")
    params += [f"{name}={name}" for name in names]
    body = "\n        ".join(lines)
    return (
        f"def _make({', '.join(names)}):\n"
        f"    def _k({', '.join(params)}):\n        {body}\n"
        "    return _k"
    )


# Most shapes kept at once. A shape's three factories and its key take
# about 11 KB for the m = 2 kernels of a re-seeded build (tracemalloc,
# Python 3.11), so the cap keeps a process that parses ever new shapes near
# 1.4 MB of them: more than ten times the 11 shapes that re-seeding
# quad_pair and inverting the square map come back to.
_CACHE_SIZE = 128


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _factories(key: tuple) -> tuple:
    """The value, Jacobian and interval `_make` of the sources
    `_kernel_source` writes for key. The cache holds those of the
    _CACHE_SIZE shapes used last; a compile runs outside its lock, so
    threads that race to one shape each make equal factories."""
    namespaces: tuple = ({}, {}, {})
    for mode, namespace in zip(("value", "jacobian", "interval"), namespaces):
        helpers = _interval_helpers() if mode == "interval" else _HELPERS
        exec(compile(_kernel_source(key, mode), "<kernel>", "exec"), helpers, namespace)
    return tuple(namespace["_make"] for namespace in namespaces)


def _kernels(key: tuple, constants: tuple) -> tuple:
    """The value, Jacobian and interval kernels of shape key, a `_number`
    key, with constants: new functions, from the key's cached factories."""
    value, jacobian, interval = _factories(key)
    return value(*constants), jacobian(*constants), interval(*[(c, c) for c in constants])
