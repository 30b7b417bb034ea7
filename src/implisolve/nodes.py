"""Syntax trees of expressions: five frozen node classes, the canonical
constant, linear combinations and substitution, which normalization uses
to rewrite a function, and the walk over a node's children."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Union


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


def _children(node: Node) -> tuple:
    if isinstance(node, Neg):
        return (node.operand,)
    if isinstance(node, Call):
        return (node.arg,)
    if isinstance(node, BinOp):
        return (node.left, node.right)
    return ()

