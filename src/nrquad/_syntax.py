"""Expression trees and their text: the node types, ``parse`` and ``to_text``.

Expressions are immutable trees over a single variable ``x``.  The accepted
source syntax is:

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?            right-associative
    atom   := NUMBER | "x" | NAME "(" expr ")" | "(" expr ")"

``+``/``-`` bind loosest, then ``*``/``/``, then unary minus, then ``^``,
so ``-x^2`` means ``-(x^2)`` and ``2*-x`` means ``2*(-x)``.  Numbers are
decimal literals with optional fraction and exponent (``2``, ``0.5``,
``1e-3``).  There is no implicit multiplication: ``2x`` is a syntax error.
The recognised functions are sin, cos, tan, exp, ln, sqrt and abs, each
taking exactly one argument; any other identifier is a parse error.

:mod:`nrquad.expressions` re-exports every public name here but
``VARIABLE_NAME``, which only the parser and printer read, and is where
callers import them from.
"""

from __future__ import annotations

import math
import operator
import re
from collections.abc import Callable

from ._frozen import Frozen, slot_setters


class Expression(Frozen):
    """Base class for expression nodes. Nodes are immutable value objects."""

    __slots__ = ()


class Const(Expression):
    """A finite numeric constant."""

    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"constants must be finite, got {value!r}")
        _set_value(self, value)


class Var(Expression):
    """The single free variable ``x``."""

    __slots__ = ()


class Neg(Expression):
    """Unary negation."""

    __slots__ = ("child",)

    def __init__(self, child: Expression) -> None:
        _set_child(self, child)


class BinOp(Expression):
    """Binary operation; ``op`` is one of ``+ - * / ^``."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in _OPERATORS:
            raise ValueError(f"unknown operator {op!r}; expected one of {' '.join(_OPERATORS)}")
        _set_op(self, op)
        _set_left(self, left)
        _set_right(self, right)


class Call(Expression):
    """Application of a named function to exactly one argument; ``name`` is in ``FUNCTION_NAMES``."""

    __slots__ = ("name", "arg")

    def __init__(self, name: str, arg: Expression) -> None:
        if name not in _FUNCTIONS:
            raise ValueError(f"unknown function {name!r}; expected one of {', '.join(_FUNCTIONS)}")
        _set_name(self, name)
        _set_arg(self, arg)


(_set_value,) = slot_setters(Const)
(_set_child,) = slot_setters(Neg)
_set_op, _set_left, _set_right = slot_setters(BinOp)
_set_name, _set_arg = slot_setters(Call)

_OPERATORS: dict[str, Callable[[float, float], float]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": math.pow,
}

_FUNCTIONS: dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "ln": math.log,
    "sqrt": math.sqrt,
    "abs": abs,
}

FUNCTION_NAMES = frozenset(_FUNCTIONS)

VARIABLE_NAME = "x"

MAX_DEPTH = 50
"""Deepest tree :func:`parse` accepts, in nodes along a root-to-leaf path.

Evaluation, differentiation, simplification and printing recurse once per
level, and a derivative can be four times deeper than its expression, so
the bound keeps every walk well under Python's default recursion limit."""

# The parser recurses once per nested operand: parenthesised, a function
# argument, negated or an exponent.  to_text prints a tree MAX_DEPTH deep
# with at most twice that nesting, since a negation or a right-nested power
# costs two levels, so printed trees always parse again.
_MAX_NESTING = 2 * MAX_DEPTH + 2

_TOO_DEEP = f"expression nests deeper than {MAX_DEPTH} levels"


class ParseError(ValueError):
    """Syntax or identifier error, carrying the character offset."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


_TOKEN_RE = re.compile(
    r"""(?P<num>(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*/^(),])
      | (?P<ws>\s+)
      | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def parse(source: str) -> Expression:
    """Parse ``source`` into an expression tree.

    Args:
        source: non-empty expression text in the grammar described in the
            module docstring.

    Returns:
        The parsed :class:`Expression`.

    Raises:
        ParseError: on malformed syntax, an unknown identifier, a
            function applied to the wrong number of arguments, or a tree
            deeper than :data:`MAX_DEPTH`.  The error carries the
            character ``offset`` of the problem.
    """
    if not source or source.isspace():
        raise ParseError("empty expression", 0)
    # (kind, text, offset) tuples; the catch-all "bad" group makes the matches
    # cover the source, so a stray character is reported before any syntax error
    tokens = []
    for match in _TOKEN_RE.finditer(source):
        kind = match.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {match.group()!r}", match.start())
        if kind != "ws":
            tokens.append((kind, match.group(), match.start()))
    tokens.append(("end", "end of input", len(source)))
    # each rule returns its node and the node's depth; only "op" tokens have
    # punctuation for text, so the text alone tells an operator
    at = 0  # index of the next token
    nesting = 0

    def expr() -> tuple[Expression, int]:
        nonlocal at
        left, depth = term()
        while (op := tokens[at][1]) in ("+", "-"):
            at += 1
            right, right_depth = term()
            left, depth = BinOp(op, left, right), max(depth, right_depth) + 1
        return left, depth

    def term() -> tuple[Expression, int]:
        nonlocal at
        left, depth = unary()
        while (op := tokens[at][1]) in ("*", "/"):
            at += 1
            right, right_depth = unary()
            left, depth = BinOp(op, left, right), max(depth, right_depth) + 1
        return left, depth

    def unary() -> tuple[Expression, int]:
        # every nested operand passes here: parenthesised, argument, negated or exponent
        nonlocal at, nesting
        nesting += 1
        kind, text, offset = tokens[at]
        if nesting > _MAX_NESTING:
            raise ParseError(_TOO_DEEP, offset)
        at += 1
        if text == "-":
            child, depth = unary()
            nesting -= 1
            # to_text prints Const(-c) as (-c): count the one level it was printed from
            return Neg(child), 1 if type(child) is Const else depth + 1
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ParseError(f"number {text!r} is too large for a float", offset)
            base, depth = Const(value), 1
        elif text == VARIABLE_NAME:
            base, depth = Var(), 1
        elif kind == "name":
            if text not in FUNCTION_NAMES:
                raise ParseError(f"unknown identifier {text!r}", offset)
            _, found, offset = tokens[at]
            if found != "(":
                raise ParseError(f"expected '(' after function name {text!r}, found {found!r}", offset)
            at += 1
            arg, depth = expr()
            _, found, offset = tokens[at]
            if found == ",":
                raise ParseError(f"function {text!r} takes exactly one argument", offset)
            if found != ")":
                raise ParseError(f"expected ')' to close the argument of {text!r}, found {found!r}", offset)
            at += 1
            base, depth = Call(text, arg), depth + 1
        elif text == "(":
            base, depth = expr()
            _, found, offset = tokens[at]
            if found != ")":
                raise ParseError(f"expected ')' to close the parenthesised expression, found {found!r}", offset)
            at += 1
        else:
            raise ParseError(f"expected a number, {VARIABLE_NAME!r}, or '(', found {text!r}", offset)
        if tokens[at][1] == "^":
            at += 1
            exponent, exponent_depth = unary()
            base, depth = BinOp("^", base, exponent), max(depth, exponent_depth) + 1
        nesting -= 1
        return base, depth

    tree, depth = expr()
    kind, text, offset = tokens[at]
    if kind != "end":
        raise ParseError(f"unexpected {text!r} after a complete expression", offset)
    # a syntax error anywhere in the source is reported before the depth
    if depth > MAX_DEPTH:
        raise ParseError(_TOO_DEEP, 0)
    return tree


def to_text(e: Expression) -> str:
    """Render ``e`` as fully parenthesised source text.

    The output re-parses to a tree that evaluates identically; constants
    use shortest round-trip decimal form.
    """
    match e:
        case Const(value):
            text = repr(value)
            return f"({text})" if text.startswith("-") else text
        case Var():
            return VARIABLE_NAME
        case Neg(child):
            return f"(-{to_text(child)})"
        case BinOp(op, left, right):
            return f"({to_text(left)}{op}{to_text(right)})"
        case Call(name, arg):
            return f"{name}({to_text(arg)})"
    raise TypeError(f"not an expression node: {e!r}")
