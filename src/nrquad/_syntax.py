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

:mod:`nrquad.expressions` re-exports every public name here, and is where
callers import them from.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable

from ._frozen import Frozen, set_field


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
        set_field(self, "value", value)


class Var(Expression):
    """The single free variable ``x``."""

    __slots__ = ()


class Neg(Expression):
    """Unary negation."""

    __slots__ = ("child",)

    def __init__(self, child: Expression) -> None:
        set_field(self, "child", child)


class BinOp(Expression):
    """Binary operation; ``op`` is one of ``+ - * / ^``."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        set_field(self, "op", op)
        set_field(self, "left", left)
        set_field(self, "right", right)


class Call(Expression):
    """Application of a named function to exactly one argument."""

    __slots__ = ("name", "arg")

    def __init__(self, name: str, arg: Expression) -> None:
        set_field(self, "name", name)
        set_field(self, "arg", arg)


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
    """,
    re.VERBOSE,
)

_END = "end of input"


class _Token(Frozen):
    __slots__ = ("kind", "text", "offset")

    def __init__(self, kind: str, text: str, offset: int) -> None:
        set_field(self, "kind", kind)  # "num" | "name" | "op" | "end"
        set_field(self, "text", text)
        set_field(self, "offset", offset)


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise ParseError(f"unexpected character {source[pos]!r}", pos)
        kind = match.lastgroup
        if kind != "ws":
            tokens.append(_Token(kind, match.group(), pos))
        pos = match.end()
    tokens.append(_Token("end", _END, len(source)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self._tokens = tokens
        self._index = 0
        self._nesting = 0

    def _peek(self) -> _Token:
        return self._tokens[self._index]

    def _advance(self) -> _Token:
        token = self._tokens[self._index]
        self._index += 1
        return token

    def _expect_op(self, op: str, context: str) -> None:
        token = self._peek()
        if token.kind == "op" and token.text == op:
            self._advance()
            return
        raise ParseError(f"expected {op!r} {context}, found {token.text!r}", token.offset)

    def parse(self) -> Expression:
        expr = self._expr()
        token = self._peek()
        if token.kind != "end":
            raise ParseError(f"unexpected {token.text!r} after a complete expression", token.offset)
        return expr

    def _expr(self) -> Expression:
        left = self._term()
        while self._peek().kind == "op" and self._peek().text in "+-":
            op = self._advance().text
            left = BinOp(op, left, self._term())
        return left

    def _term(self) -> Expression:
        left = self._unary()
        while self._peek().kind == "op" and self._peek().text in "*/":
            op = self._advance().text
            left = BinOp(op, left, self._unary())
        return left

    def _unary(self) -> Expression:
        # every nested operand passes here: parenthesised, argument, negated or exponent
        token = self._peek()
        self._nesting += 1
        if self._nesting > _MAX_NESTING:
            raise ParseError(_TOO_DEEP, token.offset)
        if token.kind == "op" and token.text == "-":
            self._advance()
            expr: Expression = Neg(self._unary())
        else:
            expr = self._power()
        self._nesting -= 1
        return expr

    def _power(self) -> Expression:
        base = self._atom()
        token = self._peek()
        if token.kind == "op" and token.text == "^":
            self._advance()
            return BinOp("^", base, self._unary())
        return base

    def _atom(self) -> Expression:
        token = self._advance()
        if token.kind == "num":
            return Const(float(token.text))
        if token.kind == "name":
            if token.text == VARIABLE_NAME:
                return Var()
            if token.text in FUNCTION_NAMES:
                return self._call(token.text)
            raise ParseError(f"unknown identifier {token.text!r}", token.offset)
        if token.kind == "op" and token.text == "(":
            expr = self._expr()
            self._expect_op(")", "to close the parenthesised expression")
            return expr
        raise ParseError(f"expected a number, {VARIABLE_NAME!r}, or '(', found {token.text!r}", token.offset)

    def _call(self, name: str) -> Expression:
        self._expect_op("(", f"after function name {name!r}")
        arg = self._expr()
        token = self._peek()
        if token.kind == "op" and token.text == ",":
            raise ParseError(f"function {name!r} takes exactly one argument", token.offset)
        self._expect_op(")", f"to close the argument of {name!r}")
        return Call(name, arg)


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
    tokens = _tokenize(source)
    expr = _Parser(tokens).parse()
    # every node takes at least one token, so only a long source can be too deep
    if len(tokens) > MAX_DEPTH and _depth(expr) > MAX_DEPTH:
        raise ParseError(_TOO_DEEP, 0)
    return expr


def _depth(e: Expression) -> int:
    deepest = 0
    pending = [(e, 1)]
    while pending:
        node, depth = pending.pop()
        deepest = max(deepest, depth)
        match node:
            case Neg(Const()):
                pass  # to_text prints Const(-c) as (-c): count the one level it was printed from
            case Neg(child) | Call(_, child):
                pending.append((child, depth + 1))
            case BinOp(_, left, right):
                pending.append((left, depth + 1))
                pending.append((right, depth + 1))
    return deepest


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
