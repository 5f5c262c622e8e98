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

:mod:`nrquad.expressions`, where callers import them from, re-exports
every public name here but ``VARIABLE_NAME``; the two are apart because
compiling from source keeps memory in proportion to the largest module.
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
        try:
            number = float(value)
        except OverflowError:  # an integer too large for a float
            number = math.inf
        if not math.isfinite(number):
            raise ValueError(f"constants must be finite, got {value!r}")
        _set_value(self, number)


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


# a number, a name, or any other single character; findall skips the whitespace
# between tokens, since no alternative matches it, so no token holds any
_TOKEN_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?|[A-Za-z_][A-Za-z_0-9]*|\S")

_END = "end of input"  # the last token: no token equals it, since none holds a space
_X = Var()  # nodes are immutable, so every x parse reads is this one node


class _TokenError(Exception):
    """A syntax error at a token index, with its message; ``parse`` turns it into a ParseError."""


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
    tokens = _TOKEN_RE.findall(source)
    tokens.append(_END)
    # each rule returns its node and the node's depth; a token's text tells its kind
    at = 0  # index of the next token
    nesting = 0

    def expr() -> tuple[Expression, int]:
        nonlocal at
        left, depth = term()
        while (op := tokens[at]) == "+" or op == "-":
            at += 1
            right, right_depth = term()
            left, depth = _binop(op, left, right), (depth if depth > right_depth else right_depth) + 1
        return left, depth

    def term() -> tuple[Expression, int]:
        nonlocal at
        left, depth = unary()
        while (op := tokens[at]) == "*" or op == "/":
            at += 1
            right, right_depth = unary()
            left, depth = _binop(op, left, right), (depth if depth > right_depth else right_depth) + 1
        return left, depth

    def unary() -> tuple[Expression, int]:
        # every nested operand passes here: parenthesised, argument, negated or exponent
        nonlocal at, nesting
        nesting += 1
        if nesting > _MAX_NESTING:
            raise _TokenError(_TOO_DEEP, at)
        text = tokens[at]
        at += 1
        if text == "-":
            child, depth = unary()
            nesting -= 1
            # to_text prints Const(-c) as (-c): count the one level it was printed from
            return _neg(child), 1 if type(child) is Const else depth + 1
        if text == VARIABLE_NAME:
            base, depth = _X, 1
        elif (first := text[0]).isdecimal() or first == "." and text != ".":
            value = float(text)
            if not math.isfinite(value):
                raise _TokenError(f"number {text!r} is too large for a float", at - 1)
            base, depth = _const(value), 1
        elif text in FUNCTION_NAMES:
            if (found := tokens[at]) != "(":
                raise _TokenError(f"expected '(' after function name {text!r}, found {found!r}", at)
            at += 1
            arg, depth = expr()
            if (found := tokens[at]) != ")":
                if found == ",":
                    raise _TokenError(f"function {text!r} takes exactly one argument", at)
                raise _TokenError(f"expected ')' to close the argument of {text!r}, found {found!r}", at)
            at += 1
            base, depth = _call(text, arg), depth + 1
        elif text == "(":
            base, depth = expr()
            if (found := tokens[at]) != ")":
                raise _TokenError(f"expected ')' to close the parenthesised expression, found {found!r}", at)
            at += 1
        elif _is_name(text):
            raise _TokenError(f"unknown identifier {text!r}", at - 1)
        else:
            raise _TokenError(f"expected a number, {VARIABLE_NAME!r}, or '(', found {text!r}", at - 1)
        if tokens[at] == "^":
            at += 1
            exponent, exponent_depth = unary()
            base, depth = _binop("^", base, exponent), (depth if depth > exponent_depth else exponent_depth) + 1
        nesting -= 1
        return base, depth

    try:
        tree, depth = expr()
        if (text := tokens[at]) != _END:
            raise _TokenError(f"unexpected {text!r} after a complete expression", at)
    except _TokenError as error:
        raise _parse_error(source, tokens, *error.args) from None
    # a stray character makes the descent fail, so only a source without one gets this far
    if depth > MAX_DEPTH:
        raise ParseError(_TOO_DEEP, 0)
    return tree


def _is_name(token: str) -> bool:
    # [A-Za-z_][A-Za-z_0-9]*, which _END is not
    return token.isascii() and token.isidentifier()


def _parse_error(source: str, tokens: list[str], message: str, index: int) -> ParseError:
    # only whitespace lies between tokens, so the next occurrence of a token's text is the token;
    # the first stray character is reported before the error the descent met, wherever it lies
    offsets = []
    start = 0
    for token in tokens[:-1]:
        start = source.index(token, start)
        if len(token) == 1 and token not in "+-*/^()," and not token.isdecimal() and not _is_name(token):
            return ParseError(f"unexpected character {token!r}", start)
        offsets.append(start)
        start += len(token)
    offsets.append(len(source))
    return ParseError(message, offsets[index])


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


# Builders for callers that have checked the fields: an operator or function name that the grammar or an
# existing node gives, and a finite float value.  Each skips the checks of its class's constructor
_new = object.__new__


def _const(value: float) -> Const:
    node = _new(Const)
    _set_value(node, value)
    return node


def _neg(child: Expression) -> Neg:
    node = _new(Neg)
    _set_child(node, child)
    return node


def _binop(op: str, left: Expression, right: Expression) -> BinOp:
    node = _new(BinOp)
    _set_op(node, op)
    _set_left(node, left)
    _set_right(node, right)
    return node


def _call(name: str, arg: Expression) -> Call:
    node = _new(Call)
    _set_name(node, name)
    _set_arg(node, arg)
    return node
