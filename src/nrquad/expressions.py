"""Univariate expression trees: parsing, evaluation, differentiation, printing.

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

Evaluation is total: domain violations (``ln`` of a negative, division by
zero, ...) yield NaN instead of raising, and callers are expected to check
finiteness.
"""

from __future__ import annotations

import math
import operator
import re
from collections.abc import Callable, Sequence

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


def evaluate(e: Expression, x: float) -> float:
    """Evaluate ``e`` at the point ``x``.

    Never raises for numeric trouble: domain violations and division by
    zero come back as NaN, overflow as NaN or infinity.  A nonfinite
    result signals that ``e`` is not defined (as a real) at ``x``.
    """
    try:
        return _eval(e, x)
    except (ArithmeticError, ValueError):
        return math.nan


def _eval(e: Expression, x: float) -> float:
    match e:
        case Const(value):
            return value
        case Var():
            return x
        case Neg(child):
            return -_eval(child, x)
        case BinOp(op, left, right):
            lv = _eval(left, x)
            rv = _eval(right, x)
            if op == "+":
                return lv + rv
            if op == "-":
                return lv - rv
            if op == "*":
                return lv * rv
            if op == "/":
                return lv / rv
            return math.pow(lv, rv)
        case Call(name, arg):
            return _FUNCTIONS[name](_eval(arg, x))
    raise TypeError(f"not an expression node: {e!r}")


def evaluate_many(e: Expression, xs: Sequence[float]) -> list[float]:
    """Evaluate ``e`` at every point of ``xs``: ``[evaluate(e, x) for x in xs]``.

    The tree is walked once for the whole batch, and each node's values
    are built over the batch at once.  The results are bit-identical to
    :func:`evaluate`'s, including its rule that a domain violation
    anywhere in the tree makes that one point NaN.  Only a NaN's sign may
    differ, and only where two NaNs meet in ``+`` or ``*``: CPython returns
    either operand's there, so :func:`evaluate` does not repeat it either.
    """
    failed: set[int] = set()
    values = _eval_many(e, xs, failed)
    # a failed point's NaN need not reach the root: pow(nan, 0) == 1
    for i in failed:
        values[i] = math.nan
    return values


_OPERATORS: dict[str, Callable[[float, float], float]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": math.pow,
}


def _eval_many(e: Expression, xs: Sequence[float], failed: set[int]) -> list[float]:
    match e:
        case Const(value):
            return [value] * len(xs)
        case Var():
            return list(xs)
        case Neg(child):
            return list(map(operator.neg, _eval_many(child, xs, failed)))
        case BinOp(op, left, right):
            return _map_points(_OPERATORS[op], failed, _eval_many(left, xs, failed), _eval_many(right, xs, failed))
        case Call(name, arg):
            return _map_points(_FUNCTIONS[name], failed, _eval_many(arg, xs, failed))
    raise TypeError(f"not an expression node: {e!r}")


def _map_points(fn: Callable[..., float], failed: set[int], *columns: list[float]) -> list[float]:
    try:
        return list(map(fn, *columns))
    except (ArithmeticError, ValueError):
        pass
    # some point raised: redo the node one point at a time, NaN standing in for the failures
    values = []
    for i, args in enumerate(zip(*columns)):
        try:
            values.append(fn(*args))
        except (ArithmeticError, ValueError):
            failed.add(i)
            values.append(math.nan)
    return values


def _add(l: Expression, r: Expression) -> Expression:
    return BinOp("+", l, r)


def _sub(l: Expression, r: Expression) -> Expression:
    return BinOp("-", l, r)


def _mul(l: Expression, r: Expression) -> Expression:
    return BinOp("*", l, r)


def _div(l: Expression, r: Expression) -> Expression:
    return BinOp("/", l, r)


def _pow(l: Expression, r: Expression) -> Expression:
    return BinOp("^", l, r)


def differentiate(e: Expression) -> Expression:
    """Return the derivative of ``e`` with respect to ``x``.

    Applies the sum, product, quotient, chain and power rules.  A power
    with a non-constant exponent is handled through the ``exp(v*ln(u))``
    rewrite, so evaluating its derivative at points with a non-positive
    base yields NaN.  The result is not simplified; pass it through
    :func:`simplify` for a tidier tree.
    """
    match e:
        case Const(_):
            return Const(0.0)
        case Var():
            return Const(1.0)
        case Neg(child):
            return Neg(differentiate(child))
        case BinOp("+", left, right):
            return _add(differentiate(left), differentiate(right))
        case BinOp("-", left, right):
            return _sub(differentiate(left), differentiate(right))
        case BinOp("*", left, right):
            return _add(_mul(differentiate(left), right), _mul(left, differentiate(right)))
        case BinOp("/", left, right):
            numerator = _sub(_mul(differentiate(left), right), _mul(left, differentiate(right)))
            return _div(numerator, _pow(right, Const(2.0)))
        case BinOp("^", base, Const(c)):
            scaled = _mul(Const(c), _pow(base, Const(c - 1.0)))
            return _mul(scaled, differentiate(base))
        case BinOp("^", base, exponent):
            # u^v = exp(v*ln(u)):  (u^v)' = u^v * (v'*ln(u) + v*u'/u)
            inner = _add(
                _mul(differentiate(exponent), Call("ln", base)),
                _mul(exponent, _div(differentiate(base), base)),
            )
            return _mul(_pow(base, exponent), inner)
        case Call(name, arg):
            return _mul(_outer_derivative(name, arg), differentiate(arg))
    raise TypeError(f"not an expression node: {e!r}")


def _outer_derivative(name: str, u: Expression) -> Expression:
    if name == "sin":
        return Call("cos", u)
    if name == "cos":
        return Neg(Call("sin", u))
    if name == "tan":
        return _div(Const(1.0), _pow(Call("cos", u), Const(2.0)))
    if name == "exp":
        return Call("exp", u)
    if name == "ln":
        return _div(Const(1.0), u)
    if name == "sqrt":
        return _div(Const(1.0), _mul(Const(2.0), Call("sqrt", u)))
    # abs: the sign of the argument, undefined (NaN) at zero
    return _div(u, Call("abs", u))


def simplify(e: Expression) -> Expression:
    """Fold constants and drop neutral elements.

    Only value-preserving rewrites are applied (``0+e -> e``, ``1*e -> e``,
    ``0*e -> 0``, ``e^1 -> e``, constant subtrees folded when the folded
    value is finite).  No domain-changing rewrites such as ``e/e -> 1``.
    """
    match e:
        case Const(_) | Var():
            return e
        case Neg(child):
            child = simplify(child)
            match child:
                case Const(value):
                    return Const(-value)
                case Neg(grandchild):
                    return grandchild
            return Neg(child)
        case BinOp(op, left, right):
            return _simplify_binop(op, simplify(left), simplify(right))
        case Call(name, arg):
            arg = simplify(arg)
            if isinstance(arg, Const):
                value = evaluate(Call(name, arg), 0.0)
                if math.isfinite(value):
                    return Const(value)
            return Call(name, arg)
    raise TypeError(f"not an expression node: {e!r}")


def _is_const(e: Expression, value: float) -> bool:
    return isinstance(e, Const) and e.value == value


def _simplify_binop(op: str, left: Expression, right: Expression) -> Expression:
    if isinstance(left, Const) and isinstance(right, Const):
        value = evaluate(BinOp(op, left, right), 0.0)
        if math.isfinite(value):
            return Const(value)
    if op == "+":
        if _is_const(left, 0.0):
            return right
        if _is_const(right, 0.0):
            return left
    elif op == "-":
        if _is_const(right, 0.0):
            return left
        if _is_const(left, 0.0):
            return Neg(right)
    elif op == "*":
        if _is_const(left, 1.0):
            return right
        if _is_const(right, 1.0):
            return left
        if _is_const(left, 0.0) or _is_const(right, 0.0):
            return Const(0.0)
    elif op == "/":
        if _is_const(right, 1.0):
            return left
        if _is_const(left, 0.0):
            return Const(0.0)
    else:  # "^"
        if _is_const(right, 1.0):
            return left
        if _is_const(right, 0.0) or _is_const(left, 1.0):
            # pow(x, 0) == 1 and pow(1, y) == 1 for every float y, NaN included
            return Const(1.0)
    return BinOp(op, left, right)


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
