"""Univariate expression trees: parsing, evaluation, differentiation, printing.

Expressions are immutable trees over a single variable ``x``; their node
types, the source syntax, :func:`parse` and :func:`to_text` live in
``nrquad._syntax`` and are re-exported here.

Evaluation is total: domain violations (``ln`` of a negative, division by
zero, ...) yield NaN instead of raising, and callers are expected to check
finiteness.  ``evaluate`` walks the tree.  Inside the package each integrand
is compiled once into a ``_Compiled``: a closure per node for single points
(``at``) and straight-line code for batches (``many``), each with the bits
of ``evaluate``.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Sequence

from ._syntax import (  # noqa: F401 - re-exported
    _FUNCTIONS,
    FUNCTION_NAMES,
    MAX_DEPTH,
    VARIABLE_NAME,
    BinOp,
    Call,
    Const,
    Expression,
    Neg,
    ParseError,
    Var,
    parse,
    to_text,
)


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


class _Compiled:
    """An expression compiled once for the calls of one computation.

    ``at(x)`` is a scalar closure, built now.  ``many(xs)`` is
    ``[evaluate(e, x) for x in xs]`` through a kernel compiled on the first
    batch: straight-line Python with one statement per operation, run in
    one loop over the batch.  Both give the bits of :func:`evaluate`, the
    same operations in the same order; a point whose evaluation raises
    anywhere in the tree is NaN, as with :func:`evaluate` (also where NaN
    would not reach the root: ``pow(nan, 0) == 1``).
    """

    __slots__ = ("expression", "at", "_kernel")

    def __init__(self, e: Expression) -> None:
        self.expression = e
        self.at = _compile_scalar(e)
        self._kernel: Callable[[Sequence[float]], list[float]] | None = None

    def many(self, xs: Sequence[float]) -> list[float]:
        if self._kernel is None:
            self._kernel = _compile_kernel(self.expression)
        return self._kernel(xs)


def _compile_scalar(e: Expression) -> Callable[[float], float]:
    node = _closure(e)

    def at(x: float) -> float:
        try:
            return node(x)
        except (ArithmeticError, ValueError):
            return math.nan

    return at


_OPERATORS: dict[str, Callable[[float, float], float]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": math.pow,
}


def _closure(e: Expression) -> Callable[[float], float]:
    # one closure per node, doing _eval's operations in _eval's order
    match e:
        case Const(value):
            return lambda x: value
        case Var():
            return lambda x: x
        case Neg(child):
            inner = _closure(child)
            return lambda x: -inner(x)
        case BinOp(op, left, right):
            fn, l, r = _OPERATORS[op], _closure(left), _closure(right)
            return lambda x: fn(l(x), r(x))
        case Call(name, arg):
            fn, inner = _FUNCTIONS[name], _closure(arg)
            return lambda x: fn(inner(x))
    raise TypeError(f"not an expression node: {e!r}")


def _compile_kernel(e: Expression) -> Callable[[Sequence[float]], list[float]]:
    # SSA form: one assignment per node, so a deep tree never nests in the source.
    # Constants and functions are bound by name: no value goes through repr,
    # and no text from the tree reaches the source.
    names: dict[str, object] = {"pow": math.pow, "nan": math.nan}
    lines: list[str] = []

    def bind(value: object) -> str:
        name = f"v{len(names)}"
        names[name] = value
        return name

    def emit(node: Expression) -> str:
        match node:
            case Const(value):
                return bind(value)
            case Var():
                return "x"
            case Neg(child):
                code = f"-{emit(child)}"
            case BinOp(op, left, right):
                lv, rv = emit(left), emit(right)
                code = f"{lv} {op} {rv}" if op in ("+", "-", "*", "/") else f"pow({lv}, {rv})"
            case Call(name, arg):
                code = f"{bind(_FUNCTIONS[name])}({emit(arg)})"
            case _:
                raise TypeError(f"not an expression node: {node!r}")
        lines.append(f"            t{len(lines)} = {code}\n")
        return f"t{len(lines) - 1}"

    root = emit(e)
    source = (
        "def kernel(xs):\n"
        "    values = []\n"
        "    append = values.append\n"
        "    for x in xs:\n"
        "        try:\n"
        f"{''.join(lines)}"
        f"            append({root})\n"
        "        except (ArithmeticError, ValueError):\n"
        "            append(nan)\n"
        "    return values\n"
    )
    exec(compile(source, "<nrquad kernel>", "exec"), names)
    return names["kernel"]


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
