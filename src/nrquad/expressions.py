"""Univariate expression trees: parsing, evaluation, differentiation, printing.

Expressions are immutable trees over a single variable ``x``; their node
types, the source syntax, :func:`parse` and :func:`to_text` live in
``nrquad._syntax`` and are re-exported here.

Evaluation is total: domain violations (``ln`` of a negative, division by
zero, ...) yield NaN instead of raising, and callers are expected to check
finiteness.  ``evaluate`` walks the tree.  Inside the package each integrand
is compiled once into a ``_Compiled``: closures for single points (``at``),
which read constant and ``x`` operands in place, and straight-line code for
batches (``many``), each with the bits of ``evaluate``.
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
    # _eval's operations in _eval's order; a constant or x operand is read in place, not called
    match e:
        case Const(value):
            return lambda x: value
        case Var():
            return lambda x: x
        case Neg(child):
            inner = _closure(child)
            return lambda x: -inner(x)
        case BinOp(op, left, right):
            fn = _OPERATORS[op]
            if isinstance(left, Const):
                c = left.value
                if isinstance(right, Var):
                    return lambda x: fn(c, x)
                r = _closure(right)
                return lambda x: fn(c, r(x))
            if isinstance(right, Const):
                c = right.value
                if isinstance(left, Var):
                    return lambda x: fn(x, c)
                l = _closure(left)
                return lambda x: fn(l(x), c)
            l, r = _closure(left), _closure(right)
            return lambda x: fn(l(x), r(x))
        case Call(name, arg):
            fn = _FUNCTIONS[name]
            if isinstance(arg, Var):
                return fn
            inner = _closure(arg)
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


def differentiate(e: Expression) -> Expression:
    """Return the derivative of ``e`` with respect to ``x``.

    Applies the sum, product, quotient, chain and power rules.  A power
    with a non-constant exponent is handled through the ``exp(v*ln(u))``
    rewrite, so evaluating its derivative at points with a non-positive
    base yields NaN.  The result is not simplified; pass it through
    :func:`simplify` for a tidier tree.
    """
    return _derive(e, _RAW)


def _derivative(e: Expression) -> Expression:
    """``simplify(differentiate(e))``, built in one pass.

    ``simplify`` rewrites bottom-up, so building each node of the derivative
    through its rules, with every reused subtree of ``e`` simplified, gives
    the same tree without building the unsimplified one.
    """
    return _derive(e, _SIMPLIFIED)


def _derive(e: Expression, build: tuple) -> Expression:
    # build = (binop, neg, call, reuse): the node constructors, and what a rule makes of a subtree of e it reuses
    binop, neg, call, reuse = build
    match e:
        case Const(_):
            return Const(0.0)
        case Var():
            return Const(1.0)
        case Neg(child):
            return neg(_derive(child, build))
        case BinOp("+" | "-" as op, left, right):
            return binop(op, _derive(left, build), _derive(right, build))
        case BinOp("*", left, right):
            du_v = binop("*", _derive(left, build), reuse(right))
            return binop("+", du_v, binop("*", reuse(left), _derive(right, build)))
        case BinOp("/", left, right):
            v = reuse(right)
            du_v = binop("*", _derive(left, build), v)
            numerator = binop("-", du_v, binop("*", reuse(left), _derive(right, build)))
            return binop("/", numerator, binop("^", v, Const(2.0)))
        case BinOp("^", base, Const(c)):
            scaled = binop("*", Const(c), binop("^", reuse(base), Const(c - 1.0)))
            return binop("*", scaled, _derive(base, build))
        case BinOp("^", base, exponent):
            # u^v = exp(v*ln(u)):  (u^v)' = u^v * (v'*ln(u) + v*u'/u)
            u, v = reuse(base), reuse(exponent)
            dv_ln_u = binop("*", _derive(exponent, build), call("ln", u))
            inner = binop("+", dv_ln_u, binop("*", v, binop("/", _derive(base, build), u)))
            return binop("*", binop("^", u, v), inner)
        case Call(name, arg):
            return binop("*", _outer_derivative(name, reuse(arg), build), _derive(arg, build))
    raise TypeError(f"not an expression node: {e!r}")


def _outer_derivative(name: str, u: Expression, build: tuple) -> Expression:
    binop, neg, call, _ = build
    if name == "sin":
        return call("cos", u)
    if name == "cos":
        return neg(call("sin", u))
    if name == "tan":
        return binop("/", Const(1.0), binop("^", call("cos", u), Const(2.0)))
    if name == "exp":
        return call("exp", u)
    if name == "ln":
        return binop("/", Const(1.0), u)
    if name == "sqrt":
        return binop("/", Const(1.0), binop("*", Const(2.0), call("sqrt", u)))
    # abs: the sign of the argument, undefined (NaN) at zero
    return binop("/", u, call("abs", u))


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
            return _simplify_neg(simplify(child))
        case BinOp(op, left, right):
            return _simplify_binop(op, simplify(left), simplify(right))
        case Call(name, arg):
            return _simplify_call(name, simplify(arg))
    raise TypeError(f"not an expression node: {e!r}")


def _simplify_neg(child: Expression) -> Expression:
    match child:
        case Const(value):
            return Const(-value)
        case Neg(grandchild):
            return grandchild
    return Neg(child)


def _simplify_call(name: str, arg: Expression) -> Expression:
    if isinstance(arg, Const):
        folded = _fold(_FUNCTIONS[name], arg.value)
        if folded is not None:
            return folded
    return Call(name, arg)


def _fold(fn: Callable[..., float], *values: float) -> Const | None:
    # the constant evaluate gives, unless it is NaN or infinite
    try:
        value = fn(*values)
    except (ArithmeticError, ValueError):
        return None
    return Const(value) if math.isfinite(value) else None


def _simplify_binop(op: str, left: Expression, right: Expression) -> Expression:
    l = left.value if isinstance(left, Const) else None
    r = right.value if isinstance(right, Const) else None
    if l is not None and r is not None:
        folded = _fold(_OPERATORS[op], l, r)
        if folded is not None:
            return folded
    if op == "+":
        if l == 0.0:
            return right
        if r == 0.0:
            return left
    elif op == "-":
        if r == 0.0:
            return left
        if l == 0.0:
            return Neg(right)
    elif op == "*":
        if l == 1.0:
            return right
        if r == 1.0:
            return left
        if l == 0.0 or r == 0.0:
            return Const(0.0)
    elif op == "/":
        if r == 1.0:
            return left
        if l == 0.0:
            return Const(0.0)
    else:  # "^"
        if r == 1.0:
            return left
        if r == 0.0 or l == 1.0:
            # pow(x, 0) == 1 and pow(1, y) == 1 for every float y, NaN included
            return Const(1.0)
    return BinOp(op, left, right)


_RAW = (BinOp, Neg, Call, lambda e: e)
_SIMPLIFIED = (_simplify_binop, _simplify_neg, _simplify_call, simplify)
