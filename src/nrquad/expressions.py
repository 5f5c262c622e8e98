"""Univariate expression trees: parsing, evaluation, differentiation, printing.

Expressions are immutable trees over a single variable ``x``; their node
types, the source syntax, :func:`parse` and :func:`to_text` live in
``nrquad._syntax`` and are re-exported here.

Evaluation is total: domain violations (``ln`` of a negative, division
by zero, ...) yield NaN instead of raising, and callers are expected to
check finiteness.  The Newton steps take one point at a time, each from
the step before, and a tree walk costs many times a call per point, so
``_compile_scalar`` compiles an expression for single points: one
function per node, reading constant and ``x`` operands in place, and one
for a whole ``fn(x op c)`` such as ``ln(x+1)`` or a whole constant-scaled
``c op (x op d)``, ``c op fn(x op d)`` or ``c op (fn(x) op d)`` such as
``1.3*ln(x+1)`` or ``2.5*(exp(x)-1)``.  Each function binds its node's
operation and operands as default arguments, not as free variables, so
compiling creates no cells and an evaluation reads its operands as
locals.  ``evaluate`` builds one and calls it once; ``nr_integrate``
builds one for f and one for f', and validation samples f through f's.

The walks ``differentiate``, ``simplify`` and ``_closure`` dispatch
on ``type(e) is ...`` tests with the most frequent node type first, not on
class patterns, which each cost an ``isinstance`` check and field reads per
case tried.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from ._syntax import (  # noqa: F401 - re-exported
    _FUNCTIONS,
    _OPERATORS,
    _binop,
    _call,
    _const,
    _neg,
    FUNCTION_NAMES,
    MAX_DEPTH,
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
    return _compile_scalar(e)(x)


def _compile_scalar(e: Expression) -> Callable[[float], float]:
    def at(x: float, node: Callable[[float], float] = _closure(e)) -> float:
        try:
            return node(x)
        except (ArithmeticError, ValueError):
            return math.nan

    return at


def _closure(e: Expression) -> Callable[[float], float]:
    # each node's operation, left operand before right; a constant or x operand is read in place, not called.
    # Operands are defaults, not free variables, which would make every call create a cell for each of them
    kind = type(e)
    if kind is BinOp:
        fn = _OPERATORS[e.op]
        left, right = e.left, e.right
        if type(left) is Const:
            c, kind = left.value, type(right)
            if kind is Var:
                return lambda x, fn=fn, c=c: fn(c, x)
            # one function for a whole c op (x op d), c op h(x op d) or c op (h(x) op d), as for h(x op d) below
            if kind is BinOp and type(right.right) is Const:
                op, d, inner = _OPERATORS[right.op], right.right.value, right.left
                if type(inner) is Var:
                    return lambda x, fn=fn, c=c, op=op, d=d: fn(c, op(x, d))
                if type(inner) is Call and type(inner.arg) is Var:
                    return lambda x, fn=fn, c=c, op=op, h=_FUNCTIONS[inner.name], d=d: fn(c, op(h(x), d))
            elif kind is Call and type(arg := right.arg) is BinOp and type(arg.left) is Var and type(arg.right) is Const:
                h, op, d = _FUNCTIONS[right.name], _OPERATORS[arg.op], arg.right.value
                return lambda x, fn=fn, c=c, h=h, op=op, d=d: fn(c, h(op(x, d)))
            return lambda x, fn=fn, c=c, r=_closure(right): fn(c, r(x))
        if type(right) is Const:
            if type(left) is Var:
                return lambda x, fn=fn, c=right.value: fn(x, c)
            return lambda x, fn=fn, l=_closure(left), c=right.value: fn(l(x), c)
        return lambda x, fn=fn, l=_closure(left), r=_closure(right): fn(l(x), r(x))
    if kind is Const:
        return lambda x, value=e.value: value
    if kind is Var:
        return lambda x: x
    if kind is Call:
        fn, arg = _FUNCTIONS[e.name], e.arg
        if type(arg) is Var:
            return fn
        if type(arg) is BinOp and type(arg.left) is Var and type(arg.right) is Const:
            return lambda x, fn=fn, op=_OPERATORS[arg.op], c=arg.right.value: fn(op(x, c))
        return lambda x, fn=fn, inner=_closure(arg): fn(inner(x))
    if kind is Neg:
        return lambda x, inner=_closure(e.child): -inner(x)
    raise TypeError(f"not an expression node: {e!r}")


# nodes are immutable, so the derivative rules share one node for each literal they use
_ZERO, _ONE, _TWO = Const(0.0), Const(1.0), Const(2.0)


def differentiate(e: Expression) -> Expression:
    """Return the derivative of ``e`` with respect to ``x``, simplified.

    Applies the sum, product, quotient, chain and power rules; the
    derivative of ``u/c`` for a constant ``c`` is ``u'/c``, and that of
    ``c*u`` or ``u*c`` is ``c*u'`` or ``u'*c`` unless that is a zero.  A
    power with a non-constant exponent is handled through the
    ``exp(v*ln(u))`` rewrite, so evaluating its derivative at points with a
    non-positive base yields NaN.  The result is simplified: each node is
    built through :func:`simplify`'s rules, and each subtree of ``e`` a
    rule reuses is simplified, so the unsimplified derivative is never
    built.
    """
    kind = type(e)
    if kind is BinOp:
        op, left, right = e.op, e.left, e.right
        if op == "+" or op == "-":
            return _simplify_binop(op, differentiate(left), differentiate(right))
        if op == "*":
            # (c*u)' = c*u' and (u*c)' = u'*c: the general rule adds a 0*u or u*0 term that builds u only for
            # the sum to drop it.  Where c*u' folds to a zero, that term decides the sum's sign (-0.0 + 0.0 is
            # 0.0, and u*0 is -0.0 where u folds to a negative constant), so there the general rule runs in full
            if type(left) is Const:
                scaled = _simplify_binop("*", left, differentiate(right))
                if type(scaled) is not Const or scaled.value != 0.0:
                    return scaled
            elif type(right) is Const:
                scaled = _simplify_binop("*", differentiate(left), right)
                if type(scaled) is not Const or scaled.value != 0.0:
                    return scaled
            du_v = _simplify_binop("*", differentiate(left), simplify(right))
            return _simplify_binop("+", du_v, _simplify_binop("*", simplify(left), differentiate(right)))
        if op == "/" and type(right) is Const:
            # u'/c: the quotient rule's c^2 overflows for |c| past about 1e154
            return _simplify_binop("/", differentiate(left), right)
        if op == "/":
            v = simplify(right)
            du_v = _simplify_binop("*", differentiate(left), v)
            numerator = _simplify_binop("-", du_v, _simplify_binop("*", simplify(left), differentiate(right)))
            return _simplify_binop("/", numerator, _simplify_binop("^", v, _TWO))
        if op == "^" and type(right) is Const:
            c = right.value
            scaled = _simplify_binop("*", right, _simplify_binop("^", simplify(left), _const(c - 1.0)))
            return _simplify_binop("*", scaled, differentiate(left))
        # "^" (BinOp allows no other operator), u^v = exp(v*ln(u)):  (u^v)' = u^v * (v'*ln(u) + v*u'/u)
        u, v = simplify(left), simplify(right)
        dv_ln_u = _simplify_binop("*", differentiate(right), _simplify_call("ln", u))
        inner = _simplify_binop("+", dv_ln_u, _simplify_binop("*", v, _simplify_binop("/", differentiate(left), u)))
        return _simplify_binop("*", _simplify_binop("^", u, v), inner)
    if kind is Const:
        return _ZERO
    if kind is Var:
        return _ONE
    if kind is Call:
        return _simplify_binop("*", _outer_derivative(e, simplify(e.arg)), differentiate(e.arg))
    if kind is Neg:
        return _simplify_neg(differentiate(e.child))
    raise TypeError(f"not an expression node: {e!r}")


def _outer_derivative(e: Call, u: Expression) -> Expression:
    # exp, sqrt and abs reuse e itself where u is e's own argument, as simplify does
    name = e.name
    if name == "sin":
        return _simplify_call("cos", u)
    if name == "cos":
        return _simplify_neg(_simplify_call("sin", u))
    if name == "tan":
        return _simplify_binop("/", _ONE, _simplify_binop("^", _simplify_call("cos", u), _TWO))
    if name == "exp":
        return _simplify_call("exp", u, e)
    if name == "ln":
        return _simplify_binop("/", _ONE, u)
    if name == "sqrt":
        return _simplify_binop("/", _ONE, _simplify_binop("*", _TWO, _simplify_call("sqrt", u, e)))
    # abs: the sign of the argument, undefined (NaN) at zero
    return _simplify_binop("/", u, _simplify_call("abs", u, e))


def simplify(e: Expression) -> Expression:
    """Fold constants and drop neutral elements.

    Applies ``0+e -> e``, ``1*e -> e``, ``e^1 -> e``, ``0*e -> 0``,
    ``e^0 -> 1`` and the like, and folds constant subtrees when the folded
    value is finite.  Where ``e`` is defined and finite, each rewrite keeps
    the value, up to the sign of a zero.  Where it is not, ``0*e``, ``e*0``
    and ``0/e`` still give 0, and ``e^0`` and ``1^e`` still give 1:
    ``simplify(parse("0*ln(x)"))`` is 0 at ``x = -1``, where ``0*ln(x)`` is
    NaN.  No other domain-changing rewrite, such as ``e/e -> 1``, is made.
    """
    # a node whose operands come back as themselves and that no rule rewrites comes back as it is, not copied
    kind = type(e)
    if kind is BinOp:
        return _simplify_binop(e.op, simplify(e.left), simplify(e.right), e)
    if kind is Const or kind is Var:
        return e
    if kind is Call:
        return _simplify_call(e.name, simplify(e.arg), e)
    if kind is Neg:
        return _simplify_neg(simplify(e.child), e)
    raise TypeError(f"not an expression node: {e!r}")


def _simplify_neg(child: Expression, node: Neg | None = None) -> Expression:
    kind = type(child)
    if kind is Const:
        return _const(-child.value)
    if kind is Neg:
        return child.child
    return node if node is not None and node.child is child else _neg(child)


def _simplify_call(name: str, arg: Expression, node: Call | None = None) -> Expression:
    if type(arg) is Const:
        folded = _fold(_FUNCTIONS[name], arg.value)
        if folded is not None:
            return folded
    return node if node is not None and node.arg is arg else _call(name, arg)


def _fold(fn: Callable[..., float], *values: float) -> Const | None:
    # the constant evaluate gives, unless it is NaN or infinite
    try:
        value = fn(*values)
    except (ArithmeticError, ValueError):
        return None
    return _const(value) if math.isfinite(value) else None


def _simplify_binop(op: str, left: Expression, right: Expression, node: BinOp | None = None) -> Expression:
    l = left.value if type(left) is Const else None
    r = right.value if type(right) is Const else None
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
            return _simplify_neg(right)
    elif op == "*":
        if l == 1.0:
            return right
        if r == 1.0:
            return left
        if l == 0.0 or r == 0.0:
            return _ZERO
    elif op == "/":
        if r == 1.0:
            return left
        if l == 0.0:
            return _ZERO
    else:  # "^"
        if r == 1.0:
            return left
        if r == 0.0 or l == 1.0:
            # pow(x, 0) == 1 and pow(1, y) == 1 for every float y, NaN included
            return _ONE
    return node if node is not None and node.left is left and node.right is right else _binop(op, left, right)

