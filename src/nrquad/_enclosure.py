"""Outward-rounded interval enclosures, and the proof that f increases on [a, b].

``_enclose(e, lo, hi)`` walks ``e`` once and returns an interval that
holds every value of ``e`` for x in ``[lo, hi]``: the real values, and
the float values ``evaluate`` gives.  It walks the tree on every call
instead of compiling closures as ``expressions._closure`` does, because
validation encloses each f' only once; it and ``_has_x`` read ``Const``
and ``Var`` operands in place, as ``_closure`` does.  Each operation
moves its bounds one float outward with ``math.nextafter``, which covers
a correctly rounded operation and a libm function with an error under
one ulp (Moore, Kearfott & Cloud, *Introduction to Interval Analysis*,
SIAM 2009).  Where ``e`` may be undefined or infinite somewhere on the
interval it raises ``ArithmeticError`` or ``ValueError`` instead: at a
divisor that may be 0, ``ln`` or ``sqrt`` below its domain, a possible
``tan`` pole, a non-integer power of a base that may be negative, a
negative power of a base that may be 0, a varying exponent over a base
that may be <= 0, and an overflow.

``_proves_increasing`` is validation's proof path; see
``quadrature._validate``.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable

from .expressions import BinOp, Call, Const, Expression, Neg, Var

_MAX = sys.float_info.max
_INF = math.inf
_TAU = 2.0 * math.pi
_nextafter = math.nextafter


def _out(lo: float, hi: float) -> tuple[float, float]:
    # a bound at or past the largest float would widen to an infinity, which later bounds cannot use
    if -_MAX < lo and hi < _MAX:
        return _nextafter(lo, -_INF), _nextafter(hi, _INF)
    raise OverflowError("the enclosure overflows")


def _add(l1: float, h1: float, l2: float, h2: float) -> tuple[float, float]:
    return _out(l1 + l2, h1 + h2)


def _sub(l1: float, h1: float, l2: float, h2: float) -> tuple[float, float]:
    return _out(l1 - h2, h1 - l2)


def _mul(l1: float, h1: float, l2: float, h2: float) -> tuple[float, float]:
    if l1 >= 0.0 and l2 >= 0.0:
        return _out(l1 * l2, h1 * h2)
    products = (l1 * l2, l1 * h2, h1 * l2, h1 * h2)
    return _out(min(products), max(products))


def _div(l1: float, h1: float, l2: float, h2: float) -> tuple[float, float]:
    if l2 <= 0.0 <= h2:
        raise ZeroDivisionError("the divisor may be 0")
    quotients = (l1 / l2, l1 / h2, h1 / l2, h1 / h2)
    return _out(min(quotients), max(quotients))


def _pow(l1: float, h1: float, l2: float, h2: float) -> tuple[float, float]:
    if l2 == h2:  # one exponent c: x^c is monotone on each side of 0
        c = l2
        if c < 0.0 and l1 < 0.0 < h1:
            raise ZeroDivisionError("a negative power of a base that may be 0")
        # math.pow raises ValueError at an end that is negative under a non-integer c, or 0 under a negative one
        p, q = math.pow(l1, c), math.pow(h1, c)
        if l1 < 0.0 < h1 and c % 2.0 == 0.0:  # an even power falls to 0 at 0
            return _out(0.0, max(p, q))
        return _out(min(p, q), max(p, q))
    if l1 <= 0.0:
        raise ValueError("a varying power of a base that may be <= 0")
    # u^v = exp(v*ln(u)) is monotone in u and in v along each edge of the box, so a corner holds each extreme
    corners = (math.pow(l1, l2), math.pow(l1, h2), math.pow(h1, l2), math.pow(h1, h2))
    return _out(min(corners), max(corners))


_BINARY = {"+": _add, "-": _sub, "*": _mul, "/": _div, "^": _pow}


def _rising(fn: Callable[[float], float]) -> Callable[[float, float], tuple[float, float]]:
    # exp, ln or sqrt, each increasing on its domain; at a lower bound below it, fn raises ValueError
    return lambda lo, hi: _out(fn(lo), fn(hi))


def _abs(lo: float, hi: float) -> tuple[float, float]:
    if lo >= 0.0:
        return lo, hi
    if hi <= 0.0:
        return -hi, -lo
    return 0.0, max(-lo, hi)


def _reaches(lo: float, hi: float, phase: float) -> bool:
    # whether phase + 2k*pi is in [lo, hi] for an integer k; the slack outweighs the rounding of pi and
    # of this arithmetic, so a point it may wrongly count lies at most the slack outside the interval
    slack = 1e-9 * (1.0 + abs(lo) + abs(hi))
    k = math.floor((hi + slack - phase) / _TAU)
    return phase + k * _TAU >= lo - slack


def _wave(fn: Callable[[float], float], peak: float, lo: float, hi: float) -> tuple[float, float]:
    # sin or cos: monotone between a maximum at peak + 2k*pi and a minimum at peak + pi + 2k*pi
    if hi - lo >= _TAU:
        return -1.0, 1.0
    p, q = fn(lo), fn(hi)
    low, high = _out(min(p, q), max(p, q))
    if _reaches(lo, hi, peak):
        high = 1.0
    if _reaches(lo, hi, peak + math.pi):
        low = -1.0
    return low, high


def _sin(lo: float, hi: float) -> tuple[float, float]:
    return _wave(math.sin, 0.5 * math.pi, lo, hi)


def _cos(lo: float, hi: float) -> tuple[float, float]:
    return _wave(math.cos, 0.0, lo, hi)


def _tan(lo: float, hi: float) -> tuple[float, float]:
    # tan rises between poles pi apart; across one pole, within 3 < pi, tan(hi) < tan(lo) by at least pi - 3
    p, q = math.tan(lo), math.tan(hi)
    if hi - lo < 3.0 and p <= q:
        return _out(p, q)
    raise ZeroDivisionError("tan may have a pole in the interval")


_CALLS = {
    "sin": _sin,
    "cos": _cos,
    "tan": _tan,
    "exp": _rising(math.exp),
    "ln": _rising(math.log),
    "sqrt": _rising(math.sqrt),
    "abs": _abs,
}


def _enclose(e: Expression, lo: float, hi: float) -> tuple[float, float]:
    """``(low, high)`` with ``low <= evaluate(e, x) <= high`` for every x in [lo, hi]; see the module."""
    kind = type(e)
    if kind is BinOp:
        left, right = e.left, e.right
        l1, h1 = (left.value, left.value) if type(left) is Const else (lo, hi) if type(left) is Var else _enclose(left, lo, hi)
        l2, h2 = (right.value, right.value) if type(right) is Const else (lo, hi) if type(right) is Var else _enclose(right, lo, hi)
        return _BINARY[e.op](l1, h1, l2, h2)
    if kind is Const:
        return e.value, e.value
    if kind is Var:
        return lo, hi
    if kind is Call:
        return _CALLS[e.name](*((lo, hi) if type(e.arg) is Var else _enclose(e.arg, lo, hi)))
    if kind is Neg:
        low, high = _enclose(e.child, lo, hi)
        return -high, -low
    raise TypeError(f"not an expression node: {e!r}")


def _has_x(e: Expression) -> bool:
    """Whether ``e`` reads x; raises ``ValueError`` at a shape whose domain its derivative may drop.

    ``simplify``'s rules ``0*u``, ``u*0``, ``0/u``, ``u^0`` and ``1^u`` drop
    ``u`` and its domain, so a derivative built through them does too.
    The shapes are a ``*`` operand, ``/`` numerator or ``^`` exponent that
    has no x and is not a ``Const`` other than 0, and a ``^`` base that has
    no x and is not a ``Const`` other than 1.
    """
    kind = type(e)
    if kind is BinOp:
        op, left, right = e.op, e.left, e.right
        left_kind, right_kind = type(left), type(right)
        left_x = left_kind is Var or left_kind is not Const and _has_x(left)
        right_x = right_kind is Var or right_kind is not Const and _has_x(right)
        if op == "*" or op == "/" or op == "^":
            if not left_x and not (left_kind is Const and left.value != (1.0 if op == "^" else 0.0)):
                raise ValueError("an operand simplify may fold away")
            if op != "/" and not right_x and not (right_kind is Const and right.value != 0.0):
                raise ValueError("an operand simplify may fold away")
        return left_x or right_x
    if kind is Var:
        return True
    if kind is Const:
        return False
    if kind is Call:
        return type(e.arg) is Var or _has_x(e.arg)
    if kind is Neg:
        return _has_x(e.child)
    raise TypeError(f"not an expression node: {e!r}")


def _proves_increasing(f: Expression, df: Expression, a: float, b: float) -> bool:
    """Whether an enclosure of ``df``, f's simplified derivative, on [a, b] is finite and above 0.

    With f(a) and f(b) finite, each domain break of f inside [a, b] is a
    pole or a domain break of f' too (``ln u`` gives ``1/u``, ``sqrt u``
    ``1/(2*sqrt u)``, ``tan u`` ``1/cos(u)^2`` and ``u/v`` ``v^2``), unless
    ``simplify`` dropped it; ``_has_x`` turns those shapes away.
    """
    try:
        _has_x(f)
        low, _ = _enclose(df, a, b)
    except (ArithmeticError, ValueError):
        return False
    return low > 0.0
