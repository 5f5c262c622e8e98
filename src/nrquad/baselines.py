"""Classical quadrature rules on uniform partitions, plus a reference oracle.

left_riemann / right_riemann / midpoint / trapezoid / simpson are the
textbook composite rules; they evaluate their nodes a CHUNK at a time.
reference_integral is an adaptive Simpson integrator accurate far beyond
the rules it referees, and error_stats packages absolute and relative
error against such a reference.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import islice

from ._frozen import Frozen, set_field
from .expressions import Expression, evaluate, evaluate_many
from .quadrature import Interval


class NonfiniteSampleError(ValueError):
    """A rule sampled the integrand where it is not finite."""

    def __init__(self, x: float, value: float) -> None:
        super().__init__(f"integrand is not finite at sampled point x = {x!r} (value {value!r})")
        self.x = x
        self.value = value


class DepthLimitError(RuntimeError):
    """Adaptive bisection hit its depth cap; the input looks pathological."""


class ErrorStats(Frozen):
    """Absolute and percentage error of an approximation vs a reference."""

    __slots__ = ("approx", "reference", "abs_error", "rel_error_pct")

    def __init__(self, approx: float, reference: float, abs_error: float, rel_error_pct: float) -> None:
        set_field(self, "approx", approx)
        set_field(self, "reference", reference)
        set_field(self, "abs_error", abs_error)
        set_field(self, "rel_error_pct", rel_error_pct)


CHUNK = 256
"""Nodes the uniform rules generate and evaluate per :func:`evaluate_many` batch.

No list a rule builds is longer, so its memory is bounded for any ``n``."""


def _samples(f: Expression, xs: list[float]) -> list[float]:
    """f at each point of ``xs``; raises at the first point where it is not finite."""
    values = evaluate_many(f, xs)
    for x, value in zip(xs, values):
        if not math.isfinite(value):
            raise NonfiniteSampleError(x, value)
    return values


def _sum_samples(
    f: Expression,
    nodes: Iterator[float],
    total: float = 0.0,
    weights: Iterator[float] | None = None,
) -> float:
    """``total`` plus f (times its weight) at each node, added in node order."""
    while chunk := list(islice(nodes, CHUNK)):
        values = _samples(f, chunk)
        if weights is None:
            for value in values:
                total += value
        else:
            # values first: zip stops at the chunk's end without drawing a weight too many
            for value, weight in zip(values, weights):
                total += weight * value
    return total


def _check_subintervals(n: int) -> None:
    if n < 1:
        raise ValueError(f"subinterval count must be at least 1, got {n!r}")


def left_riemann(f: Expression, interval: Interval, n: int) -> float:
    """Rectangle rule sampling at left endpoints: h * sum f(a + i*h), i = 0..n-1."""
    _check_subintervals(n)
    a, b = interval.a, interval.b
    h = (b - a) / n
    return h * _sum_samples(f, (a + i * h for i in range(n)))


def right_riemann(f: Expression, interval: Interval, n: int) -> float:
    """Rectangle rule sampling at right endpoints: h * sum f(a + i*h), i = 1..n."""
    _check_subintervals(n)
    a, b = interval.a, interval.b
    h = (b - a) / n
    return h * _sum_samples(f, (a + i * h for i in range(1, n + 1)))


def midpoint(f: Expression, interval: Interval, n: int) -> float:
    """Midpoint rule: h * sum f(a + (i + 1/2)*h)."""
    _check_subintervals(n)
    a, b = interval.a, interval.b
    h = (b - a) / n
    return h * _sum_samples(f, (a + (i + 0.5) * h for i in range(n)))


def trapezoid(f: Expression, interval: Interval, n: int) -> float:
    """Composite trapezoid rule: h * (f(a)/2 + interior samples + f(b)/2)."""
    _check_subintervals(n)
    a, b = interval.a, interval.b
    h = (b - a) / n
    fa, fb = _samples(f, [a, b])
    return h * _sum_samples(f, (a + i * h for i in range(1, n)), 0.5 * (fa + fb))


def simpson(f: Expression, interval: Interval, n: int) -> float:
    """Composite Simpson rule over an even number of subintervals.

    Raises:
        ValueError: if ``n`` is odd.
    """
    _check_subintervals(n)
    if n % 2 != 0:
        raise ValueError(f"simpson needs an even subinterval count (got {n!r})")
    a, b = interval.a, interval.b
    h = (b - a) / n
    fa, fb = _samples(f, [a, b])
    weights = (4.0 if i % 2 else 2.0 for i in range(1, n))
    return h * _sum_samples(f, (a + i * h for i in range(1, n)), fa + fb, weights) / 3.0


def reference_integral(f: Expression, interval: Interval, tol: float = 1e-10) -> float:
    """High-accuracy oracle value via adaptive Simpson bisection.

    A panel is accepted when |S_whole - S_left - S_right| <= 15*tol (with
    the usual S/15 correction added); otherwise it splits, halving the
    tolerance, down to a recursion depth cap of 50.

    Raises:
        DepthLimitError: if the cap is hit, which is what NaN regions or
            non-smooth pathologies turn into.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    a, b = interval.a, interval.b
    fa = evaluate(f, a)
    fb = evaluate(f, b)
    m = 0.5 * (a + b)
    fm = evaluate(f, m)
    whole = _simpson_estimate(fa, fm, fb, b - a)
    return _adaptive(f, a, b, fa, fm, fb, whole, tol, depth=0)


_MAX_DEPTH = 50


def _simpson_estimate(fa: float, fm: float, fb: float, width: float) -> float:
    return (width / 6.0) * (fa + 4.0 * fm + fb)


def _adaptive(
    f: Expression,
    a: float,
    b: float,
    fa: float,
    fm: float,
    fb: float,
    whole: float,
    tol: float,
    depth: int,
) -> float:
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = evaluate(f, lm)
    frm = evaluate(f, rm)
    left = _simpson_estimate(fa, flm, fm, m - a)
    right = _simpson_estimate(fm, frm, fb, b - m)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth >= _MAX_DEPTH:
        raise DepthLimitError(
            f"adaptive bisection exceeded depth {_MAX_DEPTH} on [{a!r}, {b!r}]; "
            "the integrand looks non-integrable or undefined there"
        )
    half_tol = tol / 2.0
    return _adaptive(f, a, m, fa, flm, fm, left, half_tol, depth + 1) + _adaptive(
        f, m, b, fm, frm, fb, right, half_tol, depth + 1
    )


def error_stats(approx: float, reference: float) -> ErrorStats:
    """Absolute error and its percentage of |reference|.

    The percentage is NaN when the reference is zero (undefined).
    """
    abs_error = abs(reference - approx)
    if reference != 0.0:
        rel_error_pct = 100.0 * abs_error / abs(reference)
    else:
        rel_error_pct = math.nan
    return ErrorStats(approx=approx, reference=reference, abs_error=abs_error, rel_error_pct=rel_error_pct)
