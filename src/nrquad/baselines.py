"""Classical quadrature rules on uniform partitions, plus a reference oracle.

left_riemann / right_riemann / midpoint / trapezoid / simpson are the
textbook composite rules; they evaluate their nodes a CHUNK at a time.
reference_integral is an adaptive Simpson integrator accurate far beyond
the rules it referees; it evaluates the quarter points of the leftmost
CHUNK // 2 pending panels at a time.  error_stats packages absolute and
relative error against such a reference.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import islice

from ._frozen import Frozen, set_field
# nothing here calls evaluate; bench/tracing.py wraps it under this name
from .expressions import Expression, evaluate, evaluate_many  # noqa: F401
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
"""Points per :func:`evaluate_many` batch: a uniform rule's nodes, or the
reference's quarter points of ``CHUNK // 2`` panels.

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
    tolerance, down to a depth cap of 50.

    Pending panels wait on a stack with the leftmost on top.  Each round
    takes up to ``CHUNK // 2`` of the leftmost and evaluates their quarter
    points in one :func:`evaluate_many` batch.  Accepted values are added
    up the bisection tree as each pair of halves completes, so the result
    is bit-identical to a depth-first recursion's.  The first panel to
    fail at the cap is the leftmost one, the one a depth-first walk raises
    on; before it, at most about one batch per level is spent on panels to
    its right.

    Raises:
        DepthLimitError: if the cap is hit, which is what NaN regions or
            non-smooth pathologies turn into.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    a, b = interval.a, interval.b
    m = 0.5 * (a + b)
    fa, fb, fm = evaluate_many(f, [a, b, m])
    # a panel: depth, node, a, b, f(a), f(mid), f(b), Simpson estimate, tol; the
    # node numbers the bisection tree from 1 at the root, and node n's halves are 2n and 2n + 1
    pending = [(0, 1, a, b, fa, fm, fb, _simpson_estimate(fa, fm, fb, b - a), tol)]
    # values of finished panels whose sibling is not finished yet, by node
    accepted: dict[int, float] = {}
    while pending:
        batch = pending[-(CHUNK // 2) :]
        del pending[-(CHUNK // 2) :]
        batch.reverse()  # the stack's top is the list's end; work left to right
        xs = []
        for panel in batch:
            a, b = panel[2], panel[3]
            m = 0.5 * (a + b)
            xs += (0.5 * (a + m), 0.5 * (m + b))
        quarters = evaluate_many(f, xs)
        children = []
        for (depth, node, a, b, fa, fm, fb, whole, tol), flm, frm in zip(batch, quarters[::2], quarters[1::2]):
            m = 0.5 * (a + b)
            left = _simpson_estimate(fa, flm, fm, m - a)
            right = _simpson_estimate(fm, frm, fb, b - m)
            delta = left + right - whole
            if abs(delta) <= 15.0 * tol:
                value = left + right + delta / 15.0
                # add up each pair of halves this completes, as the recursion does; storing
                # only unpaired values keeps memory bounded on inputs that run long
                while (sibling := accepted.pop(node ^ 1, None)) is not None:
                    value += sibling
                    node >>= 1
                accepted[node] = value
            elif depth >= _MAX_DEPTH:
                # depth never grows from left to right along the stack, so every panel
                # left of this one was at the cap too and is done: this is the leftmost failure
                raise DepthLimitError(
                    f"adaptive bisection exceeded depth {_MAX_DEPTH} on [{a!r}, {b!r}]; "
                    "the integrand looks non-integrable or undefined there"
                )
            else:
                children += (
                    (depth + 1, 2 * node, a, m, fa, flm, fm, left, tol / 2.0),
                    (depth + 1, 2 * node + 1, m, b, fm, frm, fb, right, tol / 2.0),
                )
        pending += reversed(children)
    return accepted[1]


_MAX_DEPTH = 50


def _simpson_estimate(fa: float, fm: float, fb: float, width: float) -> float:
    return (width / 6.0) * (fa + 4.0 * fm + fb)


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
