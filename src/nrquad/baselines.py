"""Classical quadrature rules on uniform partitions, plus a reference oracle.

left_riemann / right_riemann / midpoint / trapezoid / simpson are the
textbook composite rules.  They share one pass over the uniform grid, which
evaluates its nodes a CHUNK at a time and each distinct node once: all five
rules on n subintervals take 2n + 3 points together, 5n + 2 one at a time.
reference_integral is an adaptive Simpson integrator accurate far beyond
the rules it referees; it evaluates the quarter points of the leftmost
CHUNK // 2 pending panels at a time.  error_stats packages absolute and
relative error against such a reference.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from itertools import cycle

from ._frozen import Frozen, set_field
from .expressions import Expression, _Compiled
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
"""Points per batch through the compiled kernel: the uniform rules' interior nodes
or midpoints (``CHUNK // 2`` of each when both are needed), or the
reference's quarter points of ``CHUNK // 2`` panels.

No list a rule builds is longer, so its memory is bounded for any ``n``."""


def _grid_rules(f: _Compiled, interval: Interval, n: int, rules: Iterable[str]) -> dict[str, float | ValueError]:
    """The named uniform rules on ``n`` subintervals, from one pass over the grid.

    Maps each name in ``rules`` (``left_riemann``, ``right_riemann``,
    ``midpoint``, ``trapezoid``, ``simpson``) to the rule's value, or to the
    ``ValueError`` that the rule of that name raises.  f is evaluated once at
    each node that a named rule needs: the end nodes first, then the interior
    nodes ``a + i*h`` and the midpoints, a chunk at a time.  The end nodes are
    left's ``a + 0*h``, right's ``a + n*h`` and trapezoid's and Simpson's
    ``a`` and ``b``; they are not merged, because ``a + 0*h`` is not ``a``
    when ``a`` is -0.0 or ``h`` is infinite.  Each rule adds up its samples in
    its own node order and fails at the first one that is not finite.
    """
    rules = set(rules)
    if n < 1:
        return {rule: ValueError(f"subinterval count must be at least 1, got {n!r}") for rule in rules}
    outcomes: dict[str, float | ValueError] = {}
    if "simpson" in rules and n % 2 != 0:
        outcomes["simpson"] = ValueError(f"simpson needs an even subinterval count (got {n!r})")
    a, b = interval.a, interval.b
    h = (b - a) / n
    totals = {rule: 0.0 for rule in rules - outcomes.keys()}  # running sums of the rules not failed yet

    def failed(names: list[str], xs: list[float], values: list[float]) -> bool:
        """Whether a value is not finite; if so, ``names`` fail at the first such point of ``xs``."""
        if all(map(math.isfinite, values)):
            return False
        sample = next((x, value) for x, value in zip(xs, values) if not math.isfinite(value))
        for rule in names:
            outcomes[rule] = NonfiniteSampleError(*sample)
            del totals[rule]
        return True

    ends = {}
    if "left_riemann" in totals:
        ends["first"] = a + 0 * h
    if "right_riemann" in totals:
        ends["last"] = a + n * h
    if totals.keys() & {"trapezoid", "simpson"}:
        ends["a"], ends["b"] = a, b
    f_end = dict(zip(ends, f.many(list(ends.values())))) if ends else {}
    if "left_riemann" in totals and not failed(["left_riemann"], [ends["first"]], [f_end["first"]]):
        totals["left_riemann"] += f_end["first"]
    for rule in totals.keys() & {"trapezoid", "simpson"}:
        if not failed([rule], [a, b], [f_end["a"], f_end["b"]]):
            fa, fb = f_end["a"], f_end["b"]
            totals[rule] = 0.5 * (fa + fb) if rule == "trapezoid" else fa + fb

    # every rule but midpoint samples the interior nodes, in the same order
    interior_rules = [rule for rule in totals if rule != "midpoint"]
    mid_rules = [rule for rule in totals if rule == "midpoint"]
    weights = cycle((4.0, 2.0))  # simpson's, from i = 1
    step = CHUNK // 2 if interior_rules and mid_rules else CHUNK
    for lo in range(0, n, step):
        if not interior_rules and not mid_rules:
            break
        hi = min(lo + step, n)
        interior = [a + i * h for i in range(max(lo, 1), hi)] if interior_rules else []
        mids = [a + (i + 0.5) * h for i in range(lo, hi)] if mid_rules else []
        values = f.many(interior + mids)
        streams = (interior_rules, interior, values[: len(interior)]), (mid_rules, mids, values[len(interior) :])
        for names, xs, samples in streams:
            if xs and failed(names, xs, samples):
                names.clear()
            for rule in names:
                total = totals[rule]
                if rule == "simpson":
                    # values first: zip stops at the chunk's end without drawing a weight too many
                    for value, weight in zip(samples, weights):
                        total += weight * value
                else:
                    for value in samples:
                        total += value
                totals[rule] = total
    if "right_riemann" in totals and not failed(["right_riemann"], [ends["last"]], [f_end["last"]]):
        totals["right_riemann"] += f_end["last"]
    for rule, total in totals.items():
        outcomes[rule] = h * total / 3.0 if rule == "simpson" else h * total
    return outcomes


def _rule(name: str, f: Expression, interval: Interval, n: int) -> float:
    outcome = _grid_rules(_Compiled(f), interval, n, [name])[name]
    if isinstance(outcome, ValueError):
        raise outcome
    return outcome


def left_riemann(f: Expression, interval: Interval, n: int) -> float:
    """Rectangle rule sampling at left endpoints: h * sum f(a + i*h), i = 0..n-1."""
    return _rule("left_riemann", f, interval, n)


def right_riemann(f: Expression, interval: Interval, n: int) -> float:
    """Rectangle rule sampling at right endpoints: h * sum f(a + i*h), i = 1..n."""
    return _rule("right_riemann", f, interval, n)


def midpoint(f: Expression, interval: Interval, n: int) -> float:
    """Midpoint rule: h * sum f(a + (i + 1/2)*h)."""
    return _rule("midpoint", f, interval, n)


def trapezoid(f: Expression, interval: Interval, n: int) -> float:
    """Composite trapezoid rule: h * (f(a)/2 + interior samples + f(b)/2)."""
    return _rule("trapezoid", f, interval, n)


def simpson(f: Expression, interval: Interval, n: int) -> float:
    """Composite Simpson rule over an even number of subintervals.

    Raises:
        ValueError: if ``n`` is odd.
    """
    return _rule("simpson", f, interval, n)


def reference_integral(f: Expression, interval: Interval, tol: float = 1e-10) -> float:
    """High-accuracy oracle value via adaptive Simpson bisection.

    A panel is accepted when |S_whole - S_left - S_right| <= 15*tol (with
    the usual S/15 correction added); otherwise it splits, halving the
    tolerance, down to a depth cap of 50.

    Pending panels wait on a stack with the leftmost on top.  Each round
    takes up to ``CHUNK // 2`` of the leftmost and evaluates their quarter
    points in one batch.  Accepted values are added
    up the bisection tree as each pair of halves completes, so the result
    is bit-identical to a depth-first recursion's.  The first panel to
    fail at the cap is the leftmost one, the one a depth-first walk raises
    on; before it, at most about one batch per level is spent on panels to
    its right.

    Raises:
        DepthLimitError: if the cap is hit, which is what NaN regions or
            non-smooth pathologies turn into.
    """
    return _reference_integral(_Compiled(f), interval, tol)


def _reference_integral(f: _Compiled, interval: Interval, tol: float = 1e-10) -> float:
    """:func:`reference_integral` on a compiled integrand."""
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    a, b = interval.a, interval.b
    m = 0.5 * (a + b)
    fa, fb, fm = f.many([a, b, m])
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
        quarters = f.many(xs)
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
