"""Classical quadrature rules on uniform partitions, plus a reference oracle.

left_riemann / right_riemann / midpoint / trapezoid / simpson are the
textbook composite rules.  They share one pass over the uniform grid that
evaluates each distinct node once, interior nodes and midpoints as two
streams in batches of up to CHUNK points, and searches a batch for a
nonfinite sample only where a rule's running total is not finite after it:
all five rules on n subintervals take 2n + 3 points, 5n + 2 one at a time.
The pass compiles f once into a batch evaluator, a chain of lazy ``map``
iterators with one per node (``_compile_batch``), which gives the bits of
the scalar closures of ``nrquad.expressions``; no other module evaluates
batches.
reference_integral is an adaptive Simpson integrator accurate far beyond
the rules it referees; error_stats packages absolute and relative error
against such a reference.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import cycle, repeat

from ._frozen import Frozen, slot_setters
from .expressions import _FUNCTIONS, _OPERATORS, BinOp, Call, Const, Expression, Neg, Var, _compile_scalar
from .newton import _positive
from .quadrature import Interval


class NonfiniteSampleError(ValueError):
    """A rule sampled the integrand where it is not finite."""

    def __init__(self, x: float, value: float) -> None:
        super().__init__(f"integrand is not finite at sampled point x = {x!r} (value {value!r})")
        self.x = x
        self.value = value


class DepthLimitError(RuntimeError):
    """Adaptive bisection hit its depth cap or its point budget; the input looks pathological."""


class ErrorStats(Frozen):
    """Absolute and percentage error of an approximation vs a reference."""

    __slots__ = ("approx", "reference", "abs_error", "rel_error_pct")

    def __init__(self, approx: float, reference: float, abs_error: float, rel_error_pct: float) -> None:
        _set_approx(self, approx)
        _set_reference(self, reference)
        _set_abs_error(self, abs_error)
        _set_rel_error_pct(self, rel_error_pct)


_set_approx, _set_reference, _set_abs_error, _set_rel_error_pct = slot_setters(ErrorStats)


def _compile_batch(e: Expression) -> Callable[[Sequence[float]], list[float]]:
    """``[evaluate(e, x) for x in xs]`` as a function of ``xs``, through a chain of ``map`` iterators.

    A batch in which some point raises is evaluated again one point at a
    time through ``_compile_scalar(e)``, built on the first such batch, so
    that point is NaN, as with ``evaluate`` (also where NaN would not
    reach the root: ``pow(nan, 0) == 1``).
    """
    chain = _chain(e)
    at = None

    def many(xs: Sequence[float]) -> list[float]:
        nonlocal at
        try:
            return list(chain(xs))
        except (ArithmeticError, ValueError):
            if at is None:
                at = _compile_scalar(e)
            return [at(x) for x in xs]

    return many


def _chain(e: Expression) -> Callable[[Sequence[float]], Iterator[float]]:
    # the scalar closure's operations in its order, one point at a time as list() pulls it through the maps;
    # a constant repeats len(xs) times, since an endless repeat under a constant subtree never stops
    kind = type(e)
    if kind is BinOp:
        return lambda xs, fn=_OPERATORS[e.op], l=_chain(e.left), r=_chain(e.right): map(fn, l(xs), r(xs))
    if kind is Const:
        return lambda xs, value=e.value: repeat(value, len(xs))
    if kind is Var:
        return lambda xs: xs
    if kind is Call:
        return lambda xs, fn=_FUNCTIONS[e.name], inner=_chain(e.arg): map(fn, inner(xs))
    if kind is Neg:
        return lambda xs, inner=_chain(e.child): map(operator.neg, inner(xs))
    raise TypeError(f"not an expression node: {e!r}")


CHUNK = 4096
"""Most points per call of the batch evaluator that ``_compile_batch`` builds: the uniform rules
take their interior nodes and their midpoints as two streams, each in batches of up to ``CHUNK``
points.  No list they build is longer, so their memory is bounded for any ``n``."""


def _grid_rules(f: Expression, interval: Interval, n: int, rules: Iterable[str]) -> dict[str, float | ValueError]:
    """The named uniform rules on ``n`` subintervals, from one pass over the grid.

    Maps each name in ``rules`` (``left_riemann``, ``right_riemann``,
    ``midpoint``, ``trapezoid``, ``simpson``) to the rule's value, or to the
    ``ValueError`` that the rule of that name raises.  f is compiled into one
    batch evaluator where ``n`` is valid, and evaluated once at each node
    that a named rule needs: the end nodes first, then the interior nodes
    ``a + i*h`` and then the midpoints, each in batches of up to ``CHUNK``.
    The end nodes are left's ``a + 0*h``, right's ``a + n*h`` and
    trapezoid's and Simpson's ``a`` and ``b``; they are not merged, because
    ``a + 0*h`` is not ``a`` when ``a`` is -0.0 or ``h`` is infinite.  Each
    rule adds up its samples in its own node order and fails at the first
    one that is not finite.  Such a sample leaves the rule's running total
    nonfinite, so only a batch after which a total is not finite, as after
    finite samples overflow it, is searched for one.
    """
    rules = set(rules)
    try:
        operator.index(n)
    except TypeError:
        return {rule: ValueError(f"subinterval count must be an integer, got {n!r}") for rule in rules}
    if n < 1:
        return {rule: ValueError(f"subinterval count must be at least 1, got {n!r}") for rule in rules}
    outcomes: dict[str, float | ValueError] = {}
    if "simpson" in rules and n % 2 != 0:
        outcomes["simpson"] = ValueError(f"simpson needs an even subinterval count (got {n!r})")
    many = _compile_batch(f)
    a, b = interval.a, interval.b
    h = (b - a) / n
    totals = {rule: 0.0 for rule in rules - outcomes.keys()}  # running sums of the rules not failed yet

    def failed(names: list[str], xs: list[float], values: list[float]) -> bool:
        """Whether a value is not finite; if so, ``names``, which just added ``values`` up, fail at its point of ``xs``."""
        if all(map(math.isfinite, map(totals.get, names))):
            return False
        sample = next(((x, value) for x, value in zip(xs, values) if not math.isfinite(value)), None)
        if sample is None:  # finite samples overflowed a total
            return False
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
    f_end = dict(zip(ends, many(list(ends.values())))) if ends else {}
    if "left_riemann" in totals:
        totals["left_riemann"] += f_end["first"]
        failed(["left_riemann"], [ends["first"]], [f_end["first"]])
    if pair := [rule for rule in totals if rule in ("trapezoid", "simpson")]:
        fa, fb = f_end["a"], f_end["b"]
        totals.update((rule, 0.5 * (fa + fb) if rule == "trapezoid" else fa + fb) for rule in pair)
        failed(pair, [a, b], [fa, fb])
    interior_rules = [rule for rule in totals if rule != "midpoint"]  # in one node order
    mid_rules = [rule for rule in totals if rule == "midpoint"]
    weights = cycle((4.0, 2.0))  # simpson's, from i = 1
    for names, mid in (interior_rules, False), (mid_rules, True):
        for lo in range(0 if mid else 1, n if names else 0, CHUNK):
            hi = min(lo + CHUNK, n)
            xs = [a + (i + 0.5) * h for i in range(lo, hi)] if mid else [a + i * h for i in range(lo, hi)]
            values = many(xs)
            for rule in names:
                total = totals[rule]
                if rule == "simpson":
                    # values first: zip stops at the batch's end without drawing a weight too many
                    for value, weight in zip(values, weights):
                        total += weight * value
                else:
                    for value in values:
                        total += value
                totals[rule] = total
            if failed(names, xs, values):
                break
    if "right_riemann" in totals:
        totals["right_riemann"] += f_end["last"]
        failed(["right_riemann"], [ends["last"]], [f_end["last"]])
    for rule, total in totals.items():
        outcomes[rule] = h * total / 3.0 if rule == "simpson" else h * total
    return outcomes


def _rule(name: str, f: Expression, interval: Interval, n: int) -> float:
    outcome = _grid_rules(f, interval, n, [name])[name]
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
    tolerance, down to a depth cap of 50.  The recursion is depth-first,
    left half before right, so it holds one panel per level and a failing
    input spends nothing right of the panel that fails; it evaluates one
    point at a time, at most 2**20 points.

    Raises:
        DepthLimitError: if the cap is hit, which is what NaN regions or
            non-smooth pathologies turn into, or if the next panel would
            take the points past 2**20, which is what an integrand
            oscillating ever faster turns into.
    """
    if not _positive(tol):
        raise ValueError(f"tol must be positive, got {tol!r}")
    at = _compile_scalar(f)
    points = 3

    def adaptive(a: float, b: float, fa: float, fm: float, fb: float, whole: float, tol: float, depth: int) -> float:
        nonlocal points
        points += 2
        if points > _MAX_POINTS:
            raise DepthLimitError(
                f"adaptive bisection exceeded its budget of {_MAX_POINTS} points "
                f"on [{a!r}, {b!r}]; the integrand looks too irregular to integrate there"
            )
        m = 0.5 * (a + b)
        flm, frm = at(0.5 * (a + m)), at(0.5 * (m + b))
        left = ((m - a) / 6.0) * (fa + 4.0 * flm + fm)
        right = ((b - m) / 6.0) * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        if abs(delta) <= 15.0 * tol:
            return left + right + delta / 15.0
        if depth >= _MAX_DEPTH:
            raise DepthLimitError(
                f"adaptive bisection exceeded depth {_MAX_DEPTH} on [{a!r}, {b!r}]; "
                "the integrand looks non-integrable or undefined there"
            )
        return adaptive(a, m, fa, flm, fm, left, tol / 2.0, depth + 1) + adaptive(
            m, b, fm, frm, fb, right, tol / 2.0, depth + 1
        )

    a, b = interval.a, interval.b
    m = 0.5 * (a + b)
    fa, fm, fb = at(a), at(m), at(b)
    return adaptive(a, b, fa, fm, fb, ((b - a) / 6.0) * (fa + 4.0 * fm + fb), tol, 0)


_MAX_DEPTH = 50

# the most points the reference evaluates: the benchmark's inputs take at most a few thousand, and one
# that never finishes, such as sin(tan(0.616-x)) on [-1, 1], stops in about 0.4 s on a 2-vCPU virtual machine
_MAX_POINTS = 2**20


def error_stats(approx: float, reference: float) -> ErrorStats:
    """Absolute error and its percentage of |reference|.

    The percentage is NaN when the reference is zero (undefined).
    """
    abs_error = abs(reference - approx)
    if reference != 0.0:
        rel_error_pct = 100.0 * abs_error / abs(reference)
        if math.isinf(rel_error_pct) and math.isfinite(abs_error):
            # 100*abs_error overflows past about 1.8e306; dividing first keeps every other percentage's bits
            rel_error_pct = 100.0 * (abs_error / abs(reference))
    else:
        rel_error_pct = math.nan
    return ErrorStats(approx=approx, reference=reference, abs_error=abs_error, rel_error_pct=rel_error_pct)
