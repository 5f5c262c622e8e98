"""Trapezoid quadrature on a Newton-Raphson partition.

Approximates the integral of an increasing function f over [a, b], where
f has its root at the lower limit a, by running Newton's method from
x0 = b towards a and summing the trapezoid panels spanned by consecutive
iterates.  Each panel's width is the Newton step f(x_k)/f'(x_k), which
equals |x_k - x_{k+1}| by construction, and its parallel sides are
f(x_k) and f(x_{k+1}):

    area_k = 1/2 * (f(x_k)/f'(x_k)) * (f(x_k) + f(x_{k+1}))

The final panel is nearly a triangle because f at the last iterate is
close to f(a) = 0.  The sliver between the last iterate and a is ignored
by default and can be covered by an optional closing triangle.

Because the partition is fixed by the Newton steps (the panels near b
never refine as tolerances shrink), the rule carries an irreducible
chord-above-curve excess on convex integrands; see the package README
for measured figures.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from enum import Enum

from ._enclosure import _proves_increasing
from ._frozen import Frozen, slot_setters
from .expressions import Expression, _compile_scalar, differentiate, evaluate
from .newton import (
    NewtonTrace,
    NonfiniteValueError,
    StoppingCriteria,
    Termination,
    _finite,
    _iterate,
    _step,
)

VALIDATION_SAMPLES = 64


class QuadStatus(str, Enum):
    OK = "ok"
    CLAMPED = "clamped"
    BUDGET_EXHAUSTED = "budget-exhausted"


# a result's status, by why its iteration stopped; any other termination is ok
_STATUS = {Termination.OVERSHOOT_CLAMPED: QuadStatus.CLAMPED, Termination.MAX_ITERATIONS: QuadStatus.BUDGET_EXHAUSTED}


class Interval(Frozen):
    """Integration bounds with ``a < b``; ``a`` is where the root lives."""

    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float) -> None:
        if not (_finite(a) and _finite(b)):
            raise ValueError(f"interval bounds must be finite, got [{a!r}, {b!r}]")
        if not a < b:
            raise ValueError(f"interval requires a < b, got [{a!r}, {b!r}]")
        _set_a(self, a)
        _set_b(self, b)


_set_a, _set_b = slot_setters(Interval)


class _Criteria(Frozen):
    # the StoppingCriteria NrQuadSettings checks its fields with, kept so nr_integrate builds none per call
    __slots__ = ("_stop",)


(_set_stop,) = slot_setters(_Criteria)


class NrQuadSettings(_Criteria):
    """Knobs for :func:`nr_integrate`.

    Stopping follows proximity to ``a`` (``tol_x``) or a small residual
    (``tol_f``; ``None`` means scale-aware ``1e-9 * max(1, |f(b)|)``).
    ``closing_triangle`` appends ``1/2 * (x_last - a) * f(x_last)`` for the
    leftover sliver.  ``validate`` runs :func:`validate_problem` first.
    """

    __slots__ = ("tol_x", "tol_f", "max_iter", "closing_triangle", "validate")

    def __init__(
        self,
        tol_x: float = 1e-6,
        tol_f: float | None = None,
        max_iter: int = 100,
        closing_triangle: bool = False,
        validate: bool = True,
    ) -> None:
        # raises on a bad tolerance or budget; nr_integrate iterates under it, with its own target
        _set_stop(self, StoppingCriteria(tol_x=tol_x, tol_f=tol_f, max_iter=max_iter))
        _set_tol_x(self, tol_x)
        _set_tol_f(self, tol_f)
        _set_max_iter(self, max_iter)
        _set_closing_triangle(self, closing_triangle)
        _set_validate(self, validate)


_set_tol_x, _set_tol_f, _set_max_iter, _set_closing_triangle, _set_validate = slot_setters(NrQuadSettings)


_DEFAULT_SETTINGS = NrQuadSettings()  # frozen, so every call without settings shares it


class QuadResult(Frozen):
    """Outcome of :func:`nr_integrate`.

    ``areas[k]`` is the area of the panel under ``trace.steps[k]``, whose
    width is that step.  ``value`` is the areas plus ``closing_area``,
    added one at a time in that order.  ``residual_gap`` is
    ``|x_last - a|``, the width of the uncovered sliver (zero after a
    clamp).
    """

    __slots__ = ("value", "areas", "closing_area", "residual_gap", "trace")

    def __init__(
        self, value: float, areas: tuple[float, ...], closing_area: float, residual_gap: float, trace: NewtonTrace
    ) -> None:
        _set_value(self, value)
        _set_areas(self, areas)
        _set_closing_area(self, closing_area)
        _set_residual_gap(self, residual_gap)
        _set_trace(self, trace)

    @property
    def status(self) -> QuadStatus:
        """``clamped`` after an overshoot clamp, ``budget-exhausted`` when the iterations ran out, else ``ok``."""
        return _STATUS.get(self.trace.termination, QuadStatus.OK)


_set_value, _set_areas, _set_closing_area, _set_residual_gap, _set_trace = slot_setters(QuadResult)


class ValidationReport(Frozen):
    """Precondition checks of :func:`validate_problem`.

    ``monotone_increasing`` is proved where an interval enclosure of f'
    on [a, b] is above 0; elsewhere it is a heuristic from 64 samples,
    not a proof.  ``root_at_a`` and ``derivative_positive_at_b`` come from
    f at the first sample point and f' at b.
    """

    __slots__ = ("monotone_increasing", "root_at_a", "derivative_positive_at_b", "messages")

    def __init__(
        self, monotone_increasing: bool, root_at_a: bool, derivative_positive_at_b: bool, messages: tuple[str, ...]
    ) -> None:
        _set_monotone(self, monotone_increasing)
        _set_root_at_a(self, root_at_a)
        _set_derivative_positive(self, derivative_positive_at_b)
        _set_messages(self, messages)

    @property
    def passed(self) -> bool:
        return self.monotone_increasing and self.root_at_a and self.derivative_positive_at_b


_set_monotone, _set_root_at_a, _set_derivative_positive, _set_messages = slot_setters(ValidationReport)


class ValidationError(Exception):
    """Raised when validation is enabled and the problem fails its checks."""

    def __init__(self, report: ValidationReport) -> None:
        super().__init__("; ".join(report.messages) or "validation failed")
        self.report = report


def validate_problem(f: Expression, interval: Interval) -> ValidationReport:
    """Check that the problem fits the rule's hypotheses, by a proof where one is found, else by sampling.

    Reports whether f is nondecreasing on [a, b], whether |f(a)| is small
    relative to |f(b)|, and whether f'(b) > 0.  Monotonicity is proved
    when f(a) and f(b) are finite and an outward-rounded interval
    enclosure of f' on [a, b] is finite and above 0, unless ``simplify``
    may have dropped a domain break of f from f' (see
    ``nrquad._enclosure``); f is then evaluated at b and at the first
    sample point only.  Otherwise f is sampled at ``VALIDATION_SAMPLES``
    (64) equally spaced points, which must be finite and nondecreasing.
    The 63 points before b are ``a + i*h`` with ``h = (b - a)/63``, or
    ``a*(1 - i/63) + b*(i/63)`` where ``b - a`` overflows.  Every value of
    f comes from one scalar closure, a point at a time; no batch evaluator
    is built.  The proof is about f's real values: where f' is tiny,
    rounding alone can make f's float samples fall, and a proof still
    reports f as nondecreasing.  Findings are returned, never raised.
    """
    f_at, df, b = _compile_scalar(f), differentiate(f), interval.b
    return _validate(f, df, f_at, interval, f_at(b), evaluate(df, b))[0]


def _validate(
    f: Expression, df: Expression, f_at: Callable[[float], float], interval: Interval, f_b: float, df_b: float
) -> tuple[ValidationReport, float]:
    """:func:`validate_problem` given f', f's scalar evaluator, f(b) and f'(b); also f(a + 0.0), for a clamp to reuse.

    The proof path calls ``f_at`` once, at ``a + 0.0``, the first sample
    point of the sampled path (``a + 0*h``, or ``a*1.0 + b*0.0``), which is
    0.0 where a is -0.0; the sampled path calls it at its 63 samples before
    b.  It builds no evaluator of its own.
    """
    a, b = interval.a, interval.b
    messages: list[str] = []
    f_a = f_at(a + 0.0) if math.isfinite(f_b) and _proves_increasing(f, df, a, b) else math.nan
    if math.isfinite(f_a):
        monotone = True
    else:
        n = VALIDATION_SAMPLES - 1
        h = (b - a) / n
        if math.isfinite(h):
            xs = [a + i * h for i in range(n)]
        else:  # b - a overflows, so a < 0 < b, and the two products have opposite signs and sum inside [a, b]
            xs = [a * (1.0 - i / n) + b * (i / n) for i in range(n)]
        values = [f_at(x) for x in xs]
        xs.append(b)
        values.append(f_b)
        monotone, f_a = True, values[0]
        for i in range(len(values) - 1):
            if not (math.isfinite(values[i]) and math.isfinite(values[i + 1])):
                monotone = False
                bad = xs[i] if not math.isfinite(values[i]) else xs[i + 1]
                messages.append(f"f is not finite at sampled point x = {bad!r}")
                break
            if values[i + 1] < values[i]:
                monotone = False
                messages.append(
                    f"f is not nondecreasing: f({xs[i]!r}) = {values[i]!r} "
                    f"> f({xs[i + 1]!r}) = {values[i + 1]!r}"
                )
                break

    root_at_a = math.isfinite(f_a) and abs(f_a) <= 1e-6 * max(1.0, abs(f_b))
    if not root_at_a:
        messages.append(f"f(a) = {f_a!r} is not negligible; the rule needs the root at a")

    derivative_positive = math.isfinite(df_b) and df_b > 0.0
    if not derivative_positive:
        messages.append(f"f'(b) = {df_b!r} is not positive")

    return ValidationReport(monotone, root_at_a, derivative_positive, tuple(messages)), f_a


def nr_integrate(
    f: Expression,
    interval: Interval,
    settings: NrQuadSettings | None = None,
) -> QuadResult:
    """Integrate f over the interval using the Newton-partition rule.

    Runs :func:`newton_iterate` from ``x0 = b`` with target ``a``,
    accumulating one trapezoid panel per step.  If the final iterate was
    clamped to ``a`` the last panel uses ``f(a)`` as its far side so the
    rule never samples outside the interval.

    Raises:
        DerivativeVanishedError / NonfiniteValueError: hard failures at
            the start point or during iteration, or a nonfinite f where
            the last panel closes.
        ValidationError: when ``settings.validate`` and the checks of
            :func:`validate_problem` fail.  A vanishing or nonfinite
            derivative at ``b`` is detected before validation, so it wins
            over a validation failure when both apply.  Validation reuses
            the first step's f(b) and f'(b), f' itself and f's scalar
            evaluator, so where it proves f' > 0 it evaluates f once more,
            at a, and a clamped last panel reuses that f(a) unless a is -0.0;
            where it samples, it calls that evaluator 63 times.  No batch
            evaluator is built.

    Running out of iterations is not an error: the result then carries
    status ``budget-exhausted``.
    """
    settings = settings if settings is not None else _DEFAULT_SETTINGS
    a, b = interval.a, interval.b
    df = differentiate(f)
    f_at, df_at = _compile_scalar(f), _compile_scalar(df)
    # the first step checks f(b) and f'(b) before validation; validation and the iteration reuse it
    first = _step(f_at, df_at, b)

    f_a = None  # f(a + 0.0), where validation evaluated it
    if settings.validate:
        report, f_a = _validate(f, df, f_at, interval, first.f_k, first.df_k)
        if not report.passed:
            raise ValidationError(report)

    trace, f_final, error = _iterate(f_at, df_at, b, settings._stop, first, a)
    if error is not None:
        raise error

    if f_final is None:  # the iteration stopped before evaluating f there; after a clamp, final_x is a,
        # and validation evaluated f at a + 0.0, which is a unless a is -0.0
        reuse = f_a is not None and trace.termination is Termination.OVERSHOOT_CLAMPED and (a != 0.0 or math.copysign(1.0, a) > 0.0)
        f_final = f_a if reuse else f_at(trace.final_x)
    if not math.isfinite(f_final):  # it closes the last panel
        raise NonfiniteValueError(trace.final_x, f_final, df_at(trace.final_x))

    areas: list[float] = []
    value = 0.0  # added one at a time, not by sum(), whose float algorithm changed in Python 3.12
    for step, f_next in zip(trace.steps, [step.f_k for step in trace.steps[1:]] + [f_final]):
        area = 0.5 * step.step * (step.f_k + f_next)  # step.step is f_k / df_k
        areas.append(area)
        value += area

    closing_area = 0.0
    if settings.closing_triangle:
        closing_area = 0.5 * (trace.final_x - a) * f_final
        value += closing_area

    return QuadResult(value, tuple(areas), closing_area, abs(trace.final_x - a), trace)
