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
from enum import Enum

from ._frozen import Frozen, set_field
from .expressions import Expression, _Compiled, _derivative
from .newton import (
    DERIVATIVE_EPSILON,
    DerivativeVanishedError,
    NewtonTrace,
    NonfiniteValueError,
    StoppingCriteria,
    Termination,
    _iterate,
    _OverflowedStepError,
    _Scalar,
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
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"interval bounds must be finite, got [{a!r}, {b!r}]")
        if not a < b:
            raise ValueError(f"interval requires a < b, got [{a!r}, {b!r}]")
        set_field(self, "a", a)
        set_field(self, "b", b)


class NrQuadSettings(Frozen):
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
        StoppingCriteria(tol_x=tol_x, tol_f=tol_f, max_iter=max_iter)  # raises on a bad tolerance or budget
        set_field(self, "tol_x", tol_x)
        set_field(self, "tol_f", tol_f)
        set_field(self, "max_iter", max_iter)
        set_field(self, "closing_triangle", closing_triangle)
        set_field(self, "validate", validate)


class Panel(Frozen):
    """One trapezoid panel anchored at the iterate ``x_k``."""

    __slots__ = ("x_k", "width", "area")

    def __init__(self, x_k: float, width: float, area: float) -> None:
        set_field(self, "x_k", x_k)
        set_field(self, "width", width)
        set_field(self, "area", area)


class QuadResult(Frozen):
    """Outcome of :func:`nr_integrate`.

    ``value`` is the panel areas plus ``closing_area``, summed in
    construction order.  ``residual_gap`` is ``|x_last - a|``, the width
    of the uncovered sliver (zero after a clamp).
    """

    __slots__ = ("value", "panels", "closing_area", "residual_gap", "trace")

    def __init__(
        self, value: float, panels: tuple[Panel, ...], closing_area: float, residual_gap: float, trace: NewtonTrace
    ) -> None:
        set_field(self, "value", value)
        set_field(self, "panels", panels)
        set_field(self, "closing_area", closing_area)
        set_field(self, "residual_gap", residual_gap)
        set_field(self, "trace", trace)

    @property
    def status(self) -> QuadStatus:
        """``clamped`` after an overshoot clamp, ``budget-exhausted`` when the iterations ran out, else ``ok``."""
        return _STATUS.get(self.trace.termination, QuadStatus.OK)


class ValidationReport(Frozen):
    """Sampled precondition checks; heuristic, not a proof."""

    __slots__ = ("monotone_increasing", "root_at_a", "derivative_positive_at_b", "messages")

    def __init__(
        self, monotone_increasing: bool, root_at_a: bool, derivative_positive_at_b: bool, messages: tuple[str, ...]
    ) -> None:
        set_field(self, "monotone_increasing", monotone_increasing)
        set_field(self, "root_at_a", root_at_a)
        set_field(self, "derivative_positive_at_b", derivative_positive_at_b)
        set_field(self, "messages", messages)

    @property
    def passed(self) -> bool:
        return self.monotone_increasing and self.root_at_a and self.derivative_positive_at_b


class ValidationError(Exception):
    """Raised when validation is enabled and the problem fails its checks."""

    def __init__(self, report: ValidationReport) -> None:
        super().__init__("; ".join(report.messages) or "validation failed")
        self.report = report


def panel_area(f_k: float, df_k: float, f_next: float) -> float:
    """Area of one trapezoid panel: ``1/2 * (f_k/df_k) * (f_k + f_next)``.

    The caller guarantees ``df_k != 0``.
    """
    return 0.5 * (f_k / df_k) * (f_k + f_next)


def validate_problem(f: Expression, interval: Interval) -> ValidationReport:
    """Check, by sampling, that the problem fits the rule's hypotheses.

    Samples f at ``VALIDATION_SAMPLES`` (64) equally spaced points and
    reports whether the values are nondecreasing, whether |f(a)| is small
    relative to |f(b)|, and whether f'(b) > 0.  Findings are returned,
    never raised.
    """
    f_at = _Compiled(f).at
    b = interval.b
    return _validate(f_at, interval, f_at(b), _Compiled(_derivative(f)).at(b))


def _validate(f: _Scalar, interval: Interval, f_b: float, df_b: float) -> ValidationReport:
    """:func:`validate_problem` on a scalar evaluator, given f(b) and f'(b)."""
    a, b = interval.a, interval.b
    h = (b - a) / (VALIDATION_SAMPLES - 1)
    xs = [a + i * h for i in range(VALIDATION_SAMPLES - 1)] + [b]
    values = [f(x) for x in xs[:-1]]
    values.append(f_b)
    messages: list[str] = []

    monotone = True
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

    f_a, f_b = values[0], values[-1]
    root_at_a = math.isfinite(f_a) and abs(f_a) <= 1e-6 * max(1.0, abs(f_b))
    if not root_at_a:
        messages.append(f"f(a) = {f_a!r} is not negligible; the rule needs the root at a")

    derivative_positive = math.isfinite(df_b) and df_b > 0.0
    if not derivative_positive:
        messages.append(f"f'(b) = {df_b!r} is not positive")

    return ValidationReport(
        monotone_increasing=monotone,
        root_at_a=root_at_a,
        derivative_positive_at_b=derivative_positive,
        messages=tuple(messages),
    )


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
        ValidationError: when ``settings.validate`` and the sampled checks
            fail.  A vanishing or nonfinite derivative at ``b`` is
            detected before validation, so it wins over a validation
            failure when both apply.

    Running out of iterations is not an error: the result then carries
    status ``budget-exhausted``.
    """
    return _nr_integrate(_Compiled(f), interval, settings)


def _nr_integrate(f: _Compiled, interval: Interval, settings: NrQuadSettings | None = None) -> QuadResult:
    """:func:`nr_integrate` on a compiled integrand."""
    settings = settings if settings is not None else NrQuadSettings()
    a, b = interval.a, interval.b
    f_at = f.at
    df_at = _Compiled(_derivative(f.expression)).at
    # the first step checks f(b) and f'(b) before validation; validation and the iteration reuse it
    first = _step(f_at, df_at, b)

    if settings.validate:
        report = _validate(f_at, interval, first.f_k, first.df_k)
        if not report.passed:
            raise ValidationError(report)

    stop = StoppingCriteria(
        target=a,
        tol_x=settings.tol_x,
        tol_f=settings.tol_f,
        max_iter=settings.max_iter,
    )
    trace, f_final = _iterate(f_at, df_at, b, stop, first)
    if trace.termination is Termination.DERIVATIVE_VANISHED:
        raise DerivativeVanishedError(trace.final_x, df_at(trace.final_x), DERIVATIVE_EPSILON)
    if trace.termination is Termination.NONFINITE_VALUE:
        if trace.steps and not math.isfinite(trace.steps[-1].x_next):  # f and f' were finite there
            raise _OverflowedStepError(trace.steps[-1])
        raise NonfiniteValueError(trace.final_x, f_at(trace.final_x), df_at(trace.final_x))

    if f_final is None:  # the iteration stopped before evaluating f there; after a clamp, final_x is a
        f_final = f_at(trace.final_x)
    if not math.isfinite(f_final):  # it closes the last panel
        raise NonfiniteValueError(trace.final_x, f_final, df_at(trace.final_x))

    panels: list[Panel] = []
    value = 0.0
    for i, step in enumerate(trace.steps):
        f_next = trace.steps[i + 1].f_k if i + 1 < len(trace.steps) else f_final
        area = panel_area(step.f_k, step.df_k, f_next)
        panels.append(Panel(x_k=step.x_k, width=step.step, area=area))
        value += area

    closing_area = 0.0
    if settings.closing_triangle:
        closing_area = 0.5 * (trace.final_x - a) * f_final
        value += closing_area

    return QuadResult(
        value=value,
        panels=tuple(panels),
        closing_area=closing_area,
        residual_gap=abs(trace.final_x - a),
        trace=trace,
    )
