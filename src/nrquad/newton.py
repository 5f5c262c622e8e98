"""Safeguarded Newton-Raphson iteration with a complete step trace.

Each update moves to the x-intercept of the tangent line at the current
iterate; the trace records every quantity involved so downstream code
(and tests) can audit the chain.  Iteration never raises: every way it
can end is a :class:`Termination` carried on the trace.  The lone
primitive that does raise is :func:`newton_step`, which refuses to
divide by a vanishing derivative or to build a step from nonfinite
values.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from enum import Enum

from ._frozen import Frozen, set_field
from .expressions import Expression, _Compiled

DERIVATIVE_EPSILON = 1e-12

_Scalar = Callable[[float], float]  # a compiled evaluator: _Compiled.at


class Termination(str, Enum):
    """Why an iteration stopped, in priority order of detection."""

    NONFINITE_VALUE = "nonfinite-value"
    DERIVATIVE_VANISHED = "derivative-vanished"
    REACHED_TARGET = "reached-target"
    RESIDUAL_SMALL = "residual-small"
    STEP_SMALL = "step-small"
    OVERSHOOT_CLAMPED = "overshoot-clamped"
    MAX_ITERATIONS = "max-iterations"


class NewtonError(Exception):
    """Base class for hard failures of a Newton step."""


class DerivativeVanishedError(NewtonError):
    """|f'(x)| was at or below the derivative epsilon; no step possible."""

    def __init__(self, x: float, df: float, epsilon: float) -> None:
        super().__init__(f"derivative vanished at x = {x!r} (|f'(x)| = {abs(df)!r} <= {epsilon!r})")
        self.x = x
        self.df = df


class NonfiniteValueError(NewtonError):
    """f or f' evaluated to NaN or infinity."""

    def __init__(self, x: float, f: float, df: float) -> None:
        super().__init__(f"nonfinite value at x = {x!r} (f = {f!r}, f' = {df!r})")
        self.x = x
        self.f = f
        self.df = df


class _OverflowedStepError(NonfiniteValueError):
    """f and f' were finite at ``x``, but the step they give is not."""

    def __init__(self, step: NewtonStep) -> None:
        NewtonError.__init__(
            self,
            f"Newton step overflowed at x = {step.x_k!r} "
            f"(f = {step.f_k!r}, f' = {step.df_k!r}, step = {step.step!r}, x_next = {step.x_next!r})",
        )
        self.x, self.f, self.df = step.x_k, step.f_k, step.df_k


class NewtonStep(Frozen):
    """One tangent step: ``step = f_k/df_k`` and ``x_next = x_k - step`` exactly."""

    __slots__ = ("x_k", "f_k", "df_k", "step", "x_next")

    def __init__(self, x_k: float, f_k: float, df_k: float, step: float, x_next: float) -> None:
        set_field(self, "x_k", x_k)
        set_field(self, "f_k", f_k)
        set_field(self, "df_k", df_k)
        set_field(self, "step", step)
        set_field(self, "x_next", x_next)


class NewtonTrace(Frozen):
    """Ordered record of the steps taken, why it stopped, and where it ended.

    ``final_x`` is the last accepted iterate; after an overshoot clamp it
    is the target itself.
    """

    __slots__ = ("steps", "termination", "final_x")

    def __init__(self, steps: tuple[NewtonStep, ...], termination: Termination, final_x: float) -> None:
        set_field(self, "steps", steps)
        set_field(self, "termination", termination)
        set_field(self, "final_x", final_x)


class StoppingCriteria(Frozen):
    """Stopping configuration for :func:`newton_iterate`.

    ``tol_f = None`` resolves at iteration start to ``1e-9 * max(1, |f(x0)|)``
    so the residual test is scale-aware.  ``target``, when set, is the
    point the iterates are expected to approach from above.
    """

    __slots__ = ("target", "tol_x", "tol_f", "tol_step", "max_iter", "derivative_epsilon")

    def __init__(
        self,
        target: float | None = None,
        tol_x: float = 1e-6,
        tol_f: float | None = None,
        tol_step: float = 1e-12,
        max_iter: int = 100,
        derivative_epsilon: float = DERIVATIVE_EPSILON,
    ) -> None:
        if target is not None and not math.isfinite(target):
            raise ValueError(f"target must be finite, got {target!r}")
        if not tol_x > 0:
            raise ValueError(f"tol_x must be positive, got {tol_x!r}")
        if tol_f is not None and not tol_f > 0:
            raise ValueError(f"tol_f must be positive, got {tol_f!r}")
        if not tol_step > 0:
            raise ValueError(f"tol_step must be positive, got {tol_step!r}")
        if max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
        if not derivative_epsilon > 0:
            raise ValueError(f"derivative_epsilon must be positive, got {derivative_epsilon!r}")
        set_field(self, "target", target)
        set_field(self, "tol_x", tol_x)
        set_field(self, "tol_f", tol_f)
        set_field(self, "tol_step", tol_step)
        set_field(self, "max_iter", max_iter)
        set_field(self, "derivative_epsilon", derivative_epsilon)


def newton_step(f: Expression, df: Expression, x: float, derivative_epsilon: float = DERIVATIVE_EPSILON) -> NewtonStep:
    """Take one Newton step from ``x``.

    The returned ``x_next`` is the x-intercept of the tangent drawn at
    ``(x, f(x))``, i.e. the solution of ``0 - f(x) = f'(x) * (x1 - x)``.

    Raises:
        DerivativeVanishedError: if ``|f'(x)| <= derivative_epsilon``.
        NonfiniteValueError: if ``f(x)`` or ``f'(x)`` is NaN or infinite.
    """
    return _step(_Compiled(f).at, _Compiled(df).at, x, derivative_epsilon)


def _step(
    f: _Scalar, df: _Scalar, x: float, derivative_epsilon: float = DERIVATIVE_EPSILON, f_x: float | None = None
) -> NewtonStep:
    """:func:`newton_step` on scalar evaluators; a caller that already holds f(x) passes it as ``f_x``."""
    f_k = f(x) if f_x is None else f_x
    df_k = df(x)
    if not (math.isfinite(f_k) and math.isfinite(df_k)):
        raise NonfiniteValueError(x, f_k, df_k)
    if abs(df_k) <= derivative_epsilon:
        raise DerivativeVanishedError(x, df_k, derivative_epsilon)
    step = f_k / df_k
    return NewtonStep(x_k=x, f_k=f_k, df_k=df_k, step=step, x_next=x - step)


def newton_iterate(f: Expression, df: Expression, x0: float, stop: StoppingCriteria | None = None) -> NewtonTrace:
    """Iterate Newton steps from ``x0`` until a stopping criterion holds.

    Criteria are checked in a fixed priority order so traces are
    deterministic: nonfinite-value, derivative-vanished, reached-target,
    residual-small, step-small, overshoot-clamped, max-iterations.  The
    overshoot clamp fires only when a target is set, the iteration is
    descending towards it from above, and a step lands below it; the
    trace then ends with ``final_x`` clamped to the target.

    Each point costs one evaluation of f and one of f': the value
    ``f(x_next)`` that the residual test needs is carried into the next
    step.

    All failure modes are reported as terminations on the returned trace;
    this function does not raise.
    """
    return _iterate(_Compiled(f).at, _Compiled(df).at, x0, stop)[0]


def _iterate(
    f: _Scalar, df: _Scalar, x0: float, stop: StoppingCriteria | None = None, first: NewtonStep | None = None
) -> tuple[NewtonTrace, float | None]:
    """:func:`newton_iterate` on scalar evaluators; also f(final_x) if it was evaluated, else None.

    A caller that has already taken the step from ``x0`` passes it as ``first``, and it is used as is.
    """
    stop = stop if stop is not None else StoppingCriteria()
    step = first
    f_x = None if first is None else first.f_k
    tol_f = stop.tol_f
    if tol_f is None:
        if f_x is None:
            f_x = f(x0)
        tol_f = 1e-9 * max(1.0, abs(f_x))
    descending = stop.target is not None and x0 > stop.target

    steps: list[NewtonStep] = []
    x = x0
    for _ in range(stop.max_iter):
        if step is None:
            try:
                step = _step(f, df, x, stop.derivative_epsilon, f_x)
            except NonfiniteValueError:
                return NewtonTrace(tuple(steps), Termination.NONFINITE_VALUE, x), None
            except DerivativeVanishedError:
                return NewtonTrace(tuple(steps), Termination.DERIVATIVE_VANISHED, x), None
        steps.append(step)
        if not math.isfinite(step.x_next):
            return NewtonTrace(tuple(steps), Termination.NONFINITE_VALUE, x), None
        if stop.target is not None and abs(step.x_next - stop.target) <= stop.tol_x:
            return NewtonTrace(tuple(steps), Termination.REACHED_TARGET, step.x_next), None
        f_x = f(step.x_next)
        if math.isfinite(f_x) and abs(f_x) <= tol_f:
            return NewtonTrace(tuple(steps), Termination.RESIDUAL_SMALL, step.x_next), f_x
        if abs(step.step) <= stop.tol_step:
            return NewtonTrace(tuple(steps), Termination.STEP_SMALL, step.x_next), f_x
        if descending and step.x_next < stop.target:
            return NewtonTrace(tuple(steps), Termination.OVERSHOOT_CLAMPED, stop.target), None
        x = step.x_next
        step = None
    return NewtonTrace(tuple(steps), Termination.MAX_ITERATIONS, x), f_x
