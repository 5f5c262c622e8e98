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
import operator
from collections.abc import Callable
from enum import Enum

from ._frozen import Frozen, slot_setters
from .expressions import Expression, _compile_scalar

DERIVATIVE_EPSILON = 1e-12
_TOL_STEP = 1e-12  # StoppingCriteria's default tol_step, and the one nr_integrate iterates under

_Scalar = Callable[[float], float]  # a scalar evaluator, as _compile_scalar builds


def _positive(value: object) -> bool:
    """``value > 0``, and False for a value that is not a number, such as None or a string."""
    try:
        return value > 0  # type: ignore[operator]
    except TypeError:
        return False


def _finite(value: object) -> bool:
    """``math.isfinite(value)``, and False for a value that is not a number or an integer too large for a float."""
    try:
        return math.isfinite(value)  # type: ignore[arg-type]
    except (TypeError, OverflowError):
        return False


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
        _set_x_k(self, x_k)
        _set_f_k(self, f_k)
        _set_df_k(self, df_k)
        _set_step(self, step)
        _set_x_next(self, x_next)


_set_x_k, _set_f_k, _set_df_k, _set_step, _set_x_next = slot_setters(NewtonStep)


class NewtonTrace(Frozen):
    """Ordered record of the steps taken, why it stopped, and where it ended.

    ``final_x`` is the last accepted iterate; after an overshoot clamp it
    is the target itself.
    """

    __slots__ = ("steps", "termination", "final_x")

    def __init__(self, steps: tuple[NewtonStep, ...], termination: Termination, final_x: float) -> None:
        _set_steps(self, steps)
        _set_termination(self, termination)
        _set_final_x(self, final_x)


_set_steps, _set_termination, _set_final_x = slot_setters(NewtonTrace)


class StoppingCriteria(Frozen):
    """Stopping configuration for :func:`newton_iterate`.

    ``tol_f = None`` resolves at iteration start to ``1e-9 * max(1, |f(x0)|)``
    so the residual test is scale-aware.  ``target``, when set, is the
    point the iterates are expected to approach from above.  A derivative
    vanishes at ``|f'(x)| <= DERIVATIVE_EPSILON``, a module constant.
    """

    __slots__ = ("target", "tol_x", "tol_f", "tol_step", "max_iter")

    def __init__(
        self,
        target: float | None = None,
        tol_x: float = 1e-6,
        tol_f: float | None = None,
        tol_step: float = _TOL_STEP,
        max_iter: int = 100,
    ) -> None:
        if target is not None and not _finite(target):
            raise ValueError(f"target must be finite, got {target!r}")
        if not _positive(tol_x):
            raise ValueError(f"tol_x must be positive, got {tol_x!r}")
        if tol_f is not None and not _positive(tol_f):
            raise ValueError(f"tol_f must be positive, got {tol_f!r}")
        if not _positive(tol_step):
            raise ValueError(f"tol_step must be positive, got {tol_step!r}")
        try:
            operator.index(max_iter)
        except TypeError:
            raise ValueError(f"max_iter must be an integer, got {max_iter!r}") from None
        if max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
        _set_target(self, target)
        _set_tol_x(self, tol_x)
        _set_tol_f(self, tol_f)
        _set_tol_step(self, tol_step)
        _set_max_iter(self, max_iter)


_set_target, _set_tol_x, _set_tol_f, _set_tol_step, _set_max_iter = slot_setters(StoppingCriteria)


def newton_step(f: Expression, df: Expression, x: float) -> NewtonStep:
    """Take one Newton step from ``x``.

    The returned ``x_next`` is the x-intercept of the tangent drawn at
    ``(x, f(x))``, i.e. the solution of ``0 - f(x) = f'(x) * (x1 - x)``.

    Raises:
        DerivativeVanishedError: if ``|f'(x)| <= DERIVATIVE_EPSILON``.
        NonfiniteValueError: if ``f(x)`` or ``f'(x)`` is NaN or infinite.
    """
    return _step(_compile_scalar(f), _compile_scalar(df), x)


def _step(f: _Scalar, df: _Scalar, x: float, f_x: float | None = None) -> NewtonStep:
    """:func:`newton_step` on scalar evaluators; a caller that already holds f(x) passes it as ``f_x``."""
    f_k = f(x) if f_x is None else f_x
    df_k = df(x)
    if not (math.isfinite(f_k) and math.isfinite(df_k)):
        raise NonfiniteValueError(x, f_k, df_k)
    if abs(df_k) <= DERIVATIVE_EPSILON:
        raise DerivativeVanishedError(x, df_k, DERIVATIVE_EPSILON)
    step = f_k / df_k
    return NewtonStep(x, f_k, df_k, step, x - step)


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
    stop = stop if stop is not None else StoppingCriteria()
    f_at, df_at = _compile_scalar(f), _compile_scalar(df)
    return _iterate(f_at, df_at, x0, stop.target, stop.tol_x, stop.tol_f, stop.tol_step, stop.max_iter)[0]


def _iterate(
    f: _Scalar, df: _Scalar, x0: float, target: float | None, tol_x: float, tol_f: float | None, tol_step: float,
    max_iter: int, first: NewtonStep | None = None,
) -> tuple[NewtonTrace, float | None, NewtonError | None]:
    """:func:`newton_iterate` on scalar evaluators and checked criteria; also f(final_x) and the error that ended it.

    f(final_x) is None where the iteration did not evaluate it.  The error is
    the one a nonfinite-value or derivative-vanished termination caught, or an
    ``_OverflowedStepError`` when f and f' were finite but their step was not;
    for every other termination it is None.

    A caller that has already taken the step from ``x0`` passes it as ``first``, and it is used as is.
    """
    step = first
    f_x = None if first is None else first.f_k
    if tol_f is None:
        if f_x is None:
            f_x = f(x0)
        tol_f = 1e-9 * max(1.0, abs(f_x))
    descending = target is not None and x0 > target

    steps: list[NewtonStep] = []
    x = x0
    for _ in range(max_iter):
        if step is None:
            try:
                step = _step(f, df, x, f_x)
            except NonfiniteValueError as error:
                return NewtonTrace(tuple(steps), Termination.NONFINITE_VALUE, x), None, error
            except DerivativeVanishedError as error:
                return NewtonTrace(tuple(steps), Termination.DERIVATIVE_VANISHED, x), None, error
        steps.append(step)
        x_next = step.x_next
        if not math.isfinite(x_next):  # f and f' were finite at x
            return NewtonTrace(tuple(steps), Termination.NONFINITE_VALUE, x), None, _OverflowedStepError(step)
        if target is not None and abs(x_next - target) <= tol_x:
            return NewtonTrace(tuple(steps), Termination.REACHED_TARGET, x_next), None, None
        f_x = f(x_next)
        if math.isfinite(f_x) and abs(f_x) <= tol_f:
            return NewtonTrace(tuple(steps), Termination.RESIDUAL_SMALL, x_next), f_x, None
        if abs(step.step) <= tol_step:
            return NewtonTrace(tuple(steps), Termination.STEP_SMALL, x_next), f_x, None
        if descending and x_next < target:  # <= is the same: tol_x > 0 ends a landing on target above
            return NewtonTrace(tuple(steps), Termination.OVERSHOOT_CLAMPED, target), None, None
        x, step = x_next, None
    return NewtonTrace(tuple(steps), Termination.MAX_ITERATIONS, x), f_x, None
