"""Newton step and iteration tests, including the guarded failure paths."""

import math
import random
import re
from fractions import Fraction

import pytest

import nrquad.expressions
from nrquad.expressions import Const, differentiate, evaluate, parse, simplify
from nrquad.newton import (
    DerivativeVanishedError,
    NonfiniteValueError,
    StoppingCriteria,
    Termination,
    _iterate,
    _step,
    newton_iterate,
    newton_step,
)
from support import count_scalar_calls, poly_derivative, poly_value, random_polynomial

QUAD = "2*x^2+3*x+1"


def _fdf(source):
    f = parse(source)
    return f, simplify(differentiate(f))


class TestNewtonStep:
    def test_first_step_of_worked_example(self):
        f, df = _fdf(QUAD)
        step = newton_step(f, df, 1.0)
        assert step.f_k == 6.0
        assert step.df_k == 7.0
        assert step.step == 6.0 / 7.0
        assert abs(step.x_next - 0.142857) < 1e-6

    def test_line_lands_in_one_step(self):
        f, df = _fdf("x")
        step = newton_step(f, df, 5.0)
        assert step.x_next == 0.0

    def test_second_step_of_worked_example(self):
        f, df = _fdf(QUAD)
        first = newton_step(f, df, 1.0)
        second = newton_step(f, df, first.x_next)
        # exact rational chain: x2 = -47/175
        assert second.x_next == pytest.approx(float(Fraction(-47, 175)), abs=1e-15)
        assert abs(second.x_next - (-0.268571)) < 1e-6

    def test_algebraic_identities_hold_exactly(self):
        f, df = _fdf(QUAD)
        x = 0.8
        step = newton_step(f, df, x)
        assert step.step == step.f_k / step.df_k
        assert step.x_next == step.x_k - step.step

    def test_vanished_derivative_raises(self):
        f, df = _fdf("0*x+1")
        with pytest.raises(DerivativeVanishedError):
            newton_step(f, df, 0.0)

    def test_nonfinite_value_raises(self):
        f, df = _fdf("ln(x)")
        with pytest.raises(NonfiniteValueError):
            newton_step(f, df, -1.0)

    def test_tangent_intercept_identity(self):
        # the returned point is the zero of the tangent line at x
        rng = random.Random(31415)
        checked = 0
        while checked < 200:
            f_expr, coeffs = random_polynomial(rng)
            df_expr = differentiate(f_expr)
            x = rng.uniform(-3.0, 3.0)
            dcoeffs = poly_derivative(coeffs)
            if abs(poly_value(dcoeffs, x)) <= 1e-6:
                continue
            step = newton_step(f_expr, df_expr, x)
            residual = step.f_k + step.df_k * (step.x_next - step.x_k)
            assert abs(residual) <= 1e-12 * abs(step.f_k)
            checked += 1

    def test_one_step_exactness_on_affine(self):
        rng = random.Random(2718)
        for _ in range(100):
            m = rng.uniform(0.1, 5.0) * rng.choice((-1.0, 1.0))
            c = rng.uniform(-5.0, 5.0)
            f, df = _fdf(f"{m!r}*x+{c!r}")
            x0 = rng.uniform(-4.0, 4.0)
            step = newton_step(f, df, x0)
            root = -c / m
            # one rounding per operation in (m*x+c)/m and the subtraction
            assert abs(step.x_next - root) <= 4.0 * math.ulp(max(1.0, abs(x0), abs(root)))


class TestNewtonIterate:
    def test_worked_example_reaches_target_in_four_steps(self):
        f, df = _fdf(QUAD)
        trace = newton_iterate(f, df, 1.0, StoppingCriteria(target=-0.5, tol_x=0.01))
        assert trace.termination is Termination.REACHED_TARGET
        assert len(trace.steps) == 4
        # brute-force recomputation with plain floats
        x = 1.0
        for _ in range(4):
            x = x - (2 * x * x + 3 * x + 1) / (4 * x + 3)
        assert trace.final_x == pytest.approx(x, abs=1e-15)
        assert abs(trace.final_x - (-0.494938)) < 1e-5
        printed = [0.142, -0.26, -0.44, -0.49]
        for step, rounded in zip(trace.steps, printed, strict=True):
            assert abs(step.x_next - rounded) < 0.01

    def test_double_root_exhausts_small_budget(self):
        f, df = _fdf("x^2")
        stop = StoppingCriteria(target=0.0, tol_x=1e-12, tol_f=1e-30, tol_step=1e-30, max_iter=5)
        trace = newton_iterate(f, df, 1.0, stop)
        assert trace.termination is Termination.MAX_ITERATIONS
        assert len(trace.steps) == 5
        # iterates halve: 1/2, 1/4, ..., 1/32
        assert trace.final_x == pytest.approx(1.0 / 32.0, rel=1e-12)

    def test_constant_function_terminates_derivative_vanished(self):
        f, df = _fdf("0*x+1")
        trace = newton_iterate(f, df, 0.0)
        assert trace.termination is Termination.DERIVATIVE_VANISHED
        assert trace.steps == ()
        assert trace.final_x == 0.0

    def test_residual_small_without_target(self):
        f, df = _fdf("x^3-1")
        trace = newton_iterate(f, df, 3.0)
        assert trace.termination is Termination.RESIDUAL_SMALL
        assert evaluate(f, trace.final_x) <= 1e-9 * max(1.0, evaluate(f, 3.0))

    def test_step_small_on_double_root(self):
        f, df = _fdf("x^2")
        stop = StoppingCriteria(tol_f=1e-300, tol_step=1e-12, max_iter=100)
        trace = newton_iterate(f, df, 1.0, stop)
        assert trace.termination is Termination.STEP_SMALL
        assert abs(trace.steps[-1].step) <= 1e-12

    def test_overshoot_clamps_to_target(self):
        # target above the root: the step from 1.667 lands below 1.5
        f, df = _fdf("x^2-1")
        trace = newton_iterate(f, df, 3.0, StoppingCriteria(target=1.5, tol_x=0.01))
        assert trace.termination is Termination.OVERSHOOT_CLAMPED
        assert trace.final_x == 1.5
        assert trace.steps[-1].x_next < 1.5

    def test_nonfinite_iterate_recorded(self):
        # sqrt from 4 steps to -4 where f is undefined
        f, df = _fdf("sqrt(x)")
        trace = newton_iterate(f, df, 4.0)
        assert trace.termination is Termination.NONFINITE_VALUE
        assert trace.final_x == -4.0

    def test_chain_integrity(self):
        f, df = _fdf(QUAD)
        trace = newton_iterate(f, df, 1.0, StoppingCriteria(target=-0.5, tol_x=1e-10))
        assert len(trace.steps) <= 100
        for step in trace.steps:
            assert step.step == step.f_k / step.df_k
            assert step.x_next == step.x_k - step.step
            assert step.df_k != 0.0
        for prev, nxt in zip(trace.steps, trace.steps[1:]):
            assert nxt.x_k == prev.x_next

    @pytest.mark.parametrize("source, x0, root", [(QUAD, 1.0, -0.5), ("x^3-1", 3.0, 1.0)])
    def test_monotone_descent_on_convex_increasing(self, source, x0, root):
        f, df = _fdf(source)
        trace = newton_iterate(f, df, x0, StoppingCriteria(target=root, tol_x=1e-9))
        assert trace.termination in (Termination.REACHED_TARGET, Termination.RESIDUAL_SMALL)
        xs = [x0] + [s.x_next for s in trace.steps]
        for prev, nxt in zip(xs, xs[1:]):
            assert nxt < prev
            assert nxt >= root

    # Ties of the stopping tests: each is inclusive, and the overshoot clamp
    # only acts on an iteration that starts above its target.
    def test_reached_target_includes_a_distance_equal_to_tol_x(self):
        # the step from 2 lands on 0.5, exactly tol_x above the target
        trace = newton_iterate(parse("x-0.5"), Const(1.0), 2.0, StoppingCriteria(target=0.0, tol_x=0.5))
        assert trace.termination is Termination.REACHED_TARGET
        assert trace.final_x == 0.5

    def test_step_small_includes_a_step_equal_to_tol_step(self):
        trace = newton_iterate(parse("x^2"), parse("2*x"), 1.0, StoppingCriteria(tol_step=0.5))
        assert trace.termination is Termination.STEP_SMALL
        assert [step.step for step in trace.steps] == [0.5]

    def test_no_clamp_when_starting_at_the_target(self):
        # exp has no root: from x0 == target every step goes below the target, unclamped
        stop = StoppingCriteria(target=0.0, tol_x=0.1, max_iter=3)
        trace = newton_iterate(parse("exp(x)"), parse("exp(x)"), 0.0, stop)
        assert trace.termination is Termination.MAX_ITERATIONS
        assert len(trace.steps) == 3
        assert trace.final_x == -3.0

    def test_reached_target_has_priority_over_residual(self):
        # x_next lands within tol_x of the target while the residual is also tiny
        f, df = _fdf("x")
        trace = newton_iterate(f, df, 5.0, StoppingCriteria(target=0.0, tol_x=0.5, tol_f=100.0))
        assert trace.termination is Termination.REACHED_TARGET


class TestCarriedValues:
    """The values that nr_integrate carries between steps, through the private scalar functions."""

    @pytest.fixture
    def calls(self, monkeypatch):
        return count_scalar_calls(monkeypatch)

    def test_step_uses_a_given_f_value(self, calls):
        f, df = map(nrquad.expressions._compile_scalar, _fdf(QUAD))  # the hooked compiler
        assert _step(f, df, 1.0, f_x=6.0) == _step(f, df, 1.0)
        assert calls[0] == 3
        step = _step(f, df, 1.0, f_x=3.5)
        assert (step.f_k, step.step) == (3.5, 0.5)
        with pytest.raises(NonfiniteValueError):
            _step(f, df, 1.0, f_x=math.nan)

    def test_iteration_evaluates_f_and_df_once_per_point(self, calls):
        f, df = _fdf(QUAD)
        trace = newton_iterate(f, df, 1.0, StoppingCriteria(target=-0.5, tol_x=0.01))
        assert trace.termination is Termination.REACHED_TARGET
        assert calls[0] == 2 * len(trace.steps) == 8

    def test_a_given_first_step_is_reused(self, calls):
        f_expr, df_expr = _fdf(QUAD)
        f, df = map(nrquad.expressions._compile_scalar, (f_expr, df_expr))
        stop = StoppingCriteria(target=-0.5, tol_x=0.01)
        first = _step(f, df, 1.0)
        calls[0] = 0
        trace, _, _ = _iterate(f, df, 1.0, stop, first, stop.target)
        assert calls[0] == 2 * (len(trace.steps) - 1)
        assert trace.steps[0] is first
        assert trace == newton_iterate(f_expr, df_expr, 1.0, stop)

    def test_the_target_beside_the_criteria_is_the_one_used(self):
        # nr_integrate iterates under its settings' criteria, whose target is None, towards a
        f, df = map(nrquad.expressions._compile_scalar, _fdf(QUAD))
        want = newton_iterate(*_fdf(QUAD), 1.0, StoppingCriteria(target=-0.5, tol_x=0.01))
        assert want.termination is Termination.REACHED_TARGET
        for target in (None, 0.9):
            assert _iterate(f, df, 1.0, StoppingCriteria(target=target, tol_x=0.01), None, -0.5)[0] == want


class TestStoppingCriteria:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tol_x": 0.0},
            {"tol_x": -1.0},
            {"tol_f": 0.0},
            {"tol_step": -1e-9},
            {"max_iter": 0},
            {"target": math.inf},
            {"tol_x": None},
            {"tol_x": "1e-6"},
            {"tol_f": "0.1"},
            {"tol_step": None},
            {"target": "0"},
        ],
    )
    def test_rejects_bad_configuration(self, kwargs):
        [(name, value)] = kwargs.items()
        with pytest.raises(ValueError, match=f"^{name} must be .*, got {re.escape(repr(value))}$"):
            StoppingCriteria(**kwargs)

    def test_defaults_are_valid(self):
        stop = StoppingCriteria()
        assert stop.tol_x == 1e-6
        assert stop.tol_f is None
        assert stop.tol_step == 1e-12
        assert stop.max_iter == 100
