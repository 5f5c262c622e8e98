"""Newton-partition quadrature tests: panels, validation, and the rule itself."""

import math
import random

import pytest

from nrquad.baselines import reference_integral
from nrquad.expressions import _Compiled, differentiate, evaluate, parse, simplify
from nrquad.newton import DerivativeVanishedError, NonfiniteValueError, Termination, newton_step
from nrquad.quadrature import (
    Interval,
    NrQuadSettings,
    QuadStatus,
    ValidationError,
    _validate,
    nr_integrate,
    panel_area,
    validate_problem,
)
from support import brute_force_rule, count_scalar_calls

QUAD = "2*x^2+3*x+1"
QUAD_INTERVAL = Interval(-0.5, 1.0)


class TestPanelArea:
    def test_first_panel_of_worked_example(self):
        f_k, df_k, f_next = 6.0, 7.0, 1.469388
        expected = 0.5 * (6.0 / 7.0) * (6.0 + 1.469388)
        assert panel_area(f_k, df_k, f_next) == expected
        assert abs(panel_area(f_k, df_k, f_next) - 3.201166) < 1e-5

    def test_zero_heights_give_zero_area(self):
        assert panel_area(0.0, 5.0, 0.0) == 0.0

    def test_terminal_triangle_under_a_line(self):
        # f = m*x with f(b) = c: triangle of base c/m, height c
        for m, c in ((2.0, 3.0), (0.5, 1.25)):
            assert panel_area(c, m, 0.0) == pytest.approx(c * c / (2.0 * m), rel=1e-15)


class TestValidateProblem:
    def test_worked_example_passes(self):
        report = validate_problem(parse(QUAD), QUAD_INTERVAL)
        assert report.monotone_increasing
        assert report.root_at_a
        assert report.derivative_positive_at_b
        assert report.passed
        assert report.messages == ()

    def test_identity_passes(self):
        assert validate_problem(parse("x"), Interval(0.0, 1.0)).passed

    def test_decreasing_line_fails_monotonicity(self):
        report = validate_problem(parse("0-x"), Interval(0.0, 1.0))
        assert not report.monotone_increasing
        assert report.root_at_a
        assert not report.derivative_positive_at_b
        assert not report.passed
        assert any("nondecreasing" in m for m in report.messages)

    def test_missing_root_is_reported(self):
        report = validate_problem(parse("x+1"), Interval(0.0, 1.0))
        assert report.monotone_increasing
        assert not report.root_at_a

    def test_nan_samples_fail_monotonicity(self):
        report = validate_problem(parse("ln(x)"), Interval(-1.0, 1.0))
        assert not report.monotone_increasing
        assert any("not finite" in m for m in report.messages)

    @pytest.mark.parametrize(
        "source, a, b",
        [(QUAD, -0.5, 1.0), ("x", 0.0, 1.0), ("0-x", 0.0, 1.0), ("x+1", 0.0, 1.0), ("sin(x)", 0.0, 3.5), ("x^3-x", -1.0, 1.2)],
    )
    def test_a_given_first_step_gives_the_same_report(self, source, a, b):
        f = parse(source)
        first = newton_step(f, simplify(differentiate(f)), b)
        interval = Interval(a, b)
        assert _validate(_Compiled(f).at, interval, first.f_k, first.df_k) == validate_problem(f, interval)


class TestNrIntegrate:
    def test_worked_example_at_coarse_tolerance(self):
        f = parse(QUAD)
        result = nr_integrate(f, QUAD_INTERVAL, NrQuadSettings(tol_x=0.01))
        assert len(result.panels) == 4
        assert result.status is QuadStatus.OK
        assert result.trace.termination is Termination.REACHED_TARGET
        assert abs(result.value - 3.6100) <= 0.005
        assert abs(result.residual_gap - 0.00506) < 1e-4
        assert result.closing_area == 0.0
        # cross-check against an independent plain-float recomputation
        panels, x_last = brute_force_rule(
            lambda x: 2 * x * x + 3 * x + 1, lambda x: 4 * x + 3, -0.5, 1.0, 0.01
        )
        assert len(panels) == 4
        assert result.value == pytest.approx(sum(panels), rel=1e-14)
        assert result.residual_gap == pytest.approx(abs(x_last + 0.5), rel=1e-12)

    def test_identity_is_exact_in_one_panel(self):
        result = nr_integrate(parse("x"), Interval(0.0, 1.0))
        assert result.value == 0.5
        assert len(result.panels) == 1
        assert result.trace.termination is Termination.REACHED_TARGET
        assert result.residual_gap == 0.0

    def test_fine_tolerance_with_closing_triangle_overestimates(self):
        f = parse(QUAD)
        settings = NrQuadSettings(tol_x=1e-9, closing_triangle=True)
        result = nr_integrate(f, QUAD_INTERVAL, settings)
        assert result.value >= 3.375
        # the excess is exactly the panel-by-panel chord surplus over the
        # analytic antiderivative F(x) = (2/3)x^3 + (3/2)x^2 + x
        def F(x):
            return (2.0 / 3.0) * x**3 + 1.5 * x**2 + x

        excess = 0.0
        xs = [p.x_k for p in result.panels] + [result.trace.final_x]
        for panel, x_hi, x_lo in zip(result.panels, xs, xs[1:]):
            excess += panel.area - (F(x_hi) - F(x_lo))
        excess += result.closing_area - (F(result.trace.final_x) - F(-0.5))
        assert result.value == pytest.approx(3.375 + excess, abs=2e-4)

    def test_affine_exactness_with_closing_triangle(self):
        rng = random.Random(60221023)
        for _ in range(100):
            m = rng.uniform(0.05, 20.0)
            b = rng.uniform(0.05, 20.0)
            f = parse(f"{m!r}*x")
            result = nr_integrate(f, Interval(0.0, b), NrQuadSettings(closing_triangle=True))
            exact = m * b * b / 2.0
            assert len(result.panels) == 1
            assert abs(result.value - exact) <= 4.0 * math.ulp(exact)

    @pytest.mark.parametrize(
        "source, interval",
        [
            (QUAD, Interval(-0.5, 1.0)),
            ("x^2", Interval(0.0, 2.0)),
            ("exp(x)-1", Interval(0.0, 1.0)),
        ],
    )
    def test_convex_overestimate(self, source, interval):
        f = parse(source)
        settings = NrQuadSettings(tol_x=1e-8, closing_triangle=True)
        result = nr_integrate(f, interval, settings)
        reference = reference_integral(f, interval)
        assert result.value >= reference - 1e-12 * abs(result.value)

    def test_bookkeeping_identity(self):
        f = parse(QUAD)
        for closing in (False, True):
            settings = NrQuadSettings(tol_x=1e-6, closing_triangle=closing)
            result = nr_integrate(f, QUAD_INTERVAL, settings)
            total = 0.0
            for panel in result.panels:
                total += panel.area
            total += result.closing_area
            assert result.value == total
            if not closing:
                assert result.closing_area == 0.0

    def test_width_identity(self):
        f = parse(QUAD)
        result = nr_integrate(f, QUAD_INTERVAL, NrQuadSettings(tol_x=1e-8))
        for panel, step in zip(result.panels, result.trace.steps, strict=True):
            assert panel.width == step.step
            assert abs(panel.width * step.df_k - step.f_k) <= 1e-12 * abs(step.f_k)

    def test_residual_gap_shrinks_with_tolerance(self):
        f = parse(QUAD)
        gaps = []
        for tol in (0.1, 0.05, 0.01, 1e-3, 1e-4, 1e-6, 1e-8):
            result = nr_integrate(f, QUAD_INTERVAL, NrQuadSettings(tol_x=tol))
            assert result.residual_gap <= tol
            gaps.append(result.residual_gap)
        for wider, tighter in zip(gaps, gaps[1:]):
            assert tighter <= wider

    def test_budget_exhausted_is_a_status_not_an_error(self):
        f = parse(QUAD)
        result = nr_integrate(f, QUAD_INTERVAL, NrQuadSettings(tol_x=0.01, max_iter=1))
        assert result.status is QuadStatus.BUDGET_EXHAUSTED
        assert len(result.panels) == 1
        assert result.trace.termination is Termination.MAX_ITERATIONS

    def test_concave_integrand_clamps_to_lower_limit(self):
        # ln(x+1) is increasing with its root at 0, but concave, so the
        # first Newton step from b = 2 lands far below 0 and is clamped
        f = parse("ln(x+1)")
        result = nr_integrate(f, Interval(0.0, 2.0), NrQuadSettings(closing_triangle=True))
        assert result.status is QuadStatus.CLAMPED
        assert result.trace.termination is Termination.OVERSHOOT_CLAMPED
        assert result.trace.final_x == 0.0
        assert result.residual_gap == 0.0
        assert result.closing_area == 0.0
        # last panel uses f(a) = 0 as its far side
        fb = evaluate(f, 2.0)
        dfb = 1.0 / 3.0
        assert result.value == pytest.approx(0.5 * (fb / dfb) * (fb + 0.0), rel=1e-12)

    def test_validation_failure_raises_with_report(self):
        with pytest.raises(ValidationError) as err:
            nr_integrate(parse("0-x"), Interval(0.0, 1.0))
        assert not err.value.report.passed

    def test_validation_off_runs_as_written(self):
        result = nr_integrate(parse("0-x"), Interval(0.0, 1.0), NrQuadSettings(validate=False))
        assert result.value == -0.5
        assert len(result.panels) == 1

    def test_vanished_derivative_wins_over_validation(self):
        # constant integrand: both the derivative guard and validation
        # would fail; the derivative guard is checked first
        with pytest.raises(DerivativeVanishedError):
            nr_integrate(parse("0*x+1"), Interval(0.0, 1.0))

    def test_nonfinite_at_start_raises(self):
        with pytest.raises(NonfiniteValueError):
            nr_integrate(parse("1/x"), Interval(-1.0, 0.0))

    def test_overflowing_step_is_named_in_the_error(self):
        # f and f' are finite at b, but f/f' = 1e311 overflows to inf, so x_next = -inf
        with pytest.raises(NonfiniteValueError) as caught:
            nr_integrate(parse("1e300+1e-11*x"), Interval(0.0, 1.0), NrQuadSettings(validate=False))
        assert str(caught.value) == (
            "Newton step overflowed at x = 1.0 (f = 1e+300, f' = 1e-11, step = inf, x_next = -inf)"
        )
        assert (caught.value.x, caught.value.f, caught.value.df) == (1.0, 1e300, 1e-11)

    def test_nonfinite_value_closing_the_last_panel_raises(self):
        # the step from b = 1e-7 lands at -1e-7, within tol_x of a = 0 but below it, where sqrt is NaN
        with pytest.raises(NonfiniteValueError) as caught:
            nr_integrate(parse("sqrt(x)"), Interval(0.0, 1e-7))
        assert caught.value.x == -1.0000000000000002e-07
        assert math.isnan(caught.value.f) and math.isnan(caught.value.df)
        # a clamp onto a NaN f(a), which validation would have refused
        with pytest.raises(NonfiniteValueError) as caught:
            nr_integrate(parse("sqrt(x)"), Interval(-0.5, 2.0), NrQuadSettings(validate=False))
        assert caught.value.x == -0.5 and math.isnan(caught.value.f)

    def test_reaching_the_target_just_below_a_with_a_finite_value_is_a_result(self):
        # reached-target is tested before the clamp, so this stops 1.7e-9 below a with a finite f there
        f = parse("0.48*(exp(x)-1)+0.54*x+2.03*(sqrt(x+1)-1)+0.27*ln(x+1)")
        result = nr_integrate(f, Interval(0.0, 1.395))
        assert result.trace.termination is Termination.REACHED_TARGET
        assert -1e-6 < result.trace.final_x < 0.0
        assert result.status is QuadStatus.OK and math.isfinite(result.value)

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            NrQuadSettings(tol_x=0.0)
        with pytest.raises(ValueError):
            NrQuadSettings(max_iter=0)
        with pytest.raises(ValueError):
            NrQuadSettings(tol_f=-1.0)


class TestPowerClosedForm:
    """The rule on x^k over [0, b], against its value in closed form.

    Newton's step on x^k is x/k, so the iterates are b*q^n with q = 1 - 1/k,
    panel n has area (1 + q^k)/(2k) * (b*q^n)^(k+1), and the panels sum to
    b^(k+1) * (1 + q^k) / (2k * (1 - q^(k+1))).  The closing triangle covers
    what the last iterate leaves of that sum's tail.
    """

    @pytest.mark.parametrize("b", [1.0, 2.0, 2.7])
    @pytest.mark.parametrize("k", [1.5, 2.0, 3.0])
    def test_value(self, k, b):
        q = 1.0 - 1.0 / k
        closed_form = b ** (k + 1) * (1.0 + q**k) / (2.0 * k * (1.0 - q ** (k + 1)))
        settings = NrQuadSettings(tol_x=1e-12, closing_triangle=True)
        result = nr_integrate(parse(f"x^{k!r}"), Interval(0.0, b), settings)
        assert result.value == pytest.approx(closed_form, rel=1e-12, abs=0.0)


class TestEvaluationCounts:
    """Integrand evaluations on the worked example, pinned; a change may lower them."""

    @pytest.fixture
    def calls(self, monkeypatch):
        return count_scalar_calls(monkeypatch)

    # f and f' once at each of the 6 iterates, f at the last one, and with
    # validation 63 samples of f; f(b) and f'(b) come from the first step
    @pytest.mark.parametrize("validate, expected", [(True, 76), (False, 13)])
    def test_worked_example(self, calls, validate, expected):
        result = nr_integrate(parse(QUAD), QUAD_INTERVAL, NrQuadSettings(validate=validate))
        assert len(result.panels) == 6
        assert result.trace.termination is Termination.REACHED_TARGET
        assert calls[0] == expected

    # f and f' at each iterate and f once at the last one, where the residual
    # test has already evaluated it: 38 and 12 when the rule evaluated it again
    @pytest.mark.parametrize(
        "max_iter, termination, expected",
        [(100, Termination.RESIDUAL_SMALL, 37), (5, Termination.MAX_ITERATIONS, 11)],
    )
    def test_last_residual_value_closes_the_rule(self, calls, max_iter, termination, expected):
        settings = NrQuadSettings(tol_x=1e-30, max_iter=max_iter, validate=False)
        result = nr_integrate(parse("x^3"), Interval(0.0, 1.0), settings)
        assert result.trace.termination is termination
        assert calls[0] == 2 * len(result.trace.steps) + 1 == expected


class TestInterval:
    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (2.0, 1.0), (math.nan, 1.0), (0.0, math.inf)])
    def test_rejects_bad_bounds(self, a, b):
        with pytest.raises(ValueError):
            Interval(a, b)

    def test_accepts_ordered_finite_bounds(self):
        interval = Interval(-0.5, 1.0)
        assert interval.a == -0.5
        assert interval.b == 1.0
