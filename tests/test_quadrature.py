"""Newton-partition quadrature tests: panels, validation, and the rule itself."""

import math
import random
import re

import pytest

from nrquad.baselines import _compile_batch, reference_integral
from nrquad.cli import main
from nrquad.expressions import _compile_scalar, differentiate, evaluate, parse, to_text
from nrquad.newton import DerivativeVanishedError, NonfiniteValueError, StoppingCriteria, Termination, newton_step
from nrquad.quadrature import (
    Interval,
    NrQuadSettings,
    QuadStatus,
    ValidationError,
    _validate,
    nr_integrate,
    validate_problem,
)
from support import (
    CORPUS_TERMS,
    brute_force_rule,
    count_scalar_calls,
    patch_compiler,
    random_tree,
    scalar_validate,
    takes_proof_path,
    tree_value,
)
from sweep_validation import sweep

QUAD = "2*x^2+3*x+1"
QUAD_INTERVAL = Interval(-0.5, 1.0)

# (source, interval, settings, status): the worked example, a clamp, a budget run out and a closing triangle
BOOKKEEPING_CASES = [
    (QUAD, QUAD_INTERVAL, NrQuadSettings(tol_x=1e-6), QuadStatus.OK),
    ("ln(x+1)", Interval(0.0, 2.0), NrQuadSettings(), QuadStatus.CLAMPED),
    (QUAD, QUAD_INTERVAL, NrQuadSettings(tol_x=0.01, max_iter=1), QuadStatus.BUDGET_EXHAUSTED),
    (QUAD, QUAD_INTERVAL, NrQuadSettings(tol_x=1e-6, closing_triangle=True), QuadStatus.OK),
]
BOOKKEEPING_IDS = ["worked-example", "clamped", "budget-exhausted", "closing-triangle"]


class TestPanelArea:
    """Each panel is ``1/2 * (f_k/f'(x_k)) * (f_k + f_next)``, read from ``nr_integrate``'s areas."""

    def test_first_panel_of_worked_example(self):
        result = nr_integrate(parse(QUAD), QUAD_INTERVAL)
        f_next = result.trace.steps[1].f_k
        assert abs(f_next - 1.469388) < 1e-6
        assert result.areas[0] == 0.5 * (6.0 / 7.0) * (6.0 + f_next)
        assert abs(result.areas[0] - 3.201166) < 1e-5

    def test_zero_heights_give_zero_area(self):
        # f(b) = 0: one step of width 0 between two zero sides
        result = nr_integrate(parse("x-1"), Interval(0.0, 1.0), NrQuadSettings(validate=False))
        assert result.areas == (0.0,)

    def test_terminal_triangle_under_a_line(self):
        # f = m*x with f(b) = c: one step lands on a, a triangle of base c/m and height c
        for m, c in ((2.0, 3.0), (0.5, 1.25)):
            result = nr_integrate(parse(f"{m!r}*x"), Interval(0.0, c / m))
            assert result.areas == pytest.approx((c * c / (2.0 * m),), rel=1e-15)


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
        df = differentiate(f)
        first = newton_step(f, df, b)
        interval = Interval(a, b)
        assert _validate(f, df, _compile_scalar(f), interval, first.f_k, first.df_k)[0] == validate_problem(f, interval)


class TestValidationMatchesScalarOracle:
    """validate_problem, which calls f's scalar closure at each sample, against one tree_value per sample."""

    INTERVALS = [Interval(-1.0, 1.0), Interval(-0.0, 2.0), Interval(0.5, 3.0), Interval(-3.0, 1e-3)]

    def test_random_trees(self):
        rng = random.Random(2020)
        failed = 0
        for _ in range(1_500):
            f = random_tree(rng, rng.randint(1, 4))
            for interval in self.INTERVALS:
                report = validate_problem(f, interval)
                assert report == scalar_validate(f, interval), (to_text(f), interval)
                failed += not report.monotone_increasing
        assert failed >= 2_000, failed  # 2,370 of 6,000 reports

    def test_corpus_terms_and_their_sums(self):
        sums = [f"{a}+{b}" for a in CORPUS_TERMS for b in CORPUS_TERMS] + ["+".join(CORPUS_TERMS)]
        for source in CORPUS_TERMS + sums:
            f = parse(source)
            for interval in (Interval(0.0, 0.5), Interval(0.0, 3.0), *self.INTERVALS):
                assert validate_problem(f, interval) == scalar_validate(f, interval), (source, interval)

    @pytest.mark.parametrize(
        "source, raised",
        [("ln(x)", 63), ("ln(x)^0+x", 63), ("sqrt(abs(x-0.5)-0.1)", 63), ("x-0*(x*1e300*1e300)", 0), ("x", 0)],
    )
    def test_nan_samples_with_and_without_a_raising_batch(self, monkeypatch, source, raised):
        # NaN where a point raises, including where pow(nan, 0) would hide it, and where inf*0 is NaN without raising
        f, interval = parse(source), Interval(-1.0, 1.0)
        calls = count_scalar_calls(monkeypatch)
        report = validate_problem(f, interval)
        # f(b) and f'(b), then the 63 samples before b, or f(a) alone where f' > 0 is proved
        assert calls[0] == 2 + (1 if source == "x" else 63)
        assert report == scalar_validate(f, interval)
        # the uniform rules' batch evaluator on the same samples: a batch in which a point raises is
        # evaluated again through a scalar closure, a call per point
        xs = [-1.0 + i * (2.0 / 63) for i in range(63)]
        calls[0] = 0
        assert list(map(repr, _compile_batch(f)(xs))) == [repr(tree_value(f, x)) for x in xs]
        assert calls[0] == raised

    @pytest.mark.parametrize("source", ["x", "1/x", "x/abs(x)", "x^3-x", "ln(x)", "0-x"])
    def test_a_negative_zero_lower_bound(self, source):
        f, interval = parse(source), Interval(-0.0, 1.0)
        assert validate_problem(f, interval) == scalar_validate(f, interval)

    def test_the_first_failure_at_each_sample_index(self):
        # x*(c - x) rises up to c/2 and falls after it
        messages = set()
        for k in range(1, 63):
            f, interval = parse(f"x*({2 * (k + 0.5) / 63!r}-x)"), Interval(0.0, 1.0)
            report = validate_problem(f, interval)
            assert report == scalar_validate(f, interval)
            messages.add(report.messages[0])
        assert len(messages) == 62

    def test_an_interval_whose_width_overflows(self):
        f, interval = parse("x/2+5e307"), Interval(-1e308, 1e308)
        report = validate_problem(f, interval)
        assert report.passed
        assert report == scalar_validate(f, interval)
        f = parse("0-x")
        report = validate_problem(f, interval)
        second = "-9.682539682539683e+307"
        assert report.messages[0] == f"f is not nondecreasing: f(-1e+308) = 1e+308 > f({second}) = {second[1:]}"
        assert report == scalar_validate(f, interval)


class TestProofPath:
    """Validation proves f' > 0 with one interval enclosure where it can, and gives the samples' report."""

    def path(self, monkeypatch, source, interval):
        """The report, and the scalar calls of validation besides f(b) and f'(b).

        They are 1 on the proof path, f(a), and 63 on the sampled one, the
        samples before b; 64 where a proof held but f(a) is not finite.
        """
        calls = count_scalar_calls(monkeypatch)
        report = validate_problem(parse(source), interval)
        return report, calls[0] - 2

    def test_a_root_at_a_equal_to_its_bound_holds_on_the_proof_path(self, monkeypatch):
        # |f(a)| = 1e-6 = 1e-6 * max(1, |f(b)|): the tie of root_at_a's <=
        report, calls = self.path(monkeypatch, "0.5*x+1e-6", Interval(0.0, 1.0))
        assert calls == 1
        assert report.root_at_a and report.passed

    def test_a_root_at_a_equal_to_its_bound_holds_on_the_sampled_path(self, monkeypatch):
        # the same tie where f' = 0.75*sqrt(x) divides by sqrt(x) and has no enclosure on [0, 1]
        report, calls = self.path(monkeypatch, "0.5*x*sqrt(x)+1e-6", Interval(0.0, 1.0))
        assert calls == 63
        assert report.root_at_a and report.passed

    # f' = 1 in the first and third, and 1 + 0 in the fourth: simplify dropped the
    # term that is NaN on part of [0, 1], so only the samples see it
    @pytest.mark.parametrize(
        "source",
        [
            "x+sqrt(abs(x-0.5)-0.1)^0-1",
            "x+0*ln(abs(x-0.45)-0.1)",
            "x+1^ln(abs(x-0.45)-0.1)-1",
            "x+(1-1)*sqrt(abs(x-0.5)-0.1)",
        ],
    )
    def test_a_term_whose_domain_simplify_dropped_is_sampled_and_fails(self, monkeypatch, capsys, source):
        interval = Interval(0.0, 1.0)
        report, calls = self.path(monkeypatch, source, interval)
        assert calls == 63
        assert report == scalar_validate(parse(source), interval)
        assert not report.monotone_increasing
        assert main(["integrate", "--expr", source, "--lower", "0", "--upper", "1"]) == 2
        assert capsys.readouterr().err == f"error: validation failed: {'; '.join(report.messages)}\n"

    @pytest.mark.parametrize(
        "source, a, b",
        [
            ("((x-1.781)-x)+1.245", 0.0, 1.0),  # f' = 0, not > 0, and the float samples fall
            ("(x+x)*(x+x)", 0.5, 1e154),  # f(b) overflows
            ("2.485*x+0.324", -1e308, 1.0),  # f' > 0, but f(a) overflows
            ("x*sqrt(x)", 0.0, 1.0),  # f' = 1.5*sqrt(x) is unbounded at 0 in its simplified form
        ],
    )
    def test_no_proof_without_finite_ends_and_a_positive_enclosure(self, monkeypatch, source, a, b):
        interval = Interval(a, b)
        report, calls = self.path(monkeypatch, source, interval)
        assert calls == (64 if a == -1e308 else 63)  # f(a) overflows only after the proof held
        assert report == scalar_validate(parse(source), interval)

    def test_a_float_fall_by_rounding_alone_does_not_undo_a_proof(self, monkeypatch):
        # f' = 1e-14 > 0, so f rises on [0, 1], but the rounding of (x-1.781)-x makes its float
        # samples fall; the proof reports f as increasing where the samples reported the fall
        # (nr_integrate stops first, on |f'(b)| <= 1e-12)
        source, interval = "1e-14*x+((x-1.781)-x)+1.781", Interval(0.0, 1.0)
        report, calls = self.path(monkeypatch, source, interval)
        assert calls == 1 and report.passed
        assert "f is not nondecreasing" in scalar_validate(parse(source), interval).messages[0]

    def test_random_trees_on_extreme_bounds(self):
        # a Tier-1 slice of tests/sweep_validation.py, which prints each disagreement
        reports, proved, disagreements = sweep(12_000, 22)
        assert disagreements == 0
        assert (reports, proved) == (12_012, 2_632)

    def test_corpus_terms_and_their_sums(self):
        # the samples take the 15 sums with x*sqrt(x), whose f' divides by sqrt(x),
        # and the 4 sums of x^2 and x^3 alone, whose f'(0) = 0; the proof takes the rest
        sums = [f"{a}+{b}" for a in CORPUS_TERMS for b in CORPUS_TERMS]
        sampled = [s for s in sums if not takes_proof_path(parse(s), Interval(0.0, 3.0))]
        assert len(sampled) == 15 + 4
        assert all("x*sqrt(x)" in s or s.count("x^") == 2 for s in sampled)


class TestNrIntegrate:
    def test_worked_example_at_coarse_tolerance(self):
        f = parse(QUAD)
        result = nr_integrate(f, QUAD_INTERVAL, NrQuadSettings(tol_x=0.01))
        assert len(result.areas) == 4
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
        assert len(result.areas) == 1
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
        xs = [step.x_k for step in result.trace.steps] + [result.trace.final_x]
        for area, x_hi, x_lo in zip(result.areas, xs, xs[1:]):
            excess += area - (F(x_hi) - F(x_lo))
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
            assert len(result.areas) == 1
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

    @pytest.mark.parametrize("source, interval, settings, status", BOOKKEEPING_CASES, ids=BOOKKEEPING_IDS)
    def test_bookkeeping_identity(self, source, interval, settings, status):
        result = nr_integrate(parse(source), interval, settings)
        assert result.status is status
        # one area per Newton step, and the value is the areas, then the closing triangle, added one at a time
        assert len(result.areas) == len(result.trace.steps)
        total = 0.0
        for area in result.areas:
            total += area
        total += result.closing_area
        assert result.value.hex() == total.hex()
        if not settings.closing_triangle:
            assert result.closing_area == 0.0

    def test_width_identity(self):
        f = parse(QUAD)
        result = nr_integrate(f, QUAD_INTERVAL, NrQuadSettings(tol_x=1e-8))
        for step in result.trace.steps:
            assert abs(step.step * step.df_k - step.f_k) <= 1e-12 * abs(step.f_k)

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
        assert len(result.areas) == 1
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
        assert len(result.areas) == 1

    def test_a_call_builds_no_settings_and_no_stopping_criteria(self, monkeypatch):
        # the settings' criteria, validated when the settings were built, serve every call
        settings = NrQuadSettings(max_iter=2)
        built = []

        def counted(init):
            def counting_init(self, *args, **kwargs):
                built.append(type(self))
                init(self, *args, **kwargs)

            return counting_init

        for cls in (NrQuadSettings, StoppingCriteria):
            monkeypatch.setattr(cls, "__init__", counted(cls.__init__))
        default = nr_integrate(parse(QUAD), QUAD_INTERVAL)
        short = nr_integrate(parse(QUAD), QUAD_INTERVAL, settings)
        assert built == []
        monkeypatch.undo()
        assert default == nr_integrate(parse(QUAD), QUAD_INTERVAL, NrQuadSettings())
        assert short == nr_integrate(parse(QUAD), QUAD_INTERVAL, NrQuadSettings(max_iter=2))
        assert (short.status, len(short.areas)) == (QuadStatus.BUDGET_EXHAUSTED, 2)

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

    # f and f' once at each of the 6 iterates and f at the last one; with
    # validation, f(b) and f'(b) come from the first step, f' = 4x+3 is
    # proved positive on [a, b], and f(a) is one more call, where sampling
    # took 63 more
    @pytest.mark.parametrize(
        "validate, expected_calls", [(True, 14), (False, 13)], ids=["validated", "unvalidated"]
    )
    def test_worked_example(self, calls, validate, expected_calls):
        result = nr_integrate(parse(QUAD), QUAD_INTERVAL, NrQuadSettings(validate=validate))
        assert len(result.areas) == 6
        assert result.trace.termination is Termination.REACHED_TARGET
        assert calls[0] == expected_calls

    # f' = 1.5*sqrt(x) has no enclosure on [0, 1], since its simplified form
    # divides by sqrt(x), so validation samples: f(b) and f'(b) from the first
    # step, f at the other 63 samples, and f and f' at 12 iterates
    def test_a_problem_without_a_proof_samples_63_points(self, calls):
        result = nr_integrate(parse("x*sqrt(x)"), Interval(0.0, 1.0))
        assert len(result.areas) == 13
        assert calls[0] == 27 + 63

    # a clamp closes the last panel with the f(a + 0.0) that validation found, unless a is -0.0: there f is
    # evaluated at a itself, and sqrt(-0.0) = -0.0 makes the closing triangle 0.5*0.0*(-0.0) = -0.0
    @pytest.mark.parametrize(
        "a, expected_calls, closing_sign", [(0.0, 3 + 63, 1.0), (-0.0, 4 + 63, -1.0)], ids=["zero", "negative-zero"]
    )
    def test_a_clamp_reuses_the_f_a_of_validation(self, calls, a, expected_calls, closing_sign):
        # validation samples: 63 of the calls
        result = nr_integrate(parse("sqrt(x)"), Interval(a, 1.0), NrQuadSettings(closing_triangle=True))
        assert result.trace.termination is Termination.OVERSHOOT_CLAMPED and len(result.areas) == 1
        assert calls[0] == expected_calls
        assert math.copysign(1.0, result.closing_area) == closing_sign

    # the scalar closures of f and f'; validation reuses f's where it proves f' > 0 and where it
    # samples (x*sqrt(x) on [0, 1], as TestProofPath pins), and validate_problem builds its own
    # two: no batch evaluator on either path
    @pytest.mark.parametrize("validate", [True, False])
    def test_builds_two_scalar_evaluators_and_no_batch_evaluator(self, calls, monkeypatch, validate):
        compiled = []

        def counting(e, many):
            compiled.append(e)
            return many

        patch_compiler(monkeypatch, "_compile_batch", counting)
        for source, interval in ((QUAD, QUAD_INTERVAL), ("x*sqrt(x)", Interval(0.0, 1.0))):
            f, built = parse(source), calls[1]
            nr_integrate(f, interval, NrQuadSettings(validate=validate))
            assert calls[1] - built == 2
            validate_problem(f, interval)
            assert calls[1] - built == 4
        assert compiled == []

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

    # the error raised is the one that ended the iteration, with no evaluation
    # at the last point to build it again: 75 and 6 when the rule rebuilt it
    @pytest.mark.parametrize(
        "source, error, message, expected",
        [
            (
                "x^3",
                DerivativeVanishedError,
                "derivative vanished at x = 4.5784099211821645e-07 (|f'(x)| = 6.288551221913782e-13 <= 1e-12)",
                74,
            ),
            (
                "x^3+1e-6*sqrt(x-0.9)",
                NonfiniteValueError,
                "nonfinite value at x = 0.6666667369394665 (f = nan, f' = nan)",
                4,
            ),
        ],
    )
    def test_a_failed_step_is_raised_without_evaluating_again(self, calls, source, error, message, expected):
        settings = NrQuadSettings(tol_x=1e-30, tol_f=1e-300, max_iter=1000, validate=False)
        with pytest.raises(error) as caught:
            nr_integrate(parse(source), Interval(0.0, 1.0), settings)
        assert type(caught.value) is error
        assert str(caught.value) == message
        assert calls[0] == expected


class TestInterval:
    @pytest.mark.parametrize(
        "a, b", [(1.0, 1.0), (2.0, 1.0), (math.nan, 1.0), (0.0, math.inf), ("0", 1.0), (0.0, None), (0.0, 1j)]
    )
    def test_rejects_bad_bounds(self, a, b):
        with pytest.raises(ValueError, match=f", got {re.escape(repr([a, b]))}$"):
            Interval(a, b)

    def test_accepts_ordered_finite_bounds(self):
        interval = Interval(-0.5, 1.0)
        assert interval.a == -0.5
        assert interval.b == 1.0
