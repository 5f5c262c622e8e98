"""Classical rule tests: frozen worked-example values, orders, identities."""

import itertools
import math
import random
import struct
import tracemalloc

import pytest

import nrquad.baselines
import nrquad.cli
import support
from nrquad.baselines import (
    CHUNK,
    DepthLimitError,
    NonfiniteSampleError,
    _grid_rules,
    error_stats,
    left_riemann,
    midpoint,
    reference_integral,
    right_riemann,
    simpson,
    trapezoid,
)
from nrquad.cli import main
from nrquad.expressions import _Compiled, evaluate, parse, to_text
from nrquad.quadrature import Interval
from support import (
    SCALAR_RULES,
    count_scalar_calls,
    poly_value,
    random_polynomial,
    random_tree,
    record_batches,
    scalar_reference,
)

QUAD = parse("2*x^2+3*x+1")
QUAD_INTERVAL = Interval(-0.5, 1.0)
UNIT = Interval(0.0, 1.0)
EXP = parse("exp(x)")


class TestFixedRules:
    def test_left_riemann_worked_example(self):
        # 0.5 * (f(-0.5) + f(0) + f(0.5)) = 0.5 * (0 + 1 + 3)
        value = left_riemann(QUAD, QUAD_INTERVAL, 3)
        assert value == 2.0
        assert error_stats(value, 3.375).rel_error_pct == pytest.approx(40.7407, abs=1e-4)

    def test_right_riemann_worked_example(self):
        value = right_riemann(QUAD, QUAD_INTERVAL, 3)
        assert value == 5.0
        assert error_stats(value, 3.375).rel_error_pct == pytest.approx(48.1481, abs=1e-4)

    def test_midpoint_worked_example(self):
        value = midpoint(QUAD, QUAD_INTERVAL, 3)
        assert value == 3.3125
        assert error_stats(value, 3.375).rel_error_pct == pytest.approx(1.8518, abs=1e-4)

    def test_trapezoid_worked_example(self):
        value = trapezoid(QUAD, QUAD_INTERVAL, 3)
        assert value == 3.5
        assert error_stats(value, 3.375).rel_error_pct == pytest.approx(3.7037, abs=1e-4)

    def test_constants_are_exact(self):
        one = parse("0*x+1")
        assert left_riemann(one, UNIT, 4) == 1.0
        assert right_riemann(one, UNIT, 4) == 1.0
        assert midpoint(one, UNIT, 7) == 1.0
        assert trapezoid(one, UNIT, 2) == 1.0

    def test_identity_endpoints(self):
        x = parse("x")
        assert left_riemann(x, UNIT, 1) == 0.0
        assert right_riemann(x, UNIT, 1) == 1.0
        assert midpoint(x, UNIT, 1) == 0.5
        assert trapezoid(x, UNIT, 1) == 0.5

    def test_simpson_exact_on_quadratic(self):
        assert simpson(QUAD, QUAD_INTERVAL, 2) == 3.375

    def test_simpson_exact_on_cubic(self):
        assert simpson(parse("x^3"), UNIT, 2) == 0.25

    def test_simpson_rejects_odd_counts(self):
        with pytest.raises(ValueError, match="even"):
            simpson(QUAD, QUAD_INTERVAL, 3)

    @pytest.mark.parametrize("rule", [left_riemann, right_riemann, midpoint, trapezoid, simpson])
    def test_rejects_nonpositive_counts(self, rule):
        with pytest.raises(ValueError):
            rule(QUAD, QUAD_INTERVAL, 0)

    def test_nonfinite_sample_names_the_point(self):
        with pytest.raises(NonfiniteSampleError) as err:
            trapezoid(parse("ln(x)"), Interval(-1.0, 1.0), 2)
        assert err.value.x == -1.0


class TestOrderingInvariants:
    @pytest.mark.parametrize("f, interval", [(QUAD, QUAD_INTERVAL), (EXP, UNIT)])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 17])
    def test_riemann_brackets_on_increasing_f(self, f, interval, n):
        lo = left_riemann(f, interval, n)
        hi = right_riemann(f, interval, n)
        assert lo <= midpoint(f, interval, n) <= hi
        assert lo <= trapezoid(f, interval, n) <= hi

    @pytest.mark.parametrize("f, interval", [(parse("x^2"), Interval(0.0, 2.0)), (EXP, UNIT)])
    @pytest.mark.parametrize("n", [1, 2, 4, 9])
    def test_midpoint_trapezoid_sandwich_on_convex_f(self, f, interval, n):
        exact = reference_integral(f, interval)
        assert midpoint(f, interval, n) <= exact <= trapezoid(f, interval, n)


class TestConvergenceOrders:
    def test_second_order_rules_quarter_their_error(self):
        exact = math.e - 1.0
        for rule in (midpoint, trapezoid):
            e8 = abs(rule(EXP, UNIT, 8) - exact)
            e16 = abs(rule(EXP, UNIT, 16) - exact)
            assert 3.8 <= e8 / e16 <= 4.2

    def test_simpson_is_fourth_order(self):
        exact = math.e - 1.0
        e4 = abs(simpson(EXP, UNIT, 4) - exact)
        e8 = abs(simpson(EXP, UNIT, 8) - exact)
        assert 14.0 <= e4 / e8 <= 18.0


class TestRefinementIdentity:
    def test_trapezoid_refines_through_midpoint(self):
        rng = random.Random(424242)
        smooth = [parse("exp(x)"), parse("sin(x)+2*x"), parse("x^3-x+2")]
        for _ in range(20):
            f, _ = random_polynomial(rng, max_degree=4)
            smooth.append(f)
        for f in smooth:
            interval = Interval(-1.0, 1.5)
            for n in (1, 2, 3, 7):
                refined = trapezoid(f, interval, 2 * n)
                mean = 0.5 * (trapezoid(f, interval, n) + midpoint(f, interval, n))
                assert refined == pytest.approx(mean, rel=1e-12, abs=1e-12)


class TestReferenceIntegral:
    def test_worked_example(self):
        assert reference_integral(QUAD, QUAD_INTERVAL) == pytest.approx(3.375, abs=1e-10)

    def test_identity(self):
        assert reference_integral(parse("x"), UNIT) == pytest.approx(0.5, abs=1e-12)

    def test_exponential(self):
        assert reference_integral(EXP, UNIT) == pytest.approx(math.e - 1.0, abs=1e-10)

    def test_polynomials_against_analytic_antiderivative(self):
        rng = random.Random(11)
        for _ in range(25):
            f, coeffs = random_polynomial(rng, max_degree=6)
            a = rng.uniform(-2.0, 0.0)
            b = a + rng.uniform(0.5, 3.0)
            anti = [0.0] + [c / (i + 1) for i, c in enumerate(coeffs)]
            exact = poly_value(anti, b) - poly_value(anti, a)
            value = reference_integral(f, Interval(a, b))
            assert value == pytest.approx(exact, rel=1e-9, abs=1e-9)

    def test_undefined_region_hits_depth_cap(self):
        with pytest.raises(DepthLimitError):
            reference_integral(parse("ln(x)"), Interval(-1.0, 1.0))

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            reference_integral(QUAD, QUAD_INTERVAL, tol=0.0)


class TestErrorStats:
    def test_midpoint_stats_of_worked_example(self):
        stats = error_stats(3.3125, 3.375)
        assert stats.abs_error == 0.0625
        assert stats.rel_error_pct == pytest.approx(1.8518, abs=1e-4)

    def test_exact_match_is_zero(self):
        stats = error_stats(2.5, 2.5)
        assert stats.abs_error == 0.0
        assert stats.rel_error_pct == 0.0

    def test_printed_term_sum_of_worked_example(self):
        # the honest relative error of the four-panel chain's printed terms
        stats = error_stats(3.6142, 3.375)
        assert stats.rel_error_pct == pytest.approx(7.088, abs=1e-3)

    def test_zero_reference_is_undefined(self):
        assert math.isnan(error_stats(1.0, 0.0).rel_error_pct)
        assert error_stats(1.0, 0.0).abs_error == 1.0


RULES = [left_riemann, right_riemann, midpoint, trapezoid, simpson]


def outcome(rule, f, interval, n):
    """A rule's value as bits, or the error it raised with its sample."""
    try:
        return as_outcome(rule(f, interval, n))
    except ValueError as exc:
        return as_outcome(exc)


def as_outcome(result):
    if isinstance(result, NonfiniteSampleError):
        return "nonfinite", struct.pack("<d", result.x), repr(result.value), str(result)
    if isinstance(result, ValueError):
        return type(result), str(result)
    return struct.pack("<d", result)


NONFINITE_CASES = [
    ("sin(x)/x", -1.0, 2.0, 3),  # a node lands on 0
    ("sin(x)/x", -1.0, 1.0, 4),
    ("ln(x)", -1.0, 1.0, 2),
    ("1/((x+1)*(x-1))", -1.0, 1.0, 4),  # both ends; a is sampled first
    # nodes are the integers; the pole at 300 is in the second chunk
    ("1/(x-300)", 0.0, 3.0 * CHUNK + 2, 3 * CHUNK + 2),
    ("1/((x-300)*(x-700))", 0.0, 3.0 * CHUNK + 2, 3 * CHUNK + 2),
    ("x*x*x", 0.0, 1e103, 4),  # an infinite sample, not a NaN
    ("x*x", 0.0, 1.3e154, 2 * CHUNK),  # finite samples whose sum overflows
]


class TestBatchedRulesMatchScalarOracle:
    """Each rule against the scalar loop it replaced, one evaluate per node."""

    # node counts of a chunk minus one, a chunk and a chunk plus one, for
    # rules with n nodes and for those with n - 1 interior nodes
    SIZES = [1, 2, 3, 4, 5, 8, 17, CHUNK - 1, CHUNK, CHUNK + 1, CHUNK + 2, 3 * CHUNK + 1, 3 * CHUNK + 2]

    @pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.__name__)
    @pytest.mark.parametrize("f, interval", [(QUAD, QUAD_INTERVAL), (EXP, UNIT)], ids=["quad", "exp"])
    def test_bit_identical_values(self, rule, f, interval):
        oracle = SCALAR_RULES[rule.__name__]
        for n in self.SIZES:
            assert outcome(rule, f, interval, n) == outcome(oracle, f, interval, n), n

    @pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.__name__)
    @pytest.mark.parametrize("source, a, b, n", NONFINITE_CASES)
    def test_same_first_nonfinite_sample(self, rule, source, a, b, n):
        f, interval = parse(source), Interval(a, b)
        assert outcome(rule, f, interval, n) == outcome(SCALAR_RULES[rule.__name__], f, interval, n)

    def test_node_on_zero_is_reported(self):
        with pytest.raises(NonfiniteSampleError) as err:
            left_riemann(parse("sin(x)/x"), Interval(-1.0, 2.0), 3)
        assert err.value.x == 0.0 and math.isnan(err.value.value)


class TestGridRulesMatchScalarOracle:
    """The one-pass helper, for every non-empty set of rules, against each rule's scalar loop."""

    SUBSETS = [names for k in range(1, 6) for names in itertools.combinations(SCALAR_RULES, k)]

    def check(self, f, interval, n):
        """Compares every subset; returns the oracle's outcomes."""
        expected = {name: outcome(oracle, f, interval, n) for name, oracle in SCALAR_RULES.items()}
        compiled = _Compiled(f)
        for names in self.SUBSETS:
            results = _grid_rules(compiled, interval, n, names)
            assert {name: as_outcome(result) for name, result in results.items()} == {
                name: expected[name] for name in names
            }, (names, n)
        return expected

    def test_thirty_one_subsets(self):
        assert len(self.SUBSETS) == 31

    @pytest.mark.parametrize("f, interval", [(QUAD, QUAD_INTERVAL), (EXP, UNIT)], ids=["quad", "exp"])
    def test_sizes(self, f, interval):
        for n in [-1, 0, *TestBatchedRulesMatchScalarOracle.SIZES]:
            self.check(f, interval, n)

    @pytest.mark.parametrize("source, a, b, n", NONFINITE_CASES)
    def test_nonfinite_samples(self, source, a, b, n):
        self.check(parse(source), Interval(a, b), n)

    @pytest.mark.parametrize(
        "source, a, b",
        [
            # a + 0*h is 0.0 and a is -0.0: left and trapezoid fail at different points
            ("1/x", -0.0, 1.0),
            ("x", -0.0, 1.0),
            # h is inf: a + 0*h is NaN, the other nodes are inf, and a and b are finite
            ("x", -1e308, 1e308),
            ("1/x", -1e308, 1e308),
            ("0*x+1", -1e308, 1e308),
            # f(a) + f(b) overflows: the trapezoid starts from inf, not from 1e308
            ("1e308+0*x", 0.0, 1.0),
        ],
    )
    def test_extreme_nodes_and_sums(self, source, a, b):
        for n in (1, 2, 3, 4, 5):
            self.check(parse(source), Interval(a, b), n)

    def test_random_trees(self):
        rng = random.Random(31)
        intervals = [Interval(0.0, 1.0), Interval(-1.0, 1.0), Interval(-2.5, 0.5)]
        nonfinite = 0
        for _ in range(40):
            f = random_tree(rng, 3)
            for interval in intervals:
                for n in (1, 2, 3, 8, CHUNK + 2):
                    expected = self.check(f, interval, n)
                    nonfinite += sum(result[0] == "nonfinite" for result in expected.values())
        assert nonfinite >= 300, nonfinite  # 422 of 3,000 outcomes


class TestChunking:
    @pytest.fixture
    def batches(self, monkeypatch):
        return record_batches(monkeypatch)

    @pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.__name__)
    def test_no_batch_is_longer_than_a_chunk(self, rule, batches):
        n = 3 * CHUNK + 2  # even, for simpson; more than three chunks of nodes
        assert rule(QUAD, QUAD_INTERVAL, n) == SCALAR_RULES[rule.__name__](QUAD, QUAD_INTERVAL, n)
        assert max(batches) <= CHUNK
        assert sum(batches) == (n + 1 if rule in (trapezoid, simpson) else n)

    def test_all_rules_evaluate_each_distinct_node_once(self, batches):
        # n - 1 interior nodes, n midpoints, a + 0*h, a + n*h, a and b; the
        # rules one at a time take 5n + 2 between them
        n = 3 * CHUNK + 2
        _grid_rules(_Compiled(QUAD), QUAD_INTERVAL, n, list(SCALAR_RULES))
        assert max(batches) <= CHUNK
        assert sum(batches) == 2 * n + 3

    def test_compare_evaluates_each_grid_node_once(self, batches, monkeypatch, capsys):
        rule_batches = []

        def grid_rules(*args):
            start = len(batches)
            try:
                return nrquad.baselines._grid_rules(*args)
            finally:
                rule_batches.extend(batches[start:])

        monkeypatch.setattr(nrquad.cli, "_grid_rules", grid_rules)
        argv = ["compare", "--expr", "2*x^2+3*x+1", "--lower", "-0.5", "--upper", "1", "--panels", "64"]
        assert main(argv) == 0
        assert "error" not in capsys.readouterr().out
        assert sum(rule_batches) == 2 * 64 + 3 == 131  # 5 * 64 + 2 = 322 one rule at a time
        assert max(batches) <= CHUNK


class TestScalarEvaluationCounts:
    """Scalar evaluator calls, counted as for the 76/13 pins in test_quadrature."""

    @pytest.fixture
    def calls(self, monkeypatch):
        return count_scalar_calls(monkeypatch)

    @pytest.mark.parametrize("rule", [*RULES, reference_integral], ids=lambda rule: rule.__name__)
    def test_rules_make_no_scalar_calls(self, calls, rule):
        if rule is reference_integral:
            rule(QUAD, QUAD_INTERVAL)
        else:
            rule(QUAD, QUAD_INTERVAL, 64)
        assert calls[0] == 0

    def test_compare_calls_come_from_reference_and_nr_only(self, calls, capsys):
        # none for the reference, which batches its points, and the pinned
        # 76 for nr_integrate
        argv = ["compare", "--expr", "2*x^2+3*x+1", "--lower", "-0.5", "--upper", "1", "--panels", "64"]
        assert main(argv) == 0
        assert calls[0] == 0 + 76


def reference_outcome(reference, f, interval, tol=1e-10):
    """A reference value as hex, or the error it raised with its message."""
    try:
        return reference(f, interval, tol).hex()
    except (DepthLimitError, ValueError) as exc:
        return type(exc), str(exc)


class TestReferenceMatchesScalarOracle:
    """reference_integral against the depth-first recursion it replaced."""

    @pytest.mark.parametrize(
        "source, a, b",
        [
            ("ln(x)", -1.0, 1.0),  # NaN on the left half
            ("1/x", -1.0, 1.0),
            ("1.3*sqrt(x)", 0.0, 2.7),
            ("x", 0.0, 1e308),  # the Simpson estimates overflow
            ("x^2", 0.0, 1e150),
            ("sin(1/x)", 0.0, 1.0),
            ("1/(x-0.3)", 0.0, 1.0),  # a pole inside, found after ~70,000 points
            ("1e300", 0.0, 1e10),  # finite panels whose sum overflows to inf
            ("sqrt(x)", 0.0, 1.0),
            ("exp(x)*sin(x)+ln(x+1)/sqrt(x+2)", 0.0, 3.0),
            ("2*x^2+3*x+1", -0.5, 1.0),
        ],
    )
    def test_named_cases(self, source, a, b):
        f, interval = parse(source), Interval(a, b)
        assert reference_outcome(reference_integral, f, interval) == reference_outcome(scalar_reference, f, interval)

    def test_overflowing_sum_is_inf(self):
        assert reference_integral(parse("1e300"), Interval(0.0, 1e10)) == math.inf

    @pytest.mark.parametrize("tol", [1e-3, 1e-7, 1e-13, 5e-324, 0.0])
    def test_tolerances(self, tol):
        for source, a, b in [("sqrt(x)", 0.0, 1.0), ("exp(x)", -1.0, 2.0), ("ln(x)", -1.0, 1.0)]:
            f, interval = parse(source), Interval(a, b)
            assert reference_outcome(reference_integral, f, interval, tol) == reference_outcome(
                scalar_reference, f, interval, tol
            )

    def test_random_trees(self, monkeypatch):
        # Neither version has an evaluation budget, and on a few trees the
        # oracle takes far more points than the others (sin(tan(0.616-x)) on
        # [-1, 1] does not finish), so trees past 3,000 points are left out.
        class OverBudget(Exception):
            pass

        budget = [0]

        def budgeted(e, x):
            budget[0] -= 1
            if budget[0] < 0:
                raise OverBudget
            return evaluate(e, x)

        monkeypatch.setattr(support, "evaluate", budgeted)
        intervals = [Interval(0.0, 1.0), Interval(-1.0, 1.0), Interval(-2.5, 0.5), Interval(0.1, 3.0)]
        rng = random.Random(7)
        compared = raised = 0
        for _ in range(60):
            f = random_tree(rng, 3)
            for interval in intervals:
                budget[0] = 3_000
                try:
                    expected = reference_outcome(scalar_reference, f, interval)
                except OverBudget:
                    continue
                assert reference_outcome(reference_integral, f, interval) == expected, (to_text(f), interval)
                compared += 1
                raised += isinstance(expected, tuple)
        assert compared >= 200 and raised >= 40, (compared, raised)


class TestReferenceBatches:
    @pytest.fixture
    def batches(self, monkeypatch):
        return record_batches(monkeypatch)

    def test_quadratic_takes_five_points(self, batches):
        # the interval's ends and middle, then its two quarter points; Simpson
        # is exact on a quadratic, so the first panel is accepted
        assert reference_integral(QUAD, QUAD_INTERVAL) == 3.375
        assert sum(batches) == 5

    @pytest.mark.parametrize("source, a, b", [("sqrt(x)", 0.0, 1.0), ("1/x", -1.0, 1.0)])
    def test_no_batch_is_longer_than_a_chunk(self, batches, source, a, b):
        # 985 and about 73,000 points
        reference_outcome(reference_integral, parse(source), Interval(a, b))
        assert max(batches) <= CHUNK

    def test_memory_stays_bounded_on_an_input_that_does_not_finish(self, monkeypatch):
        # sin(tan(0.616-x)) on [-1, 1] resolves ever faster oscillations
        # towards its pole and runs for minutes; stopped after 100 batches
        # (about 25,000 points), it must not hold a value per accepted panel:
        # that took 1.2 MB there
        class Stop(Exception):
            pass

        def stop_after_100():
            if len(batches) == 100:
                raise Stop

        batches = record_batches(monkeypatch, stop_after_100)
        tracemalloc.start()
        try:
            with pytest.raises(Stop):
                reference_integral(parse("sin(tan(0.616-x))"), Interval(-1.0, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 640_000

    def test_extra_work_on_a_failing_input_is_bounded(self, batches):
        # the recursion takes 105 points; the batches reach the cap down the
        # leftmost path, at most one batch per level, and raise there
        with pytest.raises(DepthLimitError):
            reference_integral(parse("ln(x)"), Interval(-1.0, 1.0))
        assert sum(batches) <= 51 * CHUNK + 3


class TestReferenceAgainstMpmath:
    """The reference refereed by an independent oracle, mpmath's tanh-sinh quadrature."""

    @pytest.mark.parametrize(
        "source, a, b, integrand",
        [
            ("sqrt(x)", 0.0, 1.0, lambda mp, x: mp.sqrt(x)),
            (
                "exp(x)*sin(x)+ln(x+1)/sqrt(x+2)",
                0.0,
                3.0,
                lambda mp, x: mp.exp(x) * mp.sin(x) + mp.log(x + 1) / mp.sqrt(x + 2),
            ),
            ("2*x^2+3*x+1", -0.5, 1.0, lambda mp, x: 2 * x**2 + 3 * x + 1),
            ("x*sqrt(x)", 0.0, 2.0, lambda mp, x: x * mp.sqrt(x)),
            ("1/(1+x^2)", -3.0, 1.0, lambda mp, x: 1 / (1 + x**2)),
            ("cos(x)^2", 0.0, 10.0, lambda mp, x: mp.cos(x) ** 2),
        ],
    )
    def test_smooth_integrands(self, source, a, b, integrand):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            exact = float(mpmath.quad(lambda x: integrand(mpmath, x), [a, b]))
        assert reference_integral(parse(source), Interval(a, b)) == pytest.approx(exact, rel=1e-10)
