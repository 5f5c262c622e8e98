"""Parser, evaluator, derivative, simplifier, and printer tests."""

import math
import random
import struct

import pytest

from nrquad.baselines import CHUNK
from nrquad.expressions import (
    MAX_DEPTH,
    BinOp,
    Call,
    Const,
    Neg,
    ParseError,
    Var,
    differentiate,
    evaluate,
    evaluate_many,
    parse,
    simplify,
    to_text,
)
from support import central_difference, random_polynomial, random_tree

QUAD = "2*x^2+3*x+1"
QUINTIC = "5*x^5+4*x^4-3*x^3+2*x^2+4*x+1"


class TestParse:
    def test_single_variable(self):
        assert parse("x") == Var()

    def test_quadratic_matches_direct_arithmetic(self):
        f = parse(QUAD)
        for x in (-0.5, 0.0, 0.25, 1.0, 2.5, -3.0):
            assert evaluate(f, x) == 2 * x**2 + 3 * x + 1

    def test_quintic_matches_direct_arithmetic(self):
        f = parse(QUINTIC)
        for x in (-1.0, -0.3, 0.0, 0.7, 1.2):
            expected = 5 * x**5 + 4 * x**4 - 3 * x**3 + 2 * x**2 + 4 * x + 1
            assert evaluate(f, x) == pytest.approx(expected, rel=1e-15)

    def test_precedence_and_associativity(self):
        assert evaluate(parse("2+3*4"), 0.0) == 14.0
        assert evaluate(parse("2*3^2"), 0.0) == 18.0
        assert evaluate(parse("2^3^2"), 0.0) == 512.0  # right-associative
        assert evaluate(parse("-2^2"), 0.0) == -4.0  # unary minus binds looser than ^
        assert evaluate(parse("2*-3"), 0.0) == -6.0  # and tighter than *
        assert evaluate(parse("x^-1"), 4.0) == 0.25
        assert evaluate(parse("(2+3)*4"), 0.0) == 20.0

    def test_number_literals(self):
        assert evaluate(parse("0.5"), 0.0) == 0.5
        assert evaluate(parse(".5"), 0.0) == 0.5
        assert evaluate(parse("2e3"), 0.0) == 2000.0
        assert evaluate(parse("1.25e-2"), 0.0) == 0.0125

    def test_functions_parse(self):
        assert evaluate(parse("sin(x)"), 0.0) == 0.0
        assert evaluate(parse("exp(ln(x))"), 2.0) == pytest.approx(2.0, rel=1e-15)
        assert evaluate(parse("sqrt(abs(x))"), -9.0) == 3.0

    @pytest.mark.parametrize(
        "source, offset",
        [
            ("2x", 1),  # no implicit multiplication
            ("2$3", 1),
            ("x +", 3),
            ("(x", 2),
            ("", 0),
            ("   ", 0),
        ],
    )
    def test_syntax_errors_carry_offsets(self, source, offset):
        with pytest.raises(ParseError) as err:
            parse(source)
        assert err.value.offset == offset

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier 'y'"):
            parse("x+y")

    def test_function_without_parentheses(self):
        with pytest.raises(ParseError, match="after function name 'sin'"):
            parse("sin x")

    def test_function_arity(self):
        with pytest.raises(ParseError, match="exactly one argument"):
            parse("sin(x, 1)")


def _nest(template, times):
    text = "x"
    for _ in range(times):
        text = template.format(text)
    return text


class TestDepthBound:
    # the deepest accepted shapes, including those whose derivatives grow fastest
    @pytest.mark.parametrize(
        "source",
        [
            "+".join(["x"] * MAX_DEPTH),
            "-" * (MAX_DEPTH - 1) + "x",
            _nest("({})^x", MAX_DEPTH - 1),
            _nest("x^({})", MAX_DEPTH - 1),
            _nest("x/({})", MAX_DEPTH - 1),
            _nest("sqrt({})", MAX_DEPTH - 1),
            "(" * 2 * MAX_DEPTH + "x" + ")" * 2 * MAX_DEPTH,
        ],
        ids=["sum", "negations", "left-powers", "right-powers", "quotients", "calls", "parentheses"],
    )
    def test_deepest_accepted_trees_survive_every_walk(self, source):
        f = parse(source)
        df = simplify(differentiate(f))
        assert evaluate(parse(to_text(f)), 0.75) == evaluate(f, 0.75)
        evaluate(df, 0.75)
        to_text(df)

    def test_printed_trees_of_accepted_depth_parse_again(self):
        # negations and right-nested powers print with the most nesting; a
        # negative constant prints as (-c), which parses as Neg(Const(c))
        for leaf in (Const(2.0), Const(-2.0)):
            deepest = leaf
            for level in range(MAX_DEPTH - 1):
                deepest = BinOp("^", Var(), deepest) if level % 2 else Neg(deepest)
            text = to_text(deepest)
            assert to_text(parse(text)) == text

    @pytest.mark.parametrize(
        "source, offset",
        [
            ("(" * 2000 + "x" + ")" * 2000, 2 * MAX_DEPTH + 2),
            ("+".join(["x"] * 3000), 0),
            ("+".join(["x"] * (MAX_DEPTH + 1)), 0),
            ("-" * MAX_DEPTH + "x", 0),
            (_nest("sin({})", MAX_DEPTH), 0),
        ],
        ids=["2000-parentheses", "3000-terms", "one-term-too-many", "negations", "calls"],
    )
    def test_deeper_input_is_a_parse_error(self, source, offset):
        with pytest.raises(ParseError, match=f"nests deeper than {MAX_DEPTH} levels") as err:
            parse(source)
        assert err.value.offset == offset


class TestEvaluate:
    def test_quadratic_at_one(self):
        assert evaluate(parse(QUAD), 1.0) == 6.0

    def test_identity_at_zero(self):
        assert evaluate(parse("x"), 0.0) == 0.0

    def test_quadratic_near_first_iterate(self):
        # 2*(0.142857)^2 + 3*0.142857 + 1, computed directly
        x = 0.142857
        expected = 2 * x**2 + 3 * x + 1
        value = evaluate(parse(QUAD), x)
        assert value == expected
        assert abs(value - 1.469388) < 1e-6

    @pytest.mark.parametrize("source, x", [("ln(x)", -1.0), ("sqrt(x)", -4.0), ("1/x", 0.0), ("ln(x)", 0.0)])
    def test_domain_violations_are_nan(self, source, x):
        assert math.isnan(evaluate(parse(source), x))

    def test_nan_input_propagates(self):
        assert math.isnan(evaluate(parse(QUAD), math.nan))


def bits(values):
    # Every NaN counts as one value.  Where two NaNs of opposite sign meet in
    # a + or *, CPython returns either operand's, and scalar evaluate itself
    # differs between its first call and later ones: on (-x)+x at x = nan the
    # first call returns +nan and the later ones -nan.
    return ["nan" if math.isnan(v) else struct.pack("<d", v) for v in values]


class TestEvaluateMany:
    # domain edges, signed zeros, overflow and nonfinite input among ordinary points
    POINTS = [-3.0, -1.0, -1e-300, -0.0, 0.0, 1e-8, 0.5, 1.0, 2.5, 1e308, math.inf, math.nan]

    def test_bit_identical_to_scalar_evaluate_on_random_trees(self):
        rng = random.Random(6060)
        nan_count = 0
        for _ in range(15_000):
            e = random_tree(rng, rng.randint(1, 5))
            for tree in (e, simplify(differentiate(e))):
                values = evaluate_many(tree, self.POINTS)
                assert bits(values) == bits([evaluate(tree, x) for x in self.POINTS]), to_text(tree)
                nan_count += sum(map(math.isnan, values))
        # the corpus must keep exercising the NaN paths
        assert nan_count > 30_000

    @pytest.mark.parametrize("size", [CHUNK - 1, CHUNK, CHUNK + 1])
    def test_bit_identical_at_chunk_boundaries(self, size):
        xs = [-2.0 + 4.0 * i / (size - 1) for i in range(size)]
        xs[size // 2] = 0.0
        for source in ("sin(x)/x", "ln(x)*sqrt(x)", "x^(-2)+exp(x)", "(1/x)^2"):
            f = parse(source)
            assert bits(evaluate_many(f, xs)) == bits([evaluate(f, x) for x in xs]), source

    def test_failure_is_nan_even_where_nan_does_not_propagate(self):
        # ln(-1) fails, and pow(nan, 0) == 1 would hide it
        f = BinOp("^", Call("ln", Var()), Const(0.0))
        values = evaluate_many(f, [-1.0, 1.0])
        assert math.isnan(values[0]) and math.isnan(evaluate(f, -1.0))
        assert values[1] == 1.0

    def test_returns_a_new_list(self):
        assert evaluate_many(parse(QUAD), []) == []
        xs = [0.25, -1.0]
        values = evaluate_many(Var(), xs)
        assert values == xs and values is not xs


class TestDifferentiate:
    def test_quadratic_derivative_at_one(self):
        df = differentiate(parse(QUAD))
        assert evaluate(df, 1.0) == 7.0

    def test_variable(self):
        assert differentiate(parse("x")) == Const(1.0)

    def test_derivative_at_second_iterate(self):
        # two exact Newton steps from 1 land on x2 = -47/175
        f = parse(QUAD)
        df = differentiate(f)
        x = 1.0
        for _ in range(2):
            x = x - evaluate(f, x) / evaluate(df, x)
        assert evaluate(df, x) == pytest.approx(4 * x + 3, rel=1e-15)
        assert abs(evaluate(df, x) - 1.925714) < 1e-6

    @pytest.mark.parametrize(
        "source, point, expected",
        [
            ("sin(x)*cos(x)", 0.7, math.cos(2 * 0.7)),
            ("x/(x+1)", 2.0, 1.0 / 9.0),
            ("exp(2*x)", 0.3, 2.0 * math.exp(0.6)),
            ("ln(x^2)", 3.0, 2.0 / 3.0),
            ("sqrt(x)", 4.0, 0.25),
            ("tan(x)", 0.5, 1.0 / math.cos(0.5) ** 2),
            ("abs(x)", -2.0, -1.0),
        ],
    )
    def test_rules_against_analytic(self, source, point, expected):
        df = differentiate(parse(source))
        assert evaluate(df, point) == pytest.approx(expected, rel=1e-12)

    def test_general_power_via_exp_ln(self):
        # d/dx x^x = x^x * (ln x + 1)
        df = differentiate(parse("x^x"))
        x = 1.5
        assert evaluate(df, x) == pytest.approx(x**x * (math.log(x) + 1.0), rel=1e-12)
        # non-positive base evaluates to NaN under the exp/ln rewrite
        assert math.isnan(evaluate(df, -1.0))

    def test_matches_central_differences(self):
        rng = random.Random(20240811)
        checked = 0
        while checked < 200:
            e = random_tree(rng, rng.randint(1, 5))
            x = rng.uniform(-2.0, 2.0)
            h = 1e-6 * max(1.0, abs(x))
            values = [evaluate(e, x + d) for d in (-h, -h / 2, 0.0, h / 2, h)]
            if not all(math.isfinite(v) and abs(v) < 1e8 for v in values):
                continue
            sym = evaluate(differentiate(e), x)
            if not math.isfinite(sym):
                continue
            fd_h = central_difference(e, x, h)
            fd_half = central_difference(e, x, h / 2)
            # only trust the finite-difference oracle where it has converged
            if not (math.isfinite(fd_h) and math.isfinite(fd_half)):
                continue
            if abs(fd_h - fd_half) > 1e-7 * max(1.0, abs(fd_half)):
                continue
            if abs(fd_half) < 1e-3:
                continue
            assert abs(sym - fd_half) <= 1e-5 * max(abs(sym), abs(fd_half))
            checked += 1

    def test_linearity(self):
        rng = random.Random(7)
        for _ in range(50):
            f, _ = random_polynomial(rng)
            g, _ = random_polynomial(rng)
            alpha = round(rng.uniform(-2, 2), 3)
            beta = round(rng.uniform(-2, 2), 3)
            combined = BinOp("+", BinOp("*", Const(alpha), f), BinOp("*", Const(beta), g))
            x = rng.uniform(-3, 3)
            lhs = evaluate(differentiate(combined), x)
            rhs = alpha * evaluate(differentiate(f), x) + beta * evaluate(differentiate(g), x)
            if math.isfinite(lhs) and math.isfinite(rhs):
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestSimplify:
    def test_neutral_elements(self):
        assert simplify(parse("0+x")) == Var()
        assert simplify(parse("x+0")) == Var()
        assert simplify(parse("1*x")) == Var()
        assert simplify(parse("x*0")) == Const(0.0)
        assert simplify(parse("x/1")) == Var()
        assert simplify(parse("x^1")) == Var()

    def test_constant_folding(self):
        assert simplify(parse("2*3")) == Const(6.0)
        assert simplify(parse("sin(0)")) == Const(0.0)
        assert simplify(parse("2^3+1")) == Const(9.0)

    def test_derivative_of_linear_term_collapses(self):
        assert simplify(differentiate(parse("3*x"))) == Const(3.0)

    def test_no_domain_changing_rewrites(self):
        # x/x must stay: it is undefined at 0
        e = simplify(parse("x/x"))
        assert math.isnan(evaluate(e, 0.0))
        # 1/0 folds to nothing (stays a division) because the result is not finite
        e = simplify(parse("1/0"))
        assert math.isnan(evaluate(e, 1.0))

    def test_preserves_values_on_random_trees(self):
        rng = random.Random(99)
        for _ in range(300):
            e = random_tree(rng, rng.randint(1, 5))
            s = simplify(e)
            for _ in range(4):
                x = rng.uniform(-3, 3)
                before = evaluate(e, x)
                after = evaluate(s, x)
                if math.isfinite(before) and math.isfinite(after):
                    assert after == pytest.approx(before, rel=1e-12, abs=1e-12)


class TestToText:
    def test_variable(self):
        assert to_text(Var()) == "x"

    def test_constant(self):
        assert to_text(Const(3.375)) == "3.375"

    def test_negative_constant_reparses_correctly(self):
        # without parentheses (-3)^2 would re-parse as -(3^2)
        e = BinOp("^", Const(-3.0), Const(2.0))
        assert evaluate(parse(to_text(e)), 0.0) == 9.0

    def test_quadratic_round_trip(self):
        f = parse(QUAD)
        g = parse(to_text(f))
        for x in (-1.0, -0.5, 0.0, 0.3, 1.0, 10.0):
            assert evaluate(g, x) == evaluate(f, x)

    def test_round_trip_is_exact_on_random_trees(self):
        rng = random.Random(1234)
        for _ in range(300):
            e = random_tree(rng, rng.randint(1, 5))
            reparsed = parse(to_text(e))
            for _ in range(3):
                x = rng.uniform(-4, 4)
                v = evaluate(e, x)
                if math.isfinite(v):
                    assert evaluate(reparsed, x) == v
