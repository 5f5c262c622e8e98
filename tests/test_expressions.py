"""Parser, evaluator, derivative, simplifier, and printer tests."""

import math
import operator
import random
import struct

import pytest

from nrquad.baselines import CHUNK
from nrquad.expressions import (
    FUNCTION_NAMES,
    MAX_DEPTH,
    BinOp,
    Call,
    Const,
    Neg,
    ParseError,
    Var,
    differentiate,
    evaluate,
    parse,
    simplify,
    to_text,
    _Compiled,
    _derivative,
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
    """The compiled batch kernel, ``_Compiled(e).many``, against evaluate."""

    # domain edges, signed zeros, overflow and nonfinite input among ordinary points
    POINTS = [-3.0, -1.0, -1e-300, -0.0, 0.0, 1e-8, 0.5, 1.0, 2.5, 1e308, math.inf, math.nan]

    def test_bit_identical_to_scalar_evaluate_on_random_trees(self):
        rng = random.Random(6060)
        nan_count = 0
        for _ in range(15_000):
            e = random_tree(rng, rng.randint(1, 5))
            for tree in (e, simplify(differentiate(e))):
                values = _Compiled(tree).many(self.POINTS)
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
            assert bits(_Compiled(f).many(xs)) == bits([evaluate(f, x) for x in xs]), source

    def test_failure_is_nan_even_where_nan_does_not_propagate(self):
        # ln(-1) fails, and pow(nan, 0) == 1 would hide it
        f = BinOp("^", Call("ln", Var()), Const(0.0))
        values = _Compiled(f).many([-1.0, 1.0])
        assert math.isnan(values[0]) and math.isnan(evaluate(f, -1.0))
        assert values[1] == 1.0

    def test_returns_a_new_list(self):
        assert _Compiled(parse(QUAD)).many([]) == []
        xs = [0.25, -1.0]
        values = _Compiled(Var()).many(xs)
        assert values == xs and values is not xs


def any_tree(st):
    """A hypothesis strategy for any expression tree with finite constants, up to 12 leaves."""
    leaves = st.one_of(st.just(Var()), st.floats(allow_nan=False, allow_infinity=False).map(Const))
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.builds(Neg, children),
            st.builds(BinOp, st.sampled_from("+-*/^"), children, children),
            st.builds(Call, st.sampled_from(sorted(FUNCTION_NAMES)), children),
        ),
        max_leaves=12,
    )


def compiled_bits(tree, points):
    at = _Compiled(tree).at
    return bits([at(x) for x in points])


class TestScalarClosures:
    """The compiled scalar evaluator, one closure per node, against evaluate."""

    POINTS = TestEvaluateMany.POINTS

    def test_bit_identical_to_scalar_evaluate_on_random_trees(self):
        rng = random.Random(6061)
        nan_count = 0
        for _ in range(15_000):
            e = random_tree(rng, rng.randint(1, 5))
            for tree in (e, simplify(differentiate(e))):
                want = bits([evaluate(tree, x) for x in self.POINTS])
                assert compiled_bits(tree, self.POINTS) == want, to_text(tree)
                nan_count += want.count("nan")
        assert nan_count > 30_000

    def test_bit_identical_on_any_tree_and_point(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @hypothesis.given(any_tree(st), st.lists(st.floats(), min_size=1, max_size=4))
        def check(tree, points):
            assert compiled_bits(tree, points) == bits([evaluate(tree, x) for x in points])

        check()


class TestCompiledKernel:
    """Cases that only a code generator can get wrong, for the kernel and the closures."""

    POINTS = TestEvaluateMany.POINTS

    def assert_matches_evaluate(self, tree, points=POINTS):
        want = bits([evaluate(tree, x) for x in points])
        assert bits(_Compiled(tree).many(points)) == want
        assert compiled_bits(tree, points) == want

    def test_300_level_neg_chain(self):
        # nested source would pass CPython's limit of 200 parentheses
        tree = Call("sin", Var())
        for _ in range(299):
            tree = Neg(tree)
        assert _Compiled(tree).many([1.0]) == [-math.sin(1.0)]
        self.assert_matches_evaluate(tree)

    def test_300_level_left_leaning_binop_chain(self):
        tree = Var()
        for level in range(300):
            op = "+-*/^"[level % 5]
            tree = BinOp(op, tree, Const(1.0 if op == "^" else 1.0 + level / 1000.0))
        self.assert_matches_evaluate(tree)

    @pytest.mark.parametrize("value", [-0.0, 1e308, 5e-324], ids=["-0.0", "1e308", "5e-324"])
    def test_extreme_constants_keep_their_bits(self, value):
        points = [-1.0, 0.0, 1.0, math.nan]
        at = _Compiled(Const(value)).at
        for root in (_Compiled(Const(value)).many(points), [at(x) for x in points]):
            assert [struct.pack("<d", v) for v in root] == [struct.pack("<d", value)] * len(points)
        for tree in (
            BinOp("*", Var(), Const(value)),
            BinOp("+", Const(value), Neg(Var())),
            Neg(Const(value)),
            Call("sqrt", BinOp("/", Const(value), Var())),
        ):
            self.assert_matches_evaluate(tree, points)

    @pytest.mark.parametrize("op", "+-*/^")
    def test_constant_and_x_operands_on_either_side(self, op):
        # a constant, or x beside a constant, is read in place; x beside a subtree takes the general path
        other = Call("sin", Var())
        for c in (0.0, -0.0, 2.5, -3.0, 1e308):
            for tree in (
                BinOp(op, Const(c), Var()),
                BinOp(op, Var(), Const(c)),
                BinOp(op, Const(c), other),
                BinOp(op, other, Const(c)),
                BinOp(op, Const(c), Const(-1.5)),
            ):
                self.assert_matches_evaluate(tree)
        for left, right in ((Var(), other), (other, Var()), (Var(), Var()), (other, other)):
            self.assert_matches_evaluate(BinOp(op, left, right))

    def test_constant_over_signed_zero_x_is_nan(self):
        tree = BinOp("/", Const(1.0), Var())
        self.assert_matches_evaluate(tree, [0.0, -0.0])
        assert all(math.isnan(_Compiled(tree).at(x)) for x in (0.0, -0.0))

    def test_overflowing_power_of_x_is_nan(self):
        tree = BinOp("^", Var(), Const(3.0))
        self.assert_matches_evaluate(tree, [1e200, -1e200, 1e100])
        assert math.isnan(_Compiled(tree).at(1e200))
        # a product overflows to infinity without raising
        self.assert_matches_evaluate(BinOp("*", Var(), Const(1e308)), [10.0, -10.0])

    @pytest.mark.parametrize("name", sorted(FUNCTION_NAMES))
    def test_each_function_of_x_at_a_domain_error(self, name):
        # the closure of name(x) is the function itself, so its error must reach the root's handler
        failing = {"sin": math.inf, "cos": -math.inf, "tan": math.inf, "exp": 1000.0, "ln": -1.0, "sqrt": -1.0}
        point = failing.get(name, math.nan)  # abs raises for no float
        for tree in (Call(name, Var()), BinOp("+", Call(name, Var()), Const(1.0)), Neg(Call(name, Var()))):
            self.assert_matches_evaluate(tree, [point, *self.POINTS])
            assert math.isnan(_Compiled(tree).at(point))

    def test_negated_zero_constant_is_negative_zero(self):
        for tree in (Neg(Const(0.0)), Neg(Var()), BinOp("*", Neg(Const(0.0)), Var())):
            self.assert_matches_evaluate(tree)
        assert struct.pack("<d", _Compiled(Neg(Const(0.0))).at(1.0)) == struct.pack("<d", -0.0)

    def test_int_points_keep_the_type_evaluate_gives(self):
        # Interval(0, 2) keeps int bounds, so the rule evaluates f at int points
        points = [0, 1, 2, -3]
        for tree in (
            Var(),
            Call("abs", Var()),
            Neg(Var()),
            BinOp("*", Var(), Var()),
            BinOp("+", Const(1.0), Var()),
            BinOp("-", Var(), Call("abs", Var())),
            BinOp("/", Var(), Const(2.0)),
            BinOp("^", Var(), Const(2.0)),
            Call("sqrt", Var()),
        ):
            at = _Compiled(tree).at
            values = [at(x) for x in points]
            want = [evaluate(tree, x) for x in points]
            assert bits(values) == bits(want), tree
            assert [type(v) for v in values] == [type(v) for v in want], tree

    def test_equal_but_distinct_expressions_give_the_same_bits(self):
        first, second = parse("ln(x)/x + sqrt(x)^3"), parse("ln(x)/x + sqrt(x)^3")
        assert first == second and first is not second
        want = bits(_Compiled(first).many(self.POINTS))
        assert bits(_Compiled(second).many(self.POINTS)) == want
        assert bits(_Compiled(first).many(self.POINTS)) == want


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


def same_tree(first, second):
    # repr spells every constant exactly, so this tells 0.0 from -0.0 where == does not
    return first == second and repr(first) == repr(second)


# the term templates of the benchmark's corpora, with a coefficient and a degree filled in
CORPUS_TERMS = [
    "1.3*x",
    "0.7*x^2",
    "2.25*x^3",
    "1.1*(exp(x)-1)",
    "0.4*ln(x+1)",
    "2.9*(sqrt(x+1)-1)",
    "1.7*sin(x/4)",
    "0.2*x*sqrt(x)",
]


class TestOnePassDerivative:
    """``_derivative(e)`` is ``simplify(differentiate(e))`` node for node."""

    def test_equals_simplified_differentiate_on_random_trees(self):
        rng = random.Random(7070)
        for _ in range(20_000):
            e = random_tree(rng, rng.randint(1, 5))
            assert same_tree(_derivative(e), simplify(differentiate(e))), to_text(e)

    def test_equals_on_the_corpus_terms_and_their_sums(self):
        sums = [f"{a}+{b}" for a in CORPUS_TERMS for b in CORPUS_TERMS] + ["+".join(CORPUS_TERMS)]
        for source in CORPUS_TERMS + sums:
            e = parse(source)
            assert same_tree(_derivative(e), simplify(differentiate(e))), source

    def test_equals_on_any_tree(self):
        hypothesis = pytest.importorskip("hypothesis")

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @hypothesis.given(any_tree(hypothesis.strategies))
        def check(tree):
            assert same_tree(_derivative(tree), simplify(differentiate(tree)))

        check()

    def test_agrees_with_sympy(self):
        # an independent oracle: sympy differentiates symbolically, lambdify evaluates with the math module
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x", real=True)
        functions = {"sin": sympy.sin, "cos": sympy.cos, "tan": sympy.tan, "exp": sympy.exp, "ln": sympy.log,
                     "sqrt": sympy.sqrt, "abs": sympy.Abs}
        operations = dict(zip("+-*/^", (operator.add, operator.sub, operator.mul, operator.truediv, operator.pow)))

        def to_sympy(e):
            match e:
                case Const(value):
                    return sympy.Float(value)
                case Var():
                    return x
                case Neg(child):
                    return -to_sympy(child)
                case BinOp(op, left, right):
                    return operations[op](to_sympy(left), to_sympy(right))
                case Call(name, arg):
                    return functions[name](to_sympy(arg))

        rng = random.Random(8080)
        compared = 0
        for _ in range(400):
            e = random_tree(rng, rng.randint(1, 4))
            oracle = sympy.lambdify(x, sympy.diff(to_sympy(e), x), "math")
            derivative = _derivative(e)
            for point in (-2.3, -0.7, 0.4, 1.3, 2.9):
                if not math.isfinite(evaluate(e, point)):
                    continue  # no derivative where f is undefined
                try:
                    # sympy may leave re, im or a complex value where the tree is NaN
                    want = float(oracle(point))
                except (ArithmeticError, ValueError, TypeError, NameError):
                    continue
                got = evaluate(derivative, point)
                if math.isfinite(want) and math.isfinite(got):
                    compared += 1
                    assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12), (to_text(e), point)
        assert compared > 1_500


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
