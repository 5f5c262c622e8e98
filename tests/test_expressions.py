"""Parser, evaluator, derivative, simplifier, and printer tests."""

import math
import operator
import random
import struct
import types
from collections import Counter
from itertools import islice

import pytest

from nrquad import _syntax, expressions
from nrquad.baselines import CHUNK, _chain, _compile_batch
from nrquad.expressions import (
    FUNCTION_NAMES,
    MAX_DEPTH,
    BinOp,
    Call,
    Const,
    Expression,
    Neg,
    ParseError,
    Var,
    differentiate,
    evaluate,
    parse,
    simplify,
    to_text,
    _closure,
    _compile_scalar,
)
from support import (
    CORPUS_TERMS,
    central_difference,
    count_scalar_calls,
    descent_parse,
    edited_sources,
    parse_outcome,
    random_polynomial,
    random_tree,
    textbook_derivative,
    tree_value,
)

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

    @pytest.mark.parametrize("source, offset", [("x+1e999", 2), ("2*x^1e400", 4)])
    def test_overflowing_number_is_a_parse_error_at_its_offset(self, source, offset):
        with pytest.raises(ParseError, match=f"number '{source[offset:]}' is too large for a float") as err:
            parse(source)
        assert err.value.offset == offset
        # a constant built directly still checks its value with a plain ValueError
        with pytest.raises(ValueError, match="constants must be finite, got inf") as err:
            Const(math.inf)
        assert not isinstance(err.value, ParseError)


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

    def test_builds_one_scalar_evaluator_and_calls_it_once(self, monkeypatch):
        count = count_scalar_calls(monkeypatch)
        assert evaluate(parse(QUAD), 1.0) == 6.0
        assert count == [1, 1]


def bits(values):
    # Every NaN counts as one value.  Where two NaNs of opposite sign meet in
    # a + or *, CPython returns either operand's, and the tree walk itself
    # differs between its first call and later ones: on (-x)+x at x = nan the
    # first call returns +nan and the later ones -nan.
    return ["nan" if math.isnan(v) else struct.pack("<d", v) for v in values]


class TestEvaluateMany:
    """The uniform rules' batch evaluator, ``nrquad.baselines._compile_batch(e)``, against the tree walk ``tree_value``."""

    # domain edges, signed zeros, overflow and nonfinite input among ordinary points
    POINTS = [-3.0, -1.0, -1e-300, -0.0, 0.0, 1e-8, 0.5, 1.0, 2.5, 1e308, math.inf, math.nan]

    def test_bit_identical_to_the_tree_walk_on_random_trees(self):
        rng = random.Random(6060)
        nan_count = 0
        for _ in range(15_000):
            e = random_tree(rng, rng.randint(1, 5))
            for tree in (e, simplify(differentiate(e))):
                values = _compile_batch(tree)(self.POINTS)
                assert bits(values) == bits([tree_value(tree, x) for x in self.POINTS]), to_text(tree)
                nan_count += sum(map(math.isnan, values))
        # the corpus must keep exercising the NaN paths
        assert nan_count > 30_000

    @pytest.mark.parametrize("size", [CHUNK - 1, CHUNK, CHUNK + 1])
    def test_bit_identical_at_chunk_boundaries(self, size):
        xs = [-2.0 + 4.0 * i / (size - 1) for i in range(size)]
        xs[size // 2] = 0.0
        for source in ("sin(x)/x", "ln(x)*sqrt(x)", "x^(-2)+exp(x)", "(1/x)^2"):
            f = parse(source)
            assert bits(_compile_batch(f)(xs)) == bits([tree_value(f, x) for x in xs]), source

    def test_failure_is_nan_even_where_nan_does_not_propagate(self):
        # ln(-1) fails, and pow(nan, 0) == 1 would hide it
        f = BinOp("^", Call("ln", Var()), Const(0.0))
        values = _compile_batch(f)([-1.0, 1.0])
        assert math.isnan(values[0]) and math.isnan(tree_value(f, -1.0))
        assert values[1] == 1.0

    def test_returns_a_new_list(self):
        assert _compile_batch(parse(QUAD))([]) == []
        xs = [0.25, -1.0]
        values = _compile_batch(Var())(xs)
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
    at = _compile_scalar(tree)
    return bits([at(x) for x in points])


class TestScalarClosures:
    """The compiled scalar evaluator, one closure per node, and evaluate, which runs it, against the tree walk."""

    POINTS = TestEvaluateMany.POINTS

    def test_bit_identical_to_the_tree_walk_on_random_trees(self):
        rng = random.Random(6061)
        nan_count = 0
        for _ in range(15_000):
            e = random_tree(rng, rng.randint(1, 5))
            for tree in (e, simplify(differentiate(e))):
                want = bits([tree_value(tree, x) for x in self.POINTS])
                assert compiled_bits(tree, self.POINTS) == want, to_text(tree)
                assert bits([evaluate(tree, x) for x in self.POINTS]) == want, to_text(tree)
                nan_count += want.count("nan")
        assert nan_count > 30_000

    def test_bit_identical_on_any_tree_and_point(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @hypothesis.given(any_tree(st), st.lists(st.floats(), min_size=1, max_size=4))
        def check(tree, points):
            want = bits([tree_value(tree, x) for x in points])
            assert compiled_bits(tree, points) == want
            assert bits([evaluate(tree, x) for x in points]) == want

        check()


class TestCompiledKernel:
    """Cases that only a code generator can get wrong, for the batch chain and the closures."""

    POINTS = TestEvaluateMany.POINTS

    def assert_matches_tree_value(self, tree, points=POINTS):
        want = bits([tree_value(tree, x) for x in points])
        assert bits(_compile_batch(tree)(points)) == want
        assert compiled_bits(tree, points) == want

    def test_300_level_neg_chain(self):
        # 300 nested maps, and 300 nested closures
        tree = Call("sin", Var())
        for _ in range(299):
            tree = Neg(tree)
        assert _compile_batch(tree)([1.0]) == [-math.sin(1.0)]
        self.assert_matches_tree_value(tree)

    def test_300_level_left_leaning_binop_chain(self):
        tree = Var()
        for level in range(300):
            op = "+-*/^"[level % 5]
            tree = BinOp(op, tree, Const(1.0 if op == "^" else 1.0 + level / 1000.0))
        self.assert_matches_tree_value(tree)

    @pytest.mark.parametrize("value", [-0.0, 1e308, 5e-324], ids=["-0.0", "1e308", "5e-324"])
    def test_extreme_constants_keep_their_bits(self, value):
        points = [-1.0, 0.0, 1.0, math.nan]
        at = _compile_scalar(Const(value))
        for root in (_compile_batch(Const(value))(points), [at(x) for x in points]):
            assert [struct.pack("<d", v) for v in root] == [struct.pack("<d", value)] * len(points)
        for tree in (
            BinOp("*", Var(), Const(value)),
            BinOp("+", Const(value), Neg(Var())),
            Neg(Const(value)),
            Call("sqrt", BinOp("/", Const(value), Var())),
        ):
            self.assert_matches_tree_value(tree, points)

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
                self.assert_matches_tree_value(tree)
        for left, right in ((Var(), other), (other, Var()), (Var(), Var()), (other, other)):
            self.assert_matches_tree_value(BinOp(op, left, right))

    def test_constant_over_signed_zero_x_is_nan(self):
        tree = BinOp("/", Const(1.0), Var())
        self.assert_matches_tree_value(tree, [0.0, -0.0])
        assert all(math.isnan(_compile_scalar(tree)(x)) for x in (0.0, -0.0))

    def test_overflowing_power_of_x_is_nan(self):
        tree = BinOp("^", Var(), Const(3.0))
        self.assert_matches_tree_value(tree, [1e200, -1e200, 1e100])
        assert math.isnan(_compile_scalar(tree)(1e200))
        # a product overflows to infinity without raising
        self.assert_matches_tree_value(BinOp("*", Var(), Const(1e308)), [10.0, -10.0])

    @pytest.mark.parametrize("name", sorted(FUNCTION_NAMES))
    def test_each_function_of_x_at_a_domain_error(self, name):
        # the closure of name(x) is the function itself, so its error must reach the root's handler
        failing = {"sin": math.inf, "cos": -math.inf, "tan": math.inf, "exp": 1000.0, "ln": -1.0, "sqrt": -1.0}
        point = failing.get(name, math.nan)  # abs raises for no float
        for tree in (Call(name, Var()), BinOp("+", Call(name, Var()), Const(1.0)), Neg(Call(name, Var()))):
            self.assert_matches_tree_value(tree, [point, *self.POINTS])
            assert math.isnan(_compile_scalar(tree)(point))

    @pytest.mark.parametrize("name", sorted(FUNCTION_NAMES))
    @pytest.mark.parametrize("op", "+-*/^")
    def test_a_function_of_x_and_a_constant_where_either_raises(self, op, name):
        # name(x op c) compiles to one function, which calls no compiled operand; a point where op raises
        # (x/0, 0^-1, (-1)^0.5) or name does (ln(1-5), exp(1*1e3), sin(inf)) is NaN, as in the tree walk
        points = [1.0, -1.0, 0.0, -0.0, 5.0, 1e300, *self.POINTS]
        for c in (0.0, 5.0, 1e3, 0.5, -1.0):
            tree = Call(name, BinOp(op, Var(), Const(c)))
            assert not any(isinstance(held, types.FunctionType) for held in _closure(tree).__defaults__)
            self.assert_matches_tree_value(tree, points)

    @pytest.mark.parametrize("name", sorted(FUNCTION_NAMES))
    @pytest.mark.parametrize("op", "+-*/^")
    def test_a_constant_and_a_function_of_x_and_a_constant_where_any_raises(self, op, name):
        # c outer (x op d), c outer name(x op d) and c outer (name(x) op d) compile to one function each, which
        # calls no compiled operand; a point where outer, op or name raises is NaN, as in the tree walk
        points = [1.0, -1.0, 0.0, -0.0, 5.0, 1e300, *self.POINTS]
        constants = (0.0, 5.0, 1e3, 0.5, -1.0)
        for outer in "+-*/^":
            for c in constants:
                for d in constants:
                    for operand in (
                        BinOp(op, Var(), Const(d)),
                        Call(name, BinOp(op, Var(), Const(d))),
                        BinOp(op, Call(name, Var()), Const(d)),
                    ):
                        tree = BinOp(outer, Const(c), operand)
                        assert not any(isinstance(held, types.FunctionType) for held in _closure(tree).__defaults__)
                        self.assert_matches_tree_value(tree, points)

    @pytest.mark.parametrize("source, x", [("sqrt(x/0)", 1.0), ("ln(x-5)", 1.0), ("exp(x*1e3)", 1.0), ("sqrt(x^0.5)", -1.0)])
    def test_a_function_of_x_and_a_constant_is_nan_where_it_raises(self, source, x):
        tree = parse(source)
        assert math.isnan(_compile_scalar(tree)(x)) and math.isnan(tree_value(tree, x))
        assert bits(_compile_batch(tree)([x, 2.0])) == bits([tree_value(tree, x), tree_value(tree, 2.0)])

    def test_negated_zero_constant_is_negative_zero(self):
        for tree in (Neg(Const(0.0)), Neg(Var()), BinOp("*", Neg(Const(0.0)), Var())):
            self.assert_matches_tree_value(tree)
        assert struct.pack("<d", _compile_scalar(Neg(Const(0.0)))(1.0)) == struct.pack("<d", -0.0)

    def test_int_points_keep_the_type_the_tree_walk_gives(self):
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
            at = _compile_scalar(tree)
            values = [at(x) for x in points]
            want = [tree_value(tree, x) for x in points]
            assert bits(values) == bits(want), tree
            assert [type(v) for v in values] == [type(v) for v in want], tree

    def test_compiled_evaluators_hold_no_cells(self):
        # every operand is a default argument, so no function the compilers build closes over a name
        rng = random.Random(2525)
        sources = CORPUS_TERMS + [f"{a}+{b}" for a in CORPUS_TERMS for b in CORPUS_TERMS]
        trees = [parse(source) for source in sources] + [random_tree(rng, rng.randint(1, 5)) for _ in range(2_000)]
        codes = set()
        for tree in trees:
            for compiled in (_compile_scalar(tree), _closure(tree), _chain(tree)):
                functions, pending = [], [compiled]
                while pending:
                    held = pending.pop()
                    if isinstance(held, types.FunctionType):
                        functions.append(held)
                        pending.extend(held.__defaults__ or ())
                assert all(function.__closure__ is None for function in functions), to_text(tree)
                codes.update(function.__code__ for function in functions)
            assert type(tree) is not BinOp or len(functions) > 1  # the walk reached the operands' functions
        # the corpus terms ln(x+1), sqrt(x+1) and sin(x/4) compile to the one-frame fn(x op c), which it reached
        assert _closure(parse("ln(x+1)")).__code__ in codes

    def test_equal_but_distinct_expressions_give_the_same_bits(self):
        first, second = parse("ln(x)/x + sqrt(x)^3"), parse("ln(x)/x + sqrt(x)^3")
        assert first == second and first is not second
        want = bits(_compile_batch(first)(self.POINTS))
        assert bits(_compile_batch(second)(self.POINTS)) == want
        assert bits(_compile_batch(first)(self.POINTS)) == want


class TestDifferentiate:
    def test_quadratic_derivative_at_one(self):
        df = differentiate(parse(QUAD))
        assert tree_value(df, 1.0) == 7.0

    def test_variable(self):
        assert differentiate(parse("x")) == Const(1.0)

    def test_derivative_at_second_iterate(self):
        # two exact Newton steps from 1 land on x2 = -47/175
        f = parse(QUAD)
        df = differentiate(f)
        x = 1.0
        for _ in range(2):
            x = x - tree_value(f, x) / tree_value(df, x)
        assert tree_value(df, x) == pytest.approx(4 * x + 3, rel=1e-15)
        assert abs(tree_value(df, x) - 1.925714) < 1e-6

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
        assert tree_value(df, point) == pytest.approx(expected, rel=1e-12)

    def test_general_power_via_exp_ln(self):
        # d/dx x^x = x^x * (ln x + 1)
        df = differentiate(parse("x^x"))
        x = 1.5
        assert tree_value(df, x) == pytest.approx(x**x * (math.log(x) + 1.0), rel=1e-12)
        # non-positive base evaluates to NaN under the exp/ln rewrite
        assert math.isnan(tree_value(df, -1.0))

    def test_matches_central_differences(self):
        rng = random.Random(20240811)
        checked = 0
        while checked < 200:
            e = random_tree(rng, rng.randint(1, 5))
            x = rng.uniform(-2.0, 2.0)
            h = 1e-6 * max(1.0, abs(x))
            values = [tree_value(e, x + d) for d in (-h, -h / 2, 0.0, h / 2, h)]
            if not all(math.isfinite(v) and abs(v) < 1e8 for v in values):
                continue
            sym = tree_value(differentiate(e), x)
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

    @pytest.mark.parametrize("source", ["x/1e155", "x^2/1e160", "(exp(x)-1)/1e160", "1e200*x/1e160"])
    def test_quotient_by_a_huge_constant_is_finite(self, source):
        # the quotient rule's c^2 overflows to NaN; d(u/c) = u'/c does not
        e = parse(source)
        c = e.right.value
        for df in differentiate(e), textbook_derivative(e):
            value = tree_value(df, 1.0)
            assert math.isfinite(value) and value != 0.0
            assert value == tree_value(differentiate(e.left), 1.0) / c

    def test_quotient_by_a_constant_is_u_prime_over_c(self):
        assert differentiate(parse("sin(x)/3")) == BinOp("/", differentiate(parse("sin(x)")), Const(3.0))
        assert differentiate(parse("x^2/1e160")) == parse("2*x/1e160")
        assert differentiate(parse("sin(x/4)")) == parse("cos(x/4)*0.25")

    def test_linearity(self):
        rng = random.Random(7)
        for _ in range(50):
            f, _ = random_polynomial(rng)
            g, _ = random_polynomial(rng)
            alpha = round(rng.uniform(-2, 2), 3)
            beta = round(rng.uniform(-2, 2), 3)
            combined = BinOp("+", BinOp("*", Const(alpha), f), BinOp("*", Const(beta), g))
            x = rng.uniform(-3, 3)
            lhs = tree_value(differentiate(combined), x)
            rhs = alpha * tree_value(differentiate(f), x) + beta * tree_value(differentiate(g), x)
            if math.isfinite(lhs) and math.isfinite(rhs):
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


NOT_NODES = [object(), BinOp("+", Var(), object())]
WALKS = {
    "differentiate": differentiate,
    "simplify": simplify,
    "_compile_scalar": _compile_scalar,
    "_compile_batch": _compile_batch,
    "evaluate": lambda e: evaluate(e, 0.5),
}


@pytest.mark.parametrize("walk", WALKS.values(), ids=list(WALKS))
@pytest.mark.parametrize("e", NOT_NODES, ids=["object", "binop-over-object"])
def test_every_walk_rejects_a_non_node(walk, e):
    with pytest.raises(TypeError, match="not an expression node"):
        walk(e)


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
        assert differentiate(parse("3*x")) == Const(3.0)

    def test_zero_minus_a_negation_drops_both_signs(self):
        assert simplify(parse("0-(-x)")) == Var()
        assert simplify(parse("0-(-2)")) == Const(2.0)
        assert differentiate(parse("cos(0-(-x))")) == parse("-sin(x)")

    def test_is_idempotent_and_leaves_the_derivative_as_it_is_on_random_trees(self):
        rng = random.Random(1)
        for _ in range(20_000):
            e = random_tree(rng, 5)
            s, df = simplify(e), differentiate(e)
            assert same_tree(simplify(s), s), to_text(e)
            assert same_tree(simplify(df), df), to_text(e)

    def test_is_idempotent_and_leaves_the_derivative_as_it_is_on_any_tree(self):
        hypothesis = pytest.importorskip("hypothesis")

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @hypothesis.given(any_tree(hypothesis.strategies))
        def check(tree):
            s, df = simplify(tree), differentiate(tree)
            assert same_tree(simplify(s), s)
            assert same_tree(simplify(df), df)

        check()

    def test_returns_a_simplified_tree_itself_not_a_copy(self):
        rng = random.Random(2)
        for _ in range(2_000):
            s = simplify(random_tree(rng, 5))
            assert simplify(s) is s, to_text(s)
        f = parse("1.2*sqrt(x+1)+x/4")
        assert simplify(f) is f
        # so f' = 1.2*(1.0/(2.0*sqrt(x+1)))+0.25 holds f's own x+1, not a copy
        df = differentiate(f)
        assert to_text(df) == "((1.2*(1.0/(2.0*sqrt((x+1.0)))))+0.25)"
        assert df.left.right.right.right.arg is f.left.right.arg

    def test_no_domain_changing_rewrites(self):
        # x/x must stay: it is undefined at 0
        e = simplify(parse("x/x"))
        assert math.isnan(tree_value(e, 0.0))
        # 1/0 folds to nothing (stays a division) because the result is not finite
        e = simplify(parse("1/0"))
        assert math.isnan(tree_value(e, 1.0))

    @pytest.mark.parametrize("source", ["0*ln(x)", "ln(x)*0", "0/ln(x)", "ln(x)^0", "1^ln(x)"])
    def test_zero_and_one_rewrites_define_what_was_undefined(self, source):
        # simplify's documented exception: these rewrites shape the f' trees, so they stay
        e = parse(source)
        assert math.isnan(tree_value(e, -1.0))
        assert tree_value(simplify(e), -1.0) == (1.0 if "^" in source else 0.0)

    def test_preserves_values_on_random_trees(self):
        rng = random.Random(99)
        for _ in range(300):
            e = random_tree(rng, rng.randint(1, 5))
            s = simplify(e)
            for _ in range(4):
                x = rng.uniform(-3, 3)
                before = tree_value(e, x)
                after = tree_value(s, x)
                if math.isfinite(before) and math.isfinite(after):
                    assert after == pytest.approx(before, rel=1e-12, abs=1e-12)


class TestDescentOracle:
    """``parse`` gives what the recursive descent it replaced gives: the same tree, or the same error."""

    def sweep(self):
        sums = [f"{a}+{b}" for a in CORPUS_TERMS for b in CORPUS_TERMS] + ["+".join(CORPUS_TERMS)]
        yield from CORPUS_TERMS + sums
        yield from edited_sources(random.Random(5), 1)
        for n in (MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1, 200):
            yield "+".join(["x"] * n)
            yield "-" * n + "x"
            yield "-" * n + "2"
            yield "x^-" * n + "x"
            yield "x^-" * n + "2"
            yield "(" * 2 * n + "x" + ")" * 2 * n
            for template in ("({})^x", "x^({})", "x/({})", "sqrt({})"):
                yield _nest(template, n)
        yield from ["1e999", "x+1e999", "sin(x, 1)", "x)", "(x))", "sin(x))", "", "   ", " \t\n"]

    def test_equals_the_recursive_descent_on_a_sweep(self):
        sources = list(self.sweep())
        assert len(sources) > 8_000
        for source in sources:
            assert parse_outcome(parse, source) == parse_outcome(descent_parse, source), source

    # parse finds a token's kind from its text and its offset only on failure: the sources where
    # that could go wrong, from how the scan splits numbers to a stray character after a deep prefix
    TOKENIZER_EDGES = {
        "dot": ".",
        "x-dot": "x.",
        "two-dots": "1..2",
        "trailing-dot": "1.5.",
        "dot-exponent": "1.e5",
        "bare-e": "1e",
        "bare-e-plus": "1e+",
        "arabic-indic-digit": "٣*x",
        "e-acute": "é",
        "micro-sign": "µ",
        "superscript-two": "²",
        "x-superscript-two": "x²",
        "em-space": "x + 1",
        "no-break-space": "x+ 1",
        "vertical-tab": "x\x0b+1",
        "only-vertical-tab-and-ideographic-space": "\x0b　",
        "leading-whitespace": "  \tx+1",
        "trailing-whitespace": "x+1 \n",
        "leading-ideographic-space": "　x",
        "end-after-trailing-whitespace": "x+ ",
        "nul": "x\x00",
        "stray-after-120-parentheses": "(" * 120 + "$",
        "stray-after-200-minus-signs": "-" * 200 + "$",
        "stray-after-a-call": "sin(x)$",
        "stray-after-an-overflow": "1e999$",
        "stray-second-argument": "sin(x,$)",
        "end": "end",
        "end-of-input": "end of input",
        "underscore-name": "_x",
        "open-call": "sin(",
        "open-power": "x^",
    }

    @pytest.mark.parametrize("source", TOKENIZER_EDGES.values(), ids=list(TOKENIZER_EDGES))
    def test_equals_the_recursive_descent_on_a_tokenizer_edge(self, source):
        assert parse_outcome(parse, source) == parse_outcome(descent_parse, source)


def same_tree(first, second):
    # repr spells every constant exactly, so this tells 0.0 from -0.0 where == does not
    return first == second and repr(first) == repr(second)


class TestOnePassDerivative:
    """``differentiate(e)`` is ``simplify(textbook_derivative(e))`` node for node."""

    def test_equals_the_simplified_textbook_derivative_on_random_trees(self):
        rng = random.Random(7070)
        for _ in range(20_000):
            e = random_tree(rng, rng.randint(1, 5))
            assert same_tree(differentiate(e), simplify(textbook_derivative(e))), to_text(e)

    def test_equals_on_the_corpus_terms_and_their_sums(self):
        sums = [f"{a}+{b}" for a in CORPUS_TERMS for b in CORPUS_TERMS] + ["+".join(CORPUS_TERMS)]
        for source in CORPUS_TERMS + sums:
            e = parse(source)
            assert same_tree(differentiate(e), simplify(textbook_derivative(e))), source

    def test_equals_on_any_tree(self):
        hypothesis = pytest.importorskip("hypothesis")

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @hypothesis.given(any_tree(hypothesis.strategies))
        def check(tree):
            assert same_tree(differentiate(tree), simplify(textbook_derivative(tree)))

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
            derivative = differentiate(e)
            for point in (-2.3, -0.7, 0.4, 1.3, 2.9):
                if not math.isfinite(tree_value(e, point)):
                    continue  # no derivative where f is undefined
                try:
                    # sympy may leave re, im or a complex value where the tree is NaN
                    want = float(oracle(point))
                except (ArithmeticError, ValueError, TypeError, NameError):
                    continue
                got = tree_value(derivative, point)
                if math.isfinite(want) and math.isfinite(got):
                    compared += 1
                    assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12), (to_text(e), point)
        assert compared > 1_500

    # A constant factor takes c*u' or u'*c alone, unless that folds to a zero: there the general rule's
    # 0*u or u*0 term may turn -0.0 into 0.0, or keep -0.0 where u folds to a negative constant, so it
    # runs in full.  parse gives -2*u as Neg, hence BinOp.
    @pytest.mark.parametrize(
        "e, derivative",
        [
            (parse("2*(x-x)"), "Const(value=0.0)"),
            (parse("0*sin(x)"), "Const(value=0.0)"),
            (BinOp("*", Const(-2.0), parse("x-x")), "Const(value=0.0)"),
            (BinOp("*", Const(-0.0), Var()), "Const(value=0.0)"),
            (BinOp("*", Const(-2.0), Const(3.0)), "Const(value=0.0)"),
            (parse("2*x"), "Const(value=2.0)"),
            (parse("1e-12*x"), "Const(value=1e-12)"),
            (parse("2.25*x^3"), None),
            (parse("(0.2*x)*sqrt(x)"), None),
            (parse("(x-x)*2"), "Const(value=0.0)"),
            (parse("sin(x)*0"), "Const(value=0.0)"),
            (BinOp("*", parse("x-x"), Const(-2.0)), "Const(value=0.0)"),
            (BinOp("*", Var(), Const(-0.0)), "Const(value=0.0)"),
            (BinOp("*", Neg(Const(3.0)), Const(2.0)), "Const(value=-0.0)"),
            (BinOp("*", Neg(Const(3.0)), Const(-0.0)), "Const(value=0.0)"),
            (parse("x*2"), "Const(value=2.0)"),
            (parse("sin(x)*3"), "BinOp(op='*', left=Call(name='cos', arg=Var()), right=Const(value=3.0))"),
        ],
        ids=[
            "2*(x-x)", "0*sin(x)", "-2*(x-x)", "-0*x", "-2*3", "2*x", "1e-12*x", "c*x^3", "(c*x)*sqrt(x)",
            "(x-x)*2", "sin(x)*0", "(x-x)*-2", "x*-0", "(-3)*2", "(-3)*-0", "x*2", "sin(x)*3",
        ],
    )
    def test_a_constant_factor_gives_the_general_rule_s_tree(self, e, derivative):
        assert same_tree(differentiate(e), simplify(textbook_derivative(e)))
        if derivative is not None:
            assert repr(differentiate(e)) == derivative


class TestDerivativeNodeCount:
    """How many nodes ``differentiate`` builds, pinned so that a rule that builds more shows.

    A change that moves a total states the old and new totals.  Before the
    constant-factor product rule, the terms and their pairwise sums built
    766 Const, 556 BinOp and 153 Call nodes (1,475).  Before the shared
    literals and ``simplify``'s returning an unchanged node as it is, they
    built 460 Const, 437 BinOp and 85 Call nodes (982), ``1.7*sin(x/4)``
    built 6 nodes, ``x*2`` 2 Const and ``sin(x)*3`` 3 nodes.  Before the
    outer derivatives of ``exp``, ``sqrt`` and ``abs`` reused f's own
    ``Call`` node, they built 68 Call nodes, not 17.
    """

    @pytest.fixture
    def built(self, monkeypatch):
        # a node is built through its constructor or, from fields already checked, through its private builder
        counts = Counter()
        for cls, builder in ((BinOp, "_binop"), (Const, "_const"), (Call, "_call"), (Neg, "_neg")):

            def counting(node, *fields, init=cls.__init__, name=cls.__name__):
                counts[name] += 1
                init(node, *fields)

            def building(*fields, build=getattr(_syntax, builder), name=cls.__name__):
                counts[name] += 1
                return build(*fields)

            monkeypatch.setattr(cls, "__init__", counting)
            for module in (_syntax, expressions):
                monkeypatch.setattr(module, builder, building)
        return counts

    def test_on_the_corpus_terms_and_their_pairwise_sums(self, built):
        trees = [parse(source) for source in CORPUS_TERMS + [f"{a}+{b}" for a in CORPUS_TERMS for b in CORPUS_TERMS]]
        built.clear()
        for tree in trees:
            differentiate(tree)
        assert built == Counter(BinOp=369, Const=120, Call=17)

    def test_exp_sqrt_and_abs_reuse_the_call_node_of_f(self):
        f = parse("exp(x+1)")
        assert differentiate(f) is f
        # 1/(2*sqrt(x+1)) and (x+1)/abs(x+1), each times (x+1)' = 1
        f = parse("sqrt(x+1)")
        assert differentiate(f).right.right is f
        f = parse("abs(x+1)")
        df = differentiate(f)
        assert df.left is f.arg and df.right is f

    def test_a_constant_factor_builds_only_its_product(self, built):
        e = parse("1.7*sin(x/4)")
        built.clear()
        df = differentiate(e)
        # sin's derivative cos(x/4), times x/4's derivative 1/4, times 1.7
        assert to_text(df) == "(1.7*(cos((x/4.0))*0.25))"
        assert built == Counter(BinOp=2, Const=1, Call=1)

    # the general rule built 5 Const for x*2, and 1 BinOp, 3 Const and 2 Call for sin(x)*3
    @pytest.mark.parametrize(
        "source, derivative, nodes",
        [("x*2", "2.0", Counter(Const=1)), ("sin(x)*3", "(cos(x)*3.0)", Counter(BinOp=1, Call=1))],
    )
    def test_a_constant_factor_on_the_right_builds_only_its_product(self, built, source, derivative, nodes):
        e = parse(source)
        built.clear()
        assert to_text(differentiate(e)) == derivative
        assert built == nodes


class TestBuiltNodes:
    """``parse``, ``differentiate`` and ``simplify`` build nodes through private builders that skip the
    constructors' checks, so every node they give must pass those checks when built again."""

    @staticmethod
    def assert_rebuilds(tree):
        pending, seen = [tree], set()
        while pending:
            node = pending.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            fields = node._fields()
            rebuilt = type(node)(*fields)
            assert rebuilt == node and list(map(type, rebuilt._fields())) == list(map(type, fields)), repr(node)
            pending += [field for field in fields if isinstance(field, Expression)]

    def test_every_node_rebuilds_through_its_public_constructor(self):
        rng = random.Random(3030)
        sources = CORPUS_TERMS + [f"{a}+{b}" for a in CORPUS_TERMS for b in CORPUS_TERMS]
        sources += islice(edited_sources(random.Random(0), None), 3_000)  # as tests/sweep_parse.py draws them
        # constant subtrees that fold to no finite value, so simplify must keep them as they are
        sources += ["x+1e308*10", "x*(1e308+1e308)^2", "x/0", "sqrt(-1)+x", "ln(0)*x", "exp(1e3)-x", "-(1e308*10)*x"]
        trees = [random_tree(rng, rng.randint(1, 6)) for _ in range(500)]
        sources += [to_text(tree) for tree in trees]
        for source in sources:
            try:
                trees.append(parse(source))
            except ParseError:
                continue
        for tree in trees:
            for result in (tree, differentiate(tree), simplify(tree)):
                self.assert_rebuilds(result)
        assert len(trees) > 1_500  # the 500 random trees and the sources that parse


class TestToText:
    # the grammar's characters, with the function names and an overflowing number as whole pieces
    PIECES = [*"0123456789.eE+-*/^(),x \t", *sorted(FUNCTION_NAMES), "9e999"]

    def test_printed_text_of_any_tree_parses_to_the_same_text_and_bits(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @hypothesis.given(any_tree(st), st.lists(st.floats(), min_size=1, max_size=4))
        def check(tree, points):
            text = to_text(tree)
            reparsed = parse(text)
            assert to_text(reparsed) == text
            assert bits([tree_value(reparsed, x) for x in points]) == bits([tree_value(tree, x) for x in points])

        check()

    def test_text_over_the_grammar_parses_or_raises_parse_error(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=500, deadline=None, derandomize=True, database=None)
        @hypothesis.given(st.lists(st.sampled_from(self.PIECES), max_size=24).map("".join))
        def check(source):
            assert parse_outcome(parse, source) == parse_outcome(descent_parse, source)

        check()

    def test_variable(self):
        assert to_text(Var()) == "x"

    def test_constant(self):
        assert to_text(Const(3.375)) == "3.375"

    def test_negative_constant_reparses_correctly(self):
        # without parentheses (-3)^2 would re-parse as -(3^2)
        e = BinOp("^", Const(-3.0), Const(2.0))
        assert tree_value(parse(to_text(e)), 0.0) == 9.0

    def test_quadratic_round_trip(self):
        f = parse(QUAD)
        g = parse(to_text(f))
        for x in (-1.0, -0.5, 0.0, 0.3, 1.0, 10.0):
            assert tree_value(g, x) == tree_value(f, x)

    def test_round_trip_is_exact_on_random_trees(self):
        rng = random.Random(1234)
        for _ in range(300):
            e = random_tree(rng, rng.randint(1, 5))
            reparsed = parse(to_text(e))
            for _ in range(3):
                x = rng.uniform(-4, 4)
                v = tree_value(e, x)
                if math.isfinite(v):
                    assert tree_value(reparsed, x) == v
