"""Interval enclosures: every value evaluate gives on [lo, hi] lies inside, and a domain break raises."""

import math
import random
import sys

import pytest

from nrquad._enclosure import _enclose, _proves_increasing
from nrquad.expressions import _compile_scalar, differentiate, parse
from support import CORPUS_TERMS, bound_intervals, random_tree

DOWN, UP = -math.inf, math.inf


def points(a, b, rng, count=16):
    """a, b, ``count`` evenly spread points and ``count`` random ones, all in [a, b], where b - a may overflow."""
    ts = [k / count for k in range(1, count)] + [rng.random() for _ in range(count)]
    return [a, b] + [min(max(a * (1.0 - t) + b * t, a), b) for t in ts]


def enclosure_or_none(e, a, b):
    try:
        return _enclose(e, a, b)
    except (ArithmeticError, ValueError):
        return None


class TestContainment:
    """Each finite value of the scalar closure at a point of [a, b] lies in the enclosure of [a, b]."""

    def check(self, sources_or_trees, rng):
        enclosed = 0
        for f in sources_or_trees:
            for e in (f, differentiate(f)):
                at = _compile_scalar(e)
                for interval in bound_intervals():
                    a, b = interval.a, interval.b
                    bounds = enclosure_or_none(e, a, b)
                    if bounds is None:
                        continue
                    low, high = bounds
                    assert -math.inf < low <= high < math.inf
                    enclosed += 1
                    for x in points(a, b, rng):
                        value = at(x)
                        if math.isfinite(value):
                            assert low <= value <= high, (e, a, b, x, value, bounds)
        return enclosed

    def test_random_trees(self):
        rng = random.Random(2022)
        trees = [random_tree(rng, rng.randint(1, 4)) for _ in range(400)]
        assert self.check(trees, rng) >= 8_000

    def test_corpus_terms_and_their_sums(self):
        rng = random.Random(7)
        sums = [f"{a}+{b}" for a in CORPUS_TERMS for b in CORPUS_TERMS] + ["+".join(CORPUS_TERMS)]
        assert self.check([parse(source) for source in CORPUS_TERMS + sums], rng) >= 3_000

    def test_powers_with_a_varying_exponent(self):
        # random_tree draws only constant exponents; u^v takes each extreme at a corner of its box
        rng = random.Random(11)
        sources = ["x^(0-x)", "x^x", "(x+1)^(1-x)", "(x*x+0.5)^(x-1)", "2^x", "0.5^(x*x)", "(1/x)^sin(x)"]
        assert self.check([parse(source) for source in sources], rng) >= 150

    def test_against_mpmath_interval_arithmetic(self):
        # at each point, mpmath's enclosure of the real value must meet ours: both hold that value
        mpmath = pytest.importorskip("mpmath")
        iv = mpmath.iv
        functions = {"sin": iv.sin, "cos": iv.cos, "tan": iv.tan, "exp": iv.exp, "ln": iv.log, "sqrt": iv.sqrt}
        operators = {"+": lambda l, r: l + r, "-": lambda l, r: l - r, "*": lambda l, r: l * r,
                     "/": lambda l, r: l / r, "^": lambda l, r: l**r}

        def real(e, x):
            kind = type(e).__name__
            if kind == "Const":
                return iv.mpf(e.value)
            if kind == "Var":
                return x
            if kind == "Neg":
                return -real(e.child, x)
            if kind == "Call":
                arg = real(e.arg, x)
                return abs(arg) if e.name == "abs" else functions[e.name](arg)
            return operators[e.op](real(e.left, x), real(e.right, x))

        rng = random.Random(1978)
        met, precision = 0, iv.prec
        iv.prec = 113
        try:
            for _ in range(150):
                f = random_tree(rng, rng.randint(1, 3))
                for e in (f, differentiate(f)):
                    at = _compile_scalar(e)
                    for a, b in ((0.0, 1.0), (0.5, 3.0), (-3.0, -0.5)):
                        bounds = enclosure_or_none(e, a, b)
                        if bounds is None:
                            continue
                        low, high = iv.mpf(bounds[0]), iv.mpf(bounds[1])
                        for x in points(a, b, rng, 4):
                            if not math.isfinite(at(x)):
                                continue
                            try:
                                value = real(e, iv.mpf(x))
                            except (ArithmeticError, ValueError):
                                continue
                            # a real value, known to about 1e-20 of its size
                            if type(value) is not type(low) or not value.delta <= 1e-20 * (1 + abs(value.mid)):
                                continue
                            assert low <= value.b and value.a <= high, (e, a, b, x, value, bounds)
                            met += 1
        finally:
            iv.prec = precision
        assert met >= 2_000


class TestNamedCases:
    @pytest.mark.parametrize(
        "source, lo, hi, low, high",
        [
            ("sin(x)", 1.0, 2.0, math.sin(1.0), 1.0),  # a maximum at pi/2
            ("sin(x)", 4.0, 5.0, -1.0, math.sin(4.0)),  # a minimum at 3*pi/2
            ("cos(x)", -1.0, 1.0, math.cos(1.0), 1.0),  # a maximum at 0
            ("cos(x)", 3.0, 3.5, -1.0, math.cos(3.5)),  # a minimum at pi
            ("cos(x)", 1.0, 7.0, -1.0, 1.0),  # both extrema
            ("sin(x)", 0.0, 1.0, 0.0, math.sin(1.0)),  # neither
            ("sin(x)", 1e17, 1e17 + 16.0, -1.0, 1.0),  # wider than 2*pi
            ("sin(x)", 0.0, sys.float_info.max, -1.0, 1.0),  # no extremum search past the largest float
            ("tan(x)", -1.4, 1.4, math.tan(-1.4), math.tan(1.4)),
            ("x^-3", 1.0, 2.0, 0.125, 1.0),
            ("x^-3", -2.0, -1.0, -1.0, -0.125),  # a negative power of a negative base
            ("x^-1", 0.5, 4.0, 0.25, 2.0),
            ("x^0.5", 0.0, 4.0, 0.0, 2.0),
            ("x^2", -3.0, 2.0, 0.0, 9.0),  # an even power across 0
            ("x^3", -3.0, 2.0, -27.0, 8.0),
            ("2^x", -1.0, 3.0, 0.5, 8.0),
            ("x^x", 1.0, 2.0, 1.0, 4.0),
            ("abs(x)", -2.0, 1.0, 0.0, 2.0),
            ("1/(x+2)", -1.0, 1.0, 1.0 / 3.0, 1.0),
        ],
    )
    def test_holds_the_range_within_a_few_floats(self, source, lo, hi, low, high):
        got_low, got_high = _enclose(parse(source), lo, hi)
        assert got_low <= low and high <= got_high
        assert got_low >= math.nextafter(math.nextafter(low, DOWN), DOWN) or got_low == -1.0
        assert got_high <= math.nextafter(math.nextafter(high, UP), UP) or got_high == 1.0

    @pytest.mark.parametrize(
        "source, lo, hi, error",
        [
            ("tan(x)", 1.5, 1.6, ZeroDivisionError),  # a pole at pi/2
            ("tan(x)", 0.0, 4.0, ZeroDivisionError),  # wider than 3
            ("1/x", -1.0, 1.0, ZeroDivisionError),
            ("1/x", 0.0, 1.0, ZeroDivisionError),  # a divisor that touches 0
            ("1/(x-0.5)", 0.0, 1.0, ZeroDivisionError),
            ("x^-1", -1.0, 1.0, ZeroDivisionError),  # a pole at 0
            ("x^-2", 0.0, 1.0, ValueError),  # 0 to a negative power
            ("x^0.5", -1.0, 1.0, ValueError),  # a non-integer power of a negative base
            ("x^-0.5", 0.0, 1.0, ValueError),
            ("x^x", 0.0, 1.0, ValueError),
            ("ln(x)", 0.0, 1.0, ValueError),
            ("sqrt(x-0.5)", 0.0, 1.0, ValueError),
            ("exp(x)", 0.0, 1000.0, OverflowError),
            ("x*1e200*1e200", 1.0, 2.0, OverflowError),
            ("x^2", 0.0, 1e200, OverflowError),
            ("x+x", 0.0, 1e308, OverflowError),  # a bound that would widen to infinity
        ],
    )
    def test_a_domain_break_or_overflow_raises(self, source, lo, hi, error):
        with pytest.raises(error):
            _enclose(parse(source), lo, hi)

    @pytest.mark.parametrize(
        "source, a, b",
        [("exp(x)", 0.0, 1000.0), ("x*1e200*1e200", 1.0, 2.0), ("x+x*x*x", 0.0, 1e154), ("x-x", 0.0, 1.0)],
    )
    def test_an_overflow_or_a_zero_derivative_is_no_proof(self, source, a, b):
        f = parse(source)
        assert not _proves_increasing(f, differentiate(f), a, b)

    @pytest.mark.parametrize(
        "source",
        ["x+sqrt(abs(x-0.5)-0.1)^0-1", "x+0*ln(x)", "x+ln(x)*0", "x+0/ln(x)", "x+1^ln(x)-1", "x+(1-1)*sqrt(x)",
         "x+2^(1-1)", "x+ln(x)^(1-1)"],
    )
    def test_a_shape_simplify_may_fold_away_is_no_proof(self, source):
        # f' is 1 in each, but f's other term has a domain that f' lost
        f = parse(source)
        assert differentiate(f) == parse("1")
        assert not _proves_increasing(f, differentiate(f), 0.0, 1.0)

    @pytest.mark.parametrize("source", ["x+2*ln(x+1)", "x+ln(x+1)/2", "x+2^x", "x+(x+1)^0.5", "x+3^(x+1)"])
    def test_a_constant_factor_base_or_exponent_keeps_the_proof(self, source):
        f = parse(source)
        assert _proves_increasing(f, differentiate(f), 0.0, 1.0)
