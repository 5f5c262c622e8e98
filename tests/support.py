"""Shared generators and oracles for the test suite.

The oracles here deliberately avoid the package's evaluation path: they
work on plain coefficient lists, Python callables and Python floats so
the tests compare two independent routes to the same numbers.  The
exceptions are the scalar oracles for the uniform rules and the reference
integral, which sample through the scalar ``evaluate`` one point at a
time, as the package did before it batched.

The counting hooks wrap what the package compiles each integrand into:
every scalar evaluator (``_Compiled.at``) and every batch kernel.
"""

from __future__ import annotations

import math
import random

import nrquad.expressions
from nrquad.baselines import DepthLimitError, NonfiniteSampleError
from nrquad.expressions import BinOp, Call, Const, Expression, Neg, Var, evaluate
from nrquad.quadrature import Interval

FUNCTION_POOL = ("sin", "cos", "tan", "exp", "ln", "sqrt", "abs")


def random_polynomial(rng: random.Random, max_degree: int = 5) -> tuple[Expression, list[float]]:
    """Random polynomial as an expression tree plus its coefficient list."""
    degree = rng.randint(1, max_degree)
    coeffs = [round(rng.uniform(-4.0, 4.0), 3) for _ in range(degree + 1)]
    if abs(coeffs[-1]) < 0.25:
        coeffs[-1] = 1.0
    expr: Expression = Const(coeffs[0])
    for i, c in enumerate(coeffs[1:], start=1):
        term = BinOp("*", Const(c), BinOp("^", Var(), Const(float(i))))
        expr = BinOp("+", expr, term)
    return expr, coeffs


def poly_value(coeffs: list[float], x: float) -> float:
    return sum(c * x**i for i, c in enumerate(coeffs))


def poly_derivative(coeffs: list[float]) -> list[float]:
    return [i * c for i, c in enumerate(coeffs)][1:] or [0.0]


def random_tree(rng: random.Random, depth: int) -> Expression:
    """Random expression tree of depth at most ``depth``."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.6:
            return Var()
        return Const(round(rng.uniform(-3.0, 3.0), 3))
    roll = rng.random()
    if roll < 0.55:
        op = rng.choice("+-*/")
        return BinOp(op, random_tree(rng, depth - 1), random_tree(rng, depth - 1))
    if roll < 0.70:
        exponent = rng.choice((-3.0, -2.0, -1.0, 2.0, 3.0))
        return BinOp("^", random_tree(rng, depth - 1), Const(exponent))
    if roll < 0.80:
        return Neg(random_tree(rng, depth - 1))
    return Call(rng.choice(FUNCTION_POOL), random_tree(rng, depth - 1))


def central_difference(e: Expression, x: float, h: float) -> float:
    return (evaluate(e, x + h) - evaluate(e, x - h)) / (2.0 * h)


def brute_force_rule(f, df, a, b, tol_x, max_iter=100):
    """Independent recomputation with plain floats: Newton chain + panel sums."""
    panels = []
    x = b
    for _ in range(max_iter):
        width = f(x) / df(x)
        x_next = x - width
        panels.append(0.5 * width * (f(x) + f(x_next)))
        if abs(x_next - a) <= tol_x:
            return panels, x_next
        x = x_next
    return panels, x


def _sample(f, x):
    value = evaluate(f, x)
    if not math.isfinite(value):
        raise NonfiniteSampleError(x, value)
    return value


def _check_subintervals(n):
    if n < 1:
        raise ValueError(f"subinterval count must be at least 1, got {n!r}")


def scalar_left_riemann(f, interval, n):
    _check_subintervals(n)
    a, b = interval.a, interval.b
    h = (b - a) / n
    total = 0.0
    for i in range(n):
        total += _sample(f, a + i * h)
    return h * total


def scalar_right_riemann(f, interval, n):
    _check_subintervals(n)
    a, b = interval.a, interval.b
    h = (b - a) / n
    total = 0.0
    for i in range(1, n + 1):
        total += _sample(f, a + i * h)
    return h * total


def scalar_midpoint(f, interval, n):
    _check_subintervals(n)
    a, b = interval.a, interval.b
    h = (b - a) / n
    total = 0.0
    for i in range(n):
        total += _sample(f, a + (i + 0.5) * h)
    return h * total


def scalar_trapezoid(f, interval, n):
    _check_subintervals(n)
    a, b = interval.a, interval.b
    h = (b - a) / n
    total = 0.5 * (_sample(f, a) + _sample(f, b))
    for i in range(1, n):
        total += _sample(f, a + i * h)
    return h * total


def scalar_simpson(f, interval, n):
    _check_subintervals(n)
    if n % 2 != 0:
        raise ValueError(f"simpson needs an even subinterval count (got {n!r})")
    a, b = interval.a, interval.b
    h = (b - a) / n
    total = _sample(f, a) + _sample(f, b)
    for i in range(1, n):
        total += (4.0 if i % 2 else 2.0) * _sample(f, a + i * h)
    return h * total / 3.0


SCALAR_RULES = {
    "left_riemann": scalar_left_riemann,
    "right_riemann": scalar_right_riemann,
    "midpoint": scalar_midpoint,
    "trapezoid": scalar_trapezoid,
    "simpson": scalar_simpson,
}
"""The uniform rules as one scalar ``evaluate`` per node, keyed by rule name."""


def scalar_reference(f: Expression, interval: Interval, tol: float = 1e-10) -> float:
    """``reference_integral`` as the depth-first recursion it replaced, one evaluate per point.

    A panel is accepted when |S_whole - S_left - S_right| <= 15*tol (with
    the usual S/15 correction added); otherwise it splits, halving the
    tolerance, down to a recursion depth cap of 50.

    Raises:
        DepthLimitError: if the cap is hit, which is what NaN regions or
            non-smooth pathologies turn into.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    a, b = interval.a, interval.b
    fa = evaluate(f, a)
    fb = evaluate(f, b)
    m = 0.5 * (a + b)
    fm = evaluate(f, m)
    whole = _simpson_estimate(fa, fm, fb, b - a)
    return _adaptive(f, a, b, fa, fm, fb, whole, tol, depth=0)


_MAX_DEPTH = 50


def _simpson_estimate(fa: float, fm: float, fb: float, width: float) -> float:
    return (width / 6.0) * (fa + 4.0 * fm + fb)


def _adaptive(
    f: Expression,
    a: float,
    b: float,
    fa: float,
    fm: float,
    fb: float,
    whole: float,
    tol: float,
    depth: int,
) -> float:
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = evaluate(f, lm)
    frm = evaluate(f, rm)
    left = _simpson_estimate(fa, flm, fm, m - a)
    right = _simpson_estimate(fm, frm, fb, b - m)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth >= _MAX_DEPTH:
        raise DepthLimitError(
            f"adaptive bisection exceeded depth {_MAX_DEPTH} on [{a!r}, {b!r}]; "
            "the integrand looks non-integrable or undefined there"
        )
    half_tol = tol / 2.0
    return _adaptive(f, a, m, fa, flm, fm, left, half_tol, depth + 1) + _adaptive(
        f, m, b, fm, frm, fb, right, half_tol, depth + 1
    )


def count_scalar_calls(monkeypatch) -> list[int]:
    """Counts, in its one item, the calls of every scalar evaluator compiled from now on."""
    count = [0]
    compile_scalar = nrquad.expressions._compile_scalar

    def counting(e: Expression):
        at = compile_scalar(e)

        def counted(x: float) -> float:
            count[0] += 1
            return at(x)

        return counted

    monkeypatch.setattr(nrquad.expressions, "_compile_scalar", counting)
    return count


def record_batches(monkeypatch, before_batch=None) -> list[int]:
    """Records the size of each batch run through a kernel compiled from now on.

    ``before_batch``, if given, is called before each batch runs.
    """
    sizes: list[int] = []
    compile_kernel = nrquad.expressions._compile_kernel

    def recording(e: Expression):
        kernel = compile_kernel(e)

        def recorded(xs):
            if before_batch is not None:
                before_batch()
            sizes.append(len(xs))
            return kernel(xs)

        return recorded

    monkeypatch.setattr(nrquad.expressions, "_compile_kernel", recording)
    return sizes
