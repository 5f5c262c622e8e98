"""Shared generators and oracles for the test suite.

The oracles here deliberately avoid the package's evaluation path: they
work on plain coefficient lists, Python callables, Python floats and
``tree_value``, a walk over the expression tree that the package's
compiled evaluators must match bit for bit, so the tests compare two
independent routes to the same numbers.  ``textbook_derivative`` is the
derivative's oracle in the same way: the textbook rules, unsimplified.
``scalar_validate`` is the precondition check's: one ``tree_value`` per
sample, where the package calls f's compiled scalar closure.
``descent_parse`` is the parser's: a token list, a recursive-descent class
and a separate walk for the depth, where ``parse`` does all three in one pass.
``argparse_parse`` is the command line's: argparse with the parser
``nrquad.cli`` built before it read argv from its own option table.

The counting hooks wrap what the package compiles each integrand into:
every scalar evaluator (what ``nrquad.expressions._compile_scalar``
returns, one closure per node) and every batch evaluator (what
``nrquad.baselines._compile_batch`` returns, a chain of ``map``
iterators).  The package imports a compiler by name, so a hook replaces
the name in every ``nrquad`` module that binds it.
"""

from __future__ import annotations

import argparse
import functools
import math
import random
import re
import string
import sys
from collections.abc import Iterator
from itertools import combinations, pairwise, repeat

from nrquad._enclosure import _proves_increasing
from nrquad.baselines import DepthLimitError, NonfiniteSampleError
from nrquad.cli import MAX_COUNT, METHODS
from nrquad._syntax import _MAX_NESTING, _TOO_DEEP, VARIABLE_NAME
from nrquad.expressions import (
    _FUNCTIONS,
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
    simplify,
    to_text,
)
from nrquad.quadrature import VALIDATION_SAMPLES, Interval, ValidationReport

FUNCTION_POOL = ("sin", "cos", "tan", "exp", "ln", "sqrt", "abs")

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


# bounds with a signed zero, a subnormal, tiny and ordinary widths, and widths that overflow
PROOF_BOUNDS = (-1e308, -0.0, 0.0, 5e-324, 1e-7, 0.5, 1.0, 3.0, 1e154, 1e308)


def bound_intervals() -> list[Interval]:
    """Every interval ``[a, b]`` with ``a < b`` between two of ``PROOF_BOUNDS``: 44 of them."""
    return [Interval(a, b) for a, b in combinations(PROOF_BOUNDS, 2) if a < b]


def takes_proof_path(f: Expression, interval: Interval) -> bool:
    """Whether ``validate_problem(f, interval)`` proves f' > 0 rather than sampling f."""
    a, b = interval.a, interval.b
    finite_ends = math.isfinite(tree_value(f, b)) and math.isfinite(tree_value(f, a + 0.0))
    return finite_ends and _proves_increasing(f, differentiate(f), a, b)


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


# the grammar's characters, a space, a stray character and every ASCII letter
EDIT_CHARACTERS = "x()+-*/^,.e1 $" + string.ascii_letters


def edited_sources(rng: random.Random, batches: int | None) -> Iterator[str]:
    """Sources for the parser's oracle, ``batches`` of them or endless for None.

    Each batch prints 200 ``random_tree`` trees of depth 5, then yields each
    text, the text with each one character deleted, and ten copies with one
    ``EDIT_CHARACTERS`` character inserted at a random place.
    """
    for _ in repeat(None) if batches is None else range(batches):
        texts = [to_text(random_tree(rng, 5)) for _ in range(200)]
        for text in texts:
            yield text
            for i in range(len(text)):
                yield text[:i] + text[i + 1 :]
            for _ in range(10):
                i = rng.randrange(len(text) + 1)
                yield text[:i] + rng.choice(EDIT_CHARACTERS) + text[i:]


def tree_value(e: Expression, x: float) -> float:
    """The value of ``e`` at ``x`` by walking the tree, NaN where an operation raises.

    This is the oracle of the compiled evaluators: it shares no code with
    them but the function table, and gives every value ``evaluate`` must give.
    """
    try:
        return _walk(e, x)
    except (ArithmeticError, ValueError):
        return math.nan


def _walk(e: Expression, x: float) -> float:
    match e:
        case Const(value):
            return value
        case Var():
            return x
        case Neg(child):
            return -_walk(child, x)
        case BinOp(op, left, right):
            lv = _walk(left, x)
            rv = _walk(right, x)
            if op == "+":
                return lv + rv
            if op == "-":
                return lv - rv
            if op == "*":
                return lv * rv
            if op == "/":
                return lv / rv
            return math.pow(lv, rv)
        case Call(name, arg):
            return _FUNCTIONS[name](_walk(arg, x))
    raise TypeError(f"not an expression node: {e!r}")


def textbook_derivative(e: Expression) -> Expression:
    """The derivative of ``e`` by the textbook rules, unsimplified.

    This is the oracle of ``differentiate``: it builds every node directly
    and shares no code with it, and ``differentiate(e)`` must equal
    ``simplify(textbook_derivative(e))`` node for node.  The rules are the
    package's: ``(u/c)' = u'/c`` for a constant ``c``, and a power with a
    non-constant exponent goes through ``u^v = exp(v*ln(u))``.
    """
    match e:
        case Const():
            return Const(0.0)
        case Var():
            return Const(1.0)
        case Neg(child):
            return Neg(textbook_derivative(child))
        case BinOp("+" | "-" as op, u, v):
            return BinOp(op, textbook_derivative(u), textbook_derivative(v))
        case BinOp("*", u, v):
            return BinOp("+", BinOp("*", textbook_derivative(u), v), BinOp("*", u, textbook_derivative(v)))
        case BinOp("/", u, Const() as c):
            return BinOp("/", textbook_derivative(u), c)
        case BinOp("/", u, v):
            numerator = BinOp("-", BinOp("*", textbook_derivative(u), v), BinOp("*", u, textbook_derivative(v)))
            return BinOp("/", numerator, BinOp("^", v, Const(2.0)))
        case BinOp("^", u, Const(c)):
            return BinOp("*", BinOp("*", Const(c), BinOp("^", u, Const(c - 1.0))), textbook_derivative(u))
        case BinOp("^", u, v):
            # (u^v)' = u^v * (v'*ln(u) + v*u'/u)
            du_over_u = BinOp("/", textbook_derivative(u), u)
            inner = BinOp("+", BinOp("*", textbook_derivative(v), Call("ln", u)), BinOp("*", v, du_over_u))
            return BinOp("*", e, inner)
        case Call(name, u):
            return BinOp("*", _OUTER[name](u), textbook_derivative(u))
    raise TypeError(f"not an expression node: {e!r}")


# the derivative of each function at its argument u
_OUTER = {
    "sin": lambda u: Call("cos", u),
    "cos": lambda u: Neg(Call("sin", u)),
    "tan": lambda u: BinOp("/", Const(1.0), BinOp("^", Call("cos", u), Const(2.0))),
    "exp": lambda u: Call("exp", u),
    "ln": lambda u: BinOp("/", Const(1.0), u),
    "sqrt": lambda u: BinOp("/", Const(1.0), BinOp("*", Const(2.0), Call("sqrt", u))),
    "abs": lambda u: BinOp("/", u, Call("abs", u)),
}


def descent_parse(source: str) -> Expression:
    """``parse`` as the recursive-descent class and separate depth walk it replaced.

    This is the parser's oracle: ``parse(source)`` must give the same tree,
    or raise a ``ParseError`` with the same message and offset.  It shares
    only the messages' constants with ``parse``: its own token pattern names
    each token's kind in a group and matches whitespace as a token.
    """
    if not source or source.isspace():
        raise ParseError("empty expression", 0)
    tokens = _tokenize(source)
    expr = _Parser(tokens).parse()
    # every node takes at least one token, so only a long source can be too deep
    if len(tokens) > MAX_DEPTH and _depth(expr) > MAX_DEPTH:
        raise ParseError(_TOO_DEEP, 0)
    return expr


def parse_outcome(parser, source: str) -> str | tuple[str, int]:
    """The tree ``parser`` gives for ``source``, as its repr, or the message and offset of its ``ParseError``."""
    try:
        return repr(parser(source))  # repr spells every node type and constant exactly
    except ParseError as err:
        return str(err), err.offset


_TOKEN_RE = re.compile(
    r"""(?P<num>(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*/^(),])
      | (?P<ws>\s+)
      | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    # (kind, text, offset) tuples; the catch-all "bad" group makes the matches cover the source
    tokens = []
    for match in _TOKEN_RE.finditer(source):
        kind = match.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {match.group()!r}", match.start())
        if kind != "ws":
            tokens.append((kind, match.group(), match.start()))
    tokens.append(("end", "end of input", len(source)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]) -> None:
        self._tokens = tokens
        self._index = 0
        self._nesting = 0

    def _peek(self) -> tuple[str, str, int]:
        return self._tokens[self._index]

    def _peek_op(self) -> str | None:
        """The next token's text if it is an operator or punctuation, else None."""
        kind, text, _ = self._tokens[self._index]
        return text if kind == "op" else None

    def _expect_op(self, op: str, context: str) -> None:
        if self._peek_op() == op:
            self._index += 1
            return
        _, text, offset = self._peek()
        raise ParseError(f"expected {op!r} {context}, found {text!r}", offset)

    def parse(self) -> Expression:
        expr = self._expr()
        kind, text, offset = self._peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r} after a complete expression", offset)
        return expr

    def _expr(self) -> Expression:
        left = self._term()
        while (op := self._peek_op()) in ("+", "-"):
            self._index += 1
            left = BinOp(op, left, self._term())
        return left

    def _term(self) -> Expression:
        left = self._unary()
        while (op := self._peek_op()) in ("*", "/"):
            self._index += 1
            left = BinOp(op, left, self._unary())
        return left

    def _unary(self) -> Expression:
        # every nested operand passes here: parenthesised, argument, negated or exponent
        self._nesting += 1
        if self._nesting > _MAX_NESTING:
            raise ParseError(_TOO_DEEP, self._peek()[2])
        if self._peek_op() == "-":
            self._index += 1
            expr: Expression = Neg(self._unary())
        else:
            expr = self._power()
        self._nesting -= 1
        return expr

    def _power(self) -> Expression:
        base = self._atom()
        if self._peek_op() == "^":
            self._index += 1
            return BinOp("^", base, self._unary())
        return base

    def _atom(self) -> Expression:
        kind, text, offset = self._peek()
        self._index += 1
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ParseError(f"number {text!r} is too large for a float", offset)
            return Const(value)
        if kind == "name":
            if text == VARIABLE_NAME:
                return Var()
            if text in FUNCTION_NAMES:
                return self._call(text)
            raise ParseError(f"unknown identifier {text!r}", offset)
        if kind == "op" and text == "(":
            expr = self._expr()
            self._expect_op(")", "to close the parenthesised expression")
            return expr
        raise ParseError(f"expected a number, {VARIABLE_NAME!r}, or '(', found {text!r}", offset)

    def _call(self, name: str) -> Expression:
        self._expect_op("(", f"after function name {name!r}")
        arg = self._expr()
        if self._peek_op() == ",":
            raise ParseError(f"function {name!r} takes exactly one argument", self._peek()[2])
        self._expect_op(")", f"to close the argument of {name!r}")
        return Call(name, arg)


def _depth(e: Expression) -> int:
    deepest = 0
    pending = [(e, 1)]
    while pending:
        node, depth = pending.pop()
        deepest = max(deepest, depth)
        match node:
            case Neg(Const()):
                pass  # to_text prints Const(-c) as (-c): count the one level it was printed from
            case Neg(child) | Call(_, child):
                pending.append((child, depth + 1))
            case BinOp(_, left, right):
                pending.append((left, depth + 1))
                pending.append((right, depth + 1))
    return deepest


def scalar_validate(f: Expression, interval: Interval) -> ValidationReport:
    """``validate_problem`` with one ``tree_value`` per sample and f' from ``textbook_derivative``.

    The samples are ``a + i*h`` for ``h = (b - a)/63`` and i below 63, then
    b; where ``b - a`` overflows they are ``a*(1 - i/63) + b*(i/63)``.
    """
    a, b = interval.a, interval.b
    n = VALIDATION_SAMPLES - 1
    h = (b - a) / n
    xs = [a + i * h if math.isfinite(h) else a * (1.0 - i / n) + b * (i / n) for i in range(n)] + [b]
    values = [tree_value(f, x) for x in xs]
    messages = []
    monotone = True
    for (x, v), (x_next, v_next) in pairwise(zip(xs, values)):
        if not math.isfinite(v) or not math.isfinite(v_next):
            monotone = False
            messages.append(f"f is not finite at sampled point x = {(x_next if math.isfinite(v) else x)!r}")
            break
        if v_next < v:
            monotone = False
            messages.append(f"f is not nondecreasing: f({x!r}) = {v!r} > f({x_next!r}) = {v_next!r}")
            break
    f_a, f_b = values[0], values[-1]
    root_at_a = math.isfinite(f_a) and abs(f_a) <= 1e-6 * max(1.0, abs(f_b))
    if not root_at_a:
        messages.append(f"f(a) = {f_a!r} is not negligible; the rule needs the root at a")
    df_b = tree_value(simplify(textbook_derivative(f)), b)
    derivative_positive = math.isfinite(df_b) and df_b > 0.0
    if not derivative_positive:
        messages.append(f"f'(b) = {df_b!r} is not positive")
    return ValidationReport(monotone, root_at_a, derivative_positive, tuple(messages))


def central_difference(e: Expression, x: float, h: float) -> float:
    return (tree_value(e, x + h) - tree_value(e, x - h)) / (2.0 * h)


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
    value = tree_value(f, x)
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
"""The uniform rules as one ``tree_value`` per node, keyed by rule name."""


def scalar_reference(f: Expression, interval: Interval, tol: float = 1e-10) -> float:
    """``reference_integral``'s depth-first recursion on the tree walk, one ``tree_value`` per point.

    It is the oracle for ``reference_integral``, which runs the same
    recursion on the compiled scalar closures.

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
    fa = tree_value(f, a)
    fb = tree_value(f, b)
    m = 0.5 * (a + b)
    fm = tree_value(f, m)
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
    flm = tree_value(f, lm)
    frm = tree_value(f, rm)
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


def patch_compiler(monkeypatch, name: str, wrap) -> None:
    """Makes the compiler ``name`` return ``wrap(e, evaluator)`` for each evaluator it builds from ``e``.

    The compiler is taken from the ``nrquad`` module that defines it and
    replaced in every ``nrquad`` module that binds it.  A name that no
    loaded ``nrquad`` module defines fails, so a hook cannot count nothing.
    """
    modules = [(module_name, module) for module_name, module in sys.modules.items() if module_name.partition(".")[0] == "nrquad"]
    owners = [module for module_name, module in modules if getattr(getattr(module, name, None), "__module__", None) == module_name]
    assert len(owners) == 1, f"{len(owners)} loaded nrquad modules define {name}"
    compiler = getattr(owners[0], name)

    @functools.wraps(compiler)  # keeps __module__, so a second hook finds the compiler's module too
    def patched(e: Expression):
        return wrap(e, compiler(e))

    for _, module in modules:
        if getattr(module, name, None) is compiler:
            monkeypatch.setattr(module, name, patched)


def count_scalar_calls(monkeypatch) -> list[int]:
    """Counts the calls of every scalar evaluator compiled from now on, and in a second item the evaluators built."""
    count = [0, 0]

    def counting(e: Expression, at):
        count[1] += 1

        def counted(x: float) -> float:
            count[0] += 1
            return at(x)

        return counted

    patch_compiler(monkeypatch, "_compile_scalar", counting)
    return count


def record_batches(monkeypatch, before_batch=None) -> list[int]:
    """Records the size of each batch run through a batch evaluator compiled from now on.

    ``before_batch``, if given, is called before each batch runs.
    """
    sizes: list[int] = []

    def recording(e: Expression, many):
        def recorded(xs):
            if before_batch is not None:
                before_batch()
            sizes.append(len(xs))
            return many(xs)

        return recorded

    patch_compiler(monkeypatch, "_compile_batch", recording)
    return sizes


# --- the command line's oracle: argparse, as nrquad.cli parsed argv before it had its own parser ---


class ArgparseError(Exception):
    pass


class _ArgparseParser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ArgparseError(message)


def _argparse_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value > MAX_COUNT:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_COUNT}, got {value}")
    return value


def _build_parser() -> _ArgparseParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--expr", required=True, help="integrand f(x), e.g. '2*x^2+3*x+1'")
    common.add_argument("--lower", type=float, required=True, help="lower limit a (where the root lies)")
    common.add_argument("--upper", type=float, required=True, help="upper limit b (the Newton start point)")
    common.add_argument("--tol-x", type=float, default=1e-6, help="stop when |x_next - a| <= tol-x")
    common.add_argument("--tol-f", type=float, help="stop when |f(x_next)| <= tol-f (default: scale-aware)")
    common.add_argument("--max-iter", type=_argparse_count, default=100, help="iteration budget")
    common.add_argument("--closing-triangle", action="store_true", help="cover the [a, x_last] sliver with a triangle")
    common.add_argument("--no-validate", action="store_true", help="skip the precondition checks")
    common.add_argument("--format", choices=("table", "csv", "json"), default="table")

    parser = _ArgparseParser(prog="nrquad", description="Trapezoid quadrature on Newton-Raphson partitions.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("integrate", parents=[common], help="run the Newton-partition rule")
    compare = sub.add_parser("compare", parents=[common], help="compare methods against a reference integral")
    compare.add_argument("--panels", type=_argparse_count, default=3, help="subinterval count for the baseline rules")
    compare.add_argument("--methods", nargs="+", choices=METHODS, default=METHODS, help="methods to run, in order")
    sub.add_parser("trace", parents=[common], help="emit the Newton iterate / panel records")
    return parser


ARGPARSE_PARSER = _build_parser()
_VALUED = ("--expr", "--lower", "--upper", "--tol-x", "--tol-f")


def joined(argv: list[str]) -> list[str]:
    """``argv`` with each value that starts with ``-`` joined to its option, as ``main`` did before argparse read it."""
    items = []
    for item in argv:
        # argparse takes -1e-3 or -1+x for an option, but --lower=-1e-3 or --low=-1e-3 for a value
        if items and item[:1] == "-" and item[1:2] not in ("-", "h") and sum(name.startswith(items[-1]) for name in _VALUED) == 1:
            item = items.pop() + "=" + item
        items.append(item)
    return items


def argparse_parse(argv: list[str], join: bool = True) -> argparse.Namespace:
    """The fields argparse reads from ``argv``, :func:`joined` first unless ``join`` is false.

    Raises :class:`ArgparseError` with the usage message, or ``SystemExit(0)``
    after printing the help.
    """
    return ARGPARSE_PARSER.parse_args(joined(argv) if join else argv)
