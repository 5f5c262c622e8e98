"""Seeded problem corpora for the three workloads.

Every integrand is a sum of positive-coefficient terms, each increasing on
[0, b] with its root at 0, so every problem has ``a = 0`` and passes
nrquad's precondition check.  Each term template carries four renderings
of the same function: nrquad expression text, plain Python source for f
and for f', and the closed-form integral over [0, b].  The plain sources
use ``**`` and ``math`` functions and never go through nrquad.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from plain import plain_function

# name: (nrquad text, plain f, plain f', closed-form integral over [0, b], convex on [0, inf))
# {c} is the coefficient and {k} the polynomial degree.
TEMPLATES = {
    "poly": ("{c}*x^{k}", "{c}*x**{k}", "{c}*({k}*x**({k}-1))", lambda c, k, b: c * b ** (k + 1) / (k + 1), True),
    "exp": ("{c}*(exp(x)-1)", "{c}*(exp(x)-1)", "{c}*exp(x)", lambda c, k, b: c * (math.expm1(b) - b), True),
    "ln": ("{c}*ln(x+1)", "{c}*log(x+1)", "{c}*(1/(x+1))", lambda c, k, b: c * ((b + 1) * math.log1p(b) - b), False),
    "sqrt1": (
        "{c}*(sqrt(x+1)-1)",
        "{c}*(sqrt(x+1)-1)",
        "{c}*(1/(2*sqrt(x+1)))",
        lambda c, k, b: c * (2.0 / 3.0 * ((b + 1) ** 1.5 - 1.0) - b),
        False,
    ),
    "sin4": ("{c}*sin(x/4)", "{c}*sin(x/4)", "{c}*(cos(x/4)/4)", lambda c, k, b: 8.0 * c * math.sin(b / 8) ** 2, False),
    # x^(3/2): its unbounded second derivative at 0 drives adaptive Simpson deep
    "xsqrt": ("{c}*x*sqrt(x)", "{c}*x*sqrt(x)", "{c}*(1.5*sqrt(x))", lambda c, k, b: 0.4 * c * b**2.5, True),
}

FAMILY = ("poly", "exp", "ln", "sqrt1", "sin4")

@dataclass(frozen=True)
class Problem:
    text: str  # nrquad expression
    f_src: str
    df_src: str
    a: float
    b: float
    exact: float  # closed-form integral over [a, b]
    convex: bool  # every term convex, so the rule overestimates
    panels: int  # subinterval count for the classical rules (compare only)

    def plain(self) -> tuple[Callable[[float], float], Callable[[float], float]]:
        return plain_function(self.f_src), plain_function(self.df_src)


def make_problem(terms: list[tuple[str, float, int]], b: float, panels: int = 0) -> Problem:
    """Build a problem on [0, b] from (template, coefficient, degree) terms."""
    parts = []
    for name, c, k in terms:
        text, f_src, df_src, integral, convex = TEMPLATES[name]
        if name == "poly" and k == 1:
            text, f_src, df_src = "{c}*x", "{c}*x", "{c}"
        fields = {"c": repr(c), "k": k}
        parts.append((text.format(**fields), f_src.format(**fields), df_src.format(**fields), integral(c, k, b), convex))
    return Problem(
        text="+".join(p[0] for p in parts),
        f_src="+".join(p[1] for p in parts),
        df_src="+".join(p[2] for p in parts),
        a=0.0,
        b=b,
        exact=math.fsum(p[3] for p in parts),
        convex=all(p[4] for p in parts),
        panels=panels,
    )


def _term(rng: random.Random, name: str) -> tuple[str, float, int]:
    return name, round(rng.uniform(0.2, 3.0), 2), rng.randint(1, 3)


def _distinct(rng: random.Random, count: int, draw: Callable[[random.Random], Problem]) -> list[Problem]:
    problems: dict[str, Problem] = {}
    while len(problems) < count:
        problem = draw(rng)
        problems.setdefault(problem.text, problem)
    return list(problems.values())


INTEGRATE_SIZE = 400


def integrate_corpus(seed: int) -> list[Problem]:
    """400 distinct integrands of 1-6 family terms, upper limits in [0.5, 3]."""

    def draw(rng: random.Random) -> Problem:
        terms = [_term(rng, rng.choice(FAMILY)) for _ in range(rng.randint(1, 6))]
        return make_problem(terms, round(rng.uniform(0.5, 3.0), 3))

    return _distinct(random.Random(f"integrate:{seed}"), INTEGRATE_SIZE, draw)


COMPARE_SIZE = 160


def compare_corpus(seed: int) -> list[Problem]:
    """160 integrands of 1-4 family terms, about a third plus an x*sqrt(x) term; even panel counts 200-1200.

    The per-operation ratio to plain Python depends on the terms, so the
    corpus is large enough for its median to hold from seed to seed.  The
    problems come cheapest first, so the one warm-up operation costs about
    the same for every seed.
    """

    def draw(rng: random.Random) -> Problem:
        panels = 2 * rng.randint(100, 600)
        b = round(rng.uniform(0.5, 3.0), 3)
        terms = [_term(rng, rng.choice(FAMILY)) for _ in range(rng.randint(1, 4))]
        if rng.random() < 1 / 3:
            terms.append(_term(rng, "xsqrt"))
        return make_problem(terms, b, panels)

    problems = _distinct(random.Random(f"compare:{seed}"), COMPARE_SIZE, draw)
    return sorted(problems, key=lambda p: p.panels)


def cli_problems(seed: int, count: int) -> list[Problem]:
    """Small problems for process launches: 1-2 family terms, 8-64 panels."""

    def draw(rng: random.Random) -> Problem:
        terms = [_term(rng, rng.choice(FAMILY)) for _ in range(rng.randint(1, 2))]
        return make_problem(terms, round(rng.uniform(0.5, 3.0), 3), 2 * rng.randint(4, 32))

    return _distinct(random.Random(f"cli:{seed}"), count, draw)
