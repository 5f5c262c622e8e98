"""Self-checks of the benchmark's own oracles; nrquad is not involved.

usage: python3 bench/selfcheck.py

* every term template's closed-form integral against ``mpmath.quad``
  (skipped, and said so, where mpmath is not installed);
* every template's plain f' against a central difference of its plain f;
* the plain adaptive Simpson against the closed forms, to 1e-8 relative,
  on a corpus of each workload's problems;
* the plain composite rules converging to the closed form as n grows.

Exits 1 if any check fails.
"""

from __future__ import annotations

import math
import sys

import corpus
import plain

failures: list[str] = []


def expect(ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def term_problems() -> list[corpus.Problem]:
    return [
        corpus.make_problem([(name, c, k)], b)
        for name in corpus.TEMPLATES
        for k in ((1, 2, 3) if name == "poly" else (1,))
        for c in (0.2, 1.37, 3.0)
        for b in (0.5, 1.234, 3.0)
    ]


def check_closed_forms() -> None:
    try:
        import mpmath
    except ImportError:
        print("SKIPPED: mpmath is not installed, closed forms not checked against mpmath.quad")
        return
    mpmath.mp.dps = 30
    namespace = {"exp": mpmath.exp, "log": mpmath.log, "sqrt": mpmath.sqrt, "sin": mpmath.sin, "cos": mpmath.cos}
    for p in term_problems():
        f = eval(f"lambda x: {p.f_src}", namespace)
        exact = float(mpmath.quad(f, [p.a, p.b]))
        expect(math.isclose(p.exact, exact, rel_tol=1e-12), f"closed form of {p.text} on [0, {p.b}]: {p.exact!r}, mpmath {exact!r}")


def check_derivatives() -> None:
    for p in term_problems():
        f, df = p.plain()
        for x in (0.3, 1.1, 2.9):
            h = 1e-5
            diff = (f(x + h) - f(x - h)) / (2 * h)
            expect(math.isclose(df(x), diff, rel_tol=1e-7), f"f' of {p.text} at {x}: {df(x)!r}, central difference {diff!r}")


def check_reference() -> None:
    problems = term_problems() + corpus.integrate_corpus(0)[:50] + corpus.compare_corpus(0)
    for p in problems:
        f, _ = p.plain()
        value = plain.adaptive_simpson(f, p.a, p.b)
        expect(math.isclose(value, p.exact, rel_tol=1e-8), f"adaptive Simpson on {p.text}: {value!r}, closed form {p.exact!r}")


def check_rules() -> None:
    for p in corpus.integrate_corpus(0)[:20]:
        f, _ = p.plain()
        for method, rule in plain.RULES.items():
            errors = [abs(rule(f, p.a, p.b, n) - p.exact) for n in (16, 256)]
            expect(errors[1] < errors[0] or errors[1] < 1e-12, f"{method} does not converge on {p.text}: {errors}")


def main() -> int:
    for check in (check_closed_forms, check_derivatives, check_reference, check_rules):
        check()
    for message in failures:
        print(f"FAIL: {message}")
    print(f"selfcheck: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
