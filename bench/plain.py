"""Plain-Python counterparts of nrquad's operations.

Everything here works on Python callables and floats and imports only
``math``, so it shares no code path with nrquad.  Each function is both
the timing baseline for the operation it mirrors and the oracle that
operation's output is checked against.

The Newton-partition rule follows nrquad's documented algorithm: the
64-sample precondition check, the stopping tests in nrquad's priority
order (reached-target, residual-small, step-small, overshoot-clamped,
max-iterations), the clamp to ``a`` and the panel formula
``1/2 * step * (f_k + f_next)`` summed in construction order.  It takes
the lean path a plain implementation would: every point is evaluated
once.
"""

from __future__ import annotations

import math
from collections import namedtuple

VALIDATION_SAMPLES = 64
DERIVATIVE_EPSILON = 1e-12
REFERENCE_TOL = 1e-10
MAX_DEPTH = 50

# steps: (x_k, f_k, df_k, step, x_next) per Newton step; areas: one per step
Rule = namedtuple("Rule", "value termination steps areas final_x f_final")


_NAMESPACE = {name: getattr(math, name) for name in ("exp", "log", "sqrt", "sin", "cos")}


def plain_function(source):
    """Compile plain Python source in ``x`` to a one-argument function."""
    return eval(f"lambda x: {source}", dict(_NAMESPACE))


class RuleError(ArithmeticError):
    """The plain rule refused the problem, where nrquad raises too."""


def _check_point(x, f_x, df_x):
    if not (math.isfinite(f_x) and math.isfinite(df_x)):
        raise RuleError(f"nonfinite value at x = {x!r}")
    if abs(df_x) <= DERIVATIVE_EPSILON:
        raise RuleError(f"derivative vanished at x = {x!r}")


def _validate(f, a, b, df_b):
    h = (b - a) / (VALIDATION_SAMPLES - 1)
    values = [f(a + i * h) for i in range(VALIDATION_SAMPLES - 1)]
    values.append(f(b))
    for low, high in zip(values, values[1:]):
        if not (math.isfinite(low) and math.isfinite(high) and high >= low):
            raise RuleError("f is not finite and nondecreasing at the samples")
    if not abs(values[0]) <= 1e-6 * max(1.0, abs(values[-1])):
        raise RuleError("f(a) is not negligible")
    if not df_b > 0.0:
        raise RuleError("f'(b) is not positive")


def nr_rule(f, df, a, b, tol_x=1e-6, max_iter=100, validate=True):
    """Newton-partition trapezoid rule from ``b`` down to ``a``."""
    f_k, df_k = f(b), df(b)
    _check_point(b, f_k, df_k)
    if validate:
        _validate(f, a, b, df_k)
    tol_f = 1e-9 * max(1.0, abs(f_k))
    x = b
    steps = []
    for _ in range(max_iter):
        step = f_k / df_k
        x_next = x - step
        steps.append((x, f_k, df_k, step, x_next))
        if not math.isfinite(x_next):
            raise RuleError(f"nonfinite iterate after x = {x!r}")
        if abs(x_next - a) <= tol_x:
            termination, final_x = "reached-target", x_next
            break
        try:
            f_next = f(x_next)
        except (ArithmeticError, ValueError):  # an overshoot can leave f's domain
            f_next = math.nan
        if math.isfinite(f_next) and abs(f_next) <= tol_f:
            termination, final_x = "residual-small", x_next
            break
        if abs(step) <= 1e-12:
            termination, final_x = "step-small", x_next
            break
        if x_next < a:
            termination, final_x = "overshoot-clamped", a
            break
        x, f_k, df_k = x_next, f_next, df(x_next)
        _check_point(x, f_k, df_k)
    else:
        termination, final_x = "max-iterations", x
    f_final = f(final_x)
    areas = []
    value = 0.0
    for i, (_, f_k, _, step, _) in enumerate(steps):
        f_far = steps[i + 1][1] if i + 1 < len(steps) else f_final
        area = 0.5 * step * (f_k + f_far)
        areas.append(area)
        value += area
    return Rule(value, termination, steps, areas, final_x, f_final)


def status(rule):
    if rule.termination == "overshoot-clamped":
        return "clamped"
    if rule.termination == "max-iterations":
        return "budget-exhausted"
    return "ok"


def _finite(total, name):
    if not math.isfinite(total):
        raise ValueError(f"{name}: integrand is not finite at a sampled point")
    return total


def left_riemann(f, a, b, n):
    h = (b - a) / n
    return h * _finite(sum(f(a + i * h) for i in range(n)), "left-riemann")


def right_riemann(f, a, b, n):
    h = (b - a) / n
    return h * _finite(sum(f(a + i * h) for i in range(1, n + 1)), "right-riemann")


def midpoint(f, a, b, n):
    h = (b - a) / n
    return h * _finite(sum(f(a + (i + 0.5) * h) for i in range(n)), "midpoint")


def trapezoid(f, a, b, n):
    h = (b - a) / n
    total = 0.5 * (f(a) + f(b))
    for i in range(1, n):
        total += f(a + i * h)
    return h * _finite(total, "trapezoid")


def simpson(f, a, b, n):
    if n % 2:
        raise ValueError(f"simpson needs an even subinterval count (got {n!r})")
    h = (b - a) / n
    total = f(a) + f(b)
    for i in range(1, n):
        total += (4.0 if i % 2 else 2.0) * f(a + i * h)
    return h * _finite(total, "simpson") / 3.0


RULES = {
    "midpoint": midpoint,
    "trapezoid": trapezoid,
    "left-riemann": left_riemann,
    "right-riemann": right_riemann,
    "simpson": simpson,
}


def adaptive_simpson(f, a, b, tol=REFERENCE_TOL):
    """Adaptive Simpson bisection: accept when |S2 - S1| <= 15*tol, halve tol per level."""
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    return _adaptive(f, a, b, fa, fm, fb, (b - a) / 6.0 * (fa + 4.0 * fm + fb), tol, 0)


def _adaptive(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    flm, frm = f(0.5 * (a + m)), f(0.5 * (m + b))
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth >= MAX_DEPTH:
        raise RuleError(f"adaptive bisection exceeded depth {MAX_DEPTH} on [{a!r}, {b!r}]")
    tol /= 2.0
    return _adaptive(f, a, m, fa, flm, fm, left, tol, depth + 1) + _adaptive(
        f, m, b, fm, frm, fb, right, tol, depth + 1
    )


def error_row(method, value, reference, settings):
    abs_error = abs(reference - value)
    pct = 100.0 * abs_error / abs(reference) if reference != 0.0 else math.nan
    return {"method": method, "value": value, "abs_error": abs_error, "rel_error_pct": pct, "settings": settings}


# The documents below hold the same data as nrquad's JSON output for each
# CLI command, built from the plain computations.


def integrate_doc(text, a, b, rule):
    return {
        "expression": text,
        "interval": [a, b],
        "value": rule.value,
        "panels": [
            {"x_k": s[0], "width": s[3], "area": area} for s, area in zip(rule.steps, rule.areas)
        ],
        "closing_area": 0.0,
        "residual_gap": abs(rule.final_x - a),
        "status": status(rule),
        "trace": {
            "steps": [
                {"x_k": s[0], "f_k": s[1], "df_k": s[2], "step": s[3], "x_next": s[4]} for s in rule.steps
            ],
            "termination": rule.termination,
            "final_x": rule.final_x,
        },
    }


def trace_doc(text, a, b, rule):
    return {
        "expression": text,
        "interval": [a, b],
        "steps": [
            {"index": i, "x_k": s[0], "f_k": s[1], "df_k": s[2], "step": s[3], "area": area}
            for i, (s, area) in enumerate(zip(rule.steps, rule.areas))
        ],
        "termination": rule.termination,
    }


def compare_doc(text, f, df, a, b, panels, validate=True):
    reference = adaptive_simpson(f, a, b)
    rule = nr_rule(f, df, a, b, validate=validate)
    rows = [error_row("nr", rule.value, reference, "tol_x=1e-06")]
    for method, fn in RULES.items():
        settings = f"n={panels}"
        try:
            rows.append(error_row(method, fn(f, a, b, panels), reference, settings))
        except ValueError as exc:
            rows.append({"method": method, "error": str(exc), "settings": settings})
    return {
        "expression": text,
        "interval": [a, b],
        "reference": reference,
        "rows": rows,
        "nr_details": {
            "panel_count": len(rule.steps),
            "residual_gap": abs(rule.final_x - a),
            "termination": rule.termination,
        },
    }
