"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

Criterion 5 ("convex overestimate within one percent") once also
required the rule to land within 1% of the reference on three convex
integrands.  No correct implementation of the rule can meet that clause,
so it was dropped:

* It contradicts criterion 3.  With ``tol_x=1e-8`` the Newton chain from
  ``b`` on the worked example starts with the four steps that criterion 3
  pins at 3.6100 +/- 0.005 for ``tol_x=0.01``, then only adds panels of
  nonnegative area and a closing triangle.  The value is therefore at
  least 3.605, above 1.01 * 3.375 = 3.40875.
* It contradicts a closed form.  For ``x^2`` on [0, 2] the iterates are
  ``x_k = 2^(1-k)`` and panel k has area ``(5/16) * x_k^3``, so the sum
  tends to exactly 20/7: 1/14 (7.14%) above the exact 8/3, whatever the
  tolerance.

The criterion now pins the size of the overestimate instead.  On each
case the value stays at or above the reference, and it equals a
plain-float recomputation of the rule (``support.brute_force_rule`` plus
the closing triangle) to 1e-12 relative.  For ``x^2`` it equals 20/7 to
1e-12 relative, and on every case the excess over the exact integral does
not shrink from ``tol_x=0.01`` to ``tol_x=1e-8``.  The test keeps its
original name so the criterion can still be traced.  The README's
accuracy section discusses the behaviour.
"""

import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

from nrquad.baselines import (
    error_stats,
    left_riemann,
    midpoint,
    reference_integral,
    right_riemann,
    simpson,
    trapezoid,
)
from nrquad.cli import main
from nrquad.expressions import differentiate, evaluate, parse
from nrquad.newton import newton_step
from nrquad.quadrature import Interval, NrQuadSettings, QuadStatus, nr_integrate
from support import (
    brute_force_rule,
    central_difference,
    poly_derivative,
    poly_value,
    random_polynomial,
    random_tree,
)

QUAD_SRC = "2*x^2+3*x+1"
QUAD = parse(QUAD_SRC)
QUAD_INTERVAL = Interval(-0.5, 1.0)
GOLDEN = Path(__file__).parent / "golden" / "compare_worked_example.txt"


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion:>2}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_reference_value():
    start = time.perf_counter()
    value = reference_integral(QUAD, QUAD_INTERVAL, tol=1e-10)
    elapsed = time.perf_counter() - start
    ok = abs(value - 3.375) <= 1e-9 and elapsed < 1.0
    report(1, ok, f"reference = {value!r} (|err| = {abs(value - 3.375):.2e}), {elapsed * 1000:.1f} ms")
    assert abs(value - 3.375) <= 1e-9
    assert elapsed < 1.0


def test_criterion_02_baseline_table_reproduction():
    start = time.perf_counter()
    reference = reference_integral(QUAD, QUAD_INTERVAL, tol=1e-10)
    measured = {
        "midpoint": error_stats(midpoint(QUAD, QUAD_INTERVAL, 3), reference).rel_error_pct,
        "trapezoid": error_stats(trapezoid(QUAD, QUAD_INTERVAL, 3), reference).rel_error_pct,
        "left": error_stats(left_riemann(QUAD, QUAD_INTERVAL, 3), reference).rel_error_pct,
        "right": error_stats(right_riemann(QUAD, QUAD_INTERVAL, 3), reference).rel_error_pct,
    }
    elapsed = time.perf_counter() - start
    stated = {"midpoint": 1.8518, "trapezoid": 3.7037, "left": 40.7407, "right": 48.1481}
    deltas = {name: abs(measured[name] - stated[name]) for name in stated}
    ok = all(delta <= 1e-4 for delta in deltas.values()) and elapsed < 1.0
    report(2, ok, "pp deltas " + ", ".join(f"{k}={v:.2e}" for k, v in deltas.items()))
    for name, delta in deltas.items():
        assert delta <= 1e-4, name
    assert elapsed < 1.0


def test_criterion_03_worked_example_chain():
    result = nr_integrate(QUAD, QUAD_INTERVAL, NrQuadSettings(tol_x=0.01))
    iterates = [step.x_next for step in result.trace.steps]
    printed = [0.142, -0.26, -0.44, -0.49]
    panel_ok = len(result.areas) == 4
    chain_ok = panel_ok and all(
        abs(x - p) <= 0.01 for x, p in zip(iterates, printed, strict=True)
    )
    value_ok = abs(result.value - 3.6100) <= 0.005
    report(
        3,
        panel_ok and chain_ok and value_ok,
        f"panels = {len(result.areas)}, value = {result.value:.6f} (target 3.6100 +/- 0.005)",
    )
    assert panel_ok
    assert chain_ok
    assert value_ok


def test_criterion_04_affine_exactness():
    rng = random.Random(90210)
    worst = 0.0
    ok = True
    for _ in range(100):
        m = rng.uniform(0.01, 50.0)
        b = rng.uniform(0.01, 50.0)
        f = parse(f"{m!r}*x")
        result = nr_integrate(f, Interval(0.0, b), NrQuadSettings(closing_triangle=True))
        exact = m * b * b / 2.0
        rel = abs(result.value - exact) / exact
        worst = max(worst, rel)
        if len(result.areas) != 1 or rel > 1e-12:
            ok = False
    report(4, ok, f"100 random (m, b); worst relative deviation {worst:.2e}; 1 panel each")
    assert ok


def test_criterion_05_convex_overestimate_within_one_percent():
    cases = [
        (QUAD_SRC, Interval(-0.5, 1.0), lambda x: 2 * x * x + 3 * x + 1, lambda x: 4 * x + 3, 3.375),
        ("x^2", Interval(0.0, 2.0), lambda x: x * x, lambda x: 2 * x, 8.0 / 3.0),
        ("exp(x)-1", Interval(0.0, 1.0), lambda x: math.exp(x) - 1.0, math.exp, math.e - 2.0),
    ]
    fine = NrQuadSettings(tol_x=1e-8, closing_triangle=True)
    # Criterion 3's setting, without the closing triangle: the fine chain extends this
    # one by nonnegative areas, while a finer convex trapezoid sum is never larger.
    coarse = NrQuadSettings(tol_x=0.01)
    lower_ok = oracle_ok = excess_ok = True
    values = {}
    excesses = []
    for source, interval, f_float, df_float, exact in cases:
        f = parse(source)
        value = nr_integrate(f, interval, fine).value
        values[source] = value
        if not value >= reference_integral(f, interval) - 1e-10:
            lower_ok = False
        panels, x_last = brute_force_rule(f_float, df_float, interval.a, interval.b, fine.tol_x)
        oracle = sum(panels) + 0.5 * (x_last - interval.a) * f_float(x_last)
        if not math.isclose(value, oracle, rel_tol=1e-12):
            oracle_ok = False
        excess = (value - exact) / exact
        coarse_excess = (nr_integrate(f, interval, coarse).value - exact) / exact
        if not excess >= coarse_excess:
            excess_ok = False
        excesses.append(f"{source}: {100 * excess:.2f}%")
    closed_form_ok = math.isclose(values["x^2"], 20.0 / 7.0, rel_tol=1e-12)
    report(
        5,
        lower_ok and oracle_ok and closed_form_ok and excess_ok,
        f"overestimate bound {'holds' if lower_ok else 'violated'}; "
        f"excess over exact: {', '.join(excesses)} (pinned: oracle {oracle_ok}, "
        f"x^2 = 20/7 {closed_form_ok}, not shrinking with tol_x {excess_ok})",
    )
    assert lower_ok
    assert oracle_ok, f"values {values} depart from the plain-float recomputation of the rule"
    assert closed_form_ok, f"x^2 on [0, 2] gave {values['x^2']!r}, expected 20/7"
    assert excess_ok, f"convex excess shrank from tol_x=0.01 to tol_x=1e-8: {', '.join(excesses)}"


def test_criterion_06_derivative_oracle():
    rng = random.Random(5081)
    start = time.perf_counter()
    checked = 0
    attempts = 0
    while checked < 500 and attempts < 50000:
        attempts += 1
        e = random_tree(rng, rng.randint(1, 5))
        x = rng.uniform(-2.0, 2.0)
        h = 1e-6 * max(1.0, abs(x))
        probes = [evaluate(e, x + d) for d in (-h, -h / 2, 0.0, h / 2, h)]
        if not all(math.isfinite(v) and abs(v) < 1e8 for v in probes):
            continue
        sym = evaluate(differentiate(e), x)
        if not math.isfinite(sym):
            continue
        fd = central_difference(e, x, h)
        fd_half = central_difference(e, x, h / 2)
        if not (math.isfinite(fd) and math.isfinite(fd_half)):
            continue
        if abs(fd - fd_half) > 1e-7 * max(1.0, abs(fd_half)) or abs(fd_half) < 1e-3:
            continue
        assert abs(sym - fd_half) <= 1e-5 * max(abs(sym), abs(fd_half))
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 500 and elapsed < 5.0
    report(6, ok, f"{checked}/500 trees checked in {elapsed:.2f} s")
    assert checked == 500
    assert elapsed < 5.0


def test_criterion_07_convergence_orders():
    exp = parse("exp(x)")
    unit = Interval(0.0, 1.0)
    exact = math.e - 1.0
    ratios = {}
    for name, rule in (("midpoint", midpoint), ("trapezoid", trapezoid), ("simpson", simpson)):
        e8 = abs(rule(exp, unit, 8) - exact)
        e16 = abs(rule(exp, unit, 16) - exact)
        ratios[name] = e8 / e16
    ok = (
        3.8 <= ratios["midpoint"] <= 4.2
        and 3.8 <= ratios["trapezoid"] <= 4.2
        and 14.0 <= ratios["simpson"] <= 18.0
    )
    report(7, ok, ", ".join(f"{k}: {v:.3f}" for k, v in ratios.items()))
    assert 3.8 <= ratios["midpoint"] <= 4.2
    assert 3.8 <= ratios["trapezoid"] <= 4.2
    assert 14.0 <= ratios["simpson"] <= 18.0


def test_criterion_08_tangent_intercept_identity():
    rng = random.Random(16180)
    checked = 0
    worst = 0.0
    while checked < 200:
        f_expr, coeffs = random_polynomial(rng)
        x = rng.uniform(-3.0, 3.0)
        if abs(poly_value(poly_derivative(coeffs), x)) <= 1e-6:
            continue
        step = newton_step(f_expr, differentiate(f_expr), x)
        residual = step.f_k + step.df_k * (step.x_next - step.x_k)
        if step.f_k != 0.0:
            worst = max(worst, abs(residual) / abs(step.f_k))
        assert abs(residual) <= 1e-12 * abs(step.f_k)
        checked += 1
    report(8, True, f"200 random (f, x); worst |f + f'*(x1-x)| / |f| = {worst:.2e}")


def test_criterion_09_guarded_limitations(capsys):
    code_constant = main(["integrate", "--expr", "0*x+1", "--lower", "0", "--upper", "1"])
    code_decreasing = main(["integrate", "--expr", "0-x", "--lower", "0", "--upper", "1"])
    capsys.readouterr()
    result = nr_integrate(QUAD, QUAD_INTERVAL, NrQuadSettings(tol_x=0.01, max_iter=1))
    ok = (
        code_constant == 3
        and code_decreasing == 2
        and result.status is QuadStatus.BUDGET_EXHAUSTED
        and len(result.areas) == 1
    )
    with capsys.disabled():
        report(
            9,
            ok,
            f"constant -> exit {code_constant}; non-monotone -> exit {code_decreasing}; "
            f"max_iter=1 -> {result.status.value} with {len(result.areas)} panel",
        )
    assert code_constant == 3
    assert code_decreasing == 2
    assert result.status is QuadStatus.BUDGET_EXHAUSTED
    assert len(result.areas) == 1


def test_criterion_10_golden_cli_outputs(capsys):
    argv = ["compare", "--expr", QUAD_SRC, "--lower", "-0.5", "--upper", "1"]
    proc = subprocess.run([sys.executable, "-m", "nrquad", *argv], capture_output=True, check=True)
    table_ok = proc.stdout == GOLDEN.read_bytes()

    assert main([*argv, "--format", "csv"]) == 0
    csv_out = capsys.readouterr().out
    assert main([*argv, "--format", "json"]) == 0
    json_out = capsys.readouterr().out

    reference = reference_integral(QUAD, QUAD_INTERVAL, tol=1e-10)
    expected = {
        "midpoint": midpoint(QUAD, QUAD_INTERVAL, 3),
        "trapezoid": trapezoid(QUAD, QUAD_INTERVAL, 3),
        "left-riemann": left_riemann(QUAD, QUAD_INTERVAL, 3),
        "right-riemann": right_riemann(QUAD, QUAD_INTERVAL, 3),
        "nr": nr_integrate(QUAD, QUAD_INTERVAL, NrQuadSettings()).value,
    }
    csv_ok = True
    for line in csv_out.strip().split("\n")[1:]:
        cells = line.split(",")
        if cells[1].startswith("error:"):
            continue
        stats = error_stats(expected[cells[0]], reference)
        if (float(cells[1]), float(cells[2]), float(cells[3])) != (
            expected[cells[0]],
            stats.abs_error,
            stats.rel_error_pct,
        ):
            csv_ok = False

    doc = json.loads(json_out)
    json_ok = json.loads(json.dumps(doc)) == doc and doc["reference"] == reference
    for row in doc["rows"]:
        if "error" in row:
            continue
        if row["value"] != expected[row["method"]]:
            json_ok = False

    ok = table_ok and csv_ok and json_ok
    with capsys.disabled():
        report(
            10,
            ok,
            f"table byte-for-byte: {table_ok}; csv bit round-trip: {csv_ok}; json bit round-trip: {json_ok}",
        )
    assert table_ok
    assert csv_ok
    assert json_ok
