"""The Newton-partition trapezoid rule, panel by panel.

The integral of an increasing f with its root at the lower limit a is
approximated by trapezoids whose partition points are the Newton iterates
from x0 = b down towards a.  Each panel's width is the Newton step
f(x_k)/f'(x_k) and its parallel sides are f at consecutive iterates.

Run:  python demos/03_newton_panel_quadrature.py
"""

from nrquad import Interval, NrQuadSettings, nr_integrate, parse, reference_integral, validate_problem

SOURCE = "2*x^2+3*x+1"
INTERVAL = Interval(-0.5, 1.0)

f = parse(SOURCE)

print(f"Integrand: {SOURCE} on [{INTERVAL.a}, {INTERVAL.b}]")
print()

report = validate_problem(f, INTERVAL)
print("Precondition checks (sampled):")
print(f"  nondecreasing on the interval: {report.monotone_increasing}")
print(f"  root at the lower limit:       {report.root_at_a}")
print(f"  positive derivative at b:      {report.derivative_positive_at_b}")
print()

result = nr_integrate(f, INTERVAL, NrQuadSettings(tol_x=0.01))
print("Panels at tol_x = 0.01 (stop once an iterate is within 0.01 of a):")
print(f"  {'k':>2}  {'x_k':>12}  {'width':>12}  {'area':>12}")
for k, (step, area) in enumerate(zip(result.trace.steps, result.areas)):
    print(f"  {k:>2}  {step.x_k:>12.6f}  {step.step:>12.6f}  {area:>12.6f}")
print(f"  value        = {result.value:.6f}")
print(f"  residual gap = {result.residual_gap:.6f}  (sliver left of the last iterate)")
print(f"  status       = {result.status.value}")
print()

reference = reference_integral(f, INTERVAL)
print(f"Reference integral (adaptive Simpson): {reference}")
print(f"Overshoot of the rule: {result.value - reference:+.6f}")
print("Every chord lies above a convex curve, so the rule overestimates;")
print("the panels near b are fixed by the Newton steps, so this excess")
print("does not shrink as the tolerance tightens:")
print()

print(f"  {'tol_x':>8}  {'panels':>6}  {'value':>10}  {'gap':>9}  {'value - reference':>18}")
for tol in (0.1, 0.01, 1e-4, 1e-6, 1e-8):
    r = nr_integrate(f, INTERVAL, NrQuadSettings(tol_x=tol, closing_triangle=True))
    print(f"  {tol:>8.0e}  {len(r.areas):>6}  {r.value:>10.6f}  {r.residual_gap:>9.2e}  {r.value - reference:>18.6f}")
print()

print("Where the rule is exact: straight lines through the root")
r = nr_integrate(parse("3*x"), Interval(0.0, 2.0), NrQuadSettings(closing_triangle=True))
print(f"  f(x) = 3*x on [0, 2]: value = {r.value} (exact 6.0) in {len(r.areas)} panel")
