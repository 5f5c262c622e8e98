"""Newton-Raphson iteration with a full audit trace, including the guard rails.

Run:  python demos/02_root_finding_trace.py
"""

from nrquad import StoppingCriteria, differentiate, newton_iterate, parse


def run_trace(source, x0, stop=None):
    f = parse(source)
    df = differentiate(f)
    trace = newton_iterate(f, df, x0, stop)
    print(f"f(x) = {source},  x0 = {x0}")
    print(f"  {'k':>2}  {'x_k':>12}  {'f(x_k)':>12}  {'f_prime(x_k)':>12}  {'step':>12}")
    for k, s in enumerate(trace.steps):
        print(f"  {k:>2}  {s.x_k:>12.8f}  {s.f_k:>12.8f}  {s.df_k:>12.8f}  {s.step:>12.8f}")
    print(f"  stopped: {trace.termination.value}, final_x = {trace.final_x!r}")
    print()
    return trace


print("A quintic with no radical solution; Newton gets the real root anyway")
run_trace("5*x^5+4*x^4-3*x^3+2*x^2+4*x+1", 0.0)

print("Quadratic convergence on a simple root (digits double each step)")
run_trace("x^3-1", 3.0)

print("A double root only converges linearly; a small budget runs out")
run_trace("x^2", 1.0, StoppingCriteria(target=0.0, tol_x=1e-12, tol_f=1e-30, tol_step=1e-30, max_iter=5))

print("A flat function cannot take a step at all")
run_trace("0*x+1", 0.0)

print("Stepping outside the domain is caught as a nonfinite value")
run_trace("sqrt(x)", 4.0)

print("With a target set, an overshooting step is clamped to it")
run_trace("x^2-1", 3.0, StoppingCriteria(target=1.5, tol_x=0.01))
