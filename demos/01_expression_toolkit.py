"""Tour of the expression layer: parse, print, evaluate, differentiate, simplify.

Run:  python demos/01_expression_toolkit.py
"""

from nrquad import differentiate, evaluate, parse, simplify, to_text


def show(title):
    print()
    print(title)
    print("-" * len(title))


show("Parsing and evaluating")
for source in ("2*x^2+3*x+1", "5*x^5+4*x^4-3*x^3+2*x^2+4*x+1", "exp(x)-1", "sin(x)/x"):
    f = parse(source)
    print(f"  f(x) = {source}")
    for x in (0.5, 1.0, 2.0):
        print(f"    f({x}) = {evaluate(f, x):.6f}")

show("Symbolic derivatives (simplified for readability)")
for source in ("2*x^2+3*x+1", "x*sin(x)", "ln(x^2+1)", "sqrt(x)", "x^x"):
    df = differentiate(parse(source))
    print(f"  d/dx {source:<14} = {to_text(df)}")

show("Simplification is value-preserving only")
for source in ("0+x", "1*x+0*x", "2*3+x^1", "x/x"):
    print(f"  {source:<10} -> {to_text(simplify(parse(source)))}")
print("  (x/x is kept: collapsing it to 1 would change the domain at 0)")

show("Evaluation is total; trouble comes back as NaN")
for source, x in (("ln(x)", -1.0), ("sqrt(x)", -4.0), ("1/x", 0.0)):
    print(f"  {source} at {x} -> {evaluate(parse(source), x)}")

show("Parse errors carry character offsets")
for source in ("2x", "x+y", "sin(x, 1)"):
    try:
        parse(source)
    except ValueError as exc:
        print(f"  {source!r}: {exc}")
