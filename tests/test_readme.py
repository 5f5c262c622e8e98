"""The README's quickstart runs, and the repository facts it quotes are the repository's.

Each ``code  # value`` line of the quickstart is checked against the value
its comment states: ``3.609969`` to the digits shown, ``3.201166...`` as a
prefix of the ``repr``.  Each module size the README quotes, as
`` `nrquad.name` (N lines`` or `` `nrquad/name.py` (N B``, is the file's.
The cost section's figures are those of the one ``BENCH_*.json`` it names,
of the call-event and ledger totals the tests pin, and of the counts
computed here; every module, name and file the README cites exists.
"""

import importlib
import inspect
import json
import math
import re
from itertools import takewhile
from pathlib import Path

import pytest
from support import count_scalar_calls, record_batches
from test_call_events import CALL_EVENTS
from test_imports import MAX_MODULE_BYTES
from test_ledger import LEDGER

import nrquad
from corpus import compare_corpus, integrate_corpus  # found through the path test_ledger adds
from nrquad import baselines
from nrquad.baselines import DepthLimitError, reference_integral
from nrquad.cli import main
from nrquad.expressions import MAX_DEPTH, ParseError, differentiate, evaluate, parse
from nrquad.quadrature import VALIDATION_SAMPLES, Interval, NrQuadSettings, nr_integrate

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
PACKAGE = Path(nrquad.__file__).parent


def cost_section():
    """The README's sections on cost: each heading that names it, down to the next heading at its level or above."""
    lines, level = [], 0
    for line in README.split("\n"):
        heading = re.match(r"(#+) ", line)
        if heading and (not level or len(heading[1]) <= level):
            level = len(heading[1]) if "cost" in line.lower() else 0
        if level:
            lines.append(line)
    assert lines, "no section on cost"
    return "\n".join(lines)


def lines_of(path):
    return len(path.read_text().splitlines())


def number(text):
    return int(text.replace(",", ""))


def quickstart():
    return README.split("## Library quickstart\n\n```python\n", 1)[1].split("```", 1)[0]


def test_the_quickstart_gives_the_values_its_comments_state():
    block = quickstart()
    names = {}
    exec(block, names)
    checked = {}
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        stated = re.match(r"\s*\(?(-?\d+\.\d+)(\.\.\.)?", comment)
        if not stated:
            continue
        value = eval(code, names)
        value = value[0] if isinstance(value, tuple) else value
        digits, truncated = stated.groups()
        decimals = len(digits.partition(".")[2])
        checked[code.strip()] = repr(value).startswith(digits) if truncated else f"{value:.{decimals}f}" == digits
    codes = ["result.value", "result.areas", "result.residual_gap", "reference_integral(f, interval)"]
    assert checked == dict.fromkeys(codes, True)
    (panels,) = re.findall(r"from exactly (\d+) panels", block)
    assert len(names["result"].areas) == int(panels)


def test_the_module_sizes_it_quotes_are_the_files():
    quoted = re.findall(r"`nrquad[./](\w+)(?:\.py)?`\s+\((\d[\d,]*) (lines|B)\b", README)
    assert {name for name, _, _ in quoted} >= {"baselines", "_enclosure", "cli"}
    for name, size, unit in quoted:
        path = PACKAGE / f"{name}.py"
        assert number(size) == (lines_of(path) if unit == "lines" else path.stat().st_size), name


def test_the_launch_line_counts_are_the_packages():
    # an integrate or trace launch compiles every module but nrquad.baselines and nrquad._usage, which tests/test_cli.py checks
    counts = r"counts ([\d,]+) lines, of which an `integrate` or\s+`trace` launch compiles ([\d,]+)"
    total, launch = re.search(counts, README).groups()
    lines = sum(lines_of(path) for path in PACKAGE.glob("*.py"))
    assert (number(total), number(launch)) == (lines, lines - lines_of(PACKAGE / "baselines.py") - lines_of(PACKAGE / "_usage.py"))


def test_the_largest_module_and_the_size_bound_are_as_quoted():
    sizes = {path.name: path.stat().st_size for path in PACKAGE.glob("*.py")}
    assert "The largest nrquad module is `nrquad/cli.py`" in README and max(sizes, key=sizes.get) == "cli.py"
    assert re.search(rf"grows past a fixed\s+{MAX_MODULE_BYTES:,} B", README)


def table(text, first):
    """The markdown table whose header starts with the cell ``first``: its header, and each row's cells by its first."""
    lines = takewhile(lambda line: line.startswith("|"), text[text.index(f"\n| {first} |") + 1 :].split("\n"))
    header, _, *body = [[cell.strip().strip("`") for cell in line.strip("|").split("|")] for line in lines]
    return header, {row[0]: row[1:] for row in body}


def test_the_cost_section_quotes_the_medians_of_one_benchmark_file():
    cost = cost_section()
    files = set(re.findall(r"BENCH_\w+\.json", cost))
    assert len(files) == 1, files
    bench = json.loads((ROOT / files.pop()).read_text())
    header, rows = table(cost, "workload")
    assert set(rows) == set(bench["workloads"])
    for workload, cells in rows.items():
        metrics = bench["workloads"][workload]["metrics"]
        assert set(header[1:]) == set(metrics)
        for metric, cell in zip(header[1:], cells):
            assert float(cell) == metrics[metric]["change"]["median"], (workload, metric)
    # the present cost only: no table compares a before with an after
    assert not re.search(r"^\|.*\b(before|after)\b.*\|$", cost, re.MULTILINE | re.IGNORECASE)


def test_the_call_events_are_the_pinned_totals():
    cost = cost_section()
    (version,) = re.findall(r"`tests/test_call_events.py`, Python (\d+)\.(\d+)\)", cost)
    pinned = CALL_EVENTS[tuple(map(int, version))]
    header, rows = table(cost, "phase")
    assert header[1:] == list(pinned)
    problems = [len(integrate_corpus(0)), len(compare_corpus(0))]
    assert [number(quoted) for quoted in re.findall(r"the ([\d,]+) problems of", cost)] == problems
    for column, (name, counts) in enumerate(pinned.items()):
        quoted = {phase: number(cells[column]) for phase, cells in rows.items() if phase in counts}
        assert quoted == counts, name
        assert {phase for phase, cells in rows.items() if cells[column]} == {*counts, "all", "per problem"}
        total = sum(counts.values())
        assert number(rows["all"][column]) == total
        assert rows["per problem"][column] == f"{total / problems[column]:,.1f}"


def test_the_evaluation_totals_are_the_ledgers():
    cost = cost_section()
    header, rows = table(cost, "total")
    assert header[1:] == list(LEDGER)
    for column, (name, totals) in enumerate(LEDGER.items()):
        assert {row: number(cells[column]) for row, cells in rows.items()} == totals, name


QUAD, QUAD_INTERVAL = parse("2*x^2+3*x+1"), Interval(-0.5, 1.0)


def calls_of(monkeypatch, run):
    with monkeypatch.context() as patch:
        calls = count_scalar_calls(patch)
        run()
        return calls[0]


def test_the_counts_on_single_problems(monkeypatch):
    cost = cost_section()

    def integrate(f, interval, validate=True):
        return calls_of(monkeypatch, lambda: nr_integrate(f, interval, NrQuadSettings(validate=validate)))

    assert re.search(r"or (\d+) samples where no proof is found", README)[1] == str(VALIDATION_SAMPLES)
    stated = re.search(r"takes (\d+) scalar evaluations: (\d+) for the Newton steps", cost).groups()
    assert tuple(map(int, stated)) == (integrate(QUAD, QUAD_INTERVAL), integrate(QUAD, QUAD_INTERVAL, False))
    assert re.search(r"proves f′ = 4x \+ 3 positive", cost)
    df = differentiate(QUAD)
    assert all(evaluate(df, x) == 4 * x + 3 for x in (-0.5, 0.0, 0.25, 1.0))
    sampled, total = map(int, re.search(r"it adds (\d+): `x\*sqrt\(x\)` on \[0, 1\] takes (\d+)", cost).groups())
    f, unit = parse("x*sqrt(x)"), Interval(0.0, 1.0)
    assert (sampled, total) == (VALIDATION_SAMPLES - 1, integrate(f, unit))
    assert total - integrate(f, unit, False) == sampled
    points = re.search(r"take (\d+)n \+ (\d+) points: n − 1 interior\s+nodes, n midpoints and four end nodes", cost)
    one_pass = re.search(r"A pass per rule would take\s+(\d+)n \+ (\d+)\.", cost)
    rules = ("left_riemann", "right_riemann", "midpoint", "trapezoid", "simpson")
    for n in (2, 3, 64):
        with monkeypatch.context() as patch:
            batches = record_batches(patch)
            baselines._grid_rules(QUAD, QUAD_INTERVAL, n, rules)
        assert batches == [4, n - 1, n]
        assert sum(batches) == int(points[1]) * n + int(points[2])
    for n in (2, 64):  # even, for simpson
        with monkeypatch.context() as patch:
            batches = record_batches(patch)
            for rule in rules:
                getattr(baselines, rule)(QUAD, QUAD_INTERVAL, n)
        assert sum(batches) == int(one_pass[1]) * n + int(one_pass[2])
    (smooth,) = re.findall(r"The reference takes (\d+) points for `sqrt\(x\)` on \[0, 1\]", cost)
    assert int(smooth) == calls_of(monkeypatch, lambda: reference_integral(parse("sqrt(x)"), unit))
    (failing,) = re.findall(r"`ln\(x\)` on \[−1, 1\] takes (\d+) points down the leftmost", cost)

    def fail():
        with pytest.raises(DepthLimitError):
            reference_integral(parse("ln(x)"), Interval(-1.0, 1.0))

    assert int(failing) == calls_of(monkeypatch, fail)


def cited_name_resolves(dotted):
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            found = getattr(found, part, None)
        return found is not None
    return False


def test_every_cited_name_and_file_exists():
    names = {span for span in re.findall(r"`([^`\n]+)`", README) if re.fullmatch(r"nrquad(\.\w+)+", span)}
    paths = set(re.findall(r"(?<![\w/.])((?:nrquad|tests|bench|demos)/[\w/.-]+\.\w+|BENCH_\w+\.json)", README))
    assert {"nrquad.baselines.CHUNK", "nrquad.cli.MAX_COUNT"} <= names
    assert {"tests/test_ledger.py", "bench/plain.py", "demos/04_method_comparison.py"} <= paths
    assert [name for name in sorted(names) if not cited_name_resolves(name)] == []
    assert [path for path in sorted(paths) if not (ROOT / path).exists() and not (ROOT / "src" / path).exists()] == []


def test_the_worked_example_and_the_accuracy_figures():
    result = nr_integrate(QUAD, QUAD_INTERVAL, NrQuadSettings(tol_x=0.01))
    _, rows = table(README, "k")
    printed = {
        str(k): [f"{value:.6f}".replace("-", "−") for value in (step.x_k, step.f_k, step.df_k, step.step, area)]
        for k, (step, area) in enumerate(zip(result.trace.steps, result.areas))
    }
    assert rows == printed
    assert f"stopping at `x₄ ≈ {result.trace.steps[-1].x_next:.5f}".replace("-", "−") in README
    exact = reference_integral(QUAD, QUAD_INTERVAL)
    excess = 100 * (result.value - exact) / exact
    sum_to = f"sum to\n**{result.value:.6f}** against the exact integral {exact!r} (relative error ≈ {excess:.2f}%)"
    assert sum_to in README
    assert f"≈ {excess:.2f}% high on the quadratic above" in README
    exp_excess = 100 * (nr_integrate(parse("exp(x)-1"), Interval(0.0, 1.0)).value / (math.e - 2) - 1)
    assert f"≈ {exp_excess:.2f}% high for\n  `eˣ − 1` on `[0, 1]`" in README
    # the closed form on x^k over [0, b], and how far nr_integrate is from it
    quoted = re.search(
        r"that is (\S+)% high at k = 1\.5, (\S+)% at k = 2 \(the\s+20/7 above\), (\S+)% at k = 3, and it tends to\s+"
        r"`\(1 \+ 1/e\)/\(2\(1 − 1/e\)\) − 1` ≈ (\S+)% as k grows",
        README,
    ).groups()
    excesses = [(1 + (1 - 1 / k) ** k) * (k + 1) / (2 * k * (1 - (1 - 1 / k) ** (k + 1))) - 1 for k in (1.5, 2.0, 3.0)]
    limit = (1 + 1 / math.e) / (2 * (1 - 1 / math.e)) - 1
    assert quoted == tuple(f"{100 * excess:.2f}" for excess in (*excesses, limit))
    assert f"(≈ {100 * excesses[1]:.2f}% high)" in README and excesses[1] == pytest.approx(20 / 7 / (8 / 3) - 1)
    gaps, settings = {}, NrQuadSettings(tol_x=1e-12, closing_triangle=True)
    for k in (1.5, 2.0, 3.0):
        q = 1.0 - 1.0 / k
        for b in (1.0, 2.0, 2.7):
            closed_form = b ** (k + 1) * (1.0 + q**k) / (2.0 * k * (1.0 - q ** (k + 1)))
            result = nr_integrate(parse(f"x^{k!r}"), Interval(0.0, b), settings)
            gaps[abs(result.value - closed_form) / closed_form] = k
    gap = max(gaps)
    assert f"(the measured gap is at most {gap:.1e}, at k = {gaps[gap]:g})" in README


def test_the_scope_notes_limits(capsys):
    assert re.search(r"expression trees at most\s+(\d+) levels deep", README)[1] == str(MAX_DEPTH)
    parse("+".join(["x"] * MAX_DEPTH))
    with pytest.raises(ParseError):
        parse("+".join(["x"] * (MAX_DEPTH + 1)))
    assert f"a sum of more than {MAX_DEPTH} terms, is a parse error" in README
    on = r"`(.+?)` over `\[(\S+), (\S+)\]`"
    stated = re.search(rf"`compare` on {on}, or on {on},\s+exits (\d)", README)
    for source, lower, upper in (stated.groups()[:3], stated.groups()[3:6]):
        assert main(["compare", "--expr", source, "--lower", lower, "--upper", upper]) == int(stated[7])
        assert f"adaptive bisection exceeded depth {baselines._MAX_DEPTH} on" in capsys.readouterr().err
    assert f"tolerance is absolute\n({inspect.signature(reference_integral).parameters['tol'].default!r})" in README
