"""The README's quickstart runs, and the repository facts it quotes are the repository's.

Each ``code  # value`` line of the quickstart is checked against the value
its comment states: ``3.609969`` to the digits shown, ``3.201166...`` as a
prefix of the ``repr``.  Each module size the README quotes, as
`` `nrquad.name` (N lines`` or `` `nrquad/name.py` (N B``, is the file's.
"""

import re
from pathlib import Path

import nrquad
from test_imports import MAX_MODULE_BYTES

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
PACKAGE = Path(nrquad.__file__).parent


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
