"""Command-line front end: integrate, trace, and compare subcommands.

Each command builds one plain document, the dict that ``--format json``
prints; :func:`render` derives the table and CSV views from the same
document.

Exit status contract:
  0    result produced (status ok, clamped, or budget-exhausted)
  1    usage or expression parse error
  2    precondition validation failed
  3    iteration error (vanished derivative, nonfinite values) or a failed
       reference computation
  4    the report could not be written to stdout (a full disk, say)
  141  stdout was closed before the report was written (128 + SIGPIPE)

The command line is read from one option table, ``_COMMANDS``, by
:func:`nrquad._argv.parse_argv`, which gives argparse's usage messages
without importing argparse; ``-h`` prints help built from the same table
and exits 0.

Reports go to stdout; every error path prints one diagnostic line to
stderr, and a closed stdout prints nothing.  Table output prints values
with 6 decimals and truncates percentages to 4, each in ``repr`` form
from 1e16 up; CSV and JSON carry full shortest round-trip precision.
JSON is strict (RFC 8259): a NaN or infinite value is written as
``null``.
"""

from __future__ import annotations

import math
import os
import sys
from collections.abc import Sequence

from ._argv import REQUIRED, UsageError, parse_argv
from .expressions import Expression, parse
from .newton import NewtonError
from .quadrature import Interval, NrQuadSettings, QuadResult, ValidationError, nr_integrate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_ITERATION = 3
EXIT_WRITE = 4

METHODS = ("nr", "midpoint", "trapezoid", "left-riemann", "right-riemann", "simpson")

MAX_COUNT = 1_000_000
"""Largest ``--panels`` and ``--max-iter`` the CLI accepts; larger ones would run for seconds."""


def _count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None
    if value > MAX_COUNT:
        raise ValueError(f"must be at most {MAX_COUNT}, got {value}")
    return value


def _real(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"invalid float value: {text!r}") from None


# each option: its default, how its value is read (see parse_argv) and its help
_COMMON = {
    "--expr": (REQUIRED, str, "integrand f(x), e.g. '2*x^2+3*x+1'"),
    "--lower": (REQUIRED, _real, "lower limit a (where the root lies)"),
    "--upper": (REQUIRED, _real, "upper limit b (the Newton start point)"),
    "--tol-x": (1e-6, _real, "stop when |x_next - a| <= tol-x"),
    "--tol-f": (None, _real, "stop when |f(x_next)| <= tol-f (default: scale-aware)"),
    "--max-iter": (100, _count, "iteration budget"),
    "--closing-triangle": (False, None, "cover the [a, x_last] sliver with a triangle"),
    "--no-validate": (False, None, "skip the precondition checks"),
    "--format": ("table", ("table", "csv", "json"), "report format"),
}
_COMMANDS = {
    "integrate": ("run the Newton-partition rule", _COMMON),
    "compare": (
        "compare methods against a reference integral",
        {
            **_COMMON,
            "--panels": (3, _count, "subinterval count for the baseline rules"),
            "--methods": (METHODS, list(METHODS), "methods to run, in order"),
        },
    ),
    "trace": ("emit the Newton iterate / panel records", _COMMON),
}


def _fmt_value(value: float) -> str:
    return f"{value:.6f}" if abs(value) < 1e16 else repr(value)


def _fmt_pct(pct: float) -> str:
    if not pct < 1e16:  # NaN, or repr form from 1e16 up, as _fmt_value
        return repr(pct)
    # truncate, do not round: 1.85185...% prints as 1.8518
    return f"{math.floor(pct * 10000.0) / 10000.0:.4f}"


def _json_text(doc: dict[str, object]) -> str:
    import json  # only the json format pays for this import

    return json.dumps(_finite_or_null(doc), indent=2, allow_nan=False)


def _finite_or_null(value: object) -> object:
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(item) for item in value]
    return value


def _table(header: list[tuple[str, object]], rows: list[list[str]], columns: int, footer: str | None = None) -> str:
    """Padded ``key: value`` header lines, a blank line, then ``rows`` in aligned columns.

    The first column is left-aligned and the others right-aligned.  A row of
    fewer than ``columns`` cells (an error row) aligns its first cell only;
    the rest follows as written and sets no column width.  A ``footer``
    follows after a blank line.
    """
    pad = max(len(key) for key, _ in header) + 1
    lines = [f"{key + ':':<{pad}} {value}" for key, value in header]
    lines.append("")
    widths = [0] * columns
    for row in rows:
        for i, cell in enumerate(row if len(row) == columns else row[:1]):
            widths[i] = max(widths[i], len(cell))
    for row in rows:
        cells = [row[0].ljust(widths[0])]
        if len(row) == columns:
            cells += [cell.rjust(width) for cell, width in zip(row[1:], widths[1:])]
        else:
            cells += row[1:]
        lines.append("  ".join(cells).rstrip())
    if footer is not None:
        lines += ["", footer]
    return "\n".join(lines)


def render(command: str, doc: dict[str, object], format: str) -> str:
    """Write the document a command built as ``table``, ``csv`` or ``json`` text.

    JSON prints the document itself.  For CSV and the table, each command
    gives a header, column titles and rows; both print a value with ``str``
    (a float's ``repr``), but table cells use :func:`_fmt_value` or
    :func:`_fmt_pct`.  Golden bytes keep three views apart: ``integrate``'s
    CSV is one summary row; ``compare``'s table has no title row and ends
    with the ``nr:`` footer; and its error row is short, so that in CSV it
    ends in empty cells, each ``,`` written ``;``.
    """
    if format == "json":
        return _json_text(doc)
    header = [("expression", doc["expression"]), ("interval", "[{!r}, {!r}]".format(*doc["interval"]))]
    if command == "compare":
        header.append(("reference", doc["reference"]))
        titles = ["method", "value", "abs_error", "rel_error_pct"]
        rows = [
            [row["method"], "error: " + row["error"]] if "error" in row else [row[title] for title in titles]
            for row in doc["rows"]
        ]
    elif command == "integrate" and format == "csv":
        titles = ["value", "closing_area", "residual_gap", "status", "panel_count", "termination"]
        rows = [[*[doc[title] for title in titles[:4]], len(doc["panels"]), doc["trace"]["termination"]]]
    elif command == "integrate":
        header += [("value", doc["value"]), ("status", doc["status"]), ("panels", len(doc["panels"]))]
        header += [("closing_area", doc["closing_area"]), ("residual_gap", doc["residual_gap"])]
        header.append(("termination", doc["trace"]["termination"]))
        titles = ["k", "x_k", "width", "area"]
        rows = [[k, panel["x_k"], panel["width"], panel["area"]] for k, panel in enumerate(doc["panels"])]
    else:
        header.append(("termination", doc["termination"]))
        titles = ["index", "x_k", "f_k", "df_k", "step", "area"]
        rows = [[step[title] for title in titles] for step in doc["steps"]]

    if format == "csv":
        lines = [",".join(str(cell).replace(",", ";") for cell in row) + "," * (len(titles) - len(row)) for row in rows]
        return "\n".join([",".join(titles), *lines])
    nr = doc.get("nr_details")  # None unless compare's nr succeeded
    footer = nr and f"nr: panels={nr['panel_count']}  residual_gap={nr['residual_gap']!r}  termination={nr['termination']}"
    formats = [str, *[_fmt_pct if title.endswith("_pct") else _fmt_value for title in titles[1:]]]
    if command != "compare":
        rows.insert(0, titles)
    cells = [[cell if type(cell) is str else fmt(cell) for fmt, cell in zip(formats, row)] for row in rows]
    return _table(header, cells, len(titles), footer)


def _compare_doc(
    f: Expression, expr_text: str, interval: Interval, settings: NrQuadSettings, panels: int, methods: Sequence[str]
) -> dict[str, object]:
    from .baselines import _grid_rules, error_stats, reference_integral
    reference = reference_integral(f, interval)
    # the baseline methods, by the name of their rule, run in one pass over the grid
    rules = [method.replace("-", "_") for method in methods if method != "nr"]
    outcomes = _grid_rules(f, interval, panels, rules)  # a value, or the error the rule raised
    nr_details = None
    if "nr" in methods:
        try:
            result = nr_integrate(f, interval, settings)
        except (ValidationError, NewtonError) as exc:
            outcomes["nr"] = exc
        else:
            outcomes["nr"] = result.value
            termination = result.trace.termination.value
            nr_details = {"panel_count": len(result.areas), "residual_gap": result.residual_gap, "termination": termination}
    nr_settings = f"tol_x={settings.tol_x!r}" + (" closing-triangle" if settings.closing_triangle else "")
    rows = []
    # method names are unique within a report; keep first occurrences
    for method in dict.fromkeys(methods):
        row = {"method": method}
        value = outcomes[method.replace("-", "_")]
        if isinstance(value, Exception):
            row["error"] = str(value)
        else:
            stats = error_stats(value, reference)
            row.update(value=stats.approx, abs_error=stats.abs_error, rel_error_pct=stats.rel_error_pct)
        row["settings"] = nr_settings if method == "nr" else f"n={panels}"
        rows.append(row)
    return {
        "expression": expr_text,
        "interval": [interval.a, interval.b],
        "reference": reference,
        "rows": rows,
        "nr_details": nr_details,
    }


def _integrate_doc(expr_text: str, interval: Interval, result: QuadResult) -> dict[str, object]:
    steps = result.trace.steps
    return {
        "expression": expr_text,
        "interval": [interval.a, interval.b],
        "value": result.value,
        "panels": [{"x_k": s.x_k, "width": s.step, "area": area} for s, area in zip(steps, result.areas)],
        "closing_area": result.closing_area,
        "residual_gap": result.residual_gap,
        "status": result.status.value,
        "trace": {
            "steps": [
                {"x_k": s.x_k, "f_k": s.f_k, "df_k": s.df_k, "step": s.step, "x_next": s.x_next}
                for s in steps
            ],
            "termination": result.trace.termination.value,
            "final_x": result.trace.final_x,
        },
    }


def _trace_doc(expr_text: str, interval: Interval, result: QuadResult) -> dict[str, object]:
    return {
        "expression": expr_text,
        "interval": [interval.a, interval.b],
        "steps": [
            {"index": i, "x_k": s.x_k, "f_k": s.f_k, "df_k": s.df_k, "step": s.step, "area": area}
            for i, (s, area) in enumerate(zip(result.trace.steps, result.areas))
        ],
        "termination": result.trace.termination.value,
    }


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_argv(
            sys.argv[1:] if argv is None else argv, "Trapezoid quadrature on Newton-Raphson partitions.", _COMMANDS
        )
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if "usage" in args:  # -h
        return _write(args["usage"])

    command, expr = args["command"], args["expr"]
    try:
        f = parse(expr)
        interval = Interval(args["lower"], args["upper"])
        settings = NrQuadSettings(args["tol_x"], args["tol_f"], args["max_iter"], args["closing_triangle"], not args["no_validate"])
    except ValueError as exc:  # includes ParseError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        if command == "compare":
            from .baselines import DepthLimitError  # only compare loads baselines
            doc = _compare_doc(f, expr, interval, settings, args["panels"], args["methods"])
        else:
            DepthLimitError = NewtonError
            result = nr_integrate(f, interval, settings)
            doc = (_integrate_doc if command == "integrate" else _trace_doc)(expr, interval, result)
    except ValidationError as exc:
        print(f"error: validation failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NewtonError, DepthLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ITERATION
    return _write(render(command, doc, args["format"]))


def _write(text: str) -> int:
    """Print ``text`` to stdout: ``EXIT_OK``, or the status of a failed write."""
    try:
        print(text)
        sys.stdout.flush()
    except OSError as exc:
        _discard_stdout()
        if isinstance(exc, BrokenPipeError):
            return 141  # 128 + SIGPIPE, the status a shell reports for a writer killed by a closed pipe
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return EXIT_WRITE
    return EXIT_OK


def _discard_stdout() -> None:
    """Point stdout's descriptor at devnull, so the flush at exit cannot fail again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):
        return  # not backed by a descriptor, so nothing is flushed to one at exit
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
