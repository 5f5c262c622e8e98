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

Reports go to stdout; every error path prints one diagnostic line to
stderr, and a closed stdout prints nothing.  Table output truncates
percentages to 4 decimal places and prints values with 6 decimals; CSV
and JSON carry full shortest round-trip precision.  JSON is strict
(RFC 8259): a NaN or infinite value is written as ``null``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections.abc import Sequence

from .baselines import DepthLimitError, _grid_rules, _reference_integral, error_stats
from .expressions import Expression, _Compiled, parse
from .newton import NewtonError
from .quadrature import Interval, NrQuadSettings, QuadResult, ValidationError, _nr_integrate, nr_integrate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_ITERATION = 3
EXIT_WRITE = 4

METHODS = ("nr", "midpoint", "trapezoid", "left-riemann", "right-riemann", "simpson")

REFERENCE_TOL = 1e-10

MAX_COUNT = 1_000_000
"""Largest ``--panels`` and ``--max-iter`` the CLI accepts; larger ones would run for seconds."""


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _ArgumentError(message)


def _count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value > MAX_COUNT:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_COUNT}, got {value}")
    return value


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--expr", required=True, help="integrand f(x), e.g. '2*x^2+3*x+1'")
    common.add_argument("--lower", type=float, required=True, help="lower limit a (where the root lies)")
    common.add_argument("--upper", type=float, required=True, help="upper limit b (the Newton start point)")
    common.add_argument("--tol-x", type=float, default=1e-6, help="stop when |x_next - a| <= tol-x")
    common.add_argument("--tol-f", type=float, default=None, help="stop when |f(x_next)| <= tol-f (default: scale-aware)")
    common.add_argument("--max-iter", type=_count, default=100, help="iteration budget")
    common.add_argument("--closing-triangle", action="store_true", help="cover the [a, x_last] sliver with a triangle")
    common.add_argument("--no-validate", action="store_true", help="skip the sampled precondition checks")
    common.add_argument("--format", choices=("table", "csv", "json"), default="table")

    parser = _Parser(prog="nrquad", description="Trapezoid quadrature on Newton-Raphson partitions.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("integrate", parents=[common], help="run the Newton-partition rule")
    compare = sub.add_parser("compare", parents=[common], help="compare methods against a reference integral")
    compare.add_argument("--panels", type=_count, default=3, help="subinterval count for the baseline rules")
    compare.add_argument("--methods", nargs="+", choices=METHODS, default=METHODS, help="methods to run, in order")
    sub.add_parser("trace", parents=[common], help="emit the Newton iterate / panel records")
    return parser


_PARSER = _build_parser()  # parse_args leaves a parser as it was, so every call shares one


def _fmt_value(value: float) -> str:
    return f"{value:.6f}"


def _fmt_pct(pct: float) -> str:
    if math.isnan(pct):
        return "nan"
    # truncate, do not round: 1.85185...% prints as 1.8518
    return f"{math.floor(pct * 10000.0) / 10000.0:.4f}"


def _json_text(doc: dict[str, object]) -> str:
    """Strict JSON (RFC 8259): NaN and infinities are written as ``null``."""
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


def _table(header: list[tuple[str, str]], rows: list[list[str]], columns: int, footer: str | None = None) -> str:
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

    JSON prints the document itself; CSV and the table are views of it.
    """
    if format == "json":
        return _json_text(doc)
    interval = "[{!r}, {!r}]".format(*doc["interval"])
    if command == "compare":
        if format == "csv":
            lines = ["method,value,abs_error,rel_error_pct"]
            for row in doc["rows"]:
                if "error" in row:
                    lines.append(f"{row['method']},error: {row['error'].replace(',', ';')},,")
                else:
                    lines.append(f"{row['method']},{row['value']!r},{row['abs_error']!r},{row['rel_error_pct']!r}")
            return "\n".join(lines)
        cells = [
            [row["method"], "error: " + row["error"]]
            if "error" in row
            else [row["method"], _fmt_value(row["value"]), _fmt_value(row["abs_error"]), _fmt_pct(row["rel_error_pct"])]
            for row in doc["rows"]
        ]
        nr = doc["nr_details"]  # None when nr did not run or failed
        footer = nr and f"nr: panels={nr['panel_count']}  residual_gap={nr['residual_gap']!r}  termination={nr['termination']}"
        header = [("expression", doc["expression"]), ("interval", interval), ("reference", repr(doc["reference"]))]
        return _table(header, cells, 4, footer)

    if command == "integrate":
        termination = doc["trace"]["termination"]
        if format == "csv":
            return (
                "value,closing_area,residual_gap,status,panel_count,termination\n"
                f"{doc['value']!r},{doc['closing_area']!r},{doc['residual_gap']!r},"
                f"{doc['status']},{len(doc['panels'])},{termination}"
            )
        header = [
            ("expression", doc["expression"]),
            ("interval", interval),
            ("value", repr(doc["value"])),
            ("status", doc["status"]),
            ("panels", str(len(doc["panels"]))),
            ("closing_area", repr(doc["closing_area"])),
            ("residual_gap", repr(doc["residual_gap"])),
            ("termination", termination),
        ]
        keys = ("x_k", "width", "area")
        cells = [["k", *keys]]
        cells += [[str(k), *[_fmt_value(panel[key]) for key in keys]] for k, panel in enumerate(doc["panels"])]
        return _table(header, cells, 4)

    keys = ("x_k", "f_k", "df_k", "step", "area")
    if format == "csv":
        lines = ["index," + ",".join(keys)]
        lines += [",".join([str(s["index"]), *[repr(s[key]) for key in keys]]) for s in doc["steps"]]
        return "\n".join(lines)
    header = [("expression", doc["expression"]), ("interval", interval), ("termination", doc["termination"])]
    cells = [["index", *keys]]
    cells += [[str(s["index"]), *[_fmt_value(s[key]) for key in keys]] for s in doc["steps"]]
    return _table(header, cells, 6)


def _compare_doc(
    f: Expression, expr_text: str, interval: Interval, settings: NrQuadSettings, panels: int, methods: Sequence[str]
) -> dict[str, object]:
    f = _Compiled(f)  # one scalar closure and one kernel for the reference, the rules and nr
    reference = _reference_integral(f, interval, tol=REFERENCE_TOL)
    # the baseline methods, by the name of their rule, run in one pass over the grid
    rules = {method: method.replace("-", "_") for method in methods if method != "nr"}
    outcomes = _grid_rules(f, interval, panels, rules.values())
    rows: list[dict[str, object]] = []
    nr_details = None
    # method names are unique within a report; keep first occurrences
    for method in dict.fromkeys(methods):
        if method == "nr":
            summary = f"tol_x={settings.tol_x!r}"
            if settings.closing_triangle:
                summary += " closing-triangle"
            try:
                result = _nr_integrate(f, interval, settings)
            except (ValidationError, NewtonError) as exc:
                rows.append({"method": method, "error": str(exc), "settings": summary})
                continue
            value = result.value
            nr_details = {
                "panel_count": len(result.panels),
                "residual_gap": result.residual_gap,
                "termination": result.trace.termination.value,
            }
        else:
            summary = f"n={panels}"
            value = outcomes[rules[method]]
            if isinstance(value, ValueError):
                rows.append({"method": method, "error": str(value), "settings": summary})
                continue
        stats = error_stats(value, reference)
        numbers = {"value": stats.approx, "abs_error": stats.abs_error, "rel_error_pct": stats.rel_error_pct}
        rows.append({"method": method, **numbers, "settings": summary})
    return {
        "expression": expr_text,
        "interval": [interval.a, interval.b],
        "reference": reference,
        "rows": rows,
        "nr_details": nr_details,
    }


def _integrate_doc(expr_text: str, interval: Interval, result: QuadResult) -> dict[str, object]:
    return {
        "expression": expr_text,
        "interval": [interval.a, interval.b],
        "value": result.value,
        "panels": [{"x_k": p.x_k, "width": p.width, "area": p.area} for p in result.panels],
        "closing_area": result.closing_area,
        "residual_gap": result.residual_gap,
        "status": result.status.value,
        "trace": {
            "steps": [
                {"x_k": s.x_k, "f_k": s.f_k, "df_k": s.df_k, "step": s.step, "x_next": s.x_next}
                for s in result.trace.steps
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
            {"index": i, "x_k": s.x_k, "f_k": s.f_k, "df_k": s.df_k, "step": s.step, "area": panel.area}
            for i, (s, panel) in enumerate(zip(result.trace.steps, result.panels))
        ],
        "termination": result.trace.termination.value,
    }


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except _ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        f = parse(args.expr)
        interval = Interval(args.lower, args.upper)
        settings = NrQuadSettings(
            tol_x=args.tol_x,
            tol_f=args.tol_f,
            max_iter=args.max_iter,
            closing_triangle=args.closing_triangle,
            validate=not args.no_validate,
        )
    except ValueError as exc:  # includes ParseError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        if args.command == "compare":
            doc = _compare_doc(f, args.expr, interval, settings, args.panels, args.methods)
        else:
            result = nr_integrate(f, interval, settings)
            doc = (_integrate_doc if args.command == "integrate" else _trace_doc)(args.expr, interval, result)
    except ValidationError as exc:
        print(f"error: validation failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NewtonError, DepthLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ITERATION

    text = render(args.command, doc, args.format)
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
