"""Command-line front end: integrate, trace, and compare subcommands.

Exit status contract:
  0  result produced (status ok, clamped, or budget-exhausted)
  1  usage or expression parse error
  2  precondition validation failed
  3  iteration error (vanished derivative, nonfinite values) or a failed
     reference computation

Reports go to stdout; every error path prints one diagnostic line to
stderr.  Table output truncates percentages to 4 decimal places and
prints values with 6 decimals; CSV and JSON carry full shortest
round-trip precision.  JSON is strict (RFC 8259): a NaN or infinite
value is written as ``null``.
"""

from __future__ import annotations

import argparse
import math
import sys

from ._frozen import Frozen, set_field
from .baselines import (
    DepthLimitError,
    error_stats,
    left_riemann,
    midpoint,
    reference_integral,
    right_riemann,
    simpson,
    trapezoid,
)
from .expressions import Expression, parse
from .newton import NewtonError
from .quadrature import Interval, NrQuadSettings, QuadResult, ValidationError, nr_integrate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_ITERATION = 3

METHODS = ("nr", "midpoint", "trapezoid", "left-riemann", "right-riemann", "simpson")

_BASELINES = {
    "midpoint": midpoint,
    "trapezoid": trapezoid,
    "left-riemann": left_riemann,
    "right-riemann": right_riemann,
    "simpson": simpson,
}

REFERENCE_TOL = 1e-10

MAX_COUNT = 1_000_000
"""Largest ``--panels`` and ``--max-iter`` the CLI accepts; larger ones would run for seconds."""


class MethodRow(Frozen):
    """One comparison line; ``error`` is set instead of numbers on failure."""

    __slots__ = ("method", "value", "abs_error", "rel_error_pct", "settings", "error")

    def __init__(
        self,
        method: str,
        value: float | None,
        abs_error: float | None,
        rel_error_pct: float | None,
        settings: str,
        error: str | None = None,
    ) -> None:
        set_field(self, "method", method)
        set_field(self, "value", value)
        set_field(self, "abs_error", abs_error)
        set_field(self, "rel_error_pct", rel_error_pct)
        set_field(self, "settings", settings)
        set_field(self, "error", error)


class NrDetails(Frozen):
    __slots__ = ("panel_count", "residual_gap", "termination")

    def __init__(self, panel_count: int, residual_gap: float, termination: str) -> None:
        set_field(self, "panel_count", panel_count)
        set_field(self, "residual_gap", residual_gap)
        set_field(self, "termination", termination)


class ComparisonReport(Frozen):
    __slots__ = ("expression", "interval", "reference", "rows", "nr_details")

    def __init__(
        self,
        expression: str,
        interval: tuple[float, float],
        reference: float,
        rows: tuple[MethodRow, ...],
        nr_details: NrDetails | None,
    ) -> None:
        set_field(self, "expression", expression)
        set_field(self, "interval", interval)
        set_field(self, "reference", reference)
        set_field(self, "rows", rows)
        set_field(self, "nr_details", nr_details)


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
    compare.add_argument("--methods", nargs="+", choices=METHODS, default=list(METHODS), help="methods to run, in order")
    sub.add_parser("trace", parents=[common], help="emit the Newton iterate / panel records")
    return parser


def _fmt_value(value: float) -> str:
    return f"{value:.6f}"


def _fmt_pct(pct: float) -> str:
    if math.isnan(pct):
        return "nan"
    # truncate, do not round: 1.85185...% prints as 1.8518
    return f"{math.floor(pct * 10000.0) / 10000.0:.4f}"


def _aligned(rows: list[list[str]], left_columns: int = 1) -> list[str]:
    widths = [0] * max(len(row) for row in rows)
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    for row in rows:
        cells = [
            cell.ljust(widths[i]) if i < left_columns else cell.rjust(widths[i])
            for i, cell in enumerate(row)
        ]
        lines.append("  ".join(cells).rstrip())
    return lines


def _interval_text(interval: tuple[float, float]) -> str:
    return f"[{interval[0]!r}, {interval[1]!r}]"


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


def render_report(report: ComparisonReport, format: str) -> str:
    """Render a comparison report as table, csv, or json text."""
    if format == "csv":
        lines = ["method,value,abs_error,rel_error_pct"]
        for row in report.rows:
            if row.error is not None:
                marker = "error: " + row.error.replace(",", ";")
                lines.append(f"{row.method},{marker},,")
            else:
                lines.append(f"{row.method},{row.value!r},{row.abs_error!r},{row.rel_error_pct!r}")
        return "\n".join(lines)

    if format == "json":
        rows: list[dict[str, object]] = []
        for row in report.rows:
            if row.error is not None:
                rows.append({"method": row.method, "error": row.error, "settings": row.settings})
            else:
                rows.append(
                    {
                        "method": row.method,
                        "value": row.value,
                        "abs_error": row.abs_error,
                        "rel_error_pct": row.rel_error_pct,
                        "settings": row.settings,
                    }
                )
        details = None
        if report.nr_details is not None:
            details = {
                "panel_count": report.nr_details.panel_count,
                "residual_gap": report.nr_details.residual_gap,
                "termination": report.nr_details.termination,
            }
        doc = {
            "expression": report.expression,
            "interval": list(report.interval),
            "reference": report.reference,
            "rows": rows,
            "nr_details": details,
        }
        return _json_text(doc)

    # table
    lines = [
        f"expression: {report.expression}",
        f"interval:   {_interval_text(report.interval)}",
        f"reference:  {report.reference!r}",
        "",
    ]
    name_width = max(len(row.method) for row in report.rows) if report.rows else 0
    numeric = [
        [_fmt_value(row.value), _fmt_value(row.abs_error), _fmt_pct(row.rel_error_pct)]
        for row in report.rows
        if row.error is None
    ]
    widths = [max(len(r[i]) for r in numeric) for i in range(3)] if numeric else [0, 0, 0]
    for row in report.rows:
        if row.error is not None:
            lines.append(f"{row.method.ljust(name_width)}  error: {row.error}".rstrip())
        else:
            cells = [_fmt_value(row.value), _fmt_value(row.abs_error), _fmt_pct(row.rel_error_pct)]
            padded = "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))
            lines.append(f"{row.method.ljust(name_width)}  {padded}".rstrip())
    if report.nr_details is not None:
        d = report.nr_details
        lines.append("")
        lines.append(f"nr: panels={d.panel_count}  residual_gap={d.residual_gap!r}  termination={d.termination}")
    return "\n".join(lines)


def _render_integrate(expr_text: str, interval: Interval, result: QuadResult, format: str) -> str:
    if format == "csv":
        lines = ["value,closing_area,residual_gap,status,panel_count,termination"]
        lines.append(
            f"{result.value!r},{result.closing_area!r},{result.residual_gap!r},"
            f"{result.status.value},{len(result.panels)},{result.trace.termination.value}"
        )
        return "\n".join(lines)

    if format == "json":
        doc = {
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
        return _json_text(doc)

    lines = [
        f"expression:   {expr_text}",
        f"interval:     {_interval_text((interval.a, interval.b))}",
        f"value:        {result.value!r}",
        f"status:       {result.status.value}",
        f"panels:       {len(result.panels)}",
        f"closing_area: {result.closing_area!r}",
        f"residual_gap: {result.residual_gap!r}",
        f"termination:  {result.trace.termination.value}",
        "",
    ]
    cells = [["k", "x_k", "width", "area"]]
    for k, panel in enumerate(result.panels):
        cells.append([str(k), _fmt_value(panel.x_k), _fmt_value(panel.width), _fmt_value(panel.area)])
    lines.extend(_aligned(cells))
    return "\n".join(lines)


def _render_trace(expr_text: str, interval: Interval, result: QuadResult, format: str) -> str:
    steps = result.trace.steps
    if format == "csv":
        lines = ["index,x_k,f_k,df_k,step,area"]
        for i, s in enumerate(steps):
            lines.append(f"{i},{s.x_k!r},{s.f_k!r},{s.df_k!r},{s.step!r},{result.panels[i].area!r}")
        return "\n".join(lines)

    if format == "json":
        doc = {
            "expression": expr_text,
            "interval": [interval.a, interval.b],
            "steps": [
                {
                    "index": i,
                    "x_k": s.x_k,
                    "f_k": s.f_k,
                    "df_k": s.df_k,
                    "step": s.step,
                    "area": result.panels[i].area,
                }
                for i, s in enumerate(steps)
            ],
            "termination": result.trace.termination.value,
        }
        return _json_text(doc)

    lines = [
        f"expression:  {expr_text}",
        f"interval:    {_interval_text((interval.a, interval.b))}",
        f"termination: {result.trace.termination.value}",
        "",
    ]
    cells = [["index", "x_k", "f_k", "df_k", "step", "area"]]
    for i, s in enumerate(steps):
        cells.append(
            [
                str(i),
                _fmt_value(s.x_k),
                _fmt_value(s.f_k),
                _fmt_value(s.df_k),
                _fmt_value(s.step),
                _fmt_value(result.panels[i].area),
            ]
        )
    lines.extend(_aligned(cells))
    return "\n".join(lines)


def _run_compare(
    f: Expression,
    expr_text: str,
    interval: Interval,
    settings: NrQuadSettings,
    panels: int,
    methods: list[str],
    format: str,
) -> int:
    reference = reference_integral(f, interval, tol=REFERENCE_TOL)
    rows: list[MethodRow] = []
    nr_details: NrDetails | None = None
    # method names are unique within a report; keep first occurrences
    for method in dict.fromkeys(methods):
        if method == "nr":
            summary = f"tol_x={settings.tol_x!r}"
            if settings.closing_triangle:
                summary += " closing-triangle"
            try:
                result = nr_integrate(f, interval, settings)
            except (ValidationError, NewtonError) as exc:
                rows.append(MethodRow(method, None, None, None, summary, error=str(exc)))
                continue
            stats = error_stats(result.value, reference)
            rows.append(MethodRow(method, stats.approx, stats.abs_error, stats.rel_error_pct, summary))
            nr_details = NrDetails(len(result.panels), result.residual_gap, result.trace.termination.value)
        else:
            summary = f"n={panels}"
            try:
                value = _BASELINES[method](f, interval, panels)
            except ValueError as exc:
                rows.append(MethodRow(method, None, None, None, summary, error=str(exc)))
                continue
            stats = error_stats(value, reference)
            rows.append(MethodRow(method, stats.approx, stats.abs_error, stats.rel_error_pct, summary))
    report = ComparisonReport(expr_text, (interval.a, interval.b), reference, tuple(rows), nr_details)
    print(render_report(report, format))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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
        if args.command == "integrate":
            result = nr_integrate(f, interval, settings)
            print(_render_integrate(args.expr, interval, result, args.format))
            return EXIT_OK
        if args.command == "trace":
            result = nr_integrate(f, interval, settings)
            print(_render_trace(args.expr, interval, result, args.format))
            return EXIT_OK
        return _run_compare(f, args.expr, interval, settings, args.panels, args.methods, args.format)
    except ValidationError as exc:
        print(f"error: validation failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NewtonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ITERATION
    except DepthLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ITERATION


if __name__ == "__main__":
    sys.exit(main())
