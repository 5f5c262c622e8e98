"""CLI contract tests: exit statuses, formats, round trips, golden output."""

import errno
import io
import json
import math
import os
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

import nrquad
import nrquad.cli
import nrquad.expressions
from nrquad.baselines import error_stats, left_riemann, midpoint, reference_integral, right_riemann, trapezoid
from nrquad.cli import MAX_COUNT, main, render
from nrquad.expressions import parse
from nrquad.quadrature import Interval, NrQuadSettings, nr_integrate

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = GOLDEN_DIR / "compare_worked_example.txt"
README = Path(__file__).resolve().parent.parent / "README.md"

EXAMPLE = ["--expr", "2*x^2+3*x+1", "--lower", "-0.5", "--upper", "1"]
NONFINITE_NODE = ["--expr", "sin(x)/x", "--lower", "-1", "--upper", "2", "--panels", "3", "--no-validate"]

# golden stdout, one file per case and format: tests/golden/<case>.<extension>
GOLDEN_CASES = {
    "compare_worked_example": ["compare", *EXAMPLE],
    "integrate_worked_example": ["integrate", *EXAMPLE],
    "trace_worked_example": ["trace", *EXAMPLE],
    # the precondition check fails, so nr is an error row and there is no nr footer
    "compare_nr_error": ["compare", "--expr", "x^2-1", "--lower", "0", "--upper", "2"],
    # the reference is 0, so every relative error is nan (null in JSON)
    "compare_zero_reference": ["compare", "--expr", "x", "--lower", "-1", "--upper", "1", "--no-validate"],
    "integrate_clamped": ["integrate", "--expr", "ln(x+1)", "--lower", "0", "--upper", "2"],
    # the node at 0 is NaN, so left, right and trapezoid are error rows; simpson's n is odd
    "compare_nonfinite_node": ["compare", *NONFINITE_NODE],
    "compare_nonfinite_node_subset": ["compare", *NONFINITE_NODE, "--methods", "simpson", "left-riemann"],
    # one panel: each rule samples only the interval's ends or its middle
    "compare_one_panel": ["compare", *EXAMPLE, "--panels", "1"],
}
GOLDEN_EXTENSIONS = {"table": "txt", "csv": "csv", "json": "json"}


def strict_json(text):
    """Parse as RFC 8259 does: NaN and Infinity tokens are errors."""

    def reject(token):
        raise ValueError(f"{token} is not a JSON value")

    return json.loads(text, parse_constant=reject)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("format", GOLDEN_EXTENSIONS)
@pytest.mark.parametrize("case", GOLDEN_CASES)
def test_output_matches_golden_bytes(case, format, capsys):
    code, out, err = run([*GOLDEN_CASES[case], "--format", format], capsys)
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN_DIR / f"{case}.{GOLDEN_EXTENSIONS[format]}").read_bytes()


def test_readme_compare_block_matches_golden():
    text = README.read_text(encoding="utf-8")
    block = text.split("`compare` on the worked example prints:\n\n```\n", 1)[1].split("```", 1)[0]
    assert block.encode() == GOLDEN.read_bytes()


class TestExitStatuses:
    def test_integrate_ok(self, capsys):
        code, out, err = run(["integrate", *EXAMPLE, "--tol-x", "0.01"], capsys)
        assert code == 0
        assert err == ""
        assert "status:       ok" in out
        assert "panels:       4" in out

    def test_identity_single_panel(self, capsys):
        code, out, _ = run(["integrate", "--expr", "x", "--lower", "0", "--upper", "1"], capsys)
        assert code == 0
        assert "value:        0.5" in out
        assert "panels:       1" in out

    def test_parse_error_exits_1(self, capsys):
        code, out, err = run(["integrate", "--expr", "2x", "--lower", "0", "--upper", "1"], capsys)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert "error:" in err

    def test_bad_interval_exits_1(self, capsys):
        code, _, err = run(["integrate", "--expr", "x", "--lower", "2", "--upper", "1"], capsys)
        assert code == 1
        assert "a < b" in err

    def test_missing_argument_exits_1(self, capsys):
        code, _, err = run(["integrate", "--expr", "x", "--lower", "0"], capsys)
        assert code == 1
        assert "error:" in err

    def test_unknown_flag_exits_1(self, capsys):
        code, _, err = run(["integrate", *EXAMPLE, "--bogus"], capsys)
        assert code == 1

    def test_bad_tolerance_exits_1(self, capsys):
        code, _, err = run(["integrate", *EXAMPLE, "--tol-x", "-1"], capsys)
        assert code == 1
        assert "tol_x" in err

    def test_validation_failure_exits_2(self, capsys):
        code, out, err = run(["integrate", "--expr", "0-x", "--lower", "0", "--upper", "1"], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "validation failed" in err

    def test_constant_expression_exits_3(self, capsys):
        code, out, err = run(["integrate", "--expr", "0*x+1", "--lower", "0", "--upper", "1"], capsys)
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1
        assert "derivative vanished" in err

    def test_nonfinite_start_exits_3(self, capsys):
        code, _, err = run(["integrate", "--expr", "1/x", "--lower", "-1", "--upper", "0"], capsys)
        assert code == 3
        assert "nonfinite" in err

    def test_overflowing_step_exits_3_and_names_the_step(self, capsys):
        argv = ["integrate", "--expr", "1e300+1e-11*x", "--lower", "0", "--upper", "1", "--no-validate"]
        code, out, err = run(argv, capsys)
        assert code == 3
        assert out == ""
        assert err == "error: Newton step overflowed at x = 1.0 (f = 1e+300, f' = 1e-11, step = inf, x_next = -inf)\n"

    def test_nan_closing_the_last_panel_exits_3(self, capsys):
        code, out, err = run(["integrate", "--expr", "sqrt(x)", "--lower", "0", "--upper", "1e-7"], capsys)
        assert code == 3
        assert out == ""
        assert err == "error: nonfinite value at x = -1.0000000000000002e-07 (f = nan, f' = nan)\n"

    def test_no_validate_skips_checks(self, capsys):
        code, out, _ = run(
            ["integrate", "--expr", "0-x", "--lower", "0", "--upper", "1", "--no-validate"], capsys
        )
        assert code == 0
        assert "value:        -0.5" in out

    def test_budget_exhausted_is_status_zero(self, capsys):
        code, out, _ = run(["integrate", *EXAMPLE, "--max-iter", "1"], capsys)
        assert code == 0
        assert "status:       budget-exhausted" in out
        assert "panels:       1" in out

    def test_malformed_inputs_always_exit_1_with_one_diagnostic(self, capsys):
        import random

        rng = random.Random(8080)
        garbage = "()+-*/^x219813abcdefy$#@ .,"
        for _ in range(60):
            kind = rng.randrange(3)
            if kind == 0:  # mangled expression
                expr = "".join(rng.choice(garbage) for _ in range(rng.randint(1, 12)))
                argv = ["integrate", "--expr", expr, "--lower", "0", "--upper", "1"]
                try:
                    parse(expr)
                    continue  # accidentally valid; not a malformed case
                except ValueError:
                    pass
            elif kind == 1:  # non-numeric or unordered bounds
                lo, hi = rng.choice([("abc", "1"), ("5", "1"), ("1", "1"), ("nan", "2"), ("0", "inf")])
                argv = ["integrate", "--expr", "x", "--lower", lo, "--upper", hi]
            else:  # unknown flags / missing arguments
                argv = rng.choice(
                    [
                        ["integrate", "--expr", "x"],
                        ["integrate", "--lower", "0", "--upper", "1"],
                        ["integrate", "--expr", "x", "--lower", "0", "--upper", "1", "--format", "xml"],
                        ["integrate", "--expr", "x", "--lower", "0", "--upper", "1", "--frobnicate"],
                        ["compare", "--expr", "x", "--lower", "0", "--upper", "1", "--methods", "sorcery"],
                    ]
                )
            code, out, err = run(argv, capsys)
            assert code == 1, argv
            assert out == ""
            assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "expr", ["(" * 2000 + "x" + ")" * 2000, "+".join(["x"] * 3000)], ids=["2000-parentheses", "3000-terms"]
    )
    def test_deep_or_huge_expression_exits_1_with_one_diagnostic(self, expr, capsys):
        code, out, err = run(["integrate", "--expr", expr, "--lower", "0", "--upper", "1"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "nests deeper than" in err

    def test_panels_at_the_cap_run(self, capsys):
        argv = ["compare", *EXAMPLE, "--panels", str(MAX_COUNT), "--methods", "midpoint", "--format", "csv"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert out.startswith("method,value,abs_error,rel_error_pct\nmidpoint,3.37499999")

    def test_max_iter_at_the_cap_runs(self, capsys):
        code, out, _ = run(["integrate", *EXAMPLE, "--max-iter", str(MAX_COUNT)], capsys)
        assert code == 0
        assert "status:       ok" in out

    @pytest.mark.parametrize("command, flag", [("compare", "--panels"), ("integrate", "--max-iter")])
    def test_count_past_the_cap_exits_1_with_one_diagnostic(self, command, flag, capsys):
        code, out, err = run([command, *EXAMPLE, flag, str(MAX_COUNT + 1)], capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: argument {flag}: must be at most 1000000, got 1000001\n"

    def test_duplicate_methods_are_reported_once(self, capsys):
        code, out, _ = run(
            ["compare", *EXAMPLE, "--methods", "midpoint", "midpoint", "trapezoid", "--format", "csv"],
            capsys,
        )
        assert code == 0
        names = [line.split(",")[0] for line in out.strip().split("\n")[1:]]
        assert names == ["midpoint", "trapezoid"]


class TestIntegrateFormats:
    def test_csv_round_trips_bit_exactly(self, capsys):
        code, out, _ = run(["integrate", *EXAMPLE, "--tol-x", "0.01", "--format", "csv"], capsys)
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "value,closing_area,residual_gap,status,panel_count,termination"
        cells = row.split(",")
        result = nr_integrate(parse("2*x^2+3*x+1"), Interval(-0.5, 1.0), NrQuadSettings(tol_x=0.01))
        assert float(cells[0]) == result.value
        assert float(cells[2]) == result.residual_gap
        assert cells[3] == "ok"
        assert int(cells[4]) == 4

    def test_json_round_trips_bit_exactly(self, capsys):
        code, out, _ = run(["integrate", *EXAMPLE, "--tol-x", "0.01", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        result = nr_integrate(parse("2*x^2+3*x+1"), Interval(-0.5, 1.0), NrQuadSettings(tol_x=0.01))
        assert doc["value"] == result.value
        assert doc["residual_gap"] == result.residual_gap
        assert doc["status"] == "ok"
        assert [p["area"] for p in doc["panels"]] == [p.area for p in result.panels]
        assert doc["trace"]["termination"] == "reached-target"
        assert [s["x_next"] for s in doc["trace"]["steps"]] == [s.x_next for s in result.trace.steps]
        # re-serialising reproduces the document exactly
        assert json.loads(json.dumps(doc)) == doc


class TestTrace:
    def test_csv_has_one_row_per_step(self, capsys):
        code, out, _ = run(["trace", *EXAMPLE, "--tol-x", "0.01", "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "index,x_k,f_k,df_k,step,area"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == 1.0
        assert float(first[2]) == 6.0
        assert float(first[3]) == 7.0
        assert abs(float(first[4]) - 0.857143) < 1e-6
        assert abs(float(first[5]) - 3.201166) < 1e-6

    def test_identity_has_exactly_one_row(self, capsys):
        code, out, _ = run(["trace", "--expr", "x", "--lower", "0", "--upper", "1", "--format", "csv"], capsys)
        assert code == 0
        assert len(out.strip().split("\n")) == 2

    def test_json_document_shape(self, capsys):
        code, out, _ = run(["trace", *EXAMPLE, "--tol-x", "0.01", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"expression", "interval", "steps", "termination"}
        assert doc["expression"] == "2*x^2+3*x+1"
        assert doc["interval"] == [-0.5, 1.0]
        assert len(doc["steps"]) == 4
        assert doc["termination"] == "reached-target"

    def test_errors_match_integrate(self, capsys):
        code, _, err = run(["trace", "--expr", "0*x+1", "--lower", "0", "--upper", "1"], capsys)
        assert code == 3


class TestCompare:
    def test_golden_table_byte_for_byte(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nrquad", "compare", *EXAMPLE],
            capture_output=True,
            check=True,
        )
        assert proc.stdout == GOLDEN.read_bytes()
        assert proc.stderr == b""

    def test_csv_round_trips_bit_exactly(self, capsys):
        code, out, _ = run(["compare", *EXAMPLE, "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "method,value,abs_error,rel_error_pct"
        f = parse("2*x^2+3*x+1")
        interval = Interval(-0.5, 1.0)
        reference = reference_integral(f, interval)
        expected = {
            "midpoint": midpoint(f, interval, 3),
            "trapezoid": trapezoid(f, interval, 3),
            "left-riemann": left_riemann(f, interval, 3),
            "right-riemann": right_riemann(f, interval, 3),
        }
        seen = {}
        for line in lines[1:]:
            cells = line.split(",")
            if cells[1].startswith("error:"):
                continue
            seen[cells[0]] = tuple(float(c) for c in cells[1:])
        for method, value in expected.items():
            stats = error_stats(value, reference)
            assert seen[method] == (value, stats.abs_error, stats.rel_error_pct)

    def test_json_document(self, capsys):
        code, out, _ = run(["compare", *EXAMPLE, "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["reference"] == reference_integral(parse("2*x^2+3*x+1"), Interval(-0.5, 1.0))
        methods = [row["method"] for row in doc["rows"]]
        assert methods == ["nr", "midpoint", "trapezoid", "left-riemann", "right-riemann", "simpson"]
        simpson_row = doc["rows"][-1]
        assert "error" in simpson_row
        nr = doc["nr_details"]
        assert nr["panel_count"] == 6
        assert nr["termination"] == "reached-target"
        for row in doc["rows"]:
            if "error" in row:
                continue
            assert row["rel_error_pct"] == pytest.approx(
                100.0 * row["abs_error"] / abs(doc["reference"]), rel=1e-12
            )

    def test_json_writes_nan_as_null(self, capsys):
        # the reference is 0, so every relative error is undefined
        argv = ["compare", "--expr", "x", "--lower", "-1", "--upper", "1", "--no-validate", "--format", "json"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        doc = strict_json(out)
        assert doc["reference"] == 0.0
        rows = [row for row in doc["rows"] if "error" not in row]
        assert rows and all(row["rel_error_pct"] is None for row in rows)
        assert '"rel_error_pct": null' in out

    def test_nan_closing_the_last_panel_is_an_nr_error_row(self, capsys):
        argv = ["compare", "--expr", "sqrt(x)", "--lower", "0", "--upper", "1e-7", "--format", "json"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        doc = strict_json(out)
        assert doc["rows"][0] == {
            "method": "nr",
            "error": "nonfinite value at x = -1.0000000000000002e-07 (f = nan, f' = nan)",
            "settings": "tol_x=1e-06",
        }
        assert doc["nr_details"] is None
        assert all("value" in row for row in doc["rows"][1:-1])  # simpson's n = 3 is odd

    def test_method_subset_and_order(self, capsys):
        code, out, _ = run(
            ["compare", *EXAMPLE, "--methods", "trapezoid", "nr", "--tol-x", "0.01", "--format", "csv"],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert [line.split(",")[0] for line in lines[1:]] == ["trapezoid", "nr"]
        nr_cells = lines[2].split(",")
        # the four-panel run: |3.375 - value|/3.375 is about 6.96 percent
        assert abs(float(nr_cells[3]) - 6.96) < 0.01

    def test_even_panels_make_simpson_numeric(self, capsys):
        code, out, _ = run(["compare", *EXAMPLE, "--panels", "4", "--format", "csv"], capsys)
        assert code == 0
        simpson_line = [l for l in out.strip().split("\n") if l.startswith("simpson,")][0]
        assert "error" not in simpson_line
        assert float(simpson_line.split(",")[1]) == 3.375

    def test_identity_all_methods_exact(self, capsys):
        code, out, _ = run(
            ["compare", "--expr", "x", "--lower", "0", "--upper", "1", "--panels", "2", "--format", "csv"],
            capsys,
        )
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            cells = line.split(",")
            if cells[0] in ("left-riemann", "right-riemann"):
                continue  # rectangles are not exact on a line
            assert float(cells[3]) == pytest.approx(0.0, abs=1e-12)


def compare_doc(rows, reference=3.375, nr_details=None):
    return {"expression": "x", "interval": [0.0, 1.0], "reference": reference, "rows": rows, "nr_details": nr_details}


def numeric_row(method, value, abs_error, rel_error_pct, settings="n=3"):
    return {"method": method, "value": value, "abs_error": abs_error, "rel_error_pct": rel_error_pct, "settings": settings}


class TestRenderReport:
    def test_midpoint_row_rendering(self):
        stats = error_stats(3.3125, 3.375)
        doc = compare_doc([numeric_row("midpoint", stats.approx, stats.abs_error, stats.rel_error_pct)])
        table = render("compare", doc, "table")
        assert "midpoint  3.312500  0.062500  1.8518" in table.split("\n")

    def test_empty_rows_csv_is_header_only(self):
        doc = compare_doc([], reference=0.5)
        assert render("compare", doc, "csv") == "method,value,abs_error,rel_error_pct"

    def test_json_round_trip_preserves_fields(self):
        stats = error_stats(3.3125, 3.375)
        doc = compare_doc([numeric_row("midpoint", stats.approx, stats.abs_error, stats.rel_error_pct)])
        doc = json.loads(render("compare", doc, "json"))
        assert doc["rows"][0]["value"] == 3.3125
        assert doc["rows"][0]["abs_error"] == 0.0625
        assert doc["rows"][0]["rel_error_pct"] == stats.rel_error_pct
        assert json.loads(json.dumps(doc)) == doc

    def test_json_is_strict_for_every_nonfinite_value(self):
        nr_details = {"panel_count": 1, "residual_gap": math.nan, "termination": "ok"}
        doc = compare_doc([numeric_row("midpoint", math.inf, math.inf, math.nan)], -math.inf, nr_details)
        doc = strict_json(render("compare", doc, "json"))
        assert doc["reference"] is None
        assert [doc["rows"][0][key] for key in ("value", "abs_error", "rel_error_pct")] == [None] * 3
        assert doc["nr_details"]["residual_gap"] is None


class TestEntryPoints:
    def test_module_invocation_matches_main(self, capsys):
        proc = subprocess.run(
            [sys.executable, "-m", "nrquad", "integrate", *EXAMPLE, "--tol-x", "0.01"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        code, out, _ = run(["integrate", *EXAMPLE, "--tol-x", "0.01"], capsys)
        assert proc.stdout == out

    def test_exit_codes_through_module(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nrquad", "integrate", "--expr", "0*x+1", "--lower", "0", "--upper", "1"],
            capture_output=True,
        )
        assert proc.returncode == 3

    def test_import_loads_neither_dataclasses_nor_json(self):
        # -S: a bare interpreter, so nothing but nrquad.cli can load them
        src = str(Path(nrquad.__file__).resolve().parent.parent)
        code = "import sys, nrquad.cli; print(sorted({'dataclasses', 'json'} & set(sys.modules)))"
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            check=True,
        )
        assert proc.stdout == "[]\n"

    def test_repeated_calls_share_one_parser_and_match_a_fresh_one(self, capsys, monkeypatch):
        sequence = [
            ["compare", *EXAMPLE, "--methods", "nr", "simpson"],
            ["compare", *EXAMPLE, "--panels", "many"],
            ["compare", *EXAMPLE],
            ["integrate", *EXAMPLE, "--format", "csv"],
        ]
        shared = [run(argv, capsys) for argv in sequence]
        fresh = []
        for argv in sequence:
            monkeypatch.setattr(nrquad.cli, "_PARSER", nrquad.cli._build_parser())
            fresh.append(run(argv, capsys))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 1, 0, 0]
        _, out, err = shared[1]
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert shared[2][1].encode() == GOLDEN.read_bytes()
        assert nrquad.cli._PARSER.parse_args(["compare", *EXAMPLE]).methods is nrquad.cli.METHODS

    @pytest.mark.parametrize(
        "launcher",
        [["-m", "nrquad"], ["-c", "import sys; from nrquad.cli import main; sys.exit(main())"]],
        ids=["module", "console-script"],
    )
    @pytest.mark.parametrize("format", ["table", "json"])
    def test_closed_stdout_exits_quietly(self, launcher, format):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first byte is written
        try:
            proc = subprocess.run(
                [sys.executable, *launcher, "compare", *EXAMPLE, "--format", format],
                stdout=write_end,
                stderr=subprocess.PIPE,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "launcher",
        [["-m", "nrquad"], ["-c", "import sys; from nrquad.cli import main; sys.exit(main())"]],
        ids=["module", "console-script"],
    )
    def test_full_stdout_exits_with_one_diagnostic(self, launcher):
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, *launcher, "integrate", "--expr", "x", "--lower", "0", "--upper", "1"],
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
            )
        assert proc.returncode == nrquad.cli.EXIT_WRITE == 4
        assert proc.stderr.startswith("error: cannot write the report: ") and proc.stderr.count("\n") == 1

    def test_failing_stdout_write_exits_with_one_diagnostic(self, capsys, monkeypatch):
        class FullStdout(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(sys, "stdout", FullStdout())
        code = main(["compare", *EXAMPLE, "--format", "json"])
        monkeypatch.undo()
        err = capsys.readouterr().err
        assert code == nrquad.cli.EXIT_WRITE
        assert err == f"error: cannot write the report: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"

    def test_compare_compiles_one_kernel(self, capsys, monkeypatch):
        compiled = []

        def counting(e):
            compiled.append(e)
            return compile_kernel(e)

        compile_kernel = nrquad.expressions._compile_kernel
        monkeypatch.setattr(nrquad.expressions, "_compile_kernel", counting)
        code, out, _ = run(["compare", *EXAMPLE, "--panels", "64"], capsys)
        assert code == 0 and "simpson" in out
        assert len(compiled) == 1

    def test_each_compare_compiles_one_kernel_in_threads(self, monkeypatch):
        # nothing is kept between calls, so threads that alternate expressions
        # share no kernel, and each comparison compiles its own once
        problems = [(parse("2*x^2+3*x+1"), Interval(-0.5, 1.0)), (parse("exp(x)-1"), Interval(0.0, 1.0))]
        settings = NrQuadSettings()

        def compare(j):
            f, interval = problems[j]
            return nrquad.cli._compare_doc(f, "f", interval, settings, 64, nrquad.cli.METHODS)

        wants = [compare(j) for j in range(2)]
        compiled = Counter()
        compile_kernel = nrquad.expressions._compile_kernel

        def counting(e):
            compiled[threading.get_ident()] += 1
            return compile_kernel(e)

        monkeypatch.setattr(nrquad.expressions, "_compile_kernel", counting)
        start = threading.Barrier(2, timeout=60)
        wrong = [0, 0]
        runs = 50

        def work(k):
            start.wait()
            for i in range(runs):
                j = (i + k) % 2
                wrong[k] += compare(j) != wants[j]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == [0, 0]
        assert sorted(compiled.values()) == [runs, runs]
