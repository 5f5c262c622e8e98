"""CLI contract tests: exit statuses, formats, round trips, golden output."""

import contextlib
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

import nrquad
import nrquad.cli
from nrquad.baselines import error_stats, left_riemann, midpoint, reference_integral, right_riemann, trapezoid
from nrquad.cli import MAX_COUNT, main, render
from nrquad.expressions import parse
from nrquad.quadrature import Interval, NrQuadSettings, nr_integrate
from support import ARGPARSE_PARSER, ArgparseError, argparse_parse, joined, patch_compiler

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = GOLDEN_DIR / "compare_worked_example.txt"
README = Path(__file__).resolve().parent.parent / "README.md"

EXAMPLE = ["--expr", "2*x^2+3*x+1", "--lower", "-0.5", "--upper", "1"]
NONFINITE_NODE = ["--expr", "sin(x)/x", "--lower", "-1", "--upper", "2", "--panels", "3", "--no-validate"]
SHORT = ["--expr", "x", "--lower", "0", "--upper", "1"]
INVALID_COMMAND = "argument command: invalid choice: {} (choose from 'integrate', 'compare', 'trace')"
INVALID_METHOD = "'nr', 'midpoint', 'trapezoid', 'left-riemann', 'right-riemann', 'simpson'"
# argparse and the modules it loads on first use; the CLI reads argv without them
UNLOADED = ("argparse", "gettext", "locale")

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

    @pytest.mark.parametrize(
        "argv, joined",
        [
            (["--expr", "x+0.001", "--lower", "-1e-3", "--upper", "1"], ["--expr", "x+0.001", "--lower=-1e-3", "--upper", "1"]),
            (["--expr", "-1+x", "--lower", "1", "--upper", "2"], ["--expr=-1+x", "--lower", "1", "--upper", "2"]),
            (["--expr", "x+1e-2", "--lower", "-1e-2", "--upper", "-1e-3"], ["--expr", "x+1e-2", "--lower=-1e-2", "--upper=-1e-3"]),
            # an abbreviation that starts exactly one option name
            (["--expr", "x+0.001", "--low", "-1e-3", "--upper", "1"], ["--expr", "x+0.001", "--low=-1e-3", "--upper", "1"]),
            (["--e", "-1+x", "--l", "1", "--u", "2"], ["--e=-1+x", "--l", "1", "--u", "2"]),
        ],
    )
    def test_a_value_that_starts_with_a_minus_may_follow_its_option(self, argv, joined, capsys):
        # -1e-3 or -1+x is the value of the option before it, not an unknown option
        for format in GOLDEN_EXTENSIONS:
            code, out, err = run(["integrate", *argv, "--format", format], capsys)
            assert (code, err) == (0, "")
            assert out == run(["integrate", *joined, "--format", format], capsys)[1]
        code, out, _ = run(["integrate", *argv, "--format", "json"], capsys)
        assert json.loads(out)["value"] == nr_integrate(parse(argv[1]), Interval(float(argv[3]), float(argv[5]))).value

    @pytest.mark.parametrize("flag, name", [("--tol-x", "tol_x"), ("--tol-f", "tol_f")])
    def test_a_negative_tolerance_after_its_option_reaches_the_settings(self, flag, name, capsys):
        code, out, err = run(["integrate", *EXAMPLE, flag, "-1e-3"], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {name} must be positive, got -0.001\n"

    @pytest.mark.parametrize("format", GOLDEN_EXTENSIONS)
    def test_an_ambiguous_abbreviation_keeps_argparses_message(self, format, capsys):
        # --tol starts both --tol-x and --tol-f, so -1e-3 is not joined to it
        code, out, err = run(["integrate", *EXAMPLE, "--tol", "-1e-3", "--format", format], capsys)
        assert (code, out) == (1, "")
        assert err == "error: ambiguous option: --tol could match --tol-x, --tol-f\n"

    @pytest.mark.parametrize(
        "argv",
        [["--expr", "--lower", "0"], ["--expr", "-h", "--lower", "0", "--upper", "1"], ["--expr", "x", "--lower", "--upper", "1"]],
    )
    def test_an_option_where_a_value_belongs_is_still_a_usage_error(self, argv, capsys):
        code, out, err = run(["integrate", *argv], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: argument --") and err.endswith(": expected one argument\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "the following arguments are required: command"),
            (["bogus"], INVALID_COMMAND.format("'bogus'")),
            (["--expr", "x", "integrate"], INVALID_COMMAND.format("'x'")),
            (["integrate"], "the following arguments are required: --expr, --lower, --upper"),
            (["integrate", "--expr", "x"], "the following arguments are required: --lower, --upper"),
            # a missing option is reported before an unknown one
            (["integrate", "--expr", "x", "--bogus"], "the following arguments are required: --lower, --upper"),
            (["integrate", *SHORT, "--bogus"], "unrecognized arguments: --bogus"),
            (["integrate", *SHORT, "extra"], "unrecognized arguments: extra"),
            (["integrate", *SHORT, "-x"], "unrecognized arguments: -x"),
            (["integrate", *SHORT, "--", "a", "b"], "unrecognized arguments: -- a b"),
            (["integrate", "--expr", "x", "--lower", "abc", "--upper", "1"], "argument --lower: invalid float value: 'abc'"),
            (["integrate", *SHORT, "--format", "xml"], "argument --format: invalid choice: 'xml' (choose from 'table', 'csv', 'json')"),
            (["integrate", *SHORT, "--format"], "argument --format: expected one argument"),
            (["integrate", *SHORT, "--max-iter", "x"], "argument --max-iter: invalid int value: 'x'"),
            (["integrate", *SHORT, "--max-iter", "2000000"], "argument --max-iter: must be at most 1000000, got 2000000"),
            (["compare", *SHORT, "--methods"], "argument --methods: expected at least one argument"),
            (["compare", *SHORT, "--methods", "foo"], f"argument --methods: invalid choice: 'foo' (choose from {INVALID_METHOD})"),
            (["integrate", *SHORT, "--panels", "5"], "unrecognized arguments: --panels 5"),
            (["compare", *SHORT, "--m", "nr"], "ambiguous option: --m could match --max-iter, --methods"),
            (["integrate", *SHORT, "--tol", "1"], "ambiguous option: --tol could match --tol-x, --tol-f"),
            (["integrate", *SHORT, "--tol=1"], "ambiguous option: --tol=1 could match --tol-x, --tol-f"),
            (["integrate", "--expr", "--lower", "0"], "argument --expr: expected one argument"),
            (["integrate", *SHORT, "--no-validate=1"], "argument --no-validate: ignored explicit argument '1'"),
        ],
    )
    def test_a_malformed_command_line_prints_its_usage_message(self, argv, message, capsys):
        assert run(argv, capsys) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            # argparse said "expected one argument": it took these items for options
            (["compare", *SHORT, "--panels", "-x"], "argument --panels: invalid int value: '-x'"),
            (["integrate", *SHORT, "--max-iter", "-1e-3"], "argument --max-iter: invalid int value: '-1e-3'"),
            (["trace", *SHORT, "--format", "-x"], "argument --format: invalid choice: '-x' (choose from 'table', 'csv', 'json')"),
            # no option reads a value before the command; main's join made one item of these two
            (["--lower", "-1e-3", "integrate", *SHORT], "unrecognized arguments: --lower -1e-3"),
            # argparse dropped a "--" value, and ran no method or read the bound as []
            (["compare", *SHORT, "--methods=--"], f"argument --methods: invalid choice: '--' (choose from {INVALID_METHOD})"),
            (["integrate", "--expr", "x", "--lower=--", "--upper", "1"], "argument --lower: invalid float value: '--'"),
        ],
    )
    def test_where_the_parser_departs_from_argparse(self, argv, message, capsys):
        assert run(argv, capsys) == (1, "", f"error: {message}\n")

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

    def test_an_interval_whose_width_overflows_passes_validation(self, capsys):
        # b - a is inf, so the samples are spread inside [a, b] rather than at a + i*inf
        argv = ["integrate", "--expr", "x/2+5e307", "--lower=-1e308", "--upper=1e308"]
        code, out, err = run(argv, capsys)
        assert (code, out) == (3, "")
        assert err == "error: Newton step overflowed at x = 1e+308 (f = 1e+308, f' = 0.5, step = inf, x_next = -inf)\n"

    @pytest.mark.parametrize("format", GOLDEN_EXTENSIONS)
    def test_an_area_that_overflows_is_a_result(self, format, capsys):
        # one finite step of width 1e308 under a finite f: only the panel's area overflows
        argv = ["integrate", "--expr", "x", "--lower", "0", "--upper", "1e308", "--format", format]
        code, out, err = run(argv, capsys)
        assert (code, err) == (0, "")
        if format == "table":
            assert "value:        inf\n" in out
            # cells from 1e16 up print in repr form, as the value line does, not as 310 digits
            assert out.endswith("\nk     x_k   width  area\n0  1e+308  1e+308   inf\n")
        elif format == "csv":
            assert out.splitlines()[1].startswith("inf,")
        else:
            assert strict_json(out)["value"] is None

    def test_a_compare_row_whose_area_overflows_is_a_result(self, capsys):
        # the rule's 7% excess takes x^2's area past the largest float, so its error and percentage are inf
        # too; the percentage cell prints inf in repr form and never reaches math.floor, which raises on inf
        argv = ["compare", "--expr", "x^2", "--lower", "0", "--upper", "8e102", "--methods", "nr"]
        code, out, err = run(argv, capsys)
        assert (code, err) == (0, "")
        assert "\nreference:  1.7066666666666665e+308\n\nnr  inf  inf  inf\n" in out

    @pytest.mark.parametrize(
        "value, cell, pct_cell",
        [
            (9999999999999998.0, "9999999999999998.000000", "9999999999999998.0000"),
            (1e16, "1e+16", "1e+16"),
            (math.inf, "inf", "inf"),
            (math.nan, "nan", "nan"),
        ],
    )
    def test_table_cells_print_in_repr_form_from_1e16_up(self, value, cell, pct_cell):
        assert (nrquad.cli._fmt_value(value), nrquad.cli._fmt_pct(value)) == (cell, pct_cell)

    def test_nan_closing_the_last_panel_exits_3(self, capsys):
        code, out, err = run(["integrate", "--expr", "sqrt(x)", "--lower", "0", "--upper", "1e-7"], capsys)
        assert code == 3
        assert out == ""
        assert err == "error: nonfinite value at x = -1.0000000000000002e-07 (f = nan, f' = nan)\n"

    def test_quotient_by_a_huge_constant_integrates(self, capsys):
        code, out, err = run(["integrate", "--expr", "1e200*x/1e160", "--lower", "0", "--upper", "1"], capsys)
        assert (code, err) == (0, "")
        assert "value:        4.9999999999999995e+39\n" in out

    def test_quotient_by_a_huge_constant_has_a_finite_derivative(self, capsys):
        # f' is 1e-155, not the quotient rule's NaN, so the rule stops on its vanishing-derivative check
        code, out, err = run(["integrate", "--expr", "x/1e155", "--lower", "0", "--upper", "1"], capsys)
        assert (code, out) == (3, "")
        assert err == "error: derivative vanished at x = 1.0 (|f'(x)| = 1e-155 <= 1e-12)\n"

    def test_reference_past_its_point_budget_exits_3(self):
        # the oscillations grow ever faster towards the pole of tan, so only the point budget ends
        # the reference; a child process, so that a hang fails the test instead of stopping the suite
        argv = ["compare", "--expr", "sin(tan(0.616-x))", "--lower", "-1", "--upper", "1", "--no-validate"]
        proc = subprocess.run([sys.executable, "-m", "nrquad", *argv], capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("error: adaptive bisection exceeded its budget of 1048576 points on [")

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


def same_cell(cell, value):
    """Whether a CSV cell spells a JSON value: a string as it is, a number bit for bit, ``null`` as inf or nan."""
    if isinstance(value, str):
        return cell == value
    if isinstance(value, int):
        return cell == str(value)
    number = float(cell)
    return not math.isfinite(number) if value is None else number.hex() == value.hex()


def csv_matches_json(command, csv_text, doc):
    """Whether the CSV titles are the command's and every cell is the JSON document's value.

    An error row's cells are its message, each ``,`` written ``;``, and two
    empty cells.
    """
    titles, *rows = [line.split(",") for line in csv_text.split("\n")]
    if command == "integrate":
        names = ["value", "closing_area", "residual_gap", "status", "panel_count", "termination"]
        summary = {**doc, "panel_count": len(doc["panels"]), "termination": doc["trace"]["termination"]}
        want = [[summary[name] for name in names]]
    elif command == "trace":
        names = ["index", "x_k", "f_k", "df_k", "step", "area"]
        want = [[step[name] for name in names] for step in doc["steps"]]
    else:
        names = ["method", "value", "abs_error", "rel_error_pct"]
        want = [
            [row["method"], "error: " + row["error"].replace(",", ";"), "", ""]
            if "error" in row
            else [row[name] for name in names]
            for row in doc["rows"]
        ]
    return (titles, len(rows)) == (names, len(want)) and all(
        len(row) == len(values) and all(map(same_cell, row, values)) for row, values in zip(rows, want)
    )


class TestContractProperty:
    """Any argv, in each format: a documented exit code, one diagnostic line or none, and CSV equal to JSON."""

    # an expression is a sum of one to three pieces, and a malformed piece makes it malformed.  Hypothesis
    # draws the first and last entry of a list most often, so those are valid here and in the lists below
    PIECES = ["x", "x^2", "2*x^2+3*x+1", "0.5*x^3", "exp(x)-1", "ln(x+1)", "sqrt(x)", "(x", "foo(x)", "x $ 1"]
    PIECES += ["1e999*x", "sin x", "", "(" * 60 + "x" + ")" * 60, "x*sqrt(x)", "sin(x)", "abs(x)", "1/x"]
    PIECES += ["x/1e155", "0-x", "7", "x"]
    # ordinary, tiny, huge and infinite ends; some pairs are inverted or empty
    LOWER = ["0", "-1", "0.5", "-0.5", "1e-7", "5e-324", "-1e308", "0"]
    UPPER = ["2", "1", "0.5", "inf", "1e-7", "8e102", "1e308", "2"]
    OPTIONS = {"--tol-x": ["1e-6", "0.1", "-1", "1e-12", "1e-3"], "--max-iter": ["100", "1", "0", "3", "7"]}

    def test_any_argv_keeps_the_contract(self, capsys):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        exprs = st.lists(st.sampled_from(self.PIECES), min_size=1, max_size=3).map("+".join)

        @st.composite
        def argvs(draw):
            command = draw(st.sampled_from(["integrate", "trace", "compare"]))
            lower, upper = draw(st.sampled_from(self.LOWER)), draw(st.sampled_from(self.UPPER))
            argv = [command, "--expr", draw(exprs), f"--lower={lower}", f"--upper={upper}"]
            for flag, values in self.OPTIONS.items():
                if draw(st.booleans()):
                    argv.append(f"{flag}={draw(st.sampled_from(values))}")
            argv += [flag for flag in ("--no-validate", "--closing-triangle") if draw(st.booleans())]
            if command == "compare":
                argv.append(f"--panels={draw(st.integers(-1, 64))}")
                if draw(st.booleans()):
                    methods = st.lists(st.sampled_from(nrquad.cli.METHODS), min_size=1, max_size=4)
                    argv += ["--methods", *draw(methods)]
            return argv

        # the two known overflows: an area past the largest float is a result (inf in CSV, null in JSON), in
        # integrate's value and in a compare row; and two values that start with "-" as items of their own
        @hypothesis.example(["integrate", "--expr", "x", "--lower=0", "--upper=1e308"])
        @hypothesis.example(["compare", "--expr", "x^2", "--lower=0", "--upper=8e102", "--methods", "nr"])
        @hypothesis.example(["integrate", "--expr", "x+0.001", "--lower", "-1e-3", "--upper", "1"])
        @hypothesis.example(["integrate", "--expr", "-1+x", "--lower", "1", "--upper", "2"])
        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @hypothesis.given(argvs())
        def check(argv):
            runs = {format: run([*argv, "--format", format], capsys) for format in GOLDEN_EXTENSIONS}
            # the format changes the report only, not the exit code or the diagnostic
            ((code, err),) = {(code, err) for code, _, err in runs.values()}
            assert code in (0, 1, 2, 3)
            if code:
                assert all(out == "" for _, out, _ in runs.values())
                assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
            else:
                assert err == ""
                assert csv_matches_json(argv[0], runs["csv"][1].rstrip("\n"), strict_json(runs["json"][1]))

        check()


def argparse_outcome(argv, join=True):
    """What the argparse oracle makes of ``argv``: its fields, its message, or the command it printed help for."""
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed):
            fields = vars(argparse_parse(argv, join))
    except ArgparseError as exc:
        return "error", str(exc)
    except SystemExit:
        return "help", usage_command(printed.getvalue())
    return "fields", {name: repr(value) for name, value in fields.items()}


def parser_outcome(argv):
    """What ``nrquad._argv.parse_argv`` makes of ``argv``, in the terms of :func:`argparse_outcome`."""
    try:
        fields = nrquad.cli.parse_argv(argv, "", nrquad.cli._COMMANDS)
    except nrquad.cli.UsageError as exc:
        return "error", str(exc)
    if "usage" in fields:
        return "help", usage_command(fields["usage"])
    return "fields", {name: repr(value) for name, value in fields.items()}


def usage_command(text):
    word = text.split()[2]  # usage: nrquad <command> ..., or the command choices or argparse's [-h]
    return word if word in nrquad.cli._COMMANDS else None


def joined_after_the_command(argv):
    """``argv`` :func:`~support.joined` only after the command and before ``--``.

    Before the command and after ``--`` no option reads a value, so the parser
    reads ``--e -1`` there as two items, as argparse does, where the join made
    one item of them.
    """
    start = 1 + next(
        (i for i, item in enumerate(argv) if (i + 1 < len(argv) if item == "--" else ARGPARSE_PARSER._parse_optional(item) is None)),
        len(argv),
    )
    end = argv.index("--", start) if "--" in argv[start:] else len(argv)
    return argv[:start] + joined(argv[start:end]) + argv[end:]


def assert_reads_as_argparse(argv):
    new = parser_outcome(argv)
    outcome = argparse_outcome(argv)
    if new != outcome:
        outcome = argparse_outcome(joined_after_the_command(argv), join=False)
    assert new == outcome or reads_a_dash_value(outcome, new, argv), (argv, new, outcome)


NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def reads_a_dash_value(outcome, new, argv):
    """Whether ``new`` differs from the argparse ``outcome`` as the parser is allowed to.

    ``--format``, ``--max-iter`` or ``--panels`` reads an item that starts
    with ``-`` but is not a negative number, where argparse expected one
    argument; the parser reports that the value is bad.
    """
    for name in ("--format", "--max-iter", "--panels"):
        if outcome == ("error", f"argument {name}: expected one argument") and new[0] == "error" and new[1].startswith(f"argument {name}: "):
            return any(
                len(option) > 2 and name.startswith(option) and value[:1] == "-" and value[1:2] not in ("-", "h")
                and not NEGATIVE_NUMBER.match(value)
                for option, value in zip(argv, argv[1:])
            )
    return False


class TestParserMatchesArgparse:
    """Any argv: the parser gives argparse's fields, its usage message, or help, as argparse read argv before."""

    COMMANDS = ["integrate", "compare", "trace"]
    JUNK = ["bogus", "x", "-x", "--bogus", "-", "-1", "--", "Integrate"]
    # full names, prefixes that start one name, prefixes that start several, and unknown options
    VALUED = ["--expr", "--lower", "--upper", "--tol-x", "--tol-f", "--max-iter", "--format", "--panels"]
    VALUED += ["--e", "--low", "--u", "--tol-f", "--max", "--f", "--pan", "--tol", "--t", "--m", "--x", "-x", "--lowest"]
    FLAGS = ["--closing-triangle", "--no-validate", "--clos", "--no", "--c", "--help", "--he", "-h"]
    VALUES = ["-1e-3", "-1+x", "-", "--x", "-h", "inf", "abc", "x", "0", "1", "-1", "-0.5", "7", "json", "csv", "nr", ""]
    VALUES += ["-x y", "--x y", "-hx", "-.5"]
    METHODS = [*nrquad.cli.METHODS, "foo", "-", "-1", "-x"]
    # options with values they accept, so that most command lines parse
    GOOD = [("--expr", "-1+x"), ("--e", "x^2"), ("--lower", "-1e-3"), ("--low", "-1"), ("--upper", "2"), ("--u", "inf")]
    GOOD += [("--tol-x", "1e-3"), ("--tol-f", "-1e-3"), ("--max-iter", "7"), ("--max", "-5"), ("--format", "csv")]
    GOOD += [("--f", "json"), ("--panels", "-1"), ("--pan", "5")]
    REQUIRED = ["--expr", "x^2+1", "--lower", "0", "--upper", "1"]

    def test_the_parser_reads_any_argv_as_argparse_did(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        def forms(name, value):
            return st.sampled_from([[name, value], [f"{name}={value}"]])

        valued = st.tuples(st.sampled_from(self.VALUED), st.sampled_from(self.VALUES)).flatmap(
            lambda pair: st.one_of(forms(*pair), st.just([pair[0]]))
        )
        good = st.one_of(
            st.sampled_from(self.GOOD).flatmap(lambda pair: forms(*pair)),
            st.sampled_from(self.FLAGS[:4]).map(lambda name: [name]),
            st.lists(st.sampled_from(nrquad.cli.METHODS), min_size=1, max_size=3).map(lambda names: ["--methods", *names]),
        )
        flag = st.sampled_from(self.FLAGS).flatmap(lambda name: st.sampled_from([[name], [f"{name}=1"]]))
        piece = st.one_of(
            valued,
            flag,
            st.lists(st.sampled_from(self.METHODS), max_size=3).map(lambda names: ["--methods", *names]),
            st.sampled_from(self.VALUES).map(lambda value: [value]),  # an extra positional
            st.just(["--"]),
        )

        @st.composite
        def argvs(draw):
            head = draw(st.sampled_from(["command", "command", "junk", "option"]))
            argv = draw(st.one_of(valued, flag)) if head == "option" else []
            if head == "junk":
                argv.append(draw(st.sampled_from(self.JUNK)))
            if head != "junk" or draw(st.booleans()):
                argv.append(draw(st.sampled_from(self.COMMANDS)))
            pieces = draw(st.lists(good, max_size=4)) + draw(st.lists(piece, max_size=2))
            if draw(st.sampled_from([True, True, True, False])):
                pieces.append(self.REQUIRED)
            for items in draw(st.permutations(pieces)):
                argv += items
            return argv

        # the allowed difference, a join outside the command, an ambiguous prefix after a bad value, and help after one
        @hypothesis.example(["compare", *self.REQUIRED, "--panels", "-x"])
        @hypothesis.example(["--lower", "-1e-3", "integrate", *self.REQUIRED])
        @hypothesis.example(["integrate", *self.REQUIRED, "--", "--e", "-1"])
        @hypothesis.example(["integrate", "--lower", "abc", "--t", "1"])
        @hypothesis.example(["compare", "--methods", "nr", "-1", "--he"])
        @hypothesis.settings(max_examples=1000, deadline=None, derandomize=True, database=None)
        @hypothesis.given(argvs())
        def check(argv):
            assert_reads_as_argparse(argv)

        check()

    def test_each_option_reads_each_value_as_argparse_did(self):
        for command in self.COMMANDS:
            for name in [*self.VALUED, *self.FLAGS, "--methods", "--meth"]:
                for value in self.VALUES:
                    for items in ([name, value], [f"{name}={value}"]):
                        for argv in ([command, *items, *self.REQUIRED], [command, *self.REQUIRED, *items], [*items, command]):
                            assert_reads_as_argparse(argv)
        for junk in self.JUNK:
            for argv in ([junk], [junk, "integrate", *self.REQUIRED], ["-x", junk], ["-x", junk, "trace"]):
                assert_reads_as_argparse(argv)


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
        assert [p["area"] for p in doc["panels"]] == list(result.areas)
        assert doc["trace"]["termination"] == "reached-target"
        assert [s["x_next"] for s in doc["trace"]["steps"]] == [s.x_next for s in result.trace.steps]
        # re-serialising reproduces the document exactly
        assert json.loads(json.dumps(doc)) == doc

    # the worked example, a clamp, a budget run out and a closing triangle
    @pytest.mark.parametrize(
        "argv, source, interval, settings",
        [
            (EXAMPLE, "2*x^2+3*x+1", Interval(-0.5, 1.0), NrQuadSettings()),
            (["--expr", "ln(x+1)", "--lower", "0", "--upper", "2"], "ln(x+1)", Interval(0.0, 2.0), NrQuadSettings()),
            ([*EXAMPLE, "--max-iter", "1"], "2*x^2+3*x+1", Interval(-0.5, 1.0), NrQuadSettings(max_iter=1)),
            ([*EXAMPLE, "--closing-triangle"], "2*x^2+3*x+1", Interval(-0.5, 1.0), NrQuadSettings(closing_triangle=True)),
        ],
        ids=["worked-example", "clamped", "budget-exhausted", "closing-triangle"],
    )
    def test_json_panels_are_the_steps_and_their_areas(self, capsys, argv, source, interval, settings):
        code, out, _ = run(["integrate", *argv, "--format", "json"], capsys)
        assert code == 0
        result = nr_integrate(parse(source), interval, settings)
        expected = [(s.x_k, s.step, area) for s, area in zip(result.trace.steps, result.areas, strict=True)]
        assert [(p["x_k"], p["width"], p["area"]) for p in json.loads(out)["panels"]] == expected


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

    @pytest.mark.parametrize("format", ["csv", "json"])
    def test_an_error_past_1e306_prints_a_finite_percentage(self, format, capsys):
        # 100*abs_error overflows, so error_stats divides first: 2.78%, not inf (null in JSON)
        argv = ["compare", "--expr", "x^2", "--lower", "0", "--upper", "8e102", "--methods", "midpoint"]
        code, out, _ = run([*argv, "--format", format], capsys)
        assert code == 0
        if format == "csv":
            row = dict(zip(*(line.split(",") for line in out.splitlines())))
        else:
            doc = strict_json(out)
            assert doc["reference"] == 1.7066666666666665e308
            (row,) = doc["rows"]
        assert float(row["abs_error"]) == 4.740740740740754e306
        assert float(row["rel_error_pct"]) == 100.0 * (4.740740740740754e306 / 1.7066666666666665e308)

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
        code = f"import sys, nrquad.cli; print(sorted({{'dataclasses', 'json', *{UNLOADED!r}}} & set(sys.modules)))"
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            check=True,
        )
        assert proc.stdout == "[]\n"

    @pytest.mark.parametrize("command", ["integrate", "trace", "compare"])
    def test_only_a_compare_launch_loads_baselines(self, command):
        # -X importtime lists on stderr every module the launch imports, so each one it puts in sys.modules
        argv = [sys.executable, "-X", "importtime", "-m", "nrquad", command, *EXAMPLE]
        proc = subprocess.run(argv, capture_output=True, text=True)
        assert proc.returncode == 0
        assert " nrquad.quadrature\n" in proc.stderr
        assert (" nrquad.baselines\n" in proc.stderr) == (command == "compare")
        assert [name for name in UNLOADED if f" {name}\n" in proc.stderr] == []
        assert " nrquad._usage\n" not in proc.stderr  # only -h imports the help text's module

    @pytest.mark.parametrize("argv", [["--help"], ["-h", "compare"], ["compare", "-h"], ["trace", "--he", "--bogus"]])
    def test_help_prints_the_usage_and_exits_0(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert (code, err) == (0, "")
        assert out.startswith("usage: nrquad ")
        names = ["--expr", "--lower", "--upper", "--tol-x", "--tol-f", "--max-iter", "--closing-triangle", "--no-validate"]
        if argv[0] == "compare":
            assert [name for name in [*names, "--format", "--panels", "--methods"] if f"\n  {name}" not in out] == []
        elif argv[0] == "trace":
            assert "--format" in out and "--panels" not in out and "--methods" not in out
        else:
            assert "integrate" in out and "--expr" not in out

    def test_repeated_calls_give_the_same_results_in_either_order(self, capsys):
        sequence = [
            ["compare", *EXAMPLE, "--methods", "nr", "simpson"],
            ["compare", *EXAMPLE, "--panels", "many"],
            ["compare", *EXAMPLE],
            ["integrate", *EXAMPLE, "--format", "csv"],
        ]
        forward = [run(argv, capsys) for argv in sequence]
        backward = [run(argv, capsys) for argv in reversed(sequence)]
        assert forward == backward[::-1]
        assert [code for code, _, _ in forward] == [0, 1, 0, 0]
        _, out, err = forward[1]
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert forward[2][1].encode() == GOLDEN.read_bytes()
        assert nrquad.cli.parse_argv(["compare", *EXAMPLE], "", nrquad.cli._COMMANDS)["methods"] is nrquad.cli.METHODS

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

    def test_compare_compiles_one_batch_evaluator(self, capsys, monkeypatch):
        # one chain for the five rules; the reference and validation evaluate through scalar closures
        compiled = []

        def counting(e, many):
            compiled.append(e)
            return many

        patch_compiler(monkeypatch, "_compile_batch", counting)
        code, out, _ = run(["compare", *EXAMPLE, "--panels", "64"], capsys)
        assert code == 0 and "simpson" in out
        assert len(compiled) == 1

    # no rule runs: nr alone, or simpson alone on an odd panel count, which it refuses before any node
    @pytest.mark.parametrize(
        "extra, built",
        [([], 1), (["--methods", "nr"], 0), (["--methods", "simpson", "--panels", "5"], 0)],
        ids=["default", "nr", "simpson-odd"],
    )
    def test_compare_compiles_a_batch_evaluator_only_for_a_rule_that_runs(self, capsys, monkeypatch, extra, built):
        compiled = []

        def counting(e, many):
            compiled.append(e)
            return many

        patch_compiler(monkeypatch, "_compile_batch", counting)
        code, _, _ = run(["compare", *EXAMPLE, *extra], capsys)
        assert code == 0
        assert len(compiled) == built

    def test_each_compare_compiles_one_batch_evaluator_in_threads(self, monkeypatch):
        # nothing is kept between calls, so threads that alternate expressions
        # share no batch evaluator, and each comparison compiles its own
        problems = [(parse("2*x^2+3*x+1"), Interval(-0.5, 1.0)), (parse("exp(x)-1"), Interval(0.0, 1.0))]
        settings = NrQuadSettings()

        def compare(j):
            f, interval = problems[j]
            return nrquad.cli._compare_doc(f, "f", interval, settings, 64, nrquad.cli.METHODS)

        wants = [compare(j) for j in range(2)]
        compiled = Counter()

        def counting(e, many):
            compiled[threading.get_ident()] += 1
            return many

        patch_compiler(monkeypatch, "_compile_batch", counting)
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
