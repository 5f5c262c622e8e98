"""The three workloads: their operations, plain counterparts and checks.

An operation is a pair of zero-argument calls, nrquad's and its plain
counterpart's, plus a check of nrquad's output.  The runner times the two
calls back to back, so every nrquad time has a plain time taken on the
same machine state right after it.  The checks compare nrquad with the
plain computation or with a property the method must have, never with a
stored copy of an earlier output.
"""

from __future__ import annotations

import io
import json
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import nrquad.cli
import nrquad.expressions
import nrquad.quadrature
from nrquad.quadrature import Interval

import corpus
import plain

BENCH_DIR = Path(__file__).resolve().parent
PROCESS_TIMEOUT_S = 60


class OpFailed(Exception):
    """nrquad gave no valid result: it raised, exited non-zero or printed malformed output."""


class WrongResult(Exception):
    """nrquad gave a result that disagrees with the plain computation or a property of the rule."""


@dataclass(frozen=True)
class Op:
    name: str
    nrquad: Callable[[], Any]
    plain: Callable[[], Any]
    check: Callable[[Any, Any], None]
    args: tuple[str, ...] = ()  # the nrquad command line, for operations that launch one


class Api:
    """The nrquad entry points the operations call; the traced run swaps in wrapped versions."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.parse = nrquad.expressions.parse
        self.nr_integrate = nrquad.quadrature.nr_integrate
        self.main = nrquad.cli.main
        self.launch = lambda args: self.run([sys.executable, "-m", "nrquad", *args])

    def run(self, argv: list[str]) -> tuple[int, str, str]:
        proc = subprocess.run(
            argv, capture_output=True, text=True, env=self.env, cwd=self.root, timeout=PROCESS_TIMEOUT_S
        )
        return proc.returncode, proc.stdout, proc.stderr

    def peak_rss_mb(self, args: tuple[str, ...]) -> float:
        """Peak resident set of one ``python -m nrquad`` process, in MiB."""
        argv = [sys.executable, "-m", "nrquad", *args]
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=self.env, cwd=self.root)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return usage.ru_maxrss / 1024.0


def strict_json(text: str) -> Any:
    """Parse JSON as RFC 8259 does: NaN and Infinity tokens are errors."""

    def reject(token: str) -> None:
        raise ValueError(f"{token} is not a JSON value")

    return json.loads(text, parse_constant=reject)


def _close(got: float, want: float, abs_tol: float) -> bool:
    return math.isclose(got, want, rel_tol=1e-9, abs_tol=abs_tol)


def same_json(got: Any, want: Any, where: str = "$") -> None:
    """Require the same structure, equal strings and numbers within 1e-9 (relative or absolute)."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            raise WrongResult(f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}")
        for key in want:
            same_json(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            raise WrongResult(f"{where}: {got!r} does not have {len(want)} items")
        for i, (g, w) in enumerate(zip(got, want)):
            same_json(g, w, f"{where}[{i}]")
    elif isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        if not _close(float(got), want, 1e-9):
            raise WrongResult(f"{where}: {got!r} != {want!r}")
    elif got != want:
        raise WrongResult(f"{where}: {got!r} != {want!r}")


_TOKEN_SPLIT = re.compile(r"[\s=,\[\]]+")


def same_tokens(got: str, want: str, abs_tol: float) -> None:
    """Compare text token by token; numbers within ``abs_tol`` (the printed precision) or 1e-9 relative."""
    got_tokens, want_tokens = _TOKEN_SPLIT.split(got.strip()), _TOKEN_SPLIT.split(want.strip())
    if len(got_tokens) != len(want_tokens):
        raise WrongResult(f"{len(got_tokens)} tokens, plain output has {len(want_tokens)}")
    for g, w in zip(got_tokens, want_tokens):
        if g == w:
            continue
        try:
            close = _close(float(g), float(w), abs_tol)
        except ValueError:
            close = False
        if not close:
            raise WrongResult(f"{g!r} != {w!r}")


def same_output(fmt: str, got: str, want: str) -> None:
    if fmt == "json":
        try:
            doc = strict_json(got)
        except ValueError as exc:
            raise OpFailed(f"output is not valid JSON: {exc}") from None
        same_json(doc, json.loads(want))
    else:
        # tables print 6 decimals and truncate percentages to 4
        same_tokens(got, want, 1e-9 if fmt == "csv" else 1e-4)


def _check_convex(problem: corpus.Problem, f: Callable[[float], float], value: float, final_x: float) -> None:
    """On a convex integrand every panel's chord lies above the curve.

    The panels cover [final_x, b]; the sliver [a, final_x] has area at most
    (final_x - a) * f(final_x) because f increases.
    """
    if problem.convex and value + abs(final_x - problem.a) * f(final_x) < problem.exact * (1.0 - 1e-12):
        raise WrongResult(f"{value!r} is below the closed form {problem.exact!r} on a convex integrand")


# --- integrate: parse + nr_integrate with default settings ----------------


def integrate_ops(api: Api, seed: int) -> list[Op]:
    ops = []
    for problem in corpus.integrate_corpus(seed):
        f, df = problem.plain()
        interval = Interval(problem.a, problem.b)

        def check(result: Any, rule: plain.Rule, problem: corpus.Problem = problem, f: Callable = f) -> None:
            if isinstance(result, Exception):
                raise OpFailed(repr(result))
            if result.status.value != plain.status(rule):
                raise WrongResult(f"status {result.status.value}, plain rule {plain.status(rule)}")
            if not _close(result.value, rule.value, 1e-12):
                raise WrongResult(f"value {result.value!r}, plain rule {rule.value!r}")
            _check_convex(problem, f, result.value, result.trace.final_x)

        ops.append(
            Op(
                problem.text,
                lambda text=problem.text, interval=interval: api.nr_integrate(api.parse(text), interval),
                lambda f=f, df=df, a=problem.a, b=problem.b: plain.nr_rule(f, df, a, b),
                check,
            )
        )
    return ops


# --- compare: in-process CLI main, JSON format ----------------------------


def run_main(main: Callable[[list[str]], int], argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def compare_ops(api: Api, seed: int) -> list[Op]:
    ops = []
    for problem in corpus.compare_corpus(seed):
        f, df = problem.plain()
        argv = ["compare", "--expr", problem.text, "--lower", repr(problem.a), "--upper", repr(problem.b)]
        argv += ["--panels", str(problem.panels), "--format", "json"]

        def check(result: Any, want: str, problem: corpus.Problem = problem, f: Callable = f) -> None:
            if isinstance(result, Exception):
                raise OpFailed(repr(result))
            code, out, err = result
            if code != 0:
                raise OpFailed(f"exit {code}: {err.strip()}")
            try:
                doc = strict_json(out)
            except ValueError as exc:
                raise OpFailed(f"output is not valid JSON: {exc}") from None
            same_json(doc, json.loads(want))
            if not math.isclose(doc["reference"], problem.exact, rel_tol=1e-8):
                raise WrongResult(f"reference {doc['reference']!r}, closed form {problem.exact!r}")
            nr_row = doc["rows"][0]
            _check_convex(problem, f, nr_row["value"], problem.a + doc["nr_details"]["residual_gap"])

        ops.append(
            Op(
                problem.text,
                lambda argv=argv: run_main(api.main, argv),
                lambda p=problem, f=f, df=df: json.dumps(plain.compare_doc(p.text, f, df, p.a, p.b, p.panels), indent=2),
                check,
            )
        )
    return ops


# --- cli: one process launch per operation --------------------------------

# Two operations fail at the time of writing, because of faults in nrquad.
# They stay in every round so that mending them keeps the timing mix.
NAN_JSON_ARGS = ["compare", "--expr", "x", "--lower", "-1", "--upper", "1", "--no-validate", "--format", "json"]
DEEP_TEXT = "(" * 2000 + "x" + ")" * 2000
DEEP_ARGS = ["integrate", "--expr", DEEP_TEXT, "--lower", "0", "--upper", "1"]


def _cli_op(api: Api, name: str, args: list[str], plain_args: list[str], fmt: str, diagnostic_ok: bool = False) -> Op:
    plain_argv = [sys.executable, str(BENCH_DIR / "plain_cli.py"), *plain_args]

    def check(result: Any, want: tuple[int, str, str]) -> None:
        if isinstance(result, Exception):
            raise OpFailed(repr(result))
        code, out, err = result
        if want[0] != 0:
            raise RuntimeError(f"plain counterpart of {name} failed: {want[2]}")
        if diagnostic_ok and code == 1 and err.count("\n") <= 1 and err.startswith("error: "):
            return  # one diagnostic line is an acceptable outcome too
        if code != 0:
            raise OpFailed(f"exit {code}: {err.strip().splitlines()[-1:]}")
        same_output(fmt, out, want[1])

    return Op(name, lambda: api.launch(args), lambda: api.run(plain_argv), check, tuple(args))


CLI_COMMANDS = ("integrate", "trace", "compare")
CLI_FORMATS = ("table", "csv", "json")
CLI_PROBLEMS_PER_FORMAT = 2  # keeps the slow failing launch under a tenth of a round, away from p90


def cli_ops(api: Api, seed: int) -> list[Op]:
    ops = []
    problems = iter(corpus.cli_problems(seed, len(CLI_COMMANDS) * len(CLI_FORMATS) * CLI_PROBLEMS_PER_FORMAT))
    for command in CLI_COMMANDS:
        for fmt in CLI_FORMATS:
            for p in [next(problems) for _ in range(CLI_PROBLEMS_PER_FORMAT)]:
                args = [command, "--expr", p.text, "--lower", repr(p.a), "--upper", repr(p.b), "--format", fmt]
                if command == "compare":
                    args += ["--panels", str(p.panels)]
                plain_args = [command, fmt, p.text, p.f_src, p.df_src, repr(p.a), repr(p.b), str(p.panels), "1"]
                ops.append(_cli_op(api, f"{command} {fmt}", args, plain_args, fmt))
    ops.append(_cli_op(api, "compare json, zero reference", NAN_JSON_ARGS, ["compare", "json", "x", "x", "1", "-1", "1", "3", "0"], "json"))
    ops.append(
        _cli_op(api, "integrate, 2000 nested parentheses", DEEP_ARGS, ["integrate", "table", DEEP_TEXT, "x", "1", "0", "1", "3", "1"], "table", diagnostic_ok=True)
    )
    return ops


WORKLOADS = {"integrate": integrate_ops, "compare": compare_ops, "cli": cli_ops}
