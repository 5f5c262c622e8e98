"""Python call events per phase over the benchmark's corpora, as Tier-1 facts.

The ledger (``test_ledger.py``) counts evaluations; this module counts the
Python work around and inside them.  A ``sys.setprofile`` hook counts each
"call" event, that is each Python frame entered (lambdas, comprehensions
and resumed generators included), under the phase of the innermost phase
function running:

- ``parse``: ``parse``;
- ``differentiate``: ``differentiate``, with ``simplify`` and the builders;
- ``compile``: ``_compile_scalar`` and ``_compile_batch``, building an
  evaluator (running one counts in the phase that calls it);
- ``validate``: ``_validate``;
- ``iterate``: the Newton steps, ``_step`` and ``_iterate``;
- ``reference``: ``reference_integral``;
- ``rules``: ``_grid_rules``, the five uniform rules' pass;
- ``other``: the rest (the command line, rendering, the panel sum).

The counts do not depend on the machine, but they do on the interpreter:
Python 3.12 inlines comprehensions (PEP 709).  So the totals are keyed by
``sys.version_info[:2]``, and on a version with no entry each test fails
and prints its counts.  A change that moves a total updates it here
visibly, with old -> new in CHANGES.md.
"""

import sys
from collections import Counter
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

import nrquad.baselines
from nrquad import _syntax, expressions, newton, quadrature
from nrquad.cli import main
from nrquad.quadrature import Interval, nr_integrate

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from corpus import compare_corpus, integrate_corpus  # noqa: E402 - found through the path above

PHASES = {
    _syntax.parse: "parse",
    expressions.differentiate: "differentiate",
    expressions._compile_scalar: "compile",
    nrquad.baselines._compile_batch: "compile",
    quadrature._validate: "validate",
    newton._step: "iterate",
    newton._iterate: "iterate",
    nrquad.baselines.reference_integral: "reference",
    nrquad.baselines._grid_rules: "rules",
}

# per Python version: each pass's call events by phase
CALL_EVENTS = {
    (3, 11): {
        # 299.9 per problem
        "integrate": {
            "parse": 20_722,
            "differentiate": 25_682,
            "compile": 7_914,
            "validate": 28_600,
            "iterate": 33_597,
            "other": 3_434,
        },
        # 4,697.1 per problem
        "compare": {
            "parse": 7_055,
            "differentiate": 9_480,
            "compile": 7_794,
            "validate": 44_550,
            "iterate": 15_797,
            "reference": 516_807,
            "rules": 12_570,
            "other": 137_484,
        },
    },
}


def call_events(run) -> dict[str, int]:
    """The Python call events of ``run()`` by phase."""
    phases = {function.__code__: phase for function, phase in PHASES.items()}
    counts = Counter()
    running = [(None, "other")]  # the frames of the phase functions running, innermost last

    def profile(frame, event, arg):
        if event == "call":
            phase = phases.get(frame.f_code)
            if phase is not None:
                running.append((frame, phase))
            counts[running[-1][1]] += 1
        elif event == "return" and frame is running[-1][0]:
            running.pop()

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return dict(counts)


def check(name, counts):
    pinned = CALL_EVENTS.get(sys.version_info[:2])
    if pinned is None:
        pytest.fail(f"no call-event totals for Python {sys.version_info[:2]}; {name} counts {counts}")
    assert counts == pinned[name], counts


def test_integrate_corpus_call_events():
    problems = [(p.text, Interval(p.a, p.b)) for p in integrate_corpus(0)]
    nr_integrate(_syntax.parse(problems[0][0]), problems[0][1])  # warm: nothing is loaded or cached on first use
    counts = call_events(lambda: [nr_integrate(_syntax.parse(text), interval) for text, interval in problems])
    check("integrate", counts)


def test_compare_corpus_full_pass_call_events():
    argvs = [
        ["compare", "--expr", p.text, "--lower", repr(p.a), "--upper", repr(p.b), "--panels", str(p.panels), "--format", "json"]
        for p in compare_corpus(0)
    ]
    with redirect_stdout(StringIO()):
        assert main(argvs[0]) == 0  # warm: compare loads baselines and json on first use
        counts = call_events(lambda: [main(argv) for argv in argvs])
    check("compare", counts)
