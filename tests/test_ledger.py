"""The cost ledger: evaluation and step totals over the benchmark's corpora, as Tier-1 facts.

How many times nrquad evaluates an integrand, and how many Newton steps
it takes, does not depend on the machine, so each total is pinned here.
Over ``integrate_corpus(0)`` with default settings the ledger counts the
scalar calls and the scalar evaluators built (``count_scalar_calls``), the
batches and their points (``record_batches``), of which it runs none, and
the Newton steps with each termination.  Over ``compare_corpus(0)`` it
counts the reference's points, as scalar calls, and its batches, of which
it runs none; a full ``compare --format json`` pass over it counts the
scalar calls, the evaluators and the batches of every phase.  A change
that moves a total updates it here visibly, with old -> new in
CHANGES.md.
"""

import sys
from collections import Counter
from pathlib import Path

from support import count_scalar_calls, record_batches

from nrquad.baselines import reference_integral
from nrquad.cli import main
from nrquad.expressions import parse
from nrquad.quadrature import Interval, nr_integrate

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from corpus import compare_corpus, integrate_corpus  # noqa: E402 - found through the path above

# each pass's totals, as the README's cost section quotes them
LEDGER = {
    # nr_integrate over integrate_corpus(0), with default settings
    "integrate": {"scalar evaluations": 4_548, "scalar evaluators built": 800, "batches": 0, "points in batches": 0},
    # reference_integral over compare_corpus(0)
    "reference": {"scalar evaluations": 59_096, "scalar evaluators built": 160, "batches": 0, "points in batches": 0},
    # the full compare --format json pass over compare_corpus(0)
    "compare": {
        "scalar evaluations": 64_736,
        "scalar evaluators built": 480,
        "batches": 480,
        "points in batches": 227_872,
    },
}


def totals(calls, batches):
    return {
        "scalar evaluations": calls[0],
        "scalar evaluators built": calls[1],
        "batches": len(batches),
        "points in batches": sum(batches),
    }


def test_integrate_corpus_totals(monkeypatch):
    problems = [(parse(p.text), Interval(p.a, p.b)) for p in integrate_corpus(0)]
    calls, batches = count_scalar_calls(monkeypatch), record_batches(monkeypatch)
    results = [nr_integrate(f, interval) for f, interval in problems]
    # two evaluators per problem, f and f'; a clamped last panel reuses the f(a) that validation found,
    # and the 12 problems with no proof that f' > 0 sample 63 points each through f's
    assert totals(calls, batches) == LEDGER["integrate"]
    assert sum(len(result.trace.steps) for result in results) == 1_502
    terminations = Counter(result.trace.termination.value for result in results)
    assert terminations == {"reached-target": 197, "overshoot-clamped": 191, "residual-small": 12}


def test_compare_corpus_reference_points(monkeypatch):
    problems = [(parse(p.text), Interval(p.a, p.b)) for p in compare_corpus(0)]
    calls, batches = count_scalar_calls(monkeypatch), record_batches(monkeypatch)
    for f, interval in problems:
        reference_integral(f, interval)
    # halving the tolerance of each half panel matters: keeping it whole takes 23,736 points
    assert totals(calls, batches) == LEDGER["reference"]


def test_compare_corpus_full_pass(monkeypatch):
    argvs = [
        ["compare", "--expr", p.text, "--lower", repr(p.a), "--upper", repr(p.b), "--panels", str(p.panels), "--format", "json"]
        for p in compare_corpus(0)
    ]
    calls, batches = count_scalar_calls(monkeypatch), record_batches(monkeypatch)
    assert [main(argv) for argv in argvs] == [0] * len(argvs)
    # three scalar evaluators per problem: f and f' for nr and f for the reference, and validation
    # samples through nr's f; the five rules' shared pass takes three batches per problem (the end nodes,
    # the interior nodes, the midpoints), as no grid is over a CHUNK
    assert totals(calls, batches) == LEDGER["compare"]
