"""A SHA-256 digest of nrquad's outputs on the benchmark's corpora, outside Tier-1.

For every problem of ``integrate_corpus`` and ``compare_corpus`` from
``bench/corpus.py``, seeds 0 to 3 (2,240 problems), it hashes the ``repr``
of ``differentiate(f)``, of ``validate_problem(f, interval)`` and of
``nr_integrate(f, interval)``.  For each ``compare_corpus`` problem it also
hashes ``reference_integral(f, interval)`` and the five classical rules at
the problem's ``panels``, the values that ``compare`` reports.  A call
that raises a documented error (``NewtonError``, ``ValidationError``,
``DepthLimitError`` or a rule's ``ValueError``) gives its type and message
instead.  ``repr`` spells every float exactly, so two versions of the code that print the
same digest give the same bits on all of these, and the digest changes
only with a change to one of these outputs that a user can see.  Run it
from the repository root; it takes a few seconds:

    PYTHONPATH=src python tests/digest.py

Given an expected hex digest, it also exits with status 1 if the digest
differs, so a change meant to keep every bit is checked with one command:

    PYTHONPATH=src python tests/digest.py c9cee67cf602d30d49c032f179bf29dbff9d5fc8627eb357f1696c183818ca0a
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from corpus import compare_corpus, integrate_corpus  # noqa: E402 - found through the path above

from nrquad.baselines import (  # noqa: E402
    DepthLimitError,
    left_riemann,
    midpoint,
    reference_integral,
    right_riemann,
    simpson,
    trapezoid,
)
from nrquad.expressions import differentiate, parse  # noqa: E402
from nrquad.newton import NewtonError  # noqa: E402
from nrquad.quadrature import Interval, ValidationError, nr_integrate, validate_problem  # noqa: E402

SEEDS = range(4)
RULES = (left_riemann, right_riemann, midpoint, trapezoid, simpson)


def outcome(call, *args) -> str:
    try:
        return repr(call(*args))
    except (NewtonError, ValidationError, DepthLimitError, ValueError) as error:  # a documented failure is an output too
        return f"{type(error).__name__}: {error}"


def digest() -> tuple[str, int]:
    """The hex digest, and how many problems went into it."""
    sha = hashlib.sha256()
    count = 0
    for seed in SEEDS:
        for corpus in (integrate_corpus, compare_corpus):
            for problem in corpus(seed):
                f, interval = parse(problem.text), Interval(problem.a, problem.b)
                texts = [outcome(differentiate, f), outcome(validate_problem, f, interval), outcome(nr_integrate, f, interval)]
                if corpus is compare_corpus:
                    texts.append(outcome(reference_integral, f, interval))
                    texts += [outcome(rule, f, interval, problem.panels) for rule in RULES]
                for text in texts:
                    sha.update(text.encode())
                    sha.update(b"\n")
                count += 1
    return sha.hexdigest(), count


if __name__ == "__main__":
    hexdigest, count = digest()
    print(f"{hexdigest} over {count} problems")
    if len(sys.argv) > 1 and sys.argv[1] != hexdigest:
        sys.exit(f"expected {sys.argv[1]}")
