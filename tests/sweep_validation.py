"""A seeded sweep of validation's proof path against the sampling oracle, outside Tier-1.

Draws ``random_tree`` integrands and validates each on every interval of
``support.bound_intervals()``.  Each report of ``validate_problem`` must
equal ``scalar_validate``'s, which samples every problem; the sweep counts
the reports and how many of them took the proof path.  Run it from the
repository root; it takes about half a minute per 100,000 reports:

    PYTHONPATH=src python tests/sweep_validation.py [reports, default 100000] [seed, default 0]

It prints each disagreement and exits 1 if there was one.
"""

from __future__ import annotations

import random
import sys

from support import bound_intervals, random_tree, scalar_validate, takes_proof_path

from nrquad.expressions import to_text
from nrquad.quadrature import validate_problem


def sweep(reports: int, seed: int) -> tuple[int, int, int]:
    """(reports, proved, disagreements) for at least ``reports`` reports drawn with ``seed``."""
    rng = random.Random(seed)
    intervals = bound_intervals()
    done = proved = disagreements = 0
    while done < reports:
        f = random_tree(rng, rng.randint(1, 4))
        for interval in intervals:
            report, oracle = validate_problem(f, interval), scalar_validate(f, interval)
            done += 1
            proved += takes_proof_path(f, interval)
            if report != oracle:
                disagreements += 1
                print(f"{to_text(f)} on [{interval.a!r}, {interval.b!r}]: {report} != {oracle}")
    return done, proved, disagreements


if __name__ == "__main__":
    reports = int(sys.argv[1]) if len(sys.argv) > 1 else 100_000
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    done, proved, disagreements = sweep(reports, seed)
    print(f"seed {seed}: {done} reports, {proved} proved, {disagreements} disagreements")
    sys.exit(1 if disagreements else 0)
