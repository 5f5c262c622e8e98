"""A seeded sweep of ``parse`` against its recursive-descent oracle, outside Tier-1.

Draws sources as ``TestDescentOracle`` does, with ``support.edited_sources``:
printed ``random_tree`` trees, each with every one-character deletion and ten
random one-character insertions.  ``parse`` must give what ``descent_parse``
gives for each: the same tree, or a ``ParseError`` with the same message and
offset.  Run it from the repository root; it takes about five seconds per
50,000 sources:

    PYTHONPATH=src python tests/sweep_parse.py [sources, default 50000] [seed, default 0]

It prints each disagreement and exits 1 if there was one.
"""

from __future__ import annotations

import random
import sys
from itertools import islice

from support import descent_parse, edited_sources, parse_outcome

from nrquad.expressions import parse


def sweep(sources: int, seed: int) -> tuple[int, int, int]:
    """(sources, rejected, disagreements) for ``sources`` sources drawn with ``seed``."""
    done = rejected = disagreements = 0
    for source in islice(edited_sources(random.Random(seed), None), sources):
        got, want = parse_outcome(parse, source), parse_outcome(descent_parse, source)
        done += 1
        rejected += isinstance(want, tuple)
        if got != want:
            disagreements += 1
            print(f"{source!r}: {got} != {want}")
    return done, rejected, disagreements


if __name__ == "__main__":
    sources = int(sys.argv[1]) if len(sys.argv) > 1 else 50_000
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    done, rejected, disagreements = sweep(sources, seed)
    print(f"seed {seed}: {done} sources, {rejected} rejected, {disagreements} disagreements")
    sys.exit(1 if disagreements else 0)
