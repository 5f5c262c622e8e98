"""Same bits as a Tier-1 fact: the digest of nrquad's outputs over the benchmark's corpora.

``tests/digest.py`` hashes the ``repr`` of ``differentiate``,
``validate_problem`` and ``nr_integrate`` (or the documented error each
raised) on 2,240 problems, so two versions of the code with the same
digest give the same bits on every one of them.  A change that moves
output bits updates ``EXPECTED`` here visibly, as it would a golden file,
and says so in CHANGES.md.
"""

from digest import digest

EXPECTED = "45bc4f4a8a4d6e78379fa0176622be4b24dc778a3a3320bfbec4a16e9eb004d6"


def test_outputs_on_the_benchmark_corpora_keep_their_digest():
    assert digest() == (EXPECTED, 2240)
