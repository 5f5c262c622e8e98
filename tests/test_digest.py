"""Same bits as a Tier-1 fact: the digest of nrquad's outputs over the benchmark's corpora.

``tests/digest.py`` hashes the ``repr`` of ``differentiate``,
``validate_problem`` and ``nr_integrate`` (or the documented error each
raised) on 2,240 problems, and on the 640 ``compare_corpus`` problems
among them also ``reference_integral`` and the five classical rules, so two versions of the code with the same
digest give the same bits on every one of them.  A change that moves
output bits updates ``EXPECTED`` here visibly, as it would a golden file,
and says so in CHANGES.md.
"""

from digest import digest

EXPECTED = "c9cee67cf602d30d49c032f179bf29dbff9d5fc8627eb357f1696c183818ca0a"


def test_outputs_on_the_benchmark_corpora_keep_their_digest():
    assert digest() == (EXPECTED, 2240)
