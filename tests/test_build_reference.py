"""``build_ham_cycle`` against the table-seeded search build it replaced
for the five table classes (``build_reference.py``).

The walk over the key and completion rows must give the reference's cycle
byte for byte, so ``ham-build`` prints the same ``cycle`` as before.
"""

import pytest

from otisham.constructive import _COMPLETIONS, _table_rows, build_ham_cycle, key_edges

from build_reference import reference_build
from conftest import sweep_parameter_pairs

LARGE_PAIRS = [(81, 80), (81, 81), (161, 160)]


def test_every_pair_up_to_61_matches_the_reference():
    pairs = sweep_parameter_pairs(61)
    assert len(pairs) == 631
    differ = [(m, n) for m, n in pairs if build_ham_cycle(m, n).cycle != reference_build(m, n).cycle]
    assert differ == []


@pytest.mark.parametrize("m,n", LARGE_PAIRS)
def test_large_pairs_match_the_reference(m, n):
    assert build_ham_cycle(m, n).cycle == reference_build(m, n).cycle


def test_completion_rows_repeat_no_key_edge():
    # so that each completion row is needed: dropping any one changes the walk
    for m, n in sweep_parameter_pairs(61) + LARGE_PAIRS:
        key = {(ke.cluster, min(ke.a, ke.b), max(ke.a, ke.b)) for ke in key_edges(m, n)}
        for ke in _table_rows(m, n, _COMPLETIONS):
            assert (ke.cluster, min(ke.a, ke.b), max(ke.a, ke.b)) not in key, (m, n, ke)
