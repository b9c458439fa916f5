import itertools
import math

import pytest

from rindler_ferm.modes import FieldFamily, FieldKind, dirac, spinless


def test_admissible_subset_counts_match_binomial():
    # number of admissible m-subsets of the Dirac slots is C(2n, m)
    for n in range(1, 5):
        slots = range(dirac(n).slots)
        for m in range(2 * n + 1):
            count = sum(
                1 for combo in itertools.combinations(slots, m) if len(set(combo)) == m
            )
            assert count == math.comb(2 * n, m)


def test_field_validation():
    with pytest.raises(ValueError):
        FieldKind(FieldFamily.DIRAC, 0)
    with pytest.raises(ValueError):
        spinless(0)
    assert dirac(3).slots == 6
    assert spinless(3).slots == 3
