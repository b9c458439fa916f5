import itertools
import math

import pytest

from rindler_ferm.combinatorics import (
    bell_blocks_via_exclusion,
    block_multiplicities,
    chi,
    count_admissible,
    spinless_blocks_via_exclusion,
    upsilon,
    vac_one_blocks_via_exclusion,
)
from reference import block_top
from rindler_ferm.density import ScenarioKind
from rindler_ferm.modes import dirac, slot_index, spinless


def ordered_tuple_count(field, m):
    """First-principles oracle: ordered m-tuples over all labels, filtered by
    Pauli admissibility (no label repeats) and the canonical ordering
    criterion (slots strictly ascending)."""
    labels = field.labels()
    count = 0
    for combo in itertools.product(labels, repeat=m):
        if len(set(combo)) < m:
            continue
        slots = [slot_index(field, label) for label in combo]
        if all(a < b for a, b in zip(slots, slots[1:])):
            count += 1
    return count


def test_upsilon_examples():
    assert upsilon(1, 1) == 2
    assert upsilon(2, 2) == 6 == math.comb(4, 2)
    for n in range(1, 7):
        assert upsilon(n, 0) == 1


def test_chi_examples():
    assert chi(3, 2) == 3
    assert chi(5, 0) == 1
    assert chi(4, 4) == 1


def test_domain_errors():
    with pytest.raises(ValueError):
        upsilon(2, 5)
    with pytest.raises(ValueError):
        upsilon(2, -1)
    with pytest.raises(ValueError):
        chi(3, 4)


def test_upsilon_equals_binomial_and_enumeration():
    for n in range(1, 7):
        for m in range(2 * n + 1):
            assert count_admissible(dirac(n), m) == upsilon(n, m) == math.comb(2 * n, m)


def test_chi_equals_binomial_and_enumeration():
    for n in range(1, 7):
        for m in range(n + 1):
            assert count_admissible(spinless(n), m) == chi(n, m) == math.comb(n, m)


def test_pair_sum_matches_first_principles_tuples():
    # full ordered-tuple filtering is exponential; keep it to small n
    for n in range(1, 4):
        for m in range(2 * n + 1):
            assert upsilon(n, m) == ordered_tuple_count(dirac(n), m)
        for m in range(n + 1):
            assert chi(n, m) == ordered_tuple_count(spinless(n), m)


def test_block_multiplicity_examples():
    assert block_multiplicities(block_top(ScenarioKind.VAC_ONE_DIRAC, 2))[1] == 3
    assert block_multiplicities(block_top(ScenarioKind.BELL_DIRAC, 1)) == [1]
    assert block_multiplicities(block_top(ScenarioKind.VAC_ONE_SPINLESS, 3))[2] == 1


def test_block_row_equals_per_level_binomials():
    for kind in ScenarioKind:
        for n in [*range(1, 41), 400, 515]:
            top = block_top(kind, n)
            row = [math.comb(top, m) for m in range(top + 1)]
            assert block_multiplicities(top) == row


def test_inclusion_exclusion_forms_collapse_to_binomials():
    for n in range(1, 7):
        for m in range(2 * n):
            assert vac_one_blocks_via_exclusion(n, m) == math.comb(2 * n - 1, m)
            assert vac_one_blocks_via_exclusion(n, m) == block_multiplicities(
                block_top(ScenarioKind.VAC_ONE_DIRAC, n)
            )[m]
        for m in range(2 * n - 1):
            assert bell_blocks_via_exclusion(n, m) == math.comb(2 * n - 2, m)
        for m in range(n):
            assert spinless_blocks_via_exclusion(n, m) == math.comb(n - 1, m)


def test_count_admissible_is_an_actual_enumeration():
    assert count_admissible(dirac(2), 2) == 6
    assert count_admissible(spinless(4), 2) == 6
