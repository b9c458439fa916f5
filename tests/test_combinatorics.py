import itertools
import math

import pytest

from rindler_ferm.combinatorics import (
    block_multiplicities,
    blocks_via_exclusion,
    chi,
    upsilon,
)
from reference import BLOCK_TOPS, block_top, count_admissible
from rindler_ferm.modes import dirac, spinless


def ordered_tuple_count(field, m):
    """First-principles oracle: ordered m-tuples over all slots, filtered by
    Pauli admissibility (no slot repeats) and the canonical ordering
    criterion (slots strictly ascending)."""
    count = 0
    for slots in itertools.product(range(field.slots), repeat=m):
        if len(set(slots)) < m:
            continue
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
    assert block_multiplicities(block_top("vac-one-dirac", 2))[1] == 3
    assert block_multiplicities(block_top("bell-dirac", 1)) == [1]
    assert block_multiplicities(block_top("vac-one-spinless", 3))[2] == 1
    assert block_multiplicities(block_top("bell-spinless", 4)) == [1, 2, 1]


def test_block_row_equals_per_level_binomials():
    for name in BLOCK_TOPS:
        # a spinless Bell state needs two momenta
        for n in [*range(1 + (name == "bell-spinless"), 41), 400, 515]:
            top = block_top(name, n)
            row = [math.comb(top, m) for m in range(top + 1)]
            assert block_multiplicities(top) == row


def test_inclusion_exclusion_forms_collapse_to_binomials():
    # against enumeration, for up to three reserved modes (the first slots),
    # at every m: beyond the top both are 0
    for field in [*map(dirac, range(1, 6)), *map(spinless, range(1, 9))]:
        for reserved in range(min(field.slots, 3) + 1):
            held = set(range(reserved))
            for m in range(field.slots + 1):
                enumerated = sum(
                    1
                    for combo in itertools.combinations(range(field.slots), m)
                    if held.isdisjoint(combo)
                )
                count = blocks_via_exclusion(field, reserved, m)
                assert count == enumerated == math.comb(field.slots - reserved, m)


def test_count_admissible_is_an_actual_enumeration():
    assert count_admissible(dirac(2), 2) == 6
    assert count_admissible(spinless(4), 2) == 6
