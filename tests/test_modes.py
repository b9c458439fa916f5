import itertools

import pytest

from rindler_ferm.modes import (
    FieldFamily,
    FieldKind,
    ModeLabel,
    Spin,
    dirac,
    label_at,
    slot_index,
    spinless,
)


def test_canonical_order_examples():
    # slots order the labels by momentum, spin up before down
    field = dirac(3)
    up1, down1, up2 = (
        slot_index(field, ModeLabel(k, spin))
        for k, spin in ((1, Spin.UP), (1, Spin.DOWN), (2, Spin.UP))
    )
    assert up1 < down1 < up2
    assert slot_index(field, ModeLabel(3, Spin.DOWN)) == 5


@pytest.mark.parametrize("field", [dirac(6), spinless(6)])
def test_canonical_order_is_total(field):
    # labels written out in canonical order take the slots 0, 1, 2, ...:
    # each label has a slot of its own, so slots order all labels
    spins = (Spin.UP, Spin.DOWN) if field.family is FieldFamily.DIRAC else (None,)
    momenta = range(1, field.mode_count + 1)
    labels = [ModeLabel(k, spin) for k in momenta for spin in spins]
    assert [slot_index(field, label) for label in labels] == list(range(field.slots))


def test_slot_index_matches_canonical_order():
    for field in (dirac(4), spinless(5)):
        slots = [slot_index(field, lab) for lab in field.labels()]
        assert slots == sorted(slots) == list(range(field.slots))
        for s in range(field.slots):
            assert slot_index(field, label_at(field, s)) == s


def test_label_at_names_the_slot_range_it_refuses():
    for field in (dirac(2), spinless(3)):
        for slot in (-1, field.slots):
            message = rf"^slot {slot} outside 0\.\.{field.slots - 1}$"
            with pytest.raises(ValueError, match=message):
                label_at(field, slot)


def test_admissible_subset_counts_match_binomial():
    # number of admissible ordered m-subsets of Dirac labels is C(2n, m)
    import math

    for n in range(1, 5):
        labels = dirac(n).labels()
        for m in range(2 * n + 1):
            count = sum(
                1 for combo in itertools.combinations(labels, m) if len(set(combo)) == m
            )
            assert count == math.comb(2 * n, m)


def test_field_validation():
    with pytest.raises(ValueError):
        FieldKind(FieldFamily.DIRAC, 0)
    with pytest.raises(ValueError):
        dirac(2).validate_label(ModeLabel(3, Spin.UP))
    with pytest.raises(ValueError):
        dirac(2).validate_label(ModeLabel(1))
    with pytest.raises(ValueError):
        spinless(2).validate_label(ModeLabel(1, Spin.UP))
    assert dirac(3).slots == 6
    assert spinless(3).slots == 3
