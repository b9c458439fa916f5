import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import ladder, superpose
from rindler_ferm.fock import PRUNE_THRESHOLD, coalesce, insertion_signs, norm, prune
from rindler_ferm.modes import dirac, spinless


def terms_of(amps):
    """Term arrays of a ``{(i_bits, iv_bits): amplitude}`` map."""
    keys = list(amps)
    return (
        np.array([key[0] for key in keys], dtype=np.int64),
        np.array([key[1] for key in keys], dtype=np.int64),
        np.array(list(amps.values())),
    )


def basis(i_bits=0, iv_bits=0):
    return terms_of({(i_bits, iv_bits): 1.0})


def amps_of(terms):
    i_bits, iv_bits, amps = terms
    return dict(zip(zip(i_bits.tolist(), iv_bits.tolist()), amps.tolist()))


def overlap(a, b):
    """<a|b>, conjugate-linear in ``a``."""
    b_amps = amps_of(b)
    return sum(
        amp.conjugate() * b_amps[key] for key, amp in amps_of(a).items() if key in b_amps
    )


# --- ladder operator action -------------------------------------------------


def test_create_on_empty_vacuum():
    # slot 0 of dirac(2) is mode (1, up)
    out = ladder(dirac(2), 0, True, basis())
    assert amps_of(out) == {(0b01, 0): 1.0}


def test_double_creation_is_zero():
    out = ladder(dirac(2), 0, True, basis(0b01))
    assert amps_of(out) == {}


def test_annihilation_sign_past_occupied_slot():
    # c_{1,down} |(1,up),(1,down)> = -|(1,up)>: one occupied slot precedes
    out = ladder(dirac(1), 1, False, basis(0b11))
    assert amps_of(out) == {(0b01, 0): -1.0}


def test_region_iv_operator_counts_region_i_occupation():
    # global slot 2 of spinless(2) is region IV's mode 1; two occupied
    # region-I slots precede every region-IV slot
    out = ladder(spinless(2), 2, True, basis(i_bits=0b11, iv_bits=0))
    assert amps_of(out) == {(0b11, 0b01): 1.0}


def test_insertion_sign():
    cases = [(0b0000, 2), (0b0011, 2), (0b0001, 1), (0b0101, 3)]
    signs = [insertion_signs(np.array([bits]), slot)[0] for bits, slot in cases]
    assert signs == [1.0, 1.0, -1.0, 1.0]


# --- norms and sums ---------------------------------------------------------


def test_basis_states_are_orthonormal():
    # orthonormality through norms: one basis state has norm 1, twice the
    # same state coalesces to norm 2, and two distinct ones add in quadrature
    field = dirac(2)
    up, down = basis(0b01), basis(0b10)
    assert norm(up) == 1.0
    assert norm(superpose(field, (1.0, up), (1.0, up))) == 2.0
    assert norm(superpose(field, (1.0, up), (-1.0, down))) == math.sqrt(2.0)
    assert norm(terms_of({})) == 0.0


def test_pruning_drops_tiny_amplitudes():
    field = spinless(1)
    tiny = terms_of({(0, 0): 0.5 * PRUNE_THRESHOLD, (1, 0): 1.0})
    assert amps_of(superpose(field, (1.0, tiny))) == {(1, 0): 1.0}
    # the sum is not pruned: a near-cancellation keeps its tiny residue
    near = terms_of({(1, 0): 1.0 - 0.5 * PRUNE_THRESHOLD})
    residue = amps_of(superpose(field, (1.0, tiny), (-1.0, near)))
    assert residue == {(1, 0): 1.0 - (1.0 - 0.5 * PRUNE_THRESHOLD)}
    assert 0.0 < abs(residue[(1, 0)]) < PRUNE_THRESHOLD



def test_prune_keeps_an_amplitude_of_exactly_the_threshold():
    # the cut is |amp| >= PRUNE_THRESHOLD: the threshold itself is kept, of
    # either sign, and the next double towards 0 is dropped
    below = math.nextafter(PRUNE_THRESHOLD, 0.0)
    amps = np.array([PRUNE_THRESHOLD, below, -PRUNE_THRESHOLD, -below])
    index, kept = prune(np.arange(len(amps)), amps)
    assert index.tolist() == [0, 2]
    assert kept.tolist() == [PRUNE_THRESHOLD, -PRUNE_THRESHOLD]

# --- anticommutation properties ----------------------------------------------


fields_strategy = st.one_of(
    st.integers(1, 3).map(dirac), st.integers(1, 6).map(spinless)
)


@st.composite
def field_state_slots(draw):
    field = draw(fields_strategy)
    total = 2 * field.slots
    i_bits = draw(st.integers(0, (1 << field.slots) - 1))
    iv_bits = draw(st.integers(0, (1 << field.slots) - 1))
    p = draw(st.integers(0, total - 1))
    q = draw(st.integers(0, total - 1))
    return field, i_bits, iv_bits, p, q


def anticommutator(field, a, b, terms):
    """{a, b} of two (global slot, dagger) operators applied to ``terms``,
    coalesced but not pruned; exact zeros are left out."""
    ab = ladder(field, *a, ladder(field, *b, terms))
    ba = ladder(field, *b, ladder(field, *a, terms))
    i_bits, iv_bits, amps = (np.concatenate(column) for column in zip(ab, ba))
    keys, amps = coalesce(i_bits << field.slots | iv_bits, amps)
    mask = (1 << field.slots) - 1
    return {
        (key >> field.slots, key & mask): amp
        for key, amp in zip(keys.tolist(), amps.tolist())
        if amp != 0.0
    }


def assert_canonical_relations(field, state, p, q):
    # {c_p, c+_q} = delta_pq, {c_p, c_q} = 0 and {c+_p, c+_q} = 0
    c_p, c_q = (p, False), (q, False)
    cdag_p, cdag_q = (p, True), (q, True)
    expected = amps_of(state) if p == q else {}
    assert anticommutator(field, c_p, cdag_q, state) == expected
    assert anticommutator(field, c_p, c_q, state) == {}
    assert anticommutator(field, cdag_p, cdag_q, state) == {}


@settings(max_examples=200)
@given(field_state_slots())
def test_canonical_anticommutation_relations(data):
    field, i_bits, iv_bits, p, q = data
    assert_canonical_relations(field, basis(i_bits, iv_bits), p, q)


def whole_basis(field):
    """Every (i_bits, iv_bits) pair in one array, each with its own amplitude."""
    size = 1 << field.slots
    return (
        np.repeat(np.arange(size, dtype=np.int64), size),
        np.tile(np.arange(size, dtype=np.int64), size),
        1.0 + np.arange(size * size, dtype=float),
    )


@pytest.mark.parametrize(
    "field", [dirac(1), dirac(2), spinless(1), spinless(2), spinless(3)]
)
def test_anticommutation_on_the_whole_basis_at_once(field):
    # a ladder that moved amplitudes between rows would break {c_p, c+_p}
    state = whole_basis(field)
    for p in range(2 * field.slots):
        for q in range(2 * field.slots):
            assert_canonical_relations(field, state, p, q)


@st.composite
def sparse_states(draw, field):
    size = 1 << field.slots
    n_terms = draw(st.integers(1, 4))
    amps = {}
    for _ in range(n_terms):
        key = (draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1)))
        re = draw(st.floats(-2, 2, allow_nan=False))
        im = draw(st.floats(-2, 2, allow_nan=False))
        amps[key] = complex(re, im)
    return terms_of(amps)


@st.composite
def adjointness_cases(draw):
    field = draw(fields_strategy)
    a = draw(sparse_states(field))
    b = draw(sparse_states(field))
    slot = draw(st.integers(0, 2 * field.slots - 1))
    dagger = draw(st.booleans())
    return field, a, b, slot, dagger


@settings(max_examples=200)
@given(adjointness_cases())
def test_ladder_adjointness(case):
    # <a|L b> == <L+ a|b> for random sparse vectors
    field, a, b, slot, dagger = case
    lhs = overlap(a, ladder(field, slot, dagger, b))
    rhs = overlap(ladder(field, slot, not dagger, a), b)
    assert lhs == pytest.approx(rhs, abs=1e-12)


# --- norm examples ----------------------------------------------------------


def test_unnormalized_vacuum_norm_matches_enumeration():
    # independent oracle: explicit 4-term enumeration at n=1 Dirac,
    # amplitudes {1, t, t, t^2} -> norm sqrt((1+t^2)^2) = 1/cos^2
    from rindler_ferm.rindler import point_terms, squeeze_grid, vacuum_amplitudes

    t = math.tan(0.3)
    enumerated = math.sqrt(1 + t * t + t * t + t**4)
    assert enumerated == pytest.approx(1.095688915322547, abs=1e-15)
    (raw,) = point_terms(vacuum_amplitudes(dirac(1), squeeze_grid([0.3]), c0=1.0))
    assert norm(raw) == pytest.approx(enumerated, abs=1e-13)
    assert norm(raw) == pytest.approx(1.0 / math.cos(0.3) ** 2, abs=1e-13)
