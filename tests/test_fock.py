import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rindler_ferm.fock import (
    LadderOp,
    PRUNE_THRESHOLD,
    Sector,
    apply_ladder,
    coalesce,
    insertion_signs,
    norm,
    pack_occupation,
    particle_annihilator,
    particle_creator,
    superpose,
    unpack_occupation,
)
from rindler_ferm.modes import ModeLabel, Spin, dirac, label_at, slot_index, spinless

UP, DOWN = Spin.UP, Spin.DOWN


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


# --- occupation packing -----------------------------------------------------


def test_pack_unpack_roundtrip():
    field = dirac(3)
    labels = (ModeLabel(1, DOWN), ModeLabel(3, UP))
    bits = pack_occupation(field, labels)
    assert unpack_occupation(field, bits) == tuple(
        sorted(labels, key=lambda l: (l.momentum, l.spin is DOWN))
    )
    with pytest.raises(ValueError):
        pack_occupation(field, [ModeLabel(1, UP), ModeLabel(1, UP)])


# --- ladder operator action -------------------------------------------------


def test_create_on_empty_vacuum():
    field = dirac(2)
    out = apply_ladder(particle_creator(ModeLabel(1, UP)), field, basis())
    assert amps_of(out) == {(0b01, 0): 1.0}


def test_double_creation_is_zero():
    field = dirac(2)
    single = basis(pack_occupation(field, [ModeLabel(1, UP)]))
    out = apply_ladder(particle_creator(ModeLabel(1, UP)), field, single)
    assert amps_of(out) == {}


def test_annihilation_sign_past_occupied_slot():
    # c_{1,down} |(1,up),(1,down)> = -|(1,up)>: one occupied slot precedes
    field = dirac(1)
    both = basis(pack_occupation(field, [ModeLabel(1, UP), ModeLabel(1, DOWN)]))
    out = apply_ladder(particle_annihilator(ModeLabel(1, DOWN)), field, both)
    assert amps_of(out) == {(0b01, 0): -1.0}


def test_region_iv_operator_counts_region_i_occupation():
    field = spinless(2)
    state = basis(i_bits=0b11, iv_bits=0)
    out = apply_ladder(LadderOp(Sector.ANTIPARTICLE_IV, ModeLabel(1), True), field, state)
    # two occupied region-I slots precede every region-IV slot
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
    up = basis(pack_occupation(field, [ModeLabel(1, UP)]))
    down = basis(pack_occupation(field, [ModeLabel(1, DOWN)]))
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


# --- anticommutation properties ----------------------------------------------


def slot_ops(field, slot, dagger):
    if slot < field.slots:
        return LadderOp(Sector.PARTICLE_I, label_at(field, slot), dagger)
    return LadderOp(Sector.ANTIPARTICLE_IV, label_at(field, slot - field.slots), dagger)


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
    """{a, b} applied to ``terms``, coalesced but not pruned; exact zeros
    are left out."""
    ab = apply_ladder(a, field, apply_ladder(b, field, terms))
    ba = apply_ladder(b, field, apply_ladder(a, field, terms))
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
    c_p, c_q = slot_ops(field, p, False), slot_ops(field, q, False)
    cdag_p, cdag_q = slot_ops(field, p, True), slot_ops(field, q, True)
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


def reference_ladder(op, field, i_bits, iv_bits):
    """One ladder operator on one basis state, by integer bit counting: the
    new (i_bits, iv_bits) and its sign, or None when the term drops."""
    slot = slot_index(field, op.mode)
    in_iv = op.sector is Sector.ANTIPARTICLE_IV
    bits = iv_bits if in_iv else i_bits
    if bool(bits >> slot & 1) == op.dagger:
        return None
    preceding = (bits & ((1 << slot) - 1)).bit_count()
    if in_iv:
        preceding += i_bits.bit_count()
    flipped = bits ^ (1 << slot)
    key = (i_bits, flipped) if in_iv else (flipped, iv_bits)
    return key, -1.0 if preceding & 1 else 1.0


@pytest.mark.parametrize("field", [dirac(2), spinless(3)])
def test_ladder_matches_the_term_by_term_reference(field):
    state = whole_basis(field)
    for slot in range(2 * field.slots):
        for dagger in (False, True):
            op = slot_ops(field, slot, dagger)
            expected = []
            for (i_bits, iv_bits), amp in amps_of(state).items():
                hit = reference_ladder(op, field, i_bits, iv_bits)
                if hit is not None:
                    expected.append((hit[0], hit[1] * amp))
            # same terms, same amplitudes and the input order kept
            assert list(amps_of(apply_ladder(op, field, state)).items()) == expected


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
    return field, a, b, slot_ops(field, slot, dagger)


@settings(max_examples=200)
@given(adjointness_cases())
def test_ladder_adjointness(case):
    # <a|L b> == <L+ a|b> for random sparse vectors
    field, a, b, op = case
    lhs = overlap(a, apply_ladder(op, field, b))
    rhs = overlap(apply_ladder(op.adjoint, field, a), b)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_adjoint_flips_dagger():
    op = particle_creator(ModeLabel(1, UP))
    assert op.adjoint == particle_annihilator(ModeLabel(1, UP))


# --- norm examples ----------------------------------------------------------


def test_unnormalized_vacuum_norm_matches_enumeration():
    # independent oracle: explicit 4-term enumeration at n=1 Dirac,
    # amplitudes {1, t, t, t^2} -> norm sqrt((1+t^2)^2) = 1/cos^2
    from rindler_ferm.rindler import SqueezeParam, point_terms, vacuum_amplitudes

    r = SqueezeParam(0.3)
    t = math.tan(0.3)
    enumerated = math.sqrt(1 + t * t + t * t + t**4)
    assert enumerated == pytest.approx(1.095688915322547, abs=1e-15)
    (raw,) = point_terms(vacuum_amplitudes(dirac(1), [r], c0=1.0))
    assert norm(raw) == pytest.approx(enumerated, abs=1e-13)
    assert norm(raw) == pytest.approx(1.0 / math.cos(0.3) ** 2, abs=1e-13)
