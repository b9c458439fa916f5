import math
import random
from dataclasses import dataclass

import numpy as np
import pytest

from rindler_ferm.density import (
    Scenario,
    bell,
    build_joint_state,
    d_ladder,
    tan_sq_powers,
    vac_one,
)
from reference import ladder, superpose
from rindler_ferm.fock import (
    PRUNE_THRESHOLD,
    Terms,
    coalesce,
    insertion_signs,
    norm,
    prune,
)
from rindler_ferm.modes import FieldKind, dirac, spinless
from rindler_ferm.rindler import (
    _level_table,
    annihilation_residuals,
    float_powers,
    from_acceleration,
    one_particle_amplitudes,
    pair_ordering_sign,
    point_terms,
    squeeze_grid,
    vacuum_amplitudes,
)
from rindler_ferm.verify import (
    CheckResult,
    Tolerances,
    check_annihilation,
    check_normalization,
    NEGATIVITY_R,
    ORACLE_R,
    density_grid,
    oracle_fields,
    oracle_vacua,
)

R_GRID = squeeze_grid(ORACLE_R)


def vacuum_at(field, r, c0=None):
    """The vacuum's terms at the squeezing ``r``, from the grid builder."""
    (terms,) = point_terms(vacuum_amplitudes(field, squeeze_grid([r]), c0))
    return terms


def one_particle_at(field, r, slot):
    """The terms of the one-particle state of ``slot`` at the squeezing
    ``r``, from the grid builder."""
    (terms,) = point_terms(one_particle_amplitudes(field, squeeze_grid([r]), slot))
    return terms


def amps_of(terms):
    i_bits, iv_bits, amps = terms
    return dict(zip(zip(i_bits.tolist(), iv_bits.tolist()), amps.tolist()))


def overlap(a, b):
    """<a|b>, conjugate-linear in ``a``."""
    b_amps = amps_of(b)
    return sum(
        amp.conjugate() * b_amps[key] for key, amp in amps_of(a).items() if key in b_amps
    )


# --- scalar references of the grid forms ------------------------------------------


@dataclass(frozen=True, slots=True)
class VacuumCoefficients:
    """The squeezed-vacuum amplitude ladder C^m and the one-particle ladder
    A^m at one squeezing, one Python float operation at a time: the scalar
    reference of the grid ladder tables.

    c0 defaults to the normalizing value cos(r)^slots; passing c0=1.0 yields
    the raw ansatz whose norm must come out as 1/cos(r)^slots.
    """

    c0: float
    cos_r: float
    sin_r: float
    tan_r: float

    @classmethod
    def for_field(
        cls, field: FieldKind, r: float, c0: float | None = None
    ) -> "VacuumCoefficients":
        cos_r = math.cos(r)
        if c0 is None:
            c0 = cos_r ** field.slots
        return cls(c0=c0, cos_r=cos_r, sin_r=math.sin(r), tan_r=math.tan(r))

    def cm(self, m: int) -> float:
        return self.c0 * self.tan_r**m

    def am(self, m: int) -> float:
        # equal to cm(m)/cos_r, kept in the defining ladder combination
        return self.cm(m) * self.cos_r + self.cm(m + 1) * self.sin_r


def minkowski_annihilations(
    field: FieldKind, r: float, terms: Terms
) -> tuple[list[int], Terms]:
    """The inertial annihilator cos(r) c_I(mode) - sin(r) d+_IV(mode) of
    the mode in every slot of ``field`` applied to one point's ``terms``, in
    one pass: the per-point reference of the grid annihilator.

    Every (mode, term) pair the operator keeps is gathered at once (mode k
    acts on slot k). Both parts carry the reference ladder's signs, each scaled
    part is pruned, and the c_I part goes before the d+_IV part; one stable
    coalesce on (mode, region-I bits, region-IV bits) then sums each mode's
    parts as ``superpose`` does. Returns the run bounds,
    ``field.slots + 1`` of them, and the summed terms: mode k's
    result is rows ``bounds[k]:bounds[k + 1]``, in ascending basis order.
    """
    slots = field.slots
    i_bits, iv_bits, amps = terms
    slot = np.arange(slots, dtype=np.int64)[:, None]
    c_mode, c_row = np.nonzero(i_bits >> slot & 1)
    d_mode, d_row = np.nonzero(~iv_bits >> slot & 1)
    c_bit, d_bit = 1 << c_mode, 1 << d_mode
    c_i, d_iv = i_bits[c_row], iv_bits[d_row]
    c_odd = np.bitwise_count(c_i & (c_bit - 1)) & 1
    d_odd = (np.bitwise_count(d_iv & (d_bit - 1)) + np.bitwise_count(i_bits)[d_row]) & 1
    c_amps = math.cos(r) * (np.where(c_odd, -1.0, 1.0) * amps[c_row])
    d_amps = -math.sin(r) * (np.where(d_odd, -1.0, 1.0) * amps[d_row])
    c_part = prune(c_mode, c_i ^ c_bit, iv_bits[c_row], c_amps)
    d_part = prune(d_mode, i_bits[d_row], d_iv ^ d_bit, d_amps)
    mode, i_bits, iv_bits, amps = (np.concatenate(pair) for pair in zip(c_part, d_part))
    keys, amps = coalesce(mode << (2 * slots) | i_bits << slots | iv_bits, amps)
    bounds = np.searchsorted(keys, np.arange(slots + 1) << (2 * slots)).tolist()
    sector = (1 << slots) - 1
    return bounds, (keys >> slots & sector, keys & sector, amps)


def reference_residuals(field, r, terms):
    """The norm of every mode's :func:`minkowski_annihilations` result, each
    summed by the builtin ``sum`` over its terms in basis order."""
    bounds, (_, _, amps) = minkowski_annihilations(field, r, terms)
    squares = (amps.real**2 + amps.imag**2).tolist()
    return [math.sqrt(sum(squares[lo:hi])) for lo, hi in zip(bounds, bounds[1:])]


def annihilated(field, r, slot, terms):
    """The inertial annihilator of the mode in ``slot`` on ``terms``, taken
    out of the batched result of every mode."""
    bounds, columns = minkowski_annihilations(field, r, terms)
    return tuple(column[bounds[slot] : bounds[slot + 1]] for column in columns)


def reference_annihilation(field, r, slot, terms):
    """The inertial annihilator of the mode in ``slot``, one ladder operator
    at a time."""
    return superpose(
        field,
        (math.cos(r), ladder(field, slot, False, terms)),
        (-math.sin(r), ladder(field, field.slots + slot, True, terms)),
    )


def inertial_creation(field, r, slot, terms):
    """Adjoint of the inertial annihilator: cos(r) c+_I(mode) - sin(r)
    d_IV(mode), for the mode in ``slot``."""
    return superpose(
        field,
        (math.cos(r), ladder(field, slot, True, terms)),
        (-math.sin(r), ladder(field, field.slots + slot, False, terms)),
    )


# --- squeezing parameter ------------------------------------------------------


def test_squeeze_grid_bounds():
    grid = squeeze_grid([0.0, math.pi / 4])
    assert grid.r.tolist() == [0.0, math.pi / 4]
    assert len(squeeze_grid([])) == 0
    for bad in (-1e-9, math.pi / 4 + 1e-9, math.nextafter(math.pi / 4, 1), math.nan):
        with pytest.raises(ValueError, match=r"r=.* outside \[0, pi/4\]"):
            squeeze_grid([0.3, bad])


def test_squeeze_grid_holds_the_math_doubles():
    rs = [0.0, 5e-324, 1e-9, 0.3, 0.6, math.pi / 4] + [
        random.Random(3).uniform(0.0, math.pi / 4) for _ in range(50)
    ]
    grid = squeeze_grid(rs)
    for name in ("cos", "sin", "tan"):
        column = getattr(grid, name)
        assert column.dtype == np.float64
        assert column.tolist() == [getattr(math, name)(r) for r in rs]
    sliced = grid[2:4]
    assert len(sliced) == 2
    assert sliced.r.tolist() == rs[2:4] and sliced.tan.tolist() == grid.tan[2:4].tolist()



def test_power_tables_are_the_scalar_float_pow_bit_for_bit():
    # np.power may take a SIMD pow that differs from the scalar one in the
    # last bit on some lanes; every power table must hold the doubles of
    # Python's float pow, at levels up to a spinless n=1030 series. The
    # bases: tan r, tan^2 r and cos r at seeded r in [0, pi/4], and 0, the
    # least subnormal, 1e-300 and the largest double below 1
    rng = random.Random(2027)
    ends = [0.0, 5e-324, 1e-300, math.nextafter(math.pi / 4, 0.0), math.pi / 4]
    rs = squeeze_grid(ends + [rng.uniform(0.0, math.pi / 4) for _ in range(27)])
    tan, cos = rs.tan.tolist(), rs.cos.tolist()
    specials = [0.0, 5e-324, 1e-300, math.nextafter(1.0, 0.0)]
    bases = tan + [t * t for t in tan] + cos + specials
    field = spinless(1030)
    levels = field.slots + 1

    def same_doubles(got, want):
        return np.array_equal(got.view(np.int64), np.array(want).view(np.int64))

    want = [[b**m for m in range(levels)] for b in bases]
    assert same_doubles(float_powers(np.array(bases), levels), want)
    want = [[c**field.slots * t**m for m in range(levels)] for t, c in zip(tan, cos)]
    assert same_doubles(_level_table(field, rs), want)
    powers = tan_sq_powers(rs, levels)
    c0s = [c**field.slots for c in cos]
    for i in range(3):
        want = [
            [(c0 * c0) * (t * t) ** m / c**i for m in range(levels)]
            for t, c, c0 in zip(tan, cos, c0s)
        ]
        assert same_doubles(d_ladder(field, rs, powers, i), want)


def test_from_acceleration_limits():
    assert from_acceleration(math.inf, 1.0, 1.0) == math.pi / 4
    assert from_acceleration(1e12, 1.0, 1.0) == pytest.approx(math.pi / 4, abs=1e-11)
    assert from_acceleration(1e-6, 1.0, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_from_acceleration_direct_substitution():
    # k0 c / a = ln(2)/pi makes tan r = 1/2
    a = math.pi / math.log(2.0)
    assert from_acceleration(a, 1.0, 1.0) == pytest.approx(
        0.4636476090008061, abs=1e-15
    )


@pytest.mark.parametrize("k0,c,a", [(2.0, 3.0, 5.0), (0.5, 4.0, 0.7), (7.0, 3.0, 40.0)])
def test_from_acceleration_scales_with_k0_times_c(k0, c, a):
    # tan r = exp(-pi k0 c / a) with k0 != c != 1, so swapping k0 c for
    # k0 / c (or c / k0) shows
    r = from_acceleration(a, k0, c)
    want = math.exp(-math.pi * k0 * c / a)
    assert math.tan(r) == pytest.approx(want, rel=1e-15, abs=0)
    for ratio in (k0 / c, c / k0):
        assert r != pytest.approx(math.atan(math.exp(-math.pi * ratio / a)), rel=1e-6)


def test_from_acceleration_monotone_and_validated():
    values = [from_acceleration(a, 1.0, 1.0) for a in (0.5, 1.0, 2.0, 10.0)]
    assert values == sorted(values)
    for bad in ((0.0, 1, 1), (1, -2, 1), (1, 1, 0.0)):
        with pytest.raises(ValueError):
            from_acceleration(*bad)


# --- coefficient ladders ------------------------------------------------------


def test_vacuum_coefficient_closed_forms():
    r = 0.37
    for field in (dirac(3), spinless(4)):
        coeffs = VacuumCoefficients.for_field(field, r)
        assert coeffs.c0 == pytest.approx(math.cos(0.37) ** field.slots, abs=1e-15)
        for m in range(field.slots):
            assert coeffs.cm(m) == pytest.approx(
                coeffs.c0 * math.tan(0.37) ** m, abs=1e-15
            )
            assert coeffs.am(m) == pytest.approx(
                coeffs.cm(m) / math.cos(0.37), abs=1e-15
            )


def test_pair_ordering_sign_period_four():
    assert [pair_ordering_sign(m) for m in range(8)] == [1, 1, -1, -1, 1, 1, -1, -1]


# --- vacuum -------------------------------------------------------------------


def test_vacuum_at_zero_squeezing_is_bare():
    for field in (dirac(2), spinless(3)):
        vac = vacuum_at(field, 0.0)
        assert amps_of(vac) == {(0, 0): 1.0}


def test_vacuum_dirac_n1_enumeration():
    field = dirac(1)
    r = 0.3
    c, t = math.cos(0.3), math.tan(0.3)
    vac = vacuum_at(field, r)
    amps = amps_of(vac)
    up, down = 1 << 0, 1 << 1  # momentum 1, spin up and down
    both = up | down
    assert set(amps) == {(0, 0), (up, up), (down, down), (both, both)}
    assert amps[(0, 0)] == pytest.approx(c * c, abs=1e-15)
    for bits in (up, down):
        assert abs(amps[(bits, bits)]) == pytest.approx(c * c * t, abs=1e-15)
    assert abs(amps[(both, both)]) == pytest.approx(c * c * t * t, abs=1e-15)
    assert norm(vac) == pytest.approx(1.0, abs=1e-13)


def test_vacuum_spinless_n2_enumeration():
    field = spinless(2)
    r = 0.5
    c, t = math.cos(0.5), math.tan(0.5)
    amps = amps_of(vacuum_at(field, r))
    assert set(amps) == {(0b00, 0b00), (0b01, 0b01), (0b10, 0b10), (0b11, 0b11)}
    magnitudes = sorted(abs(v) for v in amps.values())
    expected = sorted([c * c, c * c * t, c * c * t, c * c * t * t])
    assert magnitudes == pytest.approx(expected, abs=1e-15)


def test_vacuum_amplitude_depends_only_on_pair_count():
    vac = vacuum_at(dirac(3), 0.55)
    by_m = {}
    for (i_bits, _), amp in amps_of(vac).items():
        by_m.setdefault(i_bits.bit_count(), set()).add(round(abs(amp), 15))
    for m, magnitudes in by_m.items():
        assert len(magnitudes) == 1, f"m={m} carries distinct magnitudes"


@pytest.mark.parametrize(
    "field", [dirac(1), dirac(2), dirac(3), spinless(1), spinless(4)]
)
def test_vacuum_unit_norm_on_grid(field):
    for vacuum in point_terms(vacuum_amplitudes(field, R_GRID)):
        assert norm(vacuum) == pytest.approx(1.0, abs=1e-12)


def test_unnormalized_norm_closed_form_on_grid():
    for field in (dirac(1), dirac(3), spinless(2), spinless(5)):
        raws = point_terms(vacuum_amplitudes(field, R_GRID, c0=1.0))
        for r, raw_terms in zip(ORACLE_R, raws):
            raw = norm(raw_terms)
            assert raw == pytest.approx(1.0 / math.cos(r) ** field.slots, abs=1e-12)


# --- annihilation oracle --------------------------------------------------------


@pytest.mark.parametrize(
    "field", [dirac(1), dirac(2), dirac(3), spinless(1), spinless(3), spinless(5)]
)
def test_annihilation_oracle(field):
    residuals = annihilation_residuals(field, R_GRID, vacuum_amplitudes(field, R_GRID))
    assert len(residuals) == len(R_GRID)
    assert max(map(max, residuals)) < 1e-10


def test_annihilation_oracle_zero_is_not_pruned_away():
    # the annihilator composed without any pruning, over verify's oracle
    # grid: the residual is genuinely tiny, not dropped by PRUNE_THRESHOLD
    worst = 0.0
    for field in oracle_fields():
        for r in ORACLE_R:
            vac = vacuum_at(field, r)
            for slot in range(field.slots):
                c_i = ladder(field, slot, False, vac)
                d_iv = ladder(field, field.slots + slot, True, vac)
                i_bits, iv_bits, amps = (np.concatenate(col) for col in zip(c_i, d_iv))
                weights = np.concatenate((
                    np.full(len(c_i[2]), math.cos(r)),
                    np.full(len(d_iv[2]), -math.sin(r)),
                ))
                _, residual = coalesce(i_bits << field.slots | iv_bits, weights * amps)
                worst = max(worst, math.sqrt(sum((residual * residual).tolist())))
    assert worst <= 1e-15


def test_annihilation_at_zero_squeezing_reduces_to_region_i():
    field = dirac(1)
    r = 0.0
    one = one_particle_at(field, r, 0)
    out = annihilated(field, r, 0, one)
    assert amps_of(out) == {(0, 0): 1.0}


def flipped_pair(terms):
    """``terms`` (one point's, or a grid-form state) with the sign of the
    (0b0011, 0b0011) amplitude flipped."""
    i_bits, iv_bits, amps = terms
    pair = (i_bits == 0b0011) & (iv_bits == 0b0011)
    return i_bits, iv_bits, np.where(pair, -amps, amps)


def test_flipped_pair_sign_breaks_the_oracle():
    # deliberately corrupt one pair amplitude: the residual is O(sin r)
    field = dirac(2)
    rs = squeeze_grid([0.4])
    broken = flipped_pair(vacuum_amplitudes(field, rs))
    (residuals,) = annihilation_residuals(field, rs, broken)
    assert max(residuals) > 0.1 * math.sin(0.4)


@pytest.mark.parametrize(
    "field",
    oracle_fields() + [dirac(6), spinless(12)],
    ids=lambda field: f"{field.family.value}-n{field.mode_count}",
)
def test_batched_oracle_matches_the_per_mode_reference_bit_for_bit(field):
    # the vacuum, two states the annihilators do not kill, and the vacuum
    # scaled to the prune threshold, where pruning each scaled part matters;
    # each in grid form, and each point's terms also through the per-point
    # batched reference
    grid = R_GRID
    vacuum = vacuum_amplitudes(field, grid)
    states = [
        vacuum,
        one_particle_amplitudes(field, grid, field.slots - 1),
        flipped_pair(vacuum),
        (*vacuum[:2], 2 * PRUNE_THRESHOLD * vacuum[2]),
    ]
    worst = 0.0
    for state in states:
        for r, terms, residuals in zip(
            ORACLE_R, point_terms(state), annihilation_residuals(field, grid, state)
        ):
            bounds, columns = minkowski_annihilations(field, r, terms)
            expected = []
            for k in range(field.slots):
                got = [column[bounds[k] : bounds[k + 1]] for column in columns]
                want = reference_annihilation(field, r, k, terms)
                # terms, and amplitudes by bit pattern (real here)
                for got_column, want_column in zip(got, want):
                    assert np.array_equal(
                        got_column.view(np.int64), want_column.view(np.int64)
                    )
                expected.append(norm(want))
            assert [x.hex() for x in residuals] == [x.hex() for x in expected]
            worst = max(worst, *residuals)
    # non-zero residuals are covered once r > 0
    assert worst > 0.1


def reference_check_annihilation(tols):
    """``check_annihilation`` with one reference annihilator per mode, on
    the per-point reference vacuum."""
    worst, cases, failures = 0.0, 0, []
    for field in oracle_fields():
        for r in ORACLE_R:
            vacuum = reference_vacuum_amplitudes(field, r)
            for slot in range(field.slots):
                residual = norm(reference_annihilation(field, r, slot, vacuum))
                cases += 1
                worst = max(worst, residual)
                if residual >= tols.annihilation:
                    failures.append(
                        f"{field.family.value} n={field.mode_count} r={r:.4f} "
                        f"slot={slot} residual={residual:.3e}"
                    )
    return CheckResult(
        "annihilation oracle", not failures, worst, tols.annihilation, cases, failures
    )


@pytest.mark.parametrize("tolerance", [1e-10, 1e-300])
def test_check_annihilation_matches_the_per_mode_reference(tolerance):
    tols = Tolerances(annihilation=tolerance)
    result = check_annihilation(oracle_vacua(), tols)
    assert result == reference_check_annihilation(tols)
    assert result.cases == 369
    if tolerance == 1e-300:
        assert result.failures


def reference_check_normalization(tols):
    """``check_normalization`` one point at a time, on the per-point
    reference vacuum."""
    worst, cases, failures = 0.0, 0, []
    for field in oracle_fields():
        for r in ORACLE_R:
            raw = norm(reference_vacuum_amplitudes(field, r, c0=1.0))
            expected = 1.0 / math.cos(r) ** field.slots
            normalized = norm(reference_vacuum_amplitudes(field, r))
            dev = max(abs(raw - expected), abs(normalized - 1.0))
            cases += 1
            worst = max(worst, dev)
            if dev >= tols.normalization:
                failures.append(
                    f"{field.family.value} n={field.mode_count} r={r:.4f} dev={dev:.3e}"
                )
    return CheckResult(
        "vacuum normalization", not failures, worst, tols.normalization, cases, failures
    )


@pytest.mark.parametrize("tolerance", [1e-12, 1e-300])
def test_check_normalization_matches_the_per_point_reference(tolerance):
    tols = Tolerances(normalization=tolerance)
    result = check_normalization(oracle_vacua(), tols)
    assert result == reference_check_normalization(tols)
    assert result.cases == 90
    if tolerance == 1e-300:
        assert result.failures


# --- one-particle states --------------------------------------------------------


def test_one_particle_at_zero_squeezing():
    field = dirac(2)
    excited = 3  # momentum 2, spin down
    one = one_particle_at(field, 0.0, excited)
    assert amps_of(one) == {(1 << excited, 0): 1.0}


def test_one_particle_dirac_n1_enumeration():
    field = dirac(1)
    r = 0.6
    c, t = math.cos(0.6), math.tan(0.6)
    one = one_particle_at(field, r, 0)
    amps = amps_of(one)
    up, down = 1 << 0, 1 << 1  # momentum 1, spin up and down
    assert set(amps) == {(up, 0), (up | down, down)}
    assert abs(amps[(up, 0)]) == pytest.approx(c, abs=1e-15)
    assert abs(amps[(up | down, down)]) == pytest.approx(c * t, abs=1e-15)
    assert norm(one) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("field", [spinless(1), dirac(3), spinless(2), spinless(4)])
def test_one_particle_unit_norm_and_creation_equivalence(field):
    for r in ORACLE_R:
        for excited in range(field.slots):
            one = one_particle_at(field, r, excited)
            assert norm(one) == pytest.approx(1.0, abs=1e-12)
            created = inertial_creation(field, r, excited, vacuum_at(field, r))
            # equality up to a global phase: |<a+0|one>| = ||a+0|| = 1
            assert abs(overlap(created, one)) == pytest.approx(norm(created), abs=1e-10)
            assert norm(created) == pytest.approx(1.0, abs=1e-12)


def test_annihilating_the_excitation_recovers_the_vacuum():
    field = spinless(3)
    r = 0.45
    excited = 1  # momentum 2
    one = one_particle_at(field, r, excited)
    recovered = annihilated(field, r, excited, one)
    vac = vacuum_at(field, r)
    phase = overlap(vac, recovered)
    assert abs(phase) == pytest.approx(1.0, abs=1e-10)
    aligned = superpose(field, (1.0, recovered), (-phase / abs(phase), vac))
    assert norm(aligned) < 1e-10


# --- grid builders against the per-point reference ------------------------------


def reference_vacuum_row(field, r, c0=None):
    """The vacuum at one squeezing, unpruned: the scalar level list gathered
    by popcount."""
    coeffs = VacuumCoefficients.for_field(field, r, c0)
    level = np.array(
        [coeffs.cm(m) * pair_ordering_sign(m) for m in range(field.slots + 1)]
    )
    bits = np.arange(1 << field.slots, dtype=np.int64)
    return bits, bits, level[np.bitwise_count(bits)]


def reference_one_particle_row(field, r, slot):
    """The one-particle state of ``slot`` at one squeezing, unpruned, built
    as the vacuum is."""
    coeffs = VacuumCoefficients.for_field(field, r)
    bit = 1 << slot
    level = np.array([coeffs.am(m) * pair_ordering_sign(m) for m in range(field.slots)])
    bits = np.arange(1 << field.slots, dtype=np.int64)
    bits = bits[bits & bit == 0]
    amps = level[np.bitwise_count(bits)] * insertion_signs(bits, slot)
    return bits | bit, bits, amps


def reference_vacuum_amplitudes(field, r, c0=None):
    """The reference vacuum at one squeezing, pruned."""
    return prune(*reference_vacuum_row(field, r, c0))


def reference_one_particle_amplitudes(field, r, slot):
    """The reference one-particle state of ``slot`` at one squeezing, pruned."""
    return prune(*reference_one_particle_row(field, r, slot))


def reference_build_joint_state(scenario, field, rs):
    """The joint state one point at a time: both reference branches of every
    point, point-major, pruned before and after the 1/sqrt(2)."""
    branches = []
    for r in rs:
        for modes in scenario.branches:
            if modes:
                (excited,) = modes
                branches.append(reference_one_particle_amplitudes(field, r, excited))
            else:
                branches.append(reference_vacuum_amplitudes(field, r))
    alice = np.repeat(np.arange(len(branches)), [len(amps) for *_, amps in branches])
    columns = [np.concatenate(column) for column in zip(*branches)] or [
        np.zeros(0, dtype=np.int64),
        np.zeros(0, dtype=np.int64),
        np.zeros(0),
    ]
    i_bits, iv_bits, amps = columns
    return prune(alice, i_bits, iv_bits, (1.0 / math.sqrt(2.0)) * amps)


def same_bytes(a, b):
    """Equal arrays, signed zeros and all."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


#: Zero, the subnormal and tiny squeezings where every power of tan r
#: underflows, both sides of pi/4, and 200 seeded interior points.
BIT_RS = [
    0.0, 5e-324, 1e-300, 1e-9, 1e-3, math.pi / 4, math.nextafter(math.pi / 4, 0)
] + [random.Random(17).uniform(0.0, math.pi / 4) for _ in range(200)]

BUILDER_GRIDS = {
    "nine-point": ORACLE_R,
    "r-points-33": NEGATIVITY_R,
    "small-r": (0.0, 1e-9, 1e-3, math.pi / 4),
    "empty": (),
    "special-and-seeded": BIT_RS,
}

#: Every brute-force field of either family, one test id each.
BIT_FIELDS = [dirac(n) for n in range(1, 6)] + [spinless(n) for n in range(1, 12)]

#: One field of every brute-force slot count: Dirac n is spinless 2n.
SLOT_FIELDS = [spinless(n) for n in range(1, 12)]


@pytest.mark.parametrize("grid", list(BUILDER_GRIDS))
def test_grid_builders_match_the_per_point_reference(grid):
    values = BUILDER_GRIDS[grid]
    rs = squeeze_grid(values)
    for field in SLOT_FIELDS:
        # (grid builder, per-point scalar reference, their extra argument)
        cases = [
            (vacuum_amplitudes, reference_vacuum_row, None),
            (vacuum_amplitudes, reference_vacuum_row, 1.0),
        ]
        for excited in {0, field.slots - 1}:
            cases.append((one_particle_amplitudes, reference_one_particle_row, excited))
        for build, reference, extra in cases:
            state = build(field, rs, extra)
            rows = [reference(field, r, extra) for r in values]
            # the unpruned table row by row, then each point's pruned terms
            assert len(state[2]) == len(rs)
            for amps, want in zip(state[2], rows):
                assert all(same_bytes(a, b) for a, b in zip((*state[:2], amps), want))
            for terms, want in zip(point_terms(state), rows):
                assert all(same_bytes(a, b) for a, b in zip(terms, prune(*want)))


JOINT_CASES = density_grid() + [
    (vac_one(dirac(5)), dirac(5)),
    (bell(dirac(5)), dirac(5)),
    (Scenario(((), (3,))), dirac(3)),
    (Scenario(((2,), (5,))), dirac(3)),
    (vac_one(spinless(11)), spinless(11)),
    (Scenario(((), (3,))), spinless(5)),
]


@pytest.mark.parametrize("grid", list(BUILDER_GRIDS))
def test_grid_joint_state_matches_the_per_point_reference(grid):
    values = BUILDER_GRIDS[grid]
    rs = squeeze_grid(values)
    for scenario, field in JOINT_CASES:
        joint = build_joint_state(scenario, field, rs)
        want = reference_build_joint_state(scenario, field, values)
        got = (joint.alice, joint.i_bits, joint.iv_bits, joint.values)
        assert joint.points == len(rs)
        assert all(same_bytes(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize(
    "field", BIT_FIELDS, ids=lambda field: f"{field.family.value}-n{field.mode_count}"
)
def test_grid_annihilator_matches_the_per_point_reference_bit_for_bit(field):
    # the vacuum (residuals at rounding level) and a one-particle state (of
    # order sin r) on the special squeezings and the first 20 seeded ones
    values = BIT_RS[:27]
    rs = squeeze_grid(values)
    excited = field.slots - 1
    states = [vacuum_amplitudes(field, rs), one_particle_amplitudes(field, rs, excited)]
    for state in states:
        got = annihilation_residuals(field, rs, state)
        want = [
            reference_residuals(field, r, terms)
            for r, terms in zip(values, point_terms(state))
        ]
        assert [[x.hex() for x in row] for row in got] == [
            [x.hex() for x in row] for row in want
        ]
