import io
import math

import numpy as np
import pytest

from rindler_ferm.density import (
    MAX_DENSITY_SLOTS,
    DensityMatrix,
    JointState,
    Scenario,
    ScenarioKind,
    analytic_density,
    bell_dirac,
    bruteforce_feasible,
    build_joint_state,
    check_scenario_field,
    max_entry_difference,
    trace_out_region_iv,
    vac_one_dirac,
    vac_one_spinless,
    write_rho_csv,
)
from rindler_ferm.errors import CapacityError
from rindler_ferm.fock import norm, pack_occupation
from rindler_ferm.modes import ModeLabel, Spin, dirac, spinless
from rindler_ferm.rindler import SqueezeParam

UP, DOWN = Spin.UP, Spin.DOWN
R_GRID = [SqueezeParam(0.1 * i) for i in range(8)] + [SqueezeParam(math.pi / 4)]

ALL_CONFIGS = (
    [(vac_one_dirac(), dirac(n)) for n in (1, 2, 3)]
    + [(bell_dirac(), dirac(n)) for n in (1, 2, 3)]
    + [(vac_one_spinless(), spinless(n)) for n in (1, 3, 6)]
)


# --- scenario validation ------------------------------------------------------


def test_bell_needs_two_distinct_modes():
    with pytest.raises(ValueError):
        Scenario(ScenarioKind.BELL_DIRAC, (ModeLabel(1, UP), ModeLabel(1, UP)))
    with pytest.raises(ValueError):
        Scenario(ScenarioKind.BELL_DIRAC, (ModeLabel(1, UP),))
    with pytest.raises(ValueError):
        Scenario(ScenarioKind.VAC_ONE_DIRAC, ())


def test_scenario_field_consistency():
    with pytest.raises(ValueError):
        check_scenario_field(vac_one_dirac(), spinless(2))
    with pytest.raises(ValueError):
        check_scenario_field(vac_one_spinless(), dirac(2))
    with pytest.raises(ValueError):
        check_scenario_field(vac_one_dirac(ModeLabel(4, UP)), dirac(2))
    check_scenario_field(bell_dirac(), dirac(1))


# --- joint state ----------------------------------------------------------------


def test_joint_state_without_squeezing():
    field = dirac(2)
    joint = build_joint_state(vac_one_dirac(), field, SqueezeParam(0.0))
    excited = pack_occupation(field, [ModeLabel(1, UP)])
    amps = dict(joint.amps)
    assert set(amps) == {(0, 0, 0), (1, excited, 0)}
    for value in amps.values():
        assert abs(value) == pytest.approx(1 / math.sqrt(2), abs=1e-15)


@pytest.mark.parametrize("scenario,field", ALL_CONFIGS)
def test_joint_state_unit_norm(scenario, field):
    for r in R_GRID:
        assert norm(build_joint_state(scenario, field, r)) == pytest.approx(
            1.0, abs=1e-12
        )


def test_joint_state_spinless_n1_term_census():
    # expanding both branches at n=1 gives exactly three basis amplitudes;
    # their region-IV occupations are the empty set (twice) and mode 1
    joint = build_joint_state(vac_one_spinless(), spinless(1), SqueezeParam(0.4))
    assert len(joint.amps) == 3
    assert sorted(key[2] for key in joint.amps) == [0, 0, 1]


def test_joint_state_capacity_guard():
    with pytest.raises(CapacityError):
        build_joint_state(vac_one_dirac(), dirac(6), SqueezeParam(0.2))
    with pytest.raises(CapacityError):
        build_joint_state(vac_one_spinless(), spinless(12), SqueezeParam(0.2))


def test_bruteforce_feasibility_boundary():
    assert bruteforce_feasible(dirac(5)) and bruteforce_feasible(spinless(11))
    assert not bruteforce_feasible(dirac(6)) and not bruteforce_feasible(spinless(12))


def test_analytic_density_capacity_guard():
    field = spinless(MAX_DENSITY_SLOTS + 1)
    with pytest.raises(CapacityError):
        analytic_density(vac_one_spinless(), field, SqueezeParam(0.2))


# --- partial trace ---------------------------------------------------------------


def test_trace_out_product_state_is_rank_one():
    field = dirac(1)
    product = JointState(field, alice=[0], i_bits=[0], iv_bits=[0], values=[1.0])
    rho = trace_out_region_iv(product)
    assert rho.trace() == pytest.approx(1.0)
    assert rho.purity() == pytest.approx(1.0)
    assert dict(rho.entries) == {(0, 0): 1.0}


def test_trace_out_hand_built_groups_against_double_loop():
    # region-IV groups of sizes 1 (iv=5), 2 (iv=2), 3 (iv=6) and 4 (iv=1);
    # (alice 0, i 3) sits in the iv=2 and iv=6 groups, and (alice 1, i 4)
    # in the iv=6 and iv=1 groups, so their entries sum two contributions
    field = spinless(3)
    terms = {
        (1, 4, 6): 0.11 - 0.2j,
        (0, 7, 5): 0.3,
        (0, 3, 2): 0.25 + 0.1j,
        (1, 4, 1): -0.05 + 0.3j,
        (0, 3, 6): 0.15j,
        (1, 0, 2): -0.4,
        (0, 1, 1): 0.2,
        (1, 6, 6): 0.07 + 0.07j,
        (0, 2, 1): -0.12j,
        (1, 5, 1): 0.33 - 0.01j,
    }
    half = 1 << field.slots
    expected = {}
    for (a, i, iv), amp in terms.items():
        for (a2, i2, iv2), amp2 in terms.items():
            if iv == iv2:
                key = (a * half + i, a2 * half + i2)
                expected[key] = expected.get(key, 0.0) + amp * amp2.conjugate()
    alice, i_bits, iv_bits = zip(*terms)
    joint = JointState(field, alice, i_bits, iv_bits, list(terms.values()))
    rho = trace_out_region_iv(joint)
    assert set(rho.entries) == set(expected)
    for key, value in expected.items():
        assert abs(rho.entries[key] - value) <= 1e-15
    keys = rho.rows * rho.side + rho.cols
    assert np.all(keys[1:] > keys[:-1])


def test_trace_out_at_zero_squeezing_is_pure_bell():
    field = dirac(1)
    rho = trace_out_region_iv(build_joint_state(vac_one_dirac(), field, SqueezeParam(0.0)))
    assert rho.purity() == pytest.approx(1.0, abs=1e-14)
    excited = pack_occupation(field, [ModeLabel(1, UP)])
    idx0, idx1 = rho.index(0, 0), rho.index(1, excited)
    for row in (idx0, idx1):
        for col in (idx0, idx1):
            assert rho.get(row, col) == pytest.approx(0.5, abs=1e-14)


def test_trace_out_matches_analytic_at_spot():
    scenario, field, r = vac_one_dirac(), dirac(1), SqueezeParam(0.3)
    brute = trace_out_region_iv(build_joint_state(scenario, field, r))
    direct = analytic_density(scenario, field, r)
    assert max_entry_difference(brute, direct) < 1e-12


@pytest.mark.parametrize("scenario,field", ALL_CONFIGS)
def test_density_paths_agree_on_grid(scenario, field):
    for r in R_GRID:
        brute = trace_out_region_iv(build_joint_state(scenario, field, r))
        direct = analytic_density(scenario, field, r)
        assert max_entry_difference(brute, direct) < 1e-12


@pytest.mark.parametrize(
    "scenario,field",
    [
        # off-center Rob modes exercise nontrivial insertion signs
        (vac_one_dirac(ModeLabel(2, DOWN)), dirac(3)),
        (vac_one_dirac(ModeLabel(3, UP)), dirac(3)),
        (bell_dirac(ModeLabel(2, UP), ModeLabel(3, DOWN)), dirac(3)),
        (bell_dirac(ModeLabel(1, DOWN), ModeLabel(2, DOWN)), dirac(2)),
        (vac_one_spinless(ModeLabel(3)), spinless(5)),
    ],
)
def test_density_paths_agree_for_off_center_modes(scenario, field):
    for r in (SqueezeParam(0.35), SqueezeParam(0.7)):
        brute = trace_out_region_iv(build_joint_state(scenario, field, r))
        direct = analytic_density(scenario, field, r)
        assert max_entry_difference(brute, direct) < 1e-12


# --- analytic construction --------------------------------------------------------


def test_analytic_density_at_zero_squeezing_is_half_projector():
    field = spinless(2)
    rho = analytic_density(vac_one_spinless(), field, SqueezeParam(0.0))
    excited = pack_occupation(field, [ModeLabel(1)])
    idx = (rho.index(0, 0), rho.index(1, excited))
    assert set(rho.entries) == {(a, b) for a in idx for b in idx}
    for value in rho.entries.values():
        assert value == pytest.approx(0.5, abs=0.0)
    assert rho.purity() == 1.0


def test_vacuum_sector_diagonal_weights():
    # the Alice-level-0 diagonal carries 0.5 * D_0^m for every subset
    field = dirac(2)
    r = SqueezeParam(0.5)
    rho = analytic_density(vac_one_dirac(), field, r)
    c0 = math.cos(0.5) ** field.slots
    for bits in range(1 << field.slots):
        idx = rho.index(0, bits)
        assert rho.get(idx, idx) == pytest.approx(
            0.5 * c0 * c0 * math.tan(0.5) ** (2 * bits.bit_count()), abs=1e-15
        )


def test_one_particle_sector_is_diagonal():
    # Pauli exclusion keeps the excited-branch terms off the coupled pairs:
    # every entry with both indices at Alice level 1 sits on the diagonal,
    # and level-1 occupations lacking the excited mode carry no diagonal
    field = dirac(2)
    rho = analytic_density(vac_one_dirac(), field, SqueezeParam(0.5))
    half = 1 << field.slots
    excited_bit = 1 << 0
    for (row, col) in rho.entries:
        if row >= half and col >= half:
            assert row == col
            assert (row - half) & excited_bit
    for bits in range(half):
        if not bits & excited_bit:
            assert rho.get(half + bits, half + bits) == 0.0


@pytest.mark.parametrize("scenario,field", ALL_CONFIGS)
def test_density_matrix_health(scenario, field):
    for r in R_GRID:
        rho = analytic_density(scenario, field, r)
        assert rho.hermiticity_defect() < 1e-12
        assert abs(rho.trace() - 1.0) < 1e-12
        assert float(np.linalg.eigvalsh(rho.to_dense())[0]) > -1e-10


def test_purity_strictly_decreases_with_squeezing():
    for scenario, field in (
        (vac_one_dirac(), dirac(2)),
        (bell_dirac(), dirac(2)),
        (vac_one_spinless(), spinless(3)),
    ):
        purities = [
            analytic_density(scenario, field, r).purity()
            for r in [SqueezeParam(x) for x in (0.0, 0.2, 0.4, 0.6, math.pi / 4)]
        ]
        assert purities[0] == 1.0
        assert all(a > b for a, b in zip(purities, purities[1:]))


# --- container and export ----------------------------------------------------------


def test_index_roundtrip():
    rho = analytic_density(vac_one_dirac(), dirac(2), SqueezeParam(0.3))
    half = 1 << rho.field.slots
    indices = [rho.index(alice, bits) for alice in (0, 1) for bits in range(half)]
    assert indices == list(range(rho.side))


def test_rho_csv_dump_is_deterministic():
    rho = analytic_density(bell_dirac(), dirac(2), SqueezeParam(0.4))
    first, second = io.StringIO(), io.StringIO()
    write_rho_csv(rho, first)
    write_rho_csv(rho, second)
    assert first.getvalue() == second.getvalue()
    lines = first.getvalue().splitlines()
    assert lines[0] == "row,col,re,im"
    assert len(lines) == len(rho.entries) + 1
    row, col, re, im = lines[1].split(",")
    assert (int(row), int(col)) == min(rho.entries)
    assert float(re) == rho.entries[min(rho.entries)].real
    assert float(im) == 0.0


def reference_write_rho_csv(rho, stream):
    """The dump one f-string per stored entry, each float formatted where
    it is written."""
    stream.write("row,col,re,im\n")
    columns = (rho.rows, rho.cols, rho.values.real, rho.values.imag)
    stream.writelines(
        f"{row},{col},{re!r},{im!r}\n"
        for row, col, re, im in zip(*(column.tolist() for column in columns))
    )


def dumps(rho):
    written, reference = io.StringIO(), io.StringIO()
    write_rho_csv(rho, written)
    reference_write_rho_csv(rho, reference)
    return written.getvalue(), reference.getvalue()


@pytest.mark.parametrize(
    "rho",
    [
        analytic_density(vac_one_dirac(), dirac(7), SqueezeParam(0.6)),
        analytic_density(bell_dirac(), dirac(3), SqueezeParam(math.pi / 4)),
        trace_out_region_iv(build_joint_state(bell_dirac(), dirac(3), SqueezeParam(0.37))),
        trace_out_region_iv(
            build_joint_state(vac_one_spinless(), spinless(6), SqueezeParam(0.0))
        ),
    ],
    ids=["analytic-vac-one-dirac-n7", "analytic-bell-n3", "brute-bell-n3", "brute-spinless-n6"],
)
def test_rho_csv_dump_matches_per_entry_formatting(rho):
    written, reference = dumps(rho)
    assert written == reference


def test_rho_csv_dump_keeps_signed_zeros_subnormals_and_repeats():
    tiny = 5e-324
    rho = DensityMatrix(
        dirac(1),
        {
            (0, 0): complex(0.0, -0.0),
            (0, 1): complex(-0.0, 0.0),
            (1, 0): complex(-0.0, -0.0),
            (1, 1): complex(tiny, -tiny),
            (2, 2): complex(0.1, 0.1),
            (3, 3): complex(0.1, -0.1),
            (4, 4): complex(-tiny, 0.1),
            (7, 7): complex(1 / 3, 1 / 3),
        },
    )
    written, reference = dumps(rho)
    assert written == reference
    assert written.splitlines()[1:4] == ["0,0,0.0,-0.0", "0,1,-0.0,0.0", "1,0,-0.0,-0.0"]
    assert "1,1,5e-324,-5e-324" in written
    assert dumps(DensityMatrix(dirac(1), {})) == ("row,col,re,im\n",) * 2


def test_hand_built_entries_must_fit_the_matrix():
    # dirac(1) has side 8; an index past it would alias another entry
    for key in ((0, 8), (8, 0), (-1, 2)):
        with pytest.raises(ValueError):
            DensityMatrix(dirac(1), {key: 1.0})


def test_dense_round_trip():
    rho = analytic_density(vac_one_spinless(), spinless(2), SqueezeParam(0.5))
    dense = rho.to_dense()
    assert dense.shape == (rho.side, rho.side)
    rebuilt = DensityMatrix(
        rho.field,
        {
            (i, j): dense[i, j]
            for i in range(rho.side)
            for j in range(rho.side)
            if dense[i, j] != 0
        },
    )
    assert max_entry_difference(rho, rebuilt) == 0.0
