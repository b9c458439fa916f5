import io
import math
import re
import tracemalloc

import numpy as np
import pytest

from reference import ALL_CONFIGS, every_kind_on, packed_analytic_layout, purity, to_dense
from rindler_ferm import cli
from rindler_ferm.density import (
    DUMP_SLICE,
    MAX_DENSITY_SLOTS,
    DensityMatrix,
    JointState,
    Scenario,
    _decimal_digits,
    analytic_density,
    analytic_layout,
    bell,
    bruteforce_feasible,
    build_joint_state,
    check_scenario_field,
    density_weights,
    max_entry_difference,
    trace_out_region_iv,
    vac_one,
    write_rho_csv,
)
from rindler_ferm.errors import CapacityError
from rindler_ferm.fock import norm
from rindler_ferm.modes import dirac, spinless
from rindler_ferm.rindler import squeeze_grid

R_VALUES = [0.1 * i for i in range(8)] + [math.pi / 4]
R_GRID = squeeze_grid(R_VALUES)

# --- scenario validation ------------------------------------------------------


def test_bell_needs_two_distinct_modes():
    with pytest.raises(ValueError):
        Scenario(((0,), (0,)))
    with pytest.raises(ValueError):
        Scenario(((1,), (1,)))
    with pytest.raises(ValueError):
        Scenario(((0,), ()))


def test_scenario_branch_rules():
    # branch 1 excites exactly one mode
    for one in ((), (1, 2)):
        with pytest.raises(ValueError):
            Scenario(((0,), one))
        with pytest.raises(ValueError):
            Scenario(((), one))
    # branch 0 excites at most one
    with pytest.raises(ValueError):
        Scenario(((0, 2), (1,)))
    assert Scenario(((), (0,))) == vac_one(dirac(1))
    assert Scenario(((0,), (1,))) == bell(dirac(1))
    assert Scenario(((0,), (1,))) != Scenario(((1,), (0,)))


def test_scenario_name_reads_the_branches():
    off_centre = Scenario(((), (5,)))
    assert vac_one(dirac(3)).name(dirac(3)) == off_centre.name(dirac(3)) == "vac-one-dirac"
    assert bell(dirac(2)).name(dirac(2)) == Scenario(((3,), (0,))).name(dirac(2))
    assert bell(dirac(2)).name(dirac(2)) == "bell-dirac"
    assert vac_one(spinless(2)).name(spinless(2)) == "vac-one-spinless"
    assert bell(spinless(2)).name(spinless(2)) == "bell-spinless"
    # the family comes from the field: one scenario has a name on each
    assert bell(dirac(1)) == bell(spinless(2))
    assert bell(dirac(1)).name(spinless(2)) == "bell-spinless"


def test_kinds_put_their_modes_first_on_any_field():
    # the kinds are the first slots of any field: spin up and down of
    # momentum 1 on a Dirac field, momenta 1 and 2 on a spinless one
    for family in (dirac, spinless):
        for n in (2, 3, 64):
            assert vac_one(family(n)) == Scenario(((), (0,)))
            assert bell(family(n)) == Scenario(((0,), (1,)))
    assert vac_one(spinless(1)) == Scenario(((), (0,)))
    assert bell(dirac(1)) == Scenario(((0,), (1,)))
    with pytest.raises(ValueError, match="a Bell state needs two Rob modes"):
        bell(spinless(1))


def test_scenario_field_consistency():
    # a scenario fits every field with its slots, whatever the family
    check_scenario_field(vac_one(dirac(1)), spinless(2))
    check_scenario_field(vac_one(spinless(1)), dirac(2))
    check_scenario_field(bell(dirac(1)), dirac(1))
    check_scenario_field(Scenario(((1,), (0,))), spinless(2))
    # and any slot outside the field is refused by name
    for scenario, field, message in (
        (Scenario(((), (4,))), dirac(2), "slot 4 outside 0..3 of the dirac field with n=2"),
        (Scenario(((0,), (2,))), dirac(1), "slot 2 outside 0..1 of the dirac field with n=1"),
        (bell(dirac(1)), spinless(1), "slot 1 outside 0..0 of the spinless field with n=1"),
        (
            Scenario(((), (-1,))),
            spinless(3),
            "slot -1 outside 0..2 of the spinless field with n=3",
        ),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_scenario_field(scenario, field)


def test_no_cli_scenario_reaches_the_slot_refusal():
    # the CLI builds a kind on the field it resolves: slot 0, and slot 1 only
    # once bell has found two slots, so only a library caller meets the
    # slot-range refusal
    for kind in ("vacuum-one", "bell"):
        for family in ("dirac", "spinless"):
            for modes in (1, 2, 3):
                config = cli.SweepConfig(scenario=kind, field=family, modes=modes)
                try:
                    scenario, field = config.resolve()
                except ValueError as exc:
                    assert (kind, family, modes) == ("bell", "spinless", 1)
                    assert str(exc).startswith("a Bell state needs two Rob modes")
                    continue
                check_scenario_field(scenario, field)


# --- joint state ----------------------------------------------------------------


def test_joint_state_without_squeezing():
    field = dirac(2)
    joint = build_joint_state(vac_one(field), field, squeeze_grid([0.0]))
    excited = 1 << 0  # slot 0, the mode vac_one excites
    amps = dict(joint.amps)
    assert set(amps) == {(0, 0, 0), (1, excited, 0)}
    for value in amps.values():
        assert abs(value) == pytest.approx(1 / math.sqrt(2), abs=1e-15)


@pytest.mark.parametrize("scenario,field", ALL_CONFIGS)
def test_joint_state_unit_norm(scenario, field):
    for r in R_VALUES:
        joint = build_joint_state(scenario, field, squeeze_grid([r]))
        assert norm((joint.i_bits, joint.iv_bits, joint.values)) == pytest.approx(
            1.0, abs=1e-12
        )


def test_joint_state_spinless_n1_term_census():
    # expanding both branches at n=1 gives exactly three basis amplitudes;
    # their region-IV occupations are the empty set (twice) and mode 1
    joint = build_joint_state(vac_one(spinless(1)), spinless(1), squeeze_grid([0.4]))
    assert len(joint.amps) == 3
    assert sorted(key[2] for key in joint.amps) == [0, 0, 1]


def test_joint_state_capacity_guard():
    with pytest.raises(CapacityError):
        build_joint_state(vac_one(dirac(6)), dirac(6), squeeze_grid([0.2]))
    with pytest.raises(CapacityError):
        build_joint_state(vac_one(spinless(12)), spinless(12), squeeze_grid([0.2]))


def test_bruteforce_feasibility_boundary():
    assert bruteforce_feasible(dirac(5)) and bruteforce_feasible(spinless(11))
    assert not bruteforce_feasible(dirac(6)) and not bruteforce_feasible(spinless(12))


def test_analytic_density_capacity_guard():
    field = spinless(MAX_DENSITY_SLOTS + 1)
    with pytest.raises(CapacityError):
        analytic_density(vac_one(field), field, squeeze_grid([0.2]))


# --- partial trace ---------------------------------------------------------------


def test_trace_out_product_state_is_rank_one():
    field = dirac(1)
    product = JointState(field, alice=[0], i_bits=[0], iv_bits=[0], values=[1.0])
    rho = trace_out_region_iv(product)
    assert rho.trace() == [pytest.approx(1.0)]
    assert purity(rho) == pytest.approx(1.0)
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
    joint = build_joint_state(vac_one(field), field, squeeze_grid([0.0]))
    rho = trace_out_region_iv(joint)
    assert purity(rho) == pytest.approx(1.0, abs=1e-14)
    excited = 1 << 0  # slot 0, the mode vac_one excites
    idx0, idx1 = 0, 1 << field.slots | excited
    for row in (idx0, idx1):
        for col in (idx0, idx1):
            assert rho.entries[(row, col)] == pytest.approx(0.5, abs=1e-14)


def test_trace_out_matches_analytic_at_spot():
    scenario, field, rs = vac_one(dirac(1)), dirac(1), squeeze_grid([0.3])
    brute = trace_out_region_iv(build_joint_state(scenario, field, rs))
    direct = analytic_density(scenario, field, rs)
    (dev,) = max_entry_difference(brute, direct)
    assert dev < 1e-12


@pytest.mark.parametrize("scenario,field", ALL_CONFIGS)
def test_density_paths_agree_on_grid(scenario, field):
    brute = trace_out_region_iv(build_joint_state(scenario, field, R_GRID))
    direct = analytic_density(scenario, field, R_GRID)
    deviations = max_entry_difference(brute, direct)
    assert len(deviations) == len(R_GRID)
    assert max(deviations) < 1e-12


@pytest.mark.parametrize(
    "scenario,field",
    [
        # off-center Rob modes exercise nontrivial insertion signs
        (Scenario(((), (3,))), dirac(3)),
        (Scenario(((), (4,))), dirac(3)),
        (Scenario(((2,), (5,))), dirac(3)),
        (Scenario(((1,), (3,))), dirac(2)),
        (Scenario(((), (2,))), spinless(5)),
    ],
)
def test_density_paths_agree_for_off_center_modes(scenario, field):
    rs = squeeze_grid([0.35, 0.7])
    brute = trace_out_region_iv(build_joint_state(scenario, field, rs))
    direct = analytic_density(scenario, field, rs)
    assert max(max_entry_difference(brute, direct)) < 1e-12


@pytest.mark.parametrize("scenario,field", ALL_CONFIGS)
def test_stacked_trace_is_the_direct_sum_of_the_points(scenario, field):
    joint = build_joint_state(scenario, field, R_GRID)
    stack = trace_out_region_iv(joint)
    side = 2 << field.slots
    assert stack.points == joint.points == len(R_GRID)
    assert stack.side == len(R_GRID) * side
    assert np.array_equal(stack.rows // side, stack.cols // side)
    assert len(joint.amps) == len(joint.values)
    for p, r in enumerate(R_VALUES):
        single = trace_out_region_iv(
            build_joint_state(scenario, field, squeeze_grid([r]))
        )
        mine = stack.rows // side == p
        assert np.array_equal(stack.rows[mine] - p * side, single.rows)
        assert np.array_equal(stack.cols[mine] - p * side, single.cols)
        assert np.array_equal(stack.values[mine], single.values)


def same_bits(a, b):
    """Equal arrays, signed zeros and all."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "scenario,field",
    ALL_CONFIGS
    + [
        (Scenario(((), (3,))), dirac(3)),
        (Scenario(((2,), (5,))), dirac(3)),
        (Scenario(((), (2,))), spinless(5)),
    ],
)
def test_analytic_stack_is_the_direct_sum_of_the_points(scenario, field):
    rs = squeeze_grid(R_VALUES + [1e-9, 1e-4, 0.0245])
    stack = analytic_density(scenario, field, rs)
    singles = [analytic_density(scenario, field, rs[p : p + 1]) for p in range(len(rs))]
    side = 2 << field.slots
    assert stack.points == len(rs) and stack.side == len(rs) * side
    offset = [p * side for p, single in enumerate(singles) for _ in single.values]
    assert same_bits(stack.rows, np.concatenate([m.rows for m in singles]) + offset)
    assert same_bits(stack.cols, np.concatenate([m.cols for m in singles]) + offset)
    assert same_bits(stack.values, np.concatenate([m.values for m in singles]))
    empty = analytic_density(scenario, field, squeeze_grid([]))
    assert empty.points == 0 and len(empty.values) == 0


# --- analytic construction --------------------------------------------------------


def test_analytic_density_at_zero_squeezing_is_half_projector():
    field = spinless(2)
    rho = analytic_density(vac_one(field), field, squeeze_grid([0.0]))
    excited = 1 << 0  # slot 0, the mode vac_one excites
    idx = (0, 1 << field.slots | excited)
    assert set(rho.entries) == {(a, b) for a in idx for b in idx}
    for value in rho.entries.values():
        assert value == pytest.approx(0.5, abs=0.0)
    assert purity(rho) == 1.0


def test_vacuum_sector_diagonal_weights():
    # the Alice-level-0 diagonal carries 0.5 * D_0^m for every subset
    field = dirac(2)
    rho = analytic_density(vac_one(field), field, squeeze_grid([0.5]))
    c0 = math.cos(0.5) ** field.slots
    for bits in range(1 << field.slots):
        assert rho.entries[(bits, bits)] == pytest.approx(
            0.5 * c0 * c0 * math.tan(0.5) ** (2 * bits.bit_count()), abs=1e-15
        )


def test_one_particle_sector_is_diagonal():
    # Pauli exclusion keeps the excited-branch terms off the coupled pairs:
    # every entry with both indices at Alice level 1 sits on the diagonal,
    # and level-1 occupations lacking the excited mode carry no diagonal
    field = dirac(2)
    rho = analytic_density(vac_one(field), field, squeeze_grid([0.5]))
    half = 1 << field.slots
    excited_bit = 1 << 0
    for (row, col) in rho.entries:
        if row >= half and col >= half:
            assert row == col
            assert (row - half) & excited_bit
    for bits in range(half):
        if not bits & excited_bit:
            assert (half + bits, half + bits) not in rho.entries


@pytest.mark.parametrize("scenario,field", ALL_CONFIGS)
def test_density_matrix_health(scenario, field):
    for r in R_VALUES:
        rho = analytic_density(scenario, field, squeeze_grid([r]))
        (defect,), (trace,) = rho.hermiticity_defect(), rho.trace()
        assert defect < 1e-12
        assert abs(trace - 1.0) < 1e-12
        assert float(np.linalg.eigvalsh(to_dense(rho))[0]) > -1e-10


def test_purity_strictly_decreases_with_squeezing():
    for scenario, field in every_kind_on([dirac(2)], [spinless(3)]):
        purities = [
            purity(analytic_density(scenario, field, squeeze_grid([r])))
            for r in (0.0, 0.2, 0.4, 0.6, math.pi / 4)
        ]
        assert purities[0] == 1.0
        assert all(a > b for a, b in zip(purities, purities[1:]))


# --- container and export ----------------------------------------------------------


def test_rho_csv_dump_is_deterministic():
    rho = analytic_density(bell(dirac(2)), dirac(2), squeeze_grid([0.4]))
    first, second = (layout_dump(bell(dirac(2)), dirac(2), 0.4) for _ in range(2))
    assert first == second
    lines = first.decode("ascii").splitlines()
    assert lines[0] == "row,col,re,im"
    assert len(lines) == len(rho.entries) + 1
    row, col, re, im = lines[1].split(",")
    assert (int(row), int(col)) == min(rho.entries)
    assert float(re) == rho.entries[min(rho.entries)].real
    assert float(im) == 0.0


def layout_dump(scenario, field, r):
    """The bytes the writer gives for one point's analytic density matrix,
    written through its entry layout as the CLI writes it."""
    (weight,) = density_weights(field, squeeze_grid([r]))
    written = io.BytesIO()
    write_rho_csv(analytic_layout(scenario, field).tables(weight), written)
    return written.getvalue()


def reference_dump(scenario, field, r):
    """The dump of the assembled matrix, one f-string per stored entry, each
    float formatted where it is written."""
    rho = analytic_density(scenario, field, squeeze_grid([r]))
    columns = (rho.rows, rho.cols, rho.values.real, rho.values.imag)
    lines = (
        f"{row},{col},{re!r},{im!r}\n"
        for row, col, re, im in zip(*(column.tolist() for column in columns))
    )
    return ("row,col,re,im\n" + "".join(lines)).encode("ascii")


def same_lines(written, reference):
    """Equal bytes, compared as line lists: a mismatch in a large dump is
    then reported at its first line, not as a diff of the whole dump."""
    return written.splitlines(keepends=True) == reference.splitlines(keepends=True)


@pytest.mark.parametrize(
    "scenario, field, r",
    [
        (vac_one(dirac(7)), dirac(7), 0.6),
        (bell(dirac(3)), dirac(3), math.pi / 4),
        # tan(r)^2 = 1e-320: the level-1 weights are subnormal, the rest 0
        (vac_one(spinless(6)), spinless(6), 1e-160),
        # excited slots above occupied ones: negative off-diagonal entries
        (Scenario(((), (3,))), dirac(3), 0.5),
        (Scenario(((4,), (1,))), dirac(3), 0.5),
    ],
    ids=[
        "analytic-vac-one-dirac-n7",
        "analytic-bell-n3",
        "analytic-spinless-n6-subnormal",
        "analytic-vac-one-dirac-n3-negative",
        "analytic-bell-n3-negative",
    ],
)
def test_rho_csv_dump_matches_per_entry_formatting(scenario, field, r):
    written = layout_dump(scenario, field, r)
    assert same_lines(written, reference_dump(scenario, field, r))
    # the two cases at r=0.5 are there for their negative entries
    assert (b",-" in written) == (r == 0.5)


def test_rho_csv_dump_of_a_six_digit_side_in_several_slices():
    rho = analytic_density(vac_one(spinless(16)), spinless(16), squeeze_grid([0.3]))
    assert rho.side == 131072
    assert len(rho.values) > 2 * DUMP_SLICE
    written = layout_dump(vac_one(spinless(16)), spinless(16), 0.3)
    assert same_lines(written, reference_dump(vac_one(spinless(16)), spinless(16), 0.3))


def test_decimal_digits_at_every_power_of_ten_edge():
    # every width up to seven digits, with the numbers at either side of
    # every power of ten, in the narrowest dtype as the layout holds them
    for width in range(1, 8):
        numbers = [0] + [x for k in range(1, width) for x in (10**k - 1, 10**k)]
        numbers.append(10**width - 1)
        array = np.array(numbers, dtype=np.min_scalar_type(10**width - 1))
        digits = _decimal_digits(array, width)
        assert digits.shape == (len(numbers), width)
        want = [str(x).rjust(width, "\0").encode("ascii") for x in numbers]
        assert [bytes(row) for row in digits] == want


#: Dump points: zero squeezing (most entries exact zeros), subnormal and
#: tiny r, a middle value and both sides of the end of the range.
DUMP_R = [0.0, 5e-324, 1e-300, 1e-9, 0.3, math.nextafter(math.pi / 4, 0.0), math.pi / 4]


def test_rho_csv_dumps_written_by_the_cli(tmp_path):
    # every CLI scenario, each dump against the per-entry reference writer on
    # the assembled matrix; spinless n=13 writes 5 slices of candidates
    # and Dirac n=7 10, and at r=0 whole slices hold only exact zeros
    for argv, scenario, field in (
        (["--modes", "7"], vac_one(dirac(7)), dirac(7)),
        (["--scenario", "bell", "--modes", "3"], bell(dirac(3)), dirac(3)),
        (["--field", "spinless", "--modes", "13"], vac_one(spinless(13)), spinless(13)),
        (
            ["--scenario", "bell", "--field", "spinless", "--modes", "5"],
            bell(spinless(5)),
            spinless(5),
        ),
    ):
        name = scenario.name(field)
        rhos = tmp_path / field.family.value / name
        assert cli.main([
            "sweep", *argv, "--r-grid", ",".join(map(repr, DUMP_R)),
            "--out", str(tmp_path / "s.csv"), "--dump-rho", str(rhos),
        ]) == 0
        for i, r in enumerate(DUMP_R):
            written = rhos / f"rho_{name}_n{field.mode_count}_{i:04d}.csv"
            assert same_lines(written.read_bytes(), reference_dump(scenario, field, r))
    layout = analytic_layout(vac_one(spinless(13)), spinless(13))
    (weight,) = density_weights(spinless(13), squeeze_grid([0.0]))
    sizes = [len(table) for table in layout.tables(weight)]
    assert len(sizes) == 5 and 0 in sizes


def test_layout_slices_are_the_analytic_entries():
    negative = [
        (Scenario(((), (3,))), dirac(3)),
        (Scenario(((4,), (1,))), dirac(3)),
    ]
    for scenario, field in ALL_CONFIGS + negative:
        layout = analytic_layout(scenario, field)
        side = 2 << field.slots
        assert layout.rows.dtype == layout.cols.dtype == np.min_scalar_type(side - 1)
        assert layout.key.dtype == np.uint8
        keys = layout.rows.astype(np.int64) * side + layout.cols
        assert np.all(keys[1:] > keys[:-1])
        # the index text spells each candidate's position
        text = layout.text.tobytes().translate(None, b"\0").decode("ascii")
        positions = zip(layout.rows.tolist(), layout.cols.tolist())
        assert text == "".join(f"{row},{col}," for row, col in positions)
        for r in (0.0, 0.3, math.pi / 4):
            (weight,) = density_weights(field, squeeze_grid([r]))
            tables = list(layout.tables(weight))
            assert len(tables) == -(-len(layout.key) // DUMP_SLICE)
            lines = b"".join(table.tobytes() for table in tables)
            lines = lines.translate(None, b"\0").decode("ascii").splitlines()
            rows, cols, values, imag = zip(*(line.split(",") for line in lines))
            rho = analytic_density(scenario, field, squeeze_grid([r]))
            assert list(map(int, rows)) == rho.rows.tolist()
            assert list(map(int, cols)) == rho.cols.tolist()
            assert list(map(float, values)) == rho.values.real.tolist()
            assert set(imag) == {"0.0"} and not rho.values.imag.any()


def every_branch_pair(field):
    """Every scenario on ``field``: branch 1 excites any one slot, branch 0
    none or any other."""
    slots = range(field.slots)
    return [
        Scenario((zero, (one,)))
        for one in slots
        for zero in [(), *((other,) for other in slots if other != one)]
    ]


def test_layout_equals_the_packed_sorted_layout():
    # generated in row order, the layout is the one the packed sort gave,
    # dtypes included: every branch pair on Dirac n <= 4 and spinless n <= 8,
    # both kinds on Dirac n=7, and a Bell pair at spinless n=13 whose
    # level-0 mode lies above its level-1 mode
    fields = [dirac(n) for n in range(1, 5)] + [spinless(n) for n in range(1, 9)]
    cases = [(scenario, field) for field in fields for scenario in every_branch_pair(field)]
    assert len(cases) == 324
    cases += every_kind_on([dirac(7)])
    cases.append((Scenario(((9,), (3,))), spinless(13)))
    for scenario, field in cases:
        want, got = packed_analytic_layout(scenario, field), analytic_layout(scenario, field)
        for name in ("rows", "cols", "key", "text"):
            column = getattr(got, name)
            assert column.dtype == getattr(want, name).dtype, (scenario, field, name)
            assert np.array_equal(column, getattr(want, name)), (scenario, field, name)


def test_streamed_dump_memory_is_bounded_by_a_slice(tmp_path):
    # spinless n=16: 163,840 candidate entries and a 5.7 MB dump per point;
    # tracemalloc sees numpy's buffers
    field = spinless(16)
    argv = [
        "sweep", "--field", "spinless", "--modes", "16", "--r-grid", "0.3",
        "--out", str(tmp_path / "s.csv"), "--dump-rho", str(tmp_path / "rhos"),
    ]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        _, whole = tracemalloc.get_traced_memory()
        layout = analytic_layout(vac_one(field), field)
        (weight,) = density_weights(field, squeeze_grid([0.6]))
        tracemalloc.reset_peak()
        with open(tmp_path / "second.csv", "wb") as handle:
            write_rho_csv(layout.tables(weight), handle)
        _, second = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(layout.key) == 163840
    layout_bytes = sum(
        column.nbytes for column in (layout.rows, layout.cols, layout.key, layout.text)
    )
    assert whole < 10 << 20
    assert second < layout_bytes + (2 << 20)


def test_dense_round_trip():
    rho = analytic_density(vac_one(spinless(2)), spinless(2), squeeze_grid([0.5]))
    dense = to_dense(rho)
    assert dense.shape == (rho.side, rho.side)
    # column-major, so the constructor has to sort the entries row-major
    cols, rows = np.nonzero(dense.T)
    rebuilt = DensityMatrix(rho.field, rows, cols, dense[rows, cols])
    assert max_entry_difference(rho, rebuilt) == [0.0]
