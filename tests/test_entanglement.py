import itertools
import math
import random
import re
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest

from reference import (
    ALL_CONFIGS,
    alice_transposed,
    block_census as reference_census,
    block_top,
    component_members,
    component_spectra,
    density_matrix,
    every_kind_on,
    exact_block_series,
    hermiticity_defect as reference_defect,
    hermitian_spectrum,
    max_entry_difference as reference_difference,
    partial_transpose_alice,
    to_dense,
)
from rindler_ferm import entanglement
from rindler_ferm.density import (
    Scenario,
    analytic_density,
    bell,
    build_joint_state,
    max_entry_difference,
    trace_out_region_iv,
    vac_one,
)
from rindler_ferm.entanglement import (
    MAX_BLOCK_TOP,
    _component_members,
    block_census,
    block_row,
    lowest_eigenvalues,
    negativity_blocks,
    negativity_bruteforce,
)
from rindler_ferm.errors import BlockStructureError, CapacityError
from rindler_ferm.modes import FieldKind, ModeLabel, Spin, dirac, slot_index, spinless
from rindler_ferm.rindler import linspace, squeeze_grid
from rindler_ferm.verify import NEGATIVITY_R, Tolerances, density_grid

R_VALUES = [0.1 * i for i in range(8)] + [math.pi / 4]
R_GRID = squeeze_grid(R_VALUES)

def brute_rho(scenario, field, r):
    return trace_out_region_iv(build_joint_state(scenario, field, squeeze_grid([r])))


def components(matrix):
    """The partition of :func:`_component_members`, one ascending list per
    component: a component of size k is k consecutive nodes, each given
    the size k."""
    nodes, sizes, _ = _component_members(
        matrix.side, matrix.rows, matrix.cols, matrix.values
    )
    parts, start = [], 0
    while start < len(nodes):
        size = int(sizes[start])
        assert sizes[start : start + size].tolist() == [size] * size
        parts.append(nodes[start : start + size].tolist())
        start += size
    return parts


def weight(field, r, i, m):
    """d(i, m) = |C^0|^2 tan(r)^2m / cos(r)^i, evaluated from math alone."""
    c0 = math.cos(r) ** field.slots
    tan = math.tan(r)
    return c0 * c0 * (tan * tan) ** m / math.cos(r) ** i


# --- partial transpose ---------------------------------------------------------


def test_partial_transpose_fixes_diagonal_matrices():
    diag = density_matrix(dirac(1), {(0, 0): 0.25, (5, 5): 0.75})
    pt = partial_transpose_alice(diag)
    assert dict(pt.entries) == dict(diag.entries)


def test_partial_transpose_is_an_involution():
    rho = brute_rho(bell(dirac(2)), dirac(2), 0.5)
    twice = partial_transpose_alice(partial_transpose_alice(rho))
    assert dict(twice.entries) == dict(rho.entries)


def test_partial_transpose_preserves_trace():
    rho = brute_rho(vac_one(dirac(2)), dirac(2), 0.4)
    pt = partial_transpose_alice(rho)
    assert pt.trace()[0] == pytest.approx(rho.trace()[0], abs=1e-15)
    assert pt.hermiticity_defect()[0] < 1e-15


@pytest.mark.parametrize("scenario,field", every_kind_on([dirac(1)], [spinless(1)]))
def test_bell_reference_spectrum_at_zero_squeezing(scenario, field):
    pt = partial_transpose_alice(brute_rho(scenario, field, 0.0))
    eigenvalues = np.linalg.eigvalsh(to_dense(pt))
    nonzero = sorted(v for v in eigenvalues if abs(v) > 1e-12)
    assert nonzero == pytest.approx([-0.5, 0.5, 0.5, 0.5], abs=1e-12)


# --- brute-force negativity -------------------------------------------------------


def test_negativity_at_zero_squeezing_is_half():
    for scenario, field in ALL_CONFIGS:
        (value,) = negativity_bruteforce(brute_rho(scenario, field, 0.0))
        assert value == pytest.approx(0.5, abs=1e-12)


def test_separable_diagonal_state_has_zero_negativity():
    rho = density_matrix(dirac(1), {(0, 0): 0.5, (5, 5): 0.5})
    assert negativity_bruteforce(rho) == [0.0]


def test_bruteforce_spot_value_n2():
    rho = brute_rho(vac_one(dirac(2)), dirac(2), 0.3)
    assert negativity_bruteforce(rho)[0] == pytest.approx(0.45633390372741955, abs=1e-10)


def dense_negativity(rho):
    eigenvalues = np.linalg.eigvalsh(to_dense(partial_transpose_alice(rho)))
    return float(-eigenvalues[eigenvalues < 0.0].sum())


ORACLE_R = [0.0, 0.3, 0.6, math.pi / 4]


@pytest.mark.parametrize("scenario,field", density_grid())
def test_component_spectrum_matches_dense_oracle(scenario, field):
    for r in ORACLE_R:
        rho = brute_rho(scenario, field, r)
        pt = partial_transpose_alice(rho)
        for matrix in (rho, pt):
            spectrum = hermitian_spectrum(matrix)
            assert spectrum.shape == (matrix.side,)
            np.testing.assert_allclose(
                spectrum, np.linalg.eigvalsh(to_dense(matrix)), rtol=0, atol=1e-14
            )
        assert negativity_bruteforce(rho)[0] == pytest.approx(
            dense_negativity(rho), abs=1e-14
        )


def mixed_sizes_rho():
    """A spinless n=3 matrix (side 16, Alice level 1 from index 8) whose
    components have sizes 1, 3 and 4, with a stored zero between two."""
    entries = {
        # a 3-node component {0, 1, 9}
        (0, 0): 0.2, (1, 1): 0.1, (9, 9): 0.15,
        (0, 1): 0.04, (1, 9): 0.06 - 0.03j,
        # a 4-node chain 2 - 3 - 10 - 11
        (2, 2): 0.1, (3, 3): 0.05, (10, 10): 0.12, (11, 11): 0.08,
        (2, 3): 0.03j, (3, 10): 0.2 + 0.05j, (10, 11): -0.07,
        # an isolated diagonal scalar
        (4, 4): 0.1,
        # an explicitly stored zero between the two, which must link nothing
        (1, 3): 0.0,
    }
    for (row, col), v in list(entries.items()):
        entries[(col, row)] = complex(v).conjugate()
    return density_matrix(spinless(3), entries)


def test_components_of_any_size_match_dense_oracle():
    rho = mixed_sizes_rho()
    pt = partial_transpose_alice(rho)
    for matrix in (rho, pt):
        assert sorted(map(len, components(matrix))) == [1, 3, 4]
        np.testing.assert_allclose(
            hermitian_spectrum(matrix),
            np.linalg.eigvalsh(to_dense(matrix)),
            rtol=0,
            atol=1e-14,
        )
        with pytest.raises(BlockStructureError) as refused:
            block_census(vac_one(spinless(3)), spinless(3), partial_transpose_alice(matrix))
        # it names the smallest oversized component, whole
        size, *members = map(int, re.findall(r"\d+", str(refused.value)))
        assert size == 3 and members in components(matrix)
    (value,) = negativity_bruteforce(rho)
    assert value > 0.0
    assert value == pytest.approx(dense_negativity(rho), abs=1e-14)


def hermitian_links(links, rng):
    """Entries of a Hermitian matrix with a random diagonal on every linked
    node and a random complex entry (and its mirror) on every link."""
    entries = {}
    for row, col in links:
        entries[(row, row)] = rng.uniform(0.0, 0.1)
        entries[(col, col)] = rng.uniform(0.0, 0.1)
        value = complex(rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))
        entries[(row, col)] = value
        entries[(col, row)] = value.conjugate()
    return entries


def chain_and_star_rho():
    """A spinless n=7 matrix (side 256) and its components: a 70-node chain
    whose node order along the chain is shuffled (labels must travel far,
    both ways), a star whose centre is its highest index (the least label
    reaches the other leaves only through it), and one isolated scalar."""
    rng = np.random.default_rng(5)
    order = rng.permutation(256)
    chain = order[:70].tolist()
    *leaves, centre = sorted(order[70:83].tolist())
    lone = int(order[83])
    links = list(zip(chain, chain[1:])) + [(centre, leaf) for leaf in leaves]
    rho = density_matrix(spinless(7), {**hermitian_links(links, rng), (lone, lone): 0.02})
    return rho, sorted([sorted(chain), [*leaves, centre], [lone]])


def test_long_chain_and_star_components_match_dense_oracle():
    rho, expected = chain_and_star_rho()
    assert sorted(components(rho)) == expected
    np.testing.assert_allclose(
        hermitian_spectrum(rho), np.linalg.eigvalsh(to_dense(rho)), rtol=0, atol=1e-14
    )
    with pytest.raises(BlockStructureError):
        block_census(vac_one(spinless(7)), spinless(7), partial_transpose_alice(rho))


def test_component_spectrum_is_each_components_eigvalsh_bit_for_bit():
    # the dense oracle agrees only to 1e-14; this pins every bit: each
    # component is diagonalized alone with its rows ascending, and a lone
    # node's eigenvalue is its diagonal's real part
    rho = mixed_sizes_rho()
    for matrix in (rho, partial_transpose_alice(rho), chain_and_star_rho()[0]):
        dense = to_dense(matrix)
        expected = []
        for members in components(matrix):
            block = dense[np.ix_(members, members)]
            if len(members) == 1:
                expected.append(float(block[0, 0].real))
            else:
                expected += np.linalg.eigvalsh(block).tolist()
        spectrum, _ = entanglement._component_spectra(
            matrix.side, matrix.rows, matrix.cols, matrix.values
        )
        assert sorted(map(float.hex, spectrum.tolist())) == sorted(map(float.hex, expected))


def row_major(side, rows, cols, values):
    """Distinct entries sorted row-major, as a coalesced matrix holds them,
    in the form the reference glue reads."""
    order = np.lexsort((cols, rows))
    return SimpleNamespace(side=side, rows=rows[order], cols=cols[order], values=values[order])


def glue_cases():
    """(scenario, field, r-grid): every density_grid() pair on r = 0, the
    least subnormal, 1e-9, 0.3 and pi/4; the four shapes of the
    benchmark's brute-force round on seeded r; one point at each guard."""
    rng = random.Random(2031)
    cases = [(s, f, [0.0, 5e-324, 1e-9, 0.3, math.pi / 4]) for s, f in density_grid()]
    for scenario, field, points in (
        (vac_one(dirac(4)), dirac(4), 4),
        (bell(dirac(4)), dirac(4), 4),
        (vac_one(spinless(8)), spinless(8), 4),
        (vac_one(dirac(5)), dirac(5), 1),
    ):
        cases.append((scenario, field, [rng.uniform(0.0, math.pi / 4) for _ in range(points)]))
    guards = [(vac_one(dirac(5)), dirac(5)), (vac_one(spinless(11)), spinless(11))]
    return cases + [(scenario, field, [0.6]) for scenario, field in guards]


def glue_outputs(scenario, field, rs):
    """Every output of the component glue on the stack of ``rs``, floats as
    float.hex text: the per-point sorted spectra of rho and of its partial
    transpose, the brute-force negativity and the least eigenvalues; then
    the census of each point on its own."""
    rho = trace_out_region_iv(build_joint_state(scenario, field, squeeze_grid(rs)))
    transposed = entanglement._alice_transposed(rho)
    spectra = [
        entanglement._component_spectra(rho.side, rho.rows, rho.cols, rho.values),
        entanglement._component_spectra(rho.side, *transposed, rho.values),
    ]
    outputs = [
        [sorted(map(float.hex, part.tolist())) for part in rho.by_point(*spectrum)]
        for spectrum in spectra
    ]
    outputs.append(list(map(float.hex, entanglement.negativity_bruteforce(rho))))
    outputs.append(list(map(float.hex, entanglement.lowest_eigenvalues(rho))))
    for r in rs:
        point = brute_rho(scenario, field, r)
        outputs.append(entanglement.block_census(scenario, field, point))
    return outputs


def test_component_glue_matches_its_reference_bit_for_bit(monkeypatch):
    # the partial transpose and the glue before the transpose went unsorted,
    # from tests/reference.py, the glue on the entries sorted as it read
    # them: every output the same double
    cases = list(glue_cases())
    program = [glue_outputs(*case) for case in cases]
    monkeypatch.setattr(entanglement, "_alice_transposed", alice_transposed)
    monkeypatch.setattr(
        entanglement, "_component_members",
        lambda *entries: component_members(row_major(*entries)),
    )
    monkeypatch.setattr(
        entanglement, "_component_spectra",
        lambda *entries: component_spectra(row_major(*entries)),
    )
    assert [glue_outputs(*case) for case in cases] == program


@pytest.mark.parametrize("scenario,field", every_kind_on([dirac(5)], [spinless(10)]))
def test_bruteforce_at_side_2048(scenario, field):
    tol = Tolerances().negativity_bruteforce
    for r in ORACLE_R:
        rho = brute_rho(scenario, field, r)
        assert rho.side == 2048
        assert negativity_bruteforce(rho)[0] == pytest.approx(
            0.5 * math.cos(r) ** 2, abs=tol
        )


#: Rows of ``sweep --require-bruteforce --r-grid 400@0:pi/4`` (r = pi/4 *
#: i/399) where a sum of only the eigenvalues below -1e-12 fell more than
#: the gate's 1e-10 short of cos(r)^2 / 2, by up to 2.2e-10: at small r the
#: top block levels hold many negative eigenvalues of that size, with large
#: binomial multiplicities.
SMALL_R_ROWS = [
    (vac_one(spinless(11)), spinless(11), [16, 17, 32, 33, 34, 51, 52, 53, 54, 74]),
    (vac_one(dirac(5)), dirac(5), [34]),
]


@pytest.mark.parametrize("scenario,field,rows", SMALL_R_ROWS)
def test_bruteforce_counts_every_negative_eigenvalue_at_small_r(scenario, field, rows):
    rs = [math.pi / 4 * i / 399 for i in rows]
    values = negativity_bruteforce(
        trace_out_region_iv(build_joint_state(scenario, field, squeeze_grid(rs)))
    )
    errors = [abs(value - 0.5 * math.cos(r) ** 2) for r, value in zip(rs, values)]
    assert max(errors) < Tolerances().negativity_bruteforce
    assert max(errors) < 1e-14


def test_eigensolver_capacity_error(monkeypatch):
    # vac-one Dirac n=1: the partial transpose holds 2x2 components, 4
    # entries each, so a budget of 3 refuses it before any eigensolve
    rho = brute_rho(vac_one(dirac(1)), dirac(1), 0.4)
    monkeypatch.setattr(entanglement, "EIGENSOLVE_BUDGET", 3)
    with pytest.raises(CapacityError):
        negativity_bruteforce(rho)
    with pytest.raises(CapacityError):
        hermitian_spectrum(rho)


@pytest.mark.parametrize("scenario", [vac_one(dirac(7)), bell(dirac(7))])
def test_bruteforce_spectrum_beyond_the_dense_side(scenario):
    # side 32768: four times the dense 8192 side, but its components are
    # scalars and pairs, far inside the eigensolve budget
    rho = analytic_density(scenario, dirac(7), squeeze_grid([0.6]))
    assert rho.side == 1 << 15
    assert negativity_bruteforce(rho)[0] == pytest.approx(
        0.5 * math.cos(0.6) ** 2, abs=1e-14
    )


# --- r-grid stacks ------------------------------------------------------------------

#: Every brute-force-feasible configuration, and r values that include the
#: small-r rows where the top levels hold many tiny negative eigenvalues.
BRUTE_FEASIBLE = every_kind_on(
    [dirac(n) for n in range(1, 6)], [spinless(n) for n in range(1, 12)]
)
_STACK_RNG = random.Random(7)
STACK_R = (
    [math.pi / 4 * i / 32 for i in range(33)]
    + [1e-9, 1e-4, 0.005, 0.0245, 0.0669]
    + [_STACK_RNG.uniform(0.0, math.pi / 4) for _ in range(20)]
)


@pytest.mark.parametrize("scenario,field", BRUTE_FEASIBLE)
def test_stacked_bruteforce_is_the_per_point_value_bit_for_bit(scenario, field):
    stack = trace_out_region_iv(build_joint_state(scenario, field, squeeze_grid(STACK_R)))
    stacked = negativity_bruteforce(stack)
    singles = [negativity_bruteforce(brute_rho(scenario, field, r))[0] for r in STACK_R]
    assert [value.hex() for value in stacked] == [value.hex() for value in singles]


def test_each_point_sums_its_negative_eigenvalues_in_ascending_order():
    # diagonal entries are 1x1 components, returned in index order; each
    # 1.5e-12 is most of an ulp of 1e4, so the sum depends on the order, and
    # each point adds its eigenvalues in ascending order, as a lone matrix did
    tiny, big = [-1.5e-12] * 3, [-1e4]
    diagonal = np.array(tiny + big + big + tiny)
    entries = {(i, i): value for i, value in enumerate(diagonal.tolist())}
    rho = density_matrix(spinless(1), entries, points=2)
    expected = [float(-np.sort(half).sum()) for half in np.split(diagonal, 2)]
    assert negativity_bruteforce(rho) == expected
    assert expected[0] != float(-diagonal[:4].sum())


def test_stack_spectrum_is_the_union_of_the_point_spectra():
    scenario, field = bell(dirac(2)), dirac(2)
    rs = (0.0, 0.3, math.pi / 4)
    stack = trace_out_region_iv(build_joint_state(scenario, field, squeeze_grid(rs)))
    singles = [brute_rho(scenario, field, r) for r in rs]
    assert stack.points == 3 and stack.side == 3 * (2 << field.slots)
    for transform in (lambda matrix: matrix, partial_transpose_alice):
        spectra = [hermitian_spectrum(transform(single)) for single in singles]
        union = np.sort(np.concatenate(spectra))
        assert np.array_equal(hermitian_spectrum(transform(stack)), union)


def test_block_census_refuses_a_stack():
    rs = squeeze_grid([0.3, 0.6])
    rho = trace_out_region_iv(build_joint_state(vac_one(dirac(2)), dirac(2), rs))
    with pytest.raises(ValueError, match="2-point stack"):
        block_census(vac_one(dirac(2)), dirac(2), rho)


def one_matrix_health(rho):
    """Trace, hermiticity defect and least eigenvalue of a lone matrix by the
    whole-matrix formulas, as ``float.hex`` strings."""
    trace = complex(rho.values[rho.rows == rho.cols].sum())
    dense = to_dense(rho)
    defect = float(np.abs(dense - dense.conj().T).max(initial=0.0))
    low = float(hermitian_spectrum(rho)[0])
    return trace.real.hex(), trace.imag.hex(), defect.hex(), low.hex()


@pytest.mark.parametrize("scenario,field", density_grid())
def test_stack_health_is_the_per_point_health_bit_for_bit(scenario, field):
    for build in (
        lambda rs: trace_out_region_iv(build_joint_state(scenario, field, rs)),
        lambda rs: analytic_density(scenario, field, rs),
    ):
        stack = build(R_GRID)
        stacked = [
            (trace.real.hex(), trace.imag.hex(), defect.hex(), low.hex())
            for trace, defect, low in zip(
                stack.trace(), stack.hermiticity_defect(), lowest_eigenvalues(stack)
            )
        ]
        assert stacked == [one_matrix_health(build(squeeze_grid([r]))) for r in R_VALUES]


def test_lowest_eigenvalue_counts_untouched_indices_as_zeros():
    # spinless n=1, side 4 per point: point 0 touches every index, point 1
    # leaves two untouched (so its least eigenvalue is 0.0), point 2 has a
    # negative entry, and point 3 stores nothing
    diagonal = {0: 0.3, 1: 0.2, 2: 0.4, 3: 0.1, 4: 0.5, 6: 0.5, 9: -0.25, 10: 1.25}
    entries = {(i, i): value for i, value in diagonal.items()}
    stack = density_matrix(spinless(1), entries, points=4)
    singles = [
        density_matrix(
            spinless(1), {(i % 4, i % 4): v for i, v in diagonal.items() if i // 4 == p}
        )
        for p in range(4)
    ]
    expected = [float(hermitian_spectrum(single)[0]) for single in singles]
    assert expected == [0.1, 0.0, -0.25, 0.0]
    assert lowest_eigenvalues(stack) == expected
    assert stack.trace() == [1.0, 1.0, 1.0, 0.0]


# --- block-path negativity ---------------------------------------------------------


def test_blocks_value_at_infinite_acceleration():
    rs = squeeze_grid([math.pi / 4])
    for scenario, field in ALL_CONFIGS:
        (value,) = negativity_blocks(scenario, [field], rs)[0]
        assert value == pytest.approx(0.25, abs=1e-12)


def test_spinless_n1_is_a_single_block():
    (value,) = negativity_blocks(vac_one(spinless(1)), [spinless(1)], squeeze_grid([0.37]))[0]
    assert block_row(vac_one(spinless(1)), spinless(1)) == [1]
    assert value == pytest.approx(0.5 * math.cos(0.37) ** 2, abs=1e-15)


def test_bell_n1_is_a_single_off_diagonal_block():
    (value,) = negativity_blocks(bell(dirac(1)), [dirac(1)], squeeze_grid([0.37]))[0]
    assert block_row(bell(dirac(1)), dirac(1)) == [1]
    assert value == pytest.approx(0.5 * math.cos(0.37) ** 2, abs=1e-15)


def hypot_levels(field, r):
    """Every vacuum/one-particle level's negative eigenvalue in hypotenuse
    form: the block [[d0(m+1), d1(m)], [d1(m), 0]] / 2 has |λ_m| =
    (hypot(d0(m+1), 2 d1(m)) - d0(m+1)) / 4. Returns those and the
    diagonal weights d0(m), m = 0..slots, each the double :func:`weight`
    gives (d0(m) / 1.0 is d0(m), and d1(m) is d0(m) / cos r)."""
    cos, tan = math.cos(r), math.tan(r)
    c0 = cos**field.slots
    d0 = [c0 * c0 * (tan * tan) ** m for m in range(field.slots + 1)]
    lams = [
        0.25 * (math.hypot(d0[m + 1], 2.0 * (d0[m] / cos)) - d0[m + 1])
        for m in range(field.slots)
    ]
    return lams, d0


#: The acceptance grid plus the deep sweep's grid, where the deepest ladders
#: (Dirac n=515, spinless n=1030) are subnormal.
LADDER_R = NEGATIVITY_R + tuple(linspace(201, 0.70, math.pi / 4))


#: Vacuum/one-particle fields from one level up to the deepest block series.
LADDER_FIELDS = [dirac(n) for n in (*range(1, 13), 515)] + [
    spinless(n) for n in (*range(1, 65), 1030)
]


def test_block_eigenvalues_match_coefficient_ladder():
    # hypot(d0(m+1), 2 d1(m)) = d0(m) (tan^2 r + 2), so |λ_m| = d0(m) / 2:
    # the block series' levels are the analytic density's weights
    for field in LADDER_FIELDS:
        for r in LADDER_R:
            lams, d0 = hypot_levels(field, r)
            assert d0[-1] == weight(field, r, 0, field.slots)
            for m, lam in enumerate(lams):
                half = 0.5 * d0[m]
                assert abs(lam - half) <= 4 * math.ulp(half), (field, r, m)


@pytest.mark.parametrize("scenario,field", ALL_CONFIGS)
def test_blocks_agree_with_bruteforce(scenario, field):
    blocks_values = negativity_blocks(scenario, [field], R_GRID)[0]
    brute_values = negativity_bruteforce(
        trace_out_region_iv(build_joint_state(scenario, field, R_GRID))
    )
    for r, blocks_value, brute_value in zip(R_VALUES, blocks_values, brute_values):
        assert blocks_value == pytest.approx(brute_value, abs=1e-10)
        assert blocks_value == pytest.approx(0.5 * math.cos(r) ** 2, abs=1e-12)


def test_law_holds_for_off_center_excited_modes():
    r = 0.48
    target = 0.5 * math.cos(0.48) ** 2
    for scenario, field in (
        (Scenario(((), (ModeLabel(3, Spin.DOWN),))), dirac(3)),
        (Scenario(((ModeLabel(2, Spin.UP),), (ModeLabel(3, Spin.DOWN),))), dirac(3)),
        (Scenario(((), (ModeLabel(4),))), spinless(5)),
    ):
        (value,) = negativity_blocks(scenario, [field], squeeze_grid([r]))[0]
        assert value == pytest.approx(target, abs=1e-12)
        (brute_value,) = negativity_bruteforce(brute_rho(scenario, field, r))
        assert brute_value == pytest.approx(target, abs=1e-10)


def test_negativity_is_strictly_decreasing_in_r():
    rs = squeeze_grid([0.0, 0.2, 0.4, 0.6, math.pi / 4])
    values = negativity_blocks(vac_one(dirac(3)), [dirac(3)], rs)[0]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_n_independence_across_mode_counts():
    r = squeeze_grid([0.61])
    (reference,) = negativity_blocks(vac_one(dirac(1)), [dirac(1)], r)[0]
    close = [pytest.approx(reference, abs=1e-12)]
    for n in range(2, 13):
        for scenario in (vac_one(dirac(n)), bell(dirac(n))):
            assert negativity_blocks(scenario, [dirac(n)], r)[0] == close
    for n in range(1, 65):
        assert negativity_blocks(vac_one(spinless(n)), [spinless(n)], r)[0] == close


class Level(NamedTuple):
    """One term of the block series: the level m, the block's negative
    eigenvalue |λ_m| and its multiplicity C(top, m)."""

    m: int
    lam: float
    mult: int


def reference_negativity_blocks(scenario, field, r):
    """The block series term by term: each level's negative eigenvalue is
    half the :func:`weight` d(i, m), i = 2 for a Bell state (branch 0
    excites a mode) and 0 otherwise (see :func:`hypot_levels` for the vacuum/one-particle
    blocks), times one ``math.comb``, summed with a sequential ``+=``.
    Returns the sum and the :class:`Level` terms."""
    top = block_top(scenario.name, field.mode_count)
    i = 2 if scenario.name.startswith("bell-") else 0
    levels = []
    total = 0.0
    for m in range(top + 1):
        lam = 0.5 * weight(field, r, i, m)
        mult = math.comb(top, m)
        levels.append(Level(m, lam, mult))
        total += mult * lam
    return total, levels


_rng = random.Random(20090)
#: The endpoints, the small-r rows where a block series is all top levels,
#: random interior points, and large-r rows whose deepest ladders (Dirac
#: n=515, spinless n=1030) are subnormal.
BIT_R = (
    [0.0, math.pi / 4]
    + [_rng.uniform(0.0, math.pi / 4) for _ in range(3)]
    + [1e-9, 1e-4, 0.005, 0.0245, 0.0669]
    + [0.7228, 0.7555, 0.7717, math.nextafter(math.pi / 4, 0)]
)


BIT_CONFIGS = {
    "vac-one-dirac-n1-64": [(vac_one(dirac(n)), dirac(n)) for n in range(1, 65)],
    "bell-dirac-n1-64": [(bell(dirac(n)), dirac(n)) for n in range(1, 65)],
    "vac-one-spinless-n1-64": [(vac_one(spinless(n)), spinless(n)) for n in range(1, 65)],
    "deep-and-guard-endpoints": [
        (bell(dirac(400)), dirac(400)),
        (vac_one(spinless(1000)), spinless(1000)),
        (vac_one(dirac(515)), dirac(515)),
        (bell(dirac(515)), dirac(515)),
        (vac_one(spinless(1030)), spinless(1030)),
    ],
}


@pytest.mark.parametrize("group", list(BIT_CONFIGS))
def test_blocks_bit_identical_to_reference_series(group):
    for scenario, field in BIT_CONFIGS[group]:
        values = negativity_blocks(scenario, [field], squeeze_grid(BIT_R))[0]
        assert len(values) == len(BIT_R)
        for r, value in zip(BIT_R, values):
            ref_value, ref_levels = reference_negativity_blocks(scenario, field, r)
            # the grid's value at r is the one-point series, to the bit
            assert value.hex() == ref_value.hex()
        # the recurrence row is the reference's per-level binomials
        assert block_row(scenario, field) == [level.mult for level in ref_levels]


def spinless_bell(first, second):
    return Scenario(((ModeLabel(first),), (ModeLabel(second),)))


#: Each scenario at top <= 100 on a few r, and the deepest spinless row
#: (top 1029) at one r where its levels are far from the top.
EXACT_POINTS = [
    (scenario, field, [1e-9, 0.2, 0.4163, 0.6, math.pi / 4])
    for scenario, field in (
        (vac_one(dirac(50)), dirac(50)),
        (bell(dirac(51)), dirac(51)),
        (vac_one(spinless(101)), spinless(101)),
        (spinless_bell(3, 1), spinless(102)),
    )
] + [(vac_one(spinless(1030)), spinless(1030), [0.7555])]


def test_block_series_is_within_its_rounding_of_the_exact_sum():
    # the program's series against its exact value on the same doubles
    # cos r and tan r: the summation may err by (top + 1) ulps of the
    # value at most (the worst measured is about a tenth of that), so a
    # relative error of 1e-13 fails at every top <= 100
    for scenario, field, r in EXACT_POINTS:
        rs = squeeze_grid(r)
        (row,) = negativity_blocks(scenario, [field], rs)
        top = block_top(scenario.name, field.mode_count)
        for cos, tan, value in zip(rs.cos.tolist(), rs.tan.tolist(), row):
            exact = exact_block_series(scenario.name, field, cos, tan)
            error = abs(Fraction(value) - exact)
            assert error <= (top + 1) * Fraction(2.0**-53) * exact, (
                f"{scenario.name} n={field.mode_count} cos={cos!r}: "
                f"error {float(error) / float(exact):.3e} of the exact value"
            )


def test_multi_field_rows_are_the_one_field_series():
    # fields shuffled and tops mixed, the shallowest next to the deepest:
    # every row is the one-field call's row, to the bit
    rng = random.Random(515)
    rs = squeeze_grid([BIT_R[i] for i in (0, 1, 2, 5, 9, 10, 13)])
    for scenario, fields in (
        (vac_one(spinless(1)), [spinless(n) for n in (1, 1030, 2, 64, 1000, 7)]),
        (vac_one(dirac(1)), [dirac(n) for n in (1, 515, 3, 12)]),
        (bell(dirac(1)), [dirac(n) for n in (1, 400, 2, 515, 12)]),
    ):
        rng.shuffle(fields)
        rows = negativity_blocks(scenario, fields, rs)
        assert len(rows) == len(fields)
        for field, row in zip(fields, rows):
            (alone,) = negativity_blocks(scenario, [field], rs)
            assert [x.hex() for x in row] == [x.hex() for x in alone]
        assert negativity_blocks(scenario, fields, squeeze_grid([])) == [[] for _ in fields]
        assert negativity_blocks(scenario, [], rs) == []


def test_block_series_row_blocks_keep_the_bits(monkeypatch):
    # one point per row block gives the same doubles as the default blocks
    rs = squeeze_grid([0.0, 1e-9, 0.3, 0.7555, math.pi / 4])
    fields = [spinless(n) for n in (1, 5, 1030)]
    default = negativity_blocks(vac_one(spinless(1)), fields, rs)
    monkeypatch.setattr(entanglement, "SERIES_BLOCK", 1)
    assert negativity_blocks(vac_one(spinless(1)), fields, rs) == default


def test_max_block_top_is_the_last_float_binomial_row():
    top = MAX_BLOCK_TOP
    assert math.comb(top, top // 2) <= sys.float_info.max
    assert math.comb(top + 1, (top + 1) // 2) > sys.float_info.max


@pytest.mark.parametrize(
    "scenario,field",
    [
        (vac_one(dirac(516)), dirac(516)),
        (bell(dirac(516)), dirac(516)),
        (vac_one(spinless(1031)), spinless(1031)),
        (vac_one(dirac(10**9)), dirac(10**9)),
        (bell(dirac(10**9)), dirac(10**9)),
        (vac_one(spinless(10**9)), spinless(10**9)),
    ],
)
def test_blocks_beyond_float_range_is_capacity_error(scenario, field):
    # refused on the row's top, before any multiplicity is computed
    # an empty grid too: the cap does not depend on the points
    for rs in (squeeze_grid([0.0, 0.4]), squeeze_grid([])):
        with pytest.raises(CapacityError):
            negativity_blocks(scenario, [field], rs)
        # beside a field within range too, in either order
        within = FieldKind(field.family, 2)
        for fields in ([within, field], [field, within]):
            with pytest.raises(CapacityError):
                negativity_blocks(scenario, fields, rs)
    with pytest.raises(CapacityError):
        block_row(scenario, field)


# --- block census ----------------------------------------------------------------


def test_diagonal_matrix_extracts_only_scalars():
    diag = density_matrix(dirac(1), {(0, 0): 0.5, (3, 3): 0.5})
    assert block_census(vac_one(dirac(1)), dirac(1), partial_transpose_alice(diag)) == {}


def test_census_vac_one_dirac_n1():
    r = 0.5
    rho = brute_rho(vac_one(dirac(1)), dirac(1), r)
    assert block_census(vac_one(dirac(1)), dirac(1), rho) == {0: 1, 1: 1}


def test_census_bell_n2():
    r = 0.5
    rho = brute_rho(bell(dirac(2)), dirac(2), r)
    assert block_census(bell(dirac(2)), dirac(2), rho) == {0: 1, 1: 2, 2: 1}


def test_census_spinless_n4():
    r = 0.5
    rho = brute_rho(vac_one(spinless(4)), spinless(4), r)
    assert block_census(vac_one(spinless(4)), spinless(4), rho) == {0: 1, 1: 3, 2: 3, 3: 1}


@pytest.mark.parametrize("scenario,field", ALL_CONFIGS)
def test_census_matches_multiplicity_formula(scenario, field):
    r = 0.6
    counts = block_census(scenario, field, brute_rho(scenario, field, r))
    top = block_top(scenario.name, field.mode_count)
    assert counts == {m: math.comb(top, m) for m in range(top + 1)}


def hexes(values):
    return [value.hex() for value in values]


@pytest.mark.parametrize("scenario,field", density_grid())
def test_health_and_census_match_the_matrix_building_reference(scenario, field):
    # the program reads rho's arrays as they are; the reference builds the
    # adjoint, the entry difference and the partial transpose as matrices:
    # the same doubles and the same counts, on both paths at the same r
    rs = [*R_VALUES, 5e-324, 1e-9]
    brute = trace_out_region_iv(build_joint_state(scenario, field, squeeze_grid(rs)))
    direct = analytic_density(scenario, field, squeeze_grid(rs))
    for stack in (brute, direct):
        assert hexes(stack.hermiticity_defect()) == hexes(reference_defect(stack))
    for a, b in ((brute, direct), (direct, brute)):
        assert hexes(max_entry_difference(a, b)) == hexes(reference_difference(a, b))
    for r in rs:
        point = squeeze_grid([r])
        for rho in (brute_rho(scenario, field, r), analytic_density(scenario, field, point)):
            expected = reference_census(scenario, field, partial_transpose_alice(rho))
            assert block_census(scenario, field, rho) == expected


def test_health_matches_the_matrix_building_reference_off_hermitian():
    # entries without a mirror, a non-Hermitian pair, a complex diagonal, a
    # NaN, a stored zero, and a point with no entry at all
    a = density_matrix(
        spinless(1),
        {(0, 1): 0.3 + 0.1j, (1, 0): 0.2, (2, 2): 0.5j, (3, 1): -0.25, (5, 6): 0.0,
         (6, 5): 0.1 - 0.2j, (6, 6): math.nan},
        points=3,
    )
    b = density_matrix(spinless(1), {(0, 1): 0.3, (3, 1): -0.25, (4, 4): 1.0}, points=3)
    empty = density_matrix(spinless(1), {}, points=2)
    for stack in (a, b, empty):
        assert hexes(stack.hermiticity_defect()) == hexes(reference_defect(stack))
    for first, second in ((a, b), (b, a), (a, a)):
        assert hexes(max_entry_difference(first, second)) == hexes(
            reference_difference(first, second)
        )
    assert empty.hermiticity_defect() == max_entry_difference(empty, empty) == [0.0, 0.0]


#: Every excited-mode choice on the small fields: vacuum/one-particle on
#: every label of Dirac n=2 and spinless n=4, and Bell on all 12 ordered
#: pairs of distinct Dirac n=2 labels, six of them with the first slot above
#: the second.
EVERY_EXCITED_MODE = (
    [(Scenario(((), (mode,))), dirac(2)) for mode in dirac(2).labels()]
    + [(Scenario(((), (mode,))), spinless(4)) for mode in spinless(4).labels()]
    + [
        (Scenario(((first,), (second,))), dirac(2))
        for first, second in itertools.permutations(dirac(2).labels(), 2)
    ]
)


#: Spinless Bell states on any two modes, not only the first two that
#: :func:`bell` excites: they fall out of the branch pair. Each pair of modes
#: is taken in both orders.
SPINLESS_BELL = [
    (spinless_bell(first, second), spinless(n))
    for n, pair in ((2, (1, 2)), (3, (1, 3)), (4, (2, 3)), (6, (5, 2)))
    for first, second in (pair, pair[::-1])
]


@pytest.mark.parametrize(
    "scenario,field",
    SPINLESS_BELL,
    ids=[
        f"n{field.mode_count}-modes"
        + "-".join(str(mode.momentum) for mode in itertools.chain(*scenario.branches))
        for scenario, field in SPINLESS_BELL
    ],
)
def test_spinless_bell_state_falls_out_of_its_branches(scenario, field):
    assert scenario.name == "bell-spinless"
    tols = Tolerances()
    r = [0.0, 0.2, 0.5, math.pi / 4]
    rs = squeeze_grid(r)
    brute = trace_out_region_iv(build_joint_state(scenario, field, rs))
    assert max(max_entry_difference(brute, analytic_density(scenario, field, rs))) < 1e-12
    targets = [0.5 * math.cos(x) ** 2 for x in r]
    (blocks,) = negativity_blocks(scenario, [field], rs)
    for value, target in zip(blocks, targets):
        assert abs(value - target) < tols.negativity_analytic
    for value, target in zip(negativity_bruteforce(brute), targets):
        assert abs(value - target) < tols.negativity_bruteforce
    row = block_row(scenario, field)
    assert len(row) - 1 == block_top(scenario.name, field.mode_count)
    rho = brute_rho(scenario, field, 0.6)
    assert block_census(scenario, field, rho) == dict(enumerate(row))


@pytest.mark.parametrize(
    "scenario,field",
    EVERY_EXCITED_MODE,
    ids=[
        f"{scenario.name}-n{field.mode_count}-slots"
        + "-".join(str(slot_index(field, mode)) for mode in itertools.chain(*scenario.branches))
        for scenario, field in EVERY_EXCITED_MODE
    ],
)
def test_every_excited_mode_choice_against_bruteforce(scenario, field):
    # the analytic layout's branch pairs against the trace-out of the joint
    # state, and the brute-force block census against the binomial row
    rs = squeeze_grid([0.0, 0.35, 0.7, math.pi / 4])
    brute = trace_out_region_iv(build_joint_state(scenario, field, rs))
    direct = analytic_density(scenario, field, rs)
    assert max(max_entry_difference(brute, direct)) < 1e-12
    row = block_row(scenario, field)
    rho = brute_rho(scenario, field, 0.6)
    assert block_census(scenario, field, rho) == dict(enumerate(row))


def test_pt_spectrum_is_the_block_levels():
    # the 2**top negative eigenvalues of the partial transpose are exactly
    # -λ_m, C(top, m) times each; the block scalars and the other member
    # of every pair are non-negative
    for scenario, field in ALL_CONFIGS:
        top = block_top(scenario.name, field.mode_count)
        for r in (0.3, 0.6, math.pi / 4):
            spectrum = hermitian_spectrum(
                partial_transpose_alice(brute_rho(scenario, field, r))
            )
            _, terms = reference_negativity_blocks(scenario, field, r)
            levels = sorted(-level.lam for level in terms for _ in range(level.mult))
            assert len(levels) == 2**top
            np.testing.assert_allclose(spectrum[: 2**top], levels, rtol=0, atol=1e-14)
            assert spectrum[2**top :].min() >= 0.0


def test_oversized_component_raises_structure_error():
    # a 3-chain in the sparsity pattern cannot be block-diagonalized 2x2
    bad = density_matrix(
        dirac(1), {(0, 1): 0.1, (1, 0): 0.1, (1, 2): 0.1, (2, 1): 0.1}
    )
    with pytest.raises(BlockStructureError):
        block_census(vac_one(dirac(1)), dirac(1), partial_transpose_alice(bad))


def test_pair_within_one_alice_level_raises_structure_error():
    # dirac n=1: indices 0..3 sit at Alice level 0, so (0, 1) pairs two
    # level-0 states
    bad = density_matrix(
        dirac(1), {(0, 0): 0.3, (1, 1): 0.2, (0, 1): 0.1, (1, 0): 0.1}
    )
    with pytest.raises(BlockStructureError, match="does not pair the two Alice levels"):
        block_census(vac_one(dirac(1)), dirac(1), partial_transpose_alice(bad))
