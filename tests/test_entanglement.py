import math
import random
import sys

import numpy as np
import pytest

from rindler_ferm.combinatorics import block_top
from rindler_ferm import entanglement
from rindler_ferm.density import (
    DensityMatrix,
    analytic_density,
    ScenarioKind,
    bell_dirac,
    build_joint_state,
    trace_out_region_iv,
    vac_one_dirac,
    vac_one_spinless,
)
from rindler_ferm.entanglement import (
    MAX_BLOCK_TOP,
    NEGATIVE_EIG_CUTOFF,
    BlockForm,
    BlockSpectrum,
    _component_members,
    block_census,
    block_spectrum,
    hermitian_spectrum,
    negativity_blocks,
    negativity_bruteforce,
    partial_transpose_alice,
)
from rindler_ferm.errors import BlockStructureError, CapacityError
from rindler_ferm.modes import dirac, spinless
from rindler_ferm.rindler import SqueezeParam
from rindler_ferm.verify import Tolerances, density_grid

R_GRID = [SqueezeParam(0.1 * i) for i in range(8)] + [SqueezeParam(math.pi / 4)]

ALL_CONFIGS = (
    [(vac_one_dirac(), dirac(n)) for n in (1, 2, 3)]
    + [(bell_dirac(), dirac(n)) for n in (1, 2, 3)]
    + [(vac_one_spinless(), spinless(n)) for n in (1, 3, 6)]
)


def brute_rho(scenario, field, r):
    return trace_out_region_iv(build_joint_state(scenario, field, r))


def components(matrix):
    """The partition of :func:`_component_members`, one ascending list per
    component."""
    nodes, starts, sizes = _component_members(matrix)
    return [nodes[start : start + size].tolist() for start, size in zip(starts, sizes)]


def weight(field, r, i, m):
    """d(i, m) = |C^0|^2 tan(r)^2m / cos(r)^i, evaluated from math alone."""
    c0 = math.cos(r.r) ** field.slots
    tan = math.tan(r.r)
    return c0 * c0 * (tan * tan) ** m / math.cos(r.r) ** i


# --- partial transpose ---------------------------------------------------------


def test_partial_transpose_fixes_diagonal_matrices():
    diag = DensityMatrix(dirac(1), {(0, 0): 0.25, (5, 5): 0.75})
    pt = partial_transpose_alice(diag)
    assert dict(pt.entries) == dict(diag.entries)


def test_partial_transpose_is_an_involution():
    rho = brute_rho(bell_dirac(), dirac(2), SqueezeParam(0.5))
    twice = partial_transpose_alice(partial_transpose_alice(rho))
    assert dict(twice.entries) == dict(rho.entries)


def test_partial_transpose_preserves_trace():
    rho = brute_rho(vac_one_dirac(), dirac(2), SqueezeParam(0.4))
    pt = partial_transpose_alice(rho)
    assert pt.trace() == pytest.approx(rho.trace(), abs=1e-15)
    assert pt.hermiticity_defect() < 1e-15


@pytest.mark.parametrize(
    "scenario,field",
    [(vac_one_dirac(), dirac(1)), (bell_dirac(), dirac(1)), (vac_one_spinless(), spinless(1))],
)
def test_bell_reference_spectrum_at_zero_squeezing(scenario, field):
    pt = partial_transpose_alice(brute_rho(scenario, field, SqueezeParam(0.0)))
    eigenvalues = np.linalg.eigvalsh(pt.to_dense())
    nonzero = sorted(v for v in eigenvalues if abs(v) > 1e-12)
    assert nonzero == pytest.approx([-0.5, 0.5, 0.5, 0.5], abs=1e-12)


# --- brute-force negativity -------------------------------------------------------


def test_negativity_at_zero_squeezing_is_half():
    for scenario, field in ALL_CONFIGS:
        assert negativity_bruteforce(
            brute_rho(scenario, field, SqueezeParam(0.0))
        ) == pytest.approx(0.5, abs=1e-12)


def test_separable_diagonal_state_has_zero_negativity():
    rho = DensityMatrix(dirac(1), {(0, 0): 0.5, (5, 5): 0.5})
    assert negativity_bruteforce(rho) == 0.0


def test_bruteforce_spot_value_n2():
    rho = brute_rho(vac_one_dirac(), dirac(2), SqueezeParam(0.3))
    assert negativity_bruteforce(rho) == pytest.approx(0.45633390372741955, abs=1e-10)


def dense_negativity(rho):
    eigenvalues = np.linalg.eigvalsh(partial_transpose_alice(rho).to_dense())
    return float(-eigenvalues[eigenvalues < NEGATIVE_EIG_CUTOFF].sum())


ORACLE_R = [SqueezeParam(x) for x in (0.0, 0.3, 0.6, math.pi / 4)]


@pytest.mark.parametrize("scenario,field", density_grid())
def test_component_spectrum_matches_dense_oracle(scenario, field):
    for r in ORACLE_R:
        rho = brute_rho(scenario, field, r)
        pt = partial_transpose_alice(rho)
        for matrix in (rho, pt):
            spectrum = hermitian_spectrum(matrix)
            assert spectrum.shape == (matrix.side,)
            np.testing.assert_allclose(
                spectrum, np.linalg.eigvalsh(matrix.to_dense()), rtol=0, atol=1e-14
            )
        assert negativity_bruteforce(rho) == pytest.approx(
            dense_negativity(rho), abs=1e-14
        )


def test_components_of_any_size_match_dense_oracle():
    # spinless n=3: side 16, Alice level 1 starts at index 8
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
    rho = DensityMatrix(spinless(3), entries)
    pt = partial_transpose_alice(rho)
    for matrix in (rho, pt):
        assert sorted(map(len, components(matrix))) == [1, 3, 4]
        np.testing.assert_allclose(
            hermitian_spectrum(matrix),
            np.linalg.eigvalsh(matrix.to_dense()),
            rtol=0,
            atol=1e-14,
        )
        with pytest.raises(BlockStructureError):
            block_census(vac_one_spinless(), spinless(3), matrix)
    assert negativity_bruteforce(rho) > 0.0
    assert negativity_bruteforce(rho) == pytest.approx(dense_negativity(rho), abs=1e-14)


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


def test_long_chain_and_star_components_match_dense_oracle():
    # spinless n=7: side 256. A 70-node chain whose node order along the
    # chain is shuffled (labels must travel far, both ways), a star whose
    # centre is its highest index (the least label reaches the other
    # leaves only through it), and one isolated scalar.
    rng = np.random.default_rng(5)
    order = rng.permutation(256)
    chain = order[:70].tolist()
    *leaves, centre = sorted(order[70:83].tolist())
    lone = int(order[83])
    links = list(zip(chain, chain[1:])) + [(centre, leaf) for leaf in leaves]
    rho = DensityMatrix(spinless(7), {**hermitian_links(links, rng), (lone, lone): 0.02})
    expected = sorted([sorted(chain), [*leaves, centre], [lone]])
    assert sorted(components(rho)) == expected
    np.testing.assert_allclose(
        hermitian_spectrum(rho), np.linalg.eigvalsh(rho.to_dense()), rtol=0, atol=1e-14
    )
    with pytest.raises(BlockStructureError):
        block_census(vac_one_spinless(), spinless(7), rho)


@pytest.mark.parametrize(
    "scenario,field",
    [(vac_one_dirac(), dirac(5)), (bell_dirac(), dirac(5)), (vac_one_spinless(), spinless(10))],
)
def test_bruteforce_at_side_2048(scenario, field):
    tol = Tolerances().negativity_bruteforce
    for r in ORACLE_R:
        rho = brute_rho(scenario, field, r)
        assert rho.side == 2048
        assert negativity_bruteforce(rho) == pytest.approx(0.5 * r.cos**2, abs=tol)


def test_eigensolver_capacity_error(monkeypatch):
    # vac-one Dirac n=1: the partial transpose holds 2x2 components, 4
    # entries each, so a budget of 3 refuses it before any eigensolve
    rho = brute_rho(vac_one_dirac(), dirac(1), SqueezeParam(0.4))
    monkeypatch.setattr(entanglement, "EIGENSOLVE_BUDGET", 3)
    with pytest.raises(CapacityError):
        negativity_bruteforce(rho)
    with pytest.raises(CapacityError):
        hermitian_spectrum(rho)


@pytest.mark.parametrize("scenario", [vac_one_dirac(), bell_dirac()])
def test_bruteforce_spectrum_beyond_the_dense_side(scenario):
    # side 32768: four times the dense 8192 side, but its components are
    # scalars and pairs, far inside the eigensolve budget
    r = SqueezeParam(0.6)
    rho = analytic_density(scenario, dirac(7), r)
    assert rho.side == 1 << 15
    assert negativity_bruteforce(rho) == pytest.approx(0.5 * r.cos**2, abs=1e-14)


# --- block-path negativity ---------------------------------------------------------


def test_blocks_value_at_infinite_acceleration():
    r = SqueezeParam(math.pi / 4)
    for scenario, field in ALL_CONFIGS:
        value = negativity_blocks(scenario, field, r)
        assert value == pytest.approx(0.25, abs=1e-12)


def test_spinless_n1_is_a_single_block():
    r = SqueezeParam(0.37)
    value = negativity_blocks(vac_one_spinless(), spinless(1), r)
    blocks = block_spectrum(vac_one_spinless(), spinless(1), r)
    assert len(blocks) == 1
    assert blocks[0].m == 0 and blocks[0].multiplicity == 1
    assert blocks[0].block_form is BlockForm.DIAG_COUPLED
    assert value == pytest.approx(0.5 * math.cos(0.37) ** 2, abs=1e-15)


def test_bell_n1_is_a_single_off_diagonal_block():
    r = SqueezeParam(0.37)
    value = negativity_blocks(bell_dirac(), dirac(1), r)
    blocks = block_spectrum(bell_dirac(), dirac(1), r)
    assert len(blocks) == 1
    assert blocks[0].block_form is BlockForm.OFF_DIAG_ONLY
    assert blocks[0].neg_eigenvalue == pytest.approx(
        0.5 * math.cos(0.37) ** 2, abs=1e-15
    )
    assert value == pytest.approx(0.5 * math.cos(0.37) ** 2, abs=1e-15)


def test_block_eigenvalues_match_coefficient_ladder():
    # diag-coupled blocks collapse to 0.5 |C0|^2 tan^(2m); off-diagonal
    # blocks to d2(m)/2
    r = SqueezeParam(0.52)
    field = dirac(2)
    blocks = block_spectrum(vac_one_dirac(), field, r)
    for b in blocks:
        assert b.neg_eigenvalue == pytest.approx(
            0.5 * weight(field, r, 0, b.m), rel=1e-13
        )
    blocks = block_spectrum(bell_dirac(), field, r)
    for b in blocks:
        assert b.neg_eigenvalue == pytest.approx(
            0.5 * weight(field, r, 2, b.m), rel=1e-13
        )


@pytest.mark.parametrize("scenario,field", ALL_CONFIGS)
def test_blocks_agree_with_bruteforce(scenario, field):
    for r in R_GRID:
        blocks_value = negativity_blocks(scenario, field, r)
        brute_value = negativity_bruteforce(brute_rho(scenario, field, r))
        assert blocks_value == pytest.approx(brute_value, abs=1e-10)
        assert blocks_value == pytest.approx(0.5 * r.cos**2, abs=1e-12)


def test_law_holds_for_off_center_rob_modes():
    from rindler_ferm.modes import ModeLabel, Spin

    r = SqueezeParam(0.48)
    target = 0.5 * math.cos(0.48) ** 2
    for scenario, field in (
        (vac_one_dirac(ModeLabel(3, Spin.DOWN)), dirac(3)),
        (bell_dirac(ModeLabel(2, Spin.UP), ModeLabel(3, Spin.DOWN)), dirac(3)),
        (vac_one_spinless(ModeLabel(4)), spinless(5)),
    ):
        assert negativity_blocks(scenario, field, r) == pytest.approx(
            target, abs=1e-12
        )
        assert negativity_bruteforce(brute_rho(scenario, field, r)) == pytest.approx(
            target, abs=1e-10
        )


def test_negativity_is_strictly_decreasing_in_r():
    values = [
        negativity_blocks(vac_one_dirac(), dirac(3), r)
        for r in [SqueezeParam(x) for x in (0.0, 0.2, 0.4, 0.6, math.pi / 4)]
    ]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_n_independence_across_mode_counts():
    r = SqueezeParam(0.61)
    reference = negativity_blocks(vac_one_dirac(), dirac(1), r)
    for n in range(2, 13):
        for scenario in (vac_one_dirac(), bell_dirac()):
            assert negativity_blocks(scenario, dirac(n), r) == pytest.approx(
                reference, abs=1e-12
            )
    for n in range(1, 65):
        assert negativity_blocks(vac_one_spinless(), spinless(n), r) == pytest.approx(
            reference, abs=1e-12
        )


def reference_negativity_blocks(scenario, field, r):
    """The block series term by term: :func:`weight` and one ``math.comb``
    per level, summed with a sequential ``+=``."""
    n = field.mode_count
    top = block_top(scenario.kind, n)
    blocks = []
    total = 0.0
    if scenario.kind is ScenarioKind.BELL_DIRAC:
        for m in range(2 * n - 1):
            lam = 0.5 * weight(field, r, 2, m)
            mult = math.comb(top, m)
            blocks.append(BlockSpectrum(m, BlockForm.OFF_DIAG_ONLY, lam, mult))
            total += mult * lam
    else:
        for m in range(field.slots):
            d0 = weight(field, r, 0, m + 1)
            d1 = weight(field, r, 1, m)
            lam = 0.25 * (math.hypot(d0, 2.0 * d1) - d0)
            mult = math.comb(top, m)
            blocks.append(BlockSpectrum(m, BlockForm.DIAG_COUPLED, lam, mult))
            total += mult * lam
    return total, blocks


_rng = random.Random(20090)
BIT_R = [SqueezeParam(0.0), SqueezeParam(math.pi / 4)] + [
    SqueezeParam(_rng.uniform(0.0, math.pi / 4)) for _ in range(3)
]


BIT_CONFIGS = {
    "vac-one-dirac-n1-64": [(vac_one_dirac(), dirac(n)) for n in range(1, 65)],
    "bell-dirac-n1-64": [(bell_dirac(), dirac(n)) for n in range(1, 65)],
    "vac-one-spinless-n1-64": [(vac_one_spinless(), spinless(n)) for n in range(1, 65)],
    "deep-and-guard-endpoints": [
        (bell_dirac(), dirac(400)),
        (vac_one_spinless(), spinless(1000)),
        (vac_one_dirac(), dirac(515)),
        (bell_dirac(), dirac(515)),
        (vac_one_spinless(), spinless(1030)),
    ],
}


@pytest.mark.parametrize("group", list(BIT_CONFIGS))
def test_blocks_bit_identical_to_reference_series(group):
    for scenario, field in BIT_CONFIGS[group]:
        for r in BIT_R:
            value = negativity_blocks(scenario, field, r)
            blocks = block_spectrum(scenario, field, r)
            ref_value, ref_blocks = reference_negativity_blocks(scenario, field, r)
            assert value == ref_value
            # the value is the sequential sum over the records, to the bit
            total = 0.0
            for b in blocks:
                total += b.multiplicity * b.neg_eigenvalue
            assert value == total
            assert [
                (b.m, b.block_form, b.neg_eigenvalue, b.multiplicity) for b in blocks
            ] == [
                (b.m, b.block_form, b.neg_eigenvalue, b.multiplicity)
                for b in ref_blocks
            ]


def test_max_block_top_is_the_last_float_binomial_row():
    top = MAX_BLOCK_TOP
    assert math.comb(top, top // 2) <= sys.float_info.max
    assert math.comb(top + 1, (top + 1) // 2) > sys.float_info.max


@pytest.mark.parametrize(
    "scenario,field",
    [
        (vac_one_dirac(), dirac(516)),
        (bell_dirac(), dirac(516)),
        (vac_one_spinless(), spinless(1031)),
        (vac_one_dirac(), dirac(10**9)),
        (bell_dirac(), dirac(10**9)),
        (vac_one_spinless(), spinless(10**9)),
    ],
)
def test_blocks_beyond_float_range_is_capacity_error(scenario, field):
    # refused on the row's top, before any multiplicity is computed
    for r in (SqueezeParam(0.0), SqueezeParam(0.4)):
        with pytest.raises(CapacityError):
            negativity_blocks(scenario, field, r)
        with pytest.raises(CapacityError):
            block_spectrum(scenario, field, r)


# --- block census ----------------------------------------------------------------


def test_diagonal_matrix_extracts_only_scalars():
    diag = DensityMatrix(dirac(1), {(0, 0): 0.5, (3, 3): 0.5})
    assert block_census(vac_one_dirac(), dirac(1), diag) == {}


def test_census_vac_one_dirac_n1():
    r = SqueezeParam(0.5)
    pt = partial_transpose_alice(brute_rho(vac_one_dirac(), dirac(1), r))
    assert block_census(vac_one_dirac(), dirac(1), pt) == {0: 1, 1: 1}


def test_census_bell_n2():
    r = SqueezeParam(0.5)
    pt = partial_transpose_alice(brute_rho(bell_dirac(), dirac(2), r))
    assert block_census(bell_dirac(), dirac(2), pt) == {0: 1, 1: 2, 2: 1}


def test_census_spinless_n4():
    r = SqueezeParam(0.5)
    pt = partial_transpose_alice(brute_rho(vac_one_spinless(), spinless(4), r))
    assert block_census(vac_one_spinless(), spinless(4), pt) == {0: 1, 1: 3, 2: 3, 3: 1}


@pytest.mark.parametrize("scenario,field", ALL_CONFIGS)
def test_census_matches_multiplicity_formula(scenario, field):
    r = SqueezeParam(0.6)
    pt = partial_transpose_alice(brute_rho(scenario, field, r))
    counts = block_census(scenario, field, pt)
    n = field.mode_count
    blocks = block_spectrum(scenario, field, r)
    assert counts == {
        b.m: math.comb(block_top(scenario.kind, n), b.m) for b in blocks
    }


def test_pt_spectrum_is_the_block_levels():
    # the 2**top negative eigenvalues of the partial transpose are exactly
    # -λ_m, C(top, m) times each; the block scalars and the other member
    # of every pair are non-negative
    for scenario, field in ALL_CONFIGS:
        top = block_top(scenario.kind, field.mode_count)
        for r in (SqueezeParam(0.3), SqueezeParam(0.6), SqueezeParam(math.pi / 4)):
            spectrum = hermitian_spectrum(
                partial_transpose_alice(brute_rho(scenario, field, r))
            )
            levels = sorted(
                -b.neg_eigenvalue
                for b in block_spectrum(scenario, field, r)
                for _ in range(b.multiplicity)
            )
            assert len(levels) == 2**top
            np.testing.assert_allclose(spectrum[: 2**top], levels, rtol=0, atol=1e-14)
            assert spectrum[2**top :].min() >= 0.0


def test_oversized_component_raises_structure_error():
    # a 3-chain in the sparsity pattern cannot be block-diagonalized 2x2
    bad = DensityMatrix(
        dirac(1), {(0, 1): 0.1, (1, 0): 0.1, (1, 2): 0.1, (2, 1): 0.1}
    )
    with pytest.raises(BlockStructureError):
        block_census(vac_one_dirac(), dirac(1), bad)


def test_pair_within_one_alice_level_raises_structure_error():
    # dirac n=1: indices 0..3 sit at Alice level 0, so (0, 1) pairs two
    # level-0 states
    bad = DensityMatrix(
        dirac(1), {(0, 0): 0.3, (1, 1): 0.2, (0, 1): 0.1, (1, 0): 0.1}
    )
    with pytest.raises(BlockStructureError, match="does not pair the two Alice levels"):
        block_census(vac_one_dirac(), dirac(1), bad)
