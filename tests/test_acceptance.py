"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see
them live). Tolerances are pinned here and must not be loosened.
"""

import math

from rindler_ferm.density import (
    bell_dirac,
    build_joint_state,
    trace_out_region_iv,
    vac_one_dirac,
    vac_one_spinless,
)
from rindler_ferm.entanglement import negativity_blocks, negativity_bruteforce
from rindler_ferm.fock import norm
from rindler_ferm.modes import dirac, spinless
from rindler_ferm.rindler import SqueezeParam, minkowski_annihilation, vacuum_amplitudes
from rindler_ferm.verify import (
    Tolerances,
    check_annihilation,
    check_block_census,
    check_combinatorics,
    check_density_equivalence,
    check_density_health,
    check_n_independence,
    check_negativity_analytic,
    check_negativity_bruteforce,
    check_normalization,
    nine_point_grid,
    r_points,
)

TOLS = Tolerances()  # release defaults; overriding here is not allowed


def closed_form(r: SqueezeParam) -> float:
    return 0.5 * math.cos(r.r) ** 2


def report(criterion: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion} {status:4s} {name}: {detail}")
    assert passed, f"criterion {criterion} ({name}): {detail}"


BRUTE_CONFIGS = (
    [(vac_one_dirac(), dirac(n)) for n in (1, 2, 3)]
    + [(bell_dirac(), dirac(n)) for n in (1, 2, 3)]
    + [(vac_one_spinless(), spinless(n)) for n in range(1, 7)]
)


def test_criterion_1_universal_negativity_law():
    worst_analytic = worst_brute = 0.0
    for scenario, field in BRUTE_CONFIGS:
        for r in r_points(33):
            target = closed_form(r)
            analytic = negativity_blocks(scenario, field, r)
            (brute,) = negativity_bruteforce(
                trace_out_region_iv(build_joint_state(scenario, field, [r]))
            )
            worst_analytic = max(worst_analytic, abs(analytic - target))
            worst_brute = max(worst_brute, abs(brute - target))
    report(
        1,
        "universal negativity law",
        worst_analytic < 1e-12 and worst_brute < 1e-10,
        f"max |blocks - cos^2(r)/2| = {worst_analytic:.3e} (tol 1e-12), "
        f"max |brute - cos^2(r)/2| = {worst_brute:.3e} (tol 1e-10)",
    )


def test_criterion_2_mode_count_independence():
    result = check_n_independence(TOLS)
    # also pin a direct cross-family comparison at one interior point
    r = SqueezeParam(0.33)
    reference = negativity_blocks(vac_one_dirac(), dirac(1), r)
    spread = max(
        abs(negativity_blocks(vac_one_spinless(), spinless(n), r) - reference)
        for n in (1, 16, 64)
    )
    report(
        2,
        "mode-count independence",
        result.passed and spread < 1e-12,
        f"max spread across n = {max(result.max_deviation, spread):.3e} (tol 1e-12)",
    )


def test_criterion_3_endpoint_values():
    worst_zero = worst_quarter = 0.0
    r0, rq = SqueezeParam(0.0), SqueezeParam(math.pi / 4)
    for scenario, field in BRUTE_CONFIGS:
        worst_zero = max(
            worst_zero, abs(negativity_blocks(scenario, field, r0) - 0.5)
        )
        worst_quarter = max(
            worst_quarter, abs(negativity_blocks(scenario, field, rq) - 0.25)
        )
    report(
        3,
        "infinite-acceleration survival",
        worst_zero < 1e-12 and worst_quarter < 1e-12,
        f"max |N(0) - 1/2| = {worst_zero:.3e}, "
        f"max |N(pi/4) - 1/4| = {worst_quarter:.3e} (tol 1e-12)",
    )


def test_criterion_4_annihilation_oracle():
    result = check_annihilation(TOLS)
    # direct spot check on the largest Dirac grid point
    field = dirac(4)
    r = nine_point_grid()[-1]
    vacuum = vacuum_amplitudes(field, r)
    spot = max(
        norm(minkowski_annihilation(field, r, mode, vacuum)) for mode in field.labels()
    )
    report(
        4,
        "annihilation oracle",
        result.passed and spot < 1e-10,
        f"max ||a|0>|| = {max(result.max_deviation, spot):.3e} over "
        f"{result.cases} (mode, r) cases (tol 1e-10)",
    )


def test_criterion_5_normalization_closed_forms():
    result = check_normalization(TOLS)
    report(
        5,
        "normalization closed forms",
        result.passed,
        f"max |raw norm - 1/cos^slots| = {result.max_deviation:.3e} over "
        f"{result.cases} cases (tol 1e-12)",
    )


def test_criterion_6_combinatorial_identities():
    counting = check_combinatorics(max_n=6)
    census = check_block_census(TOLS)
    report(
        6,
        "combinatorial identities",
        counting.passed and census.passed,
        f"{counting.cases} exact counting identities, "
        f"{census.cases} structural censuses, all exact",
    )


def test_criterion_7_density_path_equivalence():
    equivalence = check_density_equivalence(TOLS)
    health = check_density_health(TOLS)
    report(
        7,
        "density path equivalence",
        equivalence.passed and health.passed,
        f"max entrywise gap = {equivalence.max_deviation:.3e} (tol 1e-12), "
        f"max health defect = {health.max_deviation:.3e} "
        f"(herm/trace 1e-12, PSD 1e-10)",
    )


def test_criteria_grid_shapes_match_the_contract():
    # guard the acceptance grids themselves so a refactor cannot shrink them
    assert len(r_points(33)) == 33
    assert r_points(33)[0].r == 0.0
    assert r_points(33)[-1].r == math.pi / 4
    grid = nine_point_grid()
    assert len(grid) == 9
    assert grid[0].r == 0.0 and grid[-1].r == math.pi / 4
    analytic = check_negativity_analytic(TOLS)
    assert analytic.cases == (12 + 12 + 64) * 33
    brute = check_negativity_bruteforce(TOLS)
    assert brute.cases == 12 * 33
    assert analytic.passed and brute.passed
