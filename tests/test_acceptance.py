"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see
them live). Tolerances are pinned here and must not be loosened.
"""

import math
from dataclasses import fields

from reference import every_kind_on, hermitian_spectrum
from rindler_ferm.density import (
    analytic_density,
    bell,
    build_joint_state,
    max_entry_difference,
    trace_out_region_iv,
    vac_one,
)
from rindler_ferm.entanglement import negativity_blocks, negativity_bruteforce
from rindler_ferm.modes import dirac, spinless
from rindler_ferm.rindler import (
    annihilation_residuals,
    linspace,
    squeeze_grid,
    vacuum_amplitudes,
)
from rindler_ferm.verify import (
    NEGATIVITY_R,
    ORACLE_R,
    CheckResult,
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
    block_rows,
    density_grid,
    density_stacks,
    oracle_vacua,
)

TOLS = Tolerances()  # release defaults; overriding here is not allowed


def closed_form(r: float) -> float:
    return 0.5 * math.cos(r) ** 2


def report(criterion: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion} {status:4s} {name}: {detail}")
    assert passed, f"criterion {criterion} ({name}): {detail}"


#: Both kinds on every slot count up to 6: Dirac n = 1, 2, 3 are spinless
#: n = 2, 4, 6.
BRUTE_CONFIGS = every_kind_on([spinless(n) for n in range(1, 7)])


def test_criterion_1_universal_negativity_law():
    worst_analytic = worst_brute = 0.0
    grid = squeeze_grid(NEGATIVITY_R)
    for scenario, field in BRUTE_CONFIGS:
        analytic_values = negativity_blocks(scenario, [field], grid)[0]
        brute_values = negativity_bruteforce(
            trace_out_region_iv(build_joint_state(scenario, field, grid))
        )
        for r, analytic, brute in zip(
            NEGATIVITY_R, analytic_values, brute_values, strict=True
        ):
            target = closed_form(r)
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
    result = check_n_independence(block_rows(), TOLS)
    # also pin a direct cross-family comparison at one interior point
    rs = squeeze_grid([0.33])
    (reference,) = negativity_blocks(vac_one(dirac(1)), [dirac(1)], rs)[0]
    spread = max(
        abs(negativity_blocks(vac_one(spinless(n)), [spinless(n)], rs)[0][0] - reference)
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
    endpoints = squeeze_grid([0.0, math.pi / 4])
    for scenario, field in BRUTE_CONFIGS:
        at_zero, at_quarter = negativity_blocks(scenario, [field], endpoints)[0]
        worst_zero = max(worst_zero, abs(at_zero - 0.5))
        worst_quarter = max(worst_quarter, abs(at_quarter - 0.25))
    report(
        3,
        "infinite-acceleration survival",
        worst_zero < 1e-12 and worst_quarter < 1e-12,
        f"max |N(0) - 1/2| = {worst_zero:.3e}, "
        f"max |N(pi/4) - 1/4| = {worst_quarter:.3e} (tol 1e-12)",
    )


def test_criterion_4_annihilation_oracle():
    result = check_annihilation(oracle_vacua(), TOLS)
    # direct spot check on the largest Dirac grid point
    field = dirac(4)
    rs = squeeze_grid(ORACLE_R[-1:])
    (residuals,) = annihilation_residuals(field, rs, vacuum_amplitudes(field, rs))
    spot = max(residuals)
    report(
        4,
        "annihilation oracle",
        result.passed and spot < 1e-10,
        f"max ||a|0>|| = {max(result.max_deviation, spot):.3e} over "
        f"{result.cases} (mode, r) cases (tol 1e-10)",
    )


def test_criterion_5_normalization_closed_forms():
    result = check_normalization(oracle_vacua(), TOLS)
    report(
        5,
        "normalization closed forms",
        result.passed,
        f"max |raw norm - 1/cos^slots| = {result.max_deviation:.3e} over "
        f"{result.cases} cases (tol 1e-12)",
    )


def test_criterion_6_combinatorial_identities():
    counting = check_combinatorics()
    census = check_block_census()
    report(
        6,
        "combinatorial identities",
        counting.passed and census.passed,
        f"{counting.cases} exact counting identities, "
        f"{census.cases} structural censuses, all exact",
    )


def test_criterion_7_density_path_equivalence():
    stacks = density_stacks()
    equivalence = check_density_equivalence(stacks, TOLS)
    health = check_density_health(stacks, TOLS)
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
    assert len(NEGATIVITY_R) == 33
    assert NEGATIVITY_R[0] == 0.0
    assert NEGATIVITY_R[-1] == math.pi / 4
    assert len(ORACLE_R) == 9
    assert ORACLE_R[0] == 0.0 and ORACLE_R[-1] == math.pi / 4
    analytic = check_negativity_analytic(block_rows(), TOLS)
    assert analytic.cases == (12 + 12 + 64) * 33
    brute = check_negativity_bruteforce(TOLS)
    assert brute.cases == 12 * 33
    assert analytic.passed and brute.passed


# --- the stacked checks against per-point loops -------------------------------------

#: Every tolerance at 1e-300, so nearly every case is reported as a failure
#: and each failure line names the point it was attributed to.
TINY = Tolerances(**{f.name: 1e-300 for f in fields(Tolerances)})


def result(name, tol, worst, cases, failures):
    return CheckResult(name, not failures, worst, tol, cases, failures)


def per_point_density_equivalence(tols):
    worst, cases, failures = 0.0, 0, []
    for scenario, field in density_grid():
        for r in ORACLE_R:
            rs = squeeze_grid([r])
            brute = trace_out_region_iv(build_joint_state(scenario, field, rs))
            direct = analytic_density(scenario, field, rs)
            (dev,) = max_entry_difference(brute, direct)
            cases += 1
            worst = max(worst, dev)
            if dev >= tols.density_equivalence:
                failures.append(
                    f"{scenario.name(field)} n={field.mode_count} r={r:.4f} dev={dev:.3e}"
                )
    tol = tols.density_equivalence
    return result("density path equivalence", tol, worst, cases, failures)


def per_point_density_health(tols):
    worst, cases, failures = 0.0, 0, []
    for scenario, field in density_grid():
        for r in ORACLE_R:
            rs = squeeze_grid([r])
            for label, rho in (
                ("brute", trace_out_region_iv(build_joint_state(scenario, field, rs))),
                ("analytic", analytic_density(scenario, field, rs)),
            ):
                (herm,), (trace,) = rho.hermiticity_defect(), rho.trace()
                trace_dev = abs(trace - 1.0)
                min_eig = float(hermitian_spectrum(rho)[0])
                cases += 1
                dev = max(herm, trace_dev, max(-min_eig, 0.0))
                worst = max(worst, dev)
                bad = (
                    herm >= tols.hermiticity
                    or trace_dev >= tols.trace
                    or min_eig <= -tols.psd
                )
                if bad:
                    failures.append(
                        f"{scenario.name(field)} n={field.mode_count} r={r:.4f} "
                        f"[{label}] herm={herm:.2e} trace_dev={trace_dev:.2e} "
                        f"min_eig={min_eig:.2e}"
                    )
    tol = max(tols.hermiticity, tols.trace, tols.psd)
    return result("density matrix health", tol, worst, cases, failures)


def analytic_families():
    """Each family of the block checks with its fields: vacuum/one-particle
    and Bell on Dirac, then vacuum/one-particle on spinless."""
    diracs = [dirac(n) for n in range(1, 13)]
    spinlesses = [spinless(n) for n in range(1, 65)]
    return [(vac_one, diracs), (bell, diracs), (vac_one, spinlesses)]


def per_point_negativity_analytic(tols):
    worst, cases, failures = 0.0, 0, []
    combos = [(kind(f), f) for kind, group in analytic_families() for f in group]
    for scenario, field in combos:
        for r in NEGATIVITY_R:
            (value,) = negativity_blocks(scenario, [field], squeeze_grid([r]))[0]
            dev = abs(value - 0.5 * math.cos(r) ** 2)
            cases += 1
            worst = max(worst, dev)
            if dev >= tols.negativity_analytic:
                failures.append(
                    f"{scenario.name(field)} n={field.mode_count} r={r:.4f} dev={dev:.3e}"
                )
    name, tol = "negativity (blocks) vs closed form", tols.negativity_analytic
    return result(name, tol, worst, cases, failures)


def per_point_n_independence(tols):
    worst, cases, failures = 0.0, 0, []
    for kind, group in analytic_families():
        scenario = kind(group[0])
        for r in linspace(9, 0.0, math.pi / 4):
            rs = squeeze_grid([r])
            values = [negativity_blocks(scenario, [f], rs)[0][0] for f in group]
            spread = max(values) - min(values)
            cases += 1
            worst = max(worst, spread)
            if spread >= tols.n_independence:
                failures.append(f"{scenario.name(group[0])} r={r:.4f} spread={spread:.3e}")
    tol = tols.n_independence
    return result("negativity n-independence", tol, worst, cases, failures)


def test_stacked_checks_attribute_every_deviation_to_its_point():
    stacks, series = density_stacks(), block_rows()
    for check, shared, per_point in (
        (check_density_equivalence, stacks, per_point_density_equivalence),
        (check_density_health, stacks, per_point_density_health),
        (check_negativity_analytic, series, per_point_negativity_analytic),
        (check_n_independence, series, per_point_n_independence),
    ):
        expected = per_point(TINY)
        assert not expected.passed and len(expected.failures) > expected.cases // 2
        assert check(shared, TINY) == expected
        assert check(shared, TOLS) == per_point(TOLS)
