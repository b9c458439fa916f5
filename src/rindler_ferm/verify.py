"""Grid-driven verification checks tying the closed forms, the operator
algebra and the two density-matrix paths against one another.

Each check sweeps the canonical (field, n, r) grids. The six tolerance
checks yield one ``(deviation, context)`` pair per case to one gate
(:func:`_gate`), which counts the cases, passes a case only when its
deviation is below the tolerance (so a NaN deviation fails), keeps the
worst deviation (NaN once any is NaN, see :func:`_worse`) and formats a
failure line from the context of each failing case only. Health keeps
its three-way rule but keeps its worst deviation the same way; the two
exact checks compare integers, with no deviation to keep.
The negativity target 0.5 cos(r)^2 is evaluated inline from math.cos so
the comparison never routes through the code paths being checked.

Inputs that two checks read are built once per :func:`run_all` call and
passed to both, as a required argument: the grid-form oracle vacua
(:func:`oracle_vacua`: annihilation and normalization), the brute-force
and analytic density stacks (:func:`density_stacks`: path equivalence and
health) and the block-series rows on :data:`NEGATIVITY_R` (:func:`block_rows`:
the closed-form comparison, and n-independence on every 4th column, which
is the nine-point linspace bit for bit). Nothing is kept between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field, fields
from functools import reduce
from typing import Iterable, Iterator

import numpy as np

from . import combinatorics as comb
from .density import (
    DensityMatrix,
    Scenario,
    analytic_density,
    bell,
    build_joint_state,
    max_entry_difference,
    trace_out_region_iv,
    vac_one,
)
from .entanglement import (
    block_census,
    block_row,
    lowest_eigenvalues,
    negativity_blocks,
    negativity_bruteforce,
)
from .fock import Terms, norm
from .modes import FieldKind, dirac, spinless
from .rindler import (
    annihilation_residuals,
    linspace,
    point_terms,
    squeeze_grid,
    vacuum_amplitudes,
)

CENSUS_R = 0.6  # representative interior squeezing for structural censuses

#: The coarse oracle grid: steps of 0.1 plus the pi/4 endpoint.
ORACLE_R = (*(0.1 * i for i in range(8)), math.pi / 4)

#: The grid of the negativity checks: 33 evenly spaced points on [0, pi/4].
NEGATIVITY_R = tuple(linspace(33, 0.0, math.pi / 4))

#: The counting identities are checked for mode counts n = 1..COUNT_MAX_N.
COUNT_MAX_N = 6


@dataclass(frozen=True, slots=True)
class Tolerances:
    annihilation: float = 1e-10
    normalization: float = 1e-12
    density_equivalence: float = 1e-12
    hermiticity: float = 1e-12
    trace: float = 1e-12
    psd: float = 1e-10
    negativity_analytic: float = 1e-12
    negativity_bruteforce: float = 1e-10
    n_independence: float = 1e-12

    @classmethod
    def with_overrides(cls, overrides: dict[str, float]) -> "Tolerances":
        known = {f.name for f in fields(cls)}
        values: dict[str, float] = {}
        for key, value in overrides.items():
            name = key.replace("-", "_")
            if name not in known:
                raise ValueError(f"unknown tolerance {key!r}; known: {sorted(known)}")
            # NaN fails every comparison, so this form refuses it too
            if not 0.0 < value < math.inf:
                raise ValueError(f"tolerance {key} must be positive and finite")
            values[name] = value
        return cls(**values)


@dataclass(slots=True)
class CheckResult:
    name: str
    passed: bool
    max_deviation: float
    tolerance: float
    cases: int
    failures: list[str] = dataclass_field(default_factory=list)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{self.name:<34} max dev {self.max_deviation:.3e}  "
            f"tol {self.tolerance:.1e}  cases {self.cases:>5}  {status}"
        )


def oracle_fields() -> list[FieldKind]:
    return [dirac(n) for n in range(1, 5)] + [spinless(n) for n in range(1, 7)]


def density_grid() -> list[tuple[Scenario, FieldKind]]:
    """Both kinds on Dirac n = 1..3, n by n, then vacuum/one-particle on
    spinless n = 1..6."""
    diracs, spinlesses = map(dirac, range(1, 4)), map(spinless, range(1, 7))
    pairs = [(kind(field), field) for field in diracs for kind in (vac_one, bell)]
    return pairs + [(vac_one(field), field) for field in spinlesses]


#: One case of a tolerance check: its deviation and the fields of its
#: failure line.
_Case = tuple[float, tuple]

#: The failure line of a case at one (scenario or family, n, r) point.
_POINT_LINE = "{} n={} r={:.4f} dev={dev:.3e}"


def _worse(worst: float, dev: float) -> float:
    """The larger of two deviations, or NaN once either is NaN (``max``
    keeps its first argument when a comparison with NaN fails, so it drops
    a NaN second argument)."""
    return dev if dev > worst or dev != dev else worst


def _gate(name: str, tol: float, text: str, cases: Iterable[_Case]) -> CheckResult:
    """Count ``cases``, pass each only when its deviation is below ``tol``,
    keep the worst deviation (:func:`_worse`) and report each failing case
    as ``text.format(*context, dev=dev)``."""
    worst, count, failures = 0.0, 0, []
    for dev, context in cases:
        count += 1
        worst = _worse(worst, dev)
        if not dev < tol:
            failures.append(text.format(*context, dev=dev))
    return CheckResult(name, not failures, worst, tol, count, failures)


#: Each oracle field with its grid-form vacuum.
OracleVacua = list[tuple[FieldKind, Terms]]


def oracle_vacua() -> OracleVacua:
    """Every oracle field with its normalized vacuum on :data:`ORACLE_R`,
    in grid form."""
    grid = squeeze_grid(ORACLE_R)
    return [(field, vacuum_amplitudes(field, grid)) for field in oracle_fields()]


def check_annihilation(
    vacua: OracleVacua, tols: Tolerances = Tolerances()
) -> CheckResult:
    """Every inertial annihilator must kill the constructed vacuum; ``vacua``
    is :func:`oracle_vacua`."""
    grid = squeeze_grid(ORACLE_R)
    cases = (
        (residual, (field.family.value, field.mode_count, r, slot))
        for field, vacuum in vacua
        for r, residuals in zip(ORACLE_R, annihilation_residuals(field, grid, vacuum))
        for slot, residual in enumerate(residuals)
    )
    return _gate(
        "annihilation oracle",
        tols.annihilation,
        "{} n={} r={:.4f} slot={} residual={dev:.3e}",
        cases,
    )


def check_normalization(
    vacua: OracleVacua, tols: Tolerances = Tolerances()
) -> CheckResult:
    """Raw-ansatz vacuum norm must telescope to 1/cos(r)^slots, and the
    normalized vacuum (``vacua``, :func:`oracle_vacua`) to 1."""
    grid = squeeze_grid(ORACLE_R)

    def cases() -> Iterator[_Case]:
        for field, normalized in vacua:
            raws = point_terms(vacuum_amplitudes(field, grid, c0=1.0))
            for r, raw, vacuum in zip(ORACLE_R, raws, point_terms(normalized)):
                expected = 1.0 / math.cos(r) ** field.slots
                dev = _worse(abs(norm(raw) - expected), abs(norm(vacuum) - 1.0))
                yield dev, (field.family.value, field.mode_count, r)

    return _gate("vacuum normalization", tols.normalization, _POINT_LINE, cases())


#: Each :func:`density_grid` pair with its brute-force and analytic stacks.
DensityStacks = list[tuple[Scenario, FieldKind, DensityMatrix, DensityMatrix]]


def density_stacks() -> DensityStacks:
    """Every :func:`density_grid` pair with its density stack on
    :data:`ORACLE_R` from each path: the trace-out of the joint state, then
    the analytic assembly."""
    grid = squeeze_grid(ORACLE_R)
    return [
        (
            scenario,
            field,
            trace_out_region_iv(build_joint_state(scenario, field, grid)),
            analytic_density(scenario, field, grid),
        )
        for scenario, field in density_grid()
    ]


def check_density_equivalence(
    stacks: DensityStacks, tols: Tolerances = Tolerances()
) -> CheckResult:
    """Analytic assembly against trace-out of the joint state, entrywise;
    ``stacks`` is :func:`density_stacks`."""
    cases = (
        (dev, (scenario.name(field), field.mode_count, r))
        for scenario, field, brute, direct in stacks
        for r, dev in zip(ORACLE_R, max_entry_difference(brute, direct))
    )
    return _gate(
        "density path equivalence", tols.density_equivalence, _POINT_LINE, cases
    )


def check_density_health(
    stacks: DensityStacks, tols: Tolerances = Tolerances()
) -> CheckResult:
    """Hermiticity, unit trace and positive semidefiniteness on both paths;
    ``stacks`` is :func:`density_stacks`."""
    worst, cases, failures = 0.0, 0, []
    for scenario, field, *pair in stacks:
        # per stack, one (defect, trace, least eigenvalue) triple per point
        health = [
            zip(rho.hermiticity_defect(), rho.trace(), lowest_eigenvalues(rho))
            for rho in pair
        ]
        for r, *triples in zip(ORACLE_R, *health):
            for label, (herm, trace, min_eig) in zip(("brute", "analytic"), triples):
                trace_dev = abs(trace - 1.0)
                cases += 1
                worst = reduce(_worse, (herm, trace_dev, -min_eig), worst)
                healthy = (
                    herm < tols.hermiticity
                    and trace_dev < tols.trace
                    and min_eig > -tols.psd
                )
                if not healthy:
                    failures.append(
                        f"{scenario.name(field)} n={field.mode_count} r={r:.4f} "
                        f"[{label}] herm={herm:.2e} trace_dev={trace_dev:.2e} "
                        f"min_eig={min_eig:.2e}"
                    )
    tol = max(tols.hermiticity, tols.trace, tols.psd)
    return CheckResult("density matrix health", not failures, worst, tol, cases, failures)


def check_block_census() -> CheckResult:
    """Structural 2x2 block counts in the partial transpose against the
    binomial multiplicities, exactly."""
    rs = squeeze_grid([CENSUS_R])
    cases, failures = 0, []
    pairs = density_grid() + [(kind(dirac(4)), dirac(4)) for kind in (vac_one, bell)]
    for scenario, field in pairs:
        rho = trace_out_region_iv(build_joint_state(scenario, field, rs))
        counts = block_census(scenario, field, rho)
        expected = dict(enumerate(block_row(scenario, field)))
        cases += 1
        if counts != expected:
            failures.append(
                f"{scenario.name(field)} n={field.mode_count}: "
                f"extracted {counts} != formula {expected}"
            )
    return CheckResult("block census (exact)", not failures, 0.0, 0.0, cases, failures)


def _block_combos() -> list[tuple[Scenario, list[FieldKind]]]:
    """The deep mode grids of the block-path checks, one scenario family
    each: vacuum/one-particle and Bell on Dirac n = 1..12, and
    vacuum/one-particle on spinless n = 1..64."""
    diracs = [dirac(n) for n in range(1, 13)]
    spinlesses = [spinless(n) for n in range(1, 65)]
    return [
        (kind(fields[0]), fields)
        for kind, fields in ((vac_one, diracs), (bell, diracs), (vac_one, spinlesses))
    ]


#: Each scenario family of the block checks with its fields and their
#: block-series rows.
BlockRows = list[tuple[Scenario, list[FieldKind], list[list[float]]]]


def block_rows() -> BlockRows:
    """One :func:`negativity_blocks` call per scenario family of the deep
    mode grids, on :data:`NEGATIVITY_R`."""
    grid = squeeze_grid(NEGATIVITY_R)
    return [
        (scenario, fields, negativity_blocks(scenario, fields, grid))
        for scenario, fields in _block_combos()
    ]


def _closed_form_cases(
    pairs: Iterable[tuple[Scenario, FieldKind]], rows: Iterable[list[float]]
) -> Iterator[_Case]:
    """|N - 0.5 cos(r)^2| at every point of every row, each row a pair's
    negativity on :data:`NEGATIVITY_R`."""
    targets = [0.5 * math.cos(r) ** 2 for r in NEGATIVITY_R]
    for (scenario, field), row in zip(pairs, rows):
        name, n = scenario.name(field), field.mode_count
        for r, target, value in zip(NEGATIVITY_R, targets, row):
            yield abs(value - target), (name, n, r)


def check_negativity_analytic(
    series: BlockRows, tols: Tolerances = Tolerances()
) -> CheckResult:
    """Block-path negativity against 0.5 cos(r)^2 on deep mode grids;
    ``series`` is :func:`block_rows`."""
    pairs = ((scenario, field) for scenario, fields, _ in series for field in fields)
    rows = (row for _, _, table in series for row in table)
    return _gate(
        "negativity (blocks) vs closed form",
        tols.negativity_analytic,
        _POINT_LINE,
        _closed_form_cases(pairs, rows),
    )


def check_negativity_bruteforce(tols: Tolerances = Tolerances()) -> CheckResult:
    """Eigensolve negativity against 0.5 cos(r)^2 where brute force fits."""
    grid, pairs = squeeze_grid(NEGATIVITY_R), density_grid()
    rows = (
        negativity_bruteforce(trace_out_region_iv(build_joint_state(*pair, grid)))
        for pair in pairs
    )
    return _gate(
        "negativity (brute force) vs closed form",
        tols.negativity_bruteforce,
        _POINT_LINE,
        _closed_form_cases(pairs, rows),
    )


def check_n_independence(
    series: BlockRows, tols: Tolerances = Tolerances()
) -> CheckResult:
    """Spread (``np.ptp``, NaN when any value is NaN) of the block-path
    negativity across mode counts at fixed r, on every 4th column of
    ``series`` (:func:`block_rows`): the nine-point linspace, bit for bit."""
    grid = NEGATIVITY_R[::4]
    cases = (
        (spread, (scenario.name(fields[0]), r))
        for scenario, fields, table in series
        # one row per mode count: the spread of each column across them
        for r, spread in zip(grid, np.ptp(np.array(table)[:, ::4], axis=0).tolist())
    )
    return _gate(
        "negativity n-independence",
        tols.n_independence,
        "{} r={:.4f} spread={dev:.3e}",
        cases,
    )


def check_combinatorics() -> CheckResult:
    """Exact integer identities for n = 1..:data:`COUNT_MAX_N`: popcount
    enumerations against the pair-counting sums and binomials, and the
    inclusion-exclusion block counts."""
    cases, failures = 0, []
    for n in range(1, COUNT_MAX_N + 1):
        for name, field, formula in (
            ("upsilon", dirac(n), comb.upsilon),
            ("chi", spinless(n), comb.chi),
        ):
            subsets = np.bincount(np.bitwise_count(np.arange(1 << field.slots)))
            for m, enumerated in enumerate(subsets.tolist()):
                counts = {enumerated, formula(n, m), math.comb(field.slots, m)}
                cases += 1
                if len(counts) != 1:
                    failures.append(f"{name} n={n} m={m}: counts {sorted(counts)} differ")
        for kind, field in ((vac_one, dirac(n)), (bell, dirac(n)), (vac_one, spinless(n))):
            scenario = kind(field)
            reserved = sum(len(modes) for modes in scenario.branches)
            top = field.slots - reserved
            for m in range(0, top + 1):
                cases += 1
                if comb.blocks_via_exclusion(field, reserved, m) != math.comb(top, m):
                    failures.append(f"{scenario.name(field)} exclusion n={n} m={m}")
    return CheckResult(
        "counting identities (exact)", not failures, 0.0, 0.0, cases, failures
    )


def run_all(tols: Tolerances = Tolerances()) -> list[CheckResult]:
    """Every check, in report order; each shared input is built once here."""
    vacua, stacks, series = oracle_vacua(), density_stacks(), block_rows()
    return [
        check_annihilation(vacua, tols),
        check_normalization(vacua, tols),
        check_combinatorics(),
        check_density_equivalence(stacks, tols),
        check_density_health(stacks, tols),
        check_block_census(),
        check_negativity_analytic(series, tols),
        check_negativity_bruteforce(tols),
        check_n_independence(series, tols),
    ]
