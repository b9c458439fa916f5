"""The shared inputs of ``verify.run_all``: each is built once per call,
never kept between calls, and the checks read them as if each had built
its own."""

import math
from dataclasses import fields

import pytest

from rindler_ferm import verify
from rindler_ferm.cli import main
from rindler_ferm.fock import norm
from rindler_ferm.rindler import linspace, point_terms
from rindler_ferm.verify import (
    NEGATIVITY_R,
    Tolerances,
    block_rows,
    check_annihilation,
    check_block_census,
    check_combinatorics,
    check_density_equivalence,
    check_density_health,
    check_n_independence,
    check_negativity_analytic,
    check_negativity_bruteforce,
    check_normalization,
    density_stacks,
    oracle_vacua,
    run_all,
)

#: Every tolerance at 1e-300, so nearly every case is a failure line.
TINY = Tolerances(**{f.name: 1e-300 for f in fields(Tolerances)})


@pytest.mark.parametrize("tols", [Tolerances(), TINY], ids=["release", "tiny"])
def test_run_all_equals_the_checks_on_inputs_built_each_on_their_own(tols):
    expected = [
        check_annihilation(oracle_vacua(), tols),
        check_normalization(oracle_vacua(), tols),
        check_combinatorics(),
        check_density_equivalence(density_stacks(), tols),
        check_density_health(density_stacks(), tols),
        check_block_census(),
        check_negativity_analytic(block_rows(), tols),
        check_negativity_bruteforce(tols),
        check_n_independence(block_rows(), tols),
    ]
    assert run_all(tols) == expected
    assert sum(result.cases for result in expected) == 4298


def test_n_independence_grid_is_every_fourth_point_of_the_series_grid():
    assert len(NEGATIVITY_R) == 33
    assert NEGATIVITY_R[0] == 0.0 and NEGATIVITY_R[-1] == math.pi / 4
    assert list(NEGATIVITY_R[::4]) == linspace(9, 0.0, math.pi / 4)


def test_run_all_builds_each_shared_input_once_per_call(monkeypatch):
    calls: dict[str, int] = {}

    def counted(name):
        original = getattr(verify, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        return wrapper

    counts = {
        # 12 shared stacks, 14 censuses, 12 brute-force negativity stacks
        "build_joint_state": 38,
        "analytic_density": 12,
        "negativity_blocks": 3,
        # 10 shared normalized vacua and 10 raw ones
        "vacuum_amplitudes": 20,
    }
    for name in counts:
        monkeypatch.setattr(verify, name, counted(name))
    for _ in range(2):
        calls.clear()
        run_all()
        # a second call makes the same calls: nothing is kept between them
        assert calls == counts


def summary_lines(capsys):
    """The nine summary lines of a ``verify`` report, by check name."""
    return {
        line.partition(" max dev ")[0].rstrip(): line
        for line in capsys.readouterr().out.splitlines()
        if not line.startswith((" ", "RESULT"))
    }


def failing_checks(lines):
    return {name for name, line in lines.items() if line.endswith("FAIL")}


@pytest.mark.parametrize(
    "path,failing",
    [
        (
            "negativity_blocks",
            {"negativity (blocks) vs closed form", "negativity n-independence"},
        ),
        ("negativity_bruteforce", {"negativity (brute force) vs closed form"}),
    ],
)
def test_nan_negativity_fails_the_gate(monkeypatch, capsys, path, failing):
    # NaN fails every comparison: a case passes only on `dev < tol`, so a
    # NaN from either negativity path fails the checks that read it, and
    # each of them reports NaN as its worst deviation
    nan_rows = {
        "negativity_blocks": lambda scenario, fields, rs: [
            [math.nan] * len(rs) for _ in fields
        ],
        "negativity_bruteforce": lambda rho: [math.nan] * rho.points,
    }
    monkeypatch.setattr(verify, path, nan_rows[path])
    assert main(["verify"]) == 1
    lines = summary_lines(capsys)
    assert len(lines) == 9
    assert failing_checks(lines) == failing
    assert all(" max dev nan " in lines[name] for name in failing)


def test_one_nan_block_row_fails_both_block_checks(monkeypatch, capsys):
    # one spinless field's row only: a NaN that is not first in its column
    # must still make that column's spread NaN
    series = verify.negativity_blocks

    def one_nan_row(scenario, fields, rs):
        rows = series(scenario, fields, rs)
        if scenario.name == "vac-one-spinless":
            rows[1] = [math.nan] * len(rs)
        return rows

    monkeypatch.setattr(verify, "negativity_blocks", one_nan_row)
    assert main(["verify"]) == 1
    lines = summary_lines(capsys)
    assert failing_checks(lines) == {
        "negativity (blocks) vs closed form",
        "negativity n-independence",
    }
    assert " max dev nan " in lines["negativity (blocks) vs closed form"]
    assert " max dev nan " in lines["negativity n-independence"]


def test_nan_norm_of_the_normalized_vacuum_fails_normalization(monkeypatch):
    # NaN for the per-point states of the normalized vacua only, while the
    # raw norm next to it in the same case stays finite; the marked states
    # are kept alive, so no other state can take over their ids
    vacua = oracle_vacua()
    normalized = {id(terms) for _, terms in vacua}
    marked = {}

    def marking_point_terms(terms):
        points = point_terms(terms)
        if id(terms) in normalized:
            marked.update((id(point), point) for point in points)
        return points

    monkeypatch.setattr(verify, "point_terms", marking_point_terms)
    monkeypatch.setattr(
        verify, "norm", lambda terms: math.nan if id(terms) in marked else norm(terms)
    )
    result = check_normalization(vacua)
    assert not result.passed
    assert math.isnan(result.max_deviation)
    assert len(result.failures) == result.cases == 90


def test_least_eigenvalue_of_exactly_minus_psd_fails_density_health(monkeypatch):
    # health passes a least eigenvalue only above -psd, as _gate passes a
    # deviation only below its tolerance: -psd itself fails every case, and
    # the next double towards 0 passes every case
    tols = Tolerances()
    for least, passed in ((-tols.psd, False), (math.nextafter(-tols.psd, 0.0), True)):
        monkeypatch.setattr(
            verify, "lowest_eigenvalues", lambda rho: [least] * rho.points
        )
        result = check_density_health(density_stacks(), tols)
        assert result.passed is passed
        assert result.max_deviation == -least
        assert result.cases == 216
        assert len(result.failures) == (0 if passed else 216)


def test_nan_least_eigenvalue_fails_density_health(monkeypatch):
    monkeypatch.setattr(
        verify, "lowest_eigenvalues", lambda rho: [math.nan] * rho.points
    )
    result = check_density_health(density_stacks())
    assert not result.passed
    assert math.isnan(result.max_deviation)
    assert len(result.failures) == result.cases == 216

