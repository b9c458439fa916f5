"""The shared inputs of ``verify.run_all``: each is built once per call,
never kept between calls, and the checks read them as if each had built
its own."""

import math
from dataclasses import fields

import pytest

from rindler_ferm import verify
from rindler_ferm.cli import main
from rindler_ferm.verify import (
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
    r_points,
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
        check_block_census(tols),
        check_negativity_analytic(block_rows(), tols),
        check_negativity_bruteforce(tols),
        check_n_independence(block_rows(), tols),
    ]
    assert run_all(tols) == expected
    assert sum(result.cases for result in expected) == 4298


def test_n_independence_grid_is_every_fourth_point_of_the_series_grid():
    coarse, fine = r_points(9), r_points(33)
    assert [r.r for r in coarse] == [fine[4 * i].r for i in range(len(coarse))]


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
    # NaN from either negativity path fails the checks that read it
    nan_rows = {
        "negativity_blocks": lambda scenario, fields, rs: [
            [math.nan] * len(rs) for _ in fields
        ],
        "negativity_bruteforce": lambda rho: [math.nan] * rho.points,
    }
    monkeypatch.setattr(verify, path, nan_rows[path])
    assert main(["verify"]) == 1
    status = {
        line.partition(" max dev ")[0].rstrip(): line.split()[-1]
        for line in capsys.readouterr().out.splitlines()
        if not line.startswith((" ", "RESULT"))
    }
    assert len(status) == 9
    assert {name for name, result in status.items() if result == "FAIL"} == failing
