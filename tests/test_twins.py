"""Dirac n and spinless 2n are one computation: below the names, every layer
reads only the slot count, so the two fields give the same bytes in the
sweep columns after ``scenario,n`` (brute force included), the density
dumps, the block census and the analytic entry layout."""

import math

import pytest

from reference import KINDS
from rindler_ferm import cli
from rindler_ferm.density import analytic_layout, build_joint_state, trace_out_region_iv
from rindler_ferm.entanglement import block_census
from rindler_ferm.modes import dirac, spinless
from rindler_ferm.rindler import squeeze_grid
from rindler_ferm.verify import CENSUS_R

#: Zero squeezing, the least subnormal r, a tiny r, a middle value and pi/4.
TWIN_R = [0.0, 5e-324, 1e-9, 0.4, math.pi / 4]


def outputs(kind, field, tmp_path):
    """Every output of ``kind`` on ``field`` that does not name the field:
    the sweep rows past ``scenario,n``, the dump bodies in point order, the
    census dict and the layout's arrays (dtype and bytes)."""
    out, rhos = tmp_path / f"{field.family.value}.csv", tmp_path / field.family.value
    assert cli.main([
        "sweep", "--scenario", kind, "--field", field.family.value,
        "--modes", str(field.mode_count), "--r-grid", ",".join(map(repr, TWIN_R)),
        "--require-bruteforce", "--out", str(out), "--dump-rho", str(rhos),
    ]) == 0
    rows = [line.split(",", 2)[2] for line in out.read_text().splitlines()]
    dumps = [path.read_bytes() for path in sorted(rhos.iterdir())]
    scenario = KINDS[kind](field)
    joint = build_joint_state(scenario, field, squeeze_grid([CENSUS_R]))
    census = block_census(scenario, field, trace_out_region_iv(joint))
    layout = analytic_layout(scenario, field)
    arrays = [
        (column.dtype.str, column.tobytes())
        for column in (layout.rows, layout.cols, layout.key, layout.text)
    ]
    return rows, dumps, census, arrays


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("kind", list(KINDS))
def test_dirac_n_and_spinless_2n_give_the_same_bytes(kind, n, tmp_path):
    rows, dumps, census, arrays = outputs(kind, dirac(n), tmp_path)
    assert len(rows) == len(TWIN_R) + 1 and len(dumps) == len(TWIN_R)
    # r, then the analytic and the brute-force column: both filled
    assert all(row.split(",")[2] for row in rows[1:])
    twin = outputs(kind, spinless(2 * n), tmp_path)
    assert twin[0] == rows
    assert twin[1] == dumps
    assert twin[2] == census
    assert twin[3] == arrays
